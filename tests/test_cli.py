"""CLI behavior: exit codes, parse diagnostics, schemas, golden files."""

import argparse
import gc
import hashlib
import json
import os
import re
import select
import shlex
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from importlib.resources import files
from itertools import groupby
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from skelsig import cli, genvec, groups, kspace, svg
from skelsig.cli import (
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_REFUTED,
    EXIT_USAGE,
    SignatureParseError,
    _write_json,
    build_parser,
    main,
    parse_int_list,
    parse_signature,
)
from skelsig.geometry import gap
from skelsig.genvec import JsonText, Runs, SearchVerdict, Witness
from skelsig.groups import build_cyclic
from skelsig.kspace import (
    figure_dataset,
    realizable_set,
    sporadic_analysis,
    verify_gap,
)
from skelsig.rh import OrbifoldSignature, SkeletalSignature
from skelsig.svg import _POINT_STYLES, _ratio

import oracles
from oracles import (
    GeneratingVector,
    admissible_map,
    check_vector,
    circle_render_figure,
    figure_points,
    integer_points,
    point_report_json,
    pointwise_verify_gap,
    report_points,
    vector_json,
    witness_json,
    witness_of,
    witness_vector,
)

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).resolve().parents[1] / "README.md"
BAD_SIG_ERROR = "error: bad signature literal: expected integer period, got 'x' at position 3\n"
# sha256 of `kspace --sigma 48 --budget 200000` (404,674 bytes), wherever it is written
KSPACE_48_SHA256 = "4076abc584921659904e8b66b35c60f309de7bdd79b535a7405eb7ec58db5e31"
# sha256 of `kspace --sigma 150` (6,838,676 bytes): witnesses with long runs of equal entries
KSPACE_150_SHA256 = "bec93ca518fd20ff9aced00b4471fb30a5fbafbc7a41cc3a7d9e0486499f89de"
# sha256 of `kspace --sigma 300` (45,893,799 bytes): witnesses with r up to 602
KSPACE_300_SHA256 = "fb15c5151ab70ae7be0f6fe6c2abeb3cdeab819ec3169f0e82324bfb4341b18b"
# sha256 of the 125 `kspace --sigma s` documents (157,000,793 bytes), s = 2..126:
# every residue mod 3 below the first genus whose walk stalls, 127
KSPACE_2_126_SHA256 = "67fc5d10028599ee9868912c9411f5fe2232a22e77a5b5542893b056c332f997"
# sha256 of the 128 `verify-gap --sigma s --n n` documents (1,793,265 bytes), s = 9..72
# and n = 3, 4 in that order, one after another
VERIFY_GAP_9_72_SHA256 = "a2fd8bddc41d6f2f63c9bcedc417c0a29d7f41817dfbadff9a00551a44a6be78"
# sha256 of the 156 `verify-gap --sigma s --n n` documents (14,093,915 bytes), s = 73..150
# and n = 3, 4 in that order, one after another
VERIFY_GAP_73_150_SHA256 = "3388e2be86862b1932fe935d8af31f3917556592cf675c7e7007814e00e1d0a4"
# `genvec` runs pinned by one hash: exists (sorted, unsorted and repeated periods, a-pairs,
# product groups), not-exists by the product filter and by a full walk, and unknown by budget
GENVEC_CASES = [
    ("quaternion:2", "(2;2)"),
    ("quaternion:3", "(2;3)"),
    ("cyclic:6", "(0;2,3,6)"),
    ("cyclic:6", "(0;6,2,3)"),
    ("cyclic:2", "(0;2,2,2,2,2,2)"),
    ("dihedral:4", "(1;2,2)"),
    ("product:cyclic:2,dihedral:3", "(0;2,2,2,6)"),
    ("product:cyclic:2,quaternion:2", "(1;2,2)"),
    ("cyclic:4", "(1;2)"),
    ("elab:2^2", "(0;2,2)"),
    ("quaternion:2", "(2;2)", "--budget", "3"),
]
# sha256 of the 11 `genvec` documents of GENVEC_CASES (4,230 bytes), one after another
GENVEC_CASES_SHA256 = "476bf9381c35b2664e48f26f035e0b649d28ed9f1c0f84a8878c1cb7c83934f2"
# sha256 of the 4 `sporadic --h H --primes 3,5,7,11,13,17,19 --witness-n 2,3,4,5,6`
# documents (56,050 bytes), H = 2..5 in that order, one after another
SPORADIC_2_5_SHA256 = "ef5797cccc74a5b206728d95436f273a2fef1be472fbd58c7e4f8df7ea0bc33f"
# sha256 of `plot --sigma 48 --with-realized` (25,330 bytes): the goldens draw no realized point
PLOT_48_REALIZED_SHA256 = "d4ecaae2c263f1d3b8a872c67fb321f46564385d3e95f4ed172341689984ad7a"
# stdout, stderr and exit code of help and usage-error runs, 80 columns wide
CLI_TEXTS = json.loads((GOLDEN / "cli_texts.json").read_text(encoding="utf-8"))
SRC_ENV = {
    **os.environ,
    "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")
    + os.pathsep + os.environ.get("PYTHONPATH", ""),
}


def run(tmp_path, *argv):
    out = tmp_path / "out.dat"
    code = main([*argv, "--out", str(out)])
    return code, out.read_text(encoding="utf-8") if out.exists() else None


@pytest.fixture(scope="module")
def kspace_150_run(catalog, tmp_path_factory):
    """``kspace --sigma 150`` run once, with the catalog's tables built beforehand: its
    exit code, the document it wrote and the peak of memory traced while it ran."""
    realizable_set(150, catalog, 15)
    out = tmp_path_factory.mktemp("kspace_150") / "k.json"
    tracemalloc.start()
    try:
        code = main(["kspace", "--sigma", "150", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, out, peak


def validator_for(name: str) -> Draft202012Validator:
    root = files("skelsig").joinpath("schemas")
    common = Resource.from_contents(json.loads(root.joinpath("common.json").read_text()))
    schema = json.loads(root.joinpath(f"{name}.json").read_text())
    registry = Registry().with_resource("common.json", common)
    return Draft202012Validator(schema, registry=registry)


class TestSignatureParsing:
    def test_round_trip(self):
        assert parse_signature("(2;2)") == OrbifoldSignature(2, (2,))
        assert parse_signature("(0;2,2,2,2,2,2)") == OrbifoldSignature(0, (2,) * 6)
        assert parse_signature("(9;)") == OrbifoldSignature(9, ())
        assert parse_signature("(9)") == OrbifoldSignature(9, ())
        assert parse_signature(" ( 3 ; 2 , 4 ) ") == OrbifoldSignature(3, (2, 4))

    @pytest.mark.parametrize(
        "bad",
        ["", "2;2", "(2;2", "(x;2)", "(2;a)", "(2;2,,3)", "(0;1)", "(--3;2)", "(1;2,--2)", "(2;²)"],
    )
    def test_errors_carry_position(self, bad):
        with pytest.raises(SignatureParseError) as exc:
            parse_signature(bad)
        assert "position" in str(exc.value)


class TestExitCodes:
    def test_rh_ok(self, tmp_path):
        code, text = run(tmp_path, "rh", "--order", "8", "--sig", "(2;2)", "--sigma", "11")
        assert code == EXIT_OK
        payload = json.loads(text)
        assert payload["genus"]["frac"] == "11/1" and payload["holds"] is True

    def test_rh_parse_error(self, capsys):
        assert main(["rh", "--order", "8", "--sig", "(2;x)"]) == EXIT_USAGE
        assert capsys.readouterr() == ("", BAD_SIG_ERROR)

    def test_genvec_parse_error(self, capsys):
        assert main(["genvec", "--group", "quaternion:2", "--sig", "(2;x)"]) == EXIT_USAGE
        assert capsys.readouterr() == ("", BAD_SIG_ERROR)

    def test_usage_error(self):
        assert main(["rh", "--badflag"]) == EXIT_USAGE
        assert main(["no-such-command"]) == EXIT_USAGE

    def test_domain_error_is_usage(self, capsys):
        assert main(["missing", "--sigma", "5", "--h", "2"]) == EXIT_USAGE

    @pytest.mark.parametrize("command", ["gaps", "verify-gap"])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_gap_order_below_three_is_usage(self, command, n, capsys):
        assert main([command, "--sigma", "48", "--n", str(n)]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: gaps are defined for order >= 3, got {n}\n")

    @pytest.mark.parametrize("argv", [
        ["rh", "--order", str(10**400), "--sig", "(0;2,3,7)"],
        ["gaps", "--sigma", str(10**400), "--n", "3"],
    ])
    def test_value_beyond_a_float_is_usage(self, argv, tmp_path, capsys):
        # the decimal beside each exact fraction cannot hold it: one error line, no output
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: integer division result too large for a float\n")
        out = tmp_path / "out.json"
        assert main([*argv, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().out == "" and not out.exists()

    def test_failure_before_output_leaves_no_file(self, tmp_path, capsys):
        # --out is opened only once the payload is built
        out = tmp_path / "out.json"
        assert main(["verify-gap", "--sigma", "48", "--n", "2", "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    def test_unwritable_sidecar_leaves_no_out_file(self, tmp_path, capsys):
        # the sidecar is opened before --out, so its failure comes first
        out = tmp_path / "plane.svg"
        sidecar = tmp_path / "missing" / "points.csv"
        argv = ["plot", "--sigma", "2", "--out", str(out), "--csv-sidecar", str(sidecar)]
        assert main(argv) == EXIT_USAGE
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("before", [None, "h,r,status\r\n2,0,admissible\r\n"],
                             ids=["absent", "written"])
    def test_unwritable_out_leaves_the_sidecar_as_it_was(self, tmp_path, capsys, before):
        # the sidecar is written only once --out is open: a run that fails there
        # neither creates it nor truncates what it held
        out = tmp_path / "missing" / "plane.svg"
        sidecar = tmp_path / "points.csv"
        if before is not None:
            sidecar.write_bytes(before.encode("utf-8"))
        argv = ["plot", "--sigma", "2", "--out", str(out), "--csv-sidecar", str(sidecar)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        if before is None:
            assert not sidecar.exists()
        else:
            assert sidecar.read_bytes() == before.encode("utf-8")

    @pytest.mark.parametrize("link", [False, True], ids=["path", "symlink"])
    def test_sidecar_at_the_out_path_is_usage(self, tmp_path, capsys, monkeypatch, link):
        # the CSV would replace the SVG in the one file: the run is refused before any
        # work, and the file is left absent or as it was
        monkeypatch.setattr(kspace, "figure_dataset", None)
        sidecar = out = tmp_path / "plane.svg"
        if link:
            (out := tmp_path / "link.svg").symlink_to(sidecar)
        argv = ["plot", "--sigma", "5", "--out", str(out), "--csv-sidecar", str(sidecar)]
        for before in (None, b"<svg/>\n"):
            if before:
                sidecar.write_bytes(before)
            assert main(argv) == EXIT_USAGE
            assert re.fullmatch(r"error: [^\n]*\n", capsys.readouterr().err)
            assert (sidecar.read_bytes() if sidecar.exists() else None) == before

    def test_sidecar_replaces_longer_text(self, tmp_path):
        # a sidecar that held more text than the run writes ends with the run's rows
        sidecar = tmp_path / "points.csv"
        sidecar.write_text("x" * 100_000, encoding="utf-8")
        argv = ["plot", "--sigma", "2", "--out", str(tmp_path / "plane.svg"),
                "--csv-sidecar", str(sidecar)]
        assert main(argv) == EXIT_OK
        rows = figure_dataset(2).rows
        assert sidecar.read_bytes() == cli.runs_csv(rows).encode("utf-8")

    def test_missing_genus_8_h2_is_usage_without_traceback(self):
        # (2, 1) lies on the order-5 cyclic line at genus 8, so there is no missing point
        proc = subprocess.run(
            [sys.executable, "-m", "skelsig.cli", "missing", "--sigma", "8", "--h", "2"],
            capture_output=True, text=True, env=SRC_ENV,
        )
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
        assert "(2, 1)" in proc.stderr and "order-5 cyclic line" in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-gap", "--sigma", "48", "--n", "4"],
            ["kspace", "--sigma", "2"],
            ["sporadic", "--h", "2", "--primes", "3"],
            ["genvec", "--group", "cyclic:4", "--sig", "(1;2)"],
            ["plot", "--sigma", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_budget_is_usage(self, capsys, argv):
        assert main([*argv, "--budget", "-1"]) == EXIT_USAGE
        assert "--budget" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["rh", "--order", "8", "--sig", "(2;2)"],
            ["gaps", "--sigma", "48", "--n", "3"],
            ["missing", "--sigma", "48", "--h", "3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_budget_is_not_an_option_without_search(self, capsys, argv):
        assert main([*argv, "--budget", "5"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --budget 5" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [["kspace", "--sigma", "5"], ["plot", "--sigma", "5", "--with-realized"]],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("value", ["-3", "0", "x"])
    def test_bad_max_order_is_usage(self, capsys, argv, value):
        assert main([*argv, "--max-order", value]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--max-order" in captured.err

    @pytest.mark.parametrize("primes", ["", ",,", " , "])
    def test_empty_primes_is_usage(self, capsys, primes):
        assert main(["sporadic", "--h", "2", "--primes", primes]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument --primes: expected comma-separated integers" in captured.err

    @pytest.mark.parametrize(
        "flag,argv",
        [
            ("--primes", ["--primes", "3,x"]),
            ("--witness-n", ["--primes", "3", "--witness-n", "2,y"]),
            ("--witness-n", ["--primes", "3", "--witness-n", ","]),
        ],
    )
    def test_non_integer_list_is_usage(self, capsys, flag, argv):
        assert main(["sporadic", "--h", "2", *argv]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument {flag}: expected comma-separated integers" in captured.err
        assert "Traceback" not in captured.err

    def test_int_list_skips_blank_items(self):
        assert parse_int_list(" 3, 5,,7 ,") == [3, 5, 7]
        args = build_parser().parse_args(["sporadic", "--h", "2", "--primes", "3,5"])
        assert (args.primes, args.witness_n) == ([3, 5], ())

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_restricted_parser_is_built_once(self):
        assert build_parser("plot") is build_parser("plot")
        assert build_parser("plot") is not build_parser()

    @pytest.mark.parametrize("name", cli.SUBCOMMANDS)
    def test_restricted_usage_is_the_full_usage(self, name, tmp_path, capsys):
        # a run parses with its subcommand's parser alone, but an argument that parser
        # leaves over is a top-level error: the full usage line, naming all eight
        required = {
            "rh": ["--order", "2", "--sig", "(0;2,2,2,2,2,2)"],
            "gaps": ["--sigma", "5", "--n", "3"],
            "verify-gap": ["--sigma", "5", "--n", "3"],
            "missing": ["--sigma", "5", "--h", "2"],
            "kspace": ["--sigma", "5"],
            "sporadic": ["--h", "2", "--primes", "3"],
            "genvec": ["--group", "cyclic:2", "--sig", "(0;2,2,2,2,2,2)"],
            "plot": ["--sigma", "5"],
        }
        out = tmp_path / "out.dat"
        argv = [name, *required[name], "--out", str(out), "--no-such-flag", "7"]
        assert main(argv) == EXIT_USAGE
        usage = build_parser().format_usage()
        error = "skelsig: error: unrecognized arguments: --no-such-flag 7\n"
        assert capsys.readouterr() == ("", usage + error)
        assert not out.exists()

    def test_a_run_builds_one_subparser(self, tmp_path, monkeypatch):
        # a count guard: the full parser is nine parsers, a plot run builds its own alone
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        build_parser.cache_clear()
        try:
            assert main(["plot", "--sigma", "2", "--out", str(tmp_path / "plane.svg")]) == EXIT_OK
        finally:
            build_parser.cache_clear()
        assert built == ["skelsig plot"]

    @pytest.mark.parametrize(
        "case", CLI_TEXTS, ids=lambda case: "_".join(case["argv"]) or "no-arguments"
    )
    def test_help_and_usage_errors_pinned(self, case, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code = main(list(case["argv"]))
        assert (code, *capsys.readouterr()) == (case["code"], case["stdout"], case["stderr"])

    def test_closed_stdout_exits_quietly(self):
        # kspace at genus 100 writes about 2.4 MB; the reader leaves after one byte
        argv = [sys.executable, "-m", "skelsig.cli", "kspace", "--sigma", "100"]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                bufsize=0, env=SRC_ENV)
        try:
            assert select.select([proc.stdout], [], [], 60)[0], "no output within 60 s"
            assert proc.stdout.read(1) == b"{"
            proc.stdout.close()
            assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE
            assert proc.stderr.read() == b""
        finally:
            proc.kill()
            proc.wait(timeout=10)
            proc.stderr.close()

    def test_bundled_catalog_tables_built_once_per_process(self, tmp_path, monkeypatch):
        # a count guard: a second command reuses the first one's manifest and tables
        built = Counter()
        build = groups.build_from_spec

        def counted(spec, **kwargs):
            built[kwargs.get("name")] += 1
            return build(spec, **kwargs)

        monkeypatch.setattr(groups, "build_from_spec", counted)
        groups.bundled_catalog.cache_clear()
        texts = [run(tmp_path, "verify-gap", "--sigma", "48", "--n", "4")[1] for _ in range(2)]
        assert texts == [(GOLDEN / "verify_gap_48.json").read_text(encoding="utf-8")] * 2
        assert built and max(built.values()) == 1

    def test_catalog_comes_only_from_the_flag(self, tmp_path, monkeypatch):
        # a catalog directory in the environment is neither read nor an error
        monkeypatch.setenv("SKELSIG_CATALOG", str(tmp_path / "missing"))
        code, text = run(tmp_path, "kspace", "--sigma", "2")
        assert code == EXIT_OK
        assert text == (GOLDEN / "kspace_2.json").read_text(encoding="utf-8")

    def test_malformed_catalog_manifest_is_usage(self, tmp_path, capsys):
        for entry in [
            '{"order": 2, "spec": "cyclic:2"}',
            '{"order": 2, "spec": "cyclic:2", "label": "C2", "complete": "false"}',
        ]:
            (tmp_path / "manifest.json").write_text(f"[{entry}]")
            assert main(["kspace", "--sigma", "2", "--catalog", str(tmp_path)]) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and "bad entry" in captured.err

    def test_verify_gap_verified(self, tmp_path):
        code, text = run(tmp_path, "verify-gap", "--sigma", "48", "--n", "4")
        assert code == EXIT_OK
        payload = json.loads(text)
        assert payload["report"]["conclusion"] == "verified"

    def test_genvec_exists_vs_absent_vs_unknown(self, tmp_path):
        code, _ = run(tmp_path, "genvec", "--group", "quaternion:2", "--sig", "(2;2)")
        assert code == EXIT_OK
        code, _ = run(tmp_path, "genvec", "--group", "cyclic:4", "--sig", "(1;2)")
        assert code == EXIT_REFUTED
        code, _ = run(
            tmp_path, "genvec", "--group", "quaternion:2", "--sig", "(2;2)", "--budget", "3"
        )
        assert code == EXIT_PARTIAL

    def test_kspace_48_leaves_no_point_unknown(self, tmp_path):
        # (5, 2) is closed by the product filter on C10 (h = 5, 10^10 a-tuples)
        # without a tuple walk, so this budget leaves nothing open
        code, text = run(tmp_path, "kspace", "--sigma", "48", "--budget", "200000")
        assert code == EXIT_OK
        assert json.loads(text)["scope"]["unknownPoints"] == []

    def test_sporadic_partial_without_catalog_is_not_silent(self, tmp_path):
        # order-4 coverage comes from the bundled catalog; with it the run is complete
        code, text = run(tmp_path, "sporadic", "--h", "2", "--primes", "5", "--witness-n", "2")
        assert code == EXIT_OK
        assert json.loads(text)["report"]["complete"] is True


class TestSchemas:
    @pytest.mark.parametrize(
        "schema,argv",
        [
            ("rh", ["rh", "--order", "8", "--sig", "(2;2)", "--sigma", "11"]),
            ("gaps", ["gaps", "--sigma", "48", "--n", "3", "4"]),
            ("missing", ["missing", "--sigma", "48", "--h", "3"]),
            ("kspace", ["kspace", "--sigma", "2"]),
            ("verify_gap", ["verify-gap", "--sigma", "48", "--n", "4"]),
            ("genvec", ["genvec", "--group", "quaternion:2", "--sig", "(2;2)"]),
            ("sporadic", ["sporadic", "--h", "2", "--primes", "3,5", "--witness-n", "2"]),
        ],
    )
    def test_output_validates(self, tmp_path, schema, argv):
        code, text = run(tmp_path, *argv)
        assert code == EXIT_OK
        validator_for(schema).validate(json.loads(text))

    def test_config_echoed(self, tmp_path):
        _, text = run(tmp_path, "missing", "--sigma", "48", "--h", "3")
        cfg = json.loads(text)["config"]
        assert cfg["command"] == "missing" and cfg["sigma"] == 48 and cfg["h"] == 3
        echoes = []
        for argv in (["--primes", "3"], ["--primes", "5", "--witness-n", "2"]):
            _, text = run(tmp_path, "sporadic", "--h", "2", *argv)
            cfg = json.loads(text)["config"]
            echoes.append((cfg["command"], cfg["h"], cfg["primes"], cfg["witnessn"]))
        assert echoes == [("sporadic", 2, [3], []), ("sporadic", 2, [5], [2])]


class TestGoldenFiles:
    @pytest.mark.parametrize(
        "name,argv",
        [
            ("rh_11.json", ["rh", "--order", "8", "--sig", "(2;2)", "--sigma", "11"]),
            ("gaps_48.json", ["gaps", "--sigma", "48", "--n", "3", "4"]),
            ("missing_48.json", ["missing", "--sigma", "48", "--h", "3"]),
            ("kspace_2.json", ["kspace", "--sigma", "2"]),
            ("kspace_11.json", ["kspace", "--sigma", "11"]),
            ("verify_gap_48.json", ["verify-gap", "--sigma", "48", "--n", "4"]),
            ("genvec_q8.json", ["genvec", "--group", "quaternion:2", "--sig", "(2;2)"]),
            ("sporadic_2.json", ["sporadic", "--h", "2", "--primes", "3,5", "--witness-n", "2"]),
            ("plot_2.svg", ["plot", "--sigma", "2"]),
            ("plot_48.svg", ["plot", "--sigma", "48"]),
        ],
    )
    def test_bit_exact(self, tmp_path, name, argv):
        code, text = run(tmp_path, *argv)
        assert code == EXIT_OK
        assert text == (GOLDEN / name).read_text(encoding="utf-8"), f"{name} drifted"

    def test_kspace_48_witnesses_pinned(self, tmp_path):
        # the goldens hold witnesses only at genus 2 and 11; this pins every
        # witness at genus 48 (404,674 bytes) by hash
        code, text = run(tmp_path, "kspace", "--sigma", "48", "--budget", "200000")
        assert code == EXIT_OK
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == KSPACE_48_SHA256

    def test_kspace_48_max_order_100_counts(self, tmp_path):
        # past the bundled catalog's order 15 only prime orders are covered, by C_p;
        # counts, not a golden, since more groups above 15 may add witnesses
        code, text = run(tmp_path, "kspace", "--sigma", "48", "--max-order", "100")
        assert code == EXIT_OK
        doc = json.loads(text)
        scope = doc["scope"]
        assert (len(doc["realized"]), scope["fullyCoveredPoints"], scope["totalPoints"]) == (
            305, 290, 323,
        )
        assert scope["unknownPoints"] == []
        # the echo lists the catalog's complete orders; covered primes are not listed
        assert scope["completeOrders"] == list(range(2, 16))
        above = []
        for item in doc["realized"]:
            w = item["witness"]
            group = groups.build_from_spec(w["spec"])
            if group.order <= 15:
                continue
            above.append(group.order)
            sig = OrbifoldSignature(w["signature"]["h"], w["signature"]["periods"])
            vec = GeneratingVector(
                tuple(map(tuple, w["vector"]["aPairs"])), tuple(w["vector"]["c"])
            )
            witness = witness_of(group.name, group.spec, sig, vec)
            assert genvec.verify(group, witness) and check_vector(group, vec, sig).ok, w
        assert len(above) == 3

    def test_kspace_150_pinned(self, kspace_150_run):
        code, out, _ = kspace_150_run
        assert code == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == KSPACE_150_SHA256

    def test_kspace_300_pinned(self, tmp_path):
        code, text = run(tmp_path, "kspace", "--sigma", "300")
        assert code == EXIT_OK
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == KSPACE_300_SHA256

    def test_kspace_2_to_126_pinned(self, tmp_path):
        # the other kspace pins are at multiples of 3; this pins every genus up to 126
        digest, size = hashlib.sha256(), 0
        for sigma in range(2, 127):
            code, text = run(tmp_path, "kspace", "--sigma", str(sigma))
            assert code == EXIT_OK, sigma
            data = text.encode("utf-8")
            size += len(data)
            digest.update(data)
        assert size == 157_000_793
        assert digest.hexdigest() == KSPACE_2_126_SHA256

    def test_verify_gap_9_to_72_pinned(self, tmp_path):
        # one golden holds verify-gap at genus 48, n = 4; this pins every gap
        # point's verdict and analysis at n = 3, 4 over genus 9..72 by hash
        digest = hashlib.sha256()
        for sigma in range(9, 73):
            for n in (3, 4):
                code, text = run(tmp_path, "verify-gap", "--sigma", str(sigma), "--n", str(n))
                assert code == EXIT_OK, (sigma, n)
                digest.update(text.encode("utf-8"))
        assert digest.hexdigest() == VERIFY_GAP_9_72_SHA256

    def test_verify_gap_73_to_150_pinned(self, tmp_path):
        # the genus-9..72 pin continued to genus 150
        digest, size = hashlib.sha256(), 0
        for sigma in range(73, 151):
            for n in (3, 4):
                code, text = run(tmp_path, "verify-gap", "--sigma", str(sigma), "--n", str(n))
                assert code == EXIT_OK, (sigma, n)
                data = text.encode("utf-8")
                size += len(data)
                digest.update(data)
        assert size == 14_093_915
        assert digest.hexdigest() == VERIFY_GAP_73_150_SHA256

    def test_genvec_cases_pinned(self, tmp_path):
        # one golden holds a genvec witness, Q8's; this pins a witness, or its absence,
        # for each kind of verdict and vector shape
        digest, codes, size = hashlib.sha256(), [], 0
        for group, sig, *extra in GENVEC_CASES:
            code, text = run(tmp_path, "genvec", "--group", group, "--sig", sig, *extra)
            codes.append(code)
            size += len(text)
            digest.update(text.encode("utf-8"))
        assert codes == [EXIT_OK] * 8 + [EXIT_REFUTED] * 2 + [EXIT_PARTIAL]
        assert size == 4230
        assert digest.hexdigest() == GENVEC_CASES_SHA256

    def test_sporadic_2_to_5_pinned(self, tmp_path):
        # one golden holds sporadic at h = 2 with one quaternion witness; this pins
        # five witnesses, with their words, and the |G| = 2n cases at h = 2..5
        digest = hashlib.sha256()
        for h in range(2, 6):
            code, text = run(tmp_path, "sporadic", "--h", str(h), "--primes",
                             "3,5,7,11,13,17,19", "--witness-n", "2,3,4,5,6")
            assert code == EXIT_OK, h
            digest.update(text.encode("utf-8"))
        assert digest.hexdigest() == SPORADIC_2_5_SHA256

    def test_stdout_matches_out(self, capsys):
        assert main(["kspace", "--sigma", "48", "--budget", "200000"]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == KSPACE_48_SHA256

    def test_plot_48_realized_pinned(self, tmp_path):
        code, text = run(tmp_path, "plot", "--sigma", "48", "--with-realized")
        assert code == EXIT_OK
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PLOT_48_REALIZED_SHA256

    def test_plot_deterministic_across_runs(self, tmp_path):
        _, first = run(tmp_path, "plot", "--sigma", "11")
        _, second = run(tmp_path, "plot", "--sigma", "11")
        assert first == second

    def test_csv_sidecar(self, tmp_path):
        sidecar = tmp_path / "points.csv"
        code, _ = run(tmp_path, "plot", "--sigma", "11", "--csv-sidecar", str(sidecar))
        assert code == EXIT_OK
        lines = sidecar.read_text().strip().splitlines()
        assert lines[0] == "h,r,status"
        assert all(line.count(",") == 2 for line in lines[1:])

    def test_csv_sidecar_bytes(self, tmp_path):
        sidecar = tmp_path / "points.csv"
        code, _ = run(
            tmp_path, "plot", "--sigma", "11", "--with-realized", "--csv-sidecar", str(sidecar)
        )
        assert code == EXIT_OK
        assert sidecar.read_bytes() == (GOLDEN / "plot_11_realized.csv").read_bytes()

    def test_max_order_does_not_cap_exception_points(self, tmp_path):
        # (8, 6) and (10, 1) lie on the order-5 exception line at genus 48 and are feasible
        # only at order 5: past the cap of the realized map, they are decided all the same
        assert admissible_map(48)[(8, 6)] == admissible_map(48)[(10, 1)] == (5,)
        sidecar = tmp_path / "points.csv"
        argv = ["--sigma", "48", "--with-realized", "--max-order", "3", "--csv-sidecar"]
        code, _ = run(tmp_path, "plot", *argv, str(sidecar))
        assert code == EXIT_OK
        rows = sidecar.read_text(encoding="utf-8").splitlines()
        assert "8,6,exception-realized" in rows and "10,1,exception-excluded" in rows

    def test_kspace_csv_format(self, tmp_path):
        code, text = run(tmp_path, "kspace", "--sigma", "2", "--format", "csv")
        assert code == EXIT_OK
        lines = text.strip().splitlines()
        assert lines[0] == "h,r,status"
        assert "0,6,realized" in lines


class TestSvgRatio:
    @given(
        st.integers(0, 10**6) | st.fractions(min_value=0, max_value=10**6),
        st.integers(1, 10**6) | st.fractions(min_value=Fraction(1, 10**6), max_value=10**6),
    )
    @example(1, 3)
    @example(Fraction(1, 3), Fraction(52))
    def test_matches_fraction_division(self, x, m):
        assert _ratio(x, m) == float(Fraction(x) / m)


class TestSvgPoints:
    @pytest.mark.parametrize("sigma", [*range(2, 61), 100, 500])
    def test_matches_one_circle_per_point(self, sigma):
        ds = figure_dataset(sigma)
        note = f"config: sigma={sigma}"
        assert svg.render_figure(ds, note) == circle_render_figure(ds, note)

    def test_matches_one_circle_per_point_realized(self, catalog):
        drawn = set()
        for sigma in [*range(2, 25), 48]:
            ds = figure_dataset(sigma, catalog)
            assert svg.render_figure(ds, "") == circle_render_figure(ds, ""), sigma
            drawn.update(status for _, status in figure_points(ds))
        assert drawn >= set(_POINT_STYLES)

    def test_plot_run_memory_stays_bounded(self, tmp_path):
        # the genus-500 figure (1.45 MB of SVG, 640 KB of CSV) drawn and written in one
        # run, after a warm-up run: its points are held as runs, with no status dict or
        # sort over the plane's 40,643 points
        svg_out, csv_out = tmp_path / "plane.svg", tmp_path / "plane.csv"
        argv = ["plot", "--out", str(svg_out), "--csv-sidecar", str(csv_out), "--sigma"]
        assert main([*argv, "48"]) == EXIT_OK
        tracemalloc.start()
        try:
            code = main([*argv, "500"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert svg_out.stat().st_size > 1_400_000 and csv_out.stat().st_size > 600_000
        assert peak < 8_000_000


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**40, -(10**40), -1])
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300])
    | st.text()
    | st.sampled_from(['"quoted"', "back\\slash", "\x00\x1f\n\t", "é ☃ 𝄞"])
)
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(st.text(), children),
    max_leaves=30,
)
# the form a node is given to the writer in, and how many times a "runs" list repeats it
KINDS = ("as is", "text", "joined", "generator", "runs")
AS_IS, TEXT, JOINED, GENERATOR, RUNS = ((kind, 1) for kind in KINDS)


def nodes(tree) -> int:
    """The nodes of ``tree``: itself, and those of its items or values."""
    if type(tree) is dict:
        tree = tree.values()
    elif type(tree) not in (list, tuple):
        return 1
    return 1 + sum(map(nodes, tree))


# a plain tree, a list so that most draws hold lists to give forms to, and a form for
# each of its nodes in preorder
FORMED_TREES = st.lists(JSON_TREES).flatmap(
    lambda tree: st.tuples(
        st.just(tree),
        st.lists(st.tuples(st.sampled_from(KINDS), st.integers(1, 4)),
                 min_size=nodes(tree), max_size=nodes(tree)),
    )
)


def written(value) -> str:
    chunks: list[str] = []
    _write_json(value, chunks.append)
    return "".join(chunks)


def formed(tree, forms) -> tuple:
    """``(value, expanded, form)``: ``tree`` with the next of ``forms`` taken for each of
    its nodes in preorder, and the plain tree that value stands for.

    A form is a kind and a count.  "text" gives a node as its own ``JsonText``, and a
    run of "joined" items of a list or generator is one text of them all, each as it
    expands ("joined" elsewhere is as is); "generator" gives a list as a generator, and
    "runs" as ``Runs`` with each item repeated by its count.  Once ``forms`` runs out
    every node is as is, count 1.
    """
    form = kind, _ = next(forms, AS_IS)
    if kind == "text":
        return JsonText(json.dumps(tree, indent=2)), tree, form
    if type(tree) is dict:
        items = {k: formed(v, forms) for k, v in tree.items()}
        return ({k: v for k, (v, _, _) in items.items()},
                {k: e for k, (_, e, _) in items.items()}, form)
    if type(tree) not in (list, tuple):
        return tree, tree, form
    items = [formed(v, forms) for v in tree]
    if kind == "runs":
        return (Runs((v, m) for v, _, (_, m) in items),
                [e for _, e, (_, m) in items for _ in range(m)], form)
    values = []
    for joined, group in groupby(items, lambda item: item[2][0] == "joined"):
        if joined:
            values.append(JsonText(",\n".join(json.dumps(e, indent=2) for _, e, _ in group)))
        else:
            values += [v for v, _, _ in group]
    value = (v for v in values) if kind == "generator" else type(tree)(values)
    return value, [e for _, e, _ in items], form


def assert_formed_written(tree, forms, depth: int) -> None:
    """``tree`` given in ``forms`` and wrapped ``depth`` times is written as ``json.dumps``
    writes the plain tree it stands for."""
    value, tree, _ = formed(tree, iter(forms))
    for _ in range(depth):
        value, tree = {"a": [value, 1]}, {"a": [tree, 1]}
    assert written(value) == json.dumps(tree, indent=2) + "\n"


def certified(p) -> bool:
    """Whether gap point ``p`` is an off-line point that no group realizes, unreported."""
    return p.rh is None and p.analysis is None and not p.on_exception_line


def runs_of_texts(points, values) -> Counter:
    """The points of ``values`` written from a template, and the texts that hold them,
    with each value checked against the next of ``points``: a text holds a whole run of
    certified points in one row, the value before it and the one after it a reported
    point or in another row; every other value is one point that is not certified."""
    points, text_row, seen = iter(points), None, Counter()
    for value in values:
        if type(value) is not JsonText:
            p = next(points)
            assert not certified(p), p
            text_row = None
            continue
        run = [next(points) for _ in json.loads(f"[{value}]")]
        rows = {p.point.h for p in run}
        assert all(map(certified, run)) and len(rows) == 1 and rows != {text_row}, run
        (text_row,) = rows
        seen.update(templated=len(run), texts=1)
    assert next(points, None) is None
    return seen


class NotJsonText(str):
    __slots__ = ()


def runs_of(values):
    """Tuples of ``values`` in runs of one to four equal entries."""
    return st.lists(st.tuples(values, st.integers(1, 4)), max_size=5).map(
        lambda runs: tuple(v for v, k in runs for _ in range(k))
    )


ESCAPED_NAMES = st.text() | st.sampled_from(['"Q8"', "C\\2", "\x00\n\t", "é ☃ 𝄞", "%s %d"])
WITNESSES = st.builds(
    lambda name, spec, periods, pairs, c: witness_of(
        name, spec, OrbifoldSignature(len(pairs), periods), GeneratingVector(pairs, c)
    ),
    ESCAPED_NAMES,
    st.none() | ESCAPED_NAMES | st.sampled_from(["", "quaternion:2", "quaternion:5", "cyclic:7"]),
    runs_of(st.integers(2, 9)),
    runs_of(st.tuples(st.integers(0, 12), st.integers(0, 12))),
    runs_of(st.integers(0, 12)),
)


def assert_written_as_dict(witness: Witness) -> None:
    expected = json.dumps(witness_json(witness), indent=2) + "\n"
    assert written(witness.to_json()) == expected
    expected = json.dumps(vector_json(witness_vector(witness)), indent=2) + "\n"
    assert written(witness.vector_json()) == expected


class TestWitnessText:
    """``Witness.to_json``, its lists as runs, is written as ``json.dumps`` writes its dict form."""

    def test_realized_witnesses(self, realized_at_40):
        for realized in realized_at_40.values():
            for witness in realized.values():
                assert_written_as_dict(witness)

    def test_sporadic_witnesses_carry_words(self, catalog):
        witnesses = []
        for h in (2, 3, 4):
            report = sporadic_analysis(h, [3, 5, 7, 11, 13, 17, 19], range(2, 9), catalog)
            witnesses += [w.witness for w in report.witnesses]
            witnesses += [c.witness for g in report.nonexistence for c in g.cases if c.witness]
        assert len(witnesses) == 21
        for witness in witnesses:
            assert_written_as_dict(witness)
            assert "words" in witness.to_json()

    @given(WITNESSES)
    @example(witness_of("C1", None, OrbifoldSignature(0, ()), GeneratingVector((), ())))
    @example(witness_of("C5", "cyclic:5", OrbifoldSignature(0, (5, 5, 5)),
                        GeneratingVector((), (1, 2, 2))))
    @example(witness_of('"\\', "quaternion:3", OrbifoldSignature(2, (3,)),
                        GeneratingVector(((1, 6), (0, 0)), (2,))))
    def test_hand_built_witnesses(self, witness):
        assert_written_as_dict(witness)

    def test_million_branch_entries(self, tmp_path):
        # C2 acts with signature (0; 2, ..., 2), every c_j the generator, for any even r
        group = build_cyclic(2)

        def witness(r: int) -> Witness:
            sig = OrbifoldSignature(0, (2,) * r)
            return witness_of(group.name, group.spec, sig, GeneratingVector((), (1,) * r))

        short, huge = witness(1000), witness(10**6)
        assert genvec.verify(group, short) and genvec.verify(group, huge)
        assert_written_as_dict(short)
        out = tmp_path / "witness.json"
        with open(out, "w", encoding="utf-8") as f:
            tracemalloc.start()
            try:
                _write_json({"witness": huge.to_json()}, f.write)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # the 22 MB document is never held: each run goes to the file a piece of
        # about 64 KiB at a time
        assert out.stat().st_size > 20_000_000
        assert peak < 1_000_000
        assert json.loads(out.read_bytes()) == {"witness": witness_json(huge)}

    def test_kspace_run_memory_stays_bounded(self, kspace_150_run):
        # the genus-150 document (6.8 MB, witnesses with long runs of equal entries),
        # searched and written in one run: no witness is rendered to text before the
        # writer lays it out, and the admissible and realized lists are drawn as they
        # are written
        code, out, peak = kspace_150_run
        assert code == EXIT_OK
        assert out.stat().st_size > 6_000_000
        assert peak < 3_000_000


class TestIndentedJson:
    # the property test draws every form at random; the tests after it hold the cases
    # pinned for each form, written as it writes its draws
    @given(FORMED_TREES, st.integers(0, 2))
    @example(([[], {}, (), [[]], {"a": {}}, {"a": [[], {"b": ()}]}], []), 0)
    @example(({"nan": float("nan"), "inf": [float("inf"), float("-inf")], "z": -0.0}, []), 0)
    # ints beside a bool, None or str, which exact types keep apart
    @example(([True, 1], []), 0)
    @example(([1, True], []), 0)
    @example(([1, None], []), 0)
    @example(([1, "a"], []), 0)
    @example(((2, 3), []), 0)
    @example(([10**40, -1], []), 0)
    @example(([[0, 0], [0, 0]], []), 0)
    @example(("x\ny", []), 0)
    def test_matches_json_dumps(self, formed_tree, depth):
        assert_formed_written(*formed_tree, depth)

    def test_prerendered_subtrees_match_json_dumps(self):
        tree = {"a": [1, {"b": [2, "x\ny"]}]}
        for case in [
            (tree, [TEXT], 0),
            (tree, [AS_IS] * 4 + [TEXT], 0),
            (tree, [AS_IS, AS_IS, TEXT], 0),
            ([{}, [], "line\nbreak", {"k": {"deep": [[[0]]]}}], [AS_IS, TEXT, TEXT, TEXT], 0),
            # a text of 180 KB indented at depth 3 among the fragments around it
            ({"a": [1, {"b": list(range(20000))}], "z": 2}, [AS_IS] * 4 + [TEXT], 0),
        ]:
            assert_formed_written(*case)

    def test_text_runs_match_json_dumps(self):
        # list items each a text of its own, beside dicts, lists and scalars
        for case in [
            ([{} if k % 2 else k for k in range(256)] + [0, "a"]
             + [None if k % 2 else k for k in range(600)],
             [AS_IS] + [TEXT] * 257 + [AS_IS] + [TEXT] * 600, 0),
            ([{"x": 1}, *({"a": [1, "x\ny"]} if k % 2 else k for k in range(257)), [],
              *(2.5 if k % 2 else k for k in range(255))],
             [AS_IS] * 3 + [TEXT] * 257 + [AS_IS] + [TEXT] * 255, 2),
            # texts of 180 KB each, indented at depth 2, then a short one
            ([0, list(range(20000)), 2, 0], [AS_IS] + [TEXT] * 4, 1),
        ]:
            assert_formed_written(*case)

    def test_generators_match_json_dumps(self):
        # generators, empty ones among them, and texts of several items in them
        for case in [
            ([], [GENERATOR], 0),
            ({"a": [[[], [[]], {"a": []}], 1], "e": []},
             [AS_IS] + [GENERATOR] * 5 + [AS_IS, GENERATOR, AS_IS, GENERATOR], 0),
            ({"a": [{"a": [[{"a": [1, "x\ny"]}, [], 3, 2, None], 1], "e": []}, 1], "e": []},
             [AS_IS, GENERATOR, AS_IS, GENERATOR, GENERATOR, JOINED, AS_IS, AS_IS, AS_IS,
              JOINED, JOINED, AS_IS, JOINED, AS_IS, GENERATOR, AS_IS, GENERATOR], 0),
        ]:
            assert_formed_written(*case)

    def test_runs_match_json_dumps(self):
        # runs, of empty containers, trees and runs
        for case in [
            ([], [RUNS], 0),
            ([[], {}, (), []], [RUNS, ("as is", 2), AS_IS, ("as is", 3), ("runs", 2)], 1),
            ([0, 0], [RUNS, ("as is", 13_108), ("as is", 13_109)], 0),
            # a tree repeated past its piece of 1,456 items at depth 0
            ([{"a": [1, "x"]}, None], [RUNS, ("as is", 3000)], 0),
            ([[1, "b"], [1]], [RUNS, ("runs", 2), ("as is", 2), ("as is", 3), RUNS], 2),
            # a 64 KiB piece of a run at depth 0 holds 13,107 items of ",\n  0" or 1,456
            # of a 45-byte text: runs from one item fewer than a piece to two more
            ([0] * 5, [RUNS, *(("as is", m) for m in range(13_106, 13_110))], 0),
            ([{"a": [1, "x"]}] * 5, [RUNS, *(("text", m) for m in range(1_455, 1_459))], 0),
        ]:
            assert_formed_written(*case)
        # an item whose text alone passes 64 KiB is repeated one item to a piece
        value = Runs(((list(range(20000)), 2),))
        assert written(value) == json.dumps([list(range(20000))] * 2, indent=2) + "\n"

    def test_a_long_run_is_handed_on_in_pieces(self):
        # a run of a million ints goes to ``write`` in pieces of about 64 KiB, never whole
        sizes: list[int] = []
        value = {"c": Runs(((1, 10**6 - 1), (23, 1)))}
        _write_json(value, lambda chunk: sizes.append(len(chunk)))
        assert sum(sizes) == len(json.dumps({"c": [1] * (10**6 - 1) + [23]}, indent=2)) + 1
        assert len(sizes) > 100
        assert max(sizes) <= 64 * 1024 + 64
        # after each run's first item, the 13,107 items of ",\n  0" left fill one piece
        # exactly, and each run's piece is handed on before the next run starts
        sizes.clear()
        _write_json(Runs(((0, 13108), (1, 13108))), lambda chunk: sizes.append(len(chunk)))
        assert sum(sizes) == len(json.dumps([0] * 13108 + [1] * 13108, indent=2)) + 1
        assert max(sizes) <= 64 * 1024 + 64

    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.name)
    def test_rewrites_golden_bytes(self, path):
        raw = path.read_bytes()
        assert written(json.loads(raw)).encode("utf-8") == raw

    def test_chunk_boundaries(self):
        # flushes land inside a list of scalars, a dict of scalars and nested records
        value = {
            "names": [f"n{i}" for i in range(1500)],
            "flags": {f"k{i}": [None, i % 2 == 0, i / 7][i % 3] for i in range(1500)},
            "records": [{"point": [i, -i], "words": ["a", (i, True)], "e": {}} for i in range(700)],
        }
        chunks: list[str] = []
        _write_json(value, chunks.append)
        assert len(chunks) > 5
        assert "".join(chunks) == json.dumps(value, indent=2) + "\n"

    # a NamedTuple record is a tuple subclass: exact-type matching keeps it
    # from leaking into the output as a bare array
    @pytest.mark.parametrize(
        "value",
        [{1: "a"}, {None: 1}, [{"ok": {(1, 2): 3}}], {1.5}, b"x", SearchVerdict.not_exists(),
         NotJsonText("1"), {"a": NotJsonText("1")}, [NotJsonText("[]")],
         iter([1]), range(2), {"a": 1}.keys(), map(int, "1")],
    )
    def test_rejects_what_is_not_a_plain_tree(self, value):
        with pytest.raises(TypeError):
            written(value)

    def test_gap_rows_match_the_pointwise_loop(self, catalog):
        # each gap walked by rows against the per-point loop: every point's report, and
        # the bytes written against json.dumps of the loop's dict form, each run of
        # certified off-line points in a row written as one text from a template, straight
        # from its row, and every other point from its dict
        points_seen = reported = 0
        by_order = {n: Counter() for n in range(3, 7)}
        for sigma in range(9, 121):
            for n in range(3, 7):
                report = verify_gap(sigma, n, catalog)
                points, conclusion, has_partial = pointwise_verify_gap(sigma, n, catalog)
                assert report_points(report) == points, (sigma, n)
                assert (report.conclusion, report.has_partial) == (conclusion, has_partial)
                expected = {
                    "gap": gap(sigma, n).to_json(),
                    "points": [point_report_json(p) for p in points],
                    "conclusion": conclusion,
                    "hasPartial": has_partial,
                }
                text = written(report.to_json())
                assert text == json.dumps(expected, indent=2) + "\n", (sigma, n)
                by_order[n] += runs_of_texts(points, report.points_json())
                points_seen += len(points)
                reported += len(report.reports)
        # the reports are the exception-line points: no gap point off the line is feasible
        assert (points_seen, reported) == (42_467, 424)
        assert by_order[3] + by_order[4] == Counter(templated=37_226, texts=4_154)

    def test_gap_points_match_their_dict_form(self, catalog):
        # points no run of verify-gap makes are each written from their dict: the
        # refuting point and the partial point that test_kspace plants at genus 48
        by_point = {p.point: p for p in report_points(verify_gap(48, 4, catalog))}
        off_line = integer_points(gap(48, 4))
        mid = by_point[off_line[len(off_line) // 2]]
        planted = mid._replace(rh=(5, (5,) * mid.point.r))
        line = by_point[SkeletalSignature(8, 6)]
        partial = line._replace(analysis=line.analysis._replace(status="partial"))
        # no run makes these: not-exists points with an analysis or on the line
        odd = (mid._replace(analysis=line.analysis),
               line._replace(rh=None, analysis=None))
        points = (planted, partial, *odd)
        values = [p.to_json() for p in points]
        expected = [point_report_json(p) for p in points]
        assert written({"points": values}) == json.dumps({"points": expected}, indent=2) + "\n"
        assert runs_of_texts(points, values) == Counter()

    def test_planted_gap_points_are_written_in_place(self, catalog, monkeypatch):
        # refuting points planted at both ends of a row, mid-row and beside an
        # exception point are reported, expanded and written where they lie
        region = gap(48, 4)
        rows = list(region.integer_rows_raw())
        h, r_lo, r_hi = next(row for row in rows if row[2] - row[1] >= 3)
        line_h = next(h for h, lo, hi in rows if lo < (region.exception_r(h) or -1) < hi)
        line_r = region.exception_r(line_h)
        planted = {(h, r_lo), (h, r_lo + 1), (h, r_hi), (line_h, line_r - 1),
                   (line_h, line_r + 1), (rows[-1][0], rows[-1][2])}
        for module in (kspace, oracles):
            loop = module._window_lists

            def planting(sigma, h, r, loop=loop):
                if (h, r) in planted:
                    return iter([(5, (5,) * r)])
                return loop(sigma, h, r)

            monkeypatch.setattr(module, "_window_lists", planting)
        report = verify_gap(48, 4, catalog)
        points, conclusion, has_partial = pointwise_verify_gap(48, 4, catalog)
        assert report.conclusion == conclusion == "refuted"
        assert report_points(report) == points
        assert {p.point for p in report.reports if not p.on_exception_line} == planted
        expected = [point_report_json(p) for p in points]
        assert written(report.points_json()) == json.dumps(expected, indent=2) + "\n"

    def test_memory_stays_bounded(self, monkeypatch):
        # the genus-100 kspace document (2.39 MB of text) is never held whole
        payloads = []
        monkeypatch.setattr(cli, "_emit", lambda args, payload: payloads.append(payload))
        assert main(["kspace", "--sigma", "100"]) == EXIT_OK
        sizes: list[int] = []
        tracemalloc.start()
        try:
            _write_json(payloads[0], lambda chunk: sizes.append(len(chunk)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(sizes) > 2_000_000
        assert peak < 500_000

    def test_gap_memory_stays_bounded(self, monkeypatch):
        # the genus-1000 order-4 gap document (27,639 points, 6.3 MB of text) is
        # drawn and written a row's run of points at a time, never held whole
        payloads = []
        monkeypatch.setattr(cli, "_emit", lambda args, payload: payloads.append(payload))
        assert main(["verify-gap", "--sigma", "1000", "--n", "4"]) == EXIT_OK
        sizes: list[int] = []
        tracemalloc.start()
        try:
            _write_json(payloads[0], lambda chunk: sizes.append(len(chunk)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(sizes) > 6_000_000
        assert peak < 250_000

    def test_gap_run_memory_stays_bounded(self, catalog, tmp_path):
        # the genus-1000 order-4 gap (6.3 MB of text) verified and written in one run,
        # with the catalog's tables built beforehand: no point's text outlives its row
        verify_gap(1000, 4, catalog)
        out = tmp_path / "g.json"
        tracemalloc.start()
        try:
            code = main(["verify-gap", "--sigma", "1000", "--n", "4", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert out.stat().st_size > 6_000_000
        assert peak < 1_000_000

    def test_leaves_no_reference_cycle(self, monkeypatch):
        # garbage left by each write would add up over a run of many commands: a golden
        # document, and a kspace payload whose witnesses are written from their runs
        payloads = [json.loads((GOLDEN / "kspace_11.json").read_bytes())]
        monkeypatch.setattr(cli, "_emit", lambda args, payload: payloads.append(payload))
        assert main(["kspace", "--sigma", "11"]) == EXIT_OK
        assert type(next(payloads[1]["realized"])["witness"]["vector"]["c"]) is Runs
        for value in payloads:
            gc.disable()
            try:
                gc.collect()
                _write_json(value, lambda chunk: None)
                assert gc.collect() == 0
            finally:
                gc.enable()


class TestReadme:
    def test_reproduction_commands_parse(self):
        text = README.read_text(encoding="utf-8")
        section = text.split("## Reproducing the paper's runs\n", 1)[1].split("\n## ", 1)[0]
        # a survey loop's shell variables stand for a sample genus
        commands = [
            shlex.split(re.sub(r"\$\w+", "48", line)) for line in section.splitlines()
            if line.lstrip().startswith("skelsig ")
        ]
        assert len(commands) == 8
        for argv in commands:
            assert build_parser().parse_args(argv[1:]).subcommand == argv[1]
