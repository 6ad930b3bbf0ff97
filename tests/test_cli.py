"""CLI behavior: exit codes, parse diagnostics, schemas, golden files."""

import json
import os
import shlex
import subprocess
import sys
from collections import Counter
from importlib.resources import files
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from skelsig import groups
from skelsig.cli import (
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_REFUTED,
    EXIT_USAGE,
    SignatureParseError,
    _indented_json,
    build_parser,
    main,
    parse_int_list,
    parse_signature,
)
from skelsig.rh import OrbifoldSignature, SearchVerdict

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).resolve().parents[1] / "README.md"
BAD_SIG_ERROR = "error: bad signature literal: expected integer period, got 'x' at position 3\n"


def run(tmp_path, *argv):
    out = tmp_path / "out.dat"
    code = main([*argv, "--out", str(out)])
    return code, out.read_text(encoding="utf-8") if out.exists() else None


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

    def test_missing_genus_8_h2_is_usage_without_traceback(self):
        # (2, 1) lies on the order-5 cyclic line at genus 8, so there is no missing point
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run(
            [sys.executable, "-m", "skelsig.cli", "missing", "--sigma", "8", "--h", "2"],
            capture_output=True, text=True, env=env,
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

    def test_kspace_csv_format(self, tmp_path):
        code, text = run(tmp_path, "kspace", "--sigma", "2", "--format", "csv")
        assert code == EXIT_OK
        lines = text.strip().splitlines()
        assert lines[0] == "h,r,status"
        assert "0,6,realized" in lines


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


class TestIndentedJson:
    @given(JSON_TREES)
    @example([[], {}, (), [[]], {"a": {}}, {"a": [[], {"b": ()}]}])
    @example({"nan": float("nan"), "inf": [float("inf"), float("-inf")], "z": -0.0})
    def test_matches_json_dumps(self, value):
        assert _indented_json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.name)
    def test_rewrites_golden_bytes(self, path):
        raw = path.read_bytes()
        assert (_indented_json(json.loads(raw)) + "\n").encode("utf-8") == raw

    # a NamedTuple record is a tuple subclass: exact-type matching keeps it
    # from leaking into the output as a bare array
    @pytest.mark.parametrize(
        "value",
        [{1: "a"}, {None: 1}, [{"ok": {(1, 2): 3}}], {1.5}, b"x", SearchVerdict.not_exists()],
    )
    def test_rejects_what_is_not_a_plain_tree(self, value):
        with pytest.raises(TypeError):
            _indented_json(value)


class TestReadme:
    def test_reproduction_commands_parse(self):
        text = README.read_text(encoding="utf-8")
        section = text.split("## Reproducing the paper's runs\n", 1)[1].split("\n## ", 1)[0]
        commands = [
            shlex.split(line) for line in section.splitlines()
            if line.lstrip().startswith("skelsig ")
        ]
        assert len(commands) == 6
        for argv in commands:
            assert build_parser().parse_args(argv[1:]).subcommand == argv[1]
