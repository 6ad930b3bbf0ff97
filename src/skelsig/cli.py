"""Command-line front end: queries, verification runs, and figure emission.

Exit codes: 0 verified/success, 1 refuted/absent, 2 usage or parse errors,
3 partial results (budget-limited or coverage-limited verdicts present),
141 standard output closed by its reader (128 + SIGPIPE; nothing is printed).
All numeric output carries the exact fraction (the contract) plus a decimal
approximation; every run echoes its effective configuration.  A run builds
the parser of the one subcommand it names, not all eight.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import sys
from types import GeneratorType
from typing import Iterable

from . import kspace, svg
from .genvec import DEFAULT_BUDGET, JsonText, Runs, search
from .geometry import frac_json, gap, missing_points
from .groups import CatalogManifest, bundled_catalog, build_from_spec, load_catalog
from .rh import OrbifoldSignature, rh_genus, rh_holds

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_PARTIAL = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE


class SignatureParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"bad signature literal: {message} at position {position}")
        self.position = position


def parse_signature(text: str) -> OrbifoldSignature:
    """Parse a signature literal "(h;n1,n2,...)"; empty period list allowed."""
    s = text.strip()
    if not s or s[0] != "(":
        raise SignatureParseError("expected '('", 0)
    if not s.endswith(")"):
        raise SignatureParseError("expected ')'", len(s) - 1)
    body = s[1:-1]
    head, semi, tail = body.partition(";")
    head = head.strip()
    if not re.fullmatch(r"-?[0-9]+", head):
        raise SignatureParseError(f"expected integer quotient genus, got {head!r}", 1)
    h = int(head)
    periods: list[int] = []
    if semi and tail.strip():
        offset = 2 + len(body.partition(";")[0])
        for piece in tail.split(","):
            tok = piece.strip()
            if not re.fullmatch(r"-?[0-9]+", tok):
                raise SignatureParseError(f"expected integer period, got {tok!r}", offset)
            periods.append(int(tok))
            offset += len(piece) + 1
    try:
        return OrbifoldSignature(h, tuple(periods))
    except ValueError as exc:
        raise SignatureParseError(str(exc), 1) from exc


def _resolve_catalog(args) -> CatalogManifest:
    return load_catalog(args.catalog) if args.catalog else bundled_catalog()


def runs_csv(rows: Iterable[Iterable[kspace.Run]]) -> str:
    """CSV text of the points of ``rows`` under an ``h,r,status`` header, one line per point.

    Row h of ``rows`` holds its runs (r_lo, r_hi, status), r ascending; each run's
    lines are one join over its r.  Lines end in CRLF, as ``csv.writer`` ends them;
    no status needs quoting.
    """
    parts = ["h,r,status\r\n"]
    for h, runs in enumerate(rows):
        head = f"{h},"
        for lo, hi, status in runs:
            tail = f",{status}\r\n"
            parts.append(head + (tail + head).join(map(str, range(lo, hi + 1))) + tail)
    return "".join(parts)


_quote = json.encoder.encode_basestring_ascii
_SCALARS = {int: int.__repr__, str: _quote, bool: {True: "true", False: "false"}.__getitem__,
            type(None): lambda o: "null", float: json.dumps}  # json.dumps: NaN, +-Infinity


def _write_json(o, write, parts: list | None = None, pad: str = "\n") -> None:
    """Hand ``write`` exactly ``json.dumps(o, indent=2) + "\\n"``, 256 fragments at a time.

    One call per container (``pad``: a newline and the indent of its first line) writes
    its items in one loop, scalars in place and containers by a call of their own, and
    ``{}`` or ``[]`` when the loop wrote none.  Only ``dict`` with ``str`` keys, ``list``,
    ``tuple``, generators (written as lists), ``str``, ``int``, ``float``, ``bool``,
    ``None``, ``genvec.Runs`` and ``genvec.JsonText`` are written, by exact type (a
    ``bool`` is not an ``int``, nor another ``str`` subclass text); anything else raises
    ``TypeError``.  A generator is drawn one item at a time as it is written.  A ``Runs``
    is written a run at a time, its value rendered once and repeated in pieces of at
    most 64 KiB.  A ``JsonText``, one or more list items as ``json.dumps`` writes them, is
    indented by replacing each line break with ``pad`` and handed on at once.  A failure
    part-way (that, or a full disk) leaves a truncated file.
    """
    top = parts is None
    if top:
        parts = []
    t, inner = type(o), pad + "  "
    comma = "," + inner
    if t is dict:
        sep = "{" + inner
        for k, v in o.items():
            scalar = _SCALARS.get(type(v))
            if scalar:
                parts.append(sep + _quote(k) + ": " + scalar(v))
            else:
                parts.append(sep + _quote(k) + ": ")
                _write_json(v, write, parts, inner)
            sep = comma
            if len(parts) >= 256:
                write("".join(parts))
                parts.clear()
        parts.append(pad + "}" if sep is comma else "{}")
    elif t is list or t is tuple or t is GeneratorType:
        sep = "[" + inner
        for v in o:
            scalar = _SCALARS.get(type(v))
            if scalar:
                parts.append(sep + scalar(v))
            else:
                parts.append(sep)
                _write_json(v, write, parts, inner)
            sep = comma
            if len(parts) >= 256:
                write("".join(parts))
                parts.clear()
        parts.append(pad + "]" if sep is comma else "[]")
    elif t is Runs:
        sep = "[" + inner
        for v, m in o:
            scalar = _SCALARS.get(type(v))
            if scalar:
                text = scalar(v)
            else:  # written whole into a list of its own, less the top level's "\n"
                held: list = []
                _write_json(v, held.append, None, inner)
                text = "".join(held[:-1])
            parts.append(sep + text)
            sep = comma
            if m > 1:  # the other m - 1 items, each full 64 KiB piece handed on at once
                item = comma + text
                per, m = 64 * 1024 // len(item) or 1, m - 1
                while m >= per:
                    parts.append(item * per)
                    write("".join(parts))
                    parts.clear()
                    m -= per
                parts.append(item * m)
            if len(parts) >= 256:
                write("".join(parts))
                parts.clear()
        parts.append(pad + "]" if sep is comma else "[]")
    elif t in _SCALARS:
        parts.append(_SCALARS[t](o))
    elif t is JsonText:
        parts.append(o.replace("\n", pad))
        write("".join(parts))
        parts.clear()
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
    if top:
        write("".join(parts))
        write("\n")


def _emit(args, payload: dict | str) -> None:
    out = getattr(args, "out", None)
    with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as f:
        if isinstance(payload, str):
            f.write(payload)
        else:
            _write_json(payload, f.write)


def _config(args) -> dict:
    # the output path is deliberately not echoed: results must be
    # byte-identical wherever they are written
    cfg = {"command": args.subcommand}
    for key in ("sigma", "n", "h", "primes", "witness_n", "order", "sig", "catalog",
                "max_order", "budget", "format", "group"):
        if hasattr(args, key) and getattr(args, key) is not None:
            cfg[key.replace("_", "")] = getattr(args, key)
    return cfg


# ---------------------------------------------------------------------------
# subcommands


def cmd_rh(args) -> int:
    sig = parse_signature(args.sig)
    genus = rh_genus(args.order, sig)
    payload = {
        "config": _config(args),
        "genus": frac_json(genus),
        "integral": genus.denominator == 1,
    }
    if args.sigma is not None:
        payload["holds"] = rh_holds(args.sigma, args.order, sig)
    _emit(args, payload)
    return EXIT_OK


def cmd_gaps(args) -> int:
    regions = [gap(args.sigma, n) for n in args.n]
    gaps = []
    for region in regions:
        off_line, raw, on_line = [], [], []
        # the region's JSON comes first: its decimals refuse a genus beyond a float
        # before the walk starts
        gaps.append({
            **region.to_json(),
            "integerPoints": off_line,
            "integerPointsRaw": raw,
            "exceptionPoints": on_line,
        })
        for h, r_lo, r_hi in region.integer_rows_raw():
            line_r = region.exception_r(h)
            for r in range(r_lo, r_hi + 1):
                raw.append([h, r])
                (on_line if r == line_r else off_line).append([h, r])
    _emit(args, {"config": _config(args), "gaps": gaps})
    return EXIT_OK


def cmd_verify_gap(args) -> int:
    catalog = _resolve_catalog(args)
    report = kspace.verify_gap(args.sigma, args.n, catalog, args.budget)
    payload = {"config": _config(args), "report": report.to_json()}
    _emit(args, payload)
    if report.conclusion == "refuted":
        return EXIT_REFUTED
    if report.has_partial:
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_missing(args) -> int:
    points = missing_points(args.sigma, args.h)
    payload = {
        "config": _config(args),
        "points": [list(p) for p in points],
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_kspace(args) -> int:
    catalog = _resolve_catalog(args)
    approx = kspace.realizable_set(args.sigma, catalog, args.max_order, args.budget)
    if args.format == "csv":
        _emit(args, runs_csv(approx.rows()))
    else:
        # the lists are drawn as they are written: they only lay out what the search found
        payload = {
            "config": _config(args),
            "sigma": approx.sigma,
            "admissible": ([h, r] for h, row in enumerate(approx.plane) for r in row),
            "realized": (
                {"point": list(p), "witness": w.to_json()} for p, w in approx.realized.items()
            ),
            "scope": approx.scope.to_json(),
        }
        _emit(args, payload)
    if approx.scope.unknown_points:
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_sporadic(args) -> int:
    catalog = _resolve_catalog(args)
    report = kspace.sporadic_analysis(args.h, args.primes, args.witness_n, catalog, args.budget)
    payload = {"config": _config(args), "report": report.to_json()}
    _emit(args, payload)
    if any(g.verdict == "refuted" for g in report.nonexistence):
        return EXIT_REFUTED
    if not report.complete:
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_genvec(args) -> int:
    group = build_from_spec(args.group)
    sig = parse_signature(args.sig)
    verdict = search(group, sig, args.budget)
    payload = {
        "config": _config(args),
        "group": {"name": group.name, "order": group.order, "spec": group.spec},
        "signature": {"h": sig.h, "periods": list(sig.periods)},
        "verdict": verdict.status,
    }
    if verdict.is_exists:
        payload["witness"] = verdict.witness.vector_json()
    _emit(args, payload)
    if verdict.is_exists:
        return EXIT_OK
    if verdict.is_not_exists:
        return EXIT_REFUTED
    return EXIT_PARTIAL


def cmd_plot(args) -> int:
    sidecar = args.csv_sidecar
    # one file for both would end holding the CSV alone, the SVG silently lost
    if sidecar and args.out and os.path.realpath(sidecar) == os.path.realpath(args.out):
        raise ValueError(f"--csv-sidecar and --out name the same file: {sidecar}")
    catalog = _resolve_catalog(args) if args.with_realized else None
    dataset = kspace.figure_dataset(args.sigma, catalog, args.max_order, args.budget)
    note = f"config: sigma={args.sigma} realized={bool(catalog)} max-order={args.max_order}"
    document = svg.render_figure(dataset, note)
    if not sidecar:
        _emit(args, document)
        return EXIT_OK
    # the sidecar is opened first, so an unwritable path fails before --out exists, and
    # opened to append, so a failed --out leaves it as it was (or absent, as it was)
    created = not os.path.exists(sidecar)
    with open(sidecar, "a", encoding="utf-8") as f:
        try:
            _emit(args, document)
        except BaseException:
            if created:
                os.remove(sidecar)
            raise
        f.truncate(0)
        f.write(runs_csv(dataset.rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _int_at_least(minimum: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


parse_budget = _int_at_least(0)
parse_max_order = _int_at_least(1)


def parse_int_list(text: str) -> list[int]:
    """Comma-separated integers, at least one; blank items are skipped."""
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


def _add_common(p: argparse.ArgumentParser, *, budget: bool = False, catalog: bool = False) -> None:
    if budget:
        p.add_argument("--budget", type=parse_budget, default=DEFAULT_BUDGET,
                       help="search budget in candidate tuples")
    p.add_argument("--out", type=str, default=None, help="write output to this path")
    if catalog:
        p.add_argument("--catalog", type=str, default=None,
                       help="catalog directory (default: the bundled catalog)")


# each subcommand's function and the line of help the full parser lists it with
SUBCOMMANDS = {
    "rh": (cmd_rh, "evaluate the Riemann-Hurwitz genus of a signature"),
    "gaps": (cmd_gaps, "describe gap regions and their lattice points"),
    "verify-gap": (cmd_verify_gap, "certify gap emptiness, with exception-line analysis"),
    "missing": (cmd_missing, "persistently-missing points at quotient genus 2 or 3"),
    "kspace": (cmd_kspace, "admissible set and catalog-realized subset"),
    "sporadic": (cmd_sporadic, "r = 1 sporadic-point analysis: exclusions and witnesses"),
    "genvec": (cmd_genvec, "search one group for a generating vector"),
    "plot": (cmd_plot, "deterministic SVG of the (h, r)-plane"),
}


def _add_arguments(p: argparse.ArgumentParser, name: str) -> None:
    """Give ``p`` the arguments and defaults of subcommand ``name``."""
    p.set_defaults(fn=SUBCOMMANDS[name][0], subcommand=name)
    if name == "rh":
        p.add_argument("--order", type=int, required=True)
        p.add_argument("--sig", type=str, required=True, help='signature literal "(h;n1,n2,...)"')
        p.add_argument("--sigma", type=int, default=None, help="also test equality with this genus")
        _add_common(p)
    elif name == "gaps":
        p.add_argument("--sigma", type=int, required=True)
        p.add_argument("--n", type=int, nargs="+", required=True, help="lower triangle order(s)")
        _add_common(p)
    elif name == "verify-gap":
        p.add_argument("--sigma", type=int, required=True)
        p.add_argument("--n", type=int, required=True, help="lower triangle order of the gap")
        _add_common(p, budget=True, catalog=True)
    elif name == "missing":
        p.add_argument("--sigma", type=int, required=True)
        p.add_argument("--h", type=int, required=True, choices=(2, 3))
        _add_common(p)
    elif name == "kspace":
        p.add_argument("--sigma", type=int, required=True)
        p.add_argument("--max-order", type=parse_max_order, default=kspace.DEFAULT_MAX_ORDER)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        _add_common(p, budget=True, catalog=True)
    elif name == "sporadic":
        p.add_argument("--h", type=int, required=True)
        p.add_argument("--primes", type=parse_int_list, required=True,
                       help="comma-separated odd primes")
        p.add_argument("--witness-n", dest="witness_n", type=parse_int_list, default=(),
                       help="comma-separated quaternion parameters for existence witnesses")
        _add_common(p, budget=True, catalog=True)
    elif name == "genvec":
        p.add_argument("--group", type=str, required=True,
                       help="group spec, e.g. quaternion:2 or cyclic:5")
        p.add_argument("--sig", type=str, required=True)
        _add_common(p, budget=True)
    else:  # plot
        p.add_argument("--sigma", type=int, required=True)
        p.add_argument("--max-order", type=parse_max_order, default=kspace.DEFAULT_MAX_ORDER)
        p.add_argument("--with-realized", action="store_true",
                       help="run catalog search and mark realized points")
        p.add_argument("--csv-sidecar", type=str, default=None,
                       help="also write the point dataset as CSV to this path")
        _add_common(p, budget=True, catalog=True)


@functools.cache
def build_parser(subcommand: str | None = None) -> argparse.ArgumentParser:
    """The ``skelsig`` parser with every subcommand, or the parser of ``subcommand``
    alone, ``skelsig NAME``: the parser that the full one hands that subcommand's
    arguments to."""
    if subcommand is not None:
        parser = argparse.ArgumentParser(prog=f"skelsig {subcommand}")
        _add_arguments(parser, subcommand)
        return parser
    parser = argparse.ArgumentParser(
        prog="skelsig",
        description="Skeletal signatures of finite group actions: exact arithmetic, "
        "gap verification, generating-vector search, figures.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, text) in SUBCOMMANDS.items():
        _add_arguments(sub.add_parser(name, help=text), name)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0] in SUBCOMMANDS:
            args, extras = build_parser(argv[0]).parse_known_args(argv[1:])
            if extras:
                # reported by the full parser, with its usage line, as it reports them
                build_parser().error(f"unrecognized arguments: {' '.join(extras)}")
        else:
            # no arguments, -h or an unknown name get the full parser's help and errors
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except BrokenPipeError:
        # the reader closed standard output: point it at devnull, so the flush
        # at exit raises nothing, and exit as a SIGPIPE death would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (ValueError, OverflowError, OSError) as exc:
        # OverflowError: a value too large for the decimal that JSON pairs with a fraction
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
