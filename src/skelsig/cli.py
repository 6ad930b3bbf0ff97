"""Command-line front end: queries, verification runs, and figure emission.

Exit codes: 0 verified/success, 1 refuted/absent, 2 usage or parse errors,
3 partial results (budget-limited or coverage-limited verdicts present).
All numeric output carries the exact fraction (the contract) plus a decimal
approximation; every run echoes its effective configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path
from typing import Iterable

from . import kspace, svg
from .genvec import DEFAULT_BUDGET, search
from .geometry import frac_json, gap, missing_points
from .groups import CatalogManifest, bundled_catalog, build_from_spec, load_catalog
from .rh import OrbifoldSignature, rh_genus, rh_holds

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_PARTIAL = 3


class SignatureParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"bad signature literal: {message} at position {position}")
        self.position = position


def parse_signature(text: str) -> OrbifoldSignature:
    """Parse a signature literal "(h;n1,n2,...)"; empty period list allowed."""
    s = text.strip()
    pos = 0

    def fail(msg: str, at: int):
        raise SignatureParseError(msg, at)

    if not s or s[0] != "(":
        fail("expected '('", 0)
    if not s.endswith(")"):
        fail("expected ')'", len(s) - 1)
    body = s[1:-1]
    head, semi, tail = body.partition(";")
    head = head.strip()
    if not re.fullmatch(r"-?[0-9]+", head):
        fail(f"expected integer quotient genus, got {head!r}", 1)
    h = int(head)
    periods: list[int] = []
    if semi and tail.strip():
        offset = 2 + len(body.partition(";")[0])
        for piece in tail.split(","):
            tok = piece.strip()
            if not re.fullmatch(r"-?[0-9]+", tok):
                fail(f"expected integer period, got {tok!r}", offset)
            periods.append(int(tok))
            offset += len(piece) + 1
    try:
        return OrbifoldSignature(h, tuple(periods))
    except ValueError as exc:
        raise SignatureParseError(str(exc), 1) from exc


def _resolve_catalog(args) -> CatalogManifest:
    return load_catalog(args.catalog) if args.catalog else bundled_catalog()


def points_csv(rows: Iterable[tuple[int, int, str]]) -> str:
    """CSV text of (h, r, status) rows under an ``h,r,status`` header.

    Lines end in CRLF, as ``csv.writer`` ends them; no status needs quoting.
    """
    return "".join(["h,r,status\r\n", *(f"{h},{r},{status}\r\n" for h, r, status in rows)])


_quote = json.encoder.encode_basestring_ascii


def _indented_json(o, pad: str = "\n") -> str:
    """JSON text of a plain tree, exactly what ``json.dumps`` writes with ``indent=2``.

    One call per container, which joins its children with a comma, ``pad``
    (a newline and the indent of the line ``o`` starts on) and two more
    spaces; empty containers are ``[]`` and ``{}``.  Strings, keys included,
    go through the C escaper ``json.dumps`` uses by default.  The tree holds
    only ``dict`` with ``str`` keys, ``list``, ``tuple``, ``str``, ``int``,
    ``float``, ``bool`` and ``None``, matched by exact type; anything else
    raises ``TypeError``.
    """
    t = type(o)
    if t is int:
        return int.__repr__(o)
    if t is list or t is tuple:
        if not o:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join([_indented_json(v, inner) for v in o]) + pad + "]"
    if t is dict:
        if not o:
            return "{}"
        inner = pad + "  "
        return "{" + inner + ("," + inner).join(
            [_quote(k) + ": " + _indented_json(v, inner) for k, v in o.items()]
        ) + pad + "}"
    if t is str:
        return _quote(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if t is float:
        return json.dumps(o)  # NaN and +-Infinity as json.dumps writes them
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _emit(args, payload: dict | str) -> None:
    out = getattr(args, "out", None)
    text = payload if isinstance(payload, str) else _indented_json(payload) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _config(args, command: str, **extra) -> dict:
    # the output path is deliberately not echoed: results must be
    # byte-identical wherever they are written
    cfg = {"command": command}
    for key in ("sigma", "n", "h", "primes", "witness_n", "order", "sig", "catalog",
                "max_order", "budget", "format", "group"):
        if hasattr(args, key) and getattr(args, key) is not None:
            cfg[key.replace("_", "")] = getattr(args, key)
    cfg.update(extra)
    return cfg


# ---------------------------------------------------------------------------
# subcommands


def cmd_rh(args) -> int:
    sig = parse_signature(args.sig)
    genus = rh_genus(args.order, sig)
    payload = {
        "config": _config(args, "rh"),
        "genus": frac_json(genus),
        "integral": genus.denominator == 1,
    }
    if args.sigma is not None:
        payload["holds"] = rh_holds(args.sigma, args.order, sig)
    _emit(args, payload)
    return EXIT_OK


def cmd_gaps(args) -> int:
    regions = [gap(args.sigma, n) for n in args.n]
    payload = {
        "config": _config(args, "gaps"),
        "gaps": [
            {
                **region.to_json(),
                "integerPoints": [list(p) for p in region.integer_points()],
                "integerPointsRaw": [list(p) for p in region.integer_points_raw()],
                "exceptionPoints": [list(p) for p in region.exception_points()],
            }
            for region in regions
        ],
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_verify_gap(args) -> int:
    catalog = _resolve_catalog(args)
    report = kspace.verify_gap(args.sigma, args.n, catalog, args.budget)
    payload = {"config": _config(args, "verify-gap"), "report": report.to_json()}
    _emit(args, payload)
    if report.conclusion == "refuted":
        return EXIT_REFUTED
    if report.has_partial:
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_missing(args) -> int:
    points = missing_points(args.sigma, args.h)
    payload = {
        "config": _config(args, "missing"),
        "points": [list(p) for p in points],
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_kspace(args) -> int:
    catalog = _resolve_catalog(args)
    approx = kspace.realizable_set(args.sigma, catalog, args.max_order, args.budget)
    if args.format == "csv":
        rows = (
            (pt.h, pt.r, "realized" if pt in approx.realized else "admissible")
            for pt in sorted(approx.admissible)
        )
        _emit(args, points_csv(rows))
    else:
        payload = {
            "config": _config(args, "kspace"),
            "sigma": approx.sigma,
            "admissible": [list(p) for p in sorted(approx.admissible)],
            "realized": [
                {"point": list(p), "witness": w.to_json()}
                for p, w in sorted(approx.realized.items())
            ],
            "scope": approx.scope.to_json(),
        }
        _emit(args, payload)
    if approx.scope.unknown_points:
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_sporadic(args) -> int:
    catalog = _resolve_catalog(args)
    report = kspace.sporadic_analysis(args.h, args.primes, args.witness_n, catalog, args.budget)
    payload = {"config": _config(args, "sporadic"), "report": report.to_json()}
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
        "config": _config(args, "genvec"),
        "group": {"name": group.name, "order": group.order, "spec": group.spec},
        "signature": {"h": sig.h, "periods": list(sig.periods)},
        "verdict": verdict.status,
    }
    if verdict.is_exists:
        payload["witness"] = verdict.witness.to_json()
    _emit(args, payload)
    if verdict.is_exists:
        return EXIT_OK
    if verdict.is_not_exists:
        return EXIT_REFUTED
    return EXIT_PARTIAL


def cmd_plot(args) -> int:
    catalog = _resolve_catalog(args) if args.with_realized else None
    dataset = kspace.figure_dataset(args.sigma, catalog, args.max_order, args.budget)
    note = f"config: sigma={args.sigma} realized={bool(catalog)} max-order={args.max_order}"
    document = svg.render_figure(dataset, note)
    _emit(args, document)
    if args.csv_sidecar:
        Path(args.csv_sidecar).write_text(points_csv(dataset.to_csv_rows()), encoding="utf-8")
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skelsig",
        description="Skeletal signatures of finite group actions: exact arithmetic, "
        "gap verification, generating-vector search, figures.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("rh", help="evaluate the Riemann-Hurwitz genus of a signature")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--sig", type=str, required=True, help='signature literal "(h;n1,n2,...)"')
    p.add_argument("--sigma", type=int, default=None, help="also test equality with this genus")
    _add_common(p)
    p.set_defaults(fn=cmd_rh)

    p = sub.add_parser("gaps", help="describe gap regions and their lattice points")
    p.add_argument("--sigma", type=int, required=True)
    p.add_argument("--n", type=int, nargs="+", required=True, help="lower triangle order(s)")
    _add_common(p)
    p.set_defaults(fn=cmd_gaps)

    p = sub.add_parser("verify-gap", help="certify gap emptiness, with exception-line analysis")
    p.add_argument("--sigma", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="lower triangle order of the gap")
    _add_common(p, budget=True, catalog=True)
    p.set_defaults(fn=cmd_verify_gap)

    p = sub.add_parser("missing", help="persistently-missing points at quotient genus 2 or 3")
    p.add_argument("--sigma", type=int, required=True)
    p.add_argument("--h", type=int, required=True, choices=(2, 3))
    _add_common(p)
    p.set_defaults(fn=cmd_missing)

    p = sub.add_parser("kspace", help="admissible set and catalog-realized subset")
    p.add_argument("--sigma", type=int, required=True)
    p.add_argument("--max-order", type=parse_max_order, default=15)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(p, budget=True, catalog=True)
    p.set_defaults(fn=cmd_kspace)

    p = sub.add_parser("sporadic", help="r = 1 sporadic-point analysis: exclusions and witnesses")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--primes", type=parse_int_list, required=True,
                   help="comma-separated odd primes")
    p.add_argument("--witness-n", dest="witness_n", type=parse_int_list, default=(),
                   help="comma-separated quaternion parameters for existence witnesses")
    _add_common(p, budget=True, catalog=True)
    p.set_defaults(fn=cmd_sporadic)

    p = sub.add_parser("genvec", help="search one group for a generating vector")
    p.add_argument("--group", type=str, required=True,
                   help="group spec, e.g. quaternion:2 or cyclic:5")
    p.add_argument("--sig", type=str, required=True)
    _add_common(p, budget=True)
    p.set_defaults(fn=cmd_genvec)

    p = sub.add_parser("plot", help="deterministic SVG of the (h, r)-plane")
    p.add_argument("--sigma", type=int, required=True)
    p.add_argument("--max-order", type=parse_max_order, default=15)
    p.add_argument("--with-realized", action="store_true",
                   help="run catalog search and mark realized points")
    p.add_argument("--csv-sidecar", type=str, default=None,
                   help="also write the point dataset as CSV to this path")
    _add_common(p, budget=True, catalog=True)
    p.set_defaults(fn=cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
