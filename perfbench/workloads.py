"""The three workloads: the CLI commands of one round, and the checks of their outputs.

A check compares each operation's output with ``oracle``.  An operation is
``wrong`` when its answer disagrees, ``failed`` when it gave no answer (a
budget-limited ``unknown``, an unexpected exit code, a missing file).  The
group tables behind witnesses come from ``skelsig.groups.build_from_spec``;
the checker re-validates them as groups before using them.
"""

from __future__ import annotations

import csv
import json
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracle

CATALOG_MANIFEST = Path("src/skelsig/data/catalog/manifest.json")


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0  # no answer; includes nothing counted in ``wrong``
    wrong: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.notes += other.notes

    def bad(self, kind: str, note: str) -> None:
        if kind == "wrong":
            self.wrong += 1
        else:
            self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(f"{kind}: {note}")


class Tables:
    """Group tables by spec and by order, for the catalog and prime cyclic groups."""

    def __init__(self) -> None:
        from skelsig.groups import build_from_spec

        self._build = build_from_spec
        self._by_spec: dict[str, list[list[int]]] = {}
        entries = json.loads(CATALOG_MANIFEST.read_text(encoding="utf-8"))
        self.catalog: dict[int, list[str]] = {}
        for e in entries:
            self.catalog.setdefault(e["order"], []).append(e["spec"])
        self.complete = {e["order"] for e in entries} - {e["order"] for e in entries if not e["complete"]}

    def table(self, spec: str) -> list[list[int]]:
        if spec not in self._by_spec:
            self._by_spec[spec] = [list(row) for row in self._build(spec).table]
        return self._by_spec[spec]

    def groups(self, orders: list[int], max_order: int | None) -> dict[int, list[list[list[int]]]]:
        """All groups of each order the catalog lists completely, or the cyclic group at a prime."""
        out = {}
        for n in orders:
            if max_order is not None and n > max_order:
                continue
            if n in self.complete:
                out[n] = [self.table(s) for s in self.catalog[n]]
            elif oracle.is_prime(n):
                out[n] = [[[(i + j) % n for j in range(n)] for i in range(n)]]
        return out


def _load_json(path: Path, out: Outcome, what: str):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        out.bad("failed", f"{what}: unreadable output ({exc})")
        return None


class Plane100:
    """plot --sigma 100 with a CSV sidecar, no catalog: the order sweep, lattice points, SVG."""

    sigma = 100
    failed_share = Fraction(0)  # failed / attempted in every run

    def __init__(self, seed: int) -> None:
        self.seed = seed  # the inputs are fixed; the seed is recorded only
        self._expected = None

    def commands(self, out_dir: Path) -> list[list[str]]:
        return [["plot", "--sigma", str(self.sigma), "--out", str(out_dir / "plane.svg"),
                 "--csv-sidecar", str(out_dir / "plane.csv")]]

    def expected(self) -> dict[tuple[int, int], str]:
        if self._expected is None:
            s = self.sigma
            status = {p: "admissible" for p in oracle.admissible_orders(s, s + 1, 2 * s + 2)}
            for n in (3, 4):
                pts, p = oracle.gap_lattice_points(s, n)
                for h, r in pts:
                    if p is None or not oracle.on_cyclic_line(s, p, h, r):
                        status.setdefault((h, r), "gap")
            self._expected = status
        return self._expected

    def operations(self) -> int:
        return len(self.expected())

    def check(self, out_dir: Path, codes: list[int]) -> Outcome:
        out = Outcome()
        expected = self.expected()
        try:
            with open(out_dir / "plane.csv", encoding="utf-8", newline="") as fh:
                rows = [(int(r["h"]), int(r["r"]), r["status"]) for r in csv.DictReader(fh)]
            root = ET.parse(out_dir / "plane.svg").getroot()
        except (OSError, ValueError, KeyError, ET.ParseError) as exc:
            return Outcome(len(expected), len(expected), 0, [f"failed: unreadable output ({exc})"])
        got = {(h, r): st for h, r, st in rows}
        keys = set(got) | set(expected)
        out.attempted = len(keys)
        for key in sorted(keys):
            if got.get(key) != expected.get(key):
                out.bad("wrong", f"point {key}: output {got.get(key)}, oracle {expected.get(key)}")
        if codes != [0]:
            out.bad("wrong", f"exit codes {codes}, expected [0]")
        if len(got) != len(rows) or [(h, r) for h, r, _ in rows] != sorted(got):
            out.bad("wrong", "CSV rows are not sorted and distinct")
        # admissible points inside the drawn box are 3-px circles; the legend's are 4-px
        drawn = sum(1 for el in root.iter("{http://www.w3.org/2000/svg}circle")
                    if el.get("r") == "3.000")
        box = sum(1 for (h, r), st in expected.items()
                  if st == "admissible" and 2 * h <= self.sigma + 4 and r <= 2 * self.sigma + 2)
        if drawn != box:
            out.bad("wrong", f"SVG draws {drawn} admissible points, oracle has {box} in the box")
        return out


class GapSurvey:
    """verify-gap --n 3 and --n 4 at one genus from each pair (9, 10), (11, 12), ..., (71, 72)."""

    first, last = 9, 72
    failed_share = Fraction(0)

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.genera = [rng.choice((s, s + 1)) for s in range(self.first, self.last, 2)]
        self._expected: dict = {}
        self._tables = Tables()

    def commands(self, out_dir: Path) -> list[list[str]]:
        return [["verify-gap", "--sigma", str(s), "--n", str(n), "--out", str(out_dir / f"gap-{s}-{n}.json")]
                for s in self.genera for n in (3, 4)]

    def _oracle(self, sigma: int, n: int) -> dict:
        key = (sigma, n)
        if key not in self._expected:
            pts, p = oracle.gap_lattice_points(sigma, n)
            rows = []
            for h, r in pts:
                exc = p is not None and oracle.on_cyclic_line(sigma, p, h, r)
                orders = oracle.point_orders(sigma, h, r)
                feasible = [[m, list(next(oracle.period_lists(sigma, h, r, m)))] for m in orders]
                rows.append({"point": [h, r], "exc": exc, "feasible": feasible})
            refuted = any(row["feasible"] and not row["exc"] for row in rows)
            self._expected[key] = {"p": p, "rows": rows, "refuted": refuted}
        return self._expected[key]

    def _check_one(self, sigma: int, n: int, path: Path, code: int) -> Outcome:
        out = Outcome(attempted=1)
        what = f"verify-gap --sigma {sigma} --n {n}"
        doc = _load_json(path, out, what)
        if doc is None:
            return out
        exp = self._oracle(sigma, n)
        report = doc["report"]
        p = exp["p"]
        problems = []
        gap = report["gap"]
        if (gap["N"], gap["upperIndex"]) != (n, n + 2 if p else n + 1):
            problems.append("gap orders")
        line = gap["exceptionLine"]
        if p is None:
            if line is not None:
                problems.append("unexpected exception line")
        else:
            a, b, c = line["coefficients"] if line else (0, 0, 0)
            ref = (2 * p, p - 1, 2 * p - 2 + 2 * sigma)
            if not (a > 0 and a * ref[1] == b * ref[0] and a * ref[2] == c * ref[0]):
                problems.append("exception line")
        got_points = [pt["point"] for pt in report["points"]]
        if got_points != [row["point"] for row in exp["rows"]]:
            problems.append("lattice points differ from the integer enumeration")
        partial = False
        for pt, row in zip(report["points"], exp["rows"]):
            problems += self._check_point(sigma, pt, row)
            if pt["analysis"] is not None and pt["analysis"]["status"] == "partial":
                partial = True
        conclusion = "refuted" if exp["refuted"] else "verified"
        if report["conclusion"] != conclusion:
            problems.append(f"conclusion {report['conclusion']}, oracle {conclusion}")
        if problems:
            out.bad("wrong", f"{what}: {'; '.join(problems[:3])}")
        elif partial:
            out.bad("failed", f"{what}: a point was left partial")
        elif code != (1 if exp["refuted"] else 0):
            out.bad("wrong", f"{what}: exit code {code}")
        return out

    def _check_point(self, sigma: int, pt: dict, row: dict) -> list[str]:
        at = tuple(row["point"])
        if pt["onExceptionLine"] != row["exc"]:
            return [f"{at}: exception-line flag"]
        rh = pt["rh"]
        if not row["feasible"]:
            return [] if rh["status"] == "not-exists" else [f"{at}: RH verdict {rh['status']}"]
        first_order, first_periods = row["feasible"][0]
        if rh["status"] != "exists" or (rh["order"], rh["periods"]) != (first_order, first_periods):
            return [f"{at}: RH witness {rh}"]
        analysis = pt["analysis"]
        if not row["exc"]:
            return []
        if analysis is None or analysis["feasibleOrders"] != row["feasible"]:
            return [f"{at}: analysis feasible orders"]
        if analysis["status"] == "realized":
            w = analysis["witness"]
            bad = oracle.check_witness(sigma, at, w, self._tables.table(w["spec"]))
            return [f"{at}: witness: {bad}"] if bad else []
        if analysis["status"] == "excluded":
            orders = [m for m, _ in row["feasible"]]
            why = oracle.excluded_by_rules(sigma, at, orders, self._tables.groups(orders, None))
            return [f"{at}: exclusion not shown: {why}"] if why else []
        return []

    def operations(self) -> int:
        return 2 * len(self.genera)

    def check(self, out_dir: Path, codes: list[int]) -> Outcome:
        out = Outcome()
        pairs = [(s, n) for s in self.genera for n in (3, 4)]
        for (s, n), code in zip(pairs, codes):
            out.add(self._check_one(s, n, out_dir / f"gap-{s}-{n}.json", code))
        return out


class Catalog48:
    """kspace --sigma 48 --budget 200000 over the bundled catalog: the witness search."""

    sigma, budget = 48, 200000
    # (5, 2) of the 323 admissible points stays unknown: the search enumerates every
    # 2h-tuple of C10 (10^10) before the branch entries, so no budget settles it
    failed_share = Fraction(1, 323)

    def __init__(self, seed: int) -> None:
        self.seed = seed  # the inputs are fixed; the seed is recorded only
        self._orders = None
        self._tables = Tables()

    def commands(self, out_dir: Path) -> list[list[str]]:
        return [["kspace", "--sigma", str(self.sigma), "--budget", str(self.budget),
                 "--out", str(out_dir / "kspace.json")]]

    def orders(self) -> dict[tuple[int, int], list[int]]:
        if self._orders is None:
            s = self.sigma
            self._orders = oracle.admissible_orders(s, s + 1, 2 * s + 2)
        return self._orders

    def operations(self) -> int:
        return len(self.orders())

    def check(self, out_dir: Path, codes: list[int]) -> Outcome:
        out = Outcome()
        orders = self.orders()
        doc = _load_json(out_dir / "kspace.json", out, "kspace")
        if doc is None:
            return Outcome(len(orders), len(orders), 0, out.notes)
        admissible = [tuple(p) for p in doc["admissible"]]
        realized = {tuple(r["point"]): r["witness"] for r in doc["realized"]}
        scope = doc["scope"]
        unknown = {tuple(p) for p in scope["unknownPoints"]}
        max_order = scope["maxOrder"]
        keys = set(admissible) | set(orders)
        out.attempted = len(keys)
        for pt in sorted(keys):
            if pt not in orders or admissible.count(pt) != 1:
                out.bad("wrong", f"{pt}: admissible in the output but not by the oracle, or repeated")
            elif pt not in admissible:
                out.bad("wrong", f"{pt}: missing from the admissible list")
            elif pt in realized:
                w = realized[pt]
                bad = oracle.check_witness(self.sigma, pt, w, self._tables.table(w["spec"]))
                if bad:
                    out.bad("wrong", f"{pt}: witness {w['group']}: {bad}")
            elif pt in unknown:
                out.bad("failed", f"{pt}: unknown (search budget {self.budget} exhausted)")
            else:
                low = [n for n in orders[pt] if n <= max_order]
                why = oracle.excluded_by_rules(self.sigma, pt, low, self._tables.groups(low, max_order))
                if why:
                    out.bad("wrong", f"{pt}: not realized, but no rule excludes it: {why}")
        covered = sum(1 for pt in orders if all(n in self._tables.complete and n <= max_order
                                                for n in orders[pt]))
        if (scope["totalPoints"], scope["fullyCoveredPoints"]) != (len(orders), covered):
            out.bad("wrong", f"scope counts {scope['totalPoints']}/{scope['fullyCoveredPoints']}, "
                             f"oracle {len(orders)}/{covered}")
        if set(realized) & unknown or codes != [3 if unknown else 0]:
            out.bad("wrong", f"exit codes {codes} with {len(unknown)} unknown points")
        return out


WORKLOADS = {"plane-100": Plane100, "gap-survey": GapSurvey, "catalog-48": Catalog48}
