"""Assemble the admissible region, verify gap emptiness, and analyze sporadic points.

The admissible set (Riemann-Hurwitz feasibility over all group orders) is a
superset of the true space of skeletal signatures; the realized map (witnessed
by generating-vector search) is a lower bound.  Reports keep that distinction
explicit: equality is never asserted, coverage is recorded.  Which groups are
searched at an order, and whether they are all of its groups, is decided by
``CatalogManifest.covering`` alone, for every search and exclusion here.
Every point of ``kspace``, ``plot``, ``verify-gap`` and the |G| = 2n case of
``sporadic`` is decided by one loop over its orders, ``_decide``: it is the
one home of order-level rules such as ``cyclic-forced``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

from .genvec import (
    DEFAULT_BUDGET,
    ExclusionReason,
    JsonText,
    Witness,
    quaternion_vector,
    realizable,
)
from .geometry import GapRegion, RationalLine, gap, p_group_line, triangle_rows
from .groups import CatalogManifest
from .rh import (
    SkeletalSignature,
    _check_genus,
    _window_lists,
    feasible_orders,
    hurwitz_range_orders,
    is_prime,
    order_parts,
    part_sum_levels,
    rh_genus,
)

# a stretch (r_lo, r_hi, status) of consecutive r in one row with one status
Run = tuple[int, int, str]

# the largest catalog order that ``kspace`` and ``plot --with-realized`` search by default
DEFAULT_MAX_ORDER = 15


# ---------------------------------------------------------------------------
# admissible region


def plane_rows(sigma: int, max_order: int) -> list[dict[int, tuple[int, ...]]]:
    """Every RH-feasible lattice point with its feasible orders up to ``max_order``, row by
    row: for each h of the box, a dict from each feasible r to one tuple of its orders up
    to ``max_order``, ascending, then its least feasible order above ``max_order`` if it
    has one.  A ``max_order`` of at least 84(sigma - 1), the h = 0 cap, gives every order.

    Sweeps orders from 2 up to 12(sigma - 1) and decides each order's whole
    triangle at once, so the union equals the per-point order sweep without
    quadratic cost.  Above 12(sigma - 1) only (0, 3) is feasible, and its
    orders there, up to the h = 0 cap 84(sigma - 1), come in closed form from
    ``hurwitz_range_orders``, which carries both proofs.  Each swept order N
    comes with its parts d = N/n over its periods n from ``order_parts``, one
    divisor sieve over each stretch of the sweep.
    A point is feasible at N exactly when T = N(2h - 2 + r) - 2(sigma - 1) is
    a sum of r parts, and each order's triangle is walked row by row from
    ``triangle_rows``.  Above 4(sigma - 1) its only row is h = 0 with r in
    3..4, by the rows' coefficients: the apex (N + sigma - 1)/N is below 2;
    at h = 1, r_hi = floor(4(sigma - 1)/N) = 0 < r_lo; and at h = 0,
    r_hi = 4 and r_lo = 3, since N - 1 >= 2 sigma.  So only (0, 3) and
    (0, 4) can be feasible there.  At every order, with m the largest r of
    the rows swept, ``part_sum_levels`` builds S_0..S_m, and each point is
    decided by one bit, bit T of S_r, T growing by N with r.  That is the
    test the period-list walk makes, without listing a period.  Triangle
    points have T >= r >= 0, so the levels are cut at the largest T, which
    is never negative.  At a prime order the only part is 1, so a point is
    feasible exactly when T = r, on the order's cyclic line, the triangle's
    lower line; T - r grows with r, so each row is first cut to its r_lo.

    The orders ascend, so above ``max_order`` an order can only give a point
    its least order above ``max_order``, and only to a point that lacks one:
    a point that has one keeps it, and every later order is larger.  Bit r of
    one int per row marks (h, r) once it has one.  An order above
    ``max_order`` sweeps only the triangle rows with an unmarked point, and
    an order with no such row is skipped and builds no levels; within a row,
    only unmarked points take the order.  Since only (0, 3) and (0, 4) can
    be feasible above 4(sigma - 1), the sieve and the sweep run there only
    when ``max_order`` reaches past 4(sigma - 1) or one of the two is still
    unmarked at 4(sigma - 1), and the Hurwitz range is read only while
    (0, 3) is unmarked.  A point left unmarked has no feasible order above
    ``max_order``.  Each point's orders are one tuple, built as the sweep
    runs, each order joining it in ascending order, in one r -> orders dict
    per row h; a row's r come in no particular order.  The box is fixed at
    h <= (sigma + 1)/2, the order-2 apex, and r <= 2*sigma + 2, and every
    triangle lies inside it: h <= (sigma-1)/N + 1 and r <= 4(sigma-1)/N + 4.
    """
    _check_genus(sigma)
    shift, cut, top = 2 * (sigma - 1), 4 * (sigma - 1), 12 * (sigma - 1)
    # one r -> orders dict per row h of the box; orders arrive ascending
    found = [defaultdict(tuple) for _ in range((sigma + 3) // 2)]
    # bit r of marked[h] is set once (h, r) has its least order above max_order
    marked = [0] * len(found)

    def sweep() -> Iterator[tuple[int, list[int]]]:
        yield from order_parts(top if max_order > cut else cut)
        if max_order <= cut and ~marked[0] >> 3 & 3:
            yield from order_parts(top, cut + 1)

    for n, parts in sweep():
        above = n > max_order
        rows = triangle_rows(sigma, n)
        if len(parts) == 1:
            # the only part is 1, so N is feasible at (h, r) exactly when T = r; T - r grows
            # with r and is >= 0 from r_lo, on the lower line, so only r_lo can meet it
            rows = [(h, lo, lo) for h, lo, _ in rows]
        if above:
            rows = [(h, lo, hi) for h, lo, hi in rows if ~marked[h] >> lo & (2 << (hi - lo)) - 1]
        if not rows:
            continue
        # r_hi = 4(1 - h) + floor(4(sigma - 1)/N), or at a prime order r_lo, the ceil of
        # (2(sigma - 1) + 2N(1 - h))/(N - 1), so 2h + r_hi falls as h grows either way:
        # the first row left holds both the largest r and the largest T
        h, _, r_hi = rows[0]
        levels = part_sum_levels(parts, r_hi, n * (2 * h - 2 + r_hi) - shift)
        for h, r_lo, r_hi in rows:
            row, row_marked = found[h], marked[h]
            t = n * (2 * h - 2 + r_lo) - shift
            for r in range(r_lo, r_hi + 1):
                if levels[r] >> t & 1 and not row_marked >> r & 1:
                    row[r] += (n,)
                    row_marked |= above << r
                t += n
            marked[h] = row_marked
    if not marked[0] >> 3 & 1:
        orders = hurwitz_range_orders(sigma)
        found[0][3] += tuple(orders[: bisect_right(orders, max_order) + 1])
    return found


# ---------------------------------------------------------------------------
# realized subset


class SearchScope(NamedTuple):
    """Honest record of what the witness search actually covered.

    ``complete_orders`` echoes the catalog's complete orders in 2..max_order;
    ``fully_covered_points`` counts the points whose feasible orders are all
    covered by ``CatalogManifest.covering`` up to ``max_order``, prime orders included.
    """

    max_order: int
    budget: int
    complete_orders: tuple[int, ...]
    total_points: int
    fully_covered_points: int
    unknown_points: tuple[SkeletalSignature, ...]

    def describe(self) -> str:
        gap_n = self.total_points - self.fully_covered_points
        lines = [
            f"catalog searched through order {self.max_order} "
            f"(complete orders: {', '.join(map(str, self.complete_orders)) or 'none'})",
            f"realized map is a lower bound: {self.fully_covered_points}/{self.total_points} "
            f"admissible points have all feasible orders inside complete catalog coverage"
            + (f"; {gap_n} do not" if gap_n else ""),
        ]
        if self.unknown_points:
            lines.append(
                f"{len(self.unknown_points)} points hit the search budget ({self.budget})"
            )
        return "; ".join(lines)

    def to_json(self) -> dict:
        return {
            "maxOrder": self.max_order,
            "budget": self.budget,
            "completeOrders": list(self.complete_orders),
            "totalPoints": self.total_points,
            "fullyCoveredPoints": self.fully_covered_points,
            "unknownPoints": [list(p) for p in self.unknown_points],
            "note": self.describe(),
        }


class _KSpaceApproximationFields(NamedTuple):
    sigma: int
    plane: list[dict[int, tuple[int, ...]]]
    realized: dict[SkeletalSignature, Witness]
    scope: SearchScope


class KSpaceApproximation(_KSpaceApproximationFields):
    """Two-sided bracket on the space of skeletal signatures at one genus.

    ``plane[h]`` maps each admissible r of row h, ascending, to the tuple of
    its feasible orders up to ``scope.max_order``, ascending, then its least
    feasible order above ``scope.max_order`` if it has one: the rows of
    ``plane_rows`` at that max order, each row's r sorted, its tuples kept.
    """

    __slots__ = ()

    def __new__(
        cls,
        sigma: int,
        plane: list[dict[int, tuple[int, ...]]],
        realized: dict[SkeletalSignature, Witness],
        scope: SearchScope,
    ) -> "KSpaceApproximation":
        if any(h >= len(plane) or r not in plane[h] for h, r in realized):
            raise AssertionError("realized points must be admissible")
        return super().__new__(cls, sigma, plane, realized, scope)

    def rows(self) -> list[list[Run]]:
        """For each row h of the box, the maximal runs (r_lo, r_hi, status) of its
        admissible points, realized or admissible, r ascending."""
        realized = self.realized
        return [
            _runs((r, "realized" if (h, r) in realized else "admissible") for r in row)
            for h, row in enumerate(self.plane)
        ]


def _decide(
    sigma: int,
    skel: SkeletalSignature,
    orders: Iterable[int],
    catalog: CatalogManifest,
    budget: int,
) -> tuple[Witness | None, str | None, list[tuple[str | None, ExclusionReason]], bool]:
    """Search the point's orders in turn with their covering groups, to the first witness.

    This is the one loop from orders to ``catalog.covering`` to ``realizable``,
    and the one home of order-level rules.  Returns the first witness (or
    None), the name of the first group whose search hit the budget (None when
    there is a witness, or none hit it), each exclusion reason paired with the
    name of its group (None for an order-level rule), and whether every order
    searched was closed.
    An order is closed when an order-level rule closes it, or when its
    groups are all its groups and none hit the budget.

    ``cyclic-forced``: with one branch point of period |G| = N, the branch
    entry generates G, so G is cyclic, hence abelian; then the product of
    commutators is e, and the entry must be e, not of order N.  For r = 1,
    Riemann-Hurwitz 2(sigma - 1) = N(2h - 1) - N/n makes the single part
    N/n equal T = N(2h - 1) - 2(sigma - 1), so at a feasible order the one
    period list is (N,) exactly when T = 1.  The order's groups are searched
    all the same, and their reasons kept.
    """
    budget_hit = None
    excluded: list[tuple[str | None, ExclusionReason]] = []
    all_closed = True
    for order in orders:
        closed = skel.r == 1 and order * (2 * skel.h - 1) - 2 * (sigma - 1) == 1
        if closed:
            reason = ExclusionReason(
                "cyclic-forced",
                f"order {order}: the branch entry would have order {order} = |G|, "
                f"forcing a cyclic (hence abelian) group, impossible with one branch point",
            )
            excluded.append((None, reason))
        groups, complete = catalog.covering(order)
        order_hit = None
        for g in groups:
            report = realizable(g, sigma, skel, budget)
            if report.verdict.is_exists:
                return report.verdict.witness, None, excluded, False
            if report.verdict.is_unknown:
                order_hit = order_hit or g.name
            else:
                excluded.extend((g.name, reason) for reason in report.exclusion_reasons)
        budget_hit = budget_hit or order_hit
        all_closed = all_closed and (closed or (complete and order_hit is None))
    return None, budget_hit, excluded, all_closed


def realizable_set(
    sigma: int,
    catalog: CatalogManifest,
    max_order: int,
    budget: int = DEFAULT_BUDGET,
) -> KSpaceApproximation:
    """Witness map over the covering groups at every admissible point.

    Each point is searched with the ``catalog.covering`` groups of each of its
    feasible orders up to ``max_order``, in ascending order; a group of any
    other order has no period list and could only be excluded by arithmetic.
    A point is fully covered when each of its feasible orders is at most
    ``max_order`` and covered completely.  The result is a certified subset
    of the true space; the scope records how far coverage lets it claim more.
    """
    plane = plane_rows(sigma, max_order)
    realized: dict[SkeletalSignature, Witness] = {}
    unknown_pts: list[SkeletalSignature] = []
    covered = 0
    # points in sorted order, h ascending, then each row's r sorted; each tuple of orders ascends
    for h, row in enumerate(plane):
        plane[h] = row = {r: row[r] for r in sorted(row)}
        for r, orders in row.items():
            pt = SkeletalSignature(h, r)
            searched = [n for n in orders if n <= max_order]
            witness, budget_hit, _, _ = _decide(sigma, pt, searched, catalog, budget)
            if witness is not None:
                realized[pt] = witness
            elif budget_hit is not None:
                unknown_pts.append(pt)
            covered += len(searched) == len(orders) and all(catalog.covering(n)[1] for n in orders)
    scope = SearchScope(
        max_order=max_order,
        budget=budget,
        complete_orders=tuple(sorted(o for o in catalog.complete_orders if 2 <= o <= max_order)),
        total_points=sum(map(len, plane)),
        fully_covered_points=covered,
        unknown_points=tuple(unknown_pts),
    )
    return KSpaceApproximation(sigma, plane, realized, scope)


# ---------------------------------------------------------------------------
# point-level exclusion machinery (r = 1 arguments and catalog sweeps)


class PointAnalysis(NamedTuple):
    """Realizability decision for one lattice point across all feasible orders."""

    point: SkeletalSignature
    status: str  # realized | excluded | partial
    feasible: tuple[tuple[int, tuple[int, ...]], ...]
    reasons: tuple[ExclusionReason, ...]
    witness: Witness | None

    def to_json(self) -> dict:
        return {
            "point": list(self.point),
            "status": self.status,
            "feasibleOrders": [[n, list(p)] for n, p in self.feasible],
            "reasons": [e.to_json() for e in self.reasons],
            "witness": None if self.witness is None else self.witness.to_json(),
        }


def analyze_point(
    sigma: int,
    skel: SkeletalSignature,
    catalog: CatalogManifest,
    budget: int = DEFAULT_BUDGET,
) -> PointAnalysis:
    """Decide a lattice point by ``_decide`` over all its RH-compatible orders.

    Realized with the first witness; excluded when every order is closed,
    by an order-level rule or by a search over all its groups that hit no
    budget; otherwise partial, never a false no.
    """
    skel = SkeletalSignature(*skel)
    feasible = tuple(feasible_orders(sigma, skel))
    if not feasible:
        why = f"no order admits a period list for {tuple(skel)} at genus {sigma}"
        return PointAnalysis(skel, "excluded", (), (ExclusionReason("arithmetic", why),), None)
    witness, _, excluded, closed = _decide(sigma, skel, (n for n, _ in feasible), catalog, budget)
    status = "realized" if witness is not None else "excluded" if closed else "partial"
    return PointAnalysis(skel, status, feasible, tuple(reason for _, reason in excluded), witness)


# ---------------------------------------------------------------------------
# gap verification


# a certified off-line gap point: not on the exception line, no Riemann-Hurwitz
# solution, no analysis; its text is the head filled with % h, then r, then the tail
_CERTIFIED_HEAD = '{\n  "point": [\n    %d,\n    '
_CERTIFIED_TAIL = (
    '\n  ],\n  "onExceptionLine": false,\n'
    '  "rh": {\n    "status": "not-exists"\n  },\n  "analysis": null\n}'
)


def _certified_points(h: int, rs: range) -> JsonText:
    """The certified points (h, r) for r in ``rs``, not empty, as list items joined by
    ",\\n": one text, the head filled in once."""
    head, tail = _CERTIFIED_HEAD % h, _CERTIFIED_TAIL
    return JsonText(",\n".join([f"{head}{r}{tail}" for r in rs]))


class PointReport(NamedTuple):
    """A gap point's report: ``rh`` is its first (order, periods) solution, or None."""

    point: SkeletalSignature
    on_exception_line: bool
    rh: tuple[int, tuple[int, ...]] | None
    analysis: PointAnalysis | None

    def to_json(self) -> dict:
        if self.rh is None:
            rh_json = {"status": "not-exists"}
        else:
            order, periods = self.rh
            rh_json = {"status": "exists", "order": order, "periods": list(periods)}
        return {
            "point": list(self.point),
            "onExceptionLine": self.on_exception_line,
            "rh": rh_json,
            "analysis": None if self.analysis is None else self.analysis.to_json(),
        }


class GapReport(NamedTuple):
    """A gap's certificate: its lattice rows, and a report for each point that needs one.

    ``rows`` are the region's ``integer_rows_raw``.  ``reports`` hold, in
    lattice order, every exception-line point and every off-line point with
    a Riemann-Hurwitz solution; every other point of the rows is a certified
    off-line point, with no solution and no analysis.
    """

    region: GapRegion
    rows: tuple[tuple[int, int, int], ...]
    reports: tuple[PointReport, ...]
    conclusion: str  # verified | refuted
    has_partial: bool

    def points_json(self) -> Iterator[dict | JsonText]:
        """The points' JSON in lattice order: each run of certified points in a row as one
        text (``_certified_points``), a reported point by ``PointReport.to_json``."""
        reports, i = self.reports, 0
        for h, r_lo, r_hi in self.rows:
            r = r_lo
            while i < len(reports) and reports[i].point.h == h:
                stop = reports[i].point.r
                if r < stop:
                    yield _certified_points(h, range(r, stop))
                yield reports[i].to_json()
                r, i = stop + 1, i + 1
            if r <= r_hi:
                yield _certified_points(h, range(r, r_hi + 1))

    def to_json(self) -> dict:
        return {
            "gap": self.region.to_json(),
            "points": self.points_json(),
            "conclusion": self.conclusion,
            "hasPartial": self.has_partial,
        }


def verify_gap(
    sigma: int,
    order: int,
    catalog: CatalogManifest,
    budget: int = DEFAULT_BUDGET,
) -> GapReport:
    """Check that every non-exception lattice point of the gap is RH-infeasible.

    The gap is walked row by row.  Every off-line point runs the order-window
    loop once, taking the first (order, periods) that ``_window_lists``
    yields, or None; only one with a solution, which refutes the gap, gets a
    ``PointReport``.  Exception-line points (present when the skipped middle
    order is prime, at most one per row) are additionally analyzed for
    realizability, since the gap guarantee does not apply to them, and each
    gets a report.  The conclusion is verified iff every non-exception point
    has no Riemann-Hurwitz solution at any order.
    """
    region = gap(sigma, order)
    rows = tuple(region.integer_rows_raw())
    reports: list[PointReport] = []
    refuted = has_partial = False
    # ``gap`` checked sigma, and raw points are int pairs with h >= 2: none is checked again
    for h, r_lo, r_hi in rows:
        line_r = region.exception_r(h)
        for r in range(r_lo, r_hi + 1):
            if r != line_r:
                found = next(_window_lists(sigma, h, r), None)
                if found is not None:
                    refuted = True
                    reports.append(PointReport(SkeletalSignature(h, r), False, found, None))
                continue
            # the analysis sweeps the point's orders; its first feasible order is the rh witness
            pt = SkeletalSignature(h, r)
            analysis = analyze_point(sigma, pt, catalog, budget)
            found = analysis.feasible[0] if analysis.feasible else None
            has_partial = has_partial or analysis.status == "partial"
            reports.append(PointReport(pt, True, found, analysis))
    conclusion = "refuted" if refuted else "verified"
    return GapReport(region, rows, tuple(reports), conclusion, has_partial)


# ---------------------------------------------------------------------------
# sporadic points on the r = 1 line


class CaseRecord(NamedTuple):
    """One divisor case of the r = 1 nonexistence argument at genus p + 1."""

    divisor: str  # which divisor of 2p the quantity n(2h-1)-1 equals
    n: int | None
    group_order: int | None
    rule: str
    detail: str
    closed: bool
    witness: Witness | None = None

    def to_json(self) -> dict:
        return {
            "divisor": self.divisor,
            "n": self.n,
            "groupOrder": self.group_order,
            "rule": self.rule,
            "detail": self.detail,
            "closed": self.closed,
            "witness": None if self.witness is None else self.witness.to_json(),
        }


class SporadicGenusReport(NamedTuple):
    p: int
    sigma: int
    cases: tuple[CaseRecord, ...]
    verdict: str  # not-exists | refuted | partial

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "sigma": self.sigma,
            "cases": [c.to_json() for c in self.cases],
            "verdict": self.verdict,
        }


class QuaternionWitnessRecord(NamedTuple):
    n: int
    genus: int
    witness: Witness
    verified: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "genus": self.genus,
            "witness": self.witness.to_json(),
            "verified": self.verified,
        }


class SporadicReport(NamedTuple):
    h: int
    nonexistence: tuple[SporadicGenusReport, ...]
    witnesses: tuple[QuaternionWitnessRecord, ...]

    @property
    def complete(self) -> bool:
        return all(g.verdict == "not-exists" for g in self.nonexistence) and all(
            w.verified for w in self.witnesses
        )

    def to_json(self) -> dict:
        return {
            "h": self.h,
            "nonexistence": [g.to_json() for g in self.nonexistence],
            "witnesses": [w.to_json() for w in self.witnesses],
            "complete": self.complete,
        }


# How an exclusion rule reads in a |G| = 2n case detail; the others read as their name.
# At order 2n the only period list for (h, 1) at genus n(2h-1) is (n,).
_ORDER_2N_DETAIL = {
    "arithmetic": "no element of order {n}",
    "commutator-r1": "no order-{n} element is an {h}-fold commutator product",
}


def _close_order_2n(
    sigma: int, h: int, n: int, catalog: CatalogManifest, budget: int
) -> tuple[str, str, bool, Witness | None]:
    """Settle the |G| = 2n case: ``_decide`` at that one order."""
    order = 2 * n
    witness, budget_hit, excluded, _ = _decide(
        sigma, SkeletalSignature(h, 1), (order,), catalog, budget
    )
    if witness is not None:
        return ("search-witness", f"{witness.group_name}: vector found", False, witness)
    if not catalog.covering(order)[1]:
        return (
            "catalog-incomplete",
            f"need all groups of order {order}, catalog coverage incomplete there",
            False,
            None,
        )
    if budget_hit is not None:
        return ("budget-exhausted", f"{budget_hit}: search budget exhausted", False, None)
    details = (
        f"{name}: " + _ORDER_2N_DETAIL.get(reason.rule, reason.rule).format(n=n, h=h)
        for name, reason in excluded
    )
    return ("catalog-search", "; ".join(details), True, None)


def sporadic_analysis(
    h: int,
    p_list: Sequence[int],
    n_list: Sequence[int],
    catalog: CatalogManifest,
    budget: int = DEFAULT_BUDGET,
) -> SporadicReport:
    """Both directions of the r = 1 sporadic-point argument at quotient genus h > 1.

    Nonexistence: at genus p + 1 (p an odd prime), any group realizing (h, 1)
    with branch period n makes n(2h-1) - 1 divide 2p, leaving four divisor
    cases; two force h = 1, the 2p case forces a cyclic group, and the p case
    pins |G| = 2n, settled by ``_decide`` over every group of that order.
    Existence: the generalized quaternion family provides (h, 1) at genus
    2n(2(h-1)+1) - 1.
    """
    if h < 2:
        raise ValueError(f"quotient genus must be > 1, got {h}")
    genus_reports = []
    for p in p_list:
        if p < 3 or not is_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        sigma = p + 1
        # d = 1 and d = 2: n(2h-1) = d+1 <= 3 has no n >= 2 once h >= 2
        cases = [
            CaseRecord(str(d), None, None, "forces-h1",
                       f"n(2h-1) = {d + 1} requires h = 1, contradicting h = {h}", True)
            for d in (1, 2)
        ]
        for divisor, d in (("p", p), ("2p", 2 * p)):
            n, rest = divmod(d + 1, 2 * h - 1)
            if rest or n < 2:
                detail = f"({divisor}+1)/(2h-1) = {d + 1}/{2 * h - 1} is not an integer >= 2"
                cases.append(CaseRecord(divisor, None, None, "arithmetic", detail, True))
            elif divisor == "p":  # |G| = 2n
                rule, detail, closed, witness = _close_order_2n(sigma, h, n, catalog, budget)
                cases.append(CaseRecord(divisor, n, 2 * n, rule, detail, closed, witness))
            else:  # |G| = n, which must contain an element of its own order
                detail = (f"|G| = {n} with an element of order {n} is cyclic, "
                          f"hence abelian, impossible with one branch point")
                cases.append(CaseRecord(divisor, n, n, "cyclic-forced", detail, True))
        if any(c.witness is not None for c in cases):
            verdict = "refuted"
        elif all(c.closed for c in cases):
            verdict = "not-exists"
        else:
            verdict = "partial"
        genus_reports.append(SporadicGenusReport(p, sigma, tuple(cases), verdict))
    witness_records = []
    for n in n_list:
        group, witness = quaternion_vector(n, h)
        expected = 2 * n * (2 * (h - 1) + 1) - 1
        ok = rh_genus(group.order, witness.signature) == expected
        witness_records.append(QuaternionWitnessRecord(n, expected, witness, ok))
    return SporadicReport(h, tuple(genus_reports), tuple(witness_records))


# ---------------------------------------------------------------------------
# figure dataset


class FigureDataset(NamedTuple):
    """Everything needed to draw the (h, r)-plane for one genus.

    ``rows[h]`` holds the maximal runs (r_lo, r_hi, status) of row h's drawn
    and shaded points, r ascending: each run a stretch of consecutive r with
    one status, the next run of the row starting past a hole or with another
    status.
    """

    sigma: int
    lines: tuple[tuple[str, RationalLine], ...]
    gaps: tuple[GapRegion, ...]
    rows: tuple[list[Run], ...]


def _runs(points: Iterable[tuple[int, str]]) -> list[Run]:
    """The maximal runs (r_lo, r_hi, status) of (r, status) pairs given in ascending r."""
    runs: list[Run] = []
    lo = hi = -2
    status = None
    for r, s in points:
        if r != hi + 1 or s != status:
            if status is not None:
                runs.append((lo, hi, status))
            lo, status = r, s
        hi = r
    if status is not None:
        runs.append((lo, hi, status))
    return runs


def _overlay(base: list[Run], top: list[Run]) -> list[Run]:
    """The runs of ``top`` laid over ``base``, sorted: a point that a run of ``top``
    holds takes that run's status, any other point of ``base`` keeps its own.

    Each list is sorted and disjoint.  No two runs are merged.
    """
    cut: list[Run] = []
    for lo, hi, status in base:
        for t_lo, t_hi, _ in top:
            if t_hi < lo:
                continue
            if t_lo > hi:
                break
            if t_lo > lo:
                cut.append((lo, t_lo - 1, status))
            lo = t_hi + 1
        if lo <= hi:
            cut.append((lo, hi, status))
    return sorted(cut + top)


_EXCEPTION_STATUS = {"realized": "exception-realized", "excluded": "exception-excluded"}


def figure_dataset(
    sigma: int,
    catalog: CatalogManifest | None = None,
    max_order: int = DEFAULT_MAX_ORDER,
    budget: int = DEFAULT_BUDGET,
) -> FigureDataset:
    """Point statuses plus the named line bundle for the genus-sigma plane.

    Lines: the order-2 (hyperelliptic) locus, the two boundaries of each of the
    order-3/4 and order-4/6 gaps, and the order-5 cyclic line that pierces the
    latter, each read off its gap.  Statuses: realized / admissible for points of the feasible set,
    gap for certified-empty gap lattice points, exception-realized /
    exception-excluded for exception-line points settled by group search.
    ``max_order`` caps only the realized map: exception-line points are
    analyzed at every feasible order, as ``verify-gap`` analyzes them.
    A ``catalog`` of None means: draw the plane without a search, so no point
    is realized and no exception point is analyzed; the plane is then swept
    at the same ``max_order``, and only its rows' r are read.
    The rows are built one at a time: the row's admissible runs, laid over
    each gap's runs in the row (an admissible point is never drawn as gap),
    then an analyzed exception point laid over those.  The runs stay maximal
    with no merging, since no seam joins two runs of one status: the two
    gaps' runs in row h lie on either side of r = sigma + 3 - 4h, the integer
    point of the upper order-4 line, and only the order-4 gap has an
    exception line, which meets a row once.
    """
    gaps = three, four = gap(sigma, 3), gap(sigma, 4)
    lines = (
        ("hyperelliptic", p_group_line(sigma, 2, 1)),
        ("lower-3", three.boundary_lower),
        ("upper-4", three.boundary_upper),
        ("lower-4", four.boundary_lower),
        ("upper-6", four.boundary_upper),
        ("cyclic-5", four.exception_line),
    )
    if catalog is not None:
        rows = realizable_set(sigma, catalog, max_order, budget).rows()
    else:
        plane = plane_rows(sigma, max_order)
        rows = [_runs(zip(sorted(row), repeat("admissible"))) for row in plane]
    # a gap row lies left of its lower line's foot, h < 1 + (sigma - 1)/3, inside the box
    for region in gaps:
        for h, r_lo, r_hi in region.integer_rows_raw():
            line_r = region.exception_r(h)
            if line_r is None or not r_lo <= line_r <= r_hi:
                shaded, line_r = [(r_lo, r_hi)], None
            else:
                shaded = [(r_lo, line_r - 1), (line_r + 1, r_hi)]
            rows[h] = _overlay([(lo, hi, "gap") for lo, hi in shaded if lo <= hi], rows[h])
            if line_r is not None and catalog is not None:
                analysis = analyze_point(sigma, SkeletalSignature(h, line_r), catalog, budget)
                status = _EXCEPTION_STATUS.get(analysis.status)
                if status is not None:
                    rows[h] = _overlay(rows[h], [(line_r, line_r, status)])
    return FigureDataset(sigma, lines, gaps, tuple(rows))
