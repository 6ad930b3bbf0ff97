"""Assemble the admissible region, verify gap emptiness, and analyze sporadic points.

The admissible set (Riemann-Hurwitz feasibility over all group orders) is a
superset of the true space of skeletal signatures; the realized map (witnessed
by generating-vector search over a catalog) is a lower bound.  Reports keep
that distinction explicit: equality is never asserted, coverage is recorded.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from . import geometry
from .genvec import (
    DEFAULT_BUDGET,
    ExclusionReason,
    Witness,
    quaternion_vector,
    realizable,
    verify,
)
from .geometry import GapRegion, gap, p_group_line, triangle_rows
from .groups import CatalogManifest, GroupTable, _is_prime, build_cyclic
from .rh import (
    SearchVerdict,
    SkeletalSignature,
    _check_genus,
    feasible_orders,
    hurwitz_range_orders,
    order_parts,
    part_sum_levels,
    rh_admissible,
    rh_genus,
)


# ---------------------------------------------------------------------------
# admissible region


def admissible_map(sigma: int) -> dict[SkeletalSignature, tuple[int, ...]]:
    """Every RH-feasible lattice point with its full list of feasible orders.

    Sweeps orders from 2 up to 12(sigma - 1) and decides each order's whole
    triangle at once, so the union equals the per-point order sweep without
    quadratic cost.  Above 12(sigma - 1) only (0, 3) is feasible, and its
    orders there, up to the h = 0 cap 84(sigma - 1), come in closed form from
    ``hurwitz_range_orders``, which carries both proofs.  Each swept order N
    comes with its parts d = N/n over its periods n from ``order_parts``, one
    divisor sieve over the whole sweep.
    A point is feasible at N exactly when T = N(2h - 2 + r) - 2(sigma - 1) is
    a sum of r parts.  With m the largest r of the triangle (at least 1),
    ``part_sum_levels`` builds S_0..S_(m-1): a point with r < m is decided by
    bit T of S_r, and a point with r = m by bit T - d of S_(m-1) for each
    part d <= T, so the widest level is never built.  That is the test the
    period-list walk makes, without listing a period.  Triangle points have
    T >= r >= 0, so the levels are cut at the largest T, which is never
    negative.  The triangle is walked row by row from ``triangle_rows``, T
    growing by N with r, and a ``SkeletalSignature`` is built only for a
    feasible point.  The box is fixed at
    h <= sigma + 1, r <= 2*sigma + 2, and every triangle lies inside it:
    h <= (sigma-1)/N + 1 and r <= 4(sigma-1)/N + 4.
    """
    _check_genus(sigma)
    shift = 2 * (sigma - 1)

    found: dict[tuple[int, int], list[int]] = {}
    for n, parts in order_parts(12 * (sigma - 1)):
        rows = list(triangle_rows(sigma, n))
        if not rows:
            continue
        # r_hi = 4(1 - h) + floor(4(sigma - 1)/N), so 2h + r_hi falls as h grows:
        # the first row holds both the largest r and the largest T
        h, _, r_hi = rows[0]
        widest = max(1, r_hi)
        levels = part_sum_levels(parts, widest - 1, n * (2 * h - 2 + r_hi) - shift)
        below = levels[-1]
        for h, r_lo, r_hi in rows:
            t = n * (2 * h - 2 + r_lo) - shift
            for r in range(r_lo, r_hi + 1):
                if (
                    levels[r] >> t & 1
                    if r < widest
                    else any(below >> (t - d) & 1 for d in parts if d <= t)
                ):
                    found.setdefault((h, r), []).append(n)
                t += n
    found.setdefault((0, 3), []).extend(hurwitz_range_orders(sigma))
    return {SkeletalSignature(*pt): tuple(ns) for pt, ns in sorted(found.items())}


# ---------------------------------------------------------------------------
# realized subset


class SearchScope(NamedTuple):
    """Honest record of what the witness search actually covered."""

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
    feasible_orders_by_point: dict[SkeletalSignature, tuple[int, ...]]
    realized: dict[SkeletalSignature, Witness]
    scope: SearchScope


class KSpaceApproximation(_KSpaceApproximationFields):
    """Two-sided bracket on the space of skeletal signatures at one genus."""

    __slots__ = ()

    def __new__(
        cls,
        sigma: int,
        feasible_orders_by_point: dict[SkeletalSignature, tuple[int, ...]],
        realized: dict[SkeletalSignature, Witness],
        scope: SearchScope,
    ) -> "KSpaceApproximation":
        if not realized.keys() <= feasible_orders_by_point.keys():
            raise AssertionError("realized points must be admissible")
        return super().__new__(cls, sigma, feasible_orders_by_point, realized, scope)

    @property
    def admissible(self) -> frozenset[SkeletalSignature]:
        return frozenset(self.feasible_orders_by_point)


def groups_covering(order: int, catalog: CatalogManifest | None) -> list[GroupTable] | None:
    """Every group of this order up to isomorphism, or None when coverage is not certified.

    Coverage is a catalog order flagged complete, or a prime order, whose one
    isomorphism class is the cyclic group.
    """
    if catalog is not None and catalog.is_complete_at(order):
        return catalog.groups_of_order(order)
    if _is_prime(order):
        return [build_cyclic(order)]
    return None


def _realize_any(
    groups: Iterable[GroupTable], sigma: int, skel: SkeletalSignature, budget: int
) -> tuple[Witness | None, str | None, list[tuple[str, ExclusionReason]]]:
    """Run ``realizable`` over the groups in turn until one yields a witness.

    Returns the first witness (or None), the name of the first group whose
    search hit the budget before it (or None), and each exclusion reason of
    the groups settled as not-exists, paired with the group's name.
    """
    budget_hit = None
    excluded: list[tuple[str, ExclusionReason]] = []
    for g in groups:
        report = realizable(g, sigma, skel, budget)
        if report.verdict.is_exists:
            return report.verdict.witness, budget_hit, excluded
        if report.verdict.is_unknown:
            budget_hit = budget_hit or g.name
        else:
            excluded.extend((g.name, reason) for reason in report.exclusion_reasons)
    return None, budget_hit, excluded


def realizable_set(
    sigma: int,
    catalog: CatalogManifest | Iterable[GroupTable],
    max_order: int,
    budget: int = DEFAULT_BUDGET,
) -> KSpaceApproximation:
    """Witness map over catalog groups at every admissible point.

    Each point is searched only with the groups whose order is feasible
    there; a group of any other order has no period list and could only be
    excluded by arithmetic.  The result is a certified subset of the true
    space; the scope records how far catalog completeness lets it claim more.
    """
    feas = admissible_map(sigma)
    if isinstance(catalog, CatalogManifest):
        groups = catalog.groups(max_order=max_order)
        complete = tuple(sorted(o for o in catalog.complete_orders if 2 <= o <= max_order))
    else:
        groups = [g for g in catalog if g.order <= max_order]
        complete = ()
    groups = sorted(groups, key=lambda g: (g.order, g.name))

    realized: dict[SkeletalSignature, Witness] = {}
    unknown_pts: list[SkeletalSignature] = []
    for pt, orders in feas.items():  # admissible_map yields points in sorted order
        here = [g for g in groups if g.order in orders]
        witness, budget_hit, _ = _realize_any(here, sigma, pt, budget)
        if witness is not None:
            realized[pt] = witness
        elif budget_hit is not None:
            unknown_pts.append(pt)
    covered = sum(1 for orders in feas.values() if all(n in complete for n in orders))
    scope = SearchScope(
        max_order=max_order,
        budget=budget,
        complete_orders=complete,
        total_points=len(feas),
        fully_covered_points=covered,
        unknown_points=tuple(unknown_pts),
    )
    return KSpaceApproximation(sigma, feas, realized, scope)


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
    catalog: CatalogManifest | None,
    budget: int = DEFAULT_BUDGET,
) -> PointAnalysis:
    """Decide a lattice point by sweeping its RH-compatible orders.

    Order-level rules close an order without group enumeration where possible:
    a single branch point whose period equals the group order forces a cyclic
    group, which the abelian obstruction then excludes.  Remaining orders are
    settled by exhaustive search over the catalog when its coverage is
    complete there; otherwise the verdict is partial, never a false no.
    """
    skel = SkeletalSignature(*skel)
    feasible = tuple(feasible_orders(sigma, skel))
    reasons: list[ExclusionReason] = []
    if not feasible:
        return PointAnalysis(
            skel,
            "excluded",
            (),
            (
                ExclusionReason(
                    "arithmetic",
                    f"no order admits a period list for {tuple(skel)} at genus {sigma}",
                ),
            ),
            None,
        )
    witness: Witness | None = None
    all_closed = True
    for order, periods in feasible:
        closed = skel.r == 1 and periods == (order,)
        if closed:
            reasons.append(
                ExclusionReason(
                    "cyclic-forced",
                    f"order {order}: the branch entry would have order {order} = |G|, "
                    f"forcing a cyclic (hence abelian) group, impossible with one branch point",
                )
            )
        group_list = groups_covering(order, catalog)
        if group_list is not None:
            witness, budget_hit, excluded = _realize_any(group_list, sigma, skel, budget)
            reasons.extend(reason for _, reason in excluded)
            if witness is not None:
                break
            closed = closed or budget_hit is None
        all_closed = all_closed and closed
    if witness is not None:
        return PointAnalysis(skel, "realized", feasible, tuple(reasons), witness)
    if all_closed:
        return PointAnalysis(skel, "excluded", feasible, tuple(reasons), None)
    return PointAnalysis(skel, "partial", feasible, tuple(reasons), None)


# ---------------------------------------------------------------------------
# gap verification


class PointReport(NamedTuple):
    point: SkeletalSignature
    on_exception_line: bool
    rh: SearchVerdict
    analysis: PointAnalysis | None

    def to_json(self) -> dict:
        rh_json = {"status": self.rh.status}
        if self.rh.is_exists:
            order, periods = self.rh.witness
            rh_json["order"] = order
            rh_json["periods"] = list(periods)
        return {
            "point": list(self.point),
            "onExceptionLine": self.on_exception_line,
            "rh": rh_json,
            "analysis": None if self.analysis is None else self.analysis.to_json(),
        }


class GapReport(NamedTuple):
    region: GapRegion
    points: tuple[PointReport, ...]
    conclusion: str  # verified | refuted
    has_partial: bool

    def to_json(self) -> dict:
        return {
            "gap": self.region.to_json(),
            "points": [p.to_json() for p in self.points],
            "conclusion": self.conclusion,
            "hasPartial": self.has_partial,
        }


def verify_gap(
    sigma: int,
    order: int,
    catalog: CatalogManifest | None = None,
    budget: int = DEFAULT_BUDGET,
) -> GapReport:
    """Check that every non-exception lattice point of the gap is RH-infeasible.

    Exception-line points (present when the skipped middle order is prime) are
    additionally analyzed for realizability, since the gap guarantee does not
    apply to them.  The conclusion is verified iff every non-exception point
    has no Riemann-Hurwitz solution at any order.
    """
    region = gap(sigma, order)

    def judge(pt: SkeletalSignature) -> PointReport:
        if not region.on_exception_line(pt):
            return PointReport(pt, False, rh_admissible(sigma, pt), None)
        # the analysis sweeps the point's orders; its first feasible order is the rh witness
        analysis = analyze_point(sigma, pt, catalog, budget)
        feasible = analysis.feasible
        verdict = SearchVerdict.exists(feasible[0]) if feasible else SearchVerdict.not_exists()
        return PointReport(pt, True, verdict, analysis)

    points = tuple(judge(pt) for pt in region.integer_points_raw())
    bad = [p for p in points if not p.on_exception_line and not p.rh.is_not_exists]
    has_partial = any(p.analysis is not None and p.analysis.status == "partial" for p in points)
    conclusion = "verified" if not bad else "refuted"
    return GapReport(region, points, conclusion, has_partial)


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
    sigma: int, h: int, n: int, catalog: CatalogManifest | None, budget: int
) -> tuple[str, str, bool, Witness | None]:
    """Settle the |G| = 2n case: ``realizable`` over every group of that order."""
    order = 2 * n
    group_list = groups_covering(order, catalog)
    if group_list is None:
        return (
            "catalog-incomplete",
            f"need all groups of order {order}, catalog coverage incomplete there",
            False,
            None,
        )
    witness, budget_hit, excluded = _realize_any(group_list, sigma, SkeletalSignature(h, 1), budget)
    if witness is not None:
        return ("search-witness", f"{witness.group_name}: vector found", False, witness)
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
    catalog: CatalogManifest | None,
    budget: int = DEFAULT_BUDGET,
) -> SporadicReport:
    """Both directions of the r = 1 sporadic-point argument at quotient genus h > 1.

    Nonexistence: at genus p + 1 (p an odd prime), any group realizing (h, 1)
    with branch period n makes n(2h-1) - 1 divide 2p, leaving four divisor
    cases; two force h = 1, the 2p case forces a cyclic group, and the p case
    pins |G| = 2n, settled by ``realizable`` over every group of that order.
    Existence: the generalized quaternion family provides (h, 1) at genus
    2n(2(h-1)+1) - 1.
    """
    if h < 2:
        raise ValueError(f"quotient genus must be > 1, got {h}")
    genus_reports = []
    for p in p_list:
        if p < 3 or not _is_prime(p):
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
        group, sig, vec = quaternion_vector(n, h)
        genus_fraction = rh_genus(group.order, sig)
        expected = 2 * n * (2 * (h - 1) + 1) - 1
        ok = verify(group, vec, sig) and genus_fraction == expected
        witness_records.append(
            QuaternionWitnessRecord(
                n=n,
                genus=expected,
                witness=Witness(group.name, group.spec, sig, vec),
                verified=ok,
            )
        )
    return SporadicReport(h, tuple(genus_reports), tuple(witness_records))


# ---------------------------------------------------------------------------
# figure dataset


class FigureDataset(NamedTuple):
    """Everything needed to draw the (h, r)-plane for one genus."""

    sigma: int
    lines: tuple[tuple[str, geometry.RationalLine], ...]
    gaps: tuple[GapRegion, ...]
    points: tuple[tuple[SkeletalSignature, str], ...]
    scope: SearchScope | None

    def to_csv_rows(self) -> list[tuple[int, int, str]]:
        return [(pt.h, pt.r, status) for pt, status in self.points]


def figure_dataset(
    sigma: int,
    catalog: CatalogManifest | None = None,
    max_order: int = 15,
    budget: int = DEFAULT_BUDGET,
) -> FigureDataset:
    """Point statuses plus the named line bundle for the genus-sigma plane.

    Lines: the order-2 (hyperelliptic) locus, the two boundaries of each of the
    order-3/4 and order-4/6 gaps, and the order-5 cyclic line that pierces the
    latter.  Statuses: realized / admissible for points of the feasible set,
    gap for certified-empty gap lattice points, exception-realized /
    exception-excluded for exception-line points settled by group search.
    """
    lines = (
        ("hyperelliptic", p_group_line(sigma, 2, 1)),
        ("lower-3", geometry.lower_line(sigma, 3)),
        ("upper-4", geometry.upper_line(sigma, 4)),
        ("lower-4", geometry.lower_line(sigma, 4)),
        ("upper-6", geometry.upper_line(sigma, 6)),
        ("cyclic-5", p_group_line(sigma, 5, 1)),
    )
    gaps = (gap(sigma, 3), gap(sigma, 4))
    if catalog is not None:
        approx = realizable_set(sigma, catalog, max_order, budget)
        feas, realized, scope = approx.feasible_orders_by_point, approx.realized, approx.scope
    else:
        feas, realized, scope = admissible_map(sigma), {}, None
    status = {pt: "realized" if pt in realized else "admissible" for pt in feas}
    for region in gaps:
        for pt in region.integer_points():
            status.setdefault(pt, "gap")
        for pt in region.exception_points():
            if catalog is not None:
                analysis = analyze_point(sigma, pt, catalog, budget)
                if analysis.status == "realized":
                    status[pt] = "exception-realized"
                elif analysis.status == "excluded":
                    status[pt] = "exception-excluded"
    points = tuple((pt, status[pt]) for pt in sorted(status))
    return FigureDataset(sigma, lines, gaps, points, scope)
