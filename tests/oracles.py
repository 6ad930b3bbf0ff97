"""Slow reference implementations that the library's fast paths are checked against.

One reference per library algorithm, the most naive one that runs in the
suite's time; where a second one is kept, its line names what only it reaches.

Riemann-Hurwitz (``rh``):
- ``fraction_period_multisets``: ``_period_lists`` by exact reciprocal sums.  The
  ``combinations_with_replacement`` lists in ``test_rh`` are the naive form, up to
  order 12 and r = 5; only this one reaches orders up to 40 with r up to
  2 sigma + 2, the catalog groups' lists at sigma 24 and 48, the 119 divisors
  of 55440, and periods that do not divide the order.
- ``trial_division_allowed_periods``: ``allowed_periods`` and ``order_parts``.
- ``full_range_feasible_orders``: ``feasible_orders``, at every order up to ``order_bound``.
- ``triangle_orders``: ``_order_window``, one order at a time.
- ``walk_orders``: ``hurwitz_range_orders``, and the level bitsets of ``plane_rows``
  above 4(sigma - 1), one point at a time.  ``walk_admissible_map`` covers the same
  orders at sigma 2..30 and 100; this one reaches sigma up to 150, and 300, 499 and 500.
- ``rh_admissible``: ``next(feasible_orders(...), None)``, a point's first feasible order
  and its first period list, as the ``SearchVerdict`` the tests read.

Admissible plane, gaps and decisions (``geometry``, ``kspace``):
- ``walk_admissible_map``: ``plane_rows`` in the dict view of ``admissible_map``, by
  the period-list walk at every point of every order's triangle.
- ``census``: where each point that ``plane_rows`` leaves out lies.
- ``fraction_triangle_points``, ``fraction_gap_points``: ``triangle_rows`` and
  ``GapRegion.integer_rows_raw`` in exact rationals; ``intersect``: the gap corners;
  ``member_raw``, ``member``: the gap membership rows and ``GapRegion.exception_r``;
  ``nearest_int``: the rounding in ``missing_points``.
- ``all_groups_realizable_set``: ``realizable_set``, with every covering group at every point.
- ``close_order_2n``: the |G| = 2n case of ``sporadic_analysis``, with its own group loop.
- ``pointwise_verify_gap``: ``verify_gap``, with a report for every lattice point.
- ``point_report_json``, ``point_analysis_json``, ``witness_json``, ``vector_json``:
  the JSON of reports, analyses and witnesses, as dict trees.
- ``pointwise_figure_points``: ``figure_dataset``'s rows, by one status dict over the
  plane, point by point.
- ``circle_render_figure``: ``svg.render_figure``, one circle call per point.

Groups and generating vectors (``groups``, ``genvec``):
- ``naive_search``: ``search``, over every tuple of G^(2h+r).  ``walk_tuples``,
  the pruned walk entry by entry, is kept for what only it reaches: the
  candidate count behind each budget, and groups and signatures with
  |G|^(2h+r) above 20,000.
- ``eager_realizable``: ``realizable``, in three passes.
- ``harvey_realizable``: ``realizable`` on cyclic groups, by Harvey's conditions.
- ``naive_product_reachable``, ``naive_commutator_products``: ``product_reachable``
  and ``GroupTable.commutator_mask``, as sets of elements.
- ``check_vector``: ``verify``, every condition in full, reported as a ``VectorCheck``.
- ``naive_associative``: the table validator's Light's test, on all n^3 triples.
- ``looped_dihedral_rows``, ``looped_quaternion_rows``: ``build_dihedral`` and
  ``build_generalized_quaternion``, entry by entry.
- ``unbranched_cyclic``: criterion 10's witnesses, which no command builds.

Helpers: ``admissible_map`` (``plane_rows`` as one dict from each point, in sorted
order, to all its feasible orders); ``cut_orders`` (a point's orders as ``plane_rows``
keeps them at a ``max_order``); ``GeneratingVector`` (a vector written out in full)
with ``witness_of``, ``witness_vector`` and ``expanded``; ``period_multisets``
(``_period_lists`` over any iterable of divisors); ``order_bound``;
``TriangleRegion``, ``triangle`` and ``triangle_points``; ``r_at``, ``slope``,
``evaluate``, ``contains``; ``integer_points_raw``, ``integer_points``,
``exception_points`` and ``report_points`` (points of a gap or report);
``figure_points`` (the points of a figure's rows); ``mask_elements``;
``manifest_groups``; ``order_statistics``; ``save_cayley_file``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from skelsig.genvec import (
    DEFAULT_BUDGET,
    ExclusionReason,
    RealizabilityReport,
    Witness,
    realizable,
)
from skelsig.geometry import (
    GapRegion,
    RationalLine,
    RationalPoint,
    _check,
    gap,
    lower_line,
    triangle_rows,
    upper_line,
)
from skelsig import svg
from skelsig.groups import CatalogManifest, GroupTable, build_cyclic, quaternion_word
from skelsig.kspace import (
    FigureDataset,
    GapReport,
    KSpaceApproximation,
    PointAnalysis,
    PointReport,
    SearchScope,
    analyze_point,
    plane_rows,
    realizable_set,
)
from skelsig.rh import (
    OrbifoldSignature,
    SearchVerdict,
    SkeletalSignature,
    _check_genus,
    _check_order,
    _check_point,
    _expand_runs,
    _period_lists,
    _window_lists,
    allowed_periods,
    feasible_orders,
    rh_holds,
)


class GeneratingVector(NamedTuple):
    """A generating vector written out in full: the (a_i, b_i) pairs and the branch entries c_j."""

    a_pairs: tuple[tuple[int, int], ...]
    c_list: tuple[int, ...]


def witness_of(
    name: str, spec: str | None, sig: OrbifoldSignature, vec: GeneratingVector
) -> Witness:
    """The ``Witness`` of a written-out vector: each list as runs of equal neighbours."""
    runs = (
        tuple((v, len(list(group))) for v, group in itertools.groupby(values))
        for values in (sig.periods, vec.a_pairs, vec.c_list)
    )
    return Witness(name, spec, *runs)


def witness_vector(witness: Witness) -> GeneratingVector:
    """A witness's vector written out in full."""
    return GeneratingVector(_expand_runs(witness.pairs), _expand_runs(witness.entries))


def expanded(verdict: SearchVerdict) -> SearchVerdict:
    """A verdict with its witness, if any, written out as a ``GeneratingVector``."""
    return SearchVerdict.exists(witness_vector(verdict.witness)) if verdict.is_exists else verdict


def naive_search(group: GroupTable, sig: OrbifoldSignature) -> SearchVerdict:
    """First generating vector in ascending index order over all of G^(2h+r), or not-exists."""
    h, periods = sig.h, sig.periods
    r = len(periods)
    table = group.table
    orders = group.element_orders
    for tup in itertools.product(range(group.order), repeat=2 * h + r):
        ok = True
        for j in range(r):
            if orders[tup[2 * h + j]] != periods[j]:
                ok = False
                break
        if not ok:
            continue
        prod = 0
        for i in range(h):
            prod = table[prod][group.commutator(tup[2 * i], tup[2 * i + 1])]
        for j in range(r):
            prod = table[prod][tup[2 * h + j]]
        if prod != 0:
            continue
        if group.generates(tup):
            pairs = tuple((tup[2 * i], tup[2 * i + 1]) for i in range(h))
            return SearchVerdict.exists(GeneratingVector(pairs, tup[2 * h :]))
    return SearchVerdict.not_exists()


def walk_tuples(
    group: GroupTable, sig: OrbifoldSignature, budget: int
) -> tuple[SearchVerdict, int]:
    """The pruned tuple walk one branch entry at a time, and the candidates it examined.

    Candidates are (a-tuple, c_1..c_(r-1)) in lexicographic order, each c_j of
    order n_j and c_r forced by condition (3); each one's product is taken
    afresh, entry by entry.  Past ``budget`` candidates the verdict is unknown.
    """
    h, periods = sig.h, sig.periods
    free_c = list(map(group.elements_by_order.__getitem__, periods[:-1]))
    last_period = periods[-1] if periods else None
    table = group.table
    orders = group.element_orders
    inv = group.inverse
    examined = 0
    for a_tuple in itertools.product(range(group.order), repeat=2 * h):
        comm_prod = 0
        for i in range(h):
            comm_prod = table[comm_prod][group.commutator(a_tuple[2 * i], a_tuple[2 * i + 1])]
        for c_prefix in itertools.product(*free_c):
            examined += 1
            if examined > budget:
                return SearchVerdict.unknown(), examined - 1
            if periods:
                prod = comm_prod
                for c in c_prefix:
                    prod = table[prod][c]
                c_last = inv[prod]
                if orders[c_last] != last_period:
                    continue
                elements = a_tuple + c_prefix + (c_last,)
            else:
                if comm_prod != 0:
                    continue
                elements = a_tuple
            if group.generates(elements):
                pairs = tuple(zip(a_tuple[0::2], a_tuple[1::2]))
                vec = GeneratingVector(pairs, elements[2 * h :])
                return SearchVerdict.exists(vec), examined
    return SearchVerdict.not_exists(), examined


def rh_admissible(sigma: int, skel: SkeletalSignature) -> SearchVerdict:
    """Smallest-order Riemann-Hurwitz witness for a skeletal signature, or a certified no.

    ``not_exists`` means no order up to the provable bound admits any period
    list, so the point lies outside the admissible region entirely.
    """
    first = next(feasible_orders(sigma, skel), None)
    return SearchVerdict.not_exists() if first is None else SearchVerdict.exists(first)


def naive_commutator_products(group: GroupTable, h: int) -> frozenset[int]:
    """Products of h commutators, closed one factor at a time from all |G|^2 commutators."""
    elements = range(group.order)
    single = {group.commutator(a, b) for a in elements for b in elements}
    current = frozenset({0})
    for _ in range(h):
        nxt = frozenset(group.table[x][y] for x in current for y in single)
        if nxt == current:
            break
        current = nxt
    return current


def mask_elements(group: GroupTable, mask: int) -> frozenset[int]:
    """The elements whose conjugacy class has its bit set in a class mask."""
    return frozenset(x for x in range(group.order) if mask >> group.class_of[x] & 1)


def naive_product_reachable(group: GroupTable, h: int, periods: tuple[int, ...]) -> bool:
    """Whether some c_1...c_r with ord(c_j) = n_j is the inverse of a product of h commutators."""
    reach = {0}
    for p in periods:
        cand = [g for g in range(group.order) if group.element_orders[g] == p]
        reach = {group.table[x][c] for x in reach for c in cand}
    return not reach.isdisjoint(naive_commutator_products(group, h))


def period_multisets(
    sigma: int, h: int, r: int, order: int, allowed: Iterable[int]
) -> Iterator[tuple[int, ...]]:
    """``skelsig.rh._period_lists`` over ``allowed`` sorted, deduplicated and checked once.

    Every period must be a divisor >= 2 of ``order``; any other raises
    ``ValueError`` before the walk starts.  Each count vector is expanded to
    its period list.
    """
    allowed = sorted(set(allowed))
    if any(n < 2 or order % n for n in allowed):
        raise ValueError(f"periods must be divisors >= 2 of the order {order}, got {allowed}")
    return (_expand_runs(zip(allowed, c)) for c in _period_lists(sigma, h, r, order, allowed))


def fraction_period_multisets(
    sigma: int, h: int, r: int, order: int, allowed: list[int]
) -> Iterator[tuple[int, ...]]:
    """All non-decreasing period lists over ``allowed`` whose reciprocals sum as Riemann-Hurwitz needs."""
    target = 2 * (h - 1) + r - Fraction(2 * (sigma - 1), order)
    if r == 0:
        if target == 0:
            yield ()
        return
    if target <= 0 or not allowed:
        return
    allowed = sorted(allowed)

    def walk(start: int, slots: int, t: Fraction) -> Iterator[tuple[int, ...]]:
        if slots == 1:
            if t.numerator == 1:
                m = t.denominator
                if m >= allowed[start] and m in allowed:
                    yield (m,)
            return
        if t < slots * Fraction(1, allowed[-1]):
            return
        for i in range(start, len(allowed)):
            m = allowed[i]
            rec = Fraction(1, m)
            if rec * slots < t:
                break
            if rec >= t:
                continue
            for rest in walk(i, slots - 1, t - rec):
                yield (m,) + rest

    yield from walk(0, r, target)


def trial_division_allowed_periods(order: int) -> list[int]:
    """Divisors >= 2 of the order, ascending, by trying every candidate up to the order."""
    return [d for d in range(2, order + 1) if order % d == 0]


def order_bound(sigma: int, skel: SkeletalSignature) -> int:
    """Provable cap on group orders admitting a feasible period list at a checked point.

    h >= 2: the genus-minus-one bound; h == 1: the quarter bracket of a single
    period-2 branch point; h == 0: the classical 1/84 minimum of the hyperbolic
    bracket.  The point passes the library's own check first, so a
    non-hyperbolic point raises as ``feasible_orders`` does.
    """
    h, _ = _check_point(sigma, skel)
    if h >= 2:
        return sigma - 1
    if h == 1:
        return 4 * (sigma - 1)
    return 84 * (sigma - 1)


def full_range_feasible_orders(
    sigma: int, skel: SkeletalSignature
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(order, first period list) for every feasible order, trying each of 2..order_bound.

    The periods at each order come from trial division, not ``allowed_periods``.
    """
    h, r = skel
    for order in range(2, order_bound(sigma, skel) + 1):
        allowed = trial_division_allowed_periods(order)
        first = next(period_multisets(sigma, h, r, order, allowed), None)
        if first is not None:
            yield order, first


def admissible_map(sigma: int) -> dict[SkeletalSignature, tuple[int, ...]]:
    """Every RH-feasible lattice point with all its feasible orders: ``plane_rows`` cut at
    the h = 0 cap, read off row by row, h ascending and each row's r sorted, so the keys
    come in sorted order."""
    return {
        SkeletalSignature(h, r): tuple(row[r])
        for h, row in enumerate(plane_rows(sigma, 84 * (sigma - 1)))
        for r in sorted(row)
    }


def cut_orders(orders: Iterable[int], max_order: int) -> tuple[int, ...]:
    """The orders up to ``max_order``, then the least above it if there is one, as
    ``plane_rows`` cut at ``max_order`` keeps a point's ascending orders."""
    orders = list(orders)
    below = [n for n in orders if n <= max_order]
    return (*below, *orders[len(below) : len(below) + 1])


def walk_admissible_map(sigma: int) -> dict[SkeletalSignature, tuple[int, ...]]:
    """Every RH-feasible lattice point with its feasible orders, by the period-list walk.

    Sweeps orders 2..84(sigma - 1) and, at each point of each order's
    triangle, asks ``period_multisets`` for a first period list.
    """
    found: dict[SkeletalSignature, list[int]] = {}
    for n in range(2, 84 * (sigma - 1) + 1):
        allowed = allowed_periods(n)
        for pt in triangle_points(sigma, n):
            if next(period_multisets(sigma, pt.h, pt.r, n, allowed), None) is not None:
                found.setdefault(pt, []).append(n)
    return {pt: tuple(ns) for pt, ns in sorted(found.items())}


def walk_orders(sigma: int, skel: SkeletalSignature, orders: Iterable[int]) -> list[int]:
    """The orders among ``orders`` at which the point has a period list, by the period-list walk at each."""
    h, r = skel
    return [
        n
        for n in orders
        if next(_period_lists(sigma, h, r, n, allowed_periods(n)), None) is not None
    ]


@dataclass(frozen=True)
class TriangleRegion:
    """Closed region between the lower and upper lines for one group order.

    For order 2 the two lines coincide and the triangle degenerates to a
    segment; membership then means lying on that line.
    """

    sigma: int
    order: int
    lower: RationalLine
    upper: RationalLine
    apex: RationalPoint

    def member(self, point: RationalPoint) -> bool:
        if point.h < 0 or point.h > self.apex.h or point.r < 0:
            return False
        return r_at(self.lower, point.h) <= point.r <= r_at(self.upper, point.h)

    def integer_points(self) -> list[SkeletalSignature]:
        """Lattice points with h, r >= 0, in lexicographic order."""
        return triangle_points(self.sigma, self.order)

    def to_json(self) -> dict:
        return {
            "kind": "triangle",
            "sigma": self.sigma,
            "N": self.order,
            "lower": self.lower.to_json(),
            "upper": self.upper.to_json(),
            "apex": self.apex.to_json(),
        }


def triangle_points(sigma: int, order: int) -> list[SkeletalSignature]:
    """Lattice points with h, r >= 0 of the closed order-N triangle, in lexicographic order."""
    return [
        SkeletalSignature(h, r)
        for h, r_lo, r_hi in triangle_rows(sigma, order)
        for r in range(r_lo, r_hi + 1)
    ]


def triangle(sigma: int, order: int) -> TriangleRegion:
    _check(sigma, order)
    lo = lower_line(sigma, order)
    up = upper_line(sigma, order)
    apex = RationalPoint(Fraction(order + sigma - 1, order), 0)
    # the apex (N + sigma - 1)/N, r = 0 lies on a*h + b*r = c iff a*(N + sigma - 1) == c*N
    if not all(line.a * (order + sigma - 1) == line.c * order for line in (lo, up)):
        raise AssertionError(f"apex {apex} must lie on both triangle lines")
    return TriangleRegion(sigma, order, lo, up, apex)


def intersect(first: RationalLine, second: RationalLine) -> RationalPoint:
    """Exact intersection of two non-parallel lines (2x2 rational solve)."""
    det = first.a * second.b - second.a * first.b
    if det == 0:
        raise ValueError(f"lines {first} and {second} are parallel")
    h = Fraction(first.c * second.b - second.c * first.b, det)
    r = Fraction(first.a * second.c - second.a * first.c, det)
    return RationalPoint(h, r)


def fraction_triangle_points(region: TriangleRegion) -> list[SkeletalSignature]:
    """Lattice points with h, r >= 0 of a triangle, with each r range bounded by exact rationals."""
    out: list[SkeletalSignature] = []
    for h in range(0, math.floor(region.apex.h) + 1):
        lo = r_at(region.lower, h)
        hi = r_at(region.upper, h)
        for r in range(max(math.ceil(lo), 0), math.floor(hi) + 1):
            out.append(SkeletalSignature(h, r))
    return out


def fraction_gap_points(region: GapRegion) -> list[SkeletalSignature]:
    """Lattice points with h, r >= 0 strictly inside a gap strip, by exact rational comparison.

    Steps h right of the corner while the top boundary is above r = 0, and keeps
    each r from floor(bottom) to ceil(top) that lies strictly between the two
    boundaries, so a point on either boundary is tested and left out.
    """
    out: list[SkeletalSignature] = []
    h = math.floor(region.corner.h) + 1
    while True:
        top = r_at(region.boundary_lower, h)
        if top <= 0:
            break
        bottom = r_at(region.boundary_upper, h)
        for r in range(max(math.floor(bottom), 0), math.ceil(top) + 1):
            if bottom < r < top:
                out.append(SkeletalSignature(h, r))
        h += 1
    return out


def r_at(line: RationalLine, h: int | Fraction) -> Fraction:
    """The r of a line at h, as an exact rational."""
    if line.b == 0:
        raise ValueError("vertical line has no r value at fixed h")
    return Fraction(line.c - line.a * Fraction(h), line.b)


def slope(line: RationalLine) -> Fraction:
    """dr/dh of a line (b must be nonzero)."""
    if line.b == 0:
        raise ValueError("vertical line has undefined slope in r per h")
    return Fraction(-line.a, line.b)


def evaluate(line: RationalLine, point: RationalPoint) -> Fraction:
    """a*h + b*r - c; its sign tells which side of the line the point is on."""
    return line.a * point.h + line.b * point.r - line.c


def contains(line: RationalLine, point: RationalPoint) -> bool:
    return evaluate(line, point) == 0


def member_raw(region: GapRegion, point: RationalPoint) -> bool:
    """Strictly between the gap's two boundary lines, strictly right of its corner."""
    if point.h <= region.corner.h:
        return False
    return r_at(region.boundary_upper, point.h) < point.r < r_at(region.boundary_lower, point.h)


def member(region: GapRegion, point: RationalPoint) -> bool:
    """Raw membership minus the exception line, where the gap guarantee fails."""
    if not member_raw(region, point):
        return False
    if region.exception_line is not None and contains(region.exception_line, point):
        return False
    return True


def integer_points_raw(region: GapRegion) -> list[SkeletalSignature]:
    """The lattice points of the gap's ``integer_rows_raw``, lexicographic."""
    return [
        SkeletalSignature(h, r)
        for h, r_lo, r_hi in region.integer_rows_raw()
        for r in range(r_lo, r_hi + 1)
    ]


def integer_points(region: GapRegion) -> list[SkeletalSignature]:
    """The raw lattice points off the exception line."""
    return [s for s in integer_points_raw(region) if s.r != region.exception_r(s.h)]


def exception_points(region: GapRegion) -> list[SkeletalSignature]:
    """The raw lattice points on the exception line."""
    return [s for s in integer_points_raw(region) if s.r == region.exception_r(s.h)]


def manifest_groups(catalog: CatalogManifest, max_order: int | None = None) -> list[GroupTable]:
    """Every group of the manifest, by order and then label, up to ``max_order`` when given."""
    orders = sorted({e.order for e in catalog.entries})
    return [
        g
        for n in orders
        if max_order is None or n <= max_order
        for g in catalog.covering(n)[0]
    ]


def triangle_orders(sigma: int, skel: SkeletalSignature) -> tuple[int, ...]:
    """Orders N in 2..order_bound whose closed triangle r <= T <= rN/2 holds the point, tried one by one.

    T = N(2h - 2 + r) - 2(sigma - 1).
    """
    h, r = skel
    return tuple(
        n
        for n in range(2, order_bound(sigma, skel) + 1)
        if r <= (t := n * (2 * h - 2 + r) - 2 * (sigma - 1)) and 2 * t <= r * n
    )


def census(sigma: int) -> dict[SkeletalSignature, tuple[str, tuple[int, ...]] | None]:
    """Every non-admissible point under the hyperelliptic line, mapped to where it lies.

    The points are the lattice points with h, r >= 0 and 4h + r <= 2sigma + 2
    that ``plane_rows`` leaves out, less the four non-hyperbolic points
    (0, 0), (0, 1), (0, 2) and (1, 0).  Each takes the first class that holds
    it: ("a", ()) strictly above the order-3 upper line 12h + 3r = 4(sigma + 2);
    ("b", ns) among the raw lattice points of ``gap(sigma, n)`` for each n in
    ns; ("c", orders) in the closed triangle of each order in
    ``triangle_orders``.  A point in none of them maps to None.
    """
    admissible = admissible_map(sigma)
    gaps: dict[SkeletalSignature, list[int]] = {}
    # a gap strip's points have h >= 2 (its corner has h >= 1) and lie below its lower
    # line, h < 1 + (sigma - 1)/n, so no n >= sigma - 1 has one
    for n in range(3, sigma - 1):
        for pt in integer_points_raw(gap(sigma, n)):
            gaps.setdefault(pt, []).append(n)
    out: dict[SkeletalSignature, tuple[str, tuple[int, ...]] | None] = {}
    for h in range((sigma + 1) // 2 + 1):
        for r in range(2 * sigma + 3 - 4 * h):
            pt = SkeletalSignature(h, r)
            if pt in admissible or pt in ((0, 0), (0, 1), (0, 2), (1, 0)):
                continue
            if 12 * h + 3 * r > 4 * (sigma + 2):
                out[pt] = ("a", ())
            elif pt in gaps:
                out[pt] = ("b", tuple(gaps[pt]))
            else:
                orders = triangle_orders(sigma, pt)
                out[pt] = ("c", orders) if orders else None
    return out


def all_groups_realizable_set(
    sigma: int, catalog: CatalogManifest, max_order: int, budget: int
) -> KSpaceApproximation:
    """The witness map, searching every covering group of order <= max_order at every point.

    The groups are the catalog's of each order, plus the cyclic group of each
    prime order the catalog lacks.
    """
    feas = admissible_map(sigma)
    cover = {n: catalog.covering(n) for n in range(1, max_order + 1)}
    groups = [g for n in sorted(cover) for g in cover[n][0]]
    complete = tuple(sorted(o for o in range(2, max_order + 1) if o in catalog.complete_orders))
    realized = {}
    unknown_pts = []
    for pt in sorted(feas):
        unknown = False
        for g in groups:
            report = realizable(g, sigma, pt, budget)
            if report.verdict.is_exists:
                realized[pt] = report.verdict.witness
                break
            if report.verdict.is_unknown:
                unknown = True
        if unknown and pt not in realized:
            unknown_pts.append(pt)
    scope = SearchScope(
        max_order=max_order,
        budget=budget,
        complete_orders=complete,
        total_points=len(feas),
        fully_covered_points=sum(
            1 for orders in feas.values() if all(n in cover and cover[n][1] for n in orders)
        ),
        unknown_points=tuple(unknown_pts),
    )
    plane: list[dict[int, tuple[int, ...]]] = [{} for _ in range((sigma + 3) // 2)]
    for (h, r), orders in feas.items():
        plane[h][r] = cut_orders(orders, max_order)
    return KSpaceApproximation(sigma, plane, realized, scope)


def close_order_2n(
    h: int, n: int, catalog: CatalogManifest, budget: int
) -> tuple[str, str, bool, Witness | None]:
    """(rule, detail, closed, witness) of the |G| = 2n sporadic case, one group at a time.

    Per group: abelian groups fail the single branch entry outright, a group
    with no element of order n has no period list, and any candidate c_1 must
    be an h-fold commutator product of order n.  A surviving group is searched.
    """
    order = 2 * n
    group_list, complete = catalog.covering(order)
    details = []
    budget_hit = None
    for g in group_list:
        if g.is_abelian:
            details.append(f"{g.name}: abelian-r1")
            continue
        order_n = [x for x in range(g.order) if g.element_orders[x] == n]
        if not order_n:
            details.append(f"{g.name}: no element of order {n}")
            continue
        pool = naive_commutator_products(g, h)
        if not any(g.inverse[c] in pool for c in order_n):
            details.append(f"{g.name}: no order-{n} element is an {h}-fold commutator product")
            continue
        verdict, _ = walk_tuples(g, OrbifoldSignature(h, (n,)), budget)
        if verdict.is_exists:
            witness = witness_of(g.name, g.spec, OrbifoldSignature(h, (n,)), verdict.witness)
            return ("search-witness", f"{g.name}: vector found", False, witness)
        if verdict.is_unknown:
            budget_hit = budget_hit or g.name
            continue
        details.append(f"{g.name}: exhausted-search")
    if not complete:
        return (
            "catalog-incomplete",
            f"need all groups of order {order}, catalog coverage incomplete there",
            False,
            None,
        )
    if budget_hit is not None:
        return ("budget-exhausted", f"{budget_hit}: search budget exhausted", False, None)
    return ("catalog-search", "; ".join(details), True, None)


def eager_realizable(
    group: GroupTable, sigma: int, skel: SkeletalSignature, budget: int
) -> RealizabilityReport:
    """``realizable`` in three passes: list every period list, filter them all, then search each."""
    h, r = SkeletalSignature(*skel)

    def excluded(rule: str, scope: str) -> RealizabilityReport:
        return RealizabilityReport(SearchVerdict.not_exists(), (ExclusionReason(rule, scope),))

    element_orders = sorted({k for k in group.element_orders if k >= 2})
    multisets = list(period_multisets(sigma, h, r, group.order, element_orders))
    if not multisets:
        return excluded(
            "arithmetic",
            f"no period multiset over element orders of {group.name} "
            f"satisfies Riemann-Hurwitz at genus {sigma}",
        )
    if not any(naive_product_reachable(group, h, periods) for periods in multisets):
        if r == 1 and group.is_abelian:
            return excluded(
                "abelian-r1",
                f"{group.name} is abelian and a single branch entry of order >= 2 "
                f"cannot be a product of commutators",
            )
        if r == 1:
            return excluded(
                "commutator-r1",
                f"no element of order {' or '.join(str(m[0]) for m in multisets)} in "
                f"{group.name} is a product of {h} commutators, as a single branch entry must be",
            )
        return excluded(
            "product-unreachable",
            f"no branch entries of orders {' or '.join(str(m) for m in multisets)} in "
            f"{group.name} multiply to the inverse of a product of {h} commutators",
        )
    saw_unknown = False
    for periods in multisets:
        sig = OrbifoldSignature(h, periods)
        if not rh_holds(sigma, group.order, sig):
            raise AssertionError(
                f"period list {sig} of {group.name} breaks Riemann-Hurwitz at genus {sigma}"
            )
        if not naive_product_reachable(group, h, periods):
            continue
        verdict, _ = walk_tuples(group, sig, budget)
        if verdict.is_exists:
            witness = witness_of(group.name, group.spec, sig, verdict.witness)
            return RealizabilityReport(SearchVerdict.exists(witness), ())
        if verdict.is_unknown:
            saw_unknown = True
    if saw_unknown:
        return RealizabilityReport(SearchVerdict.unknown(), ())
    return excluded(
        "exhausted-search",
        f"all {len(multisets)} feasible signatures for {group.name} searched exhaustively",
    )


def harvey_realizable(sigma: int, skel: SkeletalSignature, order: int) -> bool:
    """Whether the cyclic group of this order acts at genus sigma with skeletal signature (h, r).

    W. J. Harvey, "Cyclic groups of automorphisms of a compact Riemann
    surface", Quart. J. Math. Oxford 17 (1966): C_N acts with signature
    (h; m_1..m_r) exactly when Riemann-Hurwitz holds and, with
    M = lcm(m_1..m_r),
      (i) leaving out any one m_j keeps the lcm equal to M;
      (ii) M divides N, and M = N when h = 0;
      (iii) r != 1, and r >= 3 when h = 0;
      (iv) when M is even, the number of m_j divisible by the largest power
           of 2 dividing M is even.
    (iv) is read with M, not N.  The period lists come from
    ``fraction_period_multisets`` over the divisors found by trial division.
    """
    h, r = skel
    for periods in fraction_period_multisets(
        sigma, h, r, order, trial_division_allowed_periods(order)
    ):
        lcm = math.lcm(*periods)
        if any(math.lcm(*periods[:j], *periods[j + 1 :]) != lcm for j in range(r)):
            continue
        if order % lcm or (h == 0 and lcm != order) or r == 1 or (h == 0 and r < 3):
            continue
        two = lcm & -lcm  # the largest power of 2 dividing M
        if lcm % 2 == 0 and sum(m % two == 0 for m in periods) % 2:
            continue
        return True
    return False


def unbranched_cyclic(
    sigma: int, order: int
) -> tuple[GroupTable, OrbifoldSignature, GeneratingVector] | None:
    """Unbranched cyclic witness at ((sigma-1)/order + 1, 0), when the order divides sigma-1.

    The vector puts a generator in a_1 and identities elsewhere; all
    commutators vanish, so the product condition is trivial.
    """
    _check_genus(sigma)
    _check_order(order)
    if (sigma - 1) % order != 0:
        return None
    h = (sigma - 1) // order + 1
    group = build_cyclic(order)
    sig = OrbifoldSignature(h, ())
    vec = GeneratingVector(((1, 0),) + ((0, 0),) * (h - 1), ())
    if not check_vector(group, vec, sig).ok:
        raise AssertionError(f"unbranched cyclic vector failed for sigma={sigma}, N={order}")
    return group, sig, vec


@dataclass(frozen=True)
class VectorCheck:
    """Per-condition diagnostics for a candidate vector."""

    generates: bool
    orders_ok: tuple[bool, ...]
    product_ok: bool

    @property
    def ok(self) -> bool:
        return self.generates and all(self.orders_ok) and self.product_ok


def check_vector(group: GroupTable, vec: GeneratingVector, sig: OrbifoldSignature) -> VectorCheck:
    """All three generating-vector conditions, each evaluated in full."""
    if len(vec.a_pairs) != sig.h or len(vec.c_list) != sig.r:
        raise ValueError(
            f"vector shape ({len(vec.a_pairs)} pairs, {len(vec.c_list)} branch entries) "
            f"does not match signature {sig}"
        )
    orders_ok = tuple(
        group.element_orders[c] == n for c, n in zip(vec.c_list, sig.periods)
    )
    prod = 0
    for a, b in vec.a_pairs:
        prod = group.table[prod][group.commutator(a, b)]
    for c in vec.c_list:
        prod = group.table[prod][c]
    return VectorCheck(
        generates=group.generates([x for ab in vec.a_pairs for x in ab] + [*vec.c_list]),
        orders_ok=orders_ok,
        product_ok=prod == 0,
    )


def naive_associative(rows: Sequence[Sequence[int]]) -> bool:
    """Whether (a*b)*c == a*(b*c) for every triple of elements of a square table."""
    n = len(rows)
    return all(
        rows[rows[a][b]][c] == rows[a][rows[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def looped_dihedral_rows(n: int) -> list[list[int]]:
    """Rows of the dihedral group of order 2n, r^a s^b at a + n*b, entry by entry."""
    order = 2 * n
    rows = [[0] * order for _ in range(order)]
    for a1 in range(n):
        for b1 in range(2):
            i = a1 + n * b1
            for a2 in range(n):
                for b2 in range(2):
                    # s r = r^-1 s, so r^a1 s^b1 r^a2 s^b2 = r^(a1 +/- a2) s^(b1+b2)
                    a = (a1 - a2) % n if b1 else (a1 + a2) % n
                    rows[i][a2 + n * b2] = a + n * ((b1 + b2) % 2)
    return rows


def looped_quaternion_rows(n: int) -> list[list[int]]:
    """Rows of the dicyclic group of order 4n, x^a y^b at a + 2n*b, case by case."""
    m = 2 * n
    order = 4 * n
    rows = [[0] * order for _ in range(order)]
    for a1 in range(m):
        for b1 in range(2):
            i = a1 + m * b1
            for a2 in range(m):
                for b2 in range(2):
                    if b1 == 0:
                        a, b = (a1 + a2) % m, b2
                    elif b2 == 0:
                        a, b = (a1 - a2) % m, 1
                    else:
                        # y x^a2 y = x^(n - a2), from y^2 = x^n central
                        a, b = (a1 - a2 + n) % m, 0
                    rows[i][a2 + m * b2] = a + m * b
    return rows


def nearest_int(x: int | Fraction) -> int:
    """Nearest integer, with exact halves rounded away from zero."""
    x = Fraction(x)
    if x >= 0:
        return math.floor(x + Fraction(1, 2))
    return -math.floor(-x + Fraction(1, 2))


def order_statistics(group: GroupTable) -> tuple[tuple[int, int], ...]:
    """Sorted (element order, multiplicity) pairs: a cheap isomorphism fingerprint."""
    return tuple(sorted((k, len(gs)) for k, gs in group.elements_by_order.items()))


def save_cayley_file(group: GroupTable, path: Path | str) -> None:
    """Write the text format: ``order N`` line, optional ``name`` line, N table rows."""
    lines = [f"order {group.order}", f"name {group.name}"]
    for row in group.table:
        lines.append(" ".join(str(x) for x in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def figure_points(dataset: FigureDataset) -> list[tuple[SkeletalSignature, str]]:
    """The points of a figure dataset's rows, each with its status, in (h, r) order."""
    return [
        (SkeletalSignature(h, r), status)
        for h, runs in enumerate(dataset.rows)
        for lo, hi, status in runs
        for r in range(lo, hi + 1)
    ]


def pointwise_figure_points(
    sigma: int,
    catalog: CatalogManifest | None = None,
    max_order: int = 15,
    budget: int = DEFAULT_BUDGET,
) -> list[tuple[SkeletalSignature, str]]:
    """``figure_dataset``'s points with their statuses, by one status dict over the plane.

    Every admissible point is realized or admissible; each gap lattice point
    off its exception line is gap unless it already has a status; an
    exception-line point settled by ``analyze_point`` takes its exception
    status over any other.  The dict is then sorted.
    """
    realized = {} if catalog is None else realizable_set(sigma, catalog, max_order, budget).realized
    status = {pt: "realized" if pt in realized else "admissible" for pt in admissible_map(sigma)}
    for n in (3, 4):
        region = gap(sigma, n)
        for h, r_lo, r_hi in region.integer_rows_raw():
            line_r = region.exception_r(h)
            for r in range(r_lo, r_hi + 1):
                pt = SkeletalSignature(h, r)
                if r != line_r:
                    status.setdefault(pt, "gap")
                elif catalog is not None:
                    analysis = analyze_point(sigma, pt, catalog, budget)
                    if analysis.status == "realized":
                        status[pt] = "exception-realized"
                    elif analysis.status == "excluded":
                        status[pt] = "exception-excluded"
    return sorted(status.items())


def circle_render_figure(dataset: FigureDataset, config_note: str) -> str:
    """``svg.render_figure`` with each point drawn by its own circle call."""
    sigma = dataset.sigma
    cv = svg._Canvas(Fraction(sigma, 2) + 2, Fraction(2 * sigma + 2))

    def circle(h, r, color: str, radius: float) -> None:
        cv.add(
            f'<circle cx="{svg._fmt(cv.sx(h))}" cy="{svg._fmt(cv.sy(r))}" '
            f'r="{svg._fmt(radius)}" fill="{color}" />'
        )

    for pt, status in figure_points(dataset):
        if pt.h <= cv.h_max and pt.r <= cv.r_max and status != "gap":
            circle(pt.h, pt.r, svg.PALETTE[status], 3.0 if status == "admissible" else 4.0)
    # the points go right after the r = 1 guide, the one dashed line
    bare = svg.render_figure(dataset._replace(rows=()), config_note)
    head, guide, tail = bare.partition('stroke-dasharray="5,4" />\n')
    assert guide and tail.count("stroke-dasharray") == 0
    return head + guide + "".join(part + "\n" for part in cv.parts) + tail


def pointwise_verify_gap(
    sigma: int, order: int, catalog: CatalogManifest, budget: int = DEFAULT_BUDGET
) -> tuple[tuple[PointReport, ...], str, bool]:
    """A gap verified point by point: every lattice point's report, the conclusion, and
    whether an analysis was partial.

    Each lattice point of ``fraction_gap_points`` is tested against the
    exception line's equation; an off-line point runs the order-window loop
    and an exception-line point is analyzed, and each gets a ``PointReport``.
    """
    region = gap(sigma, order)
    e = region.exception_line
    points: list[PointReport] = []
    refuted = has_partial = False
    for pt in fraction_gap_points(region):
        if e is None or e.a * pt.h + e.b * pt.r != e.c:
            found = next(_window_lists(sigma, pt.h, pt.r), None)
            refuted = refuted or found is not None
            points.append(PointReport(pt, False, found, None))
            continue
        analysis = analyze_point(sigma, pt, catalog, budget)
        found = analysis.feasible[0] if analysis.feasible else None
        has_partial = has_partial or analysis.status == "partial"
        points.append(PointReport(pt, True, found, analysis))
    return tuple(points), "refuted" if refuted else "verified", has_partial


def report_points(report: GapReport) -> tuple[PointReport, ...]:
    """A report for every lattice point of a gap report's rows, in lattice order: each
    certified off-line point, which the report holds only as part of a row, gets one."""
    reported = {p.point: p for p in report.reports}
    return tuple(
        reported.get((h, r)) or PointReport(SkeletalSignature(h, r), False, None, None)
        for h, r_lo, r_hi in report.rows
        for r in range(r_lo, r_hi + 1)
    )


def point_report_json(report: PointReport) -> dict:
    """``PointReport.to_json`` as a dict tree, the witness of its analysis included."""
    if report.rh is None:
        rh_json = {"status": "not-exists"}
    else:
        order, periods = report.rh
        rh_json = {"status": "exists", "order": order, "periods": list(periods)}
    return {
        "point": list(report.point),
        "onExceptionLine": report.on_exception_line,
        "rh": rh_json,
        "analysis": None if report.analysis is None else point_analysis_json(report.analysis),
    }


def point_analysis_json(analysis: PointAnalysis) -> dict:
    """``PointAnalysis.to_json`` with its witness as a dict tree."""
    witness = analysis.witness
    return {**analysis.to_json(), "witness": None if witness is None else witness_json(witness)}


def vector_json(vec: GeneratingVector) -> dict:
    """``Witness.vector_json`` as a dict tree, from the vector written out."""
    return {"aPairs": list(map(list, vec.a_pairs)), "c": list(vec.c_list)}


def witness_json(witness: Witness) -> dict:
    """``Witness.to_json`` as a dict tree: a quaternion group's witness adds its words."""
    out = {
        "group": witness.group_name,
        "spec": witness.group_spec,
        "signature": {"h": witness.signature.h, "periods": list(witness.signature.periods)},
        "vector": vector_json(witness_vector(witness)),
    }
    spec, vec = witness.group_spec, witness_vector(witness)
    if spec and spec.startswith("quaternion:"):
        n = int(spec.partition(":")[2])
        out["words"] = {
            "aPairs": [[quaternion_word(n, a), quaternion_word(n, b)] for a, b in vec.a_pairs],
            "c": [quaternion_word(n, c) for c in vec.c_list],
        }
    return out
