"""Riemann-Hurwitz arithmetic: frozen examples, oracles, and exactness properties."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    admissible_map,
    fraction_period_multisets,
    fraction_triangle_points,
    full_range_feasible_orders,
    integer_points,
    integer_points_raw,
    manifest_groups,
    order_bound,
    period_multisets,
    rh_admissible,
    trial_division_allowed_periods,
    triangle,
    triangle_orders,
    triangle_points,
)
from skelsig import rh
from skelsig.geometry import RationalPoint, gap
from skelsig.rh import (
    HyperbolicityError,
    OrbifoldSignature,
    SkeletalSignature,
    allowed_periods,
    feasible_orders,
    order_parts,
    part_sum_levels,
    rh_genus,
    rh_holds,
)

S = SkeletalSignature


class TestRhGenus:
    def test_quaternion_family_base_case(self):
        assert rh_genus(8, OrbifoldSignature(2, (2,))) == 11

    def test_unbranched_double_cover(self):
        for hq in range(2, 20):
            assert rh_genus(2, OrbifoldSignature(hq, ())) == 2 * hq - 1

    def test_genus_48_cyclic_five(self):
        assert rh_genus(5, OrbifoldSignature(8, (5,) * 6)) == 48

    def test_returns_exact_fraction(self):
        # 1 + 8*(2 - 1 + 1/2 - 1/6) = 1 + 8*4/3
        g = rh_genus(8, OrbifoldSignature(2, (3,)))
        assert isinstance(g, Fraction)
        assert g == Fraction(35, 3)

    def test_adversarial_large_periods_exact(self):
        n = 10**6
        g = rh_genus(n, OrbifoldSignature(0, (n, n, n)))
        # sigma - 1 = n(-1 + (3/2)(1 - 1/n)) = n/2 - 3/2
        assert g == Fraction(n, 2) - Fraction(1, 2)
        assert isinstance(g, Fraction)

    def test_signature_validation(self):
        with pytest.raises(ValueError):
            OrbifoldSignature(-1, ())
        with pytest.raises(ValueError):
            OrbifoldSignature(0, (1,))
        # the first period below 2 is named, not the least
        with pytest.raises(ValueError, match=r"^branching periods must be >= 2, got 1$"):
            OrbifoldSignature(0, (3, 1, 0))
        # a period of 2 before the bad one is valid and is not named
        with pytest.raises(ValueError, match=r"^branching periods must be >= 2, got 1$"):
            OrbifoldSignature(0, (2, 1))


class TestRhHolds:
    def test_examples(self):
        assert rh_holds(48, 5, OrbifoldSignature(8, (5,) * 6))
        assert rh_holds(2, 2, OrbifoldSignature(0, (2,) * 6))
        assert not rh_holds(11, 8, OrbifoldSignature(2, (3,)))

    def test_rejects_small_genus(self):
        with pytest.raises(ValueError):
            rh_holds(1, 2, OrbifoldSignature(1, ()))


def brute_force_period_lists(sigma, h, r, order, allowed):
    """Independent oracle: every non-decreasing tuple over ``allowed`` that Riemann-Hurwitz accepts.

    ``combinations_with_replacement`` over an ascending list yields the
    tuples in lexicographic order.
    """
    return [
        periods
        for periods in itertools.combinations_with_replacement(sorted(allowed), r)
        if rh_genus(order, OrbifoldSignature(h, periods)) == sigma
    ]


class TestAllowedPeriods:
    def test_matches_trial_division(self):
        # 5040, 7560 and 8316 = 84 * 99 are highly composite or the h = 0 cap at genus 100
        for order in itertools.chain(range(2, 3001), (5040, 7560, 8316)):
            assert allowed_periods(order) == trial_division_allowed_periods(order), order

    def test_each_call_returns_a_fresh_list(self):
        # the divisors are cached: a caller that edits its list must not edit the cache's
        first = allowed_periods(12)
        first.append(99)
        first[0] = 0
        again = allowed_periods(12)
        assert again == [2, 3, 4, 6, 12] and again is not allowed_periods(12)


class TestIsPrime:
    def test_matches_a_sieve(self):
        composite = set()
        for d in range(2, 3001):
            composite.update(range(2 * d, 3001, d))
        for n in range(-3, 3001):
            assert rh.is_prime(n) == (n >= 2 and n not in composite), n

    def test_callers_keep_their_messages(self, catalog):
        from skelsig.geometry import p_group_line
        from skelsig.groups import build_elementary_abelian
        from skelsig.kspace import sporadic_analysis

        with pytest.raises(ValueError, match=r"^p must be prime, got 4$"):
            p_group_line(48, 4, 1)
        with pytest.raises(ValueError, match=r"^p must be prime, got 1$"):
            build_elementary_abelian(1, 2)
        for p in (2, 9, -7):
            with pytest.raises(ValueError, match=rf"^p must be an odd prime, got {p}$"):
                sporadic_analysis(2, [p], [], catalog)


class TestOrderParts:
    @pytest.mark.parametrize("top", [2, 3, 8316])
    def test_matches_trial_division(self, top):
        # 8316 = 84 * 99 is the h = 0 cap at genus 100: every order of that sweep
        assert list(order_parts(top)) == [
            (n, [n // p for p in trial_division_allowed_periods(n)]) for n in range(2, top + 1)
        ]

    @pytest.mark.parametrize("top", [-1, 0, 1])
    def test_empty_below_two(self, top):
        assert list(order_parts(top)) == []

    @pytest.mark.parametrize("lo, top", [(2, 2), (3, 3), (5, 12), (37, 108), (397, 1188), (13, 12)])
    def test_from_lo_is_the_tail(self, lo, top):
        # (397, 1188) is the stretch (4(sigma - 1), 12(sigma - 1)] at genus 100
        assert list(order_parts(top, lo)) == list(order_parts(top))[lo - 2 :]


def first_list(sigma, h, r, order):
    """The first period list of the walk over the order's divisors, or None."""
    return next(period_multisets(sigma, h, r, order, allowed_periods(order)), None)


class TestPeriodFeasible:
    def test_figure_point(self):
        assert first_list(48, 8, 6, 5) == (5,) * 6

    def test_impossible_point(self):
        assert first_list(4, 2, 1, 2) is None

    def test_hyperelliptic(self):
        assert first_list(2, 0, 6, 2) == (2,) * 6

    def test_canonical_order(self):
        # reciprocals of five divisors of 12 summing to 1, e.g. 1/2+1/4+3*(1/12)
        first = first_list(13, 0, 5, 12)
        assert first is not None
        assert list(first) == sorted(first)

    def test_matches_brute_force_oracle(self):
        # the witness is the lexicographically first list, not just any list
        for sigma in range(2, 12):
            for order in range(2, 9):
                for h in range(0, 4):
                    for r in range(0, 6):
                        got = first_list(sigma, h, r, order)
                        lists = brute_force_period_lists(
                            sigma, h, r, order, allowed_periods(order)
                        )
                        assert got == (lists[0] if lists else None), (sigma, order, h, r)

    def test_divisor_box_subset_of_loose_box(self):
        for sigma in range(2, 20):
            for order in range(2, 13):
                loose_box = list(range(2, order + 1))
                for h in range(0, 3):
                    for r in range(0, 5):
                        if first_list(sigma, h, r, order) is not None:
                            loose = fraction_period_multisets(sigma, h, r, order, loose_box)
                            assert next(loose, None) is not None

    @given(
        sigma=st.integers(2, 30),
        order=st.integers(2, 20),
        h=st.integers(0, 5),
        r=st.integers(0, 8),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip_exactness(self, sigma, order, h, r):
        first = first_list(sigma, h, r, order)
        if first is not None:
            sig = OrbifoldSignature(h, first)
            assert rh_holds(sigma, order, sig)
            assert len(first) == r
            assert all(2 <= n <= order and order % n == 0 for n in first)


class TestPeriodMultisets:
    def test_matches_brute_force_enumeration(self):
        # all lists, in order, over the divisors of N, over the divisors
        # short of N itself (a non-cyclic group's element orders), and over
        # nothing (the trivial group); order 1 is the trivial group
        seen_r0 = seen_empty = seen_several = 0
        for order in range(1, 13):
            divisors = [d for d in range(2, order + 1) if order % d == 0]
            for allowed in (divisors, divisors[:-1], []):
                for sigma in range(2, 9):
                    for h in range(0, 4):
                        for r in range(0, 6):
                            got = list(period_multisets(sigma, h, r, order, allowed))
                            expected = brute_force_period_lists(sigma, h, r, order, allowed)
                            assert got == expected, (sigma, h, r, order, allowed)
                            seen_r0 += r == 0 and got == [()]
                            seen_empty += not allowed and got == [()]
                            seen_several += len(got) > 1
        assert seen_r0 and seen_empty and seen_several

    def test_first_list_matches_fraction_oracle_genus_11(self):
        sigma = 11
        found = 0
        for order in range(2, 84 * (sigma - 1) + 1):
            allowed = allowed_periods(order)
            for pt in triangle(sigma, order).integer_points():
                got = next(period_multisets(sigma, pt.h, pt.r, order, allowed), None)
                expected = next(
                    fraction_period_multisets(sigma, pt.h, pt.r, order, allowed), None
                )
                assert got == expected, (order, pt)
                found += got is not None
        assert found > 100

    def test_trusted_walk_matches_checked_entry(self):
        # the walk that feasible_orders and realizable call on their own sorted
        # divisor lists, against the entry that sorts, dedupes and checks, fed
        # the same divisors reversed and repeated, and against the Fraction walk
        seen = 0
        for sigma in range(2, 31):
            for order in range(2, 25):
                divisors = allowed_periods(order)
                for allowed in (divisors, divisors[:-1]):
                    for h in range(0, 4):
                        for r in range(0, 7):
                            got = [
                                rh._expand_runs(zip(allowed, counts))
                                for counts in rh._period_lists(sigma, h, r, order, allowed)
                            ]
                            scrambled = allowed[::-1] + allowed
                            assert got == list(period_multisets(sigma, h, r, order, scrambled))
                            expected = list(fraction_period_multisets(sigma, h, r, order, allowed))
                            assert got == expected, (sigma, h, r, order, allowed)
                            seen += len(got)
        assert seen > 1000

    def test_count_walk_matches_fraction_walk(self, catalog):
        # the lists and their order, against the branch-and-bound over exact reciprocal
        # sums: each count vector has one count per allowed period, summing to r, and
        # the vectors expand to the Fraction walk's lists in its order
        def same(sigma, h, r, order, allowed):
            got = []
            for counts in rh._period_lists(sigma, h, r, order, allowed):
                assert len(counts) == len(allowed) and sum(counts) == r, counts
                got.append(rh._expand_runs(zip(allowed, counts)))
            assert got == list(fraction_period_multisets(sigma, h, r, order, allowed)), (
                sigma, h, r, order, allowed,
            )
            return len(got)

        seen = 0
        for sigma in range(2, 17):
            for order in range(2, 41):
                allowed = allowed_periods(order)
                for h in range(0, sigma + 2):
                    for r in range(0, 2 * sigma + 3):
                        seen += same(sigma, h, r, order, allowed)
        assert seen > 2000
        groups = manifest_groups(catalog)
        for sigma in (24, 48):
            for pt, orders in admissible_map(sigma).items():
                for g in groups:
                    if g.order in orders:
                        element_orders = sorted(k for k in g.elements_by_order if k >= 2)
                        seen += same(sigma, pt.h, pt.r, g.order, element_orders)
        assert seen > 4000
        # 55440 has 119 divisors >= 2, so the walk goes 119 periods deep
        args = (661, 0, 3, 55440, allowed_periods(55440))
        assert same(*args) == 1 and list(fraction_period_multisets(*args)) == [(2, 3, 7)]

    def test_unsorted_and_repeated_periods(self):
        assert list(period_multisets(7, 1, 3, 6, [6, 2, 3, 2])) == [(2, 3, 6), (3, 3, 3)]

    def test_rejects_period_not_dividing_order(self):
        with pytest.raises(ValueError):
            next(period_multisets(7, 1, 3, 6, [2, 4]))

    def test_branch_count_beyond_recursion_limit(self):
        # the order-2 point (0, 2*sigma + 2) has 1002 branch points at genus 500
        assert list(period_multisets(500, 0, 1002, 2, [2])) == [(2,) * 1002]
        assert list(period_multisets(500, 0, 1001, 2, [2])) == []


class TestPartSumLevels:
    def test_matches_brute_force_sums(self):
        for parts in ([1], [3, 1], [6, 3, 2, 1], [4, 2], [5]):
            for count in range(0, 5):
                for top in (0, 3, 9, 20):
                    levels = part_sum_levels(parts, count, top)
                    assert len(levels) == count + 1
                    for k, level in enumerate(levels):
                        sums = {sum(c) for c in itertools.combinations_with_replacement(parts, k)}
                        bits = {t for t in range(level.bit_length()) if level >> t & 1}
                        assert bits == {t for t in sums if t <= top}, (parts, count, top, k)

    def test_genus_500_orders_2_and_3(self):
        # both orders are prime, so the only part is 1 and T must equal r
        sigma = 500
        for order in (2, 3):
            points = triangle_points(sigma, order)
            totals = [order * (2 * pt.h - 2 + pt.r) - 2 * (sigma - 1) for pt in points]
            parts = [order // n for n in allowed_periods(order)]
            assert parts == [1]
            levels = part_sum_levels(parts, max(pt.r for pt in points), max(totals))
            feasible = set()
            for pt, t in zip(points, totals):
                bit = bool(levels[pt.r] >> t & 1)
                assert bit == (t == pt.r), (order, pt)
                assert bit == (next(period_multisets(sigma, *pt, order, [order]), None) is not None)
                if bit:
                    feasible.add(pt)
            assert (S(0, 1002) in feasible) == (order == 2)


class TestOrderBound:
    def test_examples(self):
        assert order_bound(48, S(2, 28)) == 47
        assert order_bound(10, S(1, 4)) == 36
        assert order_bound(3, S(0, 5)) == 168

    @pytest.mark.parametrize("skel", [(0, 0), (0, 1), (0, 2), (1, 0)])
    def test_rejects_non_hyperbolic(self, skel):
        with pytest.raises(HyperbolicityError):
            order_bound(5, S(*skel))

    def test_bound_is_sound(self):
        # no feasible order may exceed the stated bound
        for sigma in range(2, 16):
            for h in range(0, 4):
                for r in range(0, 7):
                    if (h, r) in ((0, 0), (0, 1), (0, 2), (1, 0)):
                        continue
                    bound = order_bound(sigma, S(h, r))
                    for order in range(bound + 1, bound + 30):
                        assert first_list(sigma, h, r, order) is None

    def test_every_raw_gap_point_passes(self):
        # verify_gap runs the order-window loop on raw gap points without
        # checking them again; this shows the check it skips would pass
        seen = on_lines = 0
        for sigma in range(3, 151):
            for n in range(3, sigma + 1):
                region = gap(sigma, n)
                for pt in integer_points_raw(region):
                    assert type(pt.h) is int and type(pt.r) is int, (sigma, n, pt)
                    assert order_bound(sigma, pt) == sigma - 1, (sigma, n, pt)  # h >= 2
                    seen += 1
                    on_lines += pt.r == region.exception_r(pt.h)
        assert (seen, on_lines) == (88167, 814)


class TestOrderWindow:
    def test_matches_triangle_orders_on_the_box(self):
        for sigma in range(2, 41):
            for h in range(0, sigma + 2):
                for r in range(0, 2 * sigma + 3):
                    window = tuple(rh._order_window(sigma, h, r))
                    if (h, r) in ((0, 0), (0, 1), (0, 2), (1, 0)):
                        assert window == (), (sigma, h, r)
                        continue
                    assert window == triangle_orders(sigma, S(h, r)), (sigma, h, r)

    def test_holds_the_orders_whose_triangle_holds_the_point(self):
        # the geometry, order by order: each order's closed triangle, built from its
        # two lines, lists its lattice points, and a point's window holds the orders
        # up to order_bound whose triangle lists it
        for sigma in range(2, 13):
            box = [
                S(h, r)
                for h in range(0, sigma + 2)
                for r in range(0, 2 * sigma + 3)
                if (h, r) not in ((0, 0), (0, 1), (0, 2), (1, 0))
            ]
            bounds = {pt: order_bound(sigma, pt) for pt in box}
            holding = {pt: [] for pt in box}
            for n in range(2, max(bounds.values()) + 1):
                for pt in fraction_triangle_points(triangle(sigma, n)):
                    if pt in holding and n <= bounds[pt]:
                        holding[pt].append(n)
            for pt in box:
                assert list(rh._order_window(sigma, *pt)) == holding[pt], (sigma, pt)


class TestRhAdmissible:
    def test_gap_point_excluded(self):
        assert rh_admissible(48, S(3, 40)).is_not_exists

    def test_quaternion_genus_point(self):
        v = rh_admissible(11, S(2, 1))
        assert v.is_exists
        order, periods = v.witness
        assert rh_holds(11, order, OrbifoldSignature(2, periods))
        # smallest feasible order wins: the order-7 cyclic arithmetic beats order 8
        assert order == 7 and periods == (7,)

    def test_oracle_consistency_double_loop(self):
        # admissible <=> some order at most the bound admits a period list
        for sigma in range(2, 12):
            for h in range(0, 4):
                for r in range(0, 6):
                    if (h, r) in ((0, 0), (0, 1), (0, 2), (1, 0)):
                        continue
                    direct = rh_admissible(sigma, S(h, r))
                    swept = [
                        order
                        for order in range(2, order_bound(sigma, S(h, r)) + 1)
                        if first_list(sigma, h, r, order) is not None
                    ]
                    assert direct.is_exists == bool(swept)
                    if swept:
                        assert direct.witness[0] == swept[0]

    def test_feasible_orders_match_full_range_sweep_on_the_plane(self):
        for sigma in range(2, 13):
            for h in range(0, sigma + 2):
                for r in range(0, 2 * sigma + 3):
                    if (h, r) in ((0, 0), (0, 1), (0, 2), (1, 0)):
                        with pytest.raises(HyperbolicityError):
                            list(feasible_orders(sigma, S(h, r)))
                        continue
                    got = list(feasible_orders(sigma, S(h, r)))
                    assert got == list(full_range_feasible_orders(sigma, S(h, r))), (sigma, h, r)

    def test_feasible_orders_match_full_range_sweep_on_gap_points(self):
        seen = 0
        for sigma in range(9, 41):
            for n in (3, 4):
                for pt in integer_points_raw(gap(sigma, n)):
                    got = list(feasible_orders(sigma, pt))
                    assert got == list(full_range_feasible_orders(sigma, pt)), (sigma, n, pt)
                    seen += 1
        assert seen > 1000

    def test_gap_points_sweep_only_the_orders_whose_triangle_holds_them(self, monkeypatch):
        # a count guard, not a timing gate: each order outside the point's triangle
        # interval must cost no walk, so most gap points make no walk at all
        calls = []
        walk = rh._period_lists

        def counted(sigma, h, r, order, allowed):
            calls.append(order)
            return walk(sigma, h, r, order, allowed)

        monkeypatch.setattr(rh, "_period_lists", counted)
        region = gap(48, 4)
        silent = 0
        for pt in integer_points(region):
            calls.clear()
            assert rh_admissible(48, pt).is_not_exists
            holding = [
                n
                for n in range(2, order_bound(48, pt) + 1)
                if triangle(48, n).member(RationalPoint(pt.h, pt.r))
            ]
            assert calls == holding, pt
            silent += not calls
        assert silent > 20

    def test_feasible_orders_ascending(self):
        orders = [n for n, _ in feasible_orders(20, S(1, 2))]
        assert orders == sorted(orders)

    def test_verdict_stability(self):
        # re-running yields identical witnesses (deterministic enumeration)
        for _ in range(3):
            v = rh_admissible(30, S(2, 6))
            assert v == rh_admissible(30, S(2, 6))
