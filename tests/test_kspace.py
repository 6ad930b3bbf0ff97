"""Admissible sets, realized subsets, gap reports, sporadic analysis, figure data."""

from collections import Counter, defaultdict
from pathlib import Path

import pytest

from skelsig import genvec, groups, kspace, rh
from skelsig.genvec import DEFAULT_BUDGET, RealizabilityReport
from skelsig.geometry import (
    GapRegion,
    RationalLine,
    RationalPoint,
    gap,
    lower_line,
    p_group_line,
)
from skelsig.groups import (
    CatalogEntry,
    CatalogManifest,
    build_cyclic,
    build_elementary_abelian,
    bundled_catalog,
)
from skelsig.kspace import (
    analyze_point,
    figure_dataset,
    realizable_set,
    sporadic_analysis,
    verify_gap,
)
from skelsig.rh import SearchVerdict, SkeletalSignature

from oracles import (
    TriangleRegion,
    admissible_map,
    all_groups_realizable_set,
    census,
    close_order_2n,
    contains,
    cut_orders,
    exception_points,
    figure_points,
    fraction_gap_points,
    full_range_feasible_orders,
    integer_points,
    integer_points_raw,
    manifest_groups,
    period_multisets,
    pointwise_figure_points,
    report_points,
    rh_admissible,
    triangle,
    triangle_points,
    walk_admissible_map,
    walk_orders,
)

S = SkeletalSignature
GOLDEN = Path(__file__).parent / "golden"


def count_sweep_calls(monkeypatch, calls):
    """Append to ``calls[name]`` the arguments of each call ``kspace`` makes to ``name``."""
    for name in ("triangle_rows", "part_sum_levels", "hurwitz_range_orders"):

        def wrapper(*args, name=name, fn=getattr(kspace, name)):
            calls[name].append(args)
            return fn(*args)

        monkeypatch.setattr(kspace, name, wrapper)


class TestAdmissible:
    def test_genus_48_markers(self):
        adm = admissible_map(48)
        assert S(8, 6) in adm
        assert S(3, 40) not in adm
        # RH arithmetic alone admits a few r = 1 points; excluding them
        # requires group theory, which is the realizability layer's job
        assert S(10, 1) in adm

    def test_genus_2_contains_hyperelliptic(self):
        assert S(0, 6) in admissible_map(2)

    def test_every_triangle_lies_in_the_fixed_box(self):
        # plane_rows applies no box filter: h <= sigma + 1, r <= 2*sigma + 2 holds by itself
        for sigma in range(2, 41):
            for n in range(2, 84 * (sigma - 1) + 1):
                for pt in triangle_points(sigma, n):
                    assert pt.h <= sigma + 1 and pt.r <= 2 * sigma + 2, (sigma, n, pt)

    def test_agrees_with_per_point_sweep(self):
        for sigma in (2, 5, 9):
            feas = admissible_map(sigma)
            box = [
                S(h, r)
                for h in range(0, sigma + 2)
                for r in range(0, 2 * sigma + 3)
                if (h, r) not in ((0, 0), (0, 1), (0, 2), (1, 0))
            ]
            for pt in box:
                direct = rh_admissible(sigma, pt)
                assert direct.is_exists == (pt in feas), (sigma, pt)
                if direct.is_exists:
                    assert direct.witness[0] == feas[pt][0]

    def test_divisors_computed_once_per_order(self, monkeypatch):
        # a count guard, not a timing gate: the sweep stops at 12(sigma - 1) and reads
        # every order's divisors from the one sieve, once per order, in ascending order;
        # the Hurwitz range above it asks for the divisors of the six numbers
        # 2ab(sigma - 1) and of no order
        expected = admissible_map(11)
        calls = []
        divisors = rh.allowed_periods

        def counted(order):
            calls.append(order)
            return divisors(order)

        swept = []
        sieve = kspace.order_parts

        def recorded(top):
            for n, parts in sieve(top):
                swept.append(n)
                yield n, parts

        monkeypatch.setattr(rh, "allowed_periods", counted)
        monkeypatch.setattr(kspace, "allowed_periods", counted, raising=False)
        monkeypatch.setattr(kspace, "order_parts", recorded)
        assert admissible_map(11) == expected
        assert swept == list(range(2, 12 * 10 + 1))
        pairs = [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5)]
        assert calls == [2 * a * b * 10 for a, b in pairs]
        # the counter is live
        calls.clear()
        rh_admissible(11, S(2, 1))
        assert calls

    def test_levels_stop_at_4_sigma_minus_1(self, monkeypatch):
        # a count guard, not a timing gate: the full sweep builds the triangle rows at
        # every order up to 12(sigma - 1) = 120, above 4(sigma - 1) = 40 as below, and
        # the level bitsets at every composite order; a prime order's points are read
        # off its cyclic line, with no levels
        expected = admissible_map(11)
        current, rows_at, levels_at = [0], [], []
        sieve, rows, levels = kspace.order_parts, kspace.triangle_rows, kspace.part_sum_levels

        def tracked(top):
            for n, parts in sieve(top):
                current[0] = n
                yield n, parts

        def counted_rows(sigma, n):
            rows_at.append(n)
            return rows(sigma, n)

        def counted_levels(*args):
            levels_at.append(current[0])
            return levels(*args)

        monkeypatch.setattr(kspace, "order_parts", tracked)
        monkeypatch.setattr(kspace, "triangle_rows", counted_rows)
        monkeypatch.setattr(kspace, "part_sum_levels", counted_levels)
        assert admissible_map(11) == expected
        assert rows_at == list(range(2, 121))
        assert levels_at == [n for n in range(4, 121) if not rh.is_prime(n)]

    def test_max_order_cut_matches_full_sweep(self):
        # the pruned sweep against the full one cut the same way, with max_order on
        # each side of 4(sigma - 1) and 12(sigma - 1), where the sweep's stretches meet
        for sigma in range(2, 151):
            full = admissible_map(sigma)
            cut, top = 4 * (sigma - 1), 12 * (sigma - 1)
            for max_order in (1, 2, 3, 5, 15, cut, cut + 1, top, top + 1):
                got = {
                    S(h, r): tuple(orders)
                    for h, row in enumerate(kspace.plane_rows(sigma, max_order))
                    for r, orders in row.items()
                }
                want = {pt: cut_orders(orders, max_order) for pt, orders in full.items()}
                assert got == want, (sigma, max_order)

    def test_orders_above_max_order_build_levels_only_for_open_rows(self, monkeypatch):
        # a count guard, not a timing gate: at genus 100 and max order 15 the full
        # sweep built the levels at all 318 composite orders up to 4(sigma - 1) and
        # swept (0, 3) and (0, 4) up to 12(sigma - 1); the pruned sweep builds them
        # 31 times and stops at 4(sigma - 1) = 396, where (0, 3) and (0, 4) have their
        # orders
        calls = defaultdict(list)
        count_sweep_calls(monkeypatch, calls)
        kspace.plane_rows(100, 15)
        assert 0 < len(calls["part_sum_levels"]) <= 40
        assert max(n for _, n in calls["triangle_rows"]) <= 396
        assert not calls["hurwitz_range_orders"]
        # the counters are live
        calls.clear()
        kspace.plane_rows(2, 15)
        assert max(n for _, n in calls["triangle_rows"]) > 4
        assert calls["hurwitz_range_orders"]

    def test_default_max_order_stops_at_4_sigma_minus_1(self, monkeypatch):
        # a count guard, not a timing gate: at the default max order 15, every genus
        # from 5 up gives (0, 3) and (0, 4) their least orders above 15 by 4(sigma - 1),
        # so the sweep builds no triangle rows above it and never reads the Hurwitz
        # range; only genus 2..4 sweep past 4(sigma - 1)
        calls = defaultdict(list)
        count_sweep_calls(monkeypatch, calls)
        for sigma in range(5, 151):
            calls.clear()
            kspace.plane_rows(sigma, kspace.DEFAULT_MAX_ORDER)
            assert max(n for _, n in calls["triangle_rows"]) <= 4 * (sigma - 1), sigma
            assert not calls["hurwitz_range_orders"], sigma

    def test_prime_orders_are_the_cyclic_line(self):
        # at a prime order p <= 4(sigma - 1) the feasible points are exactly the
        # lattice points with h, r >= 0 on 2p*h + (p - 1)*r = 2p - 2 + 2*sigma
        for sigma in [*range(2, 151), 300, 500]:
            holding = defaultdict(set)
            for pt, orders in admissible_map(sigma).items():
                for n in orders:
                    holding[n].add(pt)
            for p in range(2, 4 * (sigma - 1) + 1):
                if not rh.is_prime(p):
                    continue
                a, b, c = p_group_line(sigma, p, 1)
                on_line = {S(h, (c - a * h) // b) for h in range(c // a + 1) if (c - a * h) % b == 0}
                assert holding[p] == on_line, (sigma, p)

    def test_matches_walk_oracle(self):
        # the level bitsets against the period-list walk they replace, order list by order list
        for sigma in [*range(2, 31), 100]:
            assert admissible_map(sigma) == walk_admissible_map(sigma), sigma

    def test_hurwitz_range_orders_match_walk(self):
        # the closed form against the period-list walk of (0, 3) at every order
        # in (12(sigma - 1), 84(sigma - 1)]
        for sigma in [*range(2, 61), 100, 499]:
            got = rh.hurwitz_range_orders(sigma)
            orders = range(12 * (sigma - 1) + 1, 84 * (sigma - 1) + 1)
            assert got == walk_orders(sigma, S(0, 3), orders), sigma
            assert got[-1] == 84 * (sigma - 1)  # (0; 2, 3, 7) at Hurwitz's bound

    def test_two_part_sums_match_walk(self):
        # the orders of (0, 3) and (0, 4) in (4(sigma - 1), 12(sigma - 1)], where the
        # level bitsets of the row h = 0 alone decide them, against the period-list walk
        # at each such order; the keys come in sorted order, as realizable_set reads them
        for sigma in [*range(2, 151), 300, 500]:
            feas = admissible_map(sigma)
            assert list(feas) == sorted(feas), sigma
            orders = range(4 * (sigma - 1) + 1, 12 * (sigma - 1) + 1)
            for pt in (S(0, 3), S(0, 4)):
                got = [n for n in feas[pt] if n in orders]
                assert got == walk_orders(sigma, pt, orders), (sigma, pt)

    def test_only_0_3_is_feasible_above_12_sigma_minus_1(self):
        # the walk oracle, not the closed form, finds no other point in the Hurwitz range
        for sigma in range(2, 31):
            for pt, orders in walk_admissible_map(sigma).items():
                if pt != S(0, 3):
                    assert max(orders) <= 12 * (sigma - 1), (sigma, pt, orders)

    def test_only_0_3_and_0_4_are_feasible_above_4_sigma_minus_1(self):
        # the walk oracle, not the level bitsets, checks the lemma of plane_rows that only
        # (0, 3) and (0, 4) are feasible above 4(sigma - 1), and that every list there
        # starts with two periods 2 for (0, 4) and with a period of at most 5 for (0, 3)
        for sigma in range(2, 41):
            cut = 4 * (sigma - 1)
            for pt, orders in walk_admissible_map(sigma).items():
                above = [n for n in orders if n > cut]
                if pt not in (S(0, 3), S(0, 4)):
                    assert not above, (sigma, pt, above)
                for n in above:
                    lists = list(period_multisets(sigma, pt.h, pt.r, n, rh.allowed_periods(n)))
                    assert lists, (sigma, pt, n)
                    for periods in lists:
                        if pt == S(0, 4):
                            assert periods[:2] == (2, 2), (sigma, n, periods)
                        else:
                            assert periods[0] <= 5, (sigma, n, periods)

    def test_makes_no_period_multisets_call(self, monkeypatch):
        # a count guard, not a timing gate: existence needs no period list
        expected = admissible_map(11)
        calls = []
        walk = rh._period_lists

        def counted(*args):
            calls.append(args)
            return walk(*args)

        # the walk counted as rh holds it and under any name kspace might import it by
        monkeypatch.setattr(rh, "_period_lists", counted)
        monkeypatch.setattr(kspace, "_period_lists", counted, raising=False)
        assert admissible_map(11) == expected
        assert calls == []
        # the counter is live
        rh_admissible(11, S(2, 1))
        assert calls

    def test_builds_no_triangle_region_or_line(self, monkeypatch):
        # a count guard, not a timing gate: each order's triangle is enumerated
        # from its integer coefficients, with no region, line or point built
        expected = admissible_map(11)
        made = Counter()
        # the oracles' TriangleRegion is a dataclass, built in __init__; the
        # library's records are NamedTuples, built in __new__
        for cls, hook in ((TriangleRegion, "__init__"), (RationalLine, "__new__"),
                          (RationalPoint, "__new__")):

            def counted(*args, _make=getattr(cls, hook), _name=cls.__name__, **kwargs):
                made[_name] += 1
                return _make(*args, **kwargs)

            monkeypatch.setattr(cls, hook, counted)
        assert admissible_map(11) == expected
        assert made == Counter()
        # the counters are live
        triangle(11, 3)
        assert made["TriangleRegion"] == 1 and made["RationalLine"] == 2

    def test_every_feasible_order_lands_in_its_triangle(self):
        feas = admissible_map(11)
        for pt, orders in feas.items():
            for n in orders:
                assert triangle(11, n).member(RationalPoint(pt.h, pt.r))


class TestCensus:
    def test_every_non_admissible_point_is_classified(self):
        # above the order-3 upper line, in a raw gap strip, or in the closed triangle of
        # an order that admits no period list there: nothing else, at sigma 9..40
        kinds: Counter = Counter()
        low: Counter = Counter()
        for sigma in range(9, 41):
            lo = lower_line(sigma, 3)
            for pt, where in census(sigma).items():
                assert where is not None, (sigma, pt)
                kind, orders = where
                kinds[kind] += 1
                assert (kind == "a") == (orders == ()), (sigma, pt, where)
                if kind == "b":
                    assert all(pt in integer_points_raw(gap(sigma, n)) for n in orders)
                if kind == "c":
                    assert all(pt in triangle_points(sigma, n) for n in orders), (sigma, pt)
                    assert all(
                        pt not in triangle_points(sigma, n)
                        for n in (orders[0] - 1, orders[-1] + 1)
                        if n >= 2
                    ), (sigma, pt)
                    if lo.a * pt.h + lo.b * pt.r <= lo.c:
                        low[min(pt.r, 3)] += 1
        assert kinds == {"a": 6211, "b": 1313, "c": 1426}
        # the holes on or under the order-3 lower line, by r = 1, 2 and r >= 3
        assert low == {1: 5, 2: 5, 3: 2}


def _prime(n):
    return n > 1 and all(n % d for d in range(2, n))


class TestGroupsCovering:
    def test_bundled_catalog(self, catalog):
        for order in range(1, 61):
            found, complete = catalog.covering(order)
            names = [g.name for g in found]
            if order <= 15:
                assert names == [e.label for e in catalog.entries if e.order == order], order
                assert complete, order
            elif _prime(order):
                assert (names, complete) == ([f"C{order}"], True), order
                assert found[0].table == build_cyclic(order).table
            else:
                assert (names, complete) == ([], False), order

    def test_without_catalog(self):
        # an empty manifest: only the prime-order rule covers an order
        for order in range(1, 61):
            found, complete = CatalogManifest(()).covering(order)
            expected = [f"C{order}"] if _prime(order) else []
            assert ([g.name for g in found], complete) == (expected, _prime(order)), order

    def test_custom_manifest(self):
        # order 6 is incomplete, and the order-7 entry is searched under its own label
        catalog = CatalogManifest((
            CatalogEntry(7, "cyclic:7", "Z7", False),
            CatalogEntry(6, "dihedral:3", "S3", False),
            CatalogEntry(4, "cyclic:4", "C4", True),
            CatalogEntry(4, "elab:2^2", "C2xC2", True),
        ))
        for order in range(1, 61):
            found, complete = catalog.covering(order)
            names = [g.name for g in found]
            if order == 4:
                assert (names, complete) == (["C2xC2", "C4"], True)
            elif order == 6:
                assert (names, complete) == (["S3"], False)
            elif order == 7:
                assert (names, complete) == (["Z7"], True)
                assert found[0].spec == "cyclic:7"
            elif _prime(order):
                assert (names, complete) == ([f"C{order}"], True), order
            else:
                assert (names, complete) == ([], False), order

    def test_each_order_is_built_once_per_manifest(self, catalog, monkeypatch):
        cyclic, specs = Counter(), Counter()
        build_cyclic, build_from_spec = groups.build_cyclic, groups.build_from_spec

        def counted_cyclic(n):
            cyclic[n] += 1
            return build_cyclic(n)

        def counted_spec(spec, **kwargs):
            if "name" in kwargs:  # a catalog entry; a product's factors have no name
                specs[kwargs["name"]] += 1
            return build_from_spec(spec, **kwargs)

        monkeypatch.setattr(groups, "build_cyclic", counted_cyclic)
        monkeypatch.setattr(groups, "build_from_spec", counted_spec)
        manifests = [CatalogManifest(catalog.entries) for _ in range(2)]
        for manifest in manifests:
            for order in (12, 17, 16):
                first = manifest.covering(order)
                assert manifest.covering(order) is first and type(first[0]) is tuple
        # each order-12 entry and C17 once per manifest; the uncatalogued order 16 builds nothing
        assert specs == Counter({e.label: 2 for e in catalog.entries if e.order == 12})
        assert cyclic[17] == 2 and 16 not in cyclic
        assert manifests[0].covering(17)[0][0] is not manifests[1].covering(17)[0][0]


class TestRealizableSet:
    def test_small_genus_witnesses(self, catalog):
        approx = realizable_set(3, catalog, 4)
        assert S(1, 2) in approx.realized
        assert approx.realized[S(1, 2)].group_name in ("C3", "C4", "C2xC2")

    def test_genus_2_hyperelliptic(self, catalog):
        approx = realizable_set(2, catalog, 15)
        assert S(0, 6) in approx.realized

    def test_genus_11_quaternion_point(self, catalog):
        approx = realizable_set(11, catalog, 15)
        assert S(2, 1) in approx.realized
        witness = approx.realized[S(2, 1)]
        assert witness.signature.r == 1

    def test_realized_subset_of_admissible(self, catalog):
        for sigma in (2, 5, 11):
            approx = realizable_set(sigma, catalog, 15)
            assert all(r in approx.plane[h] for h, r in approx.realized), sigma

    def test_witness_order_lands_in_triangle(self, catalog):
        approx = realizable_set(5, catalog, 15)
        for pt, witness in approx.realized.items():
            order = next(
                g.order
                for g in manifest_groups(catalog, max_order=15)
                if g.name == witness.group_name
            )
            assert triangle(5, order).member(RationalPoint(pt.h, pt.r))

    def test_scope_reports_coverage(self, catalog):
        approx = realizable_set(11, catalog, 15)
        assert approx.scope.total_points == sum(map(len, approx.plane))
        assert 0 < approx.scope.fully_covered_points <= approx.scope.total_points
        assert "lower bound" in approx.scope.describe()

    def test_matches_all_groups_oracle(self, catalog):
        # genus 7 leaves (1, 1) unknown at this budget, so the unknown path is compared too;
        # above 15 the bundled catalog has no groups, and only the prime orders are searched
        for max_order in (15, 40):
            unknown_seen = False
            for sigma in [*range(2, 61), 150]:
                approx = realizable_set(sigma, catalog, max_order, 20)
                ref = all_groups_realizable_set(sigma, catalog, max_order, 20)
                assert approx.realized == ref.realized, (sigma, max_order)
                assert approx.scope == ref.scope, (sigma, max_order)
                assert approx.plane == ref.plane, sigma
                unknown_seen = unknown_seen or bool(approx.scope.unknown_points)
            assert unknown_seen, max_order
        assert realizable_set(7, catalog, 15, 20).scope.unknown_points == (S(1, 1),)
        assert realizable_set(7, catalog, 15).realized[S(1, 1)].group_name == "D7"

    def test_raising_max_order_keeps_every_witness(self, catalog, realized_at_40):
        # so the witness sweeps of test_cli and test_genvec read max order 40 alone
        kept = 0
        for sigma, realized in realized_at_40.items():
            for point, witness in realizable_set(sigma, catalog, 15).realized.items():
                assert realized.get(point) == witness, (sigma, point)
                kept += 1
        assert (kept, sum(map(len, realized_at_40.values()))) == (12_623, 12_702)

    def test_searches_only_groups_of_feasible_orders(self, catalog, monkeypatch):
        calls = []
        original = kspace.realizable

        def counted(group, sigma, skel, budget):
            calls.append((group.name, skel))
            return original(group, sigma, skel, budget)

        monkeypatch.setattr(kspace, "realizable", counted)
        approx = realizable_set(11, catalog, 15)
        # per point: the groups at its feasible orders, in (order, name) order, up to the witness
        groups = sorted(manifest_groups(catalog, max_order=15), key=lambda g: (g.order, g.name))
        expected = []
        for pt, orders in admissible_map(11).items():
            for g in groups:
                if g.order in orders:
                    expected.append((g.name, pt))
                    if pt in approx.realized and approx.realized[pt].group_name == g.name:
                        break
        assert calls == expected
        assert len(calls) == 55

    def test_maps_are_in_sorted_point_order(self, catalog):
        # cmd_kspace writes both maps as they are, so its output relies on this order
        for sigma, max_order in ((11, 15), (48, 15), (48, 100)):
            approx = realizable_set(sigma, catalog, max_order, 2000)
            assert len(approx.plane) == (sigma + 3) // 2
            for row in approx.plane:
                assert list(row) == sorted(row), (sigma, max_order)
            assert list(approx.realized) == sorted(approx.realized), (sigma, max_order)
            assert approx.realized


class TestVerifyGap:
    def test_genus_48_order_3(self, catalog):
        report = verify_gap(48, 3, catalog)
        assert report.conclusion == "verified"
        assert S(3, 40) in {p.point for p in report_points(report) if p.rh is None}

    def test_genus_48_order_4_exception_analysis(self, catalog):
        report = verify_gap(48, 4, catalog)
        assert report.conclusion == "verified"
        by_point = {p.point: p for p in report_points(report)}
        exc = sorted(pt for pt, rep in by_point.items() if rep.on_exception_line)
        assert exc == [S(8, 6), S(10, 1)]
        realized = by_point[S(8, 6)].analysis
        assert realized.status == "realized"
        assert realized.witness.group_name == "C5"
        excluded = by_point[S(10, 1)].analysis
        assert excluded.status == "excluded"
        assert {r.rule for r in excluded.reasons} == {"abelian-r1", "cyclic-forced"}

    def test_genus_20_missing_points_appear(self, catalog):
        report = verify_gap(20, 4, catalog)
        assert report.conclusion == "verified"
        not_exists = {p.point for p in report_points(report) if p.rh is None}
        for pt in (S(3, 6), S(3, 5), S(3, 7)):
            assert pt in not_exists

    def test_rejects_order_below_three(self, catalog):
        with pytest.raises(ValueError):
            verify_gap(48, 2, catalog)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_genus_48_every_gap_verified(self, catalog, n):
        assert verify_gap(48, n, catalog).conclusion == "verified"

    def test_sweeps_each_gap_point_once(self, catalog, monkeypatch):
        # a count guard: an off-line point runs the order-window loop once, and
        # only an exception point reaches feasible_orders, through its analysis,
        # which also gives its rh verdict
        loops, sweeps = [], []
        loop, sweep = kspace._window_lists, kspace.feasible_orders

        def counted_loop(sigma, h, r):
            loops.append(S(h, r))
            return loop(sigma, h, r)

        def counted_sweep(sigma, skel):
            sweeps.append(skel)
            return sweep(sigma, skel)

        monkeypatch.setattr(kspace, "_window_lists", counted_loop)
        monkeypatch.setattr(kspace, "feasible_orders", counted_sweep)
        report = verify_gap(48, 4, catalog)
        region = gap(48, 4)
        assert loops == integer_points(region) and sweeps == exception_points(region)
        assert len(loops) > 20 and len(sweeps) >= 1
        by_point = {p.point: p for p in report_points(report)}
        assert by_point[S(8, 6)].rh == rh_admissible(48, S(8, 6)).witness
        assert by_point[S(10, 1)].rh == rh_admissible(48, S(10, 1)).witness

    def test_a_feasible_off_line_point_refutes(self, catalog, monkeypatch):
        # no gap point is feasible, so a planted witness stands in for one, mid-gap
        off_line = integer_points(gap(48, 4))
        planted = off_line[len(off_line) // 2]
        loop = kspace._window_lists

        def planting(sigma, h, r):
            if S(h, r) == planted:
                return iter([(5, (5,) * r)])
            return loop(sigma, h, r)

        monkeypatch.setattr(kspace, "_window_lists", planting)
        report = verify_gap(48, 4, catalog)
        assert report.conclusion == "refuted"
        assert [
            p.point for p in report_points(report) if p.rh is not None and not p.on_exception_line
        ] == [planted]

    def test_a_partial_exception_point_marks_the_report(self, catalog, monkeypatch):
        # the catalog settles both exception points, (8, 6) and then (10, 1); a
        # planted partial analysis of the first stands in for one it cannot settle
        analyze = kspace.analyze_point

        def planting(sigma, skel, catalog, budget):
            analysis = analyze(sigma, skel, catalog, budget)
            return analysis._replace(status="partial") if skel == S(8, 6) else analysis

        monkeypatch.setattr(kspace, "analyze_point", planting)
        report = verify_gap(48, 4, catalog)
        assert report.has_partial and report.conclusion == "verified"

    def test_off_line_verdicts_match_full_range_sweep(self):
        # the order-window loop against trying every order 2..order_bound with
        # trial-division periods, at every gap point off the exception line
        seen = 0
        for sigma in range(9, 73):
            for n in range(3, sigma - 1):
                for p in report_points(verify_gap(sigma, n, CatalogManifest(()))):
                    if p.on_exception_line:
                        continue
                    first = next(full_range_feasible_orders(sigma, p.point), None)
                    assert p.rh == first, (sigma, n, p.point)
                    seen += 1
        assert seen == 9077

    def test_gap_atlas_matches_admissible_map(self):
        # gap n's points have h >= 2 (its corner lies at h >= 1) and lie left of the
        # apex h = 1 + (sigma - 1)/n of its lower line, so n >= sigma - 1 leaves none
        points = on_lines = 0
        for sigma in range(9, 41):
            adm = admissible_map(sigma)
            assert not integer_points_raw(gap(sigma, sigma - 1))
            for n in range(3, sigma - 1):
                region = gap(sigma, n)
                for pt in integer_points_raw(region):
                    on_line = pt.r == region.exception_r(pt.h)
                    assert (pt in adm) == on_line, (sigma, n, pt)
                    points += 1
                    on_lines += on_line
        assert (points, on_lines) == (1457, 60)


class TestAnalyzePoint:
    def test_point_with_no_orders(self, catalog):
        analysis = analyze_point(48, S(20, 1), catalog)
        assert analysis.status == "excluded"
        assert analysis.reasons[0].rule == "arithmetic"

    def test_prime_order_closed_without_catalog_entry(self):
        # (10, 1) at genus 48 is feasible only at order 5; even with an empty
        # catalog, primality pins the group to the cyclic one
        analysis = analyze_point(48, S(10, 1), CatalogManifest(()))
        assert analysis.status == "excluded"
        assert {r.rule for r in analysis.reasons} == {"abelian-r1", "cyclic-forced"}

    def test_genus_8_h2_candidate_excluded_by_group_layer(self, catalog):
        # (2, 1) at genus 8 lies on the order-5 cyclic line and satisfies
        # Riemann-Hurwitz via (2; 5), but the order-5 group is cyclic, hence
        # abelian, and cannot carry a single branch point
        assert rh_admissible(8, S(2, 1)).is_exists
        analysis = analyze_point(8, S(2, 1), catalog)
        assert analysis.status == "excluded"
        assert {r.rule for r in analysis.reasons} == {"abelian-r1", "cyclic-forced"}

    def test_incomplete_coverage_gives_partial(self, catalog):
        # (2, 1) at genus 48 needs order 32, beyond catalog completeness
        analysis = analyze_point(48, S(2, 1), catalog)
        assert analysis.status == "partial"
        assert any(n == 32 for n, _ in analysis.feasible)

    def test_incomplete_order_is_searched_but_never_closed(self):
        # (0, 5) at genus 2 is feasible only at order 4, flagged incomplete here:
        # C2xC2 realizes it, and C4 alone leaves it partial, never excluded
        def with_order_4(spec, label):
            return CatalogManifest((CatalogEntry(4, spec, label, False),))

        analysis = analyze_point(2, S(0, 5), with_order_4("elab:2^2", "C2xC2"))
        assert (analysis.status, analysis.witness.group_name) == ("realized", "C2xC2")
        assert analyze_point(2, S(0, 5), with_order_4("cyclic:4", "C4")).status == "partial"

    def test_budget_hit_gives_partial_not_excluded(self, catalog):
        # (2, 1) at genus 11: the r = 1 rule leaves D4 and Q8 to search; both
        # run out of a small budget, and D4 finds its vector at a large one
        assert analyze_point(11, S(2, 1), catalog, 10).status == "partial"
        analysis = analyze_point(11, S(2, 1), catalog, 10**6)
        assert analysis.status == "realized"
        assert analysis.witness.group_name == "D4"

    def test_product_filter_excludes_without_search(self, catalog):
        # (2, 2) at genus 17 is feasible only at order 9: C3^2 has no period
        # list, and C9 is abelian, so branch entries of orders 3 and 9 cannot
        # multiply to e; no search runs at budget 0
        analysis = analyze_point(17, S(2, 2), catalog, 0)
        assert analysis.status == "excluded"
        assert [r.to_json() for r in analysis.reasons] == [
            {
                "rule": "arithmetic",
                "scope": "no period multiset over element orders of C3^2 "
                "satisfies Riemann-Hurwitz at genus 17",
            },
            {
                "rule": "product-unreachable",
                "scope": "no branch entries of orders (3, 9) in C9 multiply to the "
                "inverse of a product of 2 commutators",
            },
        ]

    def test_r1_rule_closes_non_abelian_groups(self, catalog):
        # (2, 1) at genus 12 is feasible only at order 8, with period 4: C2^3 has
        # no element of order 4, and in D4 and Q8 every element of order 4 lies
        # outside the commutator products {e, x^2}; no search runs at budget 0
        analysis = analyze_point(12, S(2, 1), catalog, 0)
        assert analysis.status == "excluded"
        assert [r.rule for r in analysis.reasons] == [
            "arithmetic", "abelian-r1", "abelian-r1", "commutator-r1", "commutator-r1",
        ]

    def test_cyclic_forced_is_the_r1_part_one(self):
        # at r = 1 the one period list is (N,) exactly when T = N(2h - 1) - 2(sigma - 1) is 1;
        # the decider names cyclic-forced at those orders alone, with no group to search
        class NoGroups:
            def covering(self, order):
                return (), False

        forced = 0
        for sigma in range(2, 201):
            for pt in admissible_map(sigma):
                if pt.r != 1:
                    continue
                feasible = list(rh.feasible_orders(sigma, pt))
                ones = [n for n, _ in feasible if n * (2 * pt.h - 1) - 2 * (sigma - 1) == 1]
                assert ones == [n for n, periods in feasible if periods == (n,)], (sigma, pt)
                _, _, excluded, closed = kspace._decide(
                    sigma, pt, [n for n, _ in feasible], NoGroups(), 0
                )
                assert [r.scope.split(":")[0] for _, r in excluded] == [f"order {n}" for n in ones]
                assert closed == (len(ones) == len(feasible))
                forced += len(ones)
        assert forced


class TestSporadic:
    def test_pure_arithmetic_exclusion(self, catalog):
        report = sporadic_analysis(2, [3], [], catalog)
        (genus_report,) = report.nonexistence
        assert genus_report.verdict == "not-exists"
        assert all(c.rule in ("forces-h1", "arithmetic") for c in genus_report.cases)

    def test_order_4_case(self, catalog):
        report = sporadic_analysis(2, [5], [], catalog)
        (genus_report,) = report.nonexistence
        assert genus_report.verdict == "not-exists"
        case_p = next(c for c in genus_report.cases if c.divisor == "p")
        assert case_p.n == 2 and case_p.group_order == 4
        assert "abelian" in case_p.detail

    def test_order_12_case(self, catalog):
        report = sporadic_analysis(2, [17], [], catalog)
        (genus_report,) = report.nonexistence
        assert genus_report.verdict == "not-exists"
        case_p = next(c for c in genus_report.cases if c.divisor == "p")
        assert case_p.group_order == 12

    def test_cyclic_forced_case(self, catalog):
        report = sporadic_analysis(3, [7], [], catalog)
        (genus_report,) = report.nonexistence
        case_2p = next(c for c in genus_report.cases if c.divisor == "2p")
        assert case_2p.rule == "cyclic-forced" and case_2p.n == 3

    def test_witnesses(self, catalog):
        # 2n(2(h-1)+1) - 1 at h = 2: n = 2 gives 11, n = 3 gives 17
        report = sporadic_analysis(2, [3], [2, 3], catalog)
        assert [w.genus for w in report.witnesses] == [11, 17]
        assert all(w.verified for w in report.witnesses)
        assert report.complete

    def test_incomplete_catalog_is_loud(self):
        # without catalog coverage the |G| = 2n case cannot be closed
        report = sporadic_analysis(2, [5], [], CatalogManifest(()))
        (genus_report,) = report.nonexistence
        assert genus_report.verdict == "partial"
        assert not report.complete

    def test_order_2n_case_matches_oracle(self, catalog):
        # with every flag cleared, each order's groups are still searched, but no order
        # 2n is closed
        unflagged = CatalogManifest(tuple(e._replace(complete=False) for e in catalog.entries))
        primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]
        for manifest, closed_by_catalog in ((catalog, 8), (unflagged, 0)):
            by_catalog = 0
            for h in range(2, 6):
                report = sporadic_analysis(h, primes, [], manifest)
                for genus_report in report.nonexistence:
                    case = next(c for c in genus_report.cases if c.divisor == "p")
                    if case.n is None:
                        assert genus_report.verdict == "not-exists"
                        continue
                    rule, _, closed, witness = close_order_2n(h, case.n, manifest, DEFAULT_BUDGET)
                    assert (case.rule, case.closed, case.witness) == (rule, closed, witness)
                    expected = "refuted" if witness else "not-exists" if closed else "partial"
                    assert genus_report.verdict == expected, (h, genus_report.p)
                    by_catalog += rule == "catalog-search"
            assert by_catalog == closed_by_catalog

    def test_order_2n_case_makes_no_direct_search(self, catalog, monkeypatch):
        assert not hasattr(kspace, "search") and not hasattr(kspace, "commutator_products")
        inside = []
        realized = []
        searches = []
        original_realizable, original_search = kspace.realizable, genvec.search

        def counted_realizable(group, *args):
            realized.append(group.name)
            inside.append(group.name)
            try:
                return original_realizable(group, *args)
            finally:
                inside.pop()

        def counted_search(group, *args):
            searches.append(bool(inside))
            return original_search(group, *args)

        monkeypatch.setattr(kspace, "realizable", counted_realizable)
        monkeypatch.setattr(genvec, "search", counted_search)
        sporadic_analysis(2, [5, 11, 17], [], catalog)
        assert realized == [
            "C2xC2", "C4",
            "C2^3", "C4xC2", "C8", "D4", "Q8",
            "A4", "C12", "C2xC6", "D6", "Dic3",
        ]
        assert all(searches)

    def test_order_2n_budget_hit_names_the_group(self, catalog, monkeypatch):
        # with the order's flag cleared as well, an incomplete order outranks the budget
        unknown = RealizabilityReport(SearchVerdict.unknown(), ())
        monkeypatch.setattr(kspace, "realizable", lambda *args: unknown)
        unflagged = CatalogManifest(tuple(e._replace(complete=False) for e in catalog.entries))
        for manifest, expected in (
            (catalog, ("budget-exhausted", "C2xC2: search budget exhausted", False)),
            (unflagged, (
                "catalog-incomplete",
                "need all groups of order 4, catalog coverage incomplete there",
                False,
            )),
        ):
            report = sporadic_analysis(2, [5], [], manifest)
            case = next(c for c in report.nonexistence[0].cases if c.divisor == "p")
            assert (case.rule, case.detail, case.closed) == expected

    def test_validation(self, catalog):
        with pytest.raises(ValueError):
            sporadic_analysis(1, [3], [], catalog)
        with pytest.raises(ValueError):
            sporadic_analysis(2, [9], [], catalog)


class TestFigureDataset:
    def test_line_bundle_names(self):
        ds = figure_dataset(48)
        assert [name for name, _ in ds.lines] == [
            "hyperelliptic", "lower-3", "upper-4", "lower-4", "upper-6", "cyclic-5",
        ]
        assert ds.lines[0][1] == p_group_line(48, 2, 1)

    def test_gap_regions(self):
        ds = figure_dataset(48)
        assert [g.lower_index for g in ds.gaps] == [3, 4]

    def test_gap_statuses_match_the_fraction_walk(self):
        # with no catalog, a point is drawn as gap exactly when the Fraction walk puts it
        # off the exception line in the order-3/4 or order-4/6 strip and it is not
        # admissible; a point on the exception line keeps its admissible status
        drawn = on_lines = 0
        for sigma in range(2, 121):
            ds = figure_dataset(sigma)
            adm = admissible_map(sigma)
            off_line, on_line = set(), set()
            for n in (3, 4):
                region = gap(sigma, n)
                exc = region.exception_line
                for pt in fraction_gap_points(region):
                    on = exc is not None and contains(exc, RationalPoint(pt.h, pt.r))
                    (on_line if on else off_line).add(pt)
            status = dict(figure_points(ds))
            gap_points = {pt for pt, s in status.items() if s == "gap"}
            assert gap_points == off_line - adm.keys(), sigma
            assert {status[pt] for pt in on_line} <= {"admissible"}, sigma
            drawn += len(gap_points)
            on_lines += len(on_line)
        assert (drawn, on_lines) == (37_228, 322)

    def test_exception_statuses_with_catalog(self, catalog):
        # small budget: distant searches go unknown (left as admissible), the
        # exception-line analysis itself needs only a handful of tuples
        ds = figure_dataset(48, catalog, max_order=15, budget=2000)
        by_point = dict(figure_points(ds))
        assert by_point[S(8, 6)] == "exception-realized"
        assert by_point[S(10, 1)] == "exception-excluded"
        assert by_point[S(3, 40)] == "gap"

    def test_with_catalog_sweeps_orders_once(self, catalog, monkeypatch):
        calls = []
        sweep = kspace.plane_rows

        def counted(*args, **kwargs):
            calls.append(args)
            return sweep(*args, **kwargs)

        monkeypatch.setattr(kspace, "plane_rows", counted)
        ds = figure_dataset(11, catalog)
        assert len(calls) == 1
        # the rows `plot --sigma 11 --with-realized --csv-sidecar` wrote when
        # the figure swept every order twice
        golden = (GOLDEN / "plot_11_realized.csv").read_text(encoding="utf-8").splitlines()
        rows = [f"{h},{r},{status}" for (h, r), status in figure_points(ds)]
        assert ["h,r,status", *rows] == golden

    def test_with_catalog_walks_each_gap_once(self, catalog, monkeypatch):
        # each gap's rows are walked once, and its exception points are
        # analysed in their lattice order, region by region
        walked, analysed = [], []
        walk, analyze = GapRegion.integer_rows_raw, kspace.analyze_point

        def counted_walk(region):
            walked.append(region.lower_index)
            return walk(region)

        def recorded(sigma, pt, *args):
            analysed.append(pt)
            return analyze(sigma, pt, *args)

        monkeypatch.setattr(GapRegion, "integer_rows_raw", counted_walk)
        monkeypatch.setattr(kspace, "analyze_point", recorded)
        ds = figure_dataset(48, catalog, max_order=15, budget=2000)
        assert walked == [3, 4]
        monkeypatch.undo()
        assert analysed == [pt for region in ds.gaps for pt in exception_points(region)]
        assert len(analysed) == 2

    def test_with_catalog_builds_each_table_once(self, monkeypatch):
        # a count guard: catalog entries are built with their label as name,
        # product factors without one
        built = Counter()
        build = groups.build_from_spec

        def counted(spec, **kwargs):
            built[kwargs.get("name")] += 1
            return build(spec, **kwargs)

        monkeypatch.setattr(groups, "build_from_spec", counted)
        # a fresh manifest: the shared bundled one may hold tables other tests built
        catalog = CatalogManifest(bundled_catalog().entries)
        figure_dataset(48, catalog, max_order=15, budget=2000)
        built.pop(None, None)
        # order 1 is never a feasible order, so C1 is never built
        assert set(built) == {e.label for e in catalog.entries if 2 <= e.order <= 15}
        assert max(built.values()) == 1

    def test_every_point_lies_in_the_plot_box(self, catalog):
        # svg.render_figure indexes its grid columns 0..(sigma + 4)//2 and rows
        # 0..2*sigma + 2 by a point's h and r without a box test
        for sigma, cat in [*((sigma, None) for sigma in range(2, 201)), (48, catalog)]:
            for (h, r), _ in figure_points(figure_dataset(sigma, cat)):
                assert 0 <= 2 * h <= sigma + 4 and 0 <= r <= 2 * sigma + 2, (sigma, h, r)

    def test_degenerate_genus_2(self):
        ds = figure_dataset(2)
        assert ds.sigma == 2
        statuses = {status for _, status in figure_points(ds)}
        assert "admissible" in statuses

    def test_csv_rows_sorted(self, catalog):
        # each row's runs are sorted, disjoint and maximal: a run that starts right
        # after another has another status
        for ds in [*map(figure_dataset, range(2, 61)), figure_dataset(48, catalog, budget=2000)]:
            for h, runs in enumerate(ds.rows):
                for (_, hi, status), (lo, _, next_status) in zip(runs, runs[1:]):
                    assert hi < lo and (hi + 1 < lo or status != next_status), (ds.sigma, h)
                assert all(lo <= hi for lo, hi, _ in runs), (ds.sigma, h)

    def test_rows_match_the_pointwise_reference(self):
        for sigma in range(2, 151):
            assert figure_points(figure_dataset(sigma)) == pointwise_figure_points(sigma), sigma

    def test_rows_match_the_pointwise_reference_with_catalog(self, catalog):
        drawn = set()
        for sigma in range(2, 41):
            expected = pointwise_figure_points(sigma, catalog, budget=500)
            assert figure_points(figure_dataset(sigma, catalog, budget=500)) == expected, sigma
            drawn.update(status for _, status in expected)
        assert drawn == {
            "admissible", "realized", "gap", "exception-realized", "exception-excluded",
        }
