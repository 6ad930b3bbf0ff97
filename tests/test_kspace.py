"""Admissible sets, realized subsets, gap reports, sporadic analysis, figure data."""

from collections import Counter
from pathlib import Path

import pytest

from skelsig import genvec, groups, kspace, rh
from skelsig.genvec import DEFAULT_BUDGET, RealizabilityReport
from skelsig.geometry import RationalLine, RationalPoint, gap, p_group_line
from skelsig.groups import (
    CatalogManifest,
    build_cyclic,
    build_elementary_abelian,
    bundled_catalog,
)
from skelsig.kspace import (
    admissible_map,
    analyze_point,
    figure_dataset,
    realizable_set,
    sporadic_analysis,
    verify_gap,
)
from skelsig.rh import SearchVerdict, SkeletalSignature, rh_admissible

from oracles import (
    TriangleRegion,
    all_groups_realizable_set,
    close_order_2n,
    triangle,
    triangle_points,
    walk_admissible_map,
    walk_hurwitz_range_orders,
)

S = SkeletalSignature
GOLDEN = Path(__file__).parent / "golden"


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
        # admissible_map applies no box filter: h <= sigma + 1, r <= 2*sigma + 2 holds by itself
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
        # the Hurwitz range above it asks for the divisors of the six numbers 2ab(sigma - 1)
        # and of no order
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

    def test_matches_walk_oracle(self):
        # the level bitsets against the period-list walk they replace, order list by order list
        for sigma in [*range(2, 31), 100]:
            assert admissible_map(sigma) == walk_admissible_map(sigma), sigma

    def test_hurwitz_range_orders_match_walk(self):
        # the closed form against the period-list walk of (0, 3) at every order
        # in (12(sigma - 1), 84(sigma - 1)]
        for sigma in [*range(2, 61), 100, 499]:
            got = rh.hurwitz_range_orders(sigma)
            assert got == walk_hurwitz_range_orders(sigma), sigma
            assert got[-1] == 84 * (sigma - 1)  # (0; 2, 3, 7) at Hurwitz's bound

    def test_only_0_3_is_feasible_above_12_sigma_minus_1(self):
        # the walk oracle, not the closed form, finds no other point in the Hurwitz range
        for sigma in range(2, 31):
            for pt, orders in walk_admissible_map(sigma).items():
                if pt != S(0, 3):
                    assert max(orders) <= 12 * (sigma - 1), (sigma, pt, orders)

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
            assert set(approx.realized) <= approx.admissible

    def test_witness_order_lands_in_triangle(self, catalog):
        approx = realizable_set(5, catalog, 15)
        for pt, witness in approx.realized.items():
            order = next(
                g.order for g in catalog.groups(max_order=15) if g.name == witness.group_name
            )
            assert triangle(5, order).member(RationalPoint(pt.h, pt.r))

    def test_scope_reports_coverage(self, catalog):
        approx = realizable_set(11, catalog, 15)
        assert approx.scope.total_points == len(approx.admissible)
        assert 0 < approx.scope.fully_covered_points <= approx.scope.total_points
        assert "lower bound" in approx.scope.describe()

    def test_matches_all_groups_oracle(self, catalog):
        # genus 7 leaves (1, 1) unknown at this budget, so the unknown path is compared too
        unknown_seen = False
        for sigma in range(2, 18):
            approx = realizable_set(sigma, catalog, 15, 20)
            ref = all_groups_realizable_set(sigma, catalog, 15, 20)
            assert approx.realized == ref.realized, sigma
            assert approx.scope == ref.scope, sigma
            assert approx.admissible == ref.admissible, sigma
            unknown_seen = unknown_seen or bool(approx.scope.unknown_points)
        assert unknown_seen
        assert realizable_set(7, catalog, 15, 20).scope.unknown_points == (S(1, 1),)
        assert realizable_set(7, catalog, 15).realized[S(1, 1)].group_name == "D7"

    def test_searches_only_groups_of_feasible_orders(self, catalog, monkeypatch):
        calls = []
        original = kspace.realizable

        def counted(group, sigma, skel, budget):
            calls.append((group.name, skel))
            return original(group, sigma, skel, budget)

        monkeypatch.setattr(kspace, "realizable", counted)
        approx = realizable_set(11, catalog, 15)
        # per point: the groups at its feasible orders, in (order, name) order, up to the witness
        groups = sorted(catalog.groups(max_order=15), key=lambda g: (g.order, g.name))
        expected = []
        for pt, orders in admissible_map(11).items():
            for g in groups:
                if g.order in orders:
                    expected.append((g.name, pt))
                    if pt in approx.realized and approx.realized[pt].group_name == g.name:
                        break
        assert calls == expected
        assert len(calls) == 55


class TestVerifyGap:
    def test_genus_48_order_3(self, catalog):
        report = verify_gap(48, 3, catalog)
        assert report.conclusion == "verified"
        assert S(3, 40) in {p.point for p in report.points if p.rh.is_not_exists}

    def test_genus_48_order_4_exception_analysis(self, catalog):
        report = verify_gap(48, 4, catalog)
        assert report.conclusion == "verified"
        by_point = {p.point: p for p in report.points}
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
        not_exists = {p.point for p in report.points if p.rh.is_not_exists}
        for pt in (S(3, 6), S(3, 5), S(3, 7)):
            assert pt in not_exists

    def test_rejects_order_below_three(self, catalog):
        with pytest.raises(ValueError):
            verify_gap(48, 2, catalog)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_genus_48_every_gap_verified(self, catalog, n):
        assert verify_gap(48, n, catalog).conclusion == "verified"

    def test_sweeps_each_gap_point_once(self, catalog, monkeypatch):
        # a count guard: an exception point takes its rh verdict from its analysis
        calls = []
        sweep = rh.feasible_orders

        def counted(sigma, skel):
            calls.append(skel)
            return sweep(sigma, skel)

        monkeypatch.setattr(rh, "feasible_orders", counted)
        monkeypatch.setattr(kspace, "feasible_orders", counted)
        report = verify_gap(48, 4, catalog)
        assert sorted(calls) == sorted(gap(48, 4).integer_points_raw())
        by_point = {p.point: p for p in report.points}
        assert by_point[S(8, 6)].rh == rh_admissible(48, S(8, 6))
        assert by_point[S(10, 1)].rh == rh_admissible(48, S(10, 1))

    def test_gap_atlas_matches_admissible_map(self):
        # gap n's points have h >= 2 (its corner lies at h >= 1) and lie left of the
        # apex h = 1 + (sigma - 1)/n of its lower line, so n >= sigma - 1 leaves none
        points = on_lines = 0
        for sigma in range(9, 41):
            adm = admissible_map(sigma)
            assert not gap(sigma, sigma - 1).integer_points_raw()
            for n in range(3, sigma - 1):
                region = gap(sigma, n)
                for pt in region.integer_points_raw():
                    on_line = region.on_exception_line(pt)
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
        # (10, 1) at genus 48 is feasible only at order 5; even with no
        # catalog, primality pins the group to the cyclic one
        analysis = analyze_point(48, S(10, 1), None)
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
        report = sporadic_analysis(2, [5], [], None)
        (genus_report,) = report.nonexistence
        assert genus_report.verdict == "partial"
        assert not report.complete

    def test_order_2n_case_matches_oracle(self, catalog):
        primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]
        by_catalog = 0
        for h in range(2, 6):
            report = sporadic_analysis(h, primes, [], catalog)
            for genus_report in report.nonexistence:
                case = next(c for c in genus_report.cases if c.divisor == "p")
                if case.n is None:
                    assert genus_report.verdict == "not-exists"
                    continue
                rule, _, closed, witness = close_order_2n(h, case.n, catalog, DEFAULT_BUDGET)
                assert (case.rule, case.closed, case.witness) == (rule, closed, witness)
                expected = "refuted" if witness else "not-exists" if closed else "partial"
                assert genus_report.verdict == expected, (h, genus_report.p)
                by_catalog += rule == "catalog-search"
        assert by_catalog == 8

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
        unknown = RealizabilityReport(SearchVerdict.unknown(), ())
        monkeypatch.setattr(kspace, "realizable", lambda *args: unknown)
        report = sporadic_analysis(2, [5], [], catalog)
        case = next(c for c in report.nonexistence[0].cases if c.divisor == "p")
        assert (case.rule, case.detail, case.closed) == (
            "budget-exhausted", "C2xC2: search budget exhausted", False,
        )

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

    def test_exception_statuses_with_catalog(self, catalog):
        # small budget: distant searches go unknown (left as admissible), the
        # exception-line analysis itself needs only a handful of tuples
        ds = figure_dataset(48, catalog, max_order=15, budget=2000)
        by_point = dict(ds.points)
        assert by_point[S(8, 6)] == "exception-realized"
        assert by_point[S(10, 1)] == "exception-excluded"
        assert by_point[S(3, 40)] == "gap"

    def test_with_catalog_sweeps_orders_once(self, catalog, monkeypatch):
        calls = []
        sweep = kspace.admissible_map

        def counted(*args, **kwargs):
            calls.append(args)
            return sweep(*args, **kwargs)

        monkeypatch.setattr(kspace, "admissible_map", counted)
        ds = figure_dataset(11, catalog)
        assert len(calls) == 1
        # the rows `plot --sigma 11 --with-realized --csv-sidecar` wrote when
        # the figure swept every order twice
        golden = (GOLDEN / "plot_11_realized.csv").read_text(encoding="utf-8").splitlines()
        rows = [f"{h},{r},{status}" for h, r, status in ds.to_csv_rows()]
        assert ["h,r,status", *rows] == golden

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
        assert set(built) == {e.label for e in catalog.entries if e.order <= 15}
        assert max(built.values()) == 1

    def test_degenerate_genus_2(self):
        ds = figure_dataset(2)
        assert ds.sigma == 2
        statuses = {status for _, status in ds.points}
        assert "admissible" in statuses

    def test_csv_rows_sorted(self):
        ds = figure_dataset(11)
        rows = ds.to_csv_rows()
        assert rows == sorted(rows, key=lambda t: (t[0], t[1]))
