"""Generating vectors: verification oracle, search vs naive enumeration, witnesses."""

import functools
import itertools
import os
from collections import Counter
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    GeneratingVector,
    admissible_map,
    check_vector,
    eager_realizable,
    expanded,
    fraction_period_multisets,
    harvey_realizable,
    manifest_groups,
    mask_elements,
    naive_product_reachable,
    naive_search,
    period_multisets,
    unbranched_cyclic,
    walk_tuples,
    witness_of,
    witness_vector,
)
from skelsig import genvec
from skelsig.genvec import (
    DEFAULT_BUDGET,
    SearchVerdict,
    Witness,
    product_reachable,
    quaternion_vector,
    realizable,
    search,
    verify,
)
from skelsig.groups import (
    build_cyclic,
    build_dihedral,
    build_elementary_abelian,
    build_from_spec,
    build_generalized_quaternion,
    bundled_catalog,
)
from skelsig.kspace import realizable_set, sporadic_analysis
from skelsig.rh import (
    OrbifoldSignature,
    SkeletalSignature,
    _period_lists,
    rh_genus,
    rh_holds,
)

Sig = OrbifoldSignature
S = SkeletalSignature


@pytest.fixture
def counted(monkeypatch):
    """Count vectors drawn from the walk and ``product_reachable`` calls made inside genvec."""
    counts = Counter()
    walk, reachable = genvec._period_lists, genvec.product_reachable

    def counted_walk(*args):
        for vector in walk(*args):
            counts["drawn"] += 1
            yield vector

    def counted_reachable(*args):
        counts["calls"] += 1
        return reachable(*args)

    monkeypatch.setattr(genvec, "_period_lists", counted_walk)
    monkeypatch.setattr(genvec, "product_reachable", counted_reachable)
    return counts


@st.composite
def vectors(draw):
    """A catalog group of order <= 12, a vector of arbitrary elements with h <= 2 and r <= 3, a signature.

    Half the time the last branch entry is chosen to satisfy condition (3),
    each period is the entry's own order or any order in 2..12, and a quarter
    of the period lists are drawn apart from the vector, so their length may
    not match it.  The signature's h is the vector's, as a witness's is.
    """
    group = draw(st.sampled_from(manifest_groups(bundled_catalog(), max_order=12)))
    element = st.integers(0, group.order - 1)
    h, r = draw(st.integers(0, 2)), draw(st.integers(0, 3))
    pairs = tuple(draw(st.tuples(element, element)) for _ in range(h))
    c_list = [draw(element) for _ in range(r)]
    if c_list and draw(st.booleans()):
        prod = 0
        for a, b in pairs:
            prod = group.table[prod][group.commutator(a, b)]
        for c in c_list[:-1]:
            prod = group.table[prod][c]
        c_list[-1] = group.inverse[prod]
    periods = [
        draw(st.sampled_from((max(2, group.element_orders[c]), draw(st.integers(2, 12)))))
        for c in c_list
    ]
    if draw(st.integers(0, 3)) == 0:
        periods = draw(st.lists(st.integers(2, 12), max_size=3))
    return group, GeneratingVector(pairs, tuple(c_list)), Sig(h, tuple(periods))


def written(group, sig, pairs, c):
    """The witness of a vector written out: ``sig``'s periods, the ``pairs`` and entries ``c``."""
    return witness_of(group.name, group.spec, sig, GeneratingVector(pairs, c))


class TestVerify:
    def test_c2_two_branch_points(self):
        c2 = build_cyclic(2)
        assert verify(c2, written(c2, Sig(0, (2, 2)), (), (1, 1)))

    def test_q8_paper_vector(self):
        # (x, y, e, e, x^2): [x,y] = x^-2 cancels c_1 = x^2 exactly
        q8 = build_generalized_quaternion(2)
        assert verify(q8, written(q8, Sig(2, (2,)), ((1, 4), (0, 0)), (2,)))

    def test_c5_exponent_family(self):
        c5 = build_cyclic(5)
        # c exponents (1,1,1,1,2,4) sum to 10 = 0 mod 5; any generating a-pair works
        pairs = ((1, 0),) + ((0, 0),) * 7
        assert verify(c5, written(c5, Sig(8, (5,) * 6), pairs, (1, 1, 1, 1, 2, 4)))

    def test_wrong_order_and_broken_product(self):
        # c_1 = 1 has order 4, not 2, and [1, 0] * 1 = 1 is not e; the entries generate C4
        c4 = build_cyclic(4)
        assert not verify(c4, written(c4, Sig(1, (2,)), ((1, 0),), (1,)))

    def test_length_mismatch(self):
        c2 = build_cyclic(2)
        with pytest.raises(ValueError):
            verify(c2, written(c2, Sig(0, (2, 2)), (), (1,)))
        # the counts differ, though each list holds one run
        with pytest.raises(ValueError, match="does not match signature"):
            verify(c2, Witness(c2.name, c2.spec, ((2, 3),), (), ((1, 2),)))

    @settings(max_examples=300, deadline=None)
    @given(vectors())
    @example((build_generalized_quaternion(2), GeneratingVector(((1, 4), (0, 0)), (2,)), Sig(2, (2,))))
    @example((build_cyclic(4), GeneratingVector(((1, 0),), (1,)), Sig(1, (2,))))
    @example((build_cyclic(2), GeneratingVector((), (1,)), Sig(0, (2, 2))))
    def test_matches_the_full_check(self, case):
        # the early-exit verify on runs agrees with all three conditions evaluated in full
        group, vec, sig = case
        witness = witness_of(group.name, group.spec, sig, vec)
        try:
            expected = check_vector(group, vec, sig).ok
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                verify(group, witness)
            assert str(got.value) == str(exc)
        else:
            assert verify(group, witness) == expected


@functools.cache
def small_witnesses() -> list[tuple]:
    """(group, witness) for every witness of ``realizable_set`` at genus 2..12, orders up to 12."""
    catalog = bundled_catalog()
    groups = {g.name: g for g in manifest_groups(catalog)}
    return [
        (groups[w.group_name], w)
        for sigma in range(2, 13)
        for w in realizable_set(sigma, catalog, 12).realized.values()
    ]


def swapped(group, witness, field: str, i: int, x: int):
    """``witness`` with run ``i`` of its pairs (its a_i) or entries made ``x``, its count kept."""
    runs = list(getattr(witness, field))
    value, count = runs[i]
    runs[i] = ((x, value[1]) if field == "pairs" else x, count)
    return witness._replace(**{field: tuple(runs)})


@st.composite
def swapped_witnesses(draw):
    """A witness of ``small_witnesses`` with one run's element swapped for any element."""
    group, witness = draw(st.sampled_from(small_witnesses()))
    field = draw(st.sampled_from([f for f in ("pairs", "entries") if getattr(witness, f)]))
    i = draw(st.integers(0, len(getattr(witness, field)) - 1))
    return group, swapped(group, witness, field, i, draw(st.integers(0, group.order - 1)))


def first_failure(group, witness) -> str:
    """The first of the three conditions, in ``verify``'s order, that the full check fails."""
    check = check_vector(group, witness_vector(witness), witness.signature)
    for name, ok in (("orders", all(check.orders_ok)), ("product", check.product_ok),
                     ("generation", check.generates)):
        if not ok:
            return name
    return "none"


class TestVerifyRuns:
    """``verify`` on a witness's runs against ``check_vector`` on its vector written out."""

    def test_realized_witnesses(self, catalog, realized_at_40):
        # above order 15 the witnesses come from C_p, built on demand
        groups = {g.name: g for g in manifest_groups(catalog)}
        seen = 0
        for realized in realized_at_40.values():
            for witness in realized.values():
                group = groups.get(witness.group_name) or build_from_spec(witness.group_spec)
                assert first_failure(group, witness) == "none", witness
                assert verify(group, witness), witness
                seen += 1
        assert seen > 5000

    def test_sporadic_witnesses(self, catalog):
        witnesses = []
        for h in (2, 3, 4):
            report = sporadic_analysis(h, [3, 5, 7, 11, 13, 17, 19], range(2, 9), catalog)
            witnesses += [w.witness for w in report.witnesses]
            witnesses += [c.witness for g in report.nonexistence for c in g.cases if c.witness]
        assert len(witnesses) == 21
        for witness in witnesses:
            group = build_from_spec(witness.group_spec)
            assert first_failure(group, witness) == "none", witness
            assert verify(group, witness), witness

    @settings(max_examples=500, deadline=None)
    @given(swapped_witnesses())
    def test_swapped_runs(self, case):
        group, witness = case
        assert verify(group, witness) == (first_failure(group, witness) == "none")

    def test_every_single_swap_at_small_genus(self):
        # each check is the first to fail somewhere, so each is exercised on its own
        failures = Counter()
        for group, witness in small_witnesses():
            for field in ("pairs", "entries"):
                for i in range(len(getattr(witness, field))):
                    for x in range(group.order):
                        w = swapped(group, witness, field, i, x)
                        failure = first_failure(group, w)
                        assert verify(group, w) == (failure == "none"), w
                        failures[failure] += 1
        assert all(failures[k] > 20 for k in ("none", "orders", "product", "generation")), failures

    def test_million_branch_entries_verify_by_their_runs(self):
        # C2 acts with signature (0; 2, ..., 2) for an even number of branch points only
        group = build_cyclic(2)
        even = Witness(group.name, group.spec, ((2, 10**6),), (), ((1, 10**6),))
        odd = Witness(group.name, group.spec, ((2, 10**6 - 1),), (), ((1, 10**6 - 1),))
        verify(group, even)  # build the group's cached tables before measuring
        tracemalloc.start()
        try:
            results = verify(group, even), verify(group, odd)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert results == (True, False)
        assert first_failure(group, odd) == "product"
        assert peak < 1_000_000


class TestSearch:
    def test_abelian_single_branch_point(self):
        assert search(build_cyclic(4), Sig(1, (2,))).is_not_exists

    def test_q8_exists(self):
        v = search(build_generalized_quaternion(2), Sig(2, (2,)))
        assert v.is_exists and v.witness.signature == Sig(2, (2,))
        assert verify(build_generalized_quaternion(2), v.witness)

    def test_c5_figure_point(self):
        v = search(build_cyclic(5), Sig(8, (5,) * 6))
        assert v.is_exists

    def test_every_witness_verifies(self):
        groups = [build_cyclic(6), build_dihedral(3), build_generalized_quaternion(2)]
        sigs = [Sig(0, (2, 2, 2, 2)), Sig(1, (2,)), Sig(1, (3, 3)), Sig(2, ())]
        for g in groups:
            for sig in sigs:
                v = search(g, sig)
                if v.is_exists:
                    assert v.witness.signature == sig and verify(g, v.witness)

    def test_budget_yields_unknown(self):
        # Q8 realizes (2; 2), so only the budget stops the search short
        g = build_generalized_quaternion(2)
        assert search(g, Sig(2, (2,)), budget=3).is_unknown
        assert search(g, Sig(2, (2,))).is_exists

    def test_no_elements_of_required_order(self):
        assert search(build_cyclic(4), Sig(0, (3, 3, 3))).is_not_exists

    def test_sphere_with_one_branch_point_impossible(self):
        assert search(build_dihedral(3), Sig(0, (2,))).is_not_exists

    def test_unbranched_trivial_quotient(self):
        # (0;) is only realized by the trivial group
        assert search(build_cyclic(1), Sig(0, ())).is_exists
        assert search(build_cyclic(3), Sig(0, ())).is_not_exists

    def test_matches_naive_oracle_spot_checks(self):
        cases = [
            (build_cyclic(4), Sig(1, (2,))),
            (build_cyclic(4), Sig(1, (2, 2))),
            (build_cyclic(5), Sig(0, (5, 5, 5))),
            (build_dihedral(3), Sig(0, (2, 2, 3, 3))),
            (build_dihedral(3), Sig(1, (3,))),
            (build_generalized_quaternion(2), Sig(1, (4,))),
            (build_elementary_abelian(2, 2), Sig(1, (2, 2))),
        ]
        for g, sig in cases:
            assert search(g, sig).status == naive_search(g, sig).status, (g.name, str(sig))

    def test_matches_naive_oracle_on_catalog(self, catalog_groups):
        # verdict and witness on every period list up to r = 3 over each group's
        # element orders; where the product filter fires, no vector exists at all
        fired = 0
        for g in catalog_groups:
            if g.order > 12:
                continue
            element_orders = sorted({k for k in g.element_orders if k >= 2})
            for h in (0, 1):
                for r in range(4):
                    for periods in itertools.combinations_with_replacement(element_orders, r):
                        sig = Sig(h, periods)
                        expected = naive_search(g, sig)
                        assert expanded(search(g, sig)) == expected, (g.name, str(sig))
                        if not product_reachable(g, h, ((n, 1) for n in periods)):
                            fired += 1
                            assert expected.is_not_exists, (g.name, str(sig))
        assert fired > 100

    def test_product_filter_needs_no_enumeration(self):
        # C10 is abelian, so c_1 c_2 = e forces equal periods; the certificate
        # walks none of the 10^10 a-tuples of h = 5
        assert search(build_cyclic(10), Sig(5, (2, 10)), budget=0).is_not_exists
        assert not product_reachable(build_cyclic(10), 5, ((2, 1), (10, 1)))

    def test_determinism(self):
        g = build_dihedral(4)
        first = search(g, Sig(1, (2, 2)))
        assert first == search(g, Sig(1, (2, 2)))


class TestQuaternionVector:
    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_verifies_and_genus_formula(self, n, h):
        group, witness = quaternion_vector(n, h)
        assert group.order == 4 * n and witness.signature == Sig(h, (n,))
        assert verify(group, witness)
        assert check_vector(group, witness_vector(witness), witness.signature).ok
        assert rh_genus(group.order, witness.signature) == 2 * n * (2 * (h - 1) + 1) - 1

    def test_examples(self):
        _, witness = quaternion_vector(2, 2)
        assert rh_genus(8, witness.signature) == 11
        _, witness = quaternion_vector(3, 1)
        assert rh_genus(12, witness.signature) == 5
        _, witness = quaternion_vector(5, 4)
        assert rh_genus(20, witness.signature) == 69

    def test_branch_entry_order(self):
        group, witness = quaternion_vector(3, 1)
        assert [group.element_orders[c] for c, _ in witness.entries] == [3]

    def test_validation(self):
        with pytest.raises(ValueError):
            quaternion_vector(1, 2)
        with pytest.raises(ValueError):
            quaternion_vector(2, 0)


class TestRealizable:
    def test_c5_figure_point(self):
        rep = realizable(build_cyclic(5), 48, S(8, 6))
        assert rep.verdict.is_exists
        assert rep.verdict.witness.signature.periods == (5,) * 6

    def test_branch_count_beyond_recursion_limit(self):
        # 1002 branch points of period 2: deeper than Python's default recursion limit
        rep = realizable(build_cyclic(2), 500, S(0, 1002))
        assert rep.verdict.is_exists
        assert rep.verdict.witness.signature.periods == (2,) * 1002

    def test_c5_exception_excluded(self):
        rep = realizable(build_cyclic(5), 48, S(10, 1))
        assert rep.verdict.is_not_exists
        assert any(r.rule == "abelian-r1" for r in rep.exclusion_reasons)

    def test_abelian_single_branch_always_excluded(self):
        for g in (build_cyclic(6), build_elementary_abelian(3, 2)):
            for h in (1, 2, 3):
                sigma = rh_genus(g.order, Sig(h, (3,)))
                if sigma.denominator == 1 and sigma >= 2:
                    rep = realizable(g, int(sigma), S(h, 1))
                    assert rep.verdict.is_not_exists

    def test_r1_rule_names(self):
        rep = realizable(build_cyclic(5), 8, S(2, 1))
        assert [r.to_json() for r in rep.exclusion_reasons] == [{
            "rule": "abelian-r1",
            "scope": "C5 is abelian and a single branch entry of order >= 2 "
            "cannot be a product of commutators",
        }]
        rep = realizable(build_generalized_quaternion(2), 12, S(2, 1))
        assert [r.to_json() for r in rep.exclusion_reasons] == [{
            "rule": "commutator-r1",
            "scope": "no element of order 4 in Q8 is a product of 2 commutators, "
            "as a single branch entry must be",
        }]

    def test_r1_rule_agrees_with_naive_search(self, catalog_groups):
        # wherever the r = 1 rule closes a group, no vector exists at all
        fired = Counter()
        for g in catalog_groups:
            if g.order > 12:
                continue
            for h in (1, 2):
                for n in sorted({k for k in g.element_orders if k >= 2}):
                    sigma = rh_genus(g.order, Sig(h, (n,)))
                    if sigma.denominator != 1 or sigma < 2:
                        continue
                    rep = realizable(g, int(sigma), S(h, 1), 0)
                    rules = {r.rule for r in rep.exclusion_reasons}
                    if rules & {"abelian-r1", "commutator-r1"}:
                        fired.update(rules)
                        assert naive_search(g, Sig(h, (n,))).is_not_exists, (g.name, h, n)
        assert fired["abelian-r1"] and fired["commutator-r1"]

    def test_arithmetic_reason(self):
        rep = realizable(build_cyclic(2), 48, S(10, 1))
        assert rep.verdict.is_not_exists
        assert rep.exclusion_reasons[0].rule == "arithmetic"

    def test_feasible_multisets_complete(self):
        # independent cross-check against direct filtering
        allowed = [2, 3, 6]
        got = set(period_multisets(7, 1, 3, 6, allowed))
        expected = {
            ms
            for ms in itertools.combinations_with_replacement(allowed, 3)
            if rh_holds(7, 6, Sig(1, ms))
        }
        assert got == expected == {(2, 3, 6), (3, 3, 3)}

    def test_period_lists_match_fraction_oracle_on_catalog(self, catalog_groups):
        # the lists realizable tries, over every catalog group's element orders
        nonempty = 0
        for g in catalog_groups:
            element_orders = sorted({k for k in g.element_orders if k >= 2})
            for sigma in range(2, 12):
                for h in range(0, 4):
                    for r in range(0, 7):
                        got = list(period_multisets(sigma, h, r, g.order, element_orders))
                        expected = list(
                            fraction_period_multisets(sigma, h, r, g.order, element_orders)
                        )
                        assert got == expected, (g.name, sigma, h, r)
                        nonempty += bool(got)
        assert nonempty > 100

    def test_matches_eager_oracle_on_catalog(self, catalog_groups):
        # verdict, witness and reasons agree with the three-pass form at every
        # admissible point whose feasible orders include the group's order
        rules = Counter()
        for sigma in range(2, 31):
            for pt, orders in admissible_map(sigma).items():
                for g in catalog_groups:
                    if g.order not in orders:
                        continue
                    got = realizable(g, sigma, pt, 2000)
                    expected = eager_realizable(g, sigma, pt, 2000)
                    key = (g.name, sigma, pt)
                    assert got.verdict.status == expected.verdict.status, key
                    got_witness, expected_witness = got.verdict.witness, expected.verdict.witness
                    assert (got_witness and got_witness.to_json()) == (
                        expected_witness and expected_witness.to_json()
                    ), key
                    assert [r.to_json() for r in got.exclusion_reasons] == [
                        r.to_json() for r in expected.exclusion_reasons
                    ], key
                    rules.update(r.rule for r in got.exclusion_reasons)
                    if got.verdict.is_unknown:
                        rules["unknown"] += 1
        assert set(rules) == {
            "arithmetic", "product-unreachable", "exhausted-search", "abelian-r1",
            "commutator-r1", "unknown",
        }

    def test_stops_at_first_witness(self, counted):
        # Q12 at genus 6, (0, 4): (2, 3, 6, 6) is unreachable and (2, 4, 4, 6)
        # holds the witness, so the walk is drawn from twice and filtered twice
        rep = realizable(build_generalized_quaternion(3), 6, S(0, 4))
        assert rep.verdict.witness.signature == Sig(0, (2, 4, 4, 6))
        assert (counted["drawn"], counted["calls"]) == (2, 2)

    @pytest.mark.parametrize(
        "group, sigma, point, lists, rule",
        [
            # one list, (2, 10), which the filter rules out
            (build_cyclic(10), 48, S(5, 2), 1, "product-unreachable"),
            # five lists, three of them reachable and walked in full
            (build_cyclic(12), 5, S(0, 4), 5, "exhausted-search"),
        ],
        ids=["c10-unreachable", "c12-exhausted"],
    )
    def test_negative_verdict_filters_each_list_once(self, counted, group, sigma, point, lists, rule):
        rep = realizable(group, sigma, point)
        assert [r.rule for r in rep.exclusion_reasons] == [rule]
        assert (counted["drawn"], counted["calls"]) == (lists, lists)

    @pytest.mark.parametrize(
        "group, sigma, point, counts",
        [
            # four periods of 2: 4 branch points and parts 1 + 1 + 1 + 1, where
            # r = 6 and T = 6
            ("build_cyclic(2)", 2, (0, 6), (4,)),
            # counts over the element orders (2, 3, 6), giving (2, 6): parts
            # 3 + 1 = 4 = T, yet two branch points where r = 4, and the product
            # filter alone would close the point
            ("build_cyclic(6)", 5, (0, 4), (1, 0, 1)),
        ],
        ids=["c2", "c6-short-count"],
    )
    def test_rh_check_fires_under_optimize(self, group, sigma, point, counts):
        # a count vector that breaks Riemann-Hurwitz must stop realizable even
        # when Python runs with -O, which strips bare asserts
        script = (
            "import sys\n"
            "import skelsig.genvec as genvec\n"
            "from skelsig.groups import build_cyclic\n"
            "print('optimize', sys.flags.optimize)\n"
            f"genvec._period_lists = lambda *args: iter([{counts}])\n"
            "try:\n"
            f"    genvec.realizable({group}, {sigma}, {point})\n"
            "except AssertionError as exc:\n"
            "    print('stopped:', exc)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=env, check=True,
        ).stdout
        optimize, stopped = out.splitlines()
        assert optimize == "optimize 1"
        assert stopped.startswith("stopped:") and "Riemann-Hurwitz" in stopped

    def test_cyclic_groups_match_harvey(self, catalog_groups):
        # an oracle that shares no code with the search: Harvey's conditions on
        # some period list, at every admissible point of genus 2..24 where the
        # cyclic group's order is feasible
        groups = [g for g in catalog_groups if g.spec.startswith("cyclic:")]
        groups += [build_cyclic(p) for p in (17, 19, 23)]
        seen = Counter()
        for sigma in range(2, 25):
            for pt, orders in admissible_map(sigma).items():
                for g in groups:
                    if g.order not in orders:
                        continue
                    verdict = realizable(g, sigma, pt).verdict
                    assert not verdict.is_unknown, (g.name, sigma, pt)
                    expected = harvey_realizable(sigma, pt, g.order)
                    assert verdict.is_exists == expected, (g.name, sigma, pt)
                    seen[g.order > 15, expected] += 1
        # both verdicts occur, for catalog orders and for the primes above them
        assert len(seen) == 4 and sum(seen.values()) > 1500, seen


def runs_walk(group, sig, budget):
    """The library walk on the runs of ``sig``'s periods, its witness expanded to a vector."""
    return expanded(genvec._walk_tuples(group, sig.h, ((n, 1) for n in sig.periods), budget))


class TestRunsWalk:
    """The walk over runs against the entry-by-entry oracle walk and the naive search."""

    def test_realizable_lists_match_the_oracles(self, catalog_groups):
        # every list the product filter lets through, at every point where the
        # group's order is feasible, walked from its count vector as realizable does
        seen = Counter()
        for g in catalog_groups:
            if g.order > 12:
                continue
            element_orders, _ = g._periods
            for sigma in range(2, 41):
                for pt, orders in admissible_map(sigma).items():
                    if g.order not in orders:
                        continue
                    for counts in _period_lists(sigma, *pt, g.order, element_orders):
                        if not product_reachable(g, pt.h, zip(element_orders, counts)):
                            continue
                        got = genvec._walk_tuples(g, pt.h, zip(element_orders, counts), 200)
                        sig = Sig(pt.h, genvec._expand_runs(zip(element_orders, counts)))
                        expected, examined = walk_tuples(g, sig, 200)
                        key = (g.name, sigma, str(sig))
                        assert got.status == expected.status, key
                        if got.is_exists:
                            assert got.witness == witness_of(g.name, g.spec, sig, expected.witness)
                            seen["first" if examined == 1 else "later"] += 1
                        if g.order ** (2 * sig.h + sig.r) <= 20_000 and not got.is_unknown:
                            assert got.status == naive_search(g, sig).status, key
                            seen["naive"] += 1
                        seen[got.status] += 1
        assert all(seen[k] > 50 for k in ("first", "later", "naive", "not-exists", "unknown"))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_unsorted_signatures_match_the_oracles(self, data):
        group = data.draw(st.sampled_from(manifest_groups(bundled_catalog(), max_order=12)))
        # mostly the group's element orders, unsorted; any order 2..12 now and then
        element_orders = sorted({k for k in group.element_orders if k >= 2}) or [2]
        period = st.sampled_from(element_orders) | st.integers(2, 12)
        h = data.draw(st.integers(0, 1))
        sig = Sig(h, data.draw(st.lists(period, max_size=5)))
        got = expanded(search(group, sig, 300))
        if naive_product_reachable(group, h, sig.periods):
            expected, _ = walk_tuples(group, sig, 300)
        else:
            expected = SearchVerdict.not_exists()
        assert got == expected
        if group.order ** (2 * h + sig.r) <= 20_000 and not got.is_unknown:
            assert got == naive_search(group, sig)

    @pytest.mark.parametrize(
        "group, sig",
        [
            # Q8 realizes (2; 2), but not with its first candidate, whose c_1 is e
            (build_generalized_quaternion(2), Sig(2, (2,))),
            # the first candidate: c = (6, 3, 1, 1, 1, 1, 11), one power per run
            (build_cyclic(12), Sig(2, (2, 4, 12, 12, 12, 12, 12))),
        ],
        ids=["q8", "c12-first-candidate"],
    )
    def test_budgets_match_the_oracle(self, group, sig):
        _, examined = walk_tuples(group, sig, DEFAULT_BUDGET)
        for budget in (0, 1, 2, examined - 1, examined):
            assert runs_walk(group, sig, budget) == walk_tuples(group, sig, budget)[0], budget
        assert runs_walk(group, sig, examined).is_exists
        assert runs_walk(group, sig, examined - 1).is_unknown

    def test_million_branch_entries_cost_their_runs(self):
        group = build_cyclic(2)
        group.elements_by_order, group._periods  # build the cached tables before measuring
        tracemalloc.start()
        try:
            report = realizable(group, 499_999, S(0, 1_000_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        witness = report.verdict.witness
        assert peak < 1_000_000
        assert witness.periods == ((2, 1_000_000),) and witness.entries == ((1, 1_000_000),)
        expected, examined = walk_tuples(group, witness.signature, DEFAULT_BUDGET)
        assert examined == 1
        oracle = witness_of(group.name, group.spec, witness.signature, expected.witness)
        assert witness == oracle and witness.to_json() == oracle.to_json()


class TestUnbranched:
    def test_examples(self):
        group, sig, vec = unbranched_cyclic(48, 47)
        assert sig.h == 2 and sig.r == 0
        assert verify(group, witness_of(group.name, group.spec, sig, vec))
        group, sig, vec = unbranched_cyclic(49, 6)
        assert sig.h == 9
        assert unbranched_cyclic(48, 5) is None


class TestProductReachable:
    def test_matches_naive_oracle_on_catalog(self, catalog_groups):
        # every count vector of 0..6 entries over each group's element orders,
        # plus one order no element has, at h = 0..3; one group's vectors share
        # its memo, so the repeated steps of larger counts are read back from it
        ruled_out = 0
        for g in catalog_groups:
            orders = sorted(set(g.element_orders)) + [g.order + 1]
            for h in range(4):
                for r in range(7):
                    for periods in itertools.combinations_with_replacement(orders, r):
                        counts = [periods.count(n) for n in orders]
                        expected = naive_product_reachable(g, h, periods)
                        got = product_reachable(g, h, zip(orders, counts))
                        assert got == expected, (g.name, h, counts)
                        ruled_out += not expected
        assert ruled_out > 20000


class TestCommutatorProducts:
    def test_abelian_collapses_to_identity(self):
        assert build_cyclic(6).commutator_mask(3) == 1  # the class of e

    def test_no_commutators_is_identity(self):
        assert build_generalized_quaternion(2).commutator_mask(0) == 1

    def test_q8_derived_subgroup(self):
        q8 = build_generalized_quaternion(2)
        # [Q8, Q8] = {e, x^2}; already closed at one commutator
        assert mask_elements(q8, q8.commutator_mask(1)) == frozenset({0, 2})
        assert q8.commutator_mask(4) == q8.commutator_mask(1)

    def test_filter_is_sound_for_search(self):
        # if no order-n element is a product of h commutators, search agrees
        g = build_dihedral(6)
        pool = mask_elements(g, g.commutator_mask(2))
        has_order_6_candidate = any(
            g.element_orders[c] == 6 and g.inverse[c] in pool for c in range(g.order)
        )
        assert not has_order_6_candidate
        assert search(g, Sig(2, (6,))).is_not_exists
