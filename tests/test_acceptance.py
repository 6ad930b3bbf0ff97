"""Acceptance suite: one test per top-level claim, one printed pass/fail line each.

Every check is exact (integer or rational equality); there are no numeric
tolerances anywhere.  Run with ``pytest tests/test_acceptance.py -v -s`` to see
the per-criterion lines and timings.
"""

import time
from fractions import Fraction

import pytest

from oracles import (
    contains,
    exception_points,
    integer_points_raw,
    manifest_groups,
    member,
    naive_search,
    nearest_int,
    period_multisets,
    rh_admissible,
    slope,
)
from skelsig.genvec import quaternion_vector, search, verify
from skelsig.geometry import (
    RationalPoint,
    gap,
    lower_line,
    p_group_line,
    upper_line,
)
from skelsig.groups import CatalogEntry, CatalogManifest
from skelsig.kspace import analyze_point, realizable_set, sporadic_analysis
from skelsig.rh import (
    OrbifoldSignature,
    SkeletalSignature,
    rh_genus,
    rh_holds,
)

S = SkeletalSignature
P = RationalPoint


def report(num: int, description: str, failures: list, started: float) -> None:
    status = "PASS" if not failures else "FAIL"
    line = f"criterion {num:02d}: {status} - {description} [{time.time() - started:.1f}s]"
    if failures:
        line += f" ({len(failures)} failing instance(s); first: {failures[0]})"
    print(line)
    assert not failures, line


def test_criterion_01_gap_3_4_empty():
    """Every lattice point of the order-3/4 gap is RH-infeasible, genus 9..60."""
    t0 = time.time()
    failures = []
    for sigma in range(9, 61):
        region = gap(sigma, 3)
        assert region.exception_line is None
        for pt in integer_points_raw(region):
            if not rh_admissible(sigma, pt).is_not_exists:
                failures.append((sigma, tuple(pt)))
    report(1, "order-3/4 gap emptiness for genus 9..60", failures, t0)


def test_criterion_02_h2_missing_point():
    """(2, [2*sigma/3 - 4]) lies in the order-4/6 gap and is RH-infeasible, genus 7..120.

    Genus 8 is a genuine counterexample: the candidate (2, 1) falls on the
    order-5 cyclic exception line and satisfies Riemann-Hurwitz via the
    signature (2; 5), so both halves of the claim fail there.  The point is
    still absent from the true space (the order-5 group is abelian and cannot
    carry a single branch point), but that needs the group-theoretic layer,
    not arithmetic alone.
    """
    t0 = time.time()
    failures = []
    for sigma in range(7, 121):
        pt = S(2, nearest_int(Fraction(2 * sigma, 3) - 4))
        region = gap(sigma, 4)
        in_gap = member(region, P(pt.h, pt.r))
        excluded = rh_admissible(sigma, pt).is_not_exists
        if not (in_gap and excluded):
            failures.append((sigma, tuple(pt), f"in_gap={in_gap}", f"rh_excluded={excluded}"))
    report(2, "h = 2 missing point in-gap and RH-infeasible for genus 7..120", failures, t0)


def test_criterion_03_h3_missing_points():
    """h = 3 missing points lie in the order-4/6 gap and are RH-infeasible, genus 18..120."""
    t0 = time.time()
    failures = []
    for sigma in range(18, 121):
        offsets = [-7, -8] + ([-6] if sigma % 3 == 2 else [])
        region = gap(sigma, 4)
        for k in offsets:
            pt = S(3, nearest_int(Fraction(2 * sigma, 3) + k))
            in_gap = member(region, P(pt.h, pt.r))
            excluded = rh_admissible(sigma, pt).is_not_exists
            if not (in_gap and excluded):
                failures.append((sigma, tuple(pt)))
    report(3, "h = 3 missing points in-gap and RH-infeasible for genus 18..120", failures, t0)


def test_criterion_04_genus_48_exception_analysis(catalog):
    """Order-4/6 gap at genus 48: exception points are exactly (8,6) and (10,1);
    the first is realized by the order-5 cyclic group, the second excluded with
    both the abelian and cyclic-forced rules across all RH-compatible orders."""
    t0 = time.time()
    failures = []
    region = gap(48, 4)
    exc = exception_points(region)
    if exc != [S(8, 6), S(10, 1)]:
        failures.append(("exception points", exc))
    realized = analyze_point(48, S(8, 6), catalog)
    if realized.status != "realized" or realized.witness.group_name != "C5":
        failures.append(("(8,6)", realized.status))
    else:
        from skelsig.groups import build_cyclic

        if not verify(build_cyclic(5), realized.witness):
            failures.append(("(8,6)", "witness does not verify"))
    excluded = analyze_point(48, S(10, 1), catalog)
    if excluded.status != "excluded":
        failures.append(("(10,1)", excluded.status))
    if {r.rule for r in excluded.reasons} != {"abelian-r1", "cyclic-forced"}:
        failures.append(("(10,1) reasons", excluded.reasons))
    if [n for n, _ in excluded.feasible] != [5]:
        failures.append(("(10,1) feasible orders", excluded.feasible))
    report(4, "genus-48 exception-line analysis on the order-5 cyclic line", failures, t0)


def test_criterion_05_quaternion_family():
    """Quaternion witnesses verify and hit genus 2n(2(h-1)+1) - 1 for n in 2..12, h in 1..5."""
    t0 = time.time()
    failures = []
    for n in range(2, 13):
        for h in range(1, 6):
            group, witness = quaternion_vector(n, h)
            expected = 2 * n * (2 * (h - 1) + 1) - 1
            if not verify(group, witness):
                failures.append((n, h, "vector"))
            if rh_genus(group.order, witness.signature) != expected:
                failures.append((n, h, "genus"))
    report(5, "quaternion family witnesses for n in 2..12, h in 1..5", failures, t0)


def test_criterion_06_sporadic_nonexistence(catalog):
    """No (h, 1) action exists at genus p+1 for h in 2..5, p in {3,5,7,11,13,17,19},
    with every divisor case closed by arithmetic or complete catalog coverage."""
    t0 = time.time()
    failures = []
    for h in range(2, 6):
        result = sporadic_analysis(h, [3, 5, 7, 11, 13, 17, 19], [], catalog)
        for genus_report in result.nonexistence:
            if genus_report.verdict != "not-exists":
                failures.append((h, genus_report.p, genus_report.verdict))
            for case in genus_report.cases:
                if not case.closed:
                    failures.append((h, genus_report.p, f"case d={case.divisor} escaped coverage"))
    report(6, "r = 1 nonexistence at genus p+1 for h in 2..5", failures, t0)


def test_criterion_07_elementary_abelian_on_line():
    """Every elementary-abelian witness lies on its collapse line: C_p^k, p in {2,3,5}, k in {1,2}.

    Those C_p^k form a catalog with no order flagged complete; the coverage
    rule adds C_p for each other prime p <= 25, elementary abelian with k = 1.
    """
    t0 = time.time()
    failures = []
    catalog = CatalogManifest(tuple(
        CatalogEntry(p**k, f"elab:{p}^{k}", f"C{p}^{k}", False) for p in (2, 3, 5) for k in (1, 2)
    ))
    witnesses = 0
    for sigma in range(2, 16):
        approx = realizable_set(sigma, catalog, max_order=25)
        for pt, witness in approx.realized.items():
            # elab:p^k for a catalog group, cyclic:p for an added one
            p, _, k = witness.group_spec.partition(":")[2].partition("^")
            p, k = int(p), int(k or 1)
            witnesses += 1
            if not contains(p_group_line(sigma, p, k), P(pt.h, pt.r)):
                failures.append((sigma, tuple(pt), witness.group_name))
    if witnesses == 0:
        failures.append(("no witnesses found at all",))
    report(7, f"elementary-abelian witnesses on collapse lines ({witnesses} checked)", failures, t0)


def test_criterion_08_line_geometry():
    """Common point on every lower line, upper slopes all -4, order-2 lines coincide."""
    t0 = time.time()
    failures = []
    for sigma in range(2, 51):
        shared = P(sigma, 2 - 2 * sigma)
        for order in range(2, 201):
            if not contains(lower_line(sigma, order), shared):
                failures.append(("common point", sigma, order))
            if slope(upper_line(sigma, order)) != -4:
                failures.append(("slope", sigma, order))
        if lower_line(sigma, 2) != upper_line(sigma, 2):
            failures.append(("order-2 collapse", sigma))
    report(8, "common point, upper slopes, order-2 collapse for genus 2..50", failures, t0)


def test_criterion_09_search_oracle_equivalence(catalog):
    """Pruned search agrees with the naive unpruned enumeration on every catalog
    group of order <= 10 and every signature with integral genus in 2..6."""
    t0 = time.time()
    failures = []
    checked = 0
    for group in manifest_groups(catalog, max_order=10):
        n = group.order
        element_orders = sorted({k for k in group.element_orders if k >= 2})
        for sigma in range(2, 7):
            h = 0
            while n * (h - 1) <= sigma - 1:
                # branch terms contribute at least 1/4 each
                r_cap = max(0, int(4 * (Fraction(sigma - 1, n) - (h - 1)))) if n > 1 else 0
                for r in range(0, r_cap + 1):
                    for periods in period_multisets(sigma, h, r, n, element_orders):
                        sig = OrbifoldSignature(h, periods)
                        assert rh_genus(n, sig) == sigma
                        checked += 1
                        pruned = search(group, sig)
                        oracle = naive_search(group, sig)
                        if pruned.status != oracle.status:
                            failures.append((group.name, str(sig), pruned.status, oracle.status))
                if n == 1 and h == sigma:
                    break
                h += 1
    if checked < 50:
        failures.append((f"only {checked} signatures enumerated; harness broken",))
    report(9, f"pruned search vs naive oracle ({checked} group-signature pairs)", failures, t0)


def test_criterion_10_unbranched_points():
    """Unbranched cyclic witnesses at ((sigma-1)/N + 1, 0) for every divisor N of sigma-1."""
    t0 = time.time()
    failures = []
    from oracles import unbranched_cyclic, witness_of

    for sigma in range(2, 51):
        for order in range(2, sigma):
            if (sigma - 1) % order:
                continue
            out = unbranched_cyclic(sigma, order)
            if out is None:
                failures.append((sigma, order, "missing"))
                continue
            group, sig, vec = out
            if sig.skeletal != S((sigma - 1) // order + 1, 0):
                failures.append((sigma, order, "wrong point"))
            if not rh_holds(sigma, order, sig):
                failures.append((sigma, order, "rh"))
            if not verify(group, witness_of(group.name, group.spec, sig, vec)):
                failures.append((sigma, order, "vector"))
    report(10, "unbranched cyclic witnesses for genus 2..50", failures, t0)
