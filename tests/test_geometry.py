"""Lines, triangles, gaps, and missing-point formulas in the (h, r)-plane."""

import json
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    contains,
    evaluate,
    exception_points,
    fraction_gap_points,
    fraction_triangle_points,
    integer_points,
    integer_points_raw,
    intersect,
    member,
    member_raw,
    nearest_int,
    rh_admissible,
    slope,
    triangle,
)
from skelsig import cli
from skelsig.geometry import (
    RationalLine,
    RationalPoint,
    gap,
    lower_line,
    missing_points,
    p_group_line,
    triangle_rows,
    upper_line,
)
from skelsig.rh import SkeletalSignature

S = SkeletalSignature
P = RationalPoint


class TestLines:
    def test_lower_line_examples(self):
        assert lower_line(48, 3) == RationalLine(3, 1, 50)
        assert lower_line(48, 4) == RationalLine(8, 3, 102)

    def test_upper_line_examples(self):
        assert upper_line(48, 4) == RationalLine(4, 1, 51)
        assert upper_line(48, 6) == RationalLine(12, 3, 106)

    def test_order_two_lines_coincide(self):
        # both collapse onto the involution locus 4h + r = 2*sigma + 2
        for sigma in range(2, 40):
            assert lower_line(sigma, 2) == upper_line(sigma, 2)
            assert lower_line(sigma, 2) == p_group_line(sigma, 2, 1)

    def test_p_group_line_examples(self):
        assert p_group_line(48, 2, 1) == RationalLine(4, 1, 98)
        assert p_group_line(48, 5, 1) == RationalLine(5, 2, 52)
        assert contains(p_group_line(48, 5, 1), P(8, 6))

    def test_p_group_line_rejects_composite(self):
        with pytest.raises(ValueError):
            p_group_line(48, 4, 1)

    def test_normalization(self):
        assert RationalLine(6, 2, 100) == RationalLine(3, 1, 50)
        assert RationalLine(-3, -1, -50) == RationalLine(3, 1, 50)
        with pytest.raises(ValueError):
            RationalLine(0, 0, 5)

    @given(sigma=st.integers(2, 60), order=st.integers(2, 120))
    @settings(max_examples=150, deadline=None)
    def test_slopes(self, sigma, order):
        assert slope(lower_line(sigma, order)) == Fraction(-2 * order, order - 1)
        assert slope(upper_line(sigma, order)) == -4


class TestTriangle:
    def test_apex(self):
        tri = triangle(48, 4)
        assert tri.apex == P(Fraction(51, 4), 0)
        assert contains(tri.lower, tri.apex) and contains(tri.upper, tri.apex)

    def test_member_examples(self):
        assert not triangle(48, 4).member(P(8, 6))
        assert triangle(48, 5).member(P(8, 6))

    def test_degenerate_order_two(self):
        tri = triangle(10, 2)
        assert tri.lower == tri.upper
        # membership means sitting on the line within the segment
        assert tri.member(P(0, 22))
        assert tri.member(P(5, 2))
        assert not tri.member(P(1, 17))
        assert not tri.member(P(6, -2))

    def test_integer_points_lexicographic(self):
        pts = triangle(6, 3).integer_points()
        assert pts == sorted(pts)
        for pt in pts:
            assert triangle(6, 3).member(P(pt.h, pt.r))

    def test_integer_points_match_fraction_oracle(self):
        # integer floor/ceil on the line coefficients against exact rational bounds,
        # at every order up to the h = 0 cap, as points and as rows
        for sigma in range(2, 26):
            for order in range(2, 84 * (sigma - 1) + 1):
                tri = triangle(sigma, order)
                expected = fraction_triangle_points(tri)
                assert tri.integer_points() == expected, (sigma, order)
                rows = list(triangle_rows(sigma, order))
                assert [S(h, r) for h, lo, hi in rows for r in range(lo, hi + 1)] == expected
                assert all(lo <= hi for _, lo, hi in rows), (sigma, order)
                # plane_rows sizes each order's levels from the first row left: r_hi and
                # 2h + r_hi never grow down the rows, so any row holds its followers' largest
                if rows:
                    assert rows[0][2] == max(pt.r for pt in expected), (sigma, order)
                    assert 2 * rows[0][0] + rows[0][2] == max(2 * pt.h + pt.r for pt in expected)
                for (h, _, hi), (h_next, _, hi_next) in zip(rows, rows[1:]):
                    assert hi >= hi_next and 2 * h + hi >= 2 * h_next + hi_next, (sigma, order)


class TestGap:
    def test_gap_48_3(self):
        region = gap(48, 3)
        assert region.span == "next"
        assert region.corner == P(1, 47)
        assert region.exception_line is None

    def test_gap_48_4(self):
        region = gap(48, 4)
        assert region.span == "skip"
        assert region.corner == P(1, Fraction(94, 3))
        assert region.exception_line == RationalLine(5, 2, 52)

    def test_span_dispatch(self):
        assert gap(20, 3).span == "next"  # middle order 4 is composite
        assert gap(20, 4).span == "skip"  # middle order 5 is prime
        assert gap(20, 6).span == "skip"  # middle order 7 is prime

    def test_rejects_small_order(self):
        for order in (-1, 0, 1, 2):
            with pytest.raises(ValueError, match=f"^gaps are defined for order >= 3, got {order}$"):
                gap(48, order)

    def test_corner_on_both_lines_vs_independent_solve(self):
        for sigma in (7, 11, 20, 48, 60):
            for order in range(3, 12):
                region = gap(sigma, order)
                assert contains(region.boundary_lower, region.corner)
                assert contains(region.boundary_upper, region.corner)
                solved = intersect(region.boundary_lower, region.boundary_upper)
                assert solved == region.corner
                # the closed forms for each span, derived by hand
                n = order
                if region.span == "next":
                    denom = (n - 2) * (n + 1)
                    h = Fraction((n - 1) ** 2 + sigma * (n - 3), denom)
                    r = Fraction(4 * (sigma - 1), denom)
                else:
                    denom = n * n - 4
                    h = Fraction(n * n - n + sigma * (n - 4), denom)
                    r = Fraction(8 * (sigma - 1), denom)
                assert region.corner == RationalPoint(h, r)

    def test_membership_examples(self):
        g46 = gap(48, 4)
        assert member(g46, P(3, 24))
        assert not member(g46, P(8, 6))
        assert member_raw(g46, P(8, 6))
        assert not member(gap(48, 3), P(1, 47))  # the corner itself
        # the gap is open: right of the corner, a point on the top boundary
        # 8h + 3r = 102 or the bottom one 12h + 3r = 106 is not a member
        assert not member_raw(g46, P(3, 26))
        assert not member_raw(g46, P(2, Fraction(82, 3)))

    def test_integer_points_48_3(self):
        region = gap(48, 3)
        pts = integer_points(region)
        assert S(3, 40) in pts
        assert [p for p in pts if p.h == 2] == []  # bounds 43 < r < 44
        assert [p for p in pts if p.h == 3] == [S(3, 40)]  # bounds 39 < r < 41
        assert pts == sorted(pts)

    def test_exception_points_48(self):
        region = gap(48, 4)
        assert exception_points(region) == [S(8, 6), S(10, 1)]
        filtered = integer_points(region)
        assert S(8, 6) not in filtered and S(10, 1) not in filtered

    def test_integer_enumeration_matches_fraction_oracle(self):
        # integer strip bounds against the exact rational walk with its own strict
        # boundary tests; the exception split against RationalLine.contains
        seen = 0
        for sigma in range(2, 81):
            for order in range(3, 21):
                region = gap(sigma, order)
                raw = fraction_gap_points(region)
                exc = region.exception_line
                on_line = [s for s in raw if exc is not None and contains(exc, P(s.h, s.r))]
                assert integer_points_raw(region) == raw, (sigma, order)
                assert exception_points(region) == on_line, (sigma, order)
                assert integer_points(region) == [s for s in raw if s not in on_line], (sigma, order)
                seen += len(raw)
        assert seen > 1000

    def test_rows_hold_the_points_row_by_row(self):
        # one row per h that has a point, h ascending, each row's r a nonempty range;
        # the exception line's integer r at each h against RationalLine.contains
        for sigma in range(2, 81):
            for order in range(3, 21):
                region = gap(sigma, order)
                raw = fraction_gap_points(region)
                rows = list(region.integer_rows_raw())
                assert [h for h, _, _ in rows] == sorted({s.h for s in raw}), (sigma, order)
                assert all(lo <= hi for _, lo, hi in rows), (sigma, order)
                exc = region.exception_line
                for h, lo, hi in rows:
                    on_line = [r for r in range(lo - 2, hi + 3) if exc and contains(exc, P(h, r))]
                    assert on_line == [r for r in [region.exception_r(h)] if r is not None
                                       and lo - 2 <= r <= hi + 2], (sigma, order, h)

    def test_integer_points_raw_builds_no_rational_point(self, monkeypatch, capsys):
        # a count guard, not a timing gate: the strip is walked, and missing_points and
        # `gaps` decide their points, on integer coefficients; the one RationalPoint a
        # gap builds is its corner
        region = gap(48, 4)
        expected = fraction_gap_points(region)
        calls = Counter()
        point_new = RationalPoint.__new__

        def counted_new(cls, *args, **kwargs):
            calls["RationalPoint"] += 1
            return point_new(cls, *args, **kwargs)

        monkeypatch.setattr(RationalPoint, "__new__", counted_new)
        assert integer_points_raw(region) == expected
        assert integer_points(region) and exception_points(region)
        assert calls == Counter()
        regions = 0
        for h, least in ((2, 7), (3, 18)):
            for sigma in range(least, 2001):
                if (sigma, h) == (8, 2):
                    with pytest.raises(ValueError, match="cyclic line"):
                        missing_points(sigma, h)
                else:
                    assert missing_points(sigma, h), (sigma, h)
                regions += 1
        assert calls == Counter({"RationalPoint": regions})
        calls.clear()
        assert cli.main(["gaps", "--sigma", "150", "--n", *map(str, range(3, 13))]) == 0
        assert json.loads(capsys.readouterr().out)["gaps"][1]["exceptionPoints"]
        assert calls == Counter({"RationalPoint": 10})


class TestNearestInt:
    @pytest.mark.parametrize(
        "x,expected",
        [
            (Fraction(94, 3), 31),
            (28, 28),
            (Fraction(-7, 2), -4),
            (Fraction(7, 2), 4),
            (Fraction(4, 3), 1),
            (Fraction(2, 3), 1),
            (Fraction(-1, 3), 0),
        ],
    )
    def test_values(self, x, expected):
        assert nearest_int(x) == expected

    @given(st.fractions())
    @settings(max_examples=200)
    def test_within_half(self, x):
        n = nearest_int(x)
        assert abs(x - n) <= Fraction(1, 2)


class TestMissingPoints:
    def test_h2_examples(self):
        assert missing_points(48, 2) == [S(2, 28)]
        assert missing_points(7, 2) == [S(2, 1)]

    def test_h3_examples(self):
        assert missing_points(48, 3) == [S(3, 25), S(3, 24)]
        assert missing_points(20, 3) == [S(3, 6), S(3, 5), S(3, 7)]

    def test_range_validation(self):
        with pytest.raises(ValueError):
            missing_points(6, 2)
        with pytest.raises(ValueError):
            missing_points(17, 3)
        with pytest.raises(ValueError):
            missing_points(48, 4)

    def test_all_in_gap_wide_range(self):
        for sigma in range(7, 301):
            if sigma == 8:
                continue  # see test_genus_8_candidate_collides_with_cyclic_line
            region = gap(sigma, 4)
            for s in missing_points(sigma, 2):
                assert member(region, P(s.h, s.r))
        for sigma in range(18, 301):
            region = gap(sigma, 4)
            for s in missing_points(sigma, 3):
                assert member(region, P(s.h, s.r))

    def test_integer_rounding_matches_nearest_int(self):
        # the candidates round 2 sigma/3 in integers; nearest_int rounds the Fraction
        for sigma in range(7, 20001):
            h3_offsets = [-7, -8] + ([-6] if sigma % 3 == 2 else [])
            for h, least, offsets in ((2, 7, [-4]), (3, 18, h3_offsets)):
                if sigma < least:
                    continue
                expected = [S(h, nearest_int(Fraction(2 * sigma, 3) + k)) for k in offsets]
                if (h, sigma) == (2, 8):
                    with pytest.raises(ValueError, match=r"the candidate \(2, 1\) lies on"):
                        missing_points(sigma, h)
                    assert expected == [S(2, 1)]
                    continue
                assert missing_points(sigma, h) == expected, (sigma, h)

    def test_genus_8_candidate_collides_with_cyclic_line(self):
        # At genus 8 the h = 2 candidate is (2, 1), which sits between the
        # gap boundaries but exactly on the order-5 cyclic line, and is in
        # fact RH-feasible there via the signature (2; 5).  Strict gap
        # membership therefore fails and the constructor refuses with a
        # usage-level error naming the point and the line.
        region = gap(8, 4)
        candidate = P(2, 1)
        assert member_raw(region, candidate)
        assert contains(region.exception_line, candidate)
        assert not member(region, candidate)
        assert rh_admissible(8, S(2, 1)) == (5, (5,))
        with pytest.raises(ValueError, match=r"\(2, 1\) lies on the order-5 cyclic line 5h \+ 2r = 12"):
            missing_points(8, 2)


class TestOverlapOfTriangles:
    def test_smaller_triangle_above_larger_lower_line(self):
        # integer points of the order-M triangle sit strictly above the
        # order-N lower line, for 3 <= M < N
        for sigma in range(2, 31):
            for m in range(3, 15):
                pts = triangle(sigma, m).integer_points()
                for n in range(m + 1, 16):
                    line = lower_line(sigma, n)
                    for pt in pts:
                        assert evaluate(line, P(pt.h, pt.r)) > 0, (sigma, m, n, pt)

    def test_larger_triangle_below_smaller_upper_line(self):
        for sigma in range(2, 31):
            for n in range(4, 16):
                pts = triangle(sigma, n).integer_points()
                for m in range(3, n):
                    line = upper_line(sigma, m)
                    for pt in pts:
                        assert evaluate(line, P(pt.h, pt.r)) < 0, (sigma, m, n, pt)


class TestSerialization:
    def test_line_json(self):
        d = lower_line(48, 3).to_json()
        assert d == {"kind": "line", "coefficients": [3, 1, 50], "equation": "3h + 1r = 50"}

    def test_gap_json_shape(self):
        d = gap(48, 4).to_json()
        assert d["kind"] == "gap"
        assert d["sigma"] == 48 and d["N"] == 4 and d["span"] == "skip"
        assert d["exceptionLine"]["coefficients"] == [5, 2, 52]
        assert d["corner"]["r"]["frac"] == "94/3"

    def test_triangle_json_shape(self):
        d = triangle(48, 4).to_json()
        assert d["kind"] == "triangle"
        assert d["apex"]["h"]["frac"] == "51/4"
