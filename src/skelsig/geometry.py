"""Exact loci in the (h, r)-plane: bounding lines, triangles, gaps, missing points.

Coordinates are quotient genus h (horizontal) and branch-point count r
(vertical).  Lines are integer-coefficient equations ``a*h + b*r = c``, and the
lattice points of triangles and gaps are enumerated by integer floor and ceil
division on those coefficients, a row at a time, and a lattice point's gap
membership is its row plus the integer exception test; Fractions carry only
the rational gap corners and line ends that JSON and SVG report.  Triangles
are closed, gaps are open; the asymmetry is deliberate and load-bearing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, NamedTuple, Union

from .rh import SkeletalSignature, _check_genus, _check_order, is_prime

Coord = Union[int, Fraction]


def frac_json(x: Fraction) -> dict:
    """A rational in JSON: the exact fraction plus a decimal approximation."""
    return {"frac": f"{x.numerator}/{x.denominator}", "dec": float(x)}


class _RationalPointFields(NamedTuple):
    h: Fraction
    r: Fraction


class RationalPoint(_RationalPointFields):
    """Exact point; integrality is a queryable predicate, never an assumption."""

    __slots__ = ()

    def __new__(cls, h: Coord, r: Coord) -> "RationalPoint":
        return super().__new__(cls, Fraction(h), Fraction(r))

    def __str__(self) -> str:
        return f"({self.h}, {self.r})"

    def to_json(self) -> dict:
        return {"h": frac_json(self.h), "r": frac_json(self.r)}


class _RationalLineFields(NamedTuple):
    a: int
    b: int
    c: int


class RationalLine(_RationalLineFields):
    """Line a*h + b*r = c with integer coefficients, gcd 1, leading sign positive.

    Normalization makes equality of lines a plain field comparison.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int) -> "RationalLine":
        a, b, c = int(a), int(b), int(c)
        if (a, b) == (0, 0):
            raise ValueError("line needs a nonzero (a, b)")
        g = math.gcd(math.gcd(abs(a), abs(b)), abs(c))
        if g:
            a, b, c = a // g, b // g, c // g
        lead = a if a != 0 else b
        if lead < 0:
            a, b, c = -a, -b, -c
        return super().__new__(cls, a, b, c)

    def __str__(self) -> str:
        return f"{self.a}h + {self.b}r = {self.c}"

    def to_json(self) -> dict:
        return {"kind": "line", "coefficients": [self.a, self.b, self.c], "equation": str(self)}


def _lower_coeffs(sigma: int, order: int) -> tuple[int, int, int]:
    return 2 * order, order - 1, 2 * (sigma - 1) + 2 * order


def _upper_coeffs(sigma: int, order: int) -> tuple[int, int, int]:
    return 4 * order, order, 4 * (order + sigma - 1)


def lower_line(sigma: int, order: int) -> RationalLine:
    """Lower bounding line of the order-N feasibility triangle: (N-1)r + 2Nh = 2(sigma-1) + 2N."""
    _check(sigma, order)
    return RationalLine(*_lower_coeffs(sigma, order))


def upper_line(sigma: int, order: int) -> RationalLine:
    """Upper bounding line of the order-N feasibility triangle: Nr + 4Nh = 4(N + sigma - 1).

    Its slope in (h, r)-coordinates is -4 for every order.
    """
    _check(sigma, order)
    return RationalLine(*_upper_coeffs(sigma, order))


def p_group_line(sigma: int, p: int, power: int) -> RationalLine:
    """Line carrying every skeletal signature of a group of exponent p and order p^power.

    All non-trivial elements of such a group (e.g. (C_p)^power) have order p,
    so every branching period equals p and the feasibility triangle collapses:
    2 p^power h + (p-1) p^(power-1) r = 2 p^power - 2 + 2 sigma.
    """
    _check_genus(sigma)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if power < 1:
        raise ValueError(f"power must be >= 1, got {power}")
    pn = p**power
    return RationalLine(2 * pn, (p - 1) * pn // p, 2 * pn - 2 + 2 * sigma)


def _check(sigma: int, order: int) -> None:
    _check_genus(sigma)
    _check_order(order)


def triangle_rows(sigma: int, order: int) -> list[tuple[int, int, int]]:
    """Rows (h, r_lo, r_hi) of the closed order-N triangle's lattice points with h, r >= 0.

    At each h up to the apex h = (N + sigma - 1)/N, r runs from r_lo, the ceil of the lower line's
    (c - a*h)/b, to r_hi, the floor of the upper line's, both by integer
    division; rows with no lattice point are skipped, and h ascends.  Up to
    the apex c - a*h = 2N(apex - h) >= 0 on the lower line, so r_lo >= 0
    needs no clamp.  At a prime order the lower line is the cyclic line
    ``p_group_line(sigma, N, 1)``, the order's only feasible locus.
    """
    _check(sigma, order)
    la, lb, lc = _lower_coeffs(sigma, order)
    ua, ub, uc = _upper_coeffs(sigma, order)
    return [
        (h, r_lo, r_hi)
        for h in range((order + sigma - 1) // order + 1)
        if (r_lo := -((la * h - lc) // lb)) <= (r_hi := (uc - ua * h) // ub)
    ]


class GapRegion(NamedTuple):
    """Open region guaranteed free of skeletal signatures, up to a cyclic exception line.

    Bounded above (in r) by the lower line of the order-N triangle and below by
    the upper line of the next surviving triangle (N+1, or N+2 when N+1 is
    prime), to the right of their intersection corner.  When the middle order
    N+1 is prime its triangle collapses to the order-(N+1) cyclic line, which
    crosses the region: points on it are exempt from the gap guarantee.

    A lattice point (h, r) with r >= 0 is a member when it lies in the row
    of ``integer_rows_raw`` at h and ``exception_r(h)`` is not r.
    """

    sigma: int
    lower_index: int
    span: str  # "next" (strip to U at N+1) or "skip" (strip to U at N+2, with exception line)
    boundary_lower: RationalLine  # lower line of the order-N triangle; bounds the gap from above
    boundary_upper: RationalLine  # upper line of the order-(N+span) triangle; bounds from below
    corner: RationalPoint
    exception_line: RationalLine | None

    @property
    def upper_index(self) -> int:
        return self.lower_index + (1 if self.span == "next" else 2)

    def exception_r(self, h: int) -> int | None:
        """The r of the exception line at h when it is an integer, else None."""
        e = self.exception_line
        if e is None:
            return None
        r, rest = divmod(e.c - e.a * h, e.b)
        return None if rest else r

    def integer_rows_raw(self) -> Iterator[tuple[int, int, int]]:
        """Rows (h, r_lo, r_hi) of the lattice points with h, r >= 0 strictly inside the strip.

        The one enumeration of the strip.  At each h right of the corner, r
        runs from floor(bottom) + 1 to ceil(top) - 1 by integer division on
        the boundary coefficients; rows with no lattice point are skipped,
        and h ascends.
        """
        ta, tb, tc = self.boundary_lower.a, self.boundary_lower.b, self.boundary_lower.c
        ba, bb, bc = self.boundary_upper.a, self.boundary_upper.b, self.boundary_upper.c
        h = math.floor(self.corner.h) + 1
        while tc - ta * h > 0:
            r_lo = max((bc - ba * h) // bb + 1, 0)
            r_hi = -((ta * h - tc) // tb) - 1
            if r_lo <= r_hi:
                yield h, r_lo, r_hi
            h += 1

    def to_json(self) -> dict:
        return {
            "kind": "gap",
            "sigma": self.sigma,
            "N": self.lower_index,
            "span": self.span,
            "upperIndex": self.upper_index,
            "boundaryLower": self.boundary_lower.to_json(),
            "boundaryUpper": self.boundary_upper.to_json(),
            "corner": self.corner.to_json(),
            "exceptionLine": None
            if self.exception_line is None
            else self.exception_line.to_json(),
        }


def gap(sigma: int, order: int) -> GapRegion:
    """Gap region to the right of the order-N triangle.

    When N+1 is composite the strip runs down to the upper line at N+1; when
    N+1 is prime the middle triangle collapses onto the order-(N+1) cyclic
    line, so the strip runs to the upper line at N+2 and carries that cyclic
    line as its exception.  Below N = 3 the order-2 triangle is degenerate and
    no gap is defined.
    """
    _check_genus(sigma)
    if order < 3:
        raise ValueError(f"gaps are defined for order >= 3, got {order}")
    n = order
    lo = lower_line(sigma, n)
    if is_prime(n + 1):
        span = "skip"
        up = upper_line(sigma, n + 2)
        exception = p_group_line(sigma, n + 1, 1)
    else:
        span = "next"
        up = upper_line(sigma, n + 1)
        exception = None
    # the corner is where the two boundary lines meet (2x2 integer solve); the
    # lower line's slope -2N/(N-1) is never the upper line's -4 once N >= 3
    det = lo.a * up.b - up.a * lo.b
    corner = RationalPoint(
        Fraction(lo.c * up.b - up.c * lo.b, det), Fraction(lo.a * up.c - up.a * lo.c, det)
    )
    return GapRegion(sigma, n, span, lo, up, corner, exception)


def missing_points(sigma: int, h: int) -> list[SkeletalSignature]:
    """Lattice points at quotient genus 2 or 3 that fall in the order-4/6 gap.

    h == 2 needs sigma >= 7 and sigma != 8, and yields one point,
    (2, [2 sigma/3 - 4]); h == 3 needs sigma >= 18 and yields
    (3, [2 sigma/3 - 7]) and (3, [2 sigma/3 - 8]), plus (3, [2 sigma/3 - 6])
    when sigma = 2 mod 3.  Every returned point lies in the strip's row at h
    and off the exception line.  Genus 8 is a genuine counterexample at
    h == 2: the candidate (2, 1) lands exactly on the order-5 cyclic line, so
    it raises ``ValueError``, as does any candidate that fails membership.
    """
    if h == 2:
        if sigma < 7:
            raise ValueError(f"h == 2 requires sigma >= 7, got {sigma}")
        offsets = [-4]
    elif h == 3:
        if sigma < 18:
            raise ValueError(f"h == 3 requires sigma >= 18, got {sigma}")
        offsets = [-7, -8]
        if sigma % 3 == 2:
            offsets.append(-6)
    else:
        raise ValueError(f"h must be 2 or 3, got {h}")
    region = gap(sigma, 4)
    # 2 sigma/3 has fractional part 0, 1/3 or 2/3, so it rounds to (2 sigma + 1) // 3
    points = [SkeletalSignature(h, (2 * sigma + 1) // 3 + k) for k in offsets]
    # the strip's r at h; the rows ascend in h, so the walk stops at h
    strip = range(0)
    for row_h, r_lo, r_hi in region.integer_rows_raw():
        if row_h >= h:
            if row_h == h:
                strip = range(r_lo, r_hi + 1)
            break
    line_r = region.exception_r(h)
    for s in points:
        if s.r not in strip or s.r == line_r:
            where = (
                f"on the order-{region.lower_index + 1} cyclic line {region.exception_line}, "
                f"where the gap guarantee does not hold"
                if s.r == line_r
                else "outside the order-4/6 gap"
            )
            raise ValueError(
                f"h == {h} has no missing point at genus {sigma}: "
                f"the candidate {tuple(s)} lies {where}"
            )
    return points

