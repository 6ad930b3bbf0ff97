"""Exact loci in the (h, r)-plane: bounding lines, triangles, gaps, missing points.

Coordinates are quotient genus h (horizontal) and branch-point count r
(vertical).  Lines are integer-coefficient equations ``a*h + b*r = c``, and the
lattice points of triangles and gaps are enumerated by integer floor and ceil
division on those coefficients; Fractions carry the rational gap corners that
JSON and SVG report, and the point-membership tests.  Triangles are closed,
gaps are open; the asymmetry is deliberate and load-bearing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, NamedTuple, Union

from .groups import _is_prime
from .rh import SkeletalSignature, _check_genus, _check_order

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

    def evaluate(self, point: RationalPoint) -> Fraction:
        """a*h + b*r - c; sign tells which side of the line the point is on."""
        return self.a * point.h + self.b * point.r - self.c

    def contains(self, point: RationalPoint) -> bool:
        return self.evaluate(point) == 0

    def r_at(self, h: Coord) -> Fraction:
        if self.b == 0:
            raise ValueError("vertical line has no r value at fixed h")
        return Fraction(self.c - self.a * Fraction(h), self.b)

    @property
    def slope(self) -> Fraction:
        """dr/dh of the line (b must be nonzero)."""
        if self.b == 0:
            raise ValueError("vertical line has undefined slope in r per h")
        return Fraction(-self.a, self.b)

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
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if power < 1:
        raise ValueError(f"power must be >= 1, got {power}")
    pn = p**power
    return RationalLine(2 * pn, (p - 1) * pn // p, 2 * pn - 2 + 2 * sigma)


def _check(sigma: int, order: int) -> None:
    _check_genus(sigma)
    _check_order(order)


def triangle_rows(sigma: int, order: int) -> Iterator[tuple[int, int, int]]:
    """Rows (h, r_lo, r_hi) of the closed order-N triangle's lattice points with h, r >= 0.

    At each h up to the apex h = (N + sigma - 1)/N, r runs from r_lo, the ceil of the lower line's
    (c - a*h)/b, to r_hi, the floor of the upper line's, both by integer
    division; rows with no lattice point are skipped, and h ascends.
    """
    _check(sigma, order)
    la, lb, lc = _lower_coeffs(sigma, order)
    ua, ub, uc = _upper_coeffs(sigma, order)
    for h in range((order + sigma - 1) // order + 1):
        r_lo = max(-((la * h - lc) // lb), 0)
        r_hi = (uc - ua * h) // ub
        if r_lo <= r_hi:
            yield h, r_lo, r_hi


class GapRegion(NamedTuple):
    """Open region guaranteed free of skeletal signatures, up to a cyclic exception line.

    Bounded above (in r) by the lower line of the order-N triangle and below by
    the upper line of the next surviving triangle (N+1, or N+2 when N+1 is
    prime), to the right of their intersection corner.  When the middle order
    N+1 is prime its triangle collapses to the order-(N+1) cyclic line, which
    crosses the region: points on it are exempt from the gap guarantee.
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

    def member_raw(self, point: RationalPoint) -> bool:
        """Strictly between the two boundary lines, strictly right of the corner."""
        if point.h <= self.corner.h:
            return False
        return self.boundary_upper.r_at(point.h) < point.r < self.boundary_lower.r_at(point.h)

    def member(self, point: RationalPoint) -> bool:
        """Raw membership minus the exception line, where the gap guarantee fails."""
        if not self.member_raw(point):
            return False
        if self.exception_line is not None and self.exception_line.contains(point):
            return False
        return True

    def on_exception_line(self, point: SkeletalSignature) -> bool:
        """Whether a lattice point satisfies a*h + b*r == c on the exception line."""
        e = self.exception_line
        return e is not None and e.a * point.h + e.b * point.r == e.c

    def integer_points_raw(self) -> list[SkeletalSignature]:
        """Lattice points with h, r >= 0 strictly inside the strip, lexicographic.

        At each h right of the corner, r runs from floor(bottom) + 1 to
        ceil(top) - 1 by integer division on the boundary coefficients.
        """
        ta, tb, tc = self.boundary_lower.a, self.boundary_lower.b, self.boundary_lower.c
        ba, bb, bc = self.boundary_upper.a, self.boundary_upper.b, self.boundary_upper.c
        out: list[SkeletalSignature] = []
        h = math.floor(self.corner.h) + 1
        while tc - ta * h > 0:
            r_lo = max((bc - ba * h) // bb + 1, 0)
            r_hi = -((ta * h - tc) // tb) - 1
            out.extend(SkeletalSignature(h, r) for r in range(r_lo, r_hi + 1))
            h += 1
        return out

    def integer_points(self) -> list[SkeletalSignature]:
        """Raw lattice points with exception-line points removed."""
        return [s for s in self.integer_points_raw() if not self.on_exception_line(s)]

    def exception_points(self) -> list[SkeletalSignature]:
        """Lattice points of the strip lying on the exception line."""
        return [s for s in self.integer_points_raw() if self.on_exception_line(s)]

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
    if _is_prime(n + 1):
        span = "skip"
        up = upper_line(sigma, n + 2)
        corner = RationalPoint(
            Fraction(n * n - n + sigma * (n - 4), n * n - 4),
            Fraction(8 * (sigma - 1), n * n - 4),
        )
        exception = p_group_line(sigma, n + 1, 1)
    else:
        span = "next"
        up = upper_line(sigma, n + 1)
        corner = RationalPoint(
            Fraction((n - 1) ** 2 + sigma * (n - 3), (n - 2) * (n + 1)),
            Fraction(4 * (sigma - 1), (n - 2) * (n + 1)),
        )
        exception = None
    if not (lo.contains(corner) and up.contains(corner)):
        raise AssertionError(f"gap corner {corner} must lie on both boundary lines")
    return GapRegion(sigma, n, span, lo, up, corner, exception)


def nearest_int(x: Coord) -> int:
    """Nearest integer, with exact halves rounded away from zero.

    The in-scope inputs 2*sigma/3 - k have fractional part in {0, 1/3, 2/3},
    so the tie rule never fires there; it is fixed only for totality.
    """
    x = Fraction(x)
    if x >= 0:
        return math.floor(x + Fraction(1, 2))
    return -math.floor(-x + Fraction(1, 2))


def missing_points(sigma: int, h: int) -> list[SkeletalSignature]:
    """Lattice points at quotient genus 2 or 3 that fall in the order-4/6 gap.

    h == 2 needs sigma >= 7 and sigma != 8, and yields one point,
    (2, [2 sigma/3 - 4]); h == 3 needs sigma >= 18 and yields
    (3, [2 sigma/3 - 7]) and (3, [2 sigma/3 - 8]), plus (3, [2 sigma/3 - 6])
    when sigma = 2 mod 3.  Every returned point passes strict gap membership
    (exception line included).  Genus 8 is a genuine counterexample at
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
    points = [
        SkeletalSignature(h, nearest_int(Fraction(2 * sigma, 3) + k)) for k in offsets
    ]
    for s in points:
        if not region.member(RationalPoint(s.h, s.r)):
            where = (
                f"on the order-{region.lower_index + 1} cyclic line {region.exception_line}, "
                f"where the gap guarantee does not hold"
                if region.on_exception_line(s)
                else "outside the order-4/6 gap"
            )
            raise ValueError(
                f"h == {h} has no missing point at genus {sigma}: "
                f"the candidate {tuple(s)} lies {where}"
            )
    return points

