"""Exact Riemann-Hurwitz arithmetic and Diophantine feasibility for skeletal signatures.

No operation ever constructs a float.  A group of order N acting on a surface
of genus sigma >= 2 with signature (h; n_1,...,n_r) satisfies

    sigma - 1 = N * (h - 1 + r/2 - (1/2) * sum(1/n_j)).

Genera are computed over ``fractions.Fraction``.  Every period divides N, so
feasibility is an integer question: with d_j = N/n_j, the point (h, r) is
feasible at order N exactly when T = N(2h - 2 + r) - 2(sigma - 1) is a sum of
r proper divisors d_j of N.  Three exact procedures answer it.
``_period_lists`` lists every period list, by a branch-and-bound over the
parts d_j.  ``part_sum_levels`` answers only yes or no, for every point of an
order at once: bit t of the level bitset S_k is set exactly when t is a sum of
k parts, so (h, r) is feasible exactly when bit T of S_r is set, or, one level
lower, when bit T - d of S_(r-1) is set for some part d <= T.  A sweep over
orders takes each order's parts from ``order_parts``, one divisor sieve, in
place of trial division per order.  Such a sweep need only run to
12(sigma - 1): above it only (0, 3) is feasible, and
``hurwitz_range_orders`` finds its orders there in closed form, from the
divisors of at most six numbers.  The searches are exhaustive within
provable bounds, so a negative answer is a certificate, not a timeout.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Iterable, Iterator, NamedTuple, Sequence


class HyperbolicityError(ValueError):
    """Raised for skeletal inputs that force genus <= 1, where no search is meaningful."""


class SkeletalSignature(NamedTuple):
    """Quotient genus and branch-point count, stripped of the branching orders."""

    h: int
    r: int


class _OrbifoldSignatureFields(NamedTuple):
    h: int
    periods: tuple[int, ...]


class OrbifoldSignature(_OrbifoldSignatureFields):
    """Quotient genus plus the ordered branching periods of an orbifold covering."""

    __slots__ = ()

    def __new__(cls, h: int, periods: Iterable[int] = ()) -> "OrbifoldSignature":
        self = super().__new__(cls, h, tuple(int(n) for n in periods))
        if self.h < 0:
            raise ValueError(f"quotient genus must be >= 0, got {self.h}")
        for n in self.periods:
            if n < 2:
                raise ValueError(f"branching periods must be >= 2, got {n}")
        return self

    @property
    def r(self) -> int:
        return len(self.periods)

    @property
    def skeletal(self) -> SkeletalSignature:
        return SkeletalSignature(self.h, self.r)

    def __str__(self) -> str:
        return f"({self.h};{','.join(str(n) for n in self.periods)})"


class SearchVerdict(NamedTuple):
    """Outcome of an exhaustive search.

    ``not_exists`` is only ever produced after a provably complete enumeration;
    an interrupted search must surface as ``unknown``.
    """

    status: str
    witness: Any = None

    EXISTS = "exists"
    NOT_EXISTS = "not-exists"
    UNKNOWN = "unknown"

    @classmethod
    def exists(cls, witness: Any) -> "SearchVerdict":
        return cls(cls.EXISTS, witness)

    @classmethod
    def not_exists(cls) -> "SearchVerdict":
        return cls(cls.NOT_EXISTS)

    @classmethod
    def unknown(cls) -> "SearchVerdict":
        return cls(cls.UNKNOWN)

    @property
    def is_exists(self) -> bool:
        return self.status == self.EXISTS

    @property
    def is_not_exists(self) -> bool:
        return self.status == self.NOT_EXISTS

    @property
    def is_unknown(self) -> bool:
        return self.status == self.UNKNOWN


def _check_genus(sigma: int) -> None:
    if sigma < 2:
        raise ValueError(f"genus must be >= 2, got {sigma}")


def _check_order(order: int) -> None:
    if order < 2:
        raise ValueError(f"group order must be >= 2, got {order}")


def _check_skeletal(skel: SkeletalSignature) -> SkeletalSignature:
    skel = SkeletalSignature(int(skel[0]), int(skel[1]))
    if skel.h < 0 or skel.r < 0:
        raise ValueError(f"skeletal signature entries must be >= 0, got {skel}")
    return skel


def rh_genus(order: int, sig: OrbifoldSignature) -> Fraction:
    """Genus forced by the Riemann-Hurwitz formula, as an exact rational.

    Callers decide integrality; ``order`` == 1 is accepted so the trivial
    group composes with catalog machinery.
    """
    if order < 1:
        raise ValueError(f"group order must be >= 1, got {order}")
    recip = sum((Fraction(1, n) for n in sig.periods), Fraction(0))
    return 1 + order * (sig.h - 1 + Fraction(sig.r, 2) - recip / 2)


def rh_holds(sigma: int, order: int, sig: OrbifoldSignature) -> bool:
    """True iff the formula yields exactly ``sigma`` (exact rational comparison)."""
    _check_genus(sigma)
    return rh_genus(order, sig) == sigma


def allowed_periods(order: int) -> list[int]:
    """Candidate branching periods for a group of this order: its divisors >= 2, ascending.

    Element orders divide the group order, so this keeps feasibility a true
    superset of realizability while collapsing prime orders to a single period.
    """
    _check_order(order)
    small = [d for d in range(1, math.isqrt(order) + 1) if order % d == 0]
    large = [order // d for d in reversed(small) if d * d != order]
    return small[1:] + large


def order_parts(top: int) -> Iterator[tuple[int, list[int]]]:
    """Each order N in 2..top, ascending, with its parts: the divisors d <= N/2 of N, descending.

    The parts are N/n over ``allowed_periods(N)``, found by an incremental
    sieve in place of trial division: each d waits in a dict at its next
    multiple and moves on by d when that multiple is reached, and N itself
    first waits at 2N.  A d whose next multiple passes ``top`` is dropped, so
    at most top/2 divisors are held at once.  A divisor d joins the list of
    m while m - d is swept, so larger divisors join first and each list comes
    out descending.
    """
    waiting: dict[int, list[int]] = {2: [1]}
    for n in range(2, top + 1):
        parts = waiting.pop(n)
        yield n, parts
        for d in (n, *parts):
            if n + d <= top:
                waiting.setdefault(n + d, []).append(d)


def hurwitz_range_orders(sigma: int) -> list[int]:
    """Orders N with 12(sigma - 1) < N <= 84(sigma - 1) at which (0, 3) is feasible, ascending.

    No other point is feasible there.  A period list at order N gives
    N * mu = 2(sigma - 1) with mu = 2h - 2 + sum(1 - 1/n_j), so N > 12(sigma - 1)
    means mu < 1/6.  Every term 1 - 1/n_j is at least 1/2.  So h >= 2 gives
    mu >= 2, h = 1 needs r >= 1 and gives mu >= 1/2, and h = 0 with r >= 5
    gives mu >= 1/2.  h = 0 with r <= 2, or h = 1 with r = 0, gives mu <= 0.
    h = 0 with r = 4 gives mu = 2 - sum(1/n_j) > 0, so the periods are not
    all 2, and mu >= 2 - (3/2 + 1/3) = 1/6, which (0; 2, 2, 2, 3) attains.
    That leaves (0, 3).

    The orders of (0, 3) follow in closed form.  Take periods a <= b <= c.
    The parts sum to T = N - 2(sigma - 1) > 5N/6, so 1/a + 1/b + 1/c > 5/6:
    3/a > 5/6 gives a in {2, 3}, and 2/b > 5/6 - 1/a >= 1/3 gives b <= 5.
    Multiplying 2(sigma - 1) = N(1 - 1/a - 1/b - 1/c) by abc gives
    e * (N/c) = 2ab(sigma - 1) with k = ab - a - b and e = ck - ab.  Here
    e > 0 since sigma >= 2, so k > 0 too, which drops a = b = 2.  N/c is an
    integer, so e divides 2ab(sigma - 1).  Each divisor e then fixes
    c = (e + ab)/k and N = c * 2ab(sigma - 1)/e, kept when c is an integer
    >= b, a and b divide N, and N is in range; c divides N by construction.
    Conversely a kept N satisfies the identity, so (a, b, c) is a period list
    at N.  Only the divisors of the at most six numbers 2ab(sigma - 1) are
    computed, never those of an order.
    """
    _check_genus(sigma)
    lo, hi = 12 * (sigma - 1), 84 * (sigma - 1)
    found: set[int] = set()
    for a in (2, 3):
        for b in range(a, 6):
            k, m = a * b - a - b, 2 * a * b * (sigma - 1)
            if k <= 0:
                continue
            for e in (1, *allowed_periods(m)):
                c, rest = divmod(e + a * b, k)
                n = c * (m // e)
                if not rest and c >= b and n % a == 0 and n % b == 0 and lo < n <= hi:
                    found.add(n)
    return sorted(found)


def _period_lists(
    sigma: int, h: int, r: int, order: int, allowed: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    """Every non-decreasing period list over ``allowed`` satisfying Riemann-Hurwitz, lexicographically.

    ``allowed`` holds distinct divisors >= 2 of ``order``, ascending.  With
    d_j = N/n_j the formula becomes T = N(2h - 2 + r) - 2(sigma - 1) =
    d_1 + ... + d_r, so the walk is a branch-and-bound over integer parts,
    largest part (smallest period) first: a part too small to fill the open
    slots ends the slot, a part that leaves nothing for the other slots is
    skipped, and the last slot must equal a part exactly.  r = 0 yields ()
    exactly when T = 0.  The walk keeps its path as a stack of part indices,
    so r may exceed Python's recursion limit.
    """
    total = order * (2 * h - 2 + r) - 2 * (sigma - 1)
    if r == 0:
        if total == 0:
            yield ()
        return
    if total <= 0 or not allowed:
        return
    parts = [order // n for n in allowed]  # descending, as the periods ascend
    index = {d: i for i, d in enumerate(parts)}
    smallest = parts[-1]
    chosen: list[int] = []  # part indices of the filled slots, non-decreasing
    t, i = total, 0  # what the open slots must sum to; the next part index for the first
    while True:
        slots = r - len(chosen)
        if slots == 1:
            # t never exceeds the part before it, so the list stays non-decreasing: r = 1
            # starts at the largest part, and the slot before took d with 2d >= d + t
            if t in index:
                yield tuple(allowed[j] for j in chosen) + (allowed[index[t]],)
        elif t >= slots * smallest:  # else even the smallest parts overshoot t
            while i < len(parts) and parts[i] >= t:
                i += 1  # the slots after this one need a positive share
            # a part with d * slots < t ends the slot: the parts after it are smaller still
            if i < len(parts) and parts[i] * slots >= t:
                chosen.append(i)
                t -= parts[i]
                continue
        if not chosen:
            return
        i = chosen.pop()  # reopen the slot before at its next part
        t += parts[i]
        i += 1


def part_sum_levels(parts: Sequence[int], count: int, top: int) -> list[int]:
    """Bitsets S_0..S_count of the sums of k parts, each cut to the bits 0..top.

    Bit t of S_k is set exactly when t = d_1 + ... + d_k with every d_j in
    ``parts``, repeats allowed: S_0 = 1 holds the empty sum, and S_k is the
    OR over the parts d of S_(k-1) << d.  The parts are positive, so a sum
    only grows as parts are added, and dropping the bits above ``top`` from
    S_(k-1) loses no sum of S_k at or below ``top``.  For a triangle point
    T >= r >= 0, so a caller's ``top``, the largest T, is never negative.
    """
    mask = (1 << (top + 1)) - 1
    levels = [1]
    for _ in range(count):
        prev, cur = levels[-1], 0
        for d in parts:
            cur |= prev << d
        levels.append(cur & mask)
    return levels


def order_bound(sigma: int, skel: SkeletalSignature) -> int:
    """Provable cap on group orders admitting a feasible period list at this point.

    h >= 2: the genus-minus-one bound; h == 1: the quarter bracket of a single
    period-2 branch point; h == 0: the classical 1/84 minimum of the hyperbolic
    bracket.  Degenerate skeletal inputs where every signature forces genus <= 1
    are rejected so "arithmetic says no" stays distinct from "malformed question".
    """
    _check_genus(sigma)
    h, r = _check_skeletal(skel)
    if (h, r) in ((0, 0), (0, 1), (0, 2), (1, 0)):
        raise HyperbolicityError(
            f"hyperbolicity violated: skeletal signature {(h, r)} admits no genus >= 2 action"
        )
    if h >= 2:
        return sigma - 1
    if h == 1:
        return 4 * (sigma - 1)
    return 84 * (sigma - 1)


def feasible_orders(
    sigma: int, skel: SkeletalSignature
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """All (order, canonical periods) pairs feasible at this point, ascending in order.

    The canonical periods are the first list ``_period_lists`` yields over
    the order's divisors, the lexicographically first.  Only the orders
    whose closed feasibility triangle holds the point are searched.  Every
    part d_j = N/n_j lies in [1, N/2], so a period list exists at order N
    only if r <= T <= rN/2 with T = N(2h - 2 + r) - 2(sigma - 1):
    T >= r is the lower line and T <= rN/2 the upper line.  Solved for N,
    that is (2(sigma - 1) + r)/(2h - 2 + r) <= N <= 4(sigma - 1)/(4h - 4 + r)
    when the divisors are positive.  Outside that range no r parts in
    [1, N/2] sum to T, so skipping those orders drops no solution and an empty
    sweep still certifies ``not-exists`` at every order up to ``order_bound``.
    """
    bound = order_bound(sigma, skel)
    h, r = _check_skeletal(skel)
    slope = 2 * h - 2 + r
    if slope <= 0:
        return  # T <= -2(sigma - 1) < 0 at every order; order_bound rejects all such points
    lo = max(2, -(-(2 * (sigma - 1) + r) // slope))
    hi = bound
    if 4 * h - 4 + r > 0:
        hi = min(hi, 4 * (sigma - 1) // (4 * h - 4 + r))
    for order in range(lo, hi + 1):
        first = next(_period_lists(sigma, h, r, order, allowed_periods(order)), None)
        if first is not None:
            yield order, first


def rh_admissible(sigma: int, skel: SkeletalSignature) -> SearchVerdict:
    """Smallest-order Riemann-Hurwitz witness for a skeletal signature, or a certified no.

    ``not_exists`` means no order up to the provable bound admits any period
    list, so the point lies outside the admissible region entirely.
    """
    for order, periods in feasible_orders(sigma, skel):
        return SearchVerdict.exists((order, periods))
    return SearchVerdict.not_exists()
