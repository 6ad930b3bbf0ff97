"""Exact Riemann-Hurwitz arithmetic and Diophantine feasibility for skeletal signatures.

No operation ever constructs a float.  A group of order N acting on a surface
of genus sigma >= 2 with signature (h; n_1,...,n_r) satisfies

    sigma - 1 = N * (h - 1 + r/2 - (1/2) * sum(1/n_j)).

Genera are computed over ``fractions.Fraction``.  Every period divides N, so
feasibility is an integer question: with d_j = N/n_j, the point (h, r) is
feasible at order N exactly when T = N(2h - 2 + r) - 2(sigma - 1) is a sum of
r proper divisors d_j of N.  Three exact procedures answer it.
``_period_lists`` lists every period list as a count vector, choosing how
many times each distinct part d_j appears, with each count bounded by what
the smaller parts can still fill; a list costs the number of distinct
periods, not r.  ``part_sum_levels`` answers only yes or no, for every point
of an order at once: bit t of the level bitset S_k is set exactly when t is a
sum of k parts, so (h, r) is feasible exactly when bit T of S_r is set.  A
sweep over orders takes each order's parts from ``order_parts``, one divisor
sieve, in place of trial division per order.  Such a sweep needs the
levels only at composite orders.  A prime order's only part is 1, so there
T = r: its points are the lattice points of its cyclic line.  Above
12(sigma - 1) only (0, 3) is feasible, and
``hurwitz_range_orders`` finds its orders there in closed form, from the
divisors of at most six numbers.  A single point is searched only at the
orders of its ``_order_window``, the one place where the triangle bounds
r <= T <= rN/2 become an order range, and ``_window_lists`` walks that
window, yielding each order that has a period list with the first such list,
each order's divisors read from a cache.
The searches are exhaustive within provable bounds, so a negative answer is
a certificate, not a timeout.
"""

from __future__ import annotations

import functools
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
        self = super().__new__(cls, h, tuple(map(int, periods)))
        if self.h < 0:
            raise ValueError(f"quotient genus must be >= 0, got {self.h}")
        if self.periods and min(self.periods) < 2:
            bad = next(n for n in self.periods if n < 2)
            raise ValueError(f"branching periods must be >= 2, got {bad}")
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
    """Outcome of the generating-vector search, which a budget can interrupt.

    ``not_exists`` is only ever produced after a provably complete enumeration;
    an interrupted search must surface as ``unknown``.  A Riemann-Hurwitz
    answer is never unknown, so it is a plain (order, periods) value or None.
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
    Each call returns a fresh list; the divisors behind it are cached.
    """
    _check_order(order)
    return list(_divisors(order))


@functools.lru_cache(maxsize=1 << 12)
def _divisors(order: int) -> tuple[int, ...]:
    """The divisors >= 2 of ``order``, ascending, by trial division up to its square root.

    The per-point order sweeps ask for the same few orders at every point of a
    window; the cache is bounded, since a sweep of (0, 3) passes 84(sigma - 1) orders.
    A window longer than the cache, as (0, 3) has above sigma = 50, misses at every
    order and pays the cache's bookkeeping on top of the trial division.
    """
    small = [d for d in range(1, math.isqrt(order) + 1) if order % d == 0]
    large = [order // d for d in reversed(small) if d * d != order]
    return (*small[1:], *large)


def is_prime(n: int) -> bool:
    """Whether ``n`` is prime: n >= 2, and its only divisor >= 2 is n."""
    return n >= 2 and allowed_periods(n) == [n]


def order_parts(top: int, lo: int = 2) -> Iterator[tuple[int, list[int]]]:
    """Each order N in lo..top, ascending, with its parts: the divisors d <= N/2 of N, descending.

    The parts are N/n over ``allowed_periods(N)``, found by one divisor sieve in
    place of trial division: each d from top/2 down to 1 joins the list of each
    of its multiples 2d, 3d, ... from lo up to top, so each list comes out
    descending.  ``lo`` is at least 2.
    """
    parts: list[list[int]] = [[] for _ in range(lo, top + 1)]
    for d in range(top // 2, 0, -1):
        for divisible in parts[max(2 * d, -(-lo // d) * d) - lo :: d]:
            divisible.append(d)
    return zip(range(lo, top + 1), parts)


def hurwitz_range_orders(sigma: int) -> list[int]:
    """Orders N with 12(sigma - 1) < N <= 84(sigma - 1) at which (0, 3) is feasible, ascending.

    No other point is feasible there; ``kspace.plane_rows`` shows from the
    triangle rows that only (0, 3) and (0, 4) are feasible above
    4(sigma - 1).  A period list at order N gives N * mu = 2(sigma - 1) with
    mu = 2h - 2 + sum(1 - 1/n_j), so N > 12(sigma - 1) means mu < 1/6.
    Every term 1 - 1/n_j is at least 1/2.  So h >= 2 gives mu >= 2, h = 1
    needs r >= 1 and gives mu >= 1/2, and h = 0 with r >= 5 gives
    mu >= 1/2.  h = 0 with r <= 2, or h = 1 with r = 0, gives mu <= 0.
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
    d_1 + ... + d_r, and a non-decreasing list is fixed by how many times
    each distinct part appears.  So each list is yielded as its count vector,
    one count per entry of ``allowed``, summing to r (``_expand_runs`` of its
    zip with ``allowed`` is the list).  The walk chooses one count per part,
    largest part (smallest period) first and larger counts first,
    which is lexicographic order of the lists; ``_count_lists`` bounds each
    count.  r = 0 yields the zero vector exactly when T = 0.  The walk
    recurses once per distinct period, never once per slot, so its depth and
    the cost of each list are at most ``len(allowed)`` however large r is.
    """
    if allowed or r == 0:
        total = order * (2 * h - 2 + r) - 2 * (sigma - 1)
        parts = [order // n for n in allowed]  # descending, as the periods ascend
        yield from _count_lists(parts, 0, r, total, ())


def _count_lists(
    parts: list[int], i: int, slots: int, t: int, head: tuple[int, ...]
) -> Iterator[tuple[int, ...]]:
    """``head`` extended by the counts of ``parts[i:]`` that fill ``slots`` slots summing to t.

    The count c of the part d = parts[i] runs from high to low.  The slots
    left after it take parts between the next part e and the smallest m, so
    (slots - c) * m <= t - c * d <= (slots - c) * e bounds c on both sides.
    The smallest part must fill every slot left exactly.
    """
    if slots == 0:
        if t == 0:
            yield head + (0,) * (len(parts) - i)
        return
    d, m = parts[i], parts[-1]
    if d == m:
        if d * slots == t:
            yield head + (slots,)
        return
    e = parts[i + 1]
    low = max(0, -((slots * e - t) // (d - e)))
    for c in range(min(slots, (t - slots * m) // (d - m)), low - 1, -1):
        yield from _count_lists(parts, i + 1, slots - c, t - c * d, head + (c,))


def _expand_runs(runs: Iterable[tuple[Any, int]]) -> tuple:
    """The tuple that repeats each run's value its count of times, run by run."""
    return tuple(value for value, count in runs for _ in range(count))


def part_sum_levels(parts: Sequence[int], count: int, top: int) -> list[int]:
    """Bitsets S_0..S_count of the sums of k parts, each cut to the bits 0..top.

    Bit t of S_k is set exactly when t = d_1 + ... + d_k with every d_j in
    ``parts``, repeats allowed: S_0 = 1 holds the empty sum, and S_k is the
    OR over the parts d of S_(k-1) << d.  The parts are positive, so a sum
    only grows as parts are added, and dropping the bits above ``top`` from
    S_(k-1) loses no sum of S_k at or below ``top``.  Its one caller,
    ``kspace.plane_rows``, builds the levels at every composite order it
    sweeps, and above its ``max_order`` only for the triangle rows that
    still hold a point with no order above it.  It cuts them at the largest
    T of those rows, never negative since T >= r >= 0 there.  A prime order
    needs no levels: its only part is 1, so S_k holds k alone.
    """
    mask = (1 << (top + 1)) - 1
    level = 1
    levels = [level]
    for _ in range(count):
        cur = 0
        for d in parts:
            cur |= level << d
        level = cur & mask
        levels.append(level)
    return levels


def _check_point(sigma: int, skel: SkeletalSignature) -> SkeletalSignature:
    """The point with int entries, after the genus, entry and hyperbolicity checks.

    Degenerate skeletal inputs where every signature forces genus <= 1 are
    rejected so "arithmetic says no" stays distinct from "malformed question".
    """
    _check_genus(sigma)
    skel = SkeletalSignature(int(skel[0]), int(skel[1]))
    if skel.h < 0 or skel.r < 0:
        raise ValueError(f"skeletal signature entries must be >= 0, got {skel}")
    if skel in ((0, 0), (0, 1), (0, 2), (1, 0)):
        raise HyperbolicityError(
            f"hyperbolicity violated: skeletal signature {tuple(skel)} admits no genus >= 2 action"
        )
    return skel


def _order_window(sigma: int, h: int, r: int) -> range:
    """The orders up to the provable cap whose closed triangle holds (h, r), ascending.

    Every part d_j = N/n_j lies in [1, N/2], so a period list exists at
    order N only if r <= T <= rN/2 with T = N(2h - 2 + r) - 2(sigma - 1):
    T >= r is the lower line and T <= rN/2 the upper line.  Solved for N,
    that is (2(sigma - 1) + r)/(2h - 2 + r) <= N <= 4(sigma - 1)/(4h - 4 + r)
    when the divisors are positive.  A slope 2h - 2 + r <= 0 leaves
    T <= -2(sigma - 1) < 0 at every order, so the window is empty; only the
    points ``_check_point`` rejects have it.  The cap on orders admitting
    any period list is sigma - 1 for h >= 2 (the genus-minus-one bound),
    4(sigma - 1) for h == 1 (the quarter bracket of a single period-2 branch
    point) and 84(sigma - 1) for h == 0 (the classical 1/84 minimum of the
    hyperbolic bracket).  Where the upper line bounds N it lies within the
    cap: 4(sigma - 1)/(4h - 4 + r) is at most sigma - 1 for h >= 2 and at
    most 4(sigma - 1) for h <= 1.  So the cap bounds N only where the upper
    line does not, at h = 0 with r = 3 or 4.  This is the one place where
    the triangle bounds become an order range.
    """
    slope = 2 * h - 2 + r
    if slope <= 0:
        return range(0)
    lo = max(2, -(-(2 * (sigma - 1) + r) // slope))
    if 4 * h - 4 + r > 0:
        return range(lo, 4 * (sigma - 1) // (4 * h - 4 + r) + 1)
    return range(lo, 84 * (sigma - 1) + 1)


def _window_lists(sigma: int, h: int, r: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(order, canonical periods) at each order of ``_order_window`` with a period list.

    The orders ascend.  The canonical periods are the first list
    ``_period_lists`` yields over the order's divisors, the lexicographically
    first.  The caller has checked the point; ``next(..., None)`` is its
    first solution or None.
    """
    for order in _order_window(sigma, h, r):
        allowed = allowed_periods(order)
        for counts in _period_lists(sigma, h, r, order, allowed):
            yield order, _expand_runs(zip(allowed, counts))
            break


def feasible_orders(
    sigma: int, skel: SkeletalSignature
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """All (order, canonical periods) pairs feasible at this point, ascending in order.

    The point is checked when this is called; then ``_window_lists`` walks
    the ``_order_window`` once.  No order outside the window has r parts in
    [1, N/2] summing to T, so skipping those orders drops no solution and an
    empty sweep still certifies ``not-exists`` at every order up to the cap.
    """
    h, r = _check_point(sigma, skel)
    return _window_lists(sigma, h, r)
