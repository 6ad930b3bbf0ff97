"""Checks made apart from skelsig: integer Riemann-Hurwitz, gap lattice points, witnesses.

Nothing here imports the program's arithmetic or geometry.  Multiplying the
Riemann-Hurwitz formula by N and writing d_j = N / n_j gives its integer form:
(h, r) is feasible at order N exactly when

    T = N (2h - 2 + r) - 2 (sigma - 1)

is a sum of exactly r proper divisors of N (a proper divisor d < N is
N / n for a period n >= 2 dividing N).  Sums of r divisors are kept as a
Python-int bitset, one level per r.
"""

from __future__ import annotations

from typing import Iterator


def proper_divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return [d for d in small + large[::-1] if d < n]


def _levels(divs: list[int], top: int) -> list[int]:
    """levels[k] has bit t set iff t is a sum of exactly k entries of ``divs``."""
    levels = [1]
    for _ in range(top):
        prev = levels[-1]
        cur = 0
        for d in divs:
            cur |= prev << d
        levels.append(cur)
    return levels


def admissible_orders(sigma: int, h_max: int, r_max: int) -> dict[tuple[int, int], list[int]]:
    """Every (h, r) in the box feasible at some order, with all its feasible orders.

    Orders run to the Hurwitz cap 84 (sigma - 1).  For r branch points every
    d_j <= N / 2, so T <= r N / 2, which at h = 0 caps r at 4 + 4 (sigma - 1) / N.
    """
    found: dict[tuple[int, int], list[int]] = {}
    for n in range(2, 84 * (sigma - 1) + 1):
        divs = proper_divisors(n)
        top = min(r_max, 4 + 4 * (sigma - 1) // n)
        levels = _levels(divs, top)
        for r in range(top + 1):
            cap = r * divs[-1]
            for h in range(h_max + 1):
                t = n * (2 * h - 2 + r) - 2 * (sigma - 1)
                if t > cap:
                    break
                if t >= 0 and levels[r] >> t & 1:
                    found.setdefault((h, r), []).append(n)
    return found


def point_orders(sigma: int, h: int, r: int) -> list[int]:
    """Feasible orders of one point, swept to the Hurwitz cap."""
    out = []
    for n in range(2, 84 * (sigma - 1) + 1):
        t = n * (2 * h - 2 + r) - 2 * (sigma - 1)
        if t < r:
            continue
        if 2 * t > r * n and 4 * h - 4 + r > 0:
            break  # every d <= N / 2, and T - r N / 2 grows with N from here on
        divs = proper_divisors(n)
        if t > r * divs[-1]:
            continue
        if _levels(divs, r)[r] >> t & 1:
            out.append(n)
    return out


def period_lists(sigma: int, h: int, r: int, n: int) -> Iterator[tuple[int, ...]]:
    """Every non-decreasing period list satisfying Riemann-Hurwitz at order n, lexicographically."""
    divs = proper_divisors(n)

    def fill(rest: int, slots: int, cap: int) -> Iterator[tuple[int, ...]]:
        if slots == 0:
            if rest == 0:
                yield ()
            return
        usable = [d for d in divs if d <= cap]
        if rest < slots or not usable or not _levels(usable, slots)[slots] >> rest & 1:
            return
        for d in reversed(usable):  # the largest d is the smallest period
            for tail in fill(rest - d, slots - 1, d):
                yield (n // d,) + tail

    yield from fill(n * (2 * h - 2 + r) - 2 * (sigma - 1), r, n - 1)


def gap_lattice_points(sigma: int, n: int) -> tuple[list[tuple[int, int]], int | None]:
    """Lattice points strictly inside the gap right of the order-n triangle.

    The gap lies strictly below the order-n lower line 2n h + (n-1) r = 2(sigma-1) + 2n
    and strictly above the order-m upper line 4m h + m r = 4(m + sigma - 1), where
    m = n + 1, or n + 2 when n + 1 is prime; then the order-(n+1) cyclic line
    2p h + (p-1) r = 2p - 2 + 2 sigma is its exception line, and p is returned.
    The upper line is the steeper one, so both strict inequalities together
    already confine the points to the right of the corner.
    """
    p = n + 1
    prime = is_prime(p)
    m = n + 2 if prime else n + 1
    pts = []
    for h in range(0, (sigma - 1 + n) // n + 1):
        for r in range(0, 2 * sigma + 3):
            if 2 * n * h + (n - 1) * r >= 2 * (sigma - 1) + 2 * n:
                break
            if 4 * m * h + m * r > 4 * (m + sigma - 1):
                pts.append((h, r))
    return pts, (p if prime else None)


def on_cyclic_line(sigma: int, p: int, h: int, r: int) -> bool:
    return 2 * p * h + (p - 1) * r == 2 * p - 2 + 2 * sigma


def check_group(table: list[list[int]]) -> str | None:
    """None when the table is a group with identity 0; else what is wrong."""
    n = len(table)
    full = set(range(n))
    if any(len(row) != n or set(row) != full for row in table):
        return "rows are not permutations"
    if any({table[i][j] for i in range(n)} != full for j in range(n)):
        return "columns are not permutations"
    if any(table[0][i] != i or table[i][0] != i for i in range(n)):
        return "0 is not the identity"
    for a in range(n):
        ra = table[a]
        for b in range(n):
            rab = table[ra[b]]
            rb = table[b]
            for c in range(n):
                if rab[c] != ra[rb[c]]:
                    return f"not associative at {(a, b, c)}"
    return None


def check_witness(sigma: int, point: tuple[int, int], witness: dict, table: list[list[int]]) -> str | None:
    """None when the witness is an (h; n_1..n_r)-generating vector realizing the point.

    Conditions: (1) the entries generate the group, (2) c_j has order n_j,
    (3) [a_1,b_1]...[a_h,b_h] c_1...c_r = e with [a, b] = a^-1 b^-1 a b; and
    Riemann-Hurwitz holds in integers with every n_j dividing |G|.
    """
    bad = check_group(table)
    if bad:
        return f"{witness['group']}: {bad}"
    order = len(table)
    h, periods = witness["signature"]["h"], witness["signature"]["periods"]
    pairs, cs = witness["vector"]["aPairs"], witness["vector"]["c"]
    if (h, len(periods)) != tuple(point) or len(pairs) != h or len(cs) != len(periods):
        return "witness shape does not match the point"
    if any(p < 2 or order % p for p in periods):
        return "a period does not divide the group order"
    if order * (2 * h - 2 + len(periods)) - sum(order // p for p in periods) != 2 * (sigma - 1):
        return "Riemann-Hurwitz fails"
    inv = [row.index(0) for row in table]
    orders = element_orders(table)
    if any(orders[c] != p for c, p in zip(cs, periods)):
        return "a branch entry has the wrong order"
    prod = 0
    for a, b in pairs:
        prod = table[prod][table[table[inv[a]][inv[b]]][table[a][b]]]
    for c in cs:
        prod = table[prod][c]
    if prod != 0:
        return "the product relation fails"
    gens = [x for pair in pairs for x in pair] + list(cs)
    seen, frontier = {0}, [0]
    while frontier:
        frontier = [table[x][g] for x in frontier for g in gens if table[x][g] not in seen]
        seen.update(frontier)
    if len(seen) != order:
        return "the entries do not generate the group"
    return None


def element_orders(table: list[list[int]]) -> list[int]:
    out = []
    for x in range(len(table)):
        k, y = 1, x
        while y != 0:
            y, k = table[y][x], k + 1
        out.append(k)
    return out


# number of groups of each order 1..15, up to isomorphism
GROUP_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2, 10: 2, 11: 1, 12: 5, 13: 1,
                14: 2, 15: 1}


def is_abelian(table: list[list[int]]) -> bool:
    n = len(table)
    return all(table[a][b] == table[b][a] for a in range(n) for b in range(a))


def is_prime(n: int) -> bool:
    return n > 1 and all(n % q for q in range(2, int(n**0.5) + 1))


def check_group_list(order: int, tables: list[list[list[int]]]) -> str | None:
    """None when ``tables`` are all the groups of ``order``, each once; else what is wrong.

    Up to order 15 the sorted element orders and whether the group is abelian
    tell any two groups of the same order apart, so the tables must give
    GROUP_COUNTS[order] distinct such profiles; a prime order has one group.
    """
    count = 1 if is_prime(order) else GROUP_COUNTS.get(order)
    if count is None:
        return f"no known group count at order {order}"
    for table in tables:
        bad = check_group(table)
        if bad or len(table) != order:
            return f"a table of order {order}: {bad or f'has {len(table)} elements'}"
    profiles = {(tuple(sorted(element_orders(t))), is_abelian(t)) for t in tables}
    if len(tables) != count or len(profiles) != len(tables):
        return f"order {order}: {len(tables)} tables, {len(profiles)} distinct, {count} groups exist"
    return None


def excluded_by_rules(sigma: int, point: tuple[int, int], orders: list[int], groups: dict) -> str | None:
    """None when no group of the listed orders can realize the point; else why not shown.

    ``groups`` maps each order to the tables of all its groups, which are
    first checked with ``check_group_list``.  A (group, periods) pair is
    closed by one of three facts: some n_j is not an element order; r = 1 in
    an abelian group (c_1 would be a product of commutators, hence e); r = 2
    in an abelian group with n_1 != n_2 (c_2 = c_1^-1).
    """
    h, r = point
    for n in orders:
        if n not in groups:
            return f"no complete group list at order {n}"
        bad = check_group_list(n, groups[n])
        if bad:
            return bad
        for table in groups[n]:
            present = set(element_orders(table))
            abelian = is_abelian(table)
            for periods in period_lists(sigma, h, r, n):
                if not set(periods) <= present:
                    continue
                if abelian and (r == 1 or (r == 2 and periods[0] != periods[1])):
                    continue
                return f"order {n}, periods {periods} not closed by a rule"
    return None
