"""Generating vectors: verification, exhaustive search, and realizability.

A group G acts on a genus-sigma surface with signature (h; n_1..n_r) iff the
Riemann-Hurwitz formula holds and G has an (h; n_1..n_r)-generating vector
(a_1, b_1, ..., a_h, b_h, c_1, ..., c_r) satisfying

  (1) the entries generate G,
  (2) c_j has order n_j,
  (3) [a_1,b_1]...[a_h,b_h] c_1...c_r = identity,

with the commutator convention [a, b] = a^-1 b^-1 a b fixed once here and in
``GroupTable.commutator``.  ``search`` first asks whether condition (3) can
hold at all with generation ignored (``product_reachable``: some product of
branch entries of the right orders is the inverse of a product of h
commutators), then walks the tuples with two sound prunes (candidate c_j
restricted by order, the last c forced by condition (3)); no symmetry
reduction is applied, so a negative verdict is a certificate.  That filter
is a statement about normal subsets: the elements of one order, their
products and the products of h commutators are all unions of conjugacy
classes, and products of normal subsets commute.  So it runs on class
masks, one memoized step per distinct period, as in Breuer, *Characters
and Automorphism Groups of Compact Riemann Surfaces* (2000).

``realizable`` walks the group's period lists once, in walk order, each as a
count vector over the group's element orders: it checks each against the
exact integer Riemann-Hurwitz identity, runs the product filter on its
counts once, walks the tuples of only the lists the filter lets through,
each still as its counts, and stops at the first witness.  Only then does it
name the rule behind a negative verdict:
``arithmetic`` (no period list over the group's element orders),
``abelian-r1`` and ``commutator-r1`` (the filter let no list with r = 1
through: c_1 would be the inverse of a product of h commutators, and no
element of its order is one; in an abelian group that product is always e),
``product-unreachable`` (the same for r >= 2), or ``exhausted-search``.
``kspace._decide`` adds the order-level rule ``cyclic-forced``.

The filter and the tuple walk take the periods as (period, count) runs; the
walk's first candidate, the witness at 266 of 302 points at genus 48, costs
one power per run.  Its ``Witness`` is the one form of a generating vector
here, its lists kept as runs: ``search`` returns it, ``verify`` checks it run
by run, and ``to_json`` gives it as a dict tree whose lists are ``Runs``, the
runs themselves.  Reports embed that tree; ``cli._write_json`` alone lays it
out, each run's value rendered once and repeated.
"""

from __future__ import annotations

import functools
from typing import Iterable, NamedTuple

from .groups import GroupTable, build_generalized_quaternion, quaternion_word
from .rh import (
    OrbifoldSignature,
    SearchVerdict,
    SkeletalSignature,
    _expand_runs,
    _period_lists,
)

DEFAULT_BUDGET = 10**8


class JsonText(str):
    """One or more list items as ``json.dumps(x, indent=2)`` writes each ``x`` at the top
    level, joined by ",\\n".

    The library makes it only for a run of certified gap points in one row, under 200
    bytes a point.  ``cli._write_json`` indents it to any depth at its line breaks, which
    JSON text has only in its layout; a text of several items belongs in a list.
    """

    __slots__ = ()


class Runs(tuple):
    """A JSON list as (value, count) runs, counts positive; ``cli._write_json`` repeats each."""

    __slots__ = ()


def _runs_of(runs: Iterable[tuple]) -> tuple:
    """(value, count) ``runs`` with empty runs dropped and neighbours of equal value merged."""
    out: list = []
    for v, k in runs:
        if out and out[-1][0] == v:
            out[-1] = (v, out[-1][1] + k)
        elif k:
            out.append((v, k))
    return tuple(out)


class Witness(NamedTuple):
    """A generating vector with its group and periods, each list as (value, count) runs.

    The one form of a vector: the walk builds it, ``verify`` checks it and the
    writer lays it out, each a run at a time.  Counts are positive and the pairs'
    counts sum to h.  ``signature`` expands the periods; ``to_json`` is the whole
    witness as a dict tree, with a quaternion group's words, and ``vector_json``
    the vector alone, each list in them the ``Runs`` it is kept as.
    """

    group_name: str
    group_spec: str | None
    periods: tuple[tuple[int, int], ...]
    pairs: tuple[tuple[tuple[int, int], int], ...]
    entries: tuple[tuple[int, int], ...]

    @property
    def signature(self) -> OrbifoldSignature:
        return OrbifoldSignature(sum(k for _, k in self.pairs), _expand_runs(self.periods))

    def vector_json(self) -> dict:
        return {"aPairs": Runs(self.pairs), "c": Runs(self.entries)}

    def to_json(self) -> dict:
        spec, pairs = self.group_spec, self.pairs
        out = {
            "group": self.group_name,
            "spec": spec,
            "signature": {"h": sum(k for _, k in pairs), "periods": Runs(self.periods)},
            "vector": self.vector_json(),
        }
        if spec and spec.startswith("quaternion:"):
            n = int(spec.partition(":")[2])
            word = functools.partial(quaternion_word, n)
            out["words"] = {
                "aPairs": Runs([(tuple(map(word, ab)), k) for ab, k in pairs]),
                "c": Runs([(word(c), k) for c, k in self.entries]),
            }
        return out


def verify(group: GroupTable, witness: Witness) -> bool:
    """Whether ``witness`` holds an (h; n_1..n_r)-generating vector of ``group``.

    Branch entries that differ from the periods in number raise ``ValueError``.
    Otherwise the checks run cheapest first, on the runs, and stop at the first
    failure: the orders (2), over the period and entry runs side by side; the
    product (3), a run of k equal factors x as x^k by repeated squaring; then
    generation (1), by each run's elements once.
    """
    periods, pairs, entries = witness.periods, witness.pairs, witness.entries
    r = sum(k for _, k in entries)
    if r != sum(k for _, k in periods):
        raise ValueError(
            f"vector shape ({sum(k for _, k in pairs)} pairs, {r} branch entries) "
            f"does not match signature {witness.signature}"
        )
    orders, runs, left = group.element_orders, iter(entries), 0
    for n, k in periods:
        while k:
            if not left:
                c, left = next(runs)
            if orders[c] != n:
                return False
            step = min(k, left)
            k, left = k - step, left - step
    table = group.table
    prod = 0
    for x, k in [(group.commutator(a, b), k) for (a, b), k in pairs] + [*entries]:
        while k:
            if k & 1:
                prod = table[prod][x]
            x, k = table[x][x], k >> 1
    return prod == 0 and group.generates(
        [x for ab, _ in pairs for x in ab] + [c for c, _ in entries]
    )


def search(
    group: GroupTable, sig: OrbifoldSignature, budget: int = DEFAULT_BUDGET
) -> SearchVerdict:
    """Exhaustive generating-vector search; the first ``Witness`` in ascending index order.

    ``not_exists`` is only returned when ``product_reachable`` rules the
    signature out, which needs no enumeration, or when ``_walk_tuples``
    enumerated the pruned space in full; exceeding ``budget`` (counted in
    candidate tuples examined) yields ``unknown``.  Verdicts are deterministic.
    """
    runs = _runs_of((n, 1) for n in sig.periods)
    if not product_reachable(group, sig.h, runs):
        return SearchVerdict.not_exists()
    return _walk_tuples(group, sig.h, runs, budget)


def _walk_tuples(group: GroupTable, h: int, runs: Iterable, budget: int) -> SearchVerdict:
    """The tuple walk behind ``search`` and ``realizable``: the first ``Witness``, or none.

    ``runs`` are (period, count), each period with elements of its order, as the
    product filter ensures.  Candidates (a_1, b_1, ..., a_h, b_h, c_1, ..., c_(r-1))
    come in lexicographic order, c_r forced by (3), each counted against ``budget``.
    The first is the lex-first tuple: the first a-tuple is all e, and each free c_j
    the least element x of its order n, so its product is one power x^(k mod n) per
    run of k.  If it fails, an odometer goes on over h pair slots (choice i is the
    pair divmod(i, |G|)) and r - 1 branch slots, keeping each prefix's product.
    """
    n, table, inv, orders = group.order, group.table, group.inverse, group.element_orders
    runs = _runs_of(runs)
    last = runs[-1][0] if runs else None
    free = [(group.elements_by_order[p], k) for p, k in runs]
    if runs:
        free[-1] = (free[-1][0], free[-1][1] - 1)  # c_r is forced
    prod, entries = 0, [(cs[0], k) for cs, k in free if k]
    for x, k in entries:
        for _ in range(k % orders[x]):
            prod = table[prod][x]
    pairs, slots, examined = (((0, 0), h),) if h else (), None, 0
    while True:
        examined += 1
        if examined > budget:
            return SearchVerdict.unknown()
        c_last = inv[prod]
        if orders[c_last] == last if runs else not prod:
            if slots is not None:  # a later candidate, read off the odometer
                pairs = _runs_of((divmod(i, n), 1) for i in choice[:h])
                entries = [(cs[i], 1) for cs, i in zip(slots[h:], choice[h:])]
            c = _runs_of(entries + [(c_last, 1)] * bool(runs))
            if group.generates([x for ab, _ in pairs for x in ab] + [x for x, _ in c]):
                return SearchVerdict.exists(Witness(group.name, group.spec, runs, pairs, c))
        if slots is None:  # the first candidate failed: go on entry by entry
            slots = [None] * h + [cs for cs, k in free for _ in range(k)]
            sizes = [n * n] * h + [len(cs) for cs in slots[h:]]
            choice, prefix = [0] * len(slots), [0] * (h + 1)
            for cs in slots[h:]:
                prefix.append(table[prefix[-1]][cs[0]])
        j = len(slots) - 1
        while j >= 0 and choice[j] == sizes[j] - 1:
            choice[j] = 0
            j -= 1
        if j < 0:
            return SearchVerdict.not_exists()
        choice[j] += 1
        for t in range(j, len(slots)):
            cs = slots[t]
            x = group.commutator(*divmod(choice[t], n)) if cs is None else cs[choice[t]]
            prefix[t + 1] = table[prefix[t]][x]
        prod = prefix[-1]


def quaternion_vector(n: int, h: int) -> tuple[GroupTable, Witness]:
    """The order-4n generalized quaternion group and its witness at quotient genus h, verified.

    The vector is (x, y, e, ..., e, x^2): [x, y] = x^-2 under the fixed
    convention, x^2 has order n, and x, y generate, so it is an
    (h; n)-generating vector and the group acts on a surface of genus
    2n(2(h-1)+1) - 1.
    """
    if n < 2:
        raise ValueError(f"quaternion parameter must be >= 2, got {n}")
    if h < 1:
        raise ValueError(f"quotient genus must be >= 1, got {h}")
    group = build_generalized_quaternion(n)
    x, y, x_sq = 1, 2 * n, 2
    pairs = _runs_of((((x, y), 1), ((0, 0), h - 1)))
    witness = Witness(group.name, group.spec, ((n, 1),), pairs, ((x_sq, 1),))
    if not verify(group, witness):
        raise AssertionError(f"quaternion vector failed verification for n={n}, h={h}")
    return group, witness


# ---------------------------------------------------------------------------
# realizability of a skeletal signature by one concrete group


class ExclusionReason(NamedTuple):
    # arithmetic | abelian-r1 | commutator-r1 | product-unreachable | cyclic-forced
    # | exhausted-search
    rule: str
    scope: str

    def to_json(self) -> dict:
        return {"rule": self.rule, "scope": self.scope}


class _RealizabilityReportFields(NamedTuple):
    verdict: SearchVerdict
    exclusion_reasons: tuple[ExclusionReason, ...]


class RealizabilityReport(_RealizabilityReportFields):
    """A verdict, whose witness on ``exists`` is a ``Witness``, and the rules behind a no."""

    __slots__ = ()

    def __new__(
        cls, verdict: SearchVerdict, exclusion_reasons: tuple[ExclusionReason, ...]
    ) -> "RealizabilityReport":
        if verdict.is_not_exists and not exclusion_reasons:
            raise AssertionError("a nonexistence report must carry at least one reason")
        return super().__new__(cls, verdict, exclusion_reasons)


def realizable(
    group: GroupTable,
    sigma: int,
    skel: SkeletalSignature,
    budget: int = DEFAULT_BUDGET,
) -> RealizabilityReport:
    """Decide whether this group realizes the skeletal signature at this genus.

    One pass over the period lists in walk order, each a count vector over the
    group's element orders n: its counts c_n must satisfy sum c_n = r and
    sum c_n * N/n = N(2h - 2 + r) - 2(sigma - 1), then it meets
    ``product_reachable`` once, and only the lists it lets through are
    walked, each as its counts; the first witness wins.  After the pass: no list is
    ``arithmetic``, any walk over budget gives unknown, no list let through
    gives an r = 1 or product rule, else ``exhausted-search``.
    """
    h, r = SkeletalSignature(*skel)
    n = group.order
    # element orders divide n, so they are the walk's trusted ascending divisor list
    element_orders, parts = group._periods
    total = n * (2 * h - 2 + r) - 2 * (sigma - 1)
    count_lists: list[tuple[int, ...]] = []
    saw_reachable = saw_unknown = False
    for counts in _period_lists(sigma, h, r, n, element_orders):
        count_lists.append(counts)
        if sum(counts) != r or sum(c * d for c, d in zip(counts, parts)) != total:
            raise AssertionError(
                f"period list {OrbifoldSignature(h, _expand_runs(zip(element_orders, counts)))} "
                f"of {group.name} breaks Riemann-Hurwitz at genus {sigma}"
            )
        if not product_reachable(group, h, zip(element_orders, counts)):
            continue
        saw_reachable = True
        verdict = _walk_tuples(group, h, zip(element_orders, counts), budget)
        if verdict.is_exists:
            return RealizabilityReport(verdict, ())
        saw_unknown |= verdict.is_unknown
    if not count_lists:
        return _excluded(
            "arithmetic",
            f"no period multiset over element orders of {group.name} "
            f"satisfies Riemann-Hurwitz at genus {sigma}",
        )
    if saw_unknown:
        return RealizabilityReport(SearchVerdict.unknown(), ())
    if not saw_reachable:
        multisets = [_expand_runs(zip(element_orders, counts)) for counts in count_lists]
        if r == 1 and group.is_abelian:
            return _excluded(
                "abelian-r1",
                f"{group.name} is abelian and a single branch entry of order >= 2 "
                f"cannot be a product of commutators",
            )
        if r == 1:
            return _excluded(
                "commutator-r1",
                f"no element of order {' or '.join(str(m[0]) for m in multisets)} in "
                f"{group.name} is a product of {h} commutators, as a single branch entry must be",
            )
        return _excluded(
            "product-unreachable",
            f"no branch entries of orders {' or '.join(str(m) for m in multisets)} in "
            f"{group.name} multiply to the inverse of a product of {h} commutators",
        )
    return _excluded(
        "exhausted-search",
        f"all {len(count_lists)} feasible signatures for {group.name} searched exhaustively",
    )


def _excluded(rule: str, scope: str) -> RealizabilityReport:
    return RealizabilityReport(SearchVerdict.not_exists(), (ExclusionReason(rule, scope),))


def product_reachable(group: GroupTable, h: int, runs: Iterable[tuple[int, int]]) -> bool:
    """Whether some c_1...c_r, taken from the (period, count) ``runs`` as ``_walk_tuples``
    takes them, is the inverse of a product of h commutators.

    This is condition (3) with generation ignored, so ``False`` certifies that
    no (h; n_1..n_r)-generating vector exists.  It is a statement about
    normal subsets: E_n, the elements of order n, is a union of conjugacy
    classes, and so is every product of such sets and every set of products
    of h commutators (``GroupTable.commutator_mask``, closed under
    inverse).  Products of normal subsets commute, so the branch products
    depend only on how many entries have each period.  So the walk keeps
    them as a mask over classes, takes E_n^c in one memoized step per
    distinct period (``GroupTable.mask_product``), and ends in one AND with
    the commutator level's mask.
    """
    mask = 1  # the class of e
    for n, c in runs:
        if mask and c:
            mask = group.mask_product(mask, n, c)
    return bool(mask & group.commutator_mask(h))
