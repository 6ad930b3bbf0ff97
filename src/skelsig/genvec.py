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
reduction is applied, so a negative verdict is a certificate.

``realizable`` walks the group's period lists once, in walk order, checks
each against the exact integer Riemann-Hurwitz identity, runs the product
filter on it once, walks the tuples of the lists it lets through, and stops at
the first witness.  Only then does it name the rule behind a negative verdict:
``arithmetic`` (no period list over the group's element orders),
``abelian-r1`` and ``commutator-r1`` (the filter let no list with r = 1
through: c_1 would be the inverse of a product of h commutators, and no
element of its order is one; in an abelian group that product is always e),
``product-unreachable`` (the same for r >= 2), or ``exhausted-search``.
``kspace`` adds ``cyclic-forced``.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .groups import GroupTable, build_cyclic, build_generalized_quaternion
from .rh import (
    OrbifoldSignature,
    SearchVerdict,
    SkeletalSignature,
    _check_genus,
    _check_order,
    _period_lists,
)

DEFAULT_BUDGET = 10**8


class GeneratingVector(NamedTuple):
    """Element indices (a_i, b_i) pairs plus the branch entries c_j."""

    a_pairs: tuple[tuple[int, int], ...]
    c_list: tuple[int, ...]

    def flatten(self) -> tuple[int, ...]:
        flat: list[int] = []
        for a, b in self.a_pairs:
            flat.extend((a, b))
        flat.extend(self.c_list)
        return tuple(flat)

    def to_json(self) -> dict:
        return {"aPairs": [list(p) for p in self.a_pairs], "c": list(self.c_list)}


def verify(group: GroupTable, vec: GeneratingVector, sig: OrbifoldSignature) -> bool:
    """Whether ``vec`` is an (h; n_1..n_r)-generating vector of ``group`` for ``sig``.

    A vector of the wrong shape raises ``ValueError``.  Otherwise the checks
    run cheapest first and stop at the first failure: the orders (2), the
    product (3), then generation (1).
    """
    if len(vec.a_pairs) != sig.h or len(vec.c_list) != sig.r:
        raise ValueError(
            f"vector shape ({len(vec.a_pairs)} pairs, {len(vec.c_list)} branch entries) "
            f"does not match signature {sig}"
        )
    orders = group.element_orders
    if any(orders[c] != n for c, n in zip(vec.c_list, sig.periods)):
        return False
    prod = group.identity
    for a, b in vec.a_pairs:
        prod = group.mul(prod, group.commutator(a, b))
    for c in vec.c_list:
        prod = group.mul(prod, c)
    return prod == group.identity and group.generates(vec.flatten())


def search(
    group: GroupTable, sig: OrbifoldSignature, budget: int = DEFAULT_BUDGET
) -> SearchVerdict:
    """Exhaustive generating-vector search; first witness in ascending index order.

    ``not_exists`` is only returned when ``product_reachable`` rules the
    signature out, which needs no enumeration, or when ``_walk_tuples``
    enumerated the pruned space in full; exceeding ``budget`` (counted in
    candidate tuples examined) yields ``unknown``.  Verdicts are deterministic.
    """
    if not product_reachable(group, sig.h, sig.periods):
        return SearchVerdict.not_exists()
    return _walk_tuples(group, sig, budget)


def _walk_tuples(group: GroupTable, sig: OrbifoldSignature, budget: int) -> SearchVerdict:
    """The tuple walk behind ``search``, for a period list the product filter let through."""
    h, periods = sig.h, sig.periods
    free_c = [group.elements_by_order[p] for p in periods[:-1]]
    last_period = periods[-1] if periods else None
    mul = group.mul
    orders = group.element_orders
    inv = group.inverse
    examined = 0
    for a_tuple in itertools.product(group.elements(), repeat=2 * h):
        comm_prod = 0
        for i in range(h):
            comm_prod = mul(comm_prod, group.commutator(a_tuple[2 * i], a_tuple[2 * i + 1]))
        for c_prefix in itertools.product(*free_c):
            examined += 1
            if examined > budget:
                return SearchVerdict.unknown()
            if periods:
                prod = comm_prod
                for c in c_prefix:
                    prod = mul(prod, c)
                c_last = inv[prod]
                if orders[c_last] != last_period:
                    continue
                elements = a_tuple + c_prefix + (c_last,)
            else:
                if comm_prod != 0:
                    continue
                elements = a_tuple
            if group.generates(elements):
                pairs = tuple((a_tuple[2 * i], a_tuple[2 * i + 1]) for i in range(h))
                return SearchVerdict.exists(GeneratingVector(pairs, elements[2 * h :]))
    return SearchVerdict.not_exists()


def quaternion_vector(
    n: int, h: int
) -> tuple[GroupTable, OrbifoldSignature, GeneratingVector]:
    """Witness vector for the order-4n generalized quaternion group at quotient genus h.

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
    sig = OrbifoldSignature(h, (n,))
    vec = GeneratingVector(((x, y),) + ((0, 0),) * (h - 1), (x_sq,))
    if not verify(group, vec, sig):
        raise AssertionError(f"quaternion vector failed verification for n={n}, h={h}")
    return group, sig, vec


def unbranched_cyclic(
    sigma: int, order: int
) -> tuple[GroupTable, OrbifoldSignature, GeneratingVector] | None:
    """Unbranched cyclic witness at ((sigma-1)/order + 1, 0), when the order divides sigma-1.

    The vector puts a generator in a_1 and identities elsewhere; all
    commutators vanish, so the product condition is trivial.
    """
    _check_genus(sigma)
    _check_order(order)
    if (sigma - 1) % order != 0:
        return None
    h = (sigma - 1) // order + 1
    group = build_cyclic(order)
    sig = OrbifoldSignature(h, ())
    vec = GeneratingVector(((1, 0),) + ((0, 0),) * (h - 1), ())
    if not verify(group, vec, sig):
        raise AssertionError(f"unbranched cyclic vector failed for sigma={sigma}, N={order}")
    return group, sig, vec


# ---------------------------------------------------------------------------
# realizability of a skeletal signature by one concrete group


def vector_words(group_spec: str | None, vec: GeneratingVector) -> dict | None:
    """Element words for the vector when the group has a usable normal form."""
    if not group_spec or not group_spec.startswith("quaternion:"):
        return None
    from .groups import quaternion_word

    n = int(group_spec.partition(":")[2])
    return {
        "aPairs": [[quaternion_word(n, a), quaternion_word(n, b)] for a, b in vec.a_pairs],
        "c": [quaternion_word(n, c) for c in vec.c_list],
    }


class Witness(NamedTuple):
    """Serializable record of a found action."""

    group_name: str
    group_spec: str | None
    signature: OrbifoldSignature
    vector: GeneratingVector

    def to_json(self) -> dict:
        out = {
            "group": self.group_name,
            "spec": self.group_spec,
            "signature": {"h": self.signature.h, "periods": list(self.signature.periods)},
            "vector": self.vector.to_json(),
        }
        words = vector_words(self.group_spec, self.vector)
        if words is not None:
            out["words"] = words
        return out


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

    One pass over the period lists in walk order: each must satisfy
    sum N/n_j = N(2h - 2 + r) - 2(sigma - 1) with every n_j dividing N, then
    meets ``product_reachable`` once, and only the lists it lets through are
    walked; the first witness wins.  After the pass: no list is ``arithmetic``,
    any walk over budget gives unknown, no list let through gives an r = 1 or
    product rule, else ``exhausted-search``.
    """
    h, r = SkeletalSignature(*skel)
    n = group.order
    # element orders divide n, so they are the walk's trusted ascending divisor list
    element_orders = sorted(k for k in group.elements_by_order if k >= 2)
    total = n * (2 * h - 2 + r) - 2 * (sigma - 1)
    multisets: list[tuple[int, ...]] = []
    saw_reachable = saw_unknown = False
    for periods in _period_lists(sigma, h, r, n, element_orders):
        multisets.append(periods)
        sig = OrbifoldSignature(h, periods)
        if len(periods) != r or any(n % p for p in periods) or sum(n // p for p in periods) != total:
            raise AssertionError(
                f"period list {sig} of {group.name} breaks Riemann-Hurwitz at genus {sigma}"
            )
        if not product_reachable(group, h, periods):
            continue
        saw_reachable = True
        verdict = _walk_tuples(group, sig, budget)
        if verdict.is_exists:
            witness = Witness(group.name, group.spec, sig, verdict.witness)
            return RealizabilityReport(SearchVerdict.exists(witness), ())
        saw_unknown |= verdict.is_unknown
    if not multisets:
        return _excluded(
            "arithmetic",
            f"no period multiset over element orders of {group.name} "
            f"satisfies Riemann-Hurwitz at genus {sigma}",
        )
    if saw_unknown:
        return RealizabilityReport(SearchVerdict.unknown(), ())
    if not saw_reachable:
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
        f"all {len(multisets)} feasible signatures for {group.name} searched exhaustively",
    )


def _excluded(rule: str, scope: str) -> RealizabilityReport:
    return RealizabilityReport(SearchVerdict.not_exists(), (ExclusionReason(rule, scope),))


def product_reachable(group: GroupTable, h: int, periods: tuple[int, ...]) -> bool:
    """Whether some c_1...c_r with ord(c_j) = n_j is the inverse of a product of h commutators.

    This is condition (3) with generation ignored, so ``False`` certifies that
    no (h; n_1..n_r)-generating vector exists.  The branch products are built
    one entry at a time as a set from ``GroupTable.elements_by_order``; the
    commutator products (``GroupTable.commutator_products``) are closed under
    inverse, so the test is an intersection.
    """
    reach = {group.identity}
    for p in periods:
        cand = group.elements_by_order.get(p, ())
        reach = {group.mul(x, c) for x in reach for c in cand}
    return not reach.isdisjoint(group.commutator_products(h))
