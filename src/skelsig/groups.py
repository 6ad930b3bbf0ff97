"""Finite groups as explicit multiplication tables, plus catalog ingestion.

Groups are represented extensionally: a full order x order table of element
indices with the identity at index 0.  Callers multiply by indexing
``table[x][y]``, take the identity as 0 and the elements as
``range(order)``; ``GroupTable`` wraps none of these.  Orders in scope are
small (catalog goes to 15, constructors to a few hundred), so O(1)
multiplication matters more than compactness.  Every table is fully
validated on construction -- ingesting a corrupt file must not silently
poison a nonexistence proof.

Derived data is built lazily and kept on the group: the elements of each
order, the conjugacy classes, and the products of normal subsets.  A normal
subset -- a union of classes, such as the elements of one order or the set
of commutators -- is held as a bitmask over class ids, and
``GroupTable.mask_product`` multiplies such a mask by a power of the
elements of one order, or of the commutators.  An abelian group's classes
are its elements and its only commutator is e, so it skips both sweeps.
"""

from __future__ import annotations

import json
import os
import re
from functools import cache, cached_property
from typing import Collection, NamedTuple, Sequence

from .rh import is_prime


class GroupTableError(ValueError):
    """Base class for group-table validation failures."""


class BadEntryError(GroupTableError):
    """Table entry out of range or malformed."""


class MissingIdentityError(GroupTableError):
    """Row/column 0 does not act as the identity."""


class NotLatinSquareError(GroupTableError):
    """Some row or column is not a permutation of the elements."""


class NonAssociativeError(GroupTableError):
    """The table fails the associative law."""


class CayleyFormatError(GroupTableError):
    """Structurally malformed Cayley table file."""


class SpecParseError(ValueError):
    """Unparseable group-spec expression."""


class ClosureCapError(ValueError):
    """Permutation closure exceeded ``PERM_CLOSURE_CAP`` elements."""


PERM_CLOSURE_CAP = 360  # largest group a ``perm:`` spec may close to


class _GroupTableFields(NamedTuple):
    name: str
    order: int
    table: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]
    element_orders: tuple[int, ...]
    is_abelian: bool
    spec: str | None = None


class GroupTable(_GroupTableFields):
    """Immutable finite group: multiplication table, inverses, element orders.

    ``spec`` records the constructor expression when one exists (used for
    witness serialization and normal-form element words).  The class has no
    ``__slots__``, so each instance keeps a ``__dict__`` for its cached tables;
    a ``_replace`` copy starts without them.
    """

    def commutator(self, a: int, b: int) -> int:
        """[a, b] = a^-1 b^-1 a b (fixed convention shared with all verifiers)."""
        t = self.table
        return t[t[self.inverse[a]][self.inverse[b]]][t[a][b]]

    @cached_property
    def elements_by_order(self) -> dict[int, tuple[int, ...]]:
        """Each element order mapped to the ascending elements of that order."""
        by_order: dict[int, list[int]] = {}
        for g, k in enumerate(self.element_orders):
            by_order.setdefault(k, []).append(g)
        return {k: tuple(gs) for k, gs in by_order.items()}

    @cached_property
    def _periods(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The element orders k >= 2, ascending, and their parts order // k, descending."""
        periods = tuple(sorted(k for k in self.elements_by_order if k >= 2))
        return periods, tuple(self.order // k for k in periods)

    @cached_property
    def class_of(self) -> Sequence[int]:
        """The conjugacy class id of each element, numbered by the classes' least elements.

        So the identity's class is 0, and each id first appears at its class's
        least element.  An abelian group's classes are its single elements, so it
        skips the conjugation sweep; otherwise each class is swept once, by every
        conjugator.
        """
        n = self.order
        if self.is_abelian:
            return range(n)
        t, inv = self.table, self.inverse
        ids = [-1] * n
        count = 0
        for x in range(n):
            if ids[x] < 0:
                for g in range(n):
                    ids[t[t[inv[g]][x]][g]] = count
                count += 1
        return tuple(ids)

    def commutator_mask(self, h: int) -> int:
        """The class mask of the values of [a_1,b_1]...[a_h,b_h]; closed under inverse.

        A conjugate of a commutator is one, so the set K of commutators is a
        normal subset, and this is the mask of K^h, read from the orbit of {e}
        under K that ``mask_product`` keeps for n = 0.  Since e is in K, the
        orbit grows until one more factor adds nothing (h = 0 gives {e}; an
        abelian group's only commutator is e, so it stops there with no sweep
        over pairs).  An (h; n)-vector's c_1 lies in this set.
        """
        return 1 if self.is_abelian else self.mask_product(1, 0, h)

    @cached_property
    def _rows(self) -> dict[int, tuple[int, ...]]:
        return {}

    @cached_property
    def _orbits(self) -> dict[tuple[int, int], tuple[tuple[int, ...], int]]:
        return {}

    def mask_product(self, mask: int, n: int, count: int) -> int:
        """The class mask of S * E_n^count, for S the normal subset of class mask ``mask``.

        E_n, the elements of order n, is a normal subset: a union of classes;
        n = 0, an order no element has, stands for K, the set of commutators.
        A product of normal subsets is one too, so S * E_n is the union over the
        classes C_i of S of C_i * E_n, whose classes are the ones rep_i * E_n meets
        (C_i * E_n is the union of the conjugates of rep_i * E_n).  These masks
        form one row per n, built when a product first reaches it.
        The masks S, S * E_n, S * E_n^2, ... repeat from some step on, so each
        (mask, n) keeps its orbit up to the first repeat, walked once per group,
        and any count is read from it.
        """
        orbit = self._orbits.get((mask, n))
        if orbit is None:
            row = self._rows.get(n)
            if row is None:
                ids, t, elements = self.class_of, self.table, range(self.order)
                subset = (
                    self.elements_by_order.get(n, ()) if n
                    else {self.commutator(a, b) for a in elements for b in elements}
                )
                row = self._rows[n] = tuple(
                    _class_mask({ids[t[x][c]] for c in subset}) for x in _least_of_each(ids)
                )
            seen = {mask: 0}  # each mask of the orbit, with its step
            step = mask
            while True:
                m, step = step, 0
                while m:
                    low = m & -m
                    step |= row[low.bit_length() - 1]
                    m ^= low
                if step in seen:
                    break
                seen[step] = len(seen)
            orbit = self._orbits[mask, n] = (tuple(seen), seen[step])
        path, start = orbit
        if count < len(path):
            return path[count]
        return path[start + (count - start) % (len(path) - start)]

    def generates(self, subset: tuple[int, ...] | list[int]) -> bool:
        """Whether the entries of ``subset`` generate the group.

        Repeated entries add nothing to the subgroup, so the closure runs on
        the distinct ones: a witness of r copies of one generator costs one
        generator per element reached, not r.
        """
        return len(_closure(self.table, set(subset))) == self.order

    @classmethod
    def from_table(
        cls, name: str, rows: list[list[int]], *, spec: str | None = None
    ) -> "GroupTable":
        n = len(rows)
        if n == 0:
            raise BadEntryError("empty table")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise BadEntryError(f"row {i} has length {len(row)}, expected {n}")
            for x in row:
                if not isinstance(x, int) or x < 0 or x >= n:
                    raise BadEntryError(f"entry {x!r} in row {i} outside [0, {n})")
        for i in range(n):
            if rows[0][i] != i or rows[i][0] != i:
                raise MissingIdentityError("index 0 does not act as identity")
        full = set(range(n))
        for i in range(n):
            if set(rows[i]) != full:
                raise NotLatinSquareError(f"row {i} is not a permutation: not a group table")
            if {rows[j][i] for j in range(n)} != full:
                raise NotLatinSquareError(f"column {i} is not a permutation: not a group table")
        _check_associative(rows)
        table = tuple(tuple(row) for row in rows)
        inverse = [rows[i].index(0) for i in range(n)]
        orders = []
        for i in range(n):
            x, k = i, 1
            while x != 0:
                x = rows[x][i]
                k += 1
            orders.append(k)
        abelian = all(rows[i][j] == rows[j][i] for i in range(n) for j in range(i + 1, n))
        return cls(
            name=name,
            order=n,
            table=table,
            inverse=tuple(inverse),
            element_orders=tuple(orders),
            is_abelian=abelian,
            spec=spec,
        )


def _closure(rows: Sequence[Sequence[int]], gens: Collection[int]) -> set[int]:
    """What the identity 0 reaches by right multiplication by ``gens``, breadth first.

    In a group table this is the subgroup the generators generate.  Each
    element reached is multiplied by every entry of ``gens``, so a caller
    with repeated generators passes them de-duplicated.
    """
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            row = rows[x]
            for g in gens:
                y = row[g]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _class_mask(ids: set[int]) -> int:
    """The bitmask with bit k set for each class id k in ``ids``."""
    mask = 0
    for k in ids:
        mask |= 1 << k
    return mask


def _least_of_each(ids: Sequence[int]) -> list[int]:
    """The least element of each class, by class id, for ids numbered as ``class_of`` does."""
    reps: list[int] = []
    for x, k in enumerate(ids):
        if k == len(reps):
            reps.append(x)
    return reps


def _check_associative(rows: list[list[int]]) -> None:
    """Light's test: (a*g)*b == a*(g*b) for every g of a generating set implies associativity.

    The g passing the test are closed under products, so they cover what the
    generators reach; the cost is (number of generators) * n^2.  Each new
    generator is the smallest element the ones before it do not reach.
    """
    n = len(rows)
    gens: list[int] = []
    reach = {0}
    while len(reach) < n:
        gens.append(min(set(range(n)) - reach))
        reach = _closure(rows, gens)
    for g in gens:
        rg = rows[g]
        for a in range(n):
            rag = rows[rows[a][g]]
            ra = rows[a]
            for b in range(n):
                if rag[b] != ra[rg[b]]:
                    raise NonAssociativeError(
                        f"(a*g)*b != a*(g*b) at a={a}, g={g}, b={b}"
                    )


# ---------------------------------------------------------------------------
# constructors


def build_cyclic(n: int) -> GroupTable:
    """Cyclic group of order n, additive indices mod n."""
    if n < 1:
        raise ValueError(f"cyclic order must be >= 1, got {n}")
    rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    return GroupTable.from_table(f"C{n}", rows, spec=f"cyclic:{n}")


def direct_product(a: GroupTable, b: GroupTable) -> GroupTable:
    """Direct product with element (x, y) packed as x * |B| + y."""
    nb = b.order
    n = a.order * nb
    rows = [[0] * n for _ in range(n)]
    for x1 in range(a.order):
        for y1 in range(nb):
            i = x1 * nb + y1
            for x2 in range(a.order):
                row_a = a.table[x1]
                for y2 in range(nb):
                    rows[i][x2 * nb + y2] = row_a[x2] * nb + b.table[y1][y2]
    spec = None
    if a.spec and b.spec:
        spec = f"product:{a.spec},{b.spec}"
    return GroupTable.from_table(f"{a.name}x{b.name}", rows, spec=spec)


def build_elementary_abelian(p: int, k: int) -> GroupTable:
    """(C_p)^k: every non-identity element has order exactly p."""
    if k < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    g = build_cyclic(p)
    out = g
    for _ in range(k - 1):
        out = direct_product(out, g)
    return out._replace(name=f"C{p}^{k}", spec=f"elab:{p}^{k}")


def _metacyclic_rows(m: int, s: int) -> list[list[int]]:
    """Rows of <x, y | x^m, y^2 = x^s, y^-1 x y = x^-1>, with x^a y^b at index a + m*b.

    y x = x^-1 y, so x^a1 y^b1 * x^a2 y^b2 = x^(a1 +/- a2 + s*b1*b2) y^(b1 + b2),
    with - when b1 = 1.  Dihedral groups take s = 0, dicyclic ones m = 2s.
    """
    return [
        [((a1 - a2 if b1 else a1 + a2) + s * b1 * b2) % m + m * (b1 ^ b2)
         for b2 in range(2) for a2 in range(m)]
        for b1 in range(2) for a1 in range(m)
    ]


def build_dihedral(n: int) -> GroupTable:
    """Dihedral group of order 2n; element r^a s^b indexed as a + n*b."""
    if n < 1:
        raise ValueError(f"dihedral parameter must be >= 1, got {n}")
    return GroupTable.from_table(f"D{n}", _metacyclic_rows(n, 0), spec=f"dihedral:{n}")


def build_generalized_quaternion(n: int) -> GroupTable:
    """Generalized quaternion (dicyclic) group of order 4n: x^n = y^2, y^-1 x y = x^-1.

    Normal form x^a y^b with a in [0, 2n), b in {0, 1}, indexed a + 2n*b; so
    x is index 1, y is index 2n, and x^2 (the commutator [x, y] inverted) is
    index 2.  n = 2 gives the order-8 quaternion group.
    """
    if n < 2:
        raise ValueError(f"quaternion parameter must be >= 2, got {n}")
    return GroupTable.from_table(f"Q{4 * n}", _metacyclic_rows(2 * n, n), spec=f"quaternion:{n}")


def quaternion_word(n: int, index: int) -> str:
    """Normal-form word x^a y^b for an element index of the order-4n quaternion group."""
    m = 2 * n
    a, b = index % m, index // m
    parts = []
    if a:
        parts.append("x" if a == 1 else f"x^{a}")
    if b:
        parts.append("y")
    return "*".join(parts) if parts else "e"


# ---------------------------------------------------------------------------
# permutations

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> tuple[int, ...]:
    """Parse cycle notation like ``(1 2 3)(4 5)`` into a 0-based image tuple."""
    images = list(range(degree))
    body = text.strip()
    if body in ("", "()"):
        return tuple(images)
    if _CYCLE_RE.sub("", body).strip():
        raise SpecParseError(f"malformed cycles {text!r}")
    seen: set[int] = set()
    for cyc in _CYCLE_RE.findall(body):
        pts = [s for s in cyc.replace(",", " ").split() if s]
        if not pts:
            continue
        try:
            vals = [int(s) for s in pts]
        except ValueError as exc:
            raise SpecParseError(f"non-integer entry in cycle {cyc!r}") from exc
        for v in vals:
            if v < 1 or v > degree:
                raise SpecParseError(f"cycle entry {v} outside 1..{degree}")
            if v in seen:
                raise SpecParseError(f"point {v} repeated across cycles in {text!r}")
            seen.add(v)
        for idx, v in enumerate(vals):
            images[v - 1] = vals[(idx + 1) % len(vals)] - 1
    return tuple(images)


def build_from_permutations(
    degree: int, generators: list[str], *, spec: str | None = None
) -> GroupTable:
    """Close the cycle-notation generators under composition and tabulate the resulting group.

    Composition convention is (p*q)(i) = p(q(i)).  Elements are sorted so the
    identity lands at index 0.  Raises ClosureCapError past PERM_CLOSURE_CAP.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    perms = [parse_cycles(g, degree) for g in generators]
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for q in frontier:
            for p in perms:
                comp = tuple(p[q[i]] for i in range(degree))
                if comp not in seen:
                    if len(seen) >= PERM_CLOSURE_CAP:
                        raise ClosureCapError(f"closure exceeded {PERM_CLOSURE_CAP} elements")
                    seen.add(comp)
                    nxt.append(comp)
        frontier = nxt
    elements = sorted(seen)
    index = {p: i for i, p in enumerate(elements)}
    n = len(elements)
    rows = [[0] * n for _ in range(n)]
    for i, p in enumerate(elements):
        for j, q in enumerate(elements):
            rows[i][j] = index[tuple(p[q[k]] for k in range(degree))]
    return GroupTable.from_table(f"perm{n}", rows, spec=spec)


# ---------------------------------------------------------------------------
# group-spec mini-language

_SPEC_HEADS = ("cyclic", "elab", "dihedral", "quaternion", "product", "perm", "file")


def build_from_spec(
    spec: str, *, base_dir: str | os.PathLike | None = None, name: str | None = None
) -> GroupTable:
    """Resolve a spec expression to a validated GroupTable.

    Grammar: ``cyclic:n | elab:p^k | dihedral:n | quaternion:n |
    product:spec,spec,... | perm:degree:cycles(;cycles...) | file:path``.
    Product takes a comma-separated list of non-product sub-specs.
    """
    s = spec.strip()
    head, _, rest = s.partition(":")
    if head not in _SPEC_HEADS:
        raise SpecParseError(f"unknown spec head {head!r} in {spec!r}")
    try:
        if head == "cyclic":
            g = build_cyclic(int(rest))
        elif head == "elab":
            p_str, _, k_str = rest.partition("^")
            g = build_elementary_abelian(int(p_str), int(k_str) if k_str else 1)
        elif head == "dihedral":
            g = build_dihedral(int(rest))
        elif head == "quaternion":
            g = build_generalized_quaternion(int(rest))
        elif head == "product":
            parts = [p for p in rest.split(",") if p.strip()]
            if len(parts) < 2:
                raise SpecParseError(f"product needs >= 2 factors in {spec!r}")
            factors = [build_from_spec(p, base_dir=base_dir) for p in parts]
            g = factors[0]
            for f in factors[1:]:
                g = direct_product(g, f)
            g = g._replace(spec=s)
        elif head == "perm":
            deg_str, _, cycles = rest.partition(":")
            gens = [c for c in cycles.split(";") if c.strip()]
            if not gens:
                raise SpecParseError(f"perm spec needs generators in {spec!r}")
            g = build_from_permutations(int(deg_str), gens, spec=s)
        else:  # file
            path = rest
            if base_dir is not None and not os.path.isabs(path):
                path = os.path.join(base_dir, path)
            g = load_cayley_file(path)
    except ValueError as exc:
        if isinstance(exc, (GroupTableError, SpecParseError)):
            raise
        raise SpecParseError(f"bad parameters in spec {spec!r}: {exc}") from exc
    if name is not None:
        g = g._replace(name=name, spec=g.spec or s)
    return g


# ---------------------------------------------------------------------------
# Cayley file format


def load_cayley_file(path: str | os.PathLike) -> GroupTable:
    """Read and fully validate a Cayley table file.

    The text format: an ``order N`` line, an optional ``name`` line, then N
    rows of N integers; blank lines and ``#`` comments are skipped.
    """
    with open(path, encoding="utf-8") as f:
        text = f.read()
    raw = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not raw or not raw[0].startswith("order"):
        raise CayleyFormatError(f"{path}: first line must be 'order N'")
    try:
        order = int(raw[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise CayleyFormatError(f"{path}: malformed order line {raw[0]!r}") from exc
    body = raw[1:]
    name = os.path.splitext(os.path.basename(path))[0]
    if body and body[0].startswith("name"):
        name = body[0].partition(" ")[2].strip() or name
        body = body[1:]
    if len(body) != order:
        raise CayleyFormatError(f"{path}: expected {order} table rows, found {len(body)}")
    rows = []
    for ln in body:
        try:
            rows.append([int(tok) for tok in ln.split()])
        except ValueError as exc:
            raise CayleyFormatError(f"{path}: non-integer table entry in {ln!r}") from exc
    return GroupTable.from_table(name, rows, spec=f"file:{os.path.basename(path)}")


# ---------------------------------------------------------------------------
# catalog


class CatalogEntry(NamedTuple):
    order: int
    spec: str
    label: str
    complete: bool


class CatalogManifest:
    """Bundled classification data: specs per order plus completeness assertions.

    ``complete`` flags are data, not computation: orders where the entry set is
    asserted complete up to isomorphism.  Exhaustive nonexistence claims must
    go through ``covering`` and refuse to certify past it.  Each order's
    answer is built on first use and kept for the life of the manifest.
    """

    def __init__(
        self, entries: tuple[CatalogEntry, ...], base_dir: str | os.PathLike | None = None
    ) -> None:
        self.entries = entries
        self.base_dir = base_dir
        self._covering: dict[int, tuple[tuple[GroupTable, ...], bool]] = {}

    def _build(self, e: CatalogEntry) -> GroupTable:
        g = build_from_spec(e.spec, base_dir=self.base_dir, name=e.label)
        if g.order != e.order:
            raise GroupTableError(
                f"catalog entry {e.label}: spec order {g.order} != declared {e.order}"
            )
        return g

    def covering(self, order: int) -> tuple[tuple[GroupTable, ...], bool]:
        """The groups searched at this order, and whether they are all its groups.

        The groups are the catalog's groups of the order; at a prime order the
        catalog lacks, they are the cyclic group, the order's one isomorphism
        class.  They are all its groups up to isomorphism when the catalog flags
        the order complete, or when the order is prime.  This is the one coverage
        rule: every search over a point's orders, and every claim that an order
        is closed, goes through it.  Only the order's own entries are built, and
        C_p only at a prime order; an answer is kept once its groups are built,
        so a build that fails is tried again on the next call.
        """
        if order not in self._covering:
            groups = tuple(self._build(e) for e in self._by_order.get(order, ()))
            prime = is_prime(order)
            if prime and not groups:
                groups = (build_cyclic(order),)
            self._covering[order] = groups, prime or order in self.complete_orders
        return self._covering[order]

    @cached_property
    def _by_order(self) -> dict[int, list[CatalogEntry]]:
        """The entries of each order, sorted by label."""
        by_order: dict[int, list[CatalogEntry]] = {}
        for e in sorted(self.entries, key=lambda e: (e.order, e.label)):
            by_order.setdefault(e.order, []).append(e)
        return by_order

    @cached_property
    def complete_orders(self) -> frozenset[int]:
        return frozenset(n for n, es in self._by_order.items() if all(e.complete for e in es))


_ENTRY_FIELDS = {"order": int, "spec": str, "label": str, "complete": bool}


def load_catalog(directory: str | os.PathLike) -> CatalogManifest:
    """Load ``manifest.json`` from a catalog directory, as a fresh manifest on every call.

    The directory is the caller's and may change between calls, so nothing is
    kept.  The entries are sorted by (order, label).
    """
    manifest_path = os.path.join(directory, "manifest.json")
    with open(manifest_path, encoding="utf-8") as f:
        text = f.read()
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise CayleyFormatError(f"{manifest_path}: manifest is not valid JSON ({exc})") from exc
    if not isinstance(data, list):
        raise CayleyFormatError(f"{manifest_path}: manifest must be a JSON list")
    entries = []
    for item in data:
        # exact types: "complete": "false" must not read as true, nor 8.9 or true as an order
        if not isinstance(item, dict) or any(
            type(item.get(name)) is not kind for name, kind in _ENTRY_FIELDS.items()
        ):
            raise CayleyFormatError(f"{manifest_path}: bad entry {item!r}")
        entries.append(CatalogEntry(**{name: item[name] for name in _ENTRY_FIELDS}))
    return CatalogManifest(tuple(sorted(entries, key=lambda e: (e.order, e.label))), directory)


@cache
def bundled_catalog() -> CatalogManifest:
    """The catalog shipped with the package: complete through order 15.

    ``load_catalog`` of the package's ``data/catalog`` directory, once per
    process: the package data does not change while it runs, so every caller
    shares the parsed entries and each table once built.  The directory is
    found as a plain path beside this module: ``importlib.resources`` and
    ``pathlib`` would load ``zipfile`` or ``urllib.parse`` into every run that searches.
    """
    return load_catalog(os.path.join(os.path.dirname(__file__), "data", "catalog"))
