"""Finite groups as explicit multiplication tables, plus catalog ingestion.

Groups are represented extensionally: a full order x order table of element
indices with the identity at index 0.  Orders in scope are small (catalog goes
to 15, constructors to a few hundred), so O(1) multiplication matters more
than compactness.  Every table is fully validated on construction --
ingesting a corrupt file must not silently poison a nonexistence proof.
"""

from __future__ import annotations

import json
import re
from functools import cache, cached_property
from pathlib import Path
from typing import NamedTuple, Sequence


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

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    @property
    def identity(self) -> int:
        return 0

    def elements(self) -> range:
        return range(self.order)

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
    def _commutator_levels(self) -> tuple[frozenset[int], ...]:
        single = {self.commutator(a, b) for a in self.elements() for b in self.elements()}
        levels = [frozenset({0})]
        while len(levels) < 2 or levels[-1] != levels[-2]:
            levels.append(frozenset(self.table[x][y] for x in levels[-1] for y in single))
        return tuple(levels)

    def commutator_products(self, h: int) -> frozenset[int]:
        """Values of [a_1,b_1]...[a_h,b_h] over all choices; closed under inverse.

        Padding with [e, e] nests the levels in h; they are built once, until one more
        factor adds nothing (h = 0 gives {e}).  An (h; n)-vector's c_1 lies in this set.
        """
        return self._commutator_levels[min(h, len(self._commutator_levels) - 1)]

    def subgroup_closure(self, subset: tuple[int, ...] | list[int]) -> frozenset[int]:
        """Elements of the subgroup generated by ``subset``."""
        return frozenset(_closure(self.table, subset))

    def generates(self, subset: tuple[int, ...] | list[int]) -> bool:
        return len(self.subgroup_closure(subset)) == self.order

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


def _closure(rows: Sequence[Sequence[int]], gens: Sequence[int]) -> set[int]:
    """What the identity 0 reaches by right multiplication by ``gens``, breadth first.

    In a group table this is the subgroup the generators generate.
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
    for x1 in a.elements():
        for y1 in b.elements():
            i = x1 * nb + y1
            for x2 in a.elements():
                row_a = a.table[x1]
                for y2 in b.elements():
                    rows[i][x2 * nb + y2] = row_a[x2] * nb + b.table[y1][y2]
    spec = None
    if a.spec and b.spec:
        spec = f"product:{a.spec},{b.spec}"
    return GroupTable.from_table(f"{a.name}x{b.name}", rows, spec=spec)


def build_elementary_abelian(p: int, k: int) -> GroupTable:
    """(C_p)^k: every non-identity element has order exactly p."""
    if k < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    g = build_cyclic(p)
    out = g
    for _ in range(k - 1):
        out = direct_product(out, g)
    return out._replace(name=f"C{p}^{k}", spec=f"elab:{p}^{k}")


def build_dihedral(n: int) -> GroupTable:
    """Dihedral group of order 2n; element r^a s^b indexed as a + n*b."""
    if n < 1:
        raise ValueError(f"dihedral parameter must be >= 1, got {n}")
    order = 2 * n
    rows = [[0] * order for _ in range(order)]
    for a1 in range(n):
        for b1 in range(2):
            i = a1 + n * b1
            for a2 in range(n):
                for b2 in range(2):
                    # s r = r^-1 s, so r^a1 s^b1 r^a2 s^b2 = r^(a1 +/- a2) s^(b1+b2)
                    a = (a1 - a2) % n if b1 else (a1 + a2) % n
                    rows[i][a2 + n * b2] = a + n * ((b1 + b2) % 2)
    return GroupTable.from_table(f"D{n}", rows, spec=f"dihedral:{n}")


def build_generalized_quaternion(n: int) -> GroupTable:
    """Generalized quaternion (dicyclic) group of order 4n: x^n = y^2, y^-1 x y = x^-1.

    Normal form x^a y^b with a in [0, 2n), b in {0, 1}, indexed a + 2n*b; so
    x is index 1, y is index 2n, and x^2 (the commutator [x, y] inverted) is
    index 2.  n = 2 gives the order-8 quaternion group.
    """
    if n < 2:
        raise ValueError(f"quaternion parameter must be >= 2, got {n}")
    m = 2 * n
    order = 4 * n
    rows = [[0] * order for _ in range(order)]
    for a1 in range(m):
        for b1 in range(2):
            i = a1 + m * b1
            for a2 in range(m):
                for b2 in range(2):
                    if b1 == 0:
                        a, b = (a1 + a2) % m, b2
                    elif b2 == 0:
                        a, b = (a1 - a2) % m, 1
                    else:
                        # y x^a2 y = x^(n - a2), from y^2 = x^n central
                        a, b = (a1 - a2 + n) % m, 0
                    rows[i][a2 + m * b2] = a + m * b
    return GroupTable.from_table(f"Q{order}", rows, spec=f"quaternion:{n}")


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
    degree: int,
    generators: list[tuple[int, ...] | str],
    *,
    name: str | None = None,
    spec: str | None = None,
) -> GroupTable:
    """Close a generator set under composition and tabulate the resulting group.

    Composition convention is (p*q)(i) = p(q(i)).  Elements are sorted so the
    identity lands at index 0.  Raises ClosureCapError past PERM_CLOSURE_CAP.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    perms: list[tuple[int, ...]] = []
    for g in generators:
        p = parse_cycles(g, degree) if isinstance(g, str) else tuple(g)
        if sorted(p) != list(range(degree)):
            raise SpecParseError(f"{g!r} is not a permutation of 0..{degree - 1}")
        perms.append(p)
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
    return GroupTable.from_table(name or f"perm{n}", rows, spec=spec)


# ---------------------------------------------------------------------------
# group-spec mini-language

_SPEC_HEADS = ("cyclic", "elab", "dihedral", "quaternion", "product", "perm", "file")


def build_from_spec(spec: str, *, base_dir: Path | None = None, name: str | None = None) -> GroupTable:
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
            path = Path(rest)
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
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


def load_cayley_file(path: Path | str) -> GroupTable:
    """Read and fully validate a Cayley table file.

    The text format: an ``order N`` line, an optional ``name`` line, then N
    rows of N integers; blank lines and ``#`` comments are skipped.
    """
    path = Path(path)
    raw = [
        ln.strip()
        for ln in path.read_text(encoding="utf-8").splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not raw or not raw[0].startswith("order"):
        raise CayleyFormatError(f"{path}: first line must be 'order N'")
    try:
        order = int(raw[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise CayleyFormatError(f"{path}: malformed order line {raw[0]!r}") from exc
    body = raw[1:]
    name = path.stem
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
    return GroupTable.from_table(name, rows, spec=f"file:{path.name}")


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
    consult ``complete_orders`` and refuse to certify past it.  Each entry's
    table is built on first use and kept for the life of the manifest.
    """

    def __init__(self, entries: tuple[CatalogEntry, ...], base_dir: Path | None = None) -> None:
        self.entries = entries
        self.base_dir = base_dir
        self._tables: dict[CatalogEntry, GroupTable] = {}

    def _build(self, e: CatalogEntry) -> GroupTable:
        if e not in self._tables:
            g = build_from_spec(e.spec, base_dir=self.base_dir, name=e.label)
            if g.order != e.order:
                raise GroupTableError(
                    f"catalog entry {e.label}: spec order {g.order} != declared {e.order}"
                )
            self._tables[e] = g
        return self._tables[e]

    def groups(self, *, max_order: int | None = None) -> list[GroupTable]:
        return [
            self._build(e)
            for e in self.entries
            if max_order is None or e.order <= max_order
        ]

    def groups_of_order(self, order: int) -> list[GroupTable]:
        return [self._build(e) for e in self.entries if e.order == order]

    @cached_property
    def complete_orders(self) -> frozenset[int]:
        by_order: dict[int, list[bool]] = {}
        for e in self.entries:
            by_order.setdefault(e.order, []).append(e.complete)
        return frozenset(k for k, flags in by_order.items() if all(flags))

    def is_complete_at(self, order: int) -> bool:
        return order in self.complete_orders


_ENTRY_FIELDS = {"order": int, "spec": str, "label": str, "complete": bool}


def _parse_manifest(text: str, source: str) -> tuple[CatalogEntry, ...]:
    """Catalog entries of a ``manifest.json`` text, sorted by (order, label)."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise CayleyFormatError(f"{source}: manifest is not valid JSON ({exc})") from exc
    if not isinstance(data, list):
        raise CayleyFormatError(f"{source}: manifest must be a JSON list")
    entries = []
    for item in data:
        # exact types: "complete": "false" must not read as true, nor 8.9 or true as an order
        if not isinstance(item, dict) or any(
            type(item.get(name)) is not kind for name, kind in _ENTRY_FIELDS.items()
        ):
            raise CayleyFormatError(f"{source}: bad entry {item!r}")
        entries.append(CatalogEntry(**{name: item[name] for name in _ENTRY_FIELDS}))
    return tuple(sorted(entries, key=lambda e: (e.order, e.label)))


def load_catalog(directory: Path | str) -> CatalogManifest:
    """Load ``manifest.json`` from a catalog directory, as a fresh manifest on every call.

    The directory is the caller's and may change between calls, so nothing is kept.
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    text = manifest_path.read_text(encoding="utf-8")
    return CatalogManifest(_parse_manifest(text, str(manifest_path)), base_dir=directory)


@cache
def bundled_catalog() -> CatalogManifest:
    """The catalog shipped with the package: complete through order 15.

    One manifest per process: the package data does not change while it
    runs, so every caller shares the parsed entries and each table once built.
    """
    from importlib.resources import files

    manifest = files("skelsig").joinpath("data/catalog/manifest.json")
    text = manifest.read_text(encoding="utf-8")
    return CatalogManifest(_parse_manifest(text, "bundled catalog manifest"), base_dir=None)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True
