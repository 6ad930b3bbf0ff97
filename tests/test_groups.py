"""Group tables: constructors, validation, file round-trips, catalog integrity."""

import itertools
import json
from collections import Counter

import pytest

from oracles import (
    naive_associative,
    naive_commutator_products,
    order_statistics,
    save_cayley_file,
)
from skelsig.groups import (
    BadEntryError,
    CayleyFormatError,
    ClosureCapError,
    GroupTable,
    MissingIdentityError,
    NonAssociativeError,
    NotLatinSquareError,
    SpecParseError,
    build_cyclic,
    build_dihedral,
    build_elementary_abelian,
    build_from_permutations,
    build_from_spec,
    build_generalized_quaternion,
    bundled_catalog,
    direct_product,
    load_catalog,
    load_cayley_file,
    parse_cycles,
    quaternion_word,
)

# small-group counts per order, 1 through 15
GROUP_COUNTS = (1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1)


def full_cubic_associativity(g: GroupTable) -> bool:
    return all(
        g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))
        for a in g.elements()
        for b in g.elements()
        for c in g.elements()
    )


def reduced_latin_squares(n: int):
    """Every n x n Latin square over 0..n-1 whose first row and first column are 0..n-1."""
    rows = [list(range(n))] + [[i] + [0] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k: int):
        if k == len(cells):
            yield [row[:] for row in rows]
            return
        i, j = cells[k]
        used = set(rows[i][:j]) | {rows[x][j] for x in range(i)}
        for v in range(n):
            if v not in used:
                rows[i][j] = v
                yield from fill(k + 1)

    yield from fill(0)


def constructed_groups() -> list[GroupTable]:
    """One group of each constructor family, the spec language included."""
    return [
        build_cyclic(1),
        build_cyclic(7),
        build_elementary_abelian(2, 3),
        direct_product(build_cyclic(2), build_cyclic(4)),
        build_dihedral(6),
        build_generalized_quaternion(3),
        build_from_permutations(4, ["(1 2 3)", "(2 3 4)"]),
        build_from_spec("perm:3:(1 2);(1 2 3)", name="S3"),
    ]


class TestConstructors:
    def test_cyclic(self):
        c5 = build_cyclic(5)
        assert c5.order == 5
        assert all(c5.element_orders[x] == 5 for x in range(1, 5))
        assert c5.is_abelian and c5.order in c5.element_orders

    def test_elementary_abelian(self):
        g = build_elementary_abelian(3, 2)
        assert g.order == 9
        assert all(g.element_orders[x] == 3 for x in range(1, 9))
        assert g.order not in g.element_orders

    def test_direct_product_matches_elementary_abelian(self):
        a = direct_product(build_cyclic(2), build_cyclic(2))
        b = build_elementary_abelian(2, 2)
        assert order_statistics(a) == order_statistics(b)

    def test_direct_product_rebracketing_invariant(self):
        c2, c3, c4 = build_cyclic(2), build_cyclic(3), build_cyclic(4)
        left = direct_product(direct_product(c2, c3), c4)
        right = direct_product(c2, direct_product(c3, c4))
        assert order_statistics(left) == order_statistics(right)

    def test_dihedral(self):
        d4 = build_dihedral(4)
        assert d4.order == 8 and not d4.is_abelian
        assert order_statistics(d4) == ((1, 1), (2, 5), (4, 2))

    def test_quaternion_q8(self):
        q8 = build_generalized_quaternion(2)
        assert q8.order == 8
        assert order_statistics(q8) == ((1, 1), (2, 1), (4, 6))
        assert not q8.is_abelian

    def test_quaternion_structure(self):
        for n in (2, 3, 5):
            g = build_generalized_quaternion(n)
            x, y = 1, 2 * n
            assert g.element_orders[x] == 2 * n
            assert g.element_orders[y] == 4
            assert g.element_orders[g.mul(x, x)] == n
            # y^2 = x^n
            xn = 0
            for _ in range(n):
                xn = g.mul(xn, x)
            assert g.mul(y, y) == xn
            # y^-1 x y = x^-1
            assert g.mul(g.mul(g.inverse[y], x), y) == g.inverse[x]

    def test_quaternion_commutator_convention(self):
        # [x, y] = x^-1 y^-1 x y = x^-2
        for n in (2, 3, 4):
            g = build_generalized_quaternion(n)
            x, y = 1, 2 * n
            x2_inv = g.inverse[g.mul(x, x)]
            assert g.commutator(x, y) == x2_inv

    def test_quaternion_rejects_small(self):
        with pytest.raises(ValueError):
            build_generalized_quaternion(1)

    def test_quaternion_word(self):
        assert quaternion_word(2, 0) == "e"
        assert quaternion_word(2, 1) == "x"
        assert quaternion_word(2, 2) == "x^2"
        assert quaternion_word(2, 4) == "y"
        assert quaternion_word(2, 5) == "x*y"

    def test_all_constructor_outputs_pass_full_validator(self):
        for g in constructed_groups():
            # re-validate from scratch and cross-check associativity cubically
            rebuilt = GroupTable.from_table(g.name, [list(r) for r in g.table])
            assert rebuilt.element_orders == g.element_orders
            assert full_cubic_associativity(g)


class TestTables:
    def test_elements_by_order(self, catalog_groups):
        for g in catalog_groups + constructed_groups():
            assert sorted(g.elements_by_order) == sorted(set(g.element_orders)), g.name
            for k, elements in g.elements_by_order.items():
                assert list(elements) == [x for x in range(g.order) if g.element_orders[x] == k]

    def test_commutator_products_match_oracle(self, catalog_groups):
        for g in catalog_groups + constructed_groups():
            for h in range(5):
                assert g.commutator_products(h) == naive_commutator_products(g, h), (g.name, h)

    def test_renamed_copy_has_same_tables(self, catalog_groups):
        # build_from_spec(..., name=) renames with GroupTable._replace; the copy
        # starts with no cached tables and must derive the same ones, whether or
        # not the original built its own
        for g in catalog_groups + constructed_groups():
            before = g._replace(name=g.name + "'")
            products = [g.commutator_products(h) for h in range(5)]
            after = g._replace(name=g.name + "''")
            assert type(after) is GroupTable and not vars(after), g.name
            for copy in (before, after):
                assert copy.elements_by_order == g.elements_by_order, g.name
                assert [copy.commutator_products(h) for h in range(5)] == products, g.name


class TestPermutations:
    def test_parse_cycles(self):
        assert parse_cycles("(1 2 3)(4 5)", 5) == (1, 2, 0, 4, 3)
        assert parse_cycles("()", 3) == (0, 1, 2)
        with pytest.raises(SpecParseError):
            parse_cycles("(1 2", 3)
        with pytest.raises(SpecParseError):
            parse_cycles("(1 9)", 3)

    def test_symmetric_three(self):
        g = build_from_permutations(3, ["(1 2)", "(1 2 3)"])
        assert g.order == 6 and not g.is_abelian

    def test_cyclic_four(self):
        g = build_from_permutations(4, ["(1 2 3 4)"])
        assert g.order == 4 and 4 in g.element_orders

    def test_alternating_four(self):
        g = build_from_permutations(4, ["(1 2 3)", "(2 3 4)"])
        assert g.order == 12
        assert order_statistics(g) == ((1, 1), (2, 3), (3, 8))

    def test_cap(self):
        # S6 has 720 > PERM_CLOSURE_CAP elements
        with pytest.raises(ClosureCapError):
            build_from_permutations(6, ["(1 2)", "(1 2 3 4 5 6)"])


class TestPredicates:
    def test_q8_not_cyclic(self):
        q8 = build_generalized_quaternion(2)
        assert not q8.is_abelian and 8 not in q8.element_orders

    def test_cyclic_via_element_of_full_order(self):
        c7 = build_cyclic(7)
        assert 7 in c7.element_orders

    def test_subgroup_closure(self):
        d4 = build_dihedral(4)
        rot = 1  # r has order 4
        assert len(d4.subgroup_closure((rot,))) == 4
        assert d4.generates((1, 4))
        assert not d4.generates((2,))

    def test_commutator_identity_cases(self):
        c6 = build_cyclic(6)
        assert all(c6.commutator(a, b) == 0 for a in range(6) for b in range(6))


class TestValidation:
    def test_latin_square_violation(self):
        with pytest.raises(NotLatinSquareError):
            GroupTable.from_table("bad", [[0, 1], [1, 1]])

    def test_missing_identity(self):
        with pytest.raises(MissingIdentityError):
            GroupTable.from_table("bad", [[1, 0], [0, 1]])

    def test_bad_entry(self):
        with pytest.raises(BadEntryError):
            GroupTable.from_table("bad", [[0, 1], [1, 7]])
        with pytest.raises(BadEntryError):
            GroupTable.from_table("bad", [[0, 1], [1]])

    @pytest.mark.parametrize("k", [1, 3, 13])
    def test_non_associative(self, k):
        # a Latin square with identity that is not a group (order-5 loop), times C_k,
        # with (x, y) packed as x * k + y: orders 5, 15 and 65
        loop = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        rows = [
            [loop[x1][x2] * k + (y1 + y2) % k for x2 in range(5) for y2 in range(k)]
            for x1 in range(5)
            for y1 in range(k)
        ]
        with pytest.raises(NonAssociativeError):
            GroupTable.from_table(f"loop5xC{k}", rows)

    def test_every_small_reduced_latin_square_matches_the_cubic_check(self):
        # Light's test over a generating set rejects a table exactly when some triple fails
        squares, groups = Counter(), Counter()
        for n in range(1, 6):
            for rows in reduced_latin_squares(n):
                squares[n] += 1
                if naive_associative(rows):
                    groups[n] += 1
                    GroupTable.from_table("square", rows)
                else:
                    with pytest.raises(NonAssociativeError):
                        GroupTable.from_table("square", rows)
        assert [squares[n] for n in range(1, 6)] == [1, 1, 1, 4, 56]
        # labelings of the groups with identity 0: C4 three, V4 one, C5 six
        assert [groups[n] for n in range(1, 6)] == [1, 1, 1, 4, 6]

    def test_lights_test_agrees_with_cubic(self):
        # the generator-based check accepts a group that the cubic check confirms
        g = build_generalized_quaternion(17)
        assert g.order == 68
        assert full_cubic_associativity(g)


class TestCayleyFiles:
    def test_round_trip(self, tmp_path):
        q8 = build_generalized_quaternion(2)
        path = tmp_path / "q8.cayley"
        save_cayley_file(q8, path)
        loaded = load_cayley_file(path)
        assert loaded.table == q8.table
        assert loaded.name == "Q8"
        assert order_statistics(loaded) == ((1, 1), (2, 1), (4, 6))

    def test_order_one_allowed(self, tmp_path):
        path = tmp_path / "triv.cayley"
        path.write_text("order 1\n0\n", encoding="utf-8")
        g = load_cayley_file(path)
        assert g.order == 1

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.cayley"
        path.write_text("0 1\n1 0\n", encoding="utf-8")
        with pytest.raises(CayleyFormatError):
            load_cayley_file(path)

    def test_wrong_row_count(self, tmp_path):
        path = tmp_path / "bad.cayley"
        path.write_text("order 3\n0 1 2\n1 2 0\n", encoding="utf-8")
        with pytest.raises(CayleyFormatError):
            load_cayley_file(path)

    def test_latin_violation_is_group_error(self, tmp_path):
        path = tmp_path / "bad.cayley"
        path.write_text("order 2\n0 1\n1 1\n", encoding="utf-8")
        with pytest.raises(NotLatinSquareError):
            load_cayley_file(path)


class TestSpecs:
    @pytest.mark.parametrize(
        "spec,order",
        [
            ("cyclic:6", 6),
            ("elab:2^3", 8),
            ("dihedral:5", 10),
            ("quaternion:3", 12),
            ("product:cyclic:2,cyclic:2,cyclic:3", 12),
            ("perm:3:(1 2);(1 2 3)", 6),
        ],
    )
    def test_spec_orders(self, spec, order):
        assert build_from_spec(spec).order == order

    def test_file_spec(self, tmp_path):
        save_cayley_file(build_cyclic(4), tmp_path / "c4.cayley")
        g = build_from_spec("file:c4.cayley", base_dir=tmp_path)
        assert g.order == 4 and 4 in g.element_orders

    def test_bad_specs(self):
        for bad in ("nonsense:3", "cyclic:x", "product:cyclic:2", "perm:3:"):
            with pytest.raises((SpecParseError, ValueError)):
                build_from_spec(bad)


class TestCatalog:
    def test_counts_per_order(self, catalog):
        for order, count in enumerate(GROUP_COUNTS, start=1):
            assert len([e for e in catalog.entries if e.order == order]) == count

    def test_completeness_flags(self, catalog):
        assert catalog.complete_orders == set(range(1, 16))
        assert catalog.is_complete_at(12)
        assert not catalog.is_complete_at(16)
        assert not catalog.is_complete_at(17)  # no entries at 17, so no coverage claim

    def test_groups_build_and_match_declared_order(self, catalog_groups):
        assert len(catalog_groups) == sum(GROUP_COUNTS)
        for g in catalog_groups:
            assert g.order <= 15

    def test_within_order_fingerprints_distinct(self, catalog_groups):
        for order in range(1, 16):
            stats = [order_statistics(g) for g in catalog_groups if g.order == order]
            assert len(stats) == len(set(stats)), f"order {order} fingerprints collide"

    def test_bundled_catalog_is_shared(self):
        assert bundled_catalog() is bundled_catalog()

    def test_bundled_q8_statistics(self, catalog_groups):
        q8 = next(g for g in catalog_groups if g.name == "Q8")
        assert order_statistics(q8) == ((1, 1), (2, 1), (4, 6))


class TestLoadCatalog:
    def write_manifest(self, directory, entries):
        (directory / "manifest.json").write_text(json.dumps(entries), encoding="utf-8")

    def test_directory_with_cayley_file_entry(self, tmp_path):
        save_cayley_file(build_dihedral(3), tmp_path / "s3.cayley")
        self.write_manifest(tmp_path, [
            {"order": 6, "spec": "file:s3.cayley", "label": "S3", "complete": False},
            {"order": 2, "spec": "cyclic:2", "label": "C2", "complete": True},
        ])
        catalog = load_catalog(tmp_path)
        assert [(e.order, e.label) for e in catalog.entries] == [(2, "C2"), (6, "S3")]
        assert catalog.is_complete_at(2) and not catalog.is_complete_at(6)
        (s3,) = catalog.groups_of_order(6)
        assert s3.name == "S3" and s3.spec == "file:s3.cayley"
        assert s3.table == build_dihedral(3).table and not s3.is_abelian
        assert [g.name for g in catalog.groups()] == ["C2", "S3"]

    def test_each_load_reads_the_directory_again(self, tmp_path):
        self.write_manifest(tmp_path, [
            {"order": 2, "spec": "cyclic:2", "label": "C2", "complete": True},
        ])
        first = load_catalog(tmp_path)
        self.write_manifest(tmp_path, [
            {"order": 3, "spec": "cyclic:3", "label": "C3", "complete": True},
        ])
        assert [e.label for e in first.entries] == ["C2"]
        assert [e.label for e in load_catalog(tmp_path).entries] == ["C3"]

    def test_groups_of_order_builds_only_that_order(self, tmp_path):
        # the order-2 entry names a missing file; asking for order 4 never reads it
        self.write_manifest(tmp_path, [
            {"order": 2, "spec": "file:absent.cayley", "label": "C2", "complete": True},
            {"order": 4, "spec": "cyclic:4", "label": "C4", "complete": False},
        ])
        catalog = load_catalog(tmp_path)
        assert [g.name for g in catalog.groups_of_order(4)] == ["C4"]
        with pytest.raises(OSError):
            catalog.groups_of_order(2)

    @pytest.mark.parametrize(
        "text", ['{"order": 2}', '[{"order": 2, "spec": "cyclic:2"}]', '[{"order": "two"', "[3]"]
    )
    def test_malformed_manifest_rejected(self, tmp_path, text):
        (tmp_path / "manifest.json").write_text(text, encoding="utf-8")
        with pytest.raises(CayleyFormatError):
            load_catalog(tmp_path)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("complete", "false"),
            ("complete", 0),
            ("order", 8.9),
            ("order", True),
            ("order", "8"),
            ("spec", 8),
            ("label", None),
        ],
    )
    def test_field_types_are_exact(self, tmp_path, field, value):
        entry = {"order": 8, "spec": "cyclic:8", "label": "C8", "complete": False, field: value}
        self.write_manifest(tmp_path, [entry])
        with pytest.raises(CayleyFormatError, match="bad entry"):
            load_catalog(tmp_path)
