"""The contract of the twelve result records.

Every record is immutable, built positionally or by keyword from its fields
in declaration order, equal and hashed by its field values within one class,
and keeps its fields in the instance ``__dict__``, so
``type(r)(**r.__dict__)`` rebuilds it.
"""

import pytest

from walkup import (DomainError, Graph, OrbitPresentation, TreeFamily,
                    automorphism_group, betti_numbers, catalog, certify_tight,
                    check_lower_bounds, homology, verify_hypotheses)
from walkup.catalog import CatalogEntry
from walkup.core import _Record

FIELDS = {
    "FaceVector": ("counts",),
    "BoundEntry": ("j", "bound", "actual"),
    "BoundReport": ("dimension", "beta1", "entries", "b_lhs", "b_rhs",
                    "manifoldness"),
    "TreeFamily": ("host", "trees", "dimension"),
    "HypothesisReport": ("tree_failures", "intersection_failures",
                         "coverage_failures", "pair_failures"),
    "OrbitPresentation": ("classes", "order", "basic_facets"),
    "ChainBoundary": ("dimension", "field", "row_faces", "col_faces",
                      "columns"),
    "BettiVector": ("field", "values"),
    "TypeReport": ("dimension", "chi", "beta1", "orientable",
                   "euler_formula_ok", "type_string"),
    "TightCertificate": ("dimension", "in_kstar", "orientable", "field",
                         "tight", "strongly_minimal", "certified", "beta1",
                         "detail"),
    "GroupDescription": ("order", "generators", "structure"),
    "CatalogEntry": ("name", "kind", "f_vector", "chi", "beta1", "aut_order",
                     "aut_structure", "orientable", "type_string",
                     "facet_count"),
}


def _path_family() -> TreeFamily:
    return TreeFamily(Graph(3, [(0, 1), (1, 2)]),
                      (frozenset({0, 1}), frozenset({1, 2})), 1)


@pytest.fixture(scope="module")
def records() -> dict:
    """One instance of each record, made by the library where it is cheap."""
    S = catalog.get("S4_6")
    bounds = check_lower_bounds(S, 0)
    made = [
        S.f_vector(), bounds.entries[0], bounds, _path_family(),
        verify_hypotheses(_path_family()), catalog.presentation("A5_21"),
        homology.boundary_matrix(S, 2, homology.Q), betti_numbers(S),
        homology.identify_type(S), certify_tight(S), automorphism_group(S),
        catalog.expected("M4_21"),
    ]
    return {type(r).__name__: r for r in made}


def test_the_twelve_records_share_the_base(records):
    assert sorted(records) == sorted(FIELDS)
    for r in records.values():
        assert isinstance(r, _Record)


@pytest.mark.parametrize("name", sorted(FIELDS))
class TestRecordContract:
    def test_fields_in_declaration_order(self, records, name):
        r = records[name]
        assert tuple(r.__dict__) == FIELDS[name]
        assert all(getattr(r, f) is v for f, v in r.__dict__.items())

    def test_keyword_and_positional_construction(self, records, name):
        r = records[name]
        by_keyword = type(r)(**r.__dict__)
        by_position = type(r)(*r.__dict__.values())
        assert by_keyword == r and by_position == r
        assert by_keyword is not r
        assert hash(by_keyword) == hash(by_position) == hash(r)
        assert len({r, by_keyword, by_position}) == 1
        assert repr(by_keyword) == repr(r)

    def test_equality_follows_each_field(self, records, name):
        r = records[name]
        for field in FIELDS[name]:
            other = dict(r.__dict__)
            other[field] = _changed(other[field])
            try:
                changed = type(r)(**other)
            except DomainError:
                continue  # the change broke a validity check
            assert changed != r, field
            assert not changed == r

    def test_immutable(self, records, name):
        r = records[name]
        before = dict(r.__dict__)
        for field in FIELDS[name]:
            with pytest.raises(AttributeError):
                setattr(r, field, None)
            with pytest.raises(AttributeError):
                delattr(r, field)
        with pytest.raises(AttributeError):
            r.not_a_field = 1
        assert r.__dict__ == before

    def test_bad_arguments(self, records, name):
        r = records[name]
        cls, values = type(r), list(r.__dict__.values())
        with pytest.raises(TypeError):
            cls(*values, None)
        with pytest.raises(TypeError):
            cls(**r.__dict__, not_a_field=1)
        with pytest.raises(TypeError):
            cls(*values[:1], **r.__dict__)  # the first field given twice
        if name != "CatalogEntry":  # every field of the others is required
            with pytest.raises(TypeError):
                cls(*values[:-1])


def _changed(value):
    """A value of the same kind that differs from ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, tuple):
        return value[:-1] if value else (0,)
    if isinstance(value, Graph):
        return Graph(value.num_vertices + 1, value.edges)
    return 0 if value is None else None


def test_equal_values_in_other_classes_differ():
    class A(_Record):
        x: int
        y: int = 2

    class B(_Record):
        x: int
        y: int = 2

    assert A(1) == A(x=1, y=2)
    assert A(1) != B(1)
    assert not A(1) == B(1)
    assert {A(1), B(1), A(1, 2)} == {A(1), B(1)}
    assert repr(A(1)) == ("test_equal_values_in_other_classes_differ"
                          ".<locals>.A(x=1, y=2)")


def test_repr_lists_fields_in_order():
    assert (repr(homology.BettiVector("GF2", (1, 0, 1)))
            == "BettiVector(field='GF2', values=(1, 0, 1))")


def test_catalog_entry_defaults():
    entry = CatalogEntry("X", "sphere")
    assert entry.__dict__ == {
        "name": "X", "kind": "sphere", "f_vector": None, "chi": None,
        "beta1": None, "aut_order": None, "aut_structure": None,
        "orientable": None, "type_string": None, "facet_count": None}
    assert CatalogEntry("X", "sphere", (1, 2)) == CatalogEntry(
        name="X", kind="sphere", f_vector=(1, 2))
    with pytest.raises(TypeError):
        CatalogEntry("X")


def test_dict_round_trip_with_a_replaced_field():
    entry = catalog.expected("N4_26")
    changed = CatalogEntry(**{**entry.__dict__, "beta1": 13})
    assert changed.beta1 == 13 and entry.beta1 != 13
    assert changed.name == entry.name and changed != entry


def test_tight_certificate_to_dict(records):
    cert = records["TightCertificate"]
    d = cert.to_dict()
    assert list(d) == list(FIELDS["TightCertificate"])
    assert d == {f: getattr(cert, f) for f in FIELDS["TightCertificate"]}
    d["tight"] = "changed"
    assert cert.to_dict()["tight"] == cert.tight != "changed"  # a copy


class TestValidation:
    def test_tree_family_vertex_outside_host(self):
        with pytest.raises(DomainError, match="outside the host graph"):
            TreeFamily(Graph(2, [(0, 1)]), (frozenset({0, 2}),), 1)

    def test_tree_family_dimension(self):
        with pytest.raises(DomainError, match="dimension must be at least 1"):
            TreeFamily(Graph(2, [(0, 1)]), (frozenset({0}),), 0)

    @pytest.mark.parametrize("classes, order, facets, message", [
        (("a",), 0, (), "group order must be positive"),
        (("a", "a"), 3, (), "duplicate label classes"),
        (("a",), 3, ((("b", 0),),), "unknown label class"),
        (("a",), 3, ((("a", 3),),), "outside"),
        (("a",), 3, ((("a", -1),),), "outside"),
    ])
    def test_orbit_presentation(self, classes, order, facets, message):
        with pytest.raises(DomainError, match=message):
            OrbitPresentation(classes, order, facets)
        with pytest.raises(DomainError, match=message):
            OrbitPresentation(classes=classes, order=order,
                              basic_facets=facets)
