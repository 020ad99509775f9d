"""The immutable CSR graph: construction checks, vertex-id checks, edges."""

import pytest

from walkup import DomainError, Graph

PATH = Graph(3, [(0, 1), (1, 2)])


class TestConstruction:
    def test_edges_are_canonical_sorted_and_distinct(self):
        G = Graph(4, [(3, 1), (1, 0), (0, 1), (2, 3)])
        assert G.edges == ((0, 1), (1, 3), (2, 3))
        assert G.num_edges == 3
        assert G.neighbors(1) == (0, 3)
        assert G == Graph(4, G.edges) and hash(G) == hash(Graph(4, G.edges))

    @pytest.mark.parametrize("edges, message", [
        ([(0, 3)], "out of range"), ([(-1, 0)], "out of range"),
        ([(1, 1)], "loop")])
    def test_rejected_edges(self, edges, message):
        with pytest.raises(DomainError, match=message):
            Graph(3, edges)

    def test_negative_vertex_count(self):
        with pytest.raises(DomainError):
            Graph(-1)

    def test_empty_graph(self):
        G = Graph(0)
        assert G.edges == () and G.is_connected() and not G.is_tree()
        assert G.connected_components() == ()

    def test_immutable(self):
        with pytest.raises(AttributeError):
            PATH._n = 4


class TestVertexIds:
    """Ids outside [0, n) raise instead of reading another vertex's row."""

    @pytest.mark.parametrize("v", [-1, -3, -4, 3, 5])
    def test_out_of_range_ids_raise(self, v):
        with pytest.raises(DomainError, match="out of range"):
            PATH.neighbors(v)
        with pytest.raises(DomainError, match="out of range"):
            PATH.degree(v)
        with pytest.raises(DomainError, match="out of range"):
            PATH.has_edge(v, 1)
        with pytest.raises(DomainError, match="out of range"):
            PATH.has_edge(1, v)
        with pytest.raises(DomainError, match="out of range"):
            PATH.is_induced_subtree({v})
        with pytest.raises(DomainError, match="out of range"):
            PATH.is_induced_subtree({0, 1, v})

    def test_in_range_ids(self):
        assert [PATH.neighbors(v) for v in range(3)] == [(1,), (0, 2), (1,)]
        assert [PATH.degree(v) for v in range(3)] == [1, 2, 1]
        assert PATH.has_edge(2, 1) and not PATH.has_edge(0, 2)
        assert PATH.is_induced_subtree({0, 1}) and not PATH.is_induced_subtree({0, 2})
