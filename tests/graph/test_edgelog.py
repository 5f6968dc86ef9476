"""Equivalence tests for the edge-log graph and its bulk CSR builds.

The analysis pipeline emits its dependency graph through
:class:`~repro.graph.edgelog.EdgeLogGraph`, whose freeze must be
byte-identical to inserting the same emission stream into a
:class:`~repro.graph.digraph.LabeledDiGraph` and freezing that: same node
interning order, same successor row order, same OR-ed labels.  Both bulk
builders (vectorized and pure-Python) are pinned against the digraph
reference, as is the scipy acyclicity screen that lets large clean graphs
skip the Python Tarjan entirely.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph, EdgeLogGraph, LabeledDiGraph
from repro.graph.csr import _FAST_SCC_MIN_EDGES
from repro.graph.intervals import (
    interval_precedence_edges,
    interval_precedence_pairs,
)

edge_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=40),
        st.sampled_from([1, 2, 4, 8, 16]),
    ),
    max_size=200,
)


def reference_csr(edges):
    graph = LabeledDiGraph()
    graph.add_edges_from(edges)
    return graph.freeze()


def csr_signature(csr):
    return (csr.nodes, csr.indptr, csr.indices, csr.labels, csr.label_union)


class TestEdgeLogEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(edge_lists)
    def test_freeze_matches_digraph_freeze(self, edges):
        log = EdgeLogGraph()
        log.add_edges_from(edges)
        assert csr_signature(log.freeze()) == csr_signature(
            reference_csr(edges)
        )

    @settings(max_examples=40, deadline=None)
    @given(edge_lists)
    def test_both_bulk_builders_agree(self, edges):
        us = [u for u, _v, _l in edges]
        vs = [v for _u, v, _l in edges]
        ls = [label for _u, _v, label in edges]
        ref = csr_signature(reference_csr(edges))
        assert csr_signature(CSRGraph._from_edge_log_py(us, vs, ls)) == ref
        if edges:
            assert csr_signature(CSRGraph._from_edge_log_np(us, vs, ls)) == ref

    def test_numpy_builder_handles_sparse_node_values(self):
        # Node values far above the edge count take the np.unique path
        # instead of the dense-domain scatter.
        edges = [(10**9 + i % 7, 10**9 + (i * 3) % 7, 1) for i in range(40)]
        us = [u for u, _v, _l in edges]
        vs = [v for _u, v, _l in edges]
        ls = [1] * len(edges)
        assert csr_signature(
            CSRGraph._from_edge_log_np(us, vs, ls)
        ) == csr_signature(reference_csr(edges))

    def test_builder_outputs_python_ints(self):
        log = EdgeLogGraph()
        log.add_edges_from([(i, i + 1, 1) for i in range(1000)])
        csr = log.freeze()
        for seq in (csr.nodes, csr.indptr, csr.indices, csr.labels):
            assert all(type(x) is int for x in seq)

    def test_repeated_pairs_or_labels_together(self):
        log = EdgeLogGraph()
        log.add_edge(1, 2, 1)
        log.add_edge(1, 2, 4)
        assert log.edge_label(1, 2) == 5
        assert log.edge_count == 1

    def test_freeze_is_cached_until_mutation(self):
        log = EdgeLogGraph()
        log.add_edge(1, 2, 1)
        first = log.freeze()
        assert log.freeze() is first
        log.add_edge(2, 3, 1)
        assert log.freeze() is not first
        assert log.node_count == 3


class TestEdgeLogApi:
    def build(self):
        log = EdgeLogGraph()
        log.add_edges_from([(1, 2, 1), (2, 3, 2), (1, 3, 4)])
        return log

    def test_zero_label_rejected_everywhere(self):
        log = EdgeLogGraph()
        with pytest.raises(ValueError):
            log.add_edge(1, 2, 0)
        with pytest.raises(ValueError):
            log.add_edges_from([(1, 2, 0)])
        with pytest.raises(ValueError):
            log.add_edge_arrays([1], [2], 0)

    def test_add_edge_arrays_bulk(self):
        log = self.build()
        log.add_edge_arrays([3, 3], [1, 2], 8)
        assert log.edge_label(3, 1) == 8
        assert log.edge_label(3, 2) == 8
        log.add_edge_arrays([], [], 8)  # no-op

    def test_union_concatenates_logs(self):
        log = self.build()
        other = EdgeLogGraph()
        other.add_edge(3, 4, 1)
        assert log.union(other) is log
        assert log.has_edge(3, 4)

    def test_add_edge_keys_accepts_dict_keys(self):
        log = EdgeLogGraph()
        fragment = {(1, 2, 1): "ev-a", (2, 3, 2): "ev-b"}
        log.add_edge_keys(fragment)
        log.add_edge_keys({})
        assert sorted(log.edges()) == [(1, 2, 1), (2, 3, 2)]

    def test_nodes_edges_and_membership(self):
        log = self.build()
        assert list(log.nodes()) == [1, 2, 3]
        assert sorted(log.edges()) == [(1, 2, 1), (1, 3, 4), (2, 3, 2)]
        assert list(log.edges(mask=2)) == [(2, 3, 2)]
        assert 1 in log and 9 not in log
        assert len(log) == 3
        assert log.emission_count == 3

    def test_degrees_and_successors(self):
        log = self.build()
        assert log.out_degree(1) == 2
        assert log.out_degree(1, mask=1) == 1
        assert log.out_degree(9) == 0
        assert log.in_degree(3) == 2
        assert log.in_degree(3, mask=2) == 1
        assert log.in_degree(9) == 0
        assert list(log.successors(1)) == [2, 3]


class TestAcyclicityScreen:
    def chain_graph(self, n, cyclic):
        log = EdgeLogGraph()
        log.add_edges_from([(i, i + 1, 1) for i in range(n)])
        if cyclic:
            log.add_edge(n, 0, 1)
        return log.freeze()

    def test_large_acyclic_graph_screens_to_no_components(self):
        csr = self.chain_graph(_FAST_SCC_MIN_EDGES + 8, cyclic=False)
        assert csr._provably_acyclic(csr.label_union)
        assert csr.cyclic_scc_idx(csr.label_union) == []

    def test_large_cyclic_graph_falls_through_to_tarjan(self):
        csr = self.chain_graph(_FAST_SCC_MIN_EDGES + 8, cyclic=True)
        assert not csr._provably_acyclic(csr.label_union)
        components = csr.cyclic_scc_idx(csr.label_union)
        assert len(components) == 1
        assert len(components[0]) == _FAST_SCC_MIN_EDGES + 9

    def test_self_loop_defeats_the_screen(self):
        log = EdgeLogGraph()
        log.add_edges_from([(i, i + 1, 1) for i in range(_FAST_SCC_MIN_EDGES)])
        log.add_edge(5, 5, 1)
        csr = log.freeze()
        assert not csr._provably_acyclic(csr.label_union)
        assert [c for c in csr.cyclic_scc_idx(csr.label_union)] == [[5]]

    def test_masked_screen_filters_edges(self):
        # Under the full mask there is a cycle; under mask=1 there is not.
        log = EdgeLogGraph()
        log.add_edges_from([(i, i + 1, 1) for i in range(_FAST_SCC_MIN_EDGES)])
        log.add_edge(_FAST_SCC_MIN_EDGES, 0, 2)
        csr = log.freeze()
        assert not csr._provably_acyclic(csr.label_union)
        assert csr._provably_acyclic(1)
        assert csr.cyclic_scc_idx(1) == []
        assert len(csr.cyclic_scc_idx(csr.label_union)) == 1

    def test_small_graphs_never_use_the_screen(self):
        csr = self.chain_graph(16, cyclic=False)
        assert not csr._provably_acyclic(csr.label_union)
        assert csr.cyclic_scc_idx(csr.label_union) == []


intervals_strategy = st.lists(
    st.tuples(st.integers(0, 30), st.integers(1, 30)).map(
        lambda pair: (pair[0], pair[0] + pair[1])
    ),
    max_size=30,
).map(
    lambda spans: [
        (f"t{i}", invoke, complete)
        for i, (invoke, complete) in enumerate(spans)
    ]
)


class TestIntervalPairs:
    @settings(max_examples=60, deadline=None)
    @given(intervals_strategy)
    def test_pairs_match_edge_generator(self, intervals):
        ids = [i for i, _a, _b in intervals]
        invokes = [a for _i, a, _b in intervals]
        completes = [b for _i, _a, b in intervals]
        sources, targets = interval_precedence_pairs(ids, invokes, completes)
        assert list(zip(sources, targets)) == list(
            interval_precedence_edges(intervals)
        )

    def test_numpy_sort_path_matches_tuple_sort(self, monkeypatch):
        # Enough intervals to cross the numpy lexsort threshold, with
        # heavy (time, kind) ties to stress the stable tie-breaking.
        import repro.graph.intervals as intervals_mod

        intervals = [(i, i % 97, i % 97 + 1 + i % 5) for i in range(1500)]
        ids = [i for i, _a, _b in intervals]
        invokes = [a for _i, a, _b in intervals]
        completes = [b for _i, _a, b in intervals]
        via_numpy = interval_precedence_pairs(ids, invokes, completes)
        # Force the tuple-sort branch for the reference computation.
        monkeypatch.setattr(intervals_mod, "_NP_SORT_MIN", float("inf"))
        via_tuples = interval_precedence_pairs(ids, invokes, completes)
        # The numpy branch may hand back int64 arrays; compare as lists.
        assert [list(map(int, side)) for side in via_numpy] == [
            list(side) for side in via_tuples
        ]

    def test_invalid_interval_raises(self):
        with pytest.raises(ValueError):
            interval_precedence_pairs(["x"], [5], [5])
