"""Parity of the csgraph shortest-path core with the heap Dijkstra oracle.

Every routed quantity in the library goes through one csgraph core.
These properties pin it to the binary-heap :func:`dijkstra` it replaced
(and to networkx where sums are exact): the same distances bit for bit,
the same paths under the heap's tie rule, and the same errors.  Graphs
are small and random with small-integer or constant weights, so ties
are common; they include zero-weight links, disconnected components
and non-contiguous node ids.
"""

from __future__ import annotations

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError, TopologyError, ValidationError
from repro.topology.graph import NetworkGraph, NodeKind
from repro.topology.routing import (
    Path,
    _solve,
    all_pairs_delay,
    dijkstra,
    routing_paths,
    routing_paths_many,
    shortest_path,
)

#: link weight modes: small integers with zeros, small positive
#: integers, and constant hop weights
WEIGHTS = {
    "zero_ties": [0.0, 0.0, 1.0, 2.0, 3.0],
    "small_int": [1.0, 2.0, 3.0],
    "hops": [1.0],
}


@st.composite
def graphs(draw, max_nodes: int = 12):
    """A random graph with non-contiguous ids, often disconnected."""
    ids = draw(
        st.lists(st.integers(0, 300), min_size=1, max_size=max_nodes, unique=True)
    )
    choices = WEIGHTS[draw(st.sampled_from(sorted(WEIGHTS)))]
    graph = NetworkGraph()
    for node_id in ids:
        graph.add_node(NodeKind.ROUTER, node_id=node_id)
    if len(ids) > 1:
        pairs = draw(
            st.lists(
                st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                max_size=3 * len(ids),
            )
        )
        for u, v in pairs:
            if u != v and not graph.has_link(u, v):
                graph.add_link(
                    u, v, latency_s=draw(st.sampled_from(choices)),
                    bandwidth_bps=1e9,
                )
    return graph


def latency(link):
    return link.latency_s


def component(graph: NetworkGraph, node: int) -> list[int]:
    distance, _ = dijkstra(graph, node, latency)
    return sorted(distance)


# -- the per-root oracles the core replaced, errors included -------------
def oracle_routing_paths(graph, sources, target, weight_fn):
    distance, predecessor = dijkstra(graph, target, weight_fn)
    paths = {}
    for source in sources:
        if source not in distance:
            raise RoutingError(source, target)
        nodes = [source]
        while nodes[-1] != target:
            nodes.append(predecessor[nodes[-1]])
        paths[source] = Path(tuple(nodes), distance[source])
    return paths


def oracle_all_pairs_delay(graph, sources, targets, weight_fn):
    matrix = np.empty((len(sources), len(targets)))
    for col, target in enumerate(targets):
        distance, _ = dijkstra(graph, target, weight_fn)
        for row, source in enumerate(sources):
            if source not in distance:
                raise RoutingError(source, target)
            matrix[row, col] = distance[source]
    return matrix


def oracle_shortest_path(graph, source, target, weight_fn):
    distance, predecessor = dijkstra(graph, source, weight_fn)
    if target not in distance:
        raise RoutingError(source, target)
    nodes = [target]
    while nodes[-1] != source:
        nodes.append(predecessor[nodes[-1]])
    return Path(tuple(reversed(nodes)), distance[target])


def outcome(fn, *args):
    """The value, or the error's class and routed pair, for comparison."""
    try:
        return fn(*args)
    except RoutingError as exc:
        return (RoutingError, exc.source, exc.target)
    except TopologyError:
        return TopologyError


def assert_same(ours, theirs) -> None:
    """Equal outcomes; matrices compared element for element."""
    if isinstance(theirs, np.ndarray):
        assert isinstance(ours, np.ndarray) and ours.flags.c_contiguous
        assert np.array_equal(ours, theirs)
    else:
        assert ours == theirs


def oracle_distances(graph, roots, weight_fn) -> np.ndarray:
    ids = graph.node_ids()
    matrix = np.full((len(roots), len(ids)), np.inf)
    for row, root in enumerate(roots):
        distance, _ = dijkstra(graph, root, weight_fn)
        for col, node in enumerate(ids):
            matrix[row, col] = distance.get(node, np.inf)
    return matrix


class TestDistances:
    @given(graphs())
    @settings(max_examples=150, deadline=None)
    def test_core_matrix_equals_oracle(self, graph):
        ids = graph.node_ids()
        for weight_fn in (latency, lambda link: 1.0):
            _, _, dist, _ = _solve(graph, ids, weight_fn)
            assert np.array_equal(
                dist[:, : len(ids)], oracle_distances(graph, ids, weight_fn)
            )

    @given(graphs())
    @settings(max_examples=100, deadline=None)
    def test_core_matrix_equals_networkx(self, graph):
        # integer weights: every path sum is exact, whatever the order
        oracle = nx.Graph()
        oracle.add_nodes_from(graph.node_ids())
        for link in graph.links():
            oracle.add_edge(link.u, link.v, weight=link.latency_s)
        ids = graph.node_ids()
        _, _, dist, _ = _solve(graph, ids, latency)
        for row, root in enumerate(ids):
            lengths = nx.single_source_dijkstra_path_length(oracle, root)
            expected = [lengths.get(node, math.inf) for node in ids]
            assert np.array_equal(dist[row, : len(ids)], expected)

    @given(graphs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_all_pairs_delay_equals_oracle(self, graph, data):
        ids = graph.node_ids()
        sources = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=6))
        targets = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=4))
        assert_same(
            outcome(all_pairs_delay, graph, sources, targets, latency),
            outcome(oracle_all_pairs_delay, graph, sources, targets, latency),
        )


class TestPaths:
    @given(graphs())
    @settings(max_examples=150, deadline=None)
    def test_routing_paths_equal_oracle(self, graph):
        for weight_fn in (latency, lambda link: 1.0):
            for target in graph.node_ids():
                sources = component(graph, target)
                assert routing_paths(graph, sources, target, weight_fn) == (
                    oracle_routing_paths(graph, sources, target, weight_fn)
                )

    @given(graphs())
    @settings(max_examples=100, deadline=None)
    def test_multi_root_form_equals_per_target_calls(self, graph):
        routes = {target: component(graph, target) for target in graph.node_ids()}
        many = routing_paths_many(graph, routes, latency)
        assert list(many) == list(routes)
        for target, sources in routes.items():
            assert many[target] == oracle_routing_paths(
                graph, sources, target, latency
            )

    @given(graphs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_shortest_path_equals_oracle(self, graph, data):
        ids = graph.node_ids()
        source = data.draw(st.sampled_from(ids))
        target = data.draw(st.sampled_from(ids))
        assert outcome(shortest_path, graph, source, target, latency) == (
            outcome(oracle_shortest_path, graph, source, target, latency)
        )

    def test_zero_weight_link_reached_after_its_distance_queued(self):
        # 7 is first reached through the zero-weight link from 10, after
        # every entry at distance 5 was queued: it must keep 10 as its
        # predecessor even though (5, 10) > (5, 7)
        graph = NetworkGraph()
        for node_id in (0, 7, 10, 12):
            graph.add_node(NodeKind.ROUTER, node_id=node_id)
        graph.add_link(0, 10, latency_s=5.0, bandwidth_bps=1e9)
        graph.add_link(10, 7, latency_s=0.0, bandwidth_bps=1e9)
        graph.add_link(0, 12, latency_s=1.0, bandwidth_bps=1e9)
        assert shortest_path(graph, 0, 7, latency) == Path((0, 10, 7), 5.0)


class TestErrors:
    @given(graphs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_unreachable_pair_names_the_same_pair(self, graph, data):
        ids = graph.node_ids()
        sources = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=6))
        target = data.draw(st.sampled_from(ids))
        assert outcome(routing_paths, graph, sources, target, latency) == (
            outcome(oracle_routing_paths, graph, sources, target, latency)
        )

    @given(graphs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_unknown_ids_raise_the_same_error(self, graph, data):
        ids = graph.node_ids()
        pool = ids + [1000, 1001]  # never drawn as node ids
        sources = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
        targets = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        assert_same(
            outcome(all_pairs_delay, graph, sources, targets, latency),
            outcome(oracle_all_pairs_delay, graph, sources, targets, latency),
        )
        for target in targets:
            assert outcome(routing_paths, graph, sources, target, latency) == (
                outcome(oracle_routing_paths, graph, sources, target, latency)
            )
            assert outcome(
                shortest_path, graph, sources[0], target, latency
            ) == outcome(oracle_shortest_path, graph, sources[0], target, latency)

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    def test_negative_and_nan_weights_rejected(self, bad):
        graph = NetworkGraph()
        a, b, c, d = (graph.add_node(NodeKind.ROUTER) for _ in range(4))
        graph.add_link(a, b, latency_s=1.0, bandwidth_bps=1e9)
        # on a component the search from ``a`` never explores: every
        # link is validated, not only the explored ones
        graph.add_link(c, d, latency_s=2.0, bandwidth_bps=1e9)

        def weight_fn(link):
            return bad if link.latency_s == 2.0 else link.latency_s

        with pytest.raises(ValidationError, match="negative link weight"):
            routing_paths(graph, [b], a, weight_fn)
        with pytest.raises(ValidationError, match="negative link weight"):
            all_pairs_delay(graph, [b], [a], weight_fn)
        with pytest.raises(ValidationError, match="negative link weight"):
            shortest_path(graph, a, b, weight_fn)
        graph.add_link(b, c, latency_s=1.0, bandwidth_bps=1e9)
        with pytest.raises(ValidationError, match="negative link weight"):
            dijkstra(graph, a, weight_fn)  # the oracle, once it explores the link
