"""Shortest-path routing over :class:`~repro.topology.graph.NetworkGraph`.

Server placement, the device x server delay matrix and the simulator's
packet routes all go through one private core, :func:`_solve`: per call
it builds the graph's CSR arrays once (weights checked non-negative in
one vectorised pass) and runs :func:`scipy.sparse.csgraph.dijkstra` once
for all roots.  Its distances equal a binary-heap Dijkstra's bit for
bit, but its predecessors break ties differently, so paths come from
the distances under the heap's rule: ``v``'s predecessor is the first
settled neighbour ``u`` with ``d[u] + w(u, v) == d[v]``, where nodes
settle in ``(distance, node id)`` order — or, when a zero-weight link
queues a node behind its distance peers, in the replayed heap order.
:func:`dijkstra` is that heap Dijkstra, kept only as the test oracle.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from repro.errors import RoutingError
from repro.topology.graph import Link, NetworkGraph
from repro.utils.validation import require

WeightFn = Callable[[Link], float]


@dataclass(frozen=True)
class Path:
    """A routed path: the node sequence and its total weight."""

    nodes: tuple[int, ...]
    cost: float

    @property
    def hops(self) -> int:
        """Number of links traversed."""
        return len(self.nodes) - 1

    def links(self, graph: NetworkGraph) -> list[Link]:
        """Resolve the path's node sequence to its links in ``graph``."""
        return graph.links_on_path(self.nodes)


def dijkstra(
    graph: NetworkGraph,
    source: int,
    weight_fn: WeightFn,
) -> tuple[dict[int, float], dict[int, int]]:
    """Single-source shortest paths with a binary heap (the test oracle).

    Returns ``(distance, predecessor)`` dicts covering every node
    reachable from ``source``.  ``predecessor`` omits the source
    itself.  Link weights must be non-negative (delay models guarantee
    this).
    """
    graph.node(source)  # validates existence
    distance: dict[int, float] = {source: 0.0}
    predecessor: dict[int, int] = {}
    settled: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        dist, current = heapq.heappop(heap)
        if current in settled:
            continue
        settled.add(current)
        for link in graph.incident_links(current):
            nbr = link.other(current)
            if nbr in settled:
                continue
            weight = weight_fn(link)
            require(weight >= 0, f"negative link weight {weight} on ({link.u}, {link.v})")
            candidate = dist + weight
            if candidate < distance.get(nbr, float("inf")):
                distance[nbr] = candidate
                predecessor[nbr] = current
                heapq.heappush(heap, (candidate, nbr))
    return distance, predecessor


def _solve(
    graph: NetworkGraph, roots: Sequence[int], weight_fn: WeightFn, predecessors: bool = False
) -> tuple:
    """``(ids, col, dist, pred)``: ascending node ids, ``col(node_id)`` ->
    column of ``dist`` (unknown ids -> an extra last column of ``inf``),
    and distances / heap-rule predecessor indices, one row per root (an
    unknown root's row is all ``inf``; callers raise the error)."""
    ids = graph.node_ids()
    n = len(ids)
    index = {node_id: i for i, node_id in enumerate(ids)}
    links = graph.links()
    weights = np.fromiter((weight_fn(link) for link in links), np.float64, len(links))
    for i in np.flatnonzero(~(weights >= 0))[:1]:  # NaN fails too
        require(False, f"negative link weight {weights[i]} on ({links[i].u}, {links[i].v})")
    u, v = np.array([(index[x.u], index[x.v]) for x in links], np.intp).reshape(-1, 2).T
    src, dst, w = np.r_[u, v], np.r_[v, u], np.r_[weights, weights]
    dist = np.full((len(roots), n + 1), np.inf)
    rows = [r for r, root in enumerate(roots) if root in index]
    if rows:
        order = np.argsort(src, kind="stable")
        indptr = np.r_[0, np.cumsum(np.bincount(src, minlength=n))]
        dist[rows, :n] = _csgraph_dijkstra(
            csr_matrix((w[order], dst[order], indptr), shape=(n, n)),
            directed=True,
            indices=[index[roots[r]] for r in rows],
        )
    pred = np.full((len(roots), n), -1, dtype=np.intp) if predecessors else None
    for r in rows if predecessors else ():
        pred[r] = _heap_predecessors(dist[r, :n], index[roots[r]], src, dst, w)
    return ids, lambda node_id: index.get(node_id, n), dist, pred


def _heap_predecessors(
    d: np.ndarray, root: int, src: np.ndarray, dst: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """Each node's predecessor index under the heap tie rule (``-1`` for the
    root and unreachable nodes)."""
    tight = np.isfinite(d[dst]) & (d[src] + w == d[dst]) & (dst != root)
    su, sv = src[tight], dst[tight]
    order = np.lexsort((np.arange(d.size), d))  # the heap's settle order ...
    if (d[su] == d[sv]).any():
        # ... unless a zero-weight link queues a node behind its distance
        # peers: replay the heap over the tight links
        order, heap, settled, out = [], [(d[root], root)], set(), {}
        for a, b in zip(su.tolist(), sv.tolist()):
            out.setdefault(a, []).append(b)
        while heap:
            _, node = heapq.heappop(heap)
            if node not in settled:
                settled.add(node)
                order.append(node)
                for nbr in out.get(node, ()):
                    heapq.heappush(heap, (d[nbr], nbr))
    rank = np.zeros(d.size, dtype=np.intp)
    rank[order] = np.arange(len(order))
    keep = rank[su] < rank[sv]  # settled before v; the first of those wins
    su, sv = su[keep], sv[keep]
    first = np.lexsort((rank[su], sv))
    su, sv = su[first], sv[first]
    head = np.r_[True, sv[1:] != sv[:-1]] if sv.size else np.zeros(0, bool)
    pred = np.full(d.size, -1, dtype=np.intp)
    pred[sv[head]] = su[head]
    return pred


def shortest_path(
    graph: NetworkGraph,
    source: int,
    target: int,
    weight_fn: WeightFn,
) -> Path:
    """Shortest path from ``source`` to ``target``.

    Raises :class:`~repro.errors.RoutingError` when the nodes are
    disconnected.
    """
    graph.node(source)  # validates existence
    try:  # rooted at the source, as the path cost is summed from there
        path = routing_paths(graph, [target], source, weight_fn)[target]
    except RoutingError:
        raise RoutingError(source, target) from None
    return Path(path.nodes[::-1], path.cost)


def all_pairs_delay(
    graph: NetworkGraph,
    sources: list[int],
    targets: list[int],
    weight_fn: WeightFn,
) -> np.ndarray:
    """Distance matrix of shape ``(len(sources), len(targets))``.

    Rooted at the *targets* and read off at the sources — correct for
    undirected graphs and far cheaper when there are few targets (edge
    servers) and many sources (devices).

    Raises :class:`~repro.errors.RoutingError` for any unreachable
    (source, target) pair: an IoT device that cannot reach some edge
    server indicates a broken topology, not a valid instance.
    """
    require(len(sources) > 0, "sources must be non-empty")
    require(len(targets) > 0, "targets must be non-empty")
    _, col, dist, _ = _solve(graph, targets, weight_fn)
    matrix = np.ascontiguousarray(dist[:, [col(s) for s in sources]].T)
    for j, target in enumerate(targets):  # the error a per-target search hits first
        graph.node(target)
        bad = np.flatnonzero(~np.isfinite(matrix[:, j]))
        if bad.size:
            raise RoutingError(sources[bad[0]], target)
    return matrix


def routing_paths(
    graph: NetworkGraph,
    sources: list[int],
    target: int,
    weight_fn: WeightFn,
) -> dict[int, Path]:
    """Shortest path from each source to one target."""
    return routing_paths_many(graph, {target: sources}, weight_fn)[target]


def routing_paths_many(
    graph: NetworkGraph, routes: Mapping[int, Sequence[int]], weight_fn: WeightFn
) -> dict[int, dict[int, Path]]:
    """``{target: {source: Path}}`` for ``routes`` mapping each target (an
    edge server) to its sources (its devices), in one core call."""
    ids, col, dist, pred = _solve(graph, list(routes), weight_fn, predecessors=True)
    result: dict[int, dict[int, Path]] = {}
    for row, (target, sources) in enumerate(routes.items()):
        graph.node(target)  # validates existence
        costs = dist[row, [col(s) for s in sources]]
        bad = np.flatnonzero(~np.isfinite(costs))
        if bad.size:
            raise RoutingError(sources[bad[0]], target)
        result[target] = {}
        for source, cost in zip(sources, costs):
            walk = [col(source)]
            while ids[walk[-1]] != target:
                walk.append(pred[row, walk[-1]])
            result[target][source] = Path(tuple(ids[i] for i in walk), float(cost))
    return result

