"""Edge-server placement: choosing which routers host the edge cluster.

Placement is orthogonal to assignment — the paper configures the
*assignment* of devices to an already-placed cluster — but the choice
of host routers shapes how hard the assignment instance is, so the
harness exposes the standard strategies:

* ``random`` — uniformly random host routers;
* ``degree`` — the highest-degree routers (hubs);
* ``spread`` — greedy k-center: iteratively pick the router farthest
  (in routed delay) from the servers placed so far, maximizing
  coverage;
* ``medoid`` — greedy k-medoid: iteratively pick the router that most
  reduces the average routed delay from all routers to their nearest
  server.

Each strategy returns the host router ids; :func:`place_edge_servers`
then attaches one ``EDGE_SERVER`` node to each host with a fast LAN
link.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TopologyError
from repro.topology.delay import TransmissionDelayModel
from repro.topology.generators import SERVER_ATTACH, LinkProfile
from repro.topology.graph import NetworkGraph, NodeKind
from repro.topology.routing import _solve
from repro.utils.rng import make_rng
from repro.utils.validation import require


def _router_delay_matrix(graph: NetworkGraph, routers: list[int]) -> np.ndarray:
    """Router-to-router routed delay matrix under the default delay model."""
    _, col, dist, _ = _solve(graph, routers, TransmissionDelayModel().link_weight)
    return dist[:, [col(router) for router in routers]]


def _choose_random(routers: list[int], m: int, rng: np.random.Generator, graph) -> list[int]:
    picks = rng.choice(len(routers), size=m, replace=False)
    return [routers[int(i)] for i in picks]


def _choose_degree(routers: list[int], m: int, rng: np.random.Generator, graph) -> list[int]:
    ranked = sorted(routers, key=lambda r: (-graph.degree(r), r))
    return ranked[:m]


def _choose_spread(routers: list[int], m: int, rng: np.random.Generator, graph) -> list[int]:
    delays = _router_delay_matrix(graph, routers)
    chosen = [int(rng.integers(len(routers)))]
    while len(chosen) < m:
        to_nearest = np.min(delays[:, chosen], axis=1)
        to_nearest[chosen] = -np.inf  # never re-pick
        chosen.append(int(np.argmax(to_nearest)))
    return [routers[i] for i in chosen]


def _choose_medoid(routers: list[int], m: int, rng: np.random.Generator, graph) -> list[int]:
    delays = _router_delay_matrix(graph, routers)
    chosen: list[int] = []
    current = np.full(len(routers), np.inf)
    for _ in range(m):
        best_idx, best_cost = -1, np.inf
        for candidate in range(len(routers)):
            if candidate in chosen:
                continue
            cost = float(np.sum(np.minimum(current, delays[:, candidate])))
            if cost < best_cost:
                best_idx, best_cost = candidate, cost
        chosen.append(best_idx)
        current = np.minimum(current, delays[:, best_idx])
    return [routers[i] for i in chosen]


PLACEMENT_STRATEGIES = {
    "random": _choose_random,
    "degree": _choose_degree,
    "spread": _choose_spread,
    "medoid": _choose_medoid,
}


def place_edge_servers(
    graph: NetworkGraph,
    n_servers: int,
    seed: "int | np.random.Generator | None" = None,
    strategy: str = "spread",
    profile: LinkProfile = SERVER_ATTACH,
) -> list[int]:
    """Attach ``n_servers`` edge-server nodes to routers; return their ids.

    Mutates ``graph``: adds one ``EDGE_SERVER`` node per chosen host
    router plus a LAN link.  Raises :class:`TopologyError` if the graph
    has fewer routers than requested servers.
    """
    require(n_servers >= 1, f"n_servers must be >= 1, got {n_servers}")
    require(
        strategy in PLACEMENT_STRATEGIES,
        f"unknown placement strategy {strategy!r}; known: {sorted(PLACEMENT_STRATEGIES)}",
    )
    routers = graph.node_ids(NodeKind.ROUTER)
    if len(routers) < n_servers:
        raise TopologyError(
            f"cannot place {n_servers} servers on {len(routers)} routers"
        )
    rng = make_rng(seed)
    hosts = PLACEMENT_STRATEGIES[strategy](routers, n_servers, rng, graph)
    server_ids: list[int] = []
    for host in hosts:
        hx, hy = graph.node(host).position
        # servers inherit their host router's region for shard slicing
        server = graph.add_node(
            NodeKind.EDGE_SERVER, (hx, hy), region=graph.region_of(host)
        )
        graph.add_link(
            server,
            host,
            latency_s=profile.latency(0.0),
            bandwidth_bps=profile.bandwidth_bps,
            processing_s=profile.processing_s,
        )
        server_ids.append(server)
    return server_ids
