"""Path→link incidence: which links an assignment actually routes over.

The static delay matrix collapses each device/server pair to a scalar,
which is exactly what makes it blind to contention: two devices whose
shortest paths share a thin uplink look independent.  The incidence
structure keeps the link-level information around — for every
(device, server) pair, the ordered set of links its routed path
traverses — so the flow-based cost model can attribute offered load to
individual links and price their congestion.

Construction makes one shortest-path call rooted at every server (like
:func:`repro.topology.routing.all_pairs_delay`) and resolves node
sequences to links through :meth:`NetworkGraph.links_on_path`, sharing
its validation with the routing layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ContentionError
from repro.model.problem import AssignmentProblem
from repro.topology.delay import DelayModel, TransmissionDelayModel
from repro.topology.graph import Link, NetworkGraph
from repro.topology.routing import routing_paths_many


def _canonical(link: Link) -> tuple[int, int]:
    """Order-independent key of an undirected link."""
    return (link.u, link.v) if link.u < link.v else (link.v, link.u)


@dataclass(frozen=True)
class PathIncidence:
    """Per-assignment path→link incidence of one problem instance.

    Attributes
    ----------
    links:
        Every link traversed by at least one routed path, in first-seen
        order (deterministic: servers then devices are walked in index
        order).
    link_index:
        Canonical ``(min(u, v), max(u, v))`` endpoint pair → position
        in :attr:`links`.
    bandwidth:
        ``(L,)`` capacities in bits/second, aligned with :attr:`links`.
    base_delay:
        ``(N, M)`` unloaded routed-path delay in seconds — propagation
        + transmission + processing, no queueing.
    path_links:
        ``path_links[i][j]`` is an int array of link indices device
        ``i``'s routed path to server ``j`` traverses (possibly empty
        when both sit on the same node).
    """

    links: tuple[Link, ...]
    link_index: dict[tuple[int, int], int]
    bandwidth: np.ndarray
    base_delay: np.ndarray
    path_links: tuple[tuple[np.ndarray, ...], ...]

    @property
    def n_links(self) -> int:
        """Number of distinct links any routed path uses."""
        return len(self.links)

    @property
    def n_devices(self) -> int:
        """Number of devices (rows)."""
        return self.base_delay.shape[0]

    @property
    def n_servers(self) -> int:
        """Number of servers (columns)."""
        return self.base_delay.shape[1]


def build_incidence(
    problem: AssignmentProblem,
    delay_model: "DelayModel | None" = None,
) -> PathIncidence:
    """Route every (device, server) pair and record the links used.

    Requires a topology-backed problem (``graph``, ``devices`` and
    ``servers`` present); matrix-only instances carry no link
    information to attribute load to.
    """
    graph = problem.graph
    if graph is None or problem.devices is None or problem.servers is None:
        raise ContentionError(
            "contention model needs a topology-backed problem "
            "(graph, devices and servers); matrix-only instances have "
            "no links to attribute load to"
        )
    model = delay_model if delay_model is not None else TransmissionDelayModel()
    weight_fn = getattr(model, "link_weight", None)
    if weight_fn is None:
        raise ContentionError(
            f"delay model {model.name!r} has no per-link weight; the "
            f"contention model requires a routed-path model"
        )
    device_nodes = [d.node_id for d in problem.devices]
    links: list[Link] = []
    link_index: dict[tuple[int, int], int] = {}
    columns: list[list[np.ndarray]] = []
    base = np.empty((problem.n_devices, problem.n_servers), dtype=np.float64)
    routes = routing_paths_many(
        graph, {server.node_id: device_nodes for server in problem.servers}, weight_fn
    )
    for j, server in enumerate(problem.servers):
        paths = routes[server.node_id]
        column: list[np.ndarray] = []
        for i, source in enumerate(device_nodes):
            path = paths[source]
            base[i, j] = path.cost
            indices = []
            for link in graph.links_on_path(path.nodes):
                key = _canonical(link)
                idx = link_index.get(key)
                if idx is None:
                    idx = len(links)
                    link_index[key] = idx
                    links.append(link)
                indices.append(idx)
            column.append(np.asarray(indices, dtype=np.intp))
        columns.append(column)
    # transpose to [device][server] for cache-friendly device-major reads
    path_links = tuple(
        tuple(columns[j][i] for j in range(problem.n_servers))
        for i in range(problem.n_devices)
    )
    bandwidth = np.array([link.bandwidth_bps for link in links], dtype=np.float64)
    return PathIncidence(
        links=tuple(links),
        link_index=link_index,
        bandwidth=bandwidth,
        base_delay=base,
        path_links=path_links,
    )
