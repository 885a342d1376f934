"""Undirected network graph with typed nodes and attributed links.

The graph is the substrate every other subsystem reads: routing walks
its adjacency, the delay models read link attributes, the simulator
turns links into queues, and mobility rewires device attachments.

Node roles
----------
``ROUTER``
    Backbone switches/routers produced by the topology generators.
``EDGE_SERVER``
    Compute nodes of the edge cluster, attached to routers by
    :mod:`repro.topology.placement`.
``IOT_DEVICE``
    Sources of traffic, attached to routers by
    :func:`repro.topology.generators.attach_iot_devices`.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field, replace

from repro.errors import TopologyError
from repro.utils.validation import check_nonnegative, check_positive, require


class NodeKind(enum.Enum):
    """Role of a node in the edge-computing topology."""

    ROUTER = "router"
    EDGE_SERVER = "edge_server"
    IOT_DEVICE = "iot_device"


#: region label of core/root nodes that belong to no specific subtree
CORE_REGION = -1


@dataclass(frozen=True)
class Node:
    """A vertex of the network graph.

    ``position`` is a point in the unit square; geometric generators
    use it for link lengths, and the Euclidean ablation delay model
    reads it directly.

    ``region`` is the topology-region (subtree / pod) label assigned
    by the hierarchical generators: every node under the same
    top-level subtree shares a region id, core nodes carry
    :data:`CORE_REGION`, and flat families leave it ``None``.  Devices
    and servers inherit the region of the router they attach to, so
    shard boundaries (:mod:`repro.shard`) are read straight off the
    graph instead of recomputed downstream.
    """

    node_id: int
    kind: NodeKind
    position: tuple[float, float] = (0.0, 0.0)
    region: "int | None" = None


@dataclass(frozen=True)
class Link:
    """An undirected link with the attributes the delay model needs.

    Attributes
    ----------
    latency_s:
        Propagation delay in seconds (one traversal).
    bandwidth_bps:
        Capacity in bits per second; transmission delay of a packet of
        ``b`` bits is ``b / bandwidth_bps``.
    processing_s:
        Fixed per-hop processing/forwarding delay in seconds.
    """

    u: int
    v: int
    latency_s: float
    bandwidth_bps: float
    processing_s: float = 0.0

    def __post_init__(self) -> None:
        require(self.u != self.v, f"self-loop at node {self.u} is not allowed")
        check_nonnegative(self.latency_s, "latency_s")
        check_positive(self.bandwidth_bps, "bandwidth_bps")
        check_nonnegative(self.processing_s, "processing_s")

    def other(self, node_id: int) -> int:
        """Return the endpoint opposite ``node_id``."""
        if node_id == self.u:
            return self.v
        if node_id == self.v:
            return self.u
        raise TopologyError(f"node {node_id} is not an endpoint of link ({self.u}, {self.v})")


@dataclass
class NetworkGraph:
    """Mutable undirected graph of :class:`Node` and :class:`Link`.

    Self-contained on purpose: the library must not depend on networkx
    at runtime (tests use networkx only as an independent oracle).
    """

    _nodes: dict[int, Node] = field(default_factory=dict)
    _adj: dict[int, dict[int, Link]] = field(default_factory=dict)
    _next_id: int = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        kind: NodeKind,
        position: tuple[float, float] = (0.0, 0.0),
        node_id: "int | None" = None,
        region: "int | None" = None,
    ) -> int:
        """Add a node and return its id.

        Ids are assigned sequentially unless ``node_id`` is given.
        """
        if node_id is None:
            node_id = self._next_id
        require(node_id not in self._nodes, f"node {node_id} already exists")
        self._nodes[node_id] = Node(
            node_id, kind, (float(position[0]), float(position[1])),
            region=None if region is None else int(region),
        )
        self._adj[node_id] = {}
        self._next_id = max(self._next_id, node_id + 1)
        return node_id

    def add_link(
        self,
        u: int,
        v: int,
        latency_s: float,
        bandwidth_bps: float,
        processing_s: float = 0.0,
    ) -> Link:
        """Add an undirected link between existing nodes ``u`` and ``v``."""
        self._require_node(u)
        self._require_node(v)
        require(v not in self._adj[u], f"link ({u}, {v}) already exists")
        link = Link(u, v, latency_s, bandwidth_bps, processing_s)
        self._adj[u][v] = link
        self._adj[v][u] = link
        return link

    def remove_link(self, u: int, v: int) -> None:
        """Remove the link between ``u`` and ``v``."""
        if not self.has_link(u, v):
            raise TopologyError(f"link ({u}, {v}) does not exist")
        del self._adj[u][v]
        del self._adj[v][u]

    def move_node(self, node_id: int, position: tuple[float, float]) -> None:
        """Update a node's position (used by the mobility model)."""
        node = self.node(node_id)
        self._nodes[node_id] = replace(node, position=(float(position[0]), float(position[1])))

    def set_region(self, node_id: int, region: "int | None") -> None:
        """Stamp a node with its topology-region label."""
        node = self.node(node_id)
        self._nodes[node_id] = replace(
            node, region=None if region is None else int(region)
        )

    def region_of(self, node_id: int) -> "int | None":
        """The node's region label (``None`` on unlabeled graphs)."""
        return self.node(node_id).region

    def regions(self, kind: "NodeKind | None" = None) -> "list[int]":
        """Distinct region labels present (sorted; ``None`` excluded)."""
        return sorted(
            {n.region for n in self.nodes(kind) if n.region is not None}
        )

    def has_regions(self) -> bool:
        """Whether any node carries a region label."""
        return any(n.region is not None for n in self._nodes.values())

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def has_node(self, node_id: int) -> bool:
        """Return has node."""
        return node_id in self._nodes

    def node(self, node_id: int) -> Node:
        """Return node."""
        self._require_node(node_id)
        return self._nodes[node_id]

    def has_link(self, u: int, v: int) -> bool:
        """Return has link."""
        return u in self._adj and v in self._adj[u]

    def link(self, u: int, v: int) -> Link:
        """Return the link between ``u`` and ``v`` or raise :class:`TopologyError`."""
        if not self.has_link(u, v):
            raise TopologyError(f"link ({u}, {v}) does not exist")
        return self._adj[u][v]

    def links_on_path(self, nodes: "tuple[int, ...] | list[int]") -> list[Link]:
        """Resolve a node sequence to the links it traverses.

        Shared by routing (:meth:`repro.topology.routing.Path.links`)
        and the contention incidence builder so both validate edges the
        same way: a missing edge raises :class:`TopologyError` naming
        the offending hop instead of a raw ``KeyError``.
        """
        require(len(nodes) >= 1, "path must contain at least one node")
        for node_id in nodes:
            self._require_node(node_id)
        return [self.link(u, v) for u, v in zip(nodes, nodes[1:])]

    def neighbors(self, node_id: int) -> list[int]:
        """Return neighbors."""
        self._require_node(node_id)
        return list(self._adj[node_id])

    def incident_links(self, node_id: int) -> list[Link]:
        """Return incident links."""
        self._require_node(node_id)
        return list(self._adj[node_id].values())

    def degree(self, node_id: int) -> int:
        """Return degree."""
        self._require_node(node_id)
        return len(self._adj[node_id])

    def nodes(self, kind: "NodeKind | None" = None) -> list[Node]:
        """All nodes, optionally filtered by kind, in id order."""
        result = sorted(self._nodes.values(), key=lambda n: n.node_id)
        if kind is not None:
            result = [n for n in result if n.kind == kind]
        return result

    def node_ids(self, kind: "NodeKind | None" = None) -> list[int]:
        """Return node ids."""
        return [n.node_id for n in self.nodes(kind)]

    def links(self) -> list[Link]:
        """Each undirected link exactly once, in (u, v) order."""
        pairs = sorted((u, v) for u, nbrs in self._adj.items() for v in nbrs if u < v)
        return [self._adj[u][v] for u, v in pairs]

    @property
    def n_nodes(self) -> int:
        """Return n nodes."""
        return len(self._nodes)

    @property
    def n_links(self) -> int:
        """Return n links."""
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    # ------------------------------------------------------------------
    # connectivity
    # ------------------------------------------------------------------
    def connected_components(self) -> list[set[int]]:
        """Connected components as sets of node ids (BFS)."""
        unvisited = set(self._nodes)
        components: list[set[int]] = []
        while unvisited:
            start = min(unvisited)
            component = {start}
            queue = deque([start])
            while queue:
                current = queue.popleft()
                for nbr in self._adj[current]:
                    if nbr not in component:
                        component.add(nbr)
                        queue.append(nbr)
            components.append(component)
            unvisited -= component
        return components

    def is_connected(self) -> bool:
        """True if every node can reach every other node."""
        if not self._nodes:
            return True
        return len(self.connected_components()) == 1

    def copy(self) -> "NetworkGraph":
        """Deep-enough copy: nodes and links are frozen, containers are new."""
        clone = NetworkGraph()
        clone._nodes = dict(self._nodes)
        clone._adj = {u: dict(nbrs) for u, nbrs in self._adj.items()}
        clone._next_id = self._next_id
        return clone

    # ------------------------------------------------------------------
    def _require_node(self, node_id: int) -> None:
        if node_id not in self._nodes:
            raise TopologyError(f"node {node_id} does not exist")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kinds = {kind: len(self.nodes(kind)) for kind in NodeKind}
        parts = ", ".join(f"{k.value}s={v}" for k, v in kinds.items() if v)
        return f"NetworkGraph({self.n_nodes} nodes [{parts}], {self.n_links} links)"
