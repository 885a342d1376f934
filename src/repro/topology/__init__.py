"""Network topology substrate.

The paper's key premise is that the IoT-to-edge communication delay is
determined by the *network topology* — the routed path between a device
and a server — rather than by geometric distance.  This package builds
that substrate:

* :mod:`repro.topology.graph` — the graph model (nodes, links, roles)
* :mod:`repro.topology.generators` — standard topology families
* :mod:`repro.topology.routing` — one csgraph shortest-path core
* :mod:`repro.topology.delay` — link/path delay models and the
  device × server delay matrix
* :mod:`repro.topology.placement` — edge-server placement strategies
"""

from repro.topology.delay import (
    DelayModel,
    EuclideanDelayModel,
    HopCountDelayModel,
    TransmissionDelayModel,
    delay_matrix,
)
from repro.topology.generators import (
    TOPOLOGY_FAMILIES,
    LinkProfile,
    attach_iot_devices,
    barabasi_albert,
    edge_hierarchy,
    fat_tree,
    grid,
    make_topology,
    random_geometric,
    watts_strogatz,
    waxman,
)
from repro.topology.graph import CORE_REGION, Link, NetworkGraph, Node, NodeKind
from repro.topology.measurement import ProbeDelayEstimator, noisy_problem
from repro.topology.placement import PLACEMENT_STRATEGIES, place_edge_servers
from repro.topology.routing import Path, all_pairs_delay, dijkstra, shortest_path
from repro.topology.visualize import (
    degree_histogram,
    path_length_profile,
    summarize_topology,
    to_graphviz,
)

__all__ = [
    "DelayModel",
    "EuclideanDelayModel",
    "HopCountDelayModel",
    "TransmissionDelayModel",
    "delay_matrix",
    "TOPOLOGY_FAMILIES",
    "LinkProfile",
    "attach_iot_devices",
    "barabasi_albert",
    "edge_hierarchy",
    "fat_tree",
    "grid",
    "make_topology",
    "random_geometric",
    "watts_strogatz",
    "waxman",
    "CORE_REGION",
    "Link",
    "NetworkGraph",
    "Node",
    "NodeKind",
    "ProbeDelayEstimator",
    "noisy_problem",
    "PLACEMENT_STRATEGIES",
    "place_edge_servers",
    "Path",
    "all_pairs_delay",
    "dijkstra",
    "shortest_path",
    "degree_histogram",
    "path_length_profile",
    "summarize_topology",
    "to_graphviz",
]
