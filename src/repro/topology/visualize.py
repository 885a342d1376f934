"""Topology inspection: summaries and Graphviz export.

``summarize_topology`` answers "what does this graph look like"
(degree/latency distributions per tier) in plain text;
``to_graphviz`` writes a DOT file renderable with ``dot -Tsvg`` for
papers and debugging.  Neither imports anything beyond the standard
library + NumPy.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.topology.graph import NetworkGraph, NodeKind
from repro.utils.stats import summarize
from repro.utils.tables import format_table

_KIND_STYLE = {
    NodeKind.ROUTER: ("circle", "lightblue"),
    NodeKind.EDGE_SERVER: ("box", "lightgreen"),
    NodeKind.IOT_DEVICE: ("point", "gray"),
}


def summarize_topology(graph: NetworkGraph) -> str:
    """Human-readable structural summary of a topology."""
    lines = [repr(graph)]
    rows = []
    for kind in NodeKind:
        nodes = graph.nodes(kind)
        if not nodes:
            continue
        degrees = [graph.degree(n.node_id) for n in nodes]
        stats = summarize(degrees)
        rows.append(
            [kind.value, len(nodes), stats.mean, int(stats.minimum), int(stats.maximum)]
        )
    lines.append(
        format_table(
            ["node kind", "count", "mean degree", "min", "max"], rows
        )
    )
    links = graph.links()
    if links:
        latency = summarize([link.latency_s * 1e3 for link in links])
        bandwidth = summarize([link.bandwidth_bps / 1e6 for link in links])
        lines.append(
            format_table(
                ["link attribute", "mean", "min", "max"],
                [
                    ["latency (ms)", latency.mean, latency.minimum, latency.maximum],
                    ["bandwidth (Mbps)", bandwidth.mean, bandwidth.minimum,
                     bandwidth.maximum],
                ],
            )
        )
    return "\n\n".join(lines)


def to_graphviz(graph: NetworkGraph, path: "str | Path | None" = None) -> str:
    """Render the topology as Graphviz DOT; optionally write it to ``path``.

    Node positions come from the embedding (``pos`` attributes with
    ``!`` pins, honoured by ``neato``/``fdp``); latency labels are in
    milliseconds.
    """
    lines = [
        "graph topology {",
        "  layout=neato;",
        "  overlap=false;",
        '  node [fontsize=8, width=0.2, height=0.2];',
        "  edge [fontsize=6, color=gray60];",
    ]
    for node in graph.nodes():
        shape, color = _KIND_STYLE[node.kind]
        x, y = node.position
        lines.append(
            f'  n{node.node_id} [shape={shape}, style=filled, fillcolor={color}, '
            f'pos="{x * 10:.3f},{y * 10:.3f}!", label="{node.node_id}"];'
        )
    for link in graph.links():
        lines.append(
            f"  n{link.u} -- n{link.v} "
            f'[label="{link.latency_s * 1e3:.2f}ms"];'
        )
    lines.append("}")
    dot = "\n".join(lines)
    if path is not None:
        Path(path).write_text(dot, encoding="utf-8")
    return dot


def degree_histogram(graph: NetworkGraph, kind: "NodeKind | None" = None) -> dict[int, int]:
    """Degree -> count map (for the heavy-tail checks in tests)."""
    counts: dict[int, int] = {}
    for node in graph.nodes(kind):
        degree = graph.degree(node.node_id)
        counts[degree] = counts.get(degree, 0) + 1
    return dict(sorted(counts.items()))


def path_length_profile(graph: NetworkGraph) -> dict[str, float]:
    """Hop-count statistics between devices and servers.

    Quantifies how 'deep' devices sit relative to the cluster — the
    structural property that separates topology families in F7.
    """
    from repro.topology.routing import _solve

    devices = graph.node_ids(NodeKind.IOT_DEVICE)
    servers = graph.node_ids(NodeKind.EDGE_SERVER)
    if not devices or not servers:
        return {}
    _, col, dist, _ = _solve(graph, servers, lambda link: 1.0)
    hops = dist[:, [col(d) for d in devices]].ravel()
    hops = hops[np.isfinite(hops)].tolist()  # unreachable devices are skipped
    stats = summarize(hops)
    return {
        "mean_hops": stats.mean,
        "min_hops": stats.minimum,
        "max_hops": stats.maximum,
        "p95_hops": stats.p95,
    }
