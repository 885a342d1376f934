"""Every metric the benchmark prints: name → (unit, better).

``BENCHMARK.json`` lists the same names; ``tests/test_selftest.py``
keeps the two in step.  End-to-end metrics come from untraced runs
(``--trace 0``), per-layer metrics from traced runs (``--trace 1``).
"""

from __future__ import annotations

import re

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "goodput_per_s": ("1/s", "higher"),
    "p50_ms": ("ms", "lower"),
}

SOLVERS = ("lp_rounding", "local_search", "tacc")
PHASES = {"local_search": ("construct", "descend"), "tacc": ("train", "polish")}
LAYERS = ("topology", "model", "solvers", "rl", "sim", "cluster", "serve",
          "shard", "bench")

PER_LAYER = {
    "topology.generate_s": ("s", "lower"),
    "topology.place_s": ("s", "lower"),
    "topology.dijkstra_calls": ("count", "lower"),
    "topology.dijkstra_s": ("s", "lower"),
    "model.delay_matrix_s": ("s", "lower"),
    **{f"solvers.{s}.solve_s": ("s", "lower") for s in SOLVERS},
    **{f"solvers.{s}.iterations": ("count", "lower") for s in SOLVERS},
    **{f"solvers.{s}.{p}_s": ("s", "lower")
       for s, phases in PHASES.items() for p in phases},
    "solvers.lp_bound_s": ("s", "lower"),
    "rl.env_steps": ("count", "lower"),
    "rl.env_step_s": ("s", "lower"),
    "rl.state_key_s": ("s", "lower"),
    "rl.action_mask_s": ("s", "lower"),
    "sim.events": ("count", "lower"),
    "sim.run_s": ("s", "lower"),
    "sim.events_per_s": ("1/s", "higher"),
    "cluster.online_assign_s": ("s", "lower"),
    "serve.state_s": ("s", "lower"),
    "serve.submit_s": ("s", "lower"),
    "serve.rejected": ("count", "lower"),
    "serve.batches": ("count", "lower"),
    "serve.batch_size_mean": ("count", "higher"),
    "serve.queue_wait_ms_p50": ("ms", "lower"),
    "serve.queue_wait_ms_p99": ("ms", "lower"),
    "shard.forwards": ("count", "lower"),
    "shard.forwards_per_request": ("ratio", "lower"),
    "shard.forward_s": ("s", "lower"),
    "shard.hedges": ("count", "lower"),
    "shard.hedge_wins": ("count", "higher"),
    "shard.hedge_win_share": ("ratio", "higher"),
    "shard.spillovers": ("count", "lower"),
    "obs.registry_lookups_per_request": ("ratio", "lower"),
    "driver.late_ms_p99": ("ms", "lower"),
    "asyncio.loop_lag_ms_p99": ("ms", "lower"),
    **{f"layer.{layer}.self_share": ("ratio", "lower") for layer in LAYERS},
    "bench.trace_overhead_ratio": ("ratio", "lower"),
}
