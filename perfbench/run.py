#!/usr/bin/env python3
"""Layered end-to-end benchmark of the repro planning and serving paths.

Run from the repository root::

    python3 perfbench/run.py --workload plan-wide --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload once untraced and once with every layer wrapped in spans, and
prints the per-layer metrics.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines above it
are the same numbers for people, with units and sample counts.
Metric definitions, workloads and known baseline findings are in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

PLAN = ("plan-wide", "plan-search")
SERVE = ("serve-churn", "serve-routed")
WORKLOADS = PLAN + SERVE

#: set-up repetitions of the import step (fresh interpreters)
_IMPORT_REPEATS = 3
_IMPORTS = ("import repro, repro.serve, repro.shard, repro.solvers.lp, "
            "repro.sim.runner, scipy.optimize")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    import catalogue
    import layers

    if args.trace:
        outcome, per_layer = _traced(args, layers)
        metrics = {name: (per_layer.get(name, 0.0), unit)
                   for name, (unit, _) in catalogue.PER_LAYER.items()}
    else:
        import_s = _import_seconds()
        outcome = _measure(args, layers.NullRecorder())
        values = dict(outcome["metrics"])
        values["setup_s"] = import_s + values.get("setup_s", 0.0)
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        metrics = {name: (values[name], unit)
                   for name, (unit, _) in catalogue.END_TO_END.items()}
    violations = outcome["violations"]
    attempted = max(1, int(outcome["attempted"]))
    failed = min(attempted, len(violations))
    for line in violations[:20]:
        print(f"FAILED {line}")
    for name, value in sorted(outcome["notes"].items()):
        print(f"note  {name:<34} {value:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name:<33} {value:.6g} {unit}")
    print(f"failed_share {failed / attempted:.6g} ({failed} of {attempted})")
    print(json.dumps({
        "correct": not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not violations else 1


def _import_seconds() -> float:
    """Median wall time of a fresh interpreter importing the program."""
    samples = []
    for _ in range(_IMPORT_REPEATS):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", _IMPORTS], check=True, cwd=ROOT,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _measure(args, recorder, probe_lag: bool = False) -> dict:
    if args.workload in PLAN:
        from plan import run_plan

        return run_plan(args.workload, args.seed, args.seconds, recorder)
    from serving import run_serve

    return run_serve(args.workload, args.seed, args.seconds, recorder,
                     probe_lag)


def _traced(args, layers) -> "tuple[dict, dict]":
    """One untraced pass for the overhead base, then the traced pass."""
    from repro.obs import runtime as obs_runtime

    base = _measure(args, layers.NullRecorder())
    recorder = layers.SpanRecorder()
    layers.instrument(recorder)
    plan = args.workload in PLAN
    session = obs_runtime.enable() if plan else None  # solver phase timers
    try:
        traced = _measure(args, recorder, probe_lag=not plan)
    finally:
        recorder.unpatch()
        phases = _phase_seconds(session.registry) if session else {}
        obs_runtime.disable()
    out_dir = ROOT / ".perfbench_out"
    recorder.write_jsonl(
        out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    per_layer = _layer_metrics(recorder, traced, phases)
    per_layer["bench.trace_overhead_ratio"] = _overhead(base, traced)
    traced["violations"] = base["violations"] + traced["violations"]
    traced["attempted"] = base["attempted"] + traced["attempted"]
    return traced, per_layer


def _phase_seconds(registry) -> dict:
    """``solvers.<solver>.<phase>_s`` from the solvers' own phase timers."""
    from repro.obs import names as obs_names

    out = {}
    for (_, name, labels), instrument in registry.instruments().items():
        if name == obs_names.SOLVER_PHASE_RUNTIME:
            label = dict(labels)
            key = f"solvers.{label['solver']}.{label['phase']}_s"
            out[key] = out.get(key, 0.0) + instrument.sum
    return out


def _overhead(base: dict, traced: dict) -> float:
    """Traced ÷ untraced wall time per unit of work."""
    if "rows_wall" in base:  # plan: the same instances
        return sum(traced["rows_wall"]) / sum(base["rows_wall"])
    return base["metrics"]["goodput_per_s"] / traced["metrics"]["goodput_per_s"]


def _layer_metrics(recorder, traced: dict, phases: dict) -> dict:
    import catalogue

    wall = traced["timed_s"]
    window = (traced["timed_since"], traced["timed_since"] + wall)
    busy = lambda name: recorder.busy(name, window)  # noqa: E731
    calls = lambda name: recorder.calls(name, window)  # noqa: E731
    counts = recorder.counts
    layer = traced.get("layer", {})
    requests = layer.get("requests", 0)
    out = {
        "topology.generate_s": busy("topology.generate"),
        "topology.place_s": busy("topology.place"),
        "topology.dijkstra_calls": calls("topology.dijkstra"),
        "topology.dijkstra_s": busy("topology.dijkstra"),
        "model.delay_matrix_s": busy("model.delay_matrix"),
        "solvers.lp_bound_s": busy("solvers.lp_bound"),
        "rl.env_steps": calls("rl.env_step"),
        "rl.env_step_s": busy("rl.env_step"),
        "rl.state_key_s": busy("rl.state_key"),
        "rl.action_mask_s": busy("rl.action_mask"),
        "sim.events": counts.get("sim.events", 0),
        "sim.run_s": busy("sim.run"),
        "cluster.online_assign_s": busy("cluster.online_assign"),
        "serve.state_s": busy("serve.state"),
        "serve.submit_s": busy("serve.submit"),
        "serve.batches": counts.get("serve.batches", 0),
        "shard.forwards": calls("shard.forward"),
        "shard.forward_s": busy("shard.forward"),
        **phases,
    }
    for solver in catalogue.SOLVERS:
        out[f"solvers.{solver}.solve_s"] = busy(f"solvers.{solver}.solve")
        out[f"solvers.{solver}.iterations"] = counts.get(
            f"solvers.{solver}.iterations", 0)
    out["sim.events_per_s"] = _ratio(out["sim.events"], out["sim.run_s"])
    out["serve.batch_size_mean"] = _ratio(counts.get("serve.batch_items", 0),
                                          out["serve.batches"])
    out["shard.forwards_per_request"] = _ratio(out["shard.forwards"], requests)
    out["obs.registry_lookups_per_request"] = _ratio(
        counts.get("obs.lookups", 0), requests)
    for name, value in layer.items():
        if name in catalogue.PER_LAYER:
            out[name] = value
    out["shard.hedge_win_share"] = _ratio(out.get("shard.hedge_wins", 0),
                                          out.get("shard.hedges", 0))
    # one thread runs every layer, so whatever the wrapped layers' self
    # times leave is the benchmark's own driver, the event loop and
    # unwrapped code
    shares = recorder.layer_self_time(window)
    for layer in catalogue.LAYERS:
        out[f"layer.{layer}.self_share"] = shares.get(layer, 0.0) / wall
    out["layer.bench.self_share"] = max(0.0, 1.0 - sum(
        out[f"layer.{layer}.self_share"]
        for layer in catalogue.LAYERS if layer != "bench"))
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


if __name__ == "__main__":
    sys.exit(main())
