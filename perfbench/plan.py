"""Offline plan workloads: instance build → solvers → LP bound → DES replay.

Each run builds a fixed number of seeded instances, set by the run
length and the workload's per-instance budget (never by how fast the
host is, so parent and change measure the same instances), and reports
per-instance medians.  Every plan is checked:
complete and within capacity, objective at or above the LP lower
bound, and the DES replay of the primary plan loses no task.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import median

import gates
import numpy as np


#: shared by both plan workloads
FAMILY, TIGHTNESS, PLACEMENT = "random_geometric", 0.75, "spread"
#: DES load knob; at 0.25 the task latency reflects the plan more than
#: queueing on the busiest server, so it varies little between seeds
RATE_SCALE = 0.25


@dataclass(frozen=True)
class PlanWorkload:
    """One offline workload's instance shape and solver line-up."""

    n_routers: int
    n_devices: int
    n_servers: int
    solvers: "tuple[str, ...]"
    primary: str  # the plan that is replayed and scored
    sim_s: float  # DES virtual horizon
    #: budgeted wall time of one instance; a run measures
    #: ``seconds // instance_s`` instances (at least one)
    instance_s: float


PLAN_WORKLOADS = {
    # thousands of devices: the instance build (placement, delay matrix)
    # dominates; lp_rounding is small next to it
    "plan-wide": PlanWorkload(
        n_routers=200, n_devices=2000,
        n_servers=40, solvers=("lp_rounding",), primary="lp_rounding",
        sim_s=4.0, instance_s=3.75,
    ),
    # a small instance where the neighbourhood search and the paper's
    # RL solver dominate and the build is a few percent
    "plan-search": PlanWorkload(
        n_routers=80, n_devices=150,
        n_servers=8, solvers=("local_search", "tacc"), primary="tacc",
        sim_s=40.0, instance_s=5.0,
    ),
}


def run_plan(name: str, seed: int, seconds: float, recorder) -> dict:
    """Measure one plan workload; returns metrics, counts and violations."""
    from repro import get_solver, simulate_assignment, topology_instance
    from repro.solvers.lp import lp_lower_bound

    spec = PLAN_WORKLOADS[name]
    rows: "list[dict]" = []
    violations: "list[str]" = []
    walls: "list[float]" = []  # per-instance pipeline wall time
    attempted = 0
    instances = max(1, int(seconds // spec.instance_s))
    started = time.perf_counter()
    for index in range(instances):
        instance_seed = int(np.random.SeedSequence([seed, index])
                            .generate_state(1)[0])
        recorder.new_group()
        with recorder.span("bench.plan"):
            t0 = time.perf_counter()
            problem = topology_instance(
                FAMILY, n_routers=spec.n_routers, n_devices=spec.n_devices,
                n_servers=spec.n_servers, tightness=TIGHTNESS,
                seed=instance_seed, placement=PLACEMENT,
            )
            t1 = time.perf_counter()
            results = {
                solver: get_solver(solver, seed=instance_seed).solve(problem)
                for solver in spec.solvers
            }
            bound = lp_lower_bound(problem)
            t2 = time.perf_counter()
            primary = results[spec.primary]
            report = simulate_assignment(
                primary.assignment, duration_s=spec.sim_s, seed=instance_seed,
                rate_scale=RATE_SCALE, drain_s=1.0,
            )
            t3 = time.perf_counter()
        walls.append(t3 - t0)
        attempted += 2 + len(results) + 1  # build, solves, bound, replay
        for solver, result in results.items():
            label = f"{name}[{index}].{solver}"
            violations += gates.plan_feasible(problem, result.assignment.vector,
                                              label)
            violations += gates.above_bound(
                _objective(problem, result.assignment.vector), bound, label)
        violations += gates.replay_lossless(report, f"{name}[{index}]")
        objective = _objective(problem, primary.assignment.vector)
        rows.append({
            "build_s": t1 - t0,
            "solve_s": t2 - t1,
            "replay_s": t3 - t2,
            "replay_tasks": report.tasks_completed,
            "p50_ms": report.total_latency.p50 * 1e3,
            "p99_ms": report.total_latency.p99 * 1e3,
            "assigned_delay_ms": objective / problem.n_devices * 1e3,
            "gap_pct": (objective / bound - 1.0) * 100.0,
        })
    metrics = {
        # the median instance: a host stall during one instance moves
        # the mean, not this
        "goodput_per_s": 1.0 / median(walls),
        "p50_ms": median(r["p50_ms"] for r in rows),
    }
    notes = {
        "instances": len(rows),
        **{key: median(r[key] for r in rows)
           for key in ("build_s", "solve_s", "replay_s", "replay_tasks",
                       "p99_ms", "assigned_delay_ms", "gap_pct")},
        "timed_s": time.perf_counter() - started,
    }
    return {"metrics": metrics, "notes": notes, "attempted": attempted,
            "violations": violations, "timed_since": started,
            "timed_s": notes["timed_s"], "rows_wall": walls}


def _objective(problem, vector) -> float:
    """Total device→server delay of a complete plan, from the matrix."""
    vector = np.asarray(vector)
    return float(problem.delay[np.arange(vector.size), vector].sum())
