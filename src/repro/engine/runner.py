"""The engine front door: cache-aware execution of a job list.

:func:`run_jobs` is what the experiment harness and the CLI call: it
looks every :class:`JobSpec` up in the content-addressed cache,
executes only the misses on the worker pool, persists fresh rows, and
returns each job's rows *in spec order* — so a sweep's output table is
identical whether it ran serially, on four workers, or entirely from
cache.

Engine telemetry (jobs scheduled/completed/failed, cache hits and
misses, queue wait, job runtime, worker utilization) is recorded on
the parent's :mod:`repro.obs` registry.  When observability is
enabled, each worker's own solver/sim/RL telemetry — collected under
a worker-local registry (see :mod:`repro.engine.pool`) — is folded
into the parent registry as outcomes arrive, and worker span records
are adopted by the parent's span recorder; cache hits recompute nothing and
therefore contribute no solver/sim samples.  Run-lifecycle events
(``run_start``, per-job ``job_start``/``job_end``, ``cache_hit``,
``run_end``) stream to the active :mod:`repro.obs.ledger`.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.engine.cache import CacheStats, NullCache, ResultCache
from repro.engine.hashing import job_key
from repro.engine.jobspec import JobSpec
from repro.engine.pool import JobOutcome, run_jobs_pooled
from repro.engine.progress import ProgressReporter
from repro.errors import EngineError
from repro.obs import names as obs_names
from repro.obs import runtime as obs_runtime
from repro.utils.validation import require


@dataclass
class EngineOptions:
    """How a sweep should execute.

    The all-defaults instance reproduces the historical serial
    behavior exactly: one in-process worker, no cache, no progress
    output.  ``jobs`` is the worker-pool width; ``cache_dir`` enables
    the content-addressed result cache (``no_cache`` wins over it);
    ``timeout_s`` bounds each job's runtime; ``profile`` wraps every
    executed cell in cProfile and aggregates the stats into
    :attr:`last_profile` (cache hits are not profiled — nothing runs).
    """

    jobs: int = 1
    cache_dir: "str | Path | None" = None
    no_cache: bool = False
    timeout_s: "float | None" = None
    progress: bool = False
    profile: bool = False
    #: filled in by :func:`run_jobs` after each execution
    last_report: "EngineReport | None" = field(default=None, repr=False, compare=False)
    #: merged cProfile stats of the last execution (``profile=True`` only)
    last_profile: "dict | None" = field(default=None, repr=False, compare=False)

    def make_cache(self) -> "ResultCache | NullCache":
        """The cache this configuration asks for."""
        if self.no_cache or self.cache_dir is None:
            return NullCache()
        return ResultCache(Path(self.cache_dir))


@dataclass
class EngineReport:
    """Aggregate record of one :func:`run_jobs` execution."""

    scheduled: int
    completed: int
    failed: int
    cache: CacheStats
    wall_s: float
    busy_s: float
    workers: int

    @property
    def worker_utilization(self) -> float:
        """Busy worker-seconds over available worker-seconds."""
        if self.wall_s <= 0.0 or self.workers <= 0:
            return 0.0
        return min(1.0, self.busy_s / (self.wall_s * self.workers))

    def summary(self) -> str:
        """One-line human summary (the CLI prints this to stderr)."""
        return (
            f"engine: {self.scheduled} jobs on {self.workers} worker(s) in "
            f"{self.wall_s:.1f}s — cache hits: {self.cache.hits}, "
            f"misses: {self.cache.misses}, hit ratio: {self.cache.hit_ratio:.0%}, "
            f"failed: {self.failed}, worker utilization: "
            f"{self.worker_utilization:.0%}"
        )


def run_jobs(
    specs: "list[JobSpec]", options: "EngineOptions | None" = None
) -> "list[list[dict]]":
    """Execute every spec (cache-first) and return rows per spec, in order.

    Raises :class:`~repro.errors.EngineError` listing every failed job
    if any cell crashed or timed out; partial results are still cached,
    so a re-run resumes from what completed.
    """
    options = options or EngineOptions()
    require(options.jobs >= 1, f"jobs must be >= 1, got {options.jobs}")
    registry = obs_runtime.metrics()
    ledger = obs_runtime.ledger()
    cache = options.make_cache()
    started = time.monotonic()
    registry.counter(obs_names.ENGINE_JOBS_SCHEDULED).inc(len(specs))
    ledger.emit(
        "run_start",
        jobs=len(specs),
        workers=options.jobs,
        experiment=specs[0].experiment if specs else "",
    )
    progress = ProgressReporter(
        total=len(specs), enabled=options.progress and len(specs) > 0
    )

    # cache pass: resolve hits, collect misses for the pool
    rows_by_index: "dict[int, list[dict]]" = {}
    pending: "list[tuple[int, JobSpec, str]]" = []
    for index, spec in enumerate(specs):
        key = job_key(spec)
        hit = cache.get(key)
        if hit is not None:
            rows_by_index[index] = hit
            ledger.emit("cache_hit", job=spec.describe(), seed=spec.seed)
            progress.update(cached=True)
        else:
            pending.append((index, spec, key))

    # execute the misses
    busy_s = 0.0
    failures: "list[JobOutcome]" = []
    profiles: "list[dict]" = []
    if pending:
        # outcomes come back with pool-local indices (0..len(pending));
        # these two maps translate back to cache keys and spec order
        pool_keys = [key for _, _, key in pending]
        queue_wait = registry.timer(obs_names.ENGINE_QUEUE_WAIT)
        job_runtime = registry.timer(obs_names.ENGINE_JOB_RUNTIME)
        for _, spec, _ in pending:
            ledger.emit("job_start", job=spec.describe(), seed=spec.seed)

        def on_outcome(outcome: JobOutcome) -> None:
            queue_wait.observe(outcome.queue_wait_s)
            job_runtime.observe(outcome.duration_s)
            # fold the worker-local telemetry into the parent session
            # before anything can read the registry, so partial states
            # are never visible
            if outcome.obs_state:
                registry.merge_state(outcome.obs_state)
            if outcome.spans:
                obs_runtime.tracer().adopt(outcome.spans)
            if outcome.profile:
                profiles.append(outcome.profile)
            status = "ok" if outcome.ok else (
                "timeout" if outcome.timed_out else "error"
            )
            ledger.emit(
                "job_end",
                job=outcome.spec.describe(),
                seed=outcome.spec.seed,
                status=status,
                duration_s=outcome.duration_s,
                queue_wait_s=outcome.queue_wait_s,
            )
            if outcome.ok:
                cache.put(pool_keys[outcome.index], outcome.spec, outcome.rows)
            progress.update(failed=not outcome.ok)

        index_map = {pool_i: index for pool_i, (index, _, _) in enumerate(pending)}
        outcomes = _run_pending(pending, options, on_outcome)
        for outcome in outcomes:
            busy_s += outcome.duration_s
            original = index_map[outcome.index]
            if outcome.ok:
                rows_by_index[original] = outcome.rows
            else:
                failures.append(outcome)

    wall_s = time.monotonic() - started
    completed = len(rows_by_index)
    registry.counter(obs_names.ENGINE_JOBS_COMPLETED).inc(completed)
    registry.counter(obs_names.ENGINE_JOBS_FAILED).inc(len(failures))
    registry.counter(obs_names.ENGINE_CACHE_HITS).inc(cache.stats.hits)
    registry.counter(obs_names.ENGINE_CACHE_MISSES).inc(cache.stats.misses)
    registry.counter(obs_names.ENGINE_CACHE_CORRUPT).inc(cache.stats.corrupt)
    report = EngineReport(
        scheduled=len(specs),
        completed=completed,
        failed=len(failures),
        cache=cache.stats,
        wall_s=wall_s,
        busy_s=busy_s,
        workers=max(1, min(options.jobs, max(1, len(specs)))),
    )
    registry.gauge(obs_names.ENGINE_WORKER_UTILIZATION).set(report.worker_utilization)
    options.last_report = report
    if options.profile:
        from repro.obs.profile import merge_profiles

        options.last_profile = merge_profiles(profiles)
    ledger.emit(
        "run_end",
        jobs=report.scheduled,
        completed=report.completed,
        failed=report.failed,
        cache_hits=cache.stats.hits,
        cache_misses=cache.stats.misses,
        wall_s=wall_s,
    )
    if failures:
        details = "; ".join(
            f"{outcome.spec.describe()} (seed {outcome.spec.seed}): "
            f"{(outcome.error or '').splitlines()[0]}"
            for outcome in failures
        )
        raise EngineError(f"{len(failures)} job(s) failed: {details}")
    return [rows_by_index[index] for index in range(len(specs))]


def _run_pending(pending, options: EngineOptions, on_outcome) -> "list[JobOutcome]":
    """Pool execution of the cache misses (indices are pool-local)."""
    return run_jobs_pooled(
        [spec for _, spec, _ in pending],
        workers=options.jobs,
        timeout_s=options.timeout_s,
        on_outcome=on_outcome,
        collect_obs=obs_runtime.is_enabled(),
        profile=options.profile,
    )


def print_report(options: "EngineOptions | None", stream=None) -> None:
    """Print the last engine summary, if any (CLI helper)."""
    if options is not None and options.last_report is not None:
        print(options.last_report.summary(), file=stream or sys.stderr)


def print_profile(options: "EngineOptions | None", top: int = 15, stream=None) -> None:
    """Print the last merged cell profile, if one was collected."""
    if options is not None and options.last_profile is not None:
        from repro.obs.profile import render_profile

        print(render_profile(options.last_profile, top=top), file=stream or sys.stderr)
