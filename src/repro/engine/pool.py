"""Bounded multiprocessing execution of job specs.

``run_jobs_pooled`` fans a list of :class:`JobSpec` out over a
``multiprocessing.Pool`` of at most ``workers`` processes (chunk size
1, unordered collection, so long and short cells interleave freely)
and returns one :class:`JobOutcome` per spec.  ``workers <= 1`` runs
inline in the current process — the serial path and the pooled path
share the exact same per-job code, so they produce identical rows.

Per-job timeouts are enforced *inside* the worker with
``signal.setitimer`` (real time): the cell is interrupted where it
runs instead of leaving a zombie computation behind, and the outcome
records a timeout error.  On platforms without ``SIGALRM`` the
timeout degrades to unenforced (documented in docs/engine.md).

Workers never touch the cache, the parent's observability registry,
or the run ledger — single-writer bookkeeping stays in the parent.
When the parent has observability enabled (``collect_obs=True``) each
worker instead runs its job under a *fresh local* registry/tracer
(:func:`repro.obs.runtime.observed`), serializes the collected state
into the outcome, and the parent folds it back in with
:meth:`MetricsRegistry.merge` — so a ``--jobs 4 --obs`` sweep reports
the same solver/sim totals as a serial run.  ``profile=True``
additionally wraps the cell in :func:`repro.obs.profile.profile_call`
and ships the flattened stats home the same way.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
import traceback
from dataclasses import dataclass

from repro.engine.jobspec import JobSpec, execute_spec
from repro.errors import JobTimeoutError


@dataclass
class JobOutcome:
    """What happened to one scheduled job."""

    index: int
    spec: JobSpec
    rows: "list[dict] | None"
    duration_s: float
    queue_wait_s: float
    cached: bool = False
    error: "str | None" = None
    #: worker-local MetricsRegistry.dump_state payload (obs runs only)
    obs_state: "dict | None" = None
    #: worker-local finished span trees (obs runs only)
    spans: "list[dict] | None" = None
    #: flattened cProfile stats (profiled runs only)
    profile: "dict | None" = None

    @property
    def ok(self) -> bool:
        """Return ok."""
        return self.error is None

    @property
    def timed_out(self) -> bool:
        """Whether the error records a per-job timeout."""
        return bool(self.error) and self.error.startswith(JobTimeoutError.__name__)


def _call_with_timeout(spec: JobSpec, timeout_s: "float | None") -> "list[dict]":
    """Execute one spec, interrupting it after ``timeout_s`` seconds."""
    if not timeout_s or not hasattr(signal, "SIGALRM"):
        return execute_spec(spec)

    def _on_alarm(signum, frame):
        raise JobTimeoutError(
            f"job {spec.describe()!r} exceeded its {timeout_s:.1f}s timeout"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        return execute_spec(spec)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _execute(spec: JobSpec, timeout_s: "float | None", profile: bool):
    """Run one cell, optionally profiled; returns (rows, profile_stats)."""
    if profile:
        from repro.obs.profile import profile_call

        return profile_call(_call_with_timeout, spec, timeout_s)
    return _call_with_timeout(spec, timeout_s), None


def _worker(payload: tuple) -> tuple:
    """Pool entry point: run one job, never raise."""
    index, spec, timeout_s, submitted_at, collect_obs, profile = payload
    started_at = time.monotonic()
    obs_state = None
    spans = None
    profile_stats = None
    try:
        from repro.obs import runtime as obs_runtime

        # the parent is the ledger's single writer; a cell emitting
        # lifecycle events here would differ between serial and pooled
        with obs_runtime.unledgered():
            if collect_obs:
                with obs_runtime.observed() as session:
                    rows, profile_stats = _execute(spec, timeout_s, profile)
                    obs_state = session.registry.dump_state()
                    spans = [record.to_dict() for record in session.spans()]
            else:
                rows, profile_stats = _execute(spec, timeout_s, profile)
        error = None
    except KeyboardInterrupt:  # pragma: no cover - interactive abort
        raise
    except BaseException as exc:
        rows = None
        error = f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=5)}"
    duration = time.monotonic() - started_at
    return (
        index,
        rows,
        duration,
        max(0.0, started_at - submitted_at),
        error,
        obs_state,
        spans,
        profile_stats,
    )


def run_jobs_pooled(
    specs: "list[JobSpec]",
    workers: int = 1,
    timeout_s: "float | None" = None,
    on_outcome=None,
    collect_obs: bool = False,
    profile: bool = False,
) -> "list[JobOutcome]":
    """Execute ``specs`` with at most ``workers`` processes.

    Outcomes are returned in spec order regardless of completion
    order; ``on_outcome`` (if given) fires once per completion, in
    completion order, for progress reporting, incremental cache
    writes, and telemetry folds.  ``collect_obs`` runs each job under
    a worker-local observability session shipped back in the outcome;
    ``profile`` additionally attaches flattened cProfile stats.
    """
    outcomes: "list[JobOutcome | None]" = [None] * len(specs)

    def record(result: tuple) -> JobOutcome:
        index, rows, duration, wait, error, obs_state, spans, profile_stats = result
        outcome = JobOutcome(
            index=index,
            spec=specs[index],
            rows=rows,
            duration_s=duration,
            queue_wait_s=wait,
            error=error,
            obs_state=obs_state,
            spans=spans,
            profile=profile_stats,
        )
        outcomes[index] = outcome
        if on_outcome is not None:
            on_outcome(outcome)
        return outcome

    payloads = [
        (index, spec, timeout_s, time.monotonic(), collect_obs, profile)
        for index, spec in enumerate(specs)
    ]
    if workers <= 1 or len(specs) <= 1:
        for payload in payloads:
            record(_worker(payload))
        return [outcome for outcome in outcomes if outcome is not None]

    with multiprocessing.Pool(processes=min(workers, len(specs))) as pool:
        for result in pool.imap_unordered(_worker, payloads, chunksize=1):
            record(result)
    return [outcome for outcome in outcomes if outcome is not None]
