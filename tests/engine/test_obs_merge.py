"""Cross-process telemetry equality: serial and pooled runs agree.

The ISSUE-4 acceptance test: a real experiment grid run with
``--jobs 2 --obs`` must report the same merged solver/sim totals as a
serial run.  Counters and histograms compare exactly (the cells are
deterministic and two worker states merge commutatively); timers
compare structurally (sample counts), since their values are
wall-clock.
"""

from __future__ import annotations

from repro import obs
from repro.engine import EngineOptions, JobSpec, run_jobs
from repro.experiments.configs import Scale

#: micro f5 config: 2 repeat cells, tiny topology, short DES replay —
#: exercises both solver/* and sim/* instruments in a few seconds
_MICRO_F5 = Scale(
    repeats=2,
    params={
        "rate_scales": [1.5],
        "n_devices": 8,
        "n_servers": 2,
        "n_routers": 10,
        "duration_s": 4.0,
        "deadline_s": 0.04,
    },
    solver_kwargs={
        "tacc": {"episodes": 10},
        "qlearning": {"episodes": 10},
        "annealing": {"steps": 200},
        "genetic": {"population": 6, "generations": 4},
    },
)


def _run_f5(monkeypatch, engine):
    from repro.experiments import configs, f5_deadline

    monkeypatch.setattr(
        configs, "_CONFIGS", {"f5": {"quick": _MICRO_F5, "full": _MICRO_F5}}
    )
    with obs.observed() as session:
        table = f5_deadline.run("quick", seed=5, engine=engine)
        return table, session.snapshot(), session.spans()


def _prefixed(group: dict, prefixes=("solver/", "sim/", "rl/")) -> dict:
    return {
        key: value
        for key, value in group.items()
        if key.startswith(prefixes)
    }


def _tree_shape(spans) -> list:
    """Sorted ``(span name, parent span name)`` pairs of a span list."""
    names = {span.span_id: span.name for span in spans}
    return sorted(
        (span.name, names[span.parent_id] if span.parent_id else "")
        for span in spans
    )


class TestSerialParallelObsEquality:
    def test_f5_serial_equals_two_workers(self, monkeypatch):
        serial_table, serial, serial_spans = _run_f5(monkeypatch, engine=None)
        parallel_table, parallel, parallel_spans = _run_f5(
            monkeypatch, engine=EngineOptions(jobs=2)
        )
        # the rows themselves are identical — determinism baseline
        assert serial_table.rows == parallel_table.rows

        # counters: exact equality, solver/sim/rl instruments all present
        serial_counters = _prefixed(serial["counters"])
        parallel_counters = _prefixed(parallel["counters"])
        assert serial_counters, "expected solver/sim counters to be collected"
        assert any(key.startswith("solver/") for key in serial_counters)
        assert any(key.startswith("sim/") for key in serial_counters)
        assert serial_counters == parallel_counters

        # histograms: full summaries agree (count, sum, quantiles) —
        # DES observations are virtual-time, hence deterministic
        serial_hists = _prefixed(serial["histograms"])
        parallel_hists = _prefixed(parallel["histograms"])
        assert serial_hists, "expected sim histograms to be collected"
        assert serial_hists == parallel_hists

        # timers: wall-clock values differ run to run, but the sample
        # structure (which timers exist, how many samples each) must match
        serial_timers = _prefixed(serial["timers"])
        parallel_timers = _prefixed(parallel["timers"])
        assert set(serial_timers) == set(parallel_timers)
        for key, summary in serial_timers.items():
            assert summary["count"] == parallel_timers[key]["count"], key

        # gauges are last-write-wins; presence must agree
        assert set(_prefixed(serial["gauges"])) == set(_prefixed(parallel["gauges"]))

        # worker span trees are adopted into the parent tracer
        assert len(serial_spans) == len(parallel_spans) > 0
        assert sorted(span.name for span in serial_spans) == sorted(
            span.name for span in parallel_spans
        )
        # ...and stitch into the same tree shape: each span's parent name
        assert _tree_shape(serial_spans) == _tree_shape(parallel_spans)
        assert any(parent for _, parent in _tree_shape(serial_spans))

    def test_cache_hits_contribute_no_samples(self, tmp_path, monkeypatch):
        engine = EngineOptions(jobs=2, cache_dir=tmp_path / "cache")
        _run_f5(monkeypatch, engine=engine)
        with obs.observed() as session:
            from repro.experiments import f5_deadline

            f5_deadline.run("quick", seed=5, engine=engine)
            cached = session.snapshot()
        assert engine.last_report.cache.hit_ratio == 1.0
        # everything came from the cache: no cells ran, no solver/sim samples
        assert not _prefixed(cached["counters"])
        assert not _prefixed(cached["histograms"])


class TestEngineLedgerEvents:
    def _specs(self):
        return [
            JobSpec(
                experiment="ledger-test",
                fn="repro.engine.synthetic:cpu_cell",
                params={"iterations": 300, "cell": index},
                seed=index,
                label=f"cell {index}",
            )
            for index in range(3)
        ]

    def test_engine_emits_lifecycle_events(self, tmp_path):
        from repro.obs import runtime as obs_runtime
        from repro.obs.ledger import read_ledger

        path = tmp_path / "ledger.jsonl"
        with obs_runtime.ledgered(path, run_id="t"):
            run_jobs(self._specs(), EngineOptions(jobs=1))
        events = [record["event"] for record in read_ledger(path)]
        assert events[0] == "run_start"
        assert events[-1] == "run_end"
        assert events.count("job_start") == 3
        assert events.count("job_end") == 3

    def test_serial_and_pooled_ledgers_agree(self, tmp_path):
        from collections import Counter

        from repro.obs import runtime as obs_runtime
        from repro.obs.ledger import read_ledger

        counts = {}
        for label, jobs in (("serial", 1), ("pooled", 2)):
            path = tmp_path / f"{label}.jsonl"
            with obs_runtime.ledgered(path, run_id=label):
                run_jobs(self._specs(), EngineOptions(jobs=jobs))
            counts[label] = Counter(r["event"] for r in read_ledger(path))
        assert counts["serial"] == counts["pooled"]

    def test_cache_hits_logged(self, tmp_path):
        from repro.obs import runtime as obs_runtime
        from repro.obs.ledger import read_ledger

        engine = EngineOptions(jobs=1, cache_dir=tmp_path / "cache")
        run_jobs(self._specs(), engine)
        path = tmp_path / "ledger.jsonl"
        with obs_runtime.ledgered(path, run_id="t"):
            run_jobs(self._specs(), engine)
        events = [record["event"] for record in read_ledger(path)]
        assert events.count("cache_hit") == 3
        assert events.count("job_start") == 0


class TestEngineProfiling:
    def test_profile_collected_and_merged(self):
        options = EngineOptions(jobs=2, profile=True)
        run_jobs(
            [
                JobSpec(
                    experiment="profile-test",
                    fn="repro.engine.synthetic:cpu_cell",
                    params={"iterations": 300, "cell": index},
                    seed=index,
                )
                for index in range(2)
            ],
            options,
        )
        assert options.last_profile
        assert any("execute_spec" in key for key in options.last_profile)
        for ncalls, tottime, cumtime in options.last_profile.values():
            assert ncalls >= 1 and tottime >= 0.0 and cumtime >= 0.0

    def test_profiled_runs_are_cache_compatible(self, tmp_path):
        spec = JobSpec(
            experiment="profile-test",
            fn="repro.engine.synthetic:cpu_cell",
            params={"iterations": 300, "cell": 1},
            seed=1,
        )
        profiled = EngineOptions(jobs=1, cache_dir=tmp_path / "c", profile=True)
        plain = EngineOptions(jobs=1, cache_dir=tmp_path / "c")
        first = run_jobs([spec], profiled)
        second = run_jobs([spec], plain)
        assert first == second
        assert plain.last_report.cache.hits == 1
