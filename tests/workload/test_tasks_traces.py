"""Tests for the task factory and trace generation/persistence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SerializationError, ValidationError
from repro.model.entities import IoTDevice
from repro.workload.arrivals import PeriodicProcess
from repro.workload.tasks import TaskFactory
from repro.workload.traces import Trace, generate_trace


class TestTaskFactory:
    def test_unique_ids(self):
        factory = TaskFactory()
        rng = np.random.default_rng(0)
        ids = {
            factory.make(0, 0, created_at=0.0, rng=rng).task_id for _ in range(100)
        }
        assert len(ids) == 100

    def test_mean_size_matches_parameter(self):
        factory = TaskFactory(mean_size_bits=10_000.0, size_sigma=0.4)
        rng = np.random.default_rng(1)
        sizes = [
            factory.make(0, 0, created_at=0.0, rng=rng).size_bits for _ in range(20_000)
        ]
        assert np.mean(sizes) == pytest.approx(10_000.0, rel=0.05)

    def test_mean_compute_matches_parameter(self):
        factory = TaskFactory(mean_compute_units=2.0)
        rng = np.random.default_rng(2)
        units = [
            factory.make(0, 0, created_at=0.0, rng=rng).compute_units
            for _ in range(20_000)
        ]
        assert np.mean(units) == pytest.approx(2.0, rel=0.05)

    def test_deadline_stamped(self):
        factory = TaskFactory()
        rng = np.random.default_rng(3)
        task = factory.make(1, 2, created_at=5.0, rng=rng, deadline_s=0.1)
        assert task.deadline_s == 0.1
        assert task.device_id == 1
        assert task.server_id == 2
        assert task.created_at == 5.0

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            TaskFactory(mean_size_bits=0.0)
        with pytest.raises(ValidationError):
            TaskFactory(mean_compute_units=-1.0)


def fleet(n=3):
    return [
        IoTDevice(device_id=i, node_id=100 + i, demand=10.0, rate_hz=2.0)
        for i in range(n)
    ]


class TestGenerateTrace:
    def test_entries_time_sorted(self):
        trace = generate_trace(fleet(), horizon_s=20.0, seed=1)
        times = [e.time_s for e in trace.entries]
        assert times == sorted(times)

    def test_all_entries_within_horizon(self):
        trace = generate_trace(fleet(), horizon_s=10.0, seed=2)
        assert all(0 < e.time_s <= 10.0 for e in trace.entries)

    def test_empirical_rate_matches_device_rate(self):
        trace = generate_trace(fleet(1), horizon_s=500.0, seed=3)
        assert trace.rate_of(0) == pytest.approx(2.0, rel=0.15)

    def test_deterministic(self):
        a = generate_trace(fleet(), horizon_s=10.0, seed=4)
        b = generate_trace(fleet(), horizon_s=10.0, seed=4)
        assert [e.time_s for e in a.entries] == [e.time_s for e in b.entries]

    def test_arrival_override(self):
        devices = fleet(2)
        trace = generate_trace(
            devices,
            horizon_s=10.0,
            seed=5,
            arrivals={0: PeriodicProcess(1.0)},
        )
        # device 0 has exactly 10 periodic arrivals
        assert sum(1 for e in trace.entries if e.device_id == 0) == 10

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValidationError):
            generate_trace([], horizon_s=10.0)


class TestTracePersistence:
    def test_roundtrip(self, tmp_path):
        trace = generate_trace(fleet(), horizon_s=15.0, seed=6)
        path = tmp_path / "trace.jsonl"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.horizon_s == trace.horizon_s
        assert loaded.n_entries == trace.n_entries
        for original, restored in zip(trace.entries, loaded.entries):
            assert restored.time_s == pytest.approx(original.time_s)
            assert restored.device_id == original.device_id
            assert restored.size_bits == pytest.approx(original.size_bits)

    def test_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"horizon_s": 1.0}\nnot json\n')
        with pytest.raises(SerializationError):
            Trace.load(path)

    @pytest.mark.parametrize(
        "header, record",
        [
            ('{"horizon_s": 1.0}', '{"t": Infinity, "d": 0, "b": 1e3, "c": 1.0}'),
            ('{"horizon_s": 1.0}', '{"t": NaN, "d": 0, "b": 1e3, "c": 1.0}'),
            ('{"horizon_s": 1.0}', '{"t": -0.5, "d": 0, "b": 1e3, "c": 1.0}'),
            ('{"horizon_s": 1.0}', '{"t": 0.5, "d": 0, "b": 0.0, "c": 1.0}'),
            ('{"horizon_s": 1.0}', '{"t": 0.5, "d": 0, "b": Infinity, "c": 1.0}'),
            ('{"horizon_s": 1.0}', '{"t": 0.5, "d": 0, "b": 1e3, "c": -1.0}'),
            ('{"horizon_s": 1.0}', '{"t": 0.5, "d": 0, "b": 1e3, "c": NaN}'),
            ('{"horizon_s": 0.0}', '{"t": 0.5, "d": 0, "b": 1e3, "c": 1.0}'),
            ('{"horizon_s": Infinity}', '{"t": 0.5, "d": 0, "b": 1e3, "c": 1.0}'),
        ],
    )
    def test_unreplayable_values_rejected(self, tmp_path, header, record):
        path = tmp_path / "bad.jsonl"
        path.write_text(f"{header}\n{record}\n")
        with pytest.raises(SerializationError):
            Trace.load(path)
