"""Correctness gates: each returns the list of violations it found.

The gates recompute what they check from the problem matrices and the
plain assignment vectors, so they do not trust the program's own
``is_feasible`` bookkeeping.  An empty list means the gate passed;
every violation fails the run and counts as one failed operation.
"""

from __future__ import annotations

import numpy as np

UNASSIGNED = -1
#: slack on capacity and bound comparisons (float summation order)
EPS = 1e-9

_OK = ("ok",)


def loads(problem, vector: np.ndarray) -> np.ndarray:
    """Per-server load of a (possibly partial) assignment vector."""
    vector = np.asarray(vector)
    held = np.flatnonzero(vector != UNASSIGNED)
    out = np.zeros(problem.n_servers)
    np.add.at(out, vector[held], problem.demand[held, vector[held]])
    return out


def capacity_feasible(problem, vector, label: str) -> "list[str]":
    """No server holds more demand than its capacity."""
    over = loads(problem, vector) - np.asarray(problem.capacity)
    bad = np.flatnonzero(over > EPS * np.maximum(1.0, problem.capacity))
    return [f"{label}: server {int(j)} over capacity by {over[j]:.6g}"
            for j in bad]


def plan_feasible(problem, vector, label: str) -> "list[str]":
    """Every device assigned and no server over capacity."""
    vector = np.asarray(vector)
    missing = int(np.sum(vector == UNASSIGNED))
    found = [f"{label}: {missing} devices unassigned"] if missing else []
    return found + capacity_feasible(problem, vector, label)


def above_bound(objective: float, bound: float, label: str) -> "list[str]":
    """A plan's objective is at least the certified lower bound."""
    if objective < bound - EPS * max(1.0, abs(bound)):
        return [f"{label}: objective {objective!r} below lower bound {bound!r}"]
    return []


def replay_lossless(report, label: str) -> "list[str]":
    """The DES replay lost no task and finished every task it created.

    ``tasks_lost`` only moves under fault injection, which the replay
    does not use; the completion check is the one a fault-free replay
    can fail (a task still queued or on the wire when the drain ends).
    """
    found = []
    if report.tasks_lost:
        found.append(f"{label}: DES replay lost {report.tasks_lost} tasks")
    if report.goodput < 1.0:
        found.append(f"{label}: DES replay finished {report.goodput:.6f} of "
                     f"its {report.tasks_created} tasks")
    return found


def serial_pin(vector, expected, label: str) -> "list[str]":
    """The batched service state equals the serial replay of its trace."""
    vector, expected = np.asarray(vector), np.asarray(expected)
    if vector.shape != expected.shape:
        return [f"{label}: vector shape {vector.shape} != {expected.shape}"]
    differ = int(np.sum(vector != expected))
    if differ:
        return [f"{label}: {differ} devices differ from the serial replay"]
    return []


def held_consistent(held: "set[int]", vectors: "dict[str, np.ndarray]",
                    label: str) -> "list[str]":
    """Each ``ok``-held device sits on exactly one shard; nothing else does."""
    copies = sum((np.asarray(v) != UNASSIGNED).astype(int)
                 for v in vectors.values())
    found = []
    doubled = np.flatnonzero(copies > 1)
    if doubled.size:
        found.append(f"{label}: {doubled.size} devices held on several shards")
    placed = set(np.flatnonzero(copies > 0).tolist())
    if placed != held:
        found.append(
            f"{label}: {len(held - placed)} held devices missing, "
            f"{len(placed - held)} unheld devices placed"
        )
    return found


def statuses_ok(outcomes, label: str) -> "list[str]":
    """Every response was ``ok``; one violation per failed request."""
    return [f"{label}: request {o.index} ({o.op} device {o.device}) -> {o.status}"
            for o in outcomes if o.status not in _OK]


def held_after(outcomes) -> "set[int]":
    """Devices holding a server per the ``ok`` answers, in send order."""
    held: "set[int]" = set()
    for outcome in sorted(outcomes, key=lambda o: o.index):
        if outcome.status != "ok":
            continue
        if outcome.op == "assign":
            held.add(outcome.device)
        else:
            held.discard(outcome.device)
    return held
