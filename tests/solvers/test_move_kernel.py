"""The numpy move kernel and the incremental RL state key, pinned to scalar oracles.

The kernel (:func:`shift_deltas`, :func:`swap_deltas`, :func:`best_move`,
:func:`descend`) must pick exactly the move a scalar row-major scan over
:func:`_shift_delta` / :func:`_swap_delta` picks.  The problems here are
built so that the scan's rules matter: small-integer delays make ties
common, decimal demands and capacities put loads a rounding error away
from capacity, some servers are failed with zero capacity, and starts
may overload a server or leave devices unassigned.
"""

from __future__ import annotations

from collections import deque
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.solvers.local_search as ls
from repro.model.problem import AssignmentProblem
from repro.model.solution import UNASSIGNED, Assignment
from repro.rl.env import AssignmentEnv
from repro.solvers.local_search import (
    TabuSearchSolver,
    _apply_shift,
    _apply_swap,
    _shift_delta,
    _swap_delta,
    best_move,
    descend,
    shift_deltas,
    swap_deltas,
)
from tests.strategies import small_problems

#: value sets: integers (exact, tie-heavy) and decimals (inexact sums)
_VALUES = {
    "int": ((0.0, 1.0, 2.0, 3.0), (1.0, 2.0, 3.0, 4.0), (2.0, 3.0, 4.0, 6.0, 8.0)),
    "decimal": ((0.1, 0.2, 0.3, 0.7), (0.1, 0.2, 0.3), (0.2, 0.3, 0.4, 0.6, 0.7)),
}


@st.composite
def kernel_cases(draw, max_devices: int = 9, max_servers: int = 4):
    """``(problem, vector)``: a random problem and a start on it."""
    n = draw(st.integers(min_value=2, max_value=max_devices))
    m = draw(st.integers(min_value=2, max_value=max_servers))
    delays, demands, capacities = _VALUES[draw(st.sampled_from(sorted(_VALUES)))]
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    capacity = rng.choice(capacities, size=m)
    failed = draw(st.sets(st.integers(min_value=0, max_value=m - 1), max_size=m - 1))
    capacity[list(failed)] = 0.0
    problem = AssignmentProblem(
        delay=rng.choice(delays, size=(n, m)),
        demand=rng.choice(demands, size=(n, m)),
        capacity=capacity,
        failed_servers=frozenset(failed),
    )
    # uniform starts overload servers and sit on failed ones freely
    vector = rng.integers(0, m, size=n)
    vector[rng.random(n) < draw(st.sampled_from([0.0, 0.0, 0.3]))] = UNASSIGNED
    return problem, vector


def _loads(problem, vector) -> np.ndarray:
    return Assignment(problem, vector).loads()


def scalar_best_move(problem, vector, loads, use_swaps: bool = True):
    """The scalar best-improvement scan; unassigned devices never move."""
    best_delta, move = -1e-15, None
    placed = [i for i in range(problem.n_devices) if vector[i] != UNASSIGNED]
    for device in placed:
        for server in range(problem.n_servers):
            delta = _shift_delta(problem, vector, loads, device, server)
            if delta is not None and delta < best_delta:
                best_delta, move = delta, ("shift", device, server, delta)
    if use_swaps:
        for a in placed:
            for b in placed:
                if b <= a:
                    continue
                delta = _swap_delta(problem, vector, loads, a, b)
                if delta is not None and delta < best_delta:
                    best_delta, move = delta, ("swap", a, b, delta)
    return move


def scalar_descent(problem, vector, loads, max_passes: int, use_swaps: bool = True):
    """Move sequence of the scalar best-improvement loop (in place)."""
    moves = []
    for _ in range(max_passes):
        move = scalar_best_move(problem, vector, loads, use_swaps)
        if move is None:
            break
        kind, x, y, _ = move
        (_apply_shift if kind == "shift" else _apply_swap)(problem, vector, loads, x, y)
        moves.append((kind, x, y))
    return moves


def recorded_descent(problem, vector, loads, max_passes: int, use_swaps: bool = True):
    """Run :func:`descend` and record the moves it applies."""
    moves = []

    def spy(kind, apply):
        def record(problem, vector, loads, x, y):
            moves.append((kind, x, y))
            apply(problem, vector, loads, x, y)

        return record

    with mock.patch.object(ls, "_apply_shift", spy("shift", _apply_shift)), \
            mock.patch.object(ls, "_apply_swap", spy("swap", _apply_swap)):
        count = descend(problem, vector, loads, max_passes, use_swaps)
    assert count == len(moves)
    return moves


def _as_matrix(problem, vector, loads, oracle, rows: int, cols: int) -> np.ndarray:
    out = np.full((rows, cols), np.inf)
    for i in range(rows):
        for j in range(cols):
            if vector[i] == UNASSIGNED or (oracle is _swap_delta and (
                    j <= i or vector[j] == UNASSIGNED)):
                continue
            delta = oracle(problem, vector, loads, i, j)
            if delta is not None:
                out[i, j] = delta
    return out


class TestDeltaMatrices:
    @settings(max_examples=150, deadline=None)
    @given(case=kernel_cases(), block=st.sampled_from([1, 5, 1 << 20]))
    def test_matrices_equal_the_scalar_deltas(self, case, block):
        problem, vector = case
        loads = _loads(problem, vector)
        n, m = problem.n_devices, problem.n_servers
        with mock.patch.object(ls, "_BLOCK_ENTRIES", block):
            swaps = swap_deltas(problem, vector, loads)
        assert np.array_equal(
            shift_deltas(problem, vector, loads),
            _as_matrix(problem, vector, loads, _shift_delta, n, m),
        )
        assert np.array_equal(swaps, _as_matrix(problem, vector, loads, _swap_delta, n, n))

    def test_capacity_slack_admits_a_rounding_error_over(self):
        # 0.1 + 0.2 > 0.3 in floating point; the 1e-12 slack admits it
        problem = AssignmentProblem(
            delay=np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            demand=np.array([[0.2, 0.2], [0.2, 0.2], [0.1, 0.1]]),
            capacity=np.array([0.3, 0.3]),
        )
        vector = np.array([0, 0, 1])
        loads = _loads(problem, vector)
        assert loads[1] + 0.2 > 0.3
        assert shift_deltas(problem, vector, loads)[0, 1] == -1.0
        swaps = swap_deltas(problem, vector, loads)
        assert swaps[1, 2] == _swap_delta(problem, vector, loads, 1, 2) == -2.0


class TestBestMove:
    @settings(max_examples=300, deadline=None)
    @given(case=kernel_cases(), use_swaps=st.booleans(),
           block=st.sampled_from([1, 5, 1 << 20]))
    def test_equals_the_scalar_scan(self, case, use_swaps, block):
        problem, vector = case
        loads = _loads(problem, vector)
        with mock.patch.object(ls, "_BLOCK_ENTRIES", block):
            move = best_move(problem, vector, loads, use_swaps)
        expected = scalar_best_move(problem, vector, loads, use_swaps)
        assert (move is None) == (expected is None)
        if move is not None:
            assert move[:3] == expected[:3]
            assert move[3] == expected[3]

    def test_shift_wins_a_tie_with_a_swap(self):
        # shifting device 0 to server 1 and swapping devices 0, 1 both save 1.0
        problem = AssignmentProblem(
            delay=np.array([[1.0, 0.0], [0.0, 0.0]]),
            demand=np.ones((2, 2)),
            capacity=np.array([2.0, 2.0]),
        )
        vector = np.array([0, 1])
        loads = _loads(problem, vector)
        assert _swap_delta(problem, vector, loads, 0, 1) == -1.0
        assert best_move(problem, vector, loads) == ("shift", 0, 1, -1.0)

    def test_no_improving_move_returns_none(self):
        problem = AssignmentProblem(
            delay=np.array([[0.0, 1.0], [1.0, 0.0]]),
            demand=np.ones((2, 2)),
            capacity=np.array([2.0, 2.0]),
        )
        vector = np.array([0, 1])
        assert best_move(problem, vector, _loads(problem, vector)) is None


class TestDescend:
    @settings(max_examples=150, deadline=None)
    @given(case=kernel_cases(), use_swaps=st.booleans(),
           max_passes=st.integers(min_value=0, max_value=40))
    def test_same_moves_and_final_vector_as_the_scalar_loop(
        self, case, use_swaps, max_passes
    ):
        problem, start = case
        vector, oracle_vector = start.copy(), start.copy()
        loads, oracle_loads = _loads(problem, start), _loads(problem, start)
        moves = recorded_descent(problem, vector, loads, max_passes, use_swaps)
        assert moves == scalar_descent(
            problem, oracle_vector, oracle_loads, max_passes, use_swaps
        )
        assert np.array_equal(vector, oracle_vector)
        assert np.array_equal(loads, oracle_loads)

    @settings(max_examples=60, deadline=None)
    @given(case=kernel_cases())
    def test_unassigned_devices_stay_and_carry_no_load(self, case):
        problem, vector = case
        shed = vector == UNASSIGNED
        loads = _loads(problem, vector)
        descend(problem, vector, loads, 50)
        assert np.all(vector[shed] == UNASSIGNED)
        assert np.allclose(loads, _loads(problem, vector))


def scalar_tabu(problem, start, max_iters: int, tenure: int):
    """The scalar tabu search loop the kernel replaced."""
    vector = start.copy()
    loads = _loads(problem, vector)
    n, m = problem.n_devices, problem.n_servers
    cost = float(np.sum(problem.delay[np.arange(n), vector]))
    best_cost, best_vector = cost, vector.copy()
    tabu: deque = deque()
    tabu_set: set = set()
    iterations = 0
    for _ in range(max_iters):
        iterations += 1
        best_delta, best = np.inf, None
        for device in range(n):
            for server in range(m):
                delta = _shift_delta(problem, vector, loads, device, server)
                if delta is None:
                    continue
                aspires = cost + delta < best_cost - 1e-15
                if (device, server) in tabu_set and not aspires:
                    continue
                if delta < best_delta:
                    best_delta, best = delta, (device, server)
        if best is None:
            break
        device, server = best
        previous = int(vector[device])
        _apply_shift(problem, vector, loads, device, server)
        cost += best_delta
        tabu.append((device, previous))
        tabu_set.add((device, previous))
        while len(tabu) > tenure:
            tabu_set.discard(tabu.popleft())
        if cost < best_cost - 1e-15:
            best_cost, best_vector = cost, vector.copy()
    return best_vector, iterations


class TestTabu:
    @settings(max_examples=40, deadline=None)
    @given(problem=small_problems(max_devices=9, max_servers=4),
           tenure=st.integers(min_value=1, max_value=6))
    def test_equals_the_scalar_tabu_loop(self, problem, tenure):
        start = ls.feasible_start(problem)
        if not start.is_complete:
            return
        with mock.patch.object(ls, "feasible_start", lambda problem, rng: start):
            result = TabuSearchSolver(max_iters=60, tenure=tenure).solve(problem)
        vector, iterations = scalar_tabu(problem, start.vector, 60, tenure)
        assert np.array_equal(result.assignment.vector, vector)
        assert result.iterations == iterations


def reference_state_key(env: AssignmentEnv) -> tuple:
    """The state key recomputed from scratch over every server."""
    problem = env.problem
    capacity = np.where(problem.capacity > 0, problem.capacity, 1.0)
    fractions = np.clip(
        np.where(problem.capacity > 0, env.residual / capacity, 0.0), 0.0, 1.0
    )
    buckets = np.minimum(
        (fractions * env.load_buckets).astype(np.int64), env.load_buckets - 1
    )
    buckets[fractions >= 1.0 - 1e-12] = env.load_buckets - 1
    return (env.t, tuple(int(b) for b in buckets))


class TestEnvIncrementalState:
    @settings(max_examples=120, deadline=None)
    @given(case=kernel_cases(), masked=st.booleans(),
           load_buckets=st.integers(min_value=1, max_value=6),
           seed=st.integers(min_value=0, max_value=2**16), episodes=st.integers(1, 3))
    def test_state_key_and_actions_match_a_fresh_recomputation(
        self, case, masked, load_buckets, seed, episodes
    ):
        problem, _ = case
        env = AssignmentEnv(problem, mask_infeasible=masked, load_buckets=load_buckets)
        rng = np.random.default_rng(seed)
        for _ in range(episodes):
            state = env.reset()
            assert state == reference_state_key(env)
            while not env.done:
                actions = env.feasible_actions()
                assert np.array_equal(actions, np.flatnonzero(env.action_mask()))
                assert not actions.flags.writeable
                assert env.feasible_actions() is actions
                if actions.size == 0:
                    break  # the first device fits nowhere
                state, _, _, _ = env.step(int(actions[rng.integers(actions.size)]))
                assert state == reference_state_key(env)
                assert env.state_key() == state
