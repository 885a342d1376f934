"""The scalar-state Q-learning family, pinned to its numpy oracle.

Every solver of the family (``qlearning``, ``tacc``, ``sarsa``,
``double_q``) must train exactly as the numpy loops in
:mod:`tests.rl.oracle` do: the same final vector, the same episode
costs (NaN where an episode was infeasible), dead ends and Q-table
size, and the generator left in the same state.  The problems mix
tie-heavy integer and inexact decimal values, failed (zero-capacity)
servers, and capacities tight enough that episodes dead-end or the
first device fits nowhere.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.model.instances import gap_instance, topology_instance
from repro.model.problem import AssignmentProblem
from repro.rl.agent import TaccSolver, boltzmann_choice, numpy_sum
from repro.rl.double_q import DoubleQLearningSolver
from repro.rl.qlearning import QLearningSolver
from repro.rl.sarsa import SarsaSolver
from repro.solvers.greedy import feasible_start
from tests.rl.oracle import ORACLES, _oracle_env

#: value sets: integers (exact, tie-heavy) and decimals (inexact sums)
_VALUES = {
    "int": ((0.0, 1.0, 2.0, 3.0), (1.0, 2.0, 3.0, 4.0)),
    "decimal": ((0.1, 0.2, 0.3, 0.7), (0.1, 0.2, 0.3, 0.7)),
}


@st.composite
def rl_problems(draw, max_devices: int = 12, max_servers: int = 9):
    """A small problem; ``tightness`` near 1 makes episodes dead-end."""
    n = draw(st.integers(min_value=1, max_value=max_devices))
    m = draw(st.integers(min_value=1, max_value=max_servers))
    delays, demands = _VALUES[draw(st.sampled_from(sorted(_VALUES)))]
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    demand = rng.choice(demands, size=(n, m))
    failed = draw(st.sets(st.integers(min_value=0, max_value=m - 1), max_size=m - 1))
    tightness = draw(st.sampled_from([0.5, 0.9, 1.0, 1.3]))
    # total capacity ~ total mean demand / tightness, spread unevenly
    share = rng.random(m) + 0.2
    capacity = np.round(share / share.sum() * demand.mean(axis=1).sum() / tightness, 1)
    capacity[list(failed)] = 0.0
    capacity[[j for j in range(m) if j not in failed and capacity[j] <= 0]] = 0.1
    return AssignmentProblem(
        delay=rng.choice(delays, size=(n, m)),
        demand=demand,
        capacity=capacity,
        failed_servers=frozenset(failed),
    )


def _run(solver, problem, seed: int):
    """``_solve`` with a fresh generator: the outputs, in comparable bytes."""
    rng = np.random.default_rng(seed)
    try:
        assignment, info = solver._solve(problem, rng)
    except ValidationError as exc:
        outputs = ("raised", str(exc))
    else:
        costs = np.asarray(info.pop("episode_costs"), dtype=np.float64)
        outputs = (assignment.vector.tobytes(), costs.tobytes(), sorted(info.items()))
    return outputs, rng.bit_generator.state


def first_device_fits_nowhere(cls, problem, **params) -> bool:
    """Whether the oracle env has no action for the episode's first device."""
    return _oracle_env(ORACLES[cls](**params), problem).feasible_actions().size == 0


def dead_start_outputs(problem, rng_seed: int, episodes: int) -> tuple:
    """The one behaviour when the first device fits nowhere: one dead-ended
    episode is logged, training stops, and the feasible start is returned."""
    rng = np.random.default_rng(rng_seed)
    fallback = feasible_start(problem, rng)
    info = {"iterations": episodes, "dead_ends": 1, "fallback": True}
    costs = np.asarray([np.nan], dtype=np.float64)
    return (fallback.vector.tobytes(), costs.tobytes(), sorted(info.items())), (
        rng.bit_generator.state
    )


def assert_same_training(cls, problem, rng_seed: int, **params) -> tuple:
    """Solve with ``cls`` and its oracle; both must agree byte for byte.

    Where the first device fits nowhere the oracles differ from each
    other (three raise, sarsa logs no episode), so the solver is held to
    :func:`dead_start_outputs` instead.
    """
    got = _run(cls(**params), problem, rng_seed)
    if first_device_fits_nowhere(cls, problem, **params):
        expected = dead_start_outputs(problem, rng_seed, params.get("episodes", 400))
    else:
        expected = _run(ORACLES[cls](**params), problem, rng_seed)
    assert got[0] == expected[0]
    assert got[1] == expected[1], "generator state differs after the solve"
    return got[0]


_PARAMS = {
    "episodes": st.integers(min_value=1, max_value=10),
    "load_buckets": st.integers(min_value=1, max_value=6),
    "device_order": st.sampled_from(["demand", "index", "random"]),
    "mask_infeasible": st.booleans(),
    "seed": st.integers(min_value=0, max_value=2**16),
}


class TestOracleParity:
    @settings(max_examples=80, deadline=None)
    @given(problem=rl_problems(), rng_seed=st.integers(0, 2**16), **_PARAMS)
    def test_qlearning(self, problem, rng_seed, **params):
        assert_same_training(QLearningSolver, problem, rng_seed, **params)

    @settings(max_examples=120, deadline=None)
    @given(problem=rl_problems(), rng_seed=st.integers(0, 2**16),
           polish=st.booleans(),
           exploration_temperature=st.sampled_from([0.25, 0.05, 0.001]), **_PARAMS)
    def test_tacc(self, problem, rng_seed, **params):
        assert_same_training(TaccSolver, problem, rng_seed, **params)

    @settings(max_examples=80, deadline=None)
    @given(problem=rl_problems(), rng_seed=st.integers(0, 2**16), **_PARAMS)
    def test_sarsa(self, problem, rng_seed, **params):
        assert_same_training(SarsaSolver, problem, rng_seed, **params)

    @settings(max_examples=80, deadline=None)
    @given(problem=rl_problems(), rng_seed=st.integers(0, 2**16), **_PARAMS)
    def test_double_q(self, problem, rng_seed, **params):
        assert_same_training(DoubleQLearningSolver, problem, rng_seed, **params)

    @pytest.mark.parametrize("cls", list(ORACLES))
    def test_tight_sweep_covers_dead_ends_and_fallbacks(self, cls):
        """A seed sweep over tight instances dead-ends and falls back, and
        agrees byte for byte with the oracle wherever the first device
        fits somewhere.  Where it fits nowhere, every solver of the family
        logs one dead-ended episode and returns the feasible start."""
        dead_ends = fallbacks = dead_starts = 0
        n, m = 8, 3
        for seed in range(30):
            rng = np.random.default_rng(seed)
            problem = AssignmentProblem(
                delay=rng.choice((0.0, 1.0, 2.0), size=(n, m)),
                demand=rng.choice((1.0, 2.0, 3.0), size=(n, m)),
                capacity=rng.choice((1.0, 2.0, 4.0, 8.0), size=m),
            )
            outputs = assert_same_training(cls, problem, seed, episodes=6, seed=seed)
            info = dict(outputs[2])
            dead_ends += info["dead_ends"]
            fallbacks += bool(info.get("fallback"))
            if first_device_fits_nowhere(cls, problem, episodes=6, seed=seed):
                dead_starts += 1
                assert outputs[1] == np.asarray([np.nan]).tobytes()
                assert info["dead_ends"] == 1 and info["fallback"] is True
        assert dead_ends > dead_starts and fallbacks > dead_starts
        assert dead_starts == 2


@pytest.mark.parametrize("cls", list(ORACLES))
@pytest.mark.parametrize("instance", ["geometric", "gap_c"])
def test_parity_on_benchmark_shapes(cls, instance):
    """Full default budgets on a routed topology and a tight GAP class."""
    if instance == "geometric":
        problem = topology_instance(family="random_geometric", n_routers=30,
                                    n_devices=40, n_servers=8, tightness=0.75, seed=7)
    else:
        problem = gap_instance(30, 5, "c", seed=2)
    assert_same_training(cls, problem, 3, seed=3, episodes=120)


class TestBoltzmannChoice:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        scale=st.sampled_from([1.0, 50.0, 800.0]),
    )
    def test_matches_generator_choice(self, n, seed, scale):
        """Same index and generator state as ``rng.choice(p=w / w.sum())``;
        a scale of 800 underflows most weights (and sometimes all) to 0.0."""
        draw = np.random.default_rng(seed)
        weights = np.exp(-draw.random(n) * scale)
        actions = tuple(int(a) for a in draw.permutation(64)[:n])
        got_rng = np.random.default_rng(seed + 1)
        ref_rng = np.random.default_rng(seed + 1)
        got = boltzmann_choice(actions, weights.tolist(), got_rng)
        total = float(weights.sum())
        if total > 0:
            expected = int(ref_rng.choice(np.array(actions), p=weights / total))
        else:
            expected = actions[ref_rng.integers(n)]
        assert got == expected
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_single_action_still_draws_once(self):
        got_rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        assert boltzmann_choice((3,), [0.25], got_rng) == 3
        ref_rng.random()
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_all_underflowed_weights_fall_back_to_uniform(self):
        got_rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        actions = (4, 1, 7)
        assert boltzmann_choice(actions, [0.0, 0.0, 0.0], got_rng) == actions[
            ref_rng.integers(3)
        ]
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(min_value=1, max_value=2000), seed=st.integers(0, 2**32 - 1))
    def test_numpy_sum_is_bitwise(self, n, seed):
        """Both numpy paths: sequential under 8, pairwise lanes (and >128 halves)."""
        rng = np.random.default_rng(seed)
        values = rng.random(n) * 10.0 ** rng.integers(-6, 7, size=n)
        assert numpy_sum(values.tolist()) == float(np.sum(values))
