"""Neighbourhood-search heuristics: hill climbing and tabu search.

Both operate on the classic GAP neighbourhood:

* **shift** — move one device to a different server with room;
* **swap** — exchange the servers of two devices when both fit.

:class:`LocalSearchSolver` descends to a local optimum from the greedy
start; :class:`TabuSearchSolver` keeps moving after local optima using
a recency-based tabu list with aspiration.  Both maintain feasibility
invariantly — a move is only a candidate if it keeps every server
within capacity — so they inherit the paper's "never overloaded"
guarantee from their feasible starting point.

One numpy kernel scores every move: :func:`shift_deltas` (n×m) and
:func:`swap_deltas` (upper-triangular n×n, built in row blocks of at
most ~1M entries), ``+inf`` where a move is infeasible, stays put or
touches an unassigned device.  :func:`best_move` takes exactly the move
the scalar row-major scan with strict ``<`` takes: deltas and loads use
the scalar operand order, the first minimum wins, a swap beats a shift
only if strictly smaller, and a move must beat ``-1e-15``.
:func:`descend` is the descent of local search and of
:func:`repro.rl.agent.polish_assignment`.  The scalar
:func:`_shift_delta` / :func:`_swap_delta` remain as the test oracle.
"""

from __future__ import annotations

from collections import deque
from itertools import chain

import numpy as np

from repro.model.problem import AssignmentProblem
from repro.model.solution import Assignment
from repro.solvers.base import Solver
from repro.solvers.greedy import feasible_start, random_feasible_assignment
from repro.utils.validation import require


def _shift_delta(problem: AssignmentProblem, vector, loads, device: int, server: int):
    """Objective delta and feasibility of moving ``device`` to ``server``."""
    current = int(vector[device])
    if current == server:
        return None
    new_load = loads[server] + problem.demand[device, server]
    if new_load > problem.capacity[server] + 1e-12:
        return None
    return problem.delay[device, server] - problem.delay[device, current]


def _apply_shift(problem: AssignmentProblem, vector, loads, device: int, server: int) -> None:
    current = int(vector[device])
    loads[current] -= problem.demand[device, current]
    loads[server] += problem.demand[device, server]
    vector[device] = server


def _swap_delta(problem: AssignmentProblem, vector, loads, a: int, b: int):
    """Objective delta and feasibility of exchanging devices ``a`` and ``b``."""
    sa, sb = int(vector[a]), int(vector[b])
    if sa == sb:
        return None
    load_a = loads[sa] - problem.demand[a, sa] + problem.demand[b, sa]
    load_b = loads[sb] - problem.demand[b, sb] + problem.demand[a, sb]
    if load_a > problem.capacity[sa] + 1e-12 or load_b > problem.capacity[sb] + 1e-12:
        return None
    delay = problem.delay
    return delay[a, sb] + delay[b, sa] - delay[a, sa] - delay[b, sb]


def _apply_swap(problem: AssignmentProblem, vector, loads, a: int, b: int) -> None:
    sa, sb = int(vector[a]), int(vector[b])
    loads[sa] += problem.demand[b, sa] - problem.demand[a, sa]
    loads[sb] += problem.demand[a, sb] - problem.demand[b, sb]
    vector[a], vector[b] = sb, sa


#: entries per row block of the swap matrix (bounds kernel memory)
_BLOCK_ENTRIES = 1 << 20


def shift_deltas(problem: AssignmentProblem, vector, loads) -> np.ndarray:
    """n×m shift deltas; ``+inf`` where infeasible or already there."""
    rows = np.arange(vector.size)
    current = np.where(vector >= 0, vector, 0)
    deltas = problem.delay - problem.delay[rows, current][:, None]
    deltas[loads + problem.demand > problem.capacity + 1e-12] = np.inf
    deltas[rows, current] = np.inf
    deltas[vector < 0] = np.inf
    return deltas


def _swap_blocks(problem: AssignmentProblem, vector, loads):
    """Yield ``("swap", first_row, block)`` row blocks of the swap matrix."""
    n = vector.size
    rows = np.arange(n)
    assigned = vector >= 0
    server = np.where(assigned, vector, 0)
    own_delay = problem.delay[rows, server]
    spare = loads[server] - problem.demand[rows, server]
    room = problem.capacity[server] + 1e-12
    step = max(1, _BLOCK_ENTRIES // n)
    for start in range(0, n, step):
        a = slice(start, start + step)  # block rows are devices a, columns b
        sa = server[a]
        deltas = (
            problem.delay[a][:, server] + problem.delay[:, sa].T
        ) - own_delay[a, None] - own_delay
        deltas[
            (spare[a, None] + problem.demand[:, sa].T > room[a, None])
            | (spare + problem.demand[a][:, server] > room)
            | (sa[:, None] == server)
            | (rows <= rows[a, None])
            | ~(assigned[a, None] & assigned)
        ] = np.inf
        yield "swap", start, deltas


def swap_deltas(problem: AssignmentProblem, vector, loads) -> np.ndarray:
    """Upper-triangular n×n swap deltas; ``+inf`` elsewhere and where infeasible."""
    return np.concatenate([block for *_, block in _swap_blocks(problem, vector, loads)])


def best_move(problem: AssignmentProblem, vector, loads, use_swaps: bool = True):
    """``(kind, x, y, delta)`` of the best move beating ``-1e-15``, or None."""
    best, move = -1e-15, None
    blocks = [("shift", 0, shift_deltas(problem, vector, loads))]
    if use_swaps:
        blocks = chain(blocks, _swap_blocks(problem, vector, loads))
    for kind, start, deltas in blocks:
        flat = int(np.argmin(deltas))  # the first row-major minimum
        if deltas.flat[flat] < best:
            best = deltas.flat[flat]
            move = (kind, start + flat // deltas.shape[1], flat % deltas.shape[1], best)
    return move


def descend(
    problem: AssignmentProblem, vector, loads, max_passes: int, use_swaps: bool = True
) -> int:
    """Apply up to ``max_passes`` best moves in place; returns how many.

    Unassigned devices are never moved and carry no load.
    """
    for moves in range(max_passes):
        move = best_move(problem, vector, loads, use_swaps)
        if move is None:
            return moves
        kind, x, y, _ = move
        (_apply_shift if kind == "shift" else _apply_swap)(problem, vector, loads, x, y)
    return max_passes


class LocalSearchSolver(Solver):
    """Best-improvement hill climbing over shift (and optionally swap) moves.

    Starts from the greedy-feasible solution (or a random feasible one
    with ``start="random"``) and repeats full passes until no move
    improves or ``max_passes`` is reached.
    """

    name = "local_search"

    def __init__(
        self,
        start: str = "greedy",
        use_swaps: bool = True,
        max_passes: int = 200,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        require(start in ("greedy", "random"), f"unknown start {start!r}")
        require(max_passes >= 1, "max_passes must be >= 1")
        self.start = start
        self.use_swaps = use_swaps
        self.max_passes = max_passes

    def _initial(self, problem: AssignmentProblem, rng) -> Assignment:
        if self.start == "random":
            return random_feasible_assignment(problem, rng)
        return feasible_start(problem, rng)

    def _solve(self, problem: AssignmentProblem, rng) -> tuple[Assignment, dict]:
        with self.phase("construct"):
            assignment = self._initial(problem, rng)
        if not assignment.is_complete:
            return assignment, {"iterations": 0}
        vector = assignment.vector
        with self.phase("descend"):
            moves = descend(
                problem, vector, assignment.loads(), self.max_passes, self.use_swaps
            )
        passes = min(moves + 1, self.max_passes)
        return Assignment(problem, vector), {"iterations": moves, "passes": passes}


class TabuSearchSolver(Solver):
    """Tabu search over the shift neighbourhood.

    After each move, reverting that device to its previous server is
    tabu for ``tenure`` iterations unless it would beat the best
    solution seen (aspiration).  Runs a fixed ``max_iters`` and returns
    the best feasible assignment encountered.
    """

    name = "tabu"

    def __init__(self, max_iters: int = 500, tenure: int = 15, **kwargs) -> None:
        super().__init__(**kwargs)
        require(max_iters >= 1, "max_iters must be >= 1")
        require(tenure >= 1, "tenure must be >= 1")
        self.max_iters = max_iters
        self.tenure = tenure

    def _solve(self, problem: AssignmentProblem, rng) -> tuple[Assignment, dict]:
        with self.phase("construct"):
            assignment = feasible_start(problem, rng)
        if not assignment.is_complete:
            return assignment, {"iterations": 0}
        vector = assignment.vector
        loads = assignment.loads()
        n, m = problem.n_devices, problem.n_servers
        cost = float(np.sum(problem.delay[np.arange(n), vector]))
        best_cost = cost
        best_vector = vector.copy()
        tabu: deque[tuple[int, int]] = deque()
        tabu_set: set[tuple[int, int]] = set()
        iterations = 0
        with self.phase("search"):
            for _ in range(self.max_iters):
                iterations += 1
                deltas = shift_deltas(problem, vector, loads)
                for device, server in tabu_set:
                    if not cost + deltas[device, server] < best_cost - 1e-15:
                        deltas[device, server] = np.inf  # tabu and not aspiring
                flat = int(np.argmin(deltas))
                best_delta = deltas.flat[flat]
                if best_delta == np.inf:
                    break  # every move tabu and non-aspiring: stagnated
                device, server = divmod(flat, m)
                previous = int(vector[device])
                _apply_shift(problem, vector, loads, device, server)
                cost += best_delta
                tabu.append((device, previous))
                tabu_set.add((device, previous))
                while len(tabu) > self.tenure:
                    tabu_set.discard(tabu.popleft())
                if cost < best_cost - 1e-15:
                    best_cost = cost
                    best_vector = vector.copy()
        return Assignment(problem, best_vector), {"iterations": iterations}
