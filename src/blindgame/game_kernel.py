"""Zero-sum matrix games and the control-grid Hamiltonians.

``solve_matrix_game`` certifies both players' optimal mixes for a finite
matrix game (row player minimizes).  ``eval_H`` and ``eval_Hn`` compute

    sup over mixes of v   of   integral over atoms y of
        inf over u   of   <f(y, u, v-mix), p(y)>

as one LP over the v-simplex, on the full v-grid and on a coarse subset
respectively.  ``gamma_n`` is the sampled modulus that bounds how much the
dynamics move when v is snapped to the coarse grid; it controls the gap
between the two Hamiltonians.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .dynamics import (
    ControlProblem, _rowdot, as_grid, checked_f, control_pairs
)
from .simplex import max_weighted_min
from .transport import ProjectionField

#: Rows per batched call of ``f`` in ``gamma_n``; bounds its temporaries.
GAMMA_BATCH_ROWS = 4096


@dataclass(frozen=True, eq=False)
class MatrixGame:
    """Finite zero-sum game; the row player minimizes x' A y."""

    payoff: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.payoff, dtype=float))
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError("payoff must be a nonempty matrix")
        if not np.all(np.isfinite(a)):
            raise ValueError("payoff entries must be finite")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "payoff", a)


@dataclass(frozen=True, eq=False)
class MatrixGameSolution:
    value: float
    row_mix: np.ndarray
    col_mix: np.ndarray
    certified_gap: float


def solve_matrix_game(game: MatrixGame) -> MatrixGameSolution:
    """Value and certified optimal mixes of a zero-sum matrix game.

    One LP is solved in whichever orientation has fewer coupling rows: the
    LP's point is the mix of the player with more pure strategies, its
    group's row duals the other player's.  Both are returned as the LP
    certified them, so ``certified_gap`` is the weak-duality gap of these
    very vectors, at most DUALITY_TOL.
    """
    a = game.payoff
    if a.shape[0] <= a.shape[1]:
        sol = max_weighted_min([1.0], [a])
        return MatrixGameSolution(
            sol.value, sol.row_duals[0], sol.q, sol.certified_gap
        )
    sol = max_weighted_min([1.0], [-a.T])
    return MatrixGameSolution(
        -sol.value, sol.q, sol.row_duals[0], sol.certified_gap
    )


@dataclass(frozen=True, eq=False)
class HamiltonianQuery:
    """A displacement field on its base measure, and the game data."""

    field: ProjectionField
    problem: ControlProblem

    def __post_init__(self):
        if self.field.base.dim != self.problem.dim:
            raise ValueError("measure and problem dimensions differ")

    @cached_property
    def pairing(self) -> tuple[np.ndarray, np.ndarray]:
        """``_pairing_tables`` of this query, built on first use."""
        return _pairing_tables(self)

    @cached_property
    def lp_values(self) -> dict[tuple[int, ...], float]:
        """``eval_Hn``'s LP value per ordered tuple of coarse v-indices,
        filled on first use; it lives and dies with this query."""
        return {}


def _pairing_tables(q: HamiltonianQuery) -> tuple[np.ndarray, np.ndarray]:
    """The positive-weight atoms' weights, and their tables <f(y,u,v), p(y)>
    as one read-only array of shape (atoms, n_u, n_v).

    ``f`` is called once on every (atom, u, v) row of ``control_pairs``,
    so it must act on the last axis.  The weights are a probability
    vector, so at least one atom is kept.
    """
    prob, base = q.problem, q.field.base
    keep = base.weights > 0.0
    weights = base.weights[keep]
    pts, vecs = base.points[keep], q.field.vectors[keep]
    x, iu, iv = control_pairs(prob, pts)
    fx = checked_f(prob, x, prob.u_grid[iu], prob.v_grid[iv])
    c = _rowdot(fx, np.repeat(vecs, prob.n_u * prob.n_v, axis=0))
    tables = c.reshape(len(pts), prob.n_u, prob.n_v)
    tables.setflags(write=False)
    return weights, tables


def _coarse_indices(
    problem: ControlProblem, coarse_v_indices: Sequence[int]
) -> list[int]:
    """The coarse v-grid as a list of distinct indices into ``v_grid``;
    each must be an integer (numpy integers too), never a rounded float."""
    try:
        idx = [operator.index(i) for i in coarse_v_indices]
    except TypeError:
        raise ValueError("coarse v-grid indices must be integers") from None
    if len(idx) == 0:
        raise ValueError("coarse v-grid must be nonempty")
    if len(set(idx)) != len(idx):
        raise ValueError("coarse v-grid indices must be distinct")
    if any(i < 0 or i >= problem.n_v for i in idx):
        raise ValueError("coarse v-grid index out of range")
    return idx


def eval_H(q: HamiltonianQuery) -> float:
    """Hamiltonian on the full v-grid: ``eval_Hn`` on every v index."""
    return eval_Hn(q, range(q.problem.n_v))


def eval_Hn(q: HamiltonianQuery, coarse_v_indices: Sequence[int]) -> float:
    """Hamiltonian restricted to a coarse subset of the v-grid.

    The inner infimum over u-mixes is attained at pure u by linearity, so
    the LP maximizes sum_j w_j z_j subject to z_j <= (C_j vmix)_u for every
    pure u, with vmix in the simplex over the coarse v points.  Each
    ordered index set is solved once per query and its value kept in
    ``q.lp_values``, so ``eval_H`` and a coarse set that keeps every
    v-point in index order share one LP.
    """
    key = tuple(_coarse_indices(q.problem, coarse_v_indices))
    memo = q.lp_values
    if key not in memo:
        weights, tables = q.pairing
        memo[key] = max_weighted_min(weights, tables[:, :, list(key)]).value
    return memo[key]


def nearest_coarse(fine_v: np.ndarray, coarse_v: np.ndarray) -> np.ndarray:
    """Index of the closest coarse point for each fine point (first wins)."""
    fine = as_grid(fine_v)
    coarse = as_grid(coarse_v)
    if fine.shape[1] != coarse.shape[1]:
        raise ValueError("fine and coarse grids have different point dims")
    dists = np.linalg.norm(fine[:, None, :] - coarse[None, :, :], axis=2)
    return np.argmin(dists, axis=1)


def gamma_n(
    problem: ControlProblem,
    coarse_v_indices: Sequence[int],
    sample_points: np.ndarray | Sequence,
) -> float:
    """Sampled sup of |f(x,u,v) - f(x,u,v')| with v' the nearest point of
    the coarse v-grid, given as indices into ``v_grid`` as to ``eval_Hn``.

    An empirical stand-in for the coarsening modulus of the dynamics: the
    sup over all states is not computable, so it is taken over the supplied
    sample points, an (N, d) array or a sequence of N points (callers
    should include at least the atoms the Hamiltonians are evaluated on).
    A v that snaps to itself adds exactly 0, so ``f`` is called only on
    the (sample, u, v) rows whose v moves, in batches, and must act on the
    last axis; when the coarse grid keeps every v-point, 0.0 is returned
    without calling ``f``.
    """
    pts = np.asarray(sample_points, dtype=float)
    if pts.size == 0:
        raise ValueError("sample_points must be nonempty")
    if pts.ndim == 1 and problem.dim == 1:
        pts = pts[:, None]  # a flat list of 1-d points
    pts = np.atleast_2d(pts)
    if pts.ndim != 2 or pts.shape[1] != problem.dim:
        raise ValueError(
            f"sample_points must be points of dimension {problem.dim}"
        )
    fine = problem.v_grid
    idx = _coarse_indices(problem, coarse_v_indices)
    snap = np.array(idx)[nearest_coarse(fine, fine[idx])]
    moved = snap != np.arange(problem.n_v)
    if not moved.any():
        return 0.0
    step = max(1, GAMMA_BATCH_ROWS // (problem.n_u * problem.n_v))
    worst = 0.0
    for start in range(0, len(pts), step):
        x, iu, iv = control_pairs(problem, pts[start : start + step])
        rows = moved[iv]
        x, iv = x[rows], iv[rows]
        u = problem.u_grid[iu[rows]]
        f_fine = checked_f(problem, x, u, fine[iv])
        diff = f_fine - checked_f(problem, x, u, fine[snap[iv]])
        # Equal to each row's 1-d norm bit for bit (``norm(axis=1)`` is not);
        # NaN rows never count.
        norms = np.sqrt(_rowdot(diff, diff))
        top = np.max(norms, initial=0.0, where=~np.isnan(norms))
        worst = max(worst, float(top))
    return worst
