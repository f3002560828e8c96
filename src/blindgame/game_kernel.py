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

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .dynamics import ControlProblem, _rowdot, as_grid
from .errors import SolverFailure
from .measures import ParticleMeasure
from .simplex import DUALITY_TOL, max_weighted_min
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
    iterations: int
    certified_gap: float


def solve_matrix_game(game: MatrixGame) -> MatrixGameSolution:
    """Value and certified optimal mixes of a zero-sum matrix game.

    One LP is solved in whichever orientation has fewer coupling rows; the
    other player's mix is recovered from the duals.  The returned mixes are
    checked to certify the value within DUALITY_TOL.
    """
    a = game.payoff
    m, k = a.shape
    if m <= k:
        sol = max_weighted_min([1.0], [a])
        col_mix = sol.q
        row_mix = sol.row_duals[0]
        value = sol.value
    else:
        sol = max_weighted_min([1.0], [-a.T])
        row_mix = sol.q
        col_mix = sol.row_duals[0]
        value = -sol.value
    row_mix = _clean_mix(row_mix)
    col_mix = _clean_mix(col_mix)
    worst_row = float(np.max(row_mix @ a))  # row player's guaranteed cap
    worst_col = float(np.min(a @ col_mix))  # column player's guaranteed floor
    gap = worst_row - worst_col
    if gap > DUALITY_TOL:
        raise SolverFailure(
            f"matrix-game certificate gap {gap:.3e} exceeds {DUALITY_TOL}",
            sol.iterations,
        )
    return MatrixGameSolution(value, row_mix, col_mix, sol.iterations, gap)


def _clean_mix(p: np.ndarray) -> np.ndarray:
    p = np.clip(np.asarray(p, dtype=float), 0.0, None)
    total = float(np.sum(p))
    if total <= 0.0:
        raise SolverFailure("degenerate mix returned by LP", 0)
    return p / total


@dataclass(frozen=True, eq=False)
class HamiltonianQuery:
    """A base measure, a displacement field on it, and the game data."""

    base: ParticleMeasure
    field: ProjectionField
    problem: ControlProblem

    def __post_init__(self):
        if self.base.dim != self.problem.dim:
            raise ValueError("measure and problem dimensions differ")
        if not (
            np.array_equal(self.field.base.points, self.base.points)
            and np.array_equal(self.field.base.weights, self.base.weights)
        ):
            raise ValueError("field is not based on the query measure")

    @cached_property
    def pairing(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """``_pairing_tables`` of this query, built on first use."""
        return _pairing_tables(self)


def _pairing_tables(q: HamiltonianQuery) -> tuple[np.ndarray, list[np.ndarray]]:
    """Per positive-weight atom, the (n_u, n_v) table <f(y,u,v), p(y)>.

    ``f`` is called once on every (atom, u, v) row, u-major as in
    ``gamma_n``, so it must act on the last axis.
    """
    prob = q.problem
    keep = q.base.weights > 0.0
    weights = q.base.weights[keep]
    pts, vecs = q.base.points[keep], q.field.vectors[keep]
    branch = prob.n_u * prob.n_v
    x = np.repeat(pts, branch, axis=0)
    u = np.tile(np.repeat(prob.u_grid, prob.n_v, axis=0), (len(pts), 1))
    v = np.tile(prob.v_grid, (len(pts) * prob.n_u, 1))
    fx = np.asarray(prob.f(x, u, v), dtype=float)
    if fx.shape != x.shape:
        raise ValueError(
            f"f returned shape {fx.shape} for a batch of shape "
            f"{x.shape}; f must act on the last axis"
        )
    c = _rowdot(fx, np.repeat(vecs, branch, axis=0))
    return weights, list(c.reshape(len(pts), prob.n_u, prob.n_v))


def eval_H(q: HamiltonianQuery) -> float:
    """Hamiltonian on the full v-grid.

    The inner infimum over u-mixes is attained at pure u by linearity, so
    the LP maximizes sum_j w_j z_j subject to z_j <= (C_j vmix)_u for every
    pure u, with vmix in the v-simplex.
    """
    weights, tables = q.pairing
    if len(tables) == 0:
        return 0.0
    return max_weighted_min(weights, tables).value


def eval_Hn(q: HamiltonianQuery, coarse_v_indices: Sequence[int]) -> float:
    """Hamiltonian restricted to a coarse subset of the v-grid."""
    idx = [int(i) for i in coarse_v_indices]
    if len(idx) == 0:
        raise ValueError("coarse v-grid must be nonempty")
    if len(set(idx)) != len(idx):
        raise ValueError("coarse v-grid indices must be distinct")
    if any(i < 0 or i >= q.problem.n_v for i in idx):
        raise ValueError("coarse v-grid index out of range")
    weights, tables = q.pairing
    if len(tables) == 0:
        return 0.0
    restricted = [c[:, idx] for c in tables]
    return max_weighted_min(weights, restricted).value


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
    fine_v,
    coarse_v,
    sample_points: Sequence,
) -> float:
    """Sampled sup of |f(x,u,v) - f(x,u,v')| with v' the nearest coarse v.

    An empirical stand-in for the coarsening modulus of the dynamics: the
    sup over all states is not computable, so it is taken over the supplied
    sample points (callers should include at least the atoms the
    Hamiltonians are evaluated on).  ``f`` is called on batches of
    (sample, u, fine v) rows, so it must act on the last axis.
    """
    pts = [np.asarray(x, dtype=float).reshape(-1) for x in sample_points]
    if len(pts) == 0:
        raise ValueError("sample_points must be nonempty")
    fine = as_grid(fine_v)
    coarse = as_grid(coarse_v)
    pairing = nearest_coarse(fine, coarse)
    # The (u, fine v) rows of one sample, u-major, and their paired v rows.
    u_rows = np.repeat(problem.u_grid, len(fine), axis=0)
    v_rows = [np.tile(v, (problem.n_u, 1)) for v in (fine, coarse[pairing])]
    step = max(1, GAMMA_BATCH_ROWS // len(u_rows))
    worst = 0.0
    for start in range(0, len(pts), step):
        chunk = np.array(pts[start : start + step])
        x = np.repeat(chunk, len(u_rows), axis=0)
        u = np.tile(u_rows, (len(chunk), 1))
        f_fine, f_coarse = (
            np.asarray(problem.f(x, u, np.tile(v, (len(chunk), 1))), dtype=float)
            for v in v_rows
        )
        diff = f_fine - f_coarse
        if diff.shape != x.shape:
            raise ValueError(
                f"f returned shape {diff.shape} for a batch of shape "
                f"{x.shape}; f must act on the last axis"
            )
        # Equal to each row's 1-d norm bit for bit (``norm(axis=1)`` is not);
        # NaN rows never count.
        norms = np.sqrt(_rowdot(diff, diff))
        top = np.max(norms, initial=0.0, where=~np.isnan(norms))
        worst = max(worst, float(top))
    return worst
