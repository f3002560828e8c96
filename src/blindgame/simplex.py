"""One in-house primal simplex used by every LP in the package.

Everything the solvers need (matrix games, the two Hamiltonians, the
cutting-plane master) is an instance of a single concave problem:

    maximize  sum_j  w_j * min_r (C_j q)_r    over q in the K-simplex,

for positive weights w_j and per-group constraint matrices C_j of shape
(R_j, K).  The LP reformulation introduces one shifted level variable per
group and one slack per constraint row; the shift makes the all-slack basis
feasible after pivoting q_0 into the simplex row, so no phase-1 is needed.

Pivoting.  The entering variable has the most negative reduced cost
below -PIVOT_TOL (Dantzig's rule; ties go to the smallest index).  The
leaving row comes from the lexicographic ratio test of Dantzig, Orden and
Wolfe (1955): rows tied at the minimum ratio are told apart by their
entries in the columns of the starting basis, each divided by the pivot
element and compared in order within PIVOT_TOL.  This rule alone
guarantees termination, whatever column enters: every pivot strictly
increases the objective row read lexicographically, so no basis is
visited twice and the simplex stops after finitely many pivots in exact
arithmetic.  Entering by the steepest reduced cost rather than by the
smallest index (Bland) takes far fewer pivots on the cutting-plane
masters.  Bland's own leaving rule (smallest basic index among ties)
would not do: its guarantee needs Bland's entering rule too, and in
floating point the tableau drifts, ties within PIVOT_TOL come and go, and
it can return to an earlier basis and cycle.  So, in floating point:

* a pivot element must exceed PIVOT_TOL times the largest entry of its
  column (and PIVOT_TOL itself); smaller entries are rounding noise, and a
  pivot on one gives a numerically singular basis;
* drifted negative right-hand sides count as 0 in the ratio test;
* the tableau is rebuilt from the original columns of the basis every
  REFRESH_PIVOTS pivots, and the reduced costs are computed afresh from
  the original data before optimality is declared;
* at most MAX_PIVOTS pivots are made (read at call time).

Certificate.  Reported objective values are recomputed from the primal
point, not read off the tableau, so exact inputs give exact values.  Duals
of the coupling rows are returned as well (for a single group they are the
minimizing player's optimal mix), and every answer is checked against them
before it is returned: by weak duality, max_k (sum_j lam_j' C_j)_k bounds
the objective from above, and that bound must meet the primal value within
DUALITY_TOL, else ``SolverFailure`` is raised.  A wrong value is never
returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SolverFailure

PIVOT_TOL = 1e-10
#: Largest accepted gap between the dual bound and the primal value.
DUALITY_TOL = 1e-9
#: Pivot cap of one LP solve.
MAX_PIVOTS = 50_000
#: Pivots between two rebuilds of the tableau from the original columns.
REFRESH_PIVOTS = 50


@dataclass(frozen=True, eq=False)
class MinmaxSolution:
    """Certified optimal point of the weighted min-max problem.

    Attributes
    ----------
    value : the recomputed objective sum_j w_j min_r (C_j q)_r.
    q : optimal point of the K-simplex.
    row_duals : per group, nonnegative multipliers over that group's rows
        summing to w_j (a scaled optimal mix of the inner minimizer).
    iterations : simplex pivots performed.
    certified_gap : the dual upper bound minus ``value``, at most
        DUALITY_TOL.
    """

    value: float
    q: np.ndarray
    row_duals: tuple[np.ndarray, ...]
    iterations: int
    certified_gap: float


def max_weighted_min(
    weights: Sequence[float],
    groups: Sequence[np.ndarray],
) -> MinmaxSolution:
    """Maximize sum_j w_j min_r (C_j q)_r over the simplex.

    Raises ``SolverFailure`` when the simplex hits MAX_PIVOTS or when its
    answer fails the duality certificate.
    """
    w = np.asarray(weights, dtype=float).reshape(-1)
    mats = [np.atleast_2d(np.asarray(c, dtype=float)) for c in groups]
    if w.shape[0] != len(mats) or w.shape[0] == 0:
        raise ValueError("need one weight per group, at least one group")
    if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
        raise ValueError("group weights must be positive and finite")
    K = mats[0].shape[1]
    for c in mats:
        if c.shape[1] != K or c.shape[0] < 1:
            raise ValueError("all groups must have K columns and >= 1 row")
        if not np.all(np.isfinite(c)):
            raise ValueError("group matrices must be finite")
    J = len(mats)
    rows_per = [c.shape[0] for c in mats]
    r_tot = sum(rows_per)
    group_of_row = np.repeat(np.arange(J), rows_per)
    shifts = np.array([np.max(np.abs(c)) + 1.0 for c in mats])

    # Standard form min c.x, A x = b, x >= 0 with variable order
    # [q_0..q_{K-1}, t_0..t_{J-1}, s_0..s_{r_tot-1}] where t_j is the
    # group level shifted up by shifts[j].
    m = 1 + r_tot
    n = K + J + r_tot
    a_mat = np.zeros((m, n))
    a_mat[0, :K] = 1.0
    a_mat[1:, :K] = -np.vstack(mats)
    a_mat[np.arange(1, m), K + group_of_row] = 1.0
    a_mat[1:, K + J:] = np.eye(r_tot)
    b = np.concatenate([[1.0], shifts[group_of_row]])
    cost = np.zeros(n)
    cost[K:K + J] = -w

    basis, iters, x_basic, y = _primal_simplex(a_mat, b, cost)

    x = np.zeros(n)
    x[basis] = x_basic
    q = np.clip(x[:K], 0.0, None)
    total = float(np.sum(q))
    if not np.isfinite(total) or abs(total - 1.0) > 1e-6:
        raise SolverFailure("simplex returned a defective primal point", iters)
    q = q / total

    minima = np.array([float(np.min(c @ q)) for c in mats])
    value = float(np.dot(w, minima))

    duals: list[np.ndarray] = []
    scores = np.zeros(K)
    row = 1
    for j, c in enumerate(mats):
        lam = np.clip(-y[row:row + c.shape[0]], 0.0, None)
        s = float(np.sum(lam))
        if not s > 0.0:
            raise SolverFailure(f"LP duals of group {j} are all zero", iters)
        lam = lam * (w[j] / s)
        duals.append(lam)
        scores += lam @ c
        row += c.shape[0]
    # Weak duality: sum_j w_j min_r (C_j q)_r <= (sum_j lam_j' C_j) q for
    # every q in the simplex, since each lam_j >= 0 sums to w_j.
    gap = float(np.max(scores)) - value
    if not gap <= DUALITY_TOL:
        raise SolverFailure(
            f"LP certificate gap {gap:.3e} exceeds {DUALITY_TOL} "
            f"on a {m} x {n} LP",
            iters,
        )
    return MinmaxSolution(value, q, tuple(duals), iters, gap)


def _solve_basis(
    a_mat: np.ndarray,
    basis: list[int],
    rhs: np.ndarray,
    transpose: bool = False,
) -> np.ndarray:
    """Solve B x = rhs (or B' x = rhs) for the basis columns of a_mat."""
    bmat = a_mat[:, basis]
    try:
        return np.linalg.solve(bmat.T if transpose else bmat, rhs)
    except np.linalg.LinAlgError:
        m, n = a_mat.shape
        raise SolverFailure(f"singular basis on a {m} x {n} LP") from None


def _fresh_tableau(
    a_mat: np.ndarray, b: np.ndarray, cost: np.ndarray, basis: list[int]
) -> np.ndarray:
    """Tableau [B^-1 A | B^-1 b] of ``basis`` with its reduced-cost row
    appended, computed from the original columns rather than by updates."""
    rows = _solve_basis(a_mat, basis, np.column_stack([a_mat, b]))
    rows[:, basis] = np.eye(len(basis))
    obj = np.append(cost, 0.0) - cost[basis] @ rows
    obj[basis] = 0.0
    return np.vstack([rows, obj])


def _primal_simplex(
    a_mat: np.ndarray, b: np.ndarray, cost: np.ndarray
) -> tuple[list[int], int, np.ndarray, np.ndarray]:
    """Simplex with the most-negative entering rule and the lexicographic
    leaving rule; the starting basis is q_0 (simplex row) plus the slack
    columns, which is feasible by construction.

    Returns the optimal basis (column index per row), the pivot count, and
    the basic values and row duals solved afresh for that basis.
    """
    m, n = a_mat.shape
    # Start with q_0 basic in row 0 and the slacks elsewhere: eliminating
    # q_0 from the coupling rows gives the canonical form (b stays >= 0
    # because the group shifts dominate every |C| entry).  The tableau
    # columns of this starting basis are B^-1 B_0, the lexicographic keys.
    # The last tableau row holds the reduced costs.
    start = np.array([0, *range(n - (m - 1), n)])
    basis = start.tolist()
    tableau = np.zeros((m + 1, n + 1))
    tableau[:m, :n] = a_mat
    tableau[:m, n] = b
    tableau[m, :n] = cost
    tableau[1:m] -= np.outer(tableau[1:m, 0], tableau[0])
    obj = tableau[m, :n]
    cap = MAX_PIVOTS
    since_refresh = 0
    pivots = 0
    while True:
        enter = int(obj.argmin())  # most negative; ties to the first
        if not obj[enter] < -PIVOT_TOL:
            # Basic values and row duals afresh from the original columns;
            # the duals re-price every column before optimality is declared.
            x_basic = _solve_basis(a_mat, basis, b)
            y = _solve_basis(a_mat, basis, cost[basis], transpose=True)
            if since_refresh == 0 or (cost - y @ a_mat).min() >= -PIVOT_TOL:
                return basis, pivots, x_basic, y
            tableau = _fresh_tableau(a_mat, b, cost, basis)
            obj = tableau[m, :n]
            since_refresh = 0
            continue
        if pivots == cap:
            raise SolverFailure(
                f"simplex hit the iteration cap: {pivots} pivots "
                f"on a {m} x {n} LP",
                pivots,
            )
        col = tableau[:m, enter]
        rows = (col > PIVOT_TOL * max(1.0, np.abs(col).max())).nonzero()[0]
        if rows.size == 0:
            raise SolverFailure(f"LP is unbounded on a {m} x {n} LP", pivots)
        ratios = np.maximum(tableau[rows, -1], 0.0) / col[rows]
        rows = rows[ratios <= ratios.min() + PIVOT_TOL]
        best = 0
        if rows.size > 1:
            keys = tableau[rows[:, None], start] / col[rows, None]
            for i in range(1, rows.size):
                # the first key column on which row i and the best differ
                diff = keys[i] - keys[best]
                far = np.abs(diff) > PIVOT_TOL
                k = far.argmax()
                if far[k] and diff[k] < 0.0:
                    best = i
        leave = int(rows[best])
        pivot_row = tableau[leave] / tableau[leave, enter]
        tableau -= np.outer(tableau[:, enter], pivot_row)
        tableau[leave] = pivot_row
        basis[leave] = enter
        pivots += 1
        since_refresh += 1
        if since_refresh == REFRESH_PIVOTS:
            tableau = _fresh_tableau(a_mat, b, cost, basis)
            obj = tableau[m, :n]
            since_refresh = 0
