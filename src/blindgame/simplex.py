"""One in-house simplex used by every LP in the package.

Everything the solvers need (matrix games, the two Hamiltonians, the
cutting-plane master) is an instance of a single concave problem:

    maximize  sum_j  w_j * min_r (C_j q)_r    over q in the K-simplex,

for positive weights w_j and per-group constraint matrices C_j of shape
(R_j, K).  The LP reformulation introduces one shifted level variable per
group and one slack per constraint row.

Cold and warm starts.  A cold solve starts from a crash basis (Bixby
1992): q_0 in the simplex row, each group's level basic in the group's
lead row, and the slacks elsewhere.  Once q_0 is eliminated the shift
keeps every right-hand side positive; the lead row is the one of least
right-hand side in its group, ties to the last row (the row the
lexicographic test below picks from q_0 and the slacks).  Making every
level basic at once subtracts each lead row from the other rows of its
group, so every right-hand side stays >= 0 exactly and no phase-1 is
needed.  It is the basis Dantzig's rule reaches after its J level pivots
when no q column enters in between, and its columns are the identity in
the tableau, so they serve as the primal phase's lexicographic keys.

A warm solve starts from an earlier solution of the same groups, such as
the previous cutting-plane master, with its basis mapped into the LP of
the grown groups and the new rows' slacks basic: new rows leave the old
row duals as they were, so that basis is dual feasible but may be primal
infeasible.  From it, one tableau is built from the original columns,
and the dual simplex of Lemke (1954) pivots it until every basic value
is at least -PIVOT_TOL.  The leaving row has the most negative basic
value (ties to the first row); the entering column has, among the row's
entries below -PIVOT_TOL times its largest |entry| (and -PIVOT_TOL
itself), the least ratio max(reduced cost, 0) / -entry (ties to the
smallest column).  The primal simplex then goes on from the same
tableau, with the basis it starts from as its lexicographic keys, to
mend any reduced cost that drifted below -PIVOT_TOL.  Both phases share
the pivot step, the refresh, the pivot cap and the certificate.  The
dual phase has no anti-cycling rule of its own: the cap and the fallback
bound it.  When the given basis is singular or not dual feasible within
PIVOT_TOL, or the warm solve raises ``SolverFailure`` for any reason,
the same LP is solved cold once, and only the cold solve's error is
raised.

Primal pivoting.  The entering variable has the most negative reduced
cost below -PIVOT_TOL (Dantzig's rule; ties go to the smallest index).
The leaving row comes from the lexicographic ratio test of Dantzig, Orden
and Wolfe (1955): rows tied at the minimum ratio are told apart by their
entries in the columns of the primal phase's starting basis, each divided
by the pivot element and compared in order within PIVOT_TOL.  This rule alone
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

import operator
from dataclasses import dataclass, replace
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
    iterations : simplex pivots performed, a failed warm start's included.
    certified_gap : the dual upper bound minus ``value``, at most
        DUALITY_TOL.
    basis : the final basis, one LP column per LP row.  It is read only
        when the solution is handed back to ``max_weighted_min`` as the
        ``start`` of the same groups with rows appended.
    """

    value: float
    q: np.ndarray
    row_duals: tuple[np.ndarray, ...]
    iterations: int
    certified_gap: float
    basis: tuple[int, ...]


def max_weighted_min(
    weights: Sequence[float],
    groups: Sequence[np.ndarray],
    start: MinmaxSolution | None = None,
) -> MinmaxSolution:
    """Maximize sum_j w_j min_r (C_j q)_r over the simplex.

    ``start`` is an optional earlier solution of the same groups before
    rows were appended to them.  The solve runs the dual simplex from its
    basis, mapped into this LP, and solves the same LP cold once when that
    basis is singular or not dual feasible within PIVOT_TOL, or when the
    warm solve raises ``SolverFailure``.

    Raises ``ValueError`` on a ``start`` that does not fit (another group
    count or K, fewer rows in a group, or a basis that is not one of the
    start's own LP), and ``SolverFailure`` when the cold simplex hits
    MAX_PIVOTS or when its answer fails the duality certificate.
    """
    w = np.asarray(weights, dtype=float).reshape(-1)
    mats = [np.atleast_2d(np.asarray(c, dtype=float)) for c in groups]
    if w.shape[0] != len(mats) or w.shape[0] == 0:
        raise ValueError("need one weight per group, at least one group")
    if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
        raise ValueError("group weights must be positive and finite")
    K = mats[0].shape[1]
    if any(c.shape[1] != K or c.shape[0] < 1 for c in mats):
        raise ValueError("all groups must have K columns and >= 1 row")
    stacked = np.vstack(mats)
    if not np.all(np.isfinite(stacked)):
        raise ValueError("group matrices must be finite")
    J = len(mats)
    rows_per = [c.shape[0] for c in mats]
    r_tot = stacked.shape[0]
    starts = np.cumsum([0, *rows_per[:-1]])
    group_of_row = np.repeat(np.arange(J), rows_per)
    shifts = np.maximum.reduceat(np.abs(stacked).max(axis=1), starts) + 1.0

    # Standard form min c.x, A x = b, x >= 0 with variable order
    # [q_0..q_{K-1}, t_0..t_{J-1}, s_0..s_{r_tot-1}] where t_j is the
    # group level shifted up by shifts[j].
    m = 1 + r_tot
    n = K + J + r_tot
    a_mat = np.zeros((m, n))
    a_mat[0, :K] = 1.0
    a_mat[1:, :K] = -stacked
    a_mat[np.arange(1, m), K + group_of_row] = 1.0
    a_mat[1:, K + J:] = np.eye(r_tot)
    b = np.concatenate([[1.0], shifts[group_of_row]])
    cost = np.zeros(n)
    cost[K:K + J] = -w

    warm_pivots = 0
    if start is not None:
        basis = _grown_basis(start, rows_per, K)
        try:
            return _certified(w, stacked, rows_per, starts, *_dual_simplex(
                a_mat, b, cost, basis
            ))
        except SolverFailure as exc:
            warm_pivots = exc.iterations
    sol = _certified(
        w, stacked, rows_per, starts, *_primal_simplex(a_mat, b, cost)
    )
    if warm_pivots:
        sol = replace(sol, iterations=sol.iterations + warm_pivots)
    return sol


def _grown_basis(
    start: MinmaxSolution, rows_per: list[int], K: int
) -> list[int]:
    """``start.basis``, checked against the start's own LP (its rows per
    group read off ``row_duals``, its K off ``q``), mapped into the LP
    whose groups have ``rows_per`` rows: the mix and level columns keep
    their indices, each old slack shifts by the rows added to earlier
    groups, and every new row's slack is basic."""
    old_rows = [len(lam) for lam in start.row_duals]
    if len(old_rows) != len(rows_per) or len(start.q) != K:
        raise ValueError(f"start has {len(old_rows)} groups, K {len(start.q)}")
    basis = [operator.index(col) for col in start.basis]
    n_fixed = K + len(old_rows)
    m, n = 1 + sum(old_rows), n_fixed + sum(old_rows)
    if len(basis) != m:
        raise ValueError(f"start needs {m} columns, got {len(basis)}")
    if len(set(basis)) != m or not all(0 <= col < n for col in basis):
        raise ValueError(f"start columns must be distinct and in [0, {n})")
    moved: list[int] = []
    added: list[int] = []
    col = n_fixed
    for j, (old, new) in enumerate(zip(old_rows, rows_per)):
        if old > new:
            raise ValueError(f"group {j} has {new} rows, the start {old}")
        moved.extend(range(col, col + old))
        added.extend(range(col + old, col + new))
        col += new
    return [c if c < n_fixed else moved[c - n_fixed] for c in basis] + added


def _certified(
    w: np.ndarray,
    stacked: np.ndarray,
    rows_per: list[int],
    starts: np.ndarray,
    basis: list[int],
    iters: int,
    x_basic: np.ndarray,
    y: np.ndarray,
) -> MinmaxSolution:
    """The solution of an optimal basis, its value recomputed from the
    primal point and checked against the row duals' upper bound.
    ``stacked`` holds every group's rows, group j's ``rows_per[j]`` from
    ``starts[j]``."""
    r_tot, K = stacked.shape
    n = K + len(rows_per) + r_tot
    x = np.zeros(n)
    x[basis] = x_basic
    q = np.clip(x[:K], 0.0, None)
    total = float(np.sum(q))
    if not np.isfinite(total) or abs(total - 1.0) > 1e-6:
        raise SolverFailure("simplex returned a defective primal point", iters)
    q = q / total

    minima = np.minimum.reduceat(stacked @ q, starts)
    value = float(np.dot(w, minima))

    lam = np.clip(-y[1:], 0.0, None)
    sums = np.add.reduceat(lam, starts)
    positive = sums > 0.0
    if not positive.all():
        raise SolverFailure(
            f"LP duals of group {positive.argmin()} are all zero", iters
        )
    lam *= np.repeat(w / sums, rows_per)
    # Weak duality: sum_j w_j min_r (C_j q)_r <= (sum_j lam_j' C_j) q for
    # every q in the simplex, since each lam_j >= 0 sums to w_j.
    gap = float(np.max(lam @ stacked)) - value
    if not gap <= DUALITY_TOL:
        raise SolverFailure(
            f"LP certificate gap {gap:.3e} exceeds {DUALITY_TOL} "
            f"on a {1 + r_tot} x {n} LP",
            iters,
        )
    duals = tuple(
        lam[a:a + r] for a, r in zip(starts.tolist(), rows_per)
    )
    return MinmaxSolution(value, q, duals, iters, gap, tuple(basis))


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
    """Cold solve: ``_simplex`` from the crash basis of ``_crash``, which
    is primal feasible, so only its primal phase pivots.

    Returns the optimal basis (column index per row), the pivot count, and
    the basic values and row duals solved afresh for that basis.
    """
    return _simplex(a_mat, b, cost, *_crash(a_mat, b, cost))


def _crash(
    a_mat: np.ndarray, b: np.ndarray, cost: np.ndarray
) -> tuple[list[int], np.ndarray]:
    """The crash basis of ``max_weighted_min``'s LP and its tableau.

    q_0 is basic in the simplex row, each group's level in the group's
    lead row, the row of least right-hand side once q_0 is eliminated
    (ties to the last row, as the lexicographic test with slack keys
    breaks them; a near tie is not a tie), and the slacks in every other
    row.  K, the groups and the weights are read off the LP: row 0 is the
    simplex row, and each group's rows are consecutive.  The last tableau
    row holds the reduced costs.
    """
    m, n = a_mat.shape
    K = int(np.count_nonzero(a_mat[0]))
    J = n - K - (m - 1)
    tableau = np.zeros((m + 1, n + 1))
    tableau[:m, :n] = a_mat
    tableau[:m, n] = b
    tableau[m, :n] = cost
    # Eliminating q_0 from the coupling rows leaves each right-hand side
    # at its group's shift plus a C entry, so > 0.
    tableau[1:m] -= tableau[1:m, 0, None] * tableau[0]
    # Every level pivot at once: each lead row is subtracted from the
    # other rows of its group (its level's entry there is 1), which keeps
    # their right-hand sides >= 0 exactly, and w_j times it is added to
    # the reduced costs.  No lead row has another group's level, so the
    # pivots do not interact.
    rhs = tableau[1:m, n]
    levels = a_mat[1:, K:K + J]
    group, starts = levels.argmax(axis=1), levels.argmax(axis=0)
    least = np.minimum.reduceat(rhs, starts)
    rows = np.arange(m - 1)
    lead = np.maximum.reduceat(np.where(rhs == least[group], rows, -1), starts)
    leads = tableau[1 + lead[group]]
    leads[lead] = 0.0
    tableau[1:m] -= leads
    tableau[m] += (-cost[K:K + J, None] * tableau[1 + lead]).sum(axis=0)
    basis = [0, *range(K + J, n)]
    for j, r in enumerate(lead.tolist()):
        basis[1 + r] = K + j
    return basis, tableau


def _dual_simplex(
    a_mat: np.ndarray, b: np.ndarray, cost: np.ndarray, basis: list[int]
) -> tuple[list[int], int, np.ndarray, np.ndarray]:
    """Warm solve from ``basis``, which must be dual feasible: one tableau
    from the original columns, then ``_simplex``'s dual phase and primal
    clean-up on it.  Returns what ``_primal_simplex`` returns."""
    m, n = a_mat.shape
    tableau = _fresh_tableau(a_mat, b, cost, basis)
    if tableau[m, :n].min() < -PIVOT_TOL:
        raise SolverFailure(
            f"start basis is not dual feasible on a {m} x {n} LP"
        )
    return _simplex(a_mat, b, cost, list(basis), tableau)


def _simplex(
    a_mat: np.ndarray,
    b: np.ndarray,
    cost: np.ndarray,
    basis: list[int],
    tableau: np.ndarray,
) -> tuple[list[int], int, np.ndarray, np.ndarray]:
    """Pivot ``tableau`` of a dual feasible ``basis`` to optimality.

    The dual phase runs while some basic value is below -PIVOT_TOL (from
    a primal feasible basis it makes no pivot); the primal phase then
    keeps primal feasibility, with the columns of the basis it starts
    from as its lexicographic keys.  ``basis`` is updated in place.
    """
    m, n = a_mat.shape
    obj = tableau[m, :n]
    cap = MAX_PIVOTS
    since_refresh = 0
    pivots = 0
    keys_of = None  # the primal phase's key columns, once it has begun
    while True:
        if keys_of is None:
            rhs = tableau[:m, n]
            leave = int(rhs.argmin())  # most negative; ties to the first
            if not rhs[leave] < -PIVOT_TOL:
                keys_of = np.array(basis)
                continue
            row = tableau[leave, :n]
            tol = PIVOT_TOL * max(1.0, np.abs(row).max())
            cols = (row < -tol).nonzero()[0]
            if cols.size == 0:
                raise SolverFailure(
                    f"LP is infeasible on a {m} x {n} LP", pivots
                )
            ratios = np.maximum(obj[cols], 0.0) / -row[cols]
            enter = int(cols[ratios.argmin()])  # ties to the smallest column
        else:
            enter = int(obj.argmin())  # most negative; ties to the first
            if not obj[enter] < -PIVOT_TOL:
                # Basic values and row duals afresh from the original
                # columns; the duals re-price every column before
                # optimality is declared.
                x_basic = _solve_basis(a_mat, basis, b)
                y = _solve_basis(a_mat, basis, cost[basis], transpose=True)
                drift = (cost - y @ a_mat).min() if since_refresh else 0.0
                if drift >= -PIVOT_TOL:
                    return basis, pivots, x_basic, y
                tableau = _fresh_tableau(a_mat, b, cost, basis)
                obj = tableau[m, :n]
                since_refresh = 0
                continue
            leave = _leaving_row(tableau, enter, keys_of, pivots)
        if pivots == cap:
            raise SolverFailure(
                f"simplex hit the iteration cap: {pivots} pivots "
                f"on a {m} x {n} LP",
                pivots,
            )
        pivot_row = tableau[leave] / tableau[leave, enter]
        tableau -= tableau[:, enter, None] * pivot_row
        tableau[leave] = pivot_row
        basis[leave] = enter
        pivots += 1
        since_refresh += 1
        if since_refresh == REFRESH_PIVOTS:
            tableau = _fresh_tableau(a_mat, b, cost, basis)
            obj = tableau[m, :n]
            since_refresh = 0


def _leaving_row(
    tableau: np.ndarray, enter: int, keys_of: np.ndarray, pivots: int
) -> int:
    """The primal phase's lexicographic ratio test on column ``enter``."""
    m, n = tableau.shape[0] - 1, tableau.shape[1] - 1
    col = tableau[:m, enter]
    rows = (col > PIVOT_TOL * max(1.0, np.abs(col).max())).nonzero()[0]
    if rows.size == 0:
        raise SolverFailure(f"LP is unbounded on a {m} x {n} LP", pivots)
    ratios = np.maximum(tableau[rows, -1], 0.0) / col[rows]
    rows = rows[ratios <= ratios.min() + PIVOT_TOL]
    best = 0
    if rows.size > 1:
        # A pairwise scan in row order, not a vectorized minimum: the
        # comparisons within PIVOT_TOL are not transitive.  A key column
        # whose spread is within PIVOT_TOL decides no comparison (rounding
        # is monotone), so the scan skips it.
        keys = tableau[rows[:, None], keys_of] / col[rows, None]
        spread = keys.max(axis=0) - keys.min(axis=0)
        keys = keys[:, ~(spread <= PIVOT_TOL)].tolist()
        for i in range(1, rows.size):
            # the first key column on which row i and the best differ
            for key, best_key in zip(keys[i], keys[best]):
                diff = key - best_key
                if abs(diff) > PIVOT_TOL:
                    if diff < 0.0:
                        best = i
                    break
    return int(rows[best])
