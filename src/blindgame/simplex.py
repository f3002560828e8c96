"""One in-house simplex used by every LP in the package.

Everything the solvers need (matrix games, the two Hamiltonians, the
cutting-plane master) is an instance of one concave problem over q in
the K-simplex, split into ``blocks`` blocks q_b of W = K / blocks
entries:

    maximize  sum_i w_i min_u sum_b min_r (C_(i,u,b) q_b)_r,

for positive weights w_i and one constraint matrix C_h of shape (R_h, W)
per group h = (i, u, b).  With one group per weight (one branch u, one
block) this is

    maximize  sum_j  w_j * min_r (C_j q)_r,

the per-group form of matrix games, both Hamiltonians and the masters
of games with n <= 2 stages.  The node form is the top level of the
sequence form of Koller, Megiddo and von Stengel (1996): w_i is the mass
of atom i, u its first-stage control, b the first-stage v and C_h the
cuts of decision node h.

The LP introduces one shifted level per group and one slack per group
row; in the per-group form the level of group j is its weight's level,
shifted up by 1 + max |C_j|.  The node form has a level t_i per weight
and z_h per group, a coupling row t_i - sum_b z_(i,u,b) + s = 0 per
(i, u), and the group rows z_h - C_h q_b + s = S.  Every z_h is shifted
up by one S = 1 + max |C| and every t_i by blocks * S, so the coupling
rows' right-hand sides are 0 and q_0 with every slack is primal
feasible.

Cold and warm starts.  A cold solve starts from a crash basis (Bixby
1992): q_0 in the simplex row, every level basic in its lead row, and
the slacks elsewhere.  Once q_0 is eliminated the shift keeps every
right-hand side positive.  One step makes a set of levels basic, each
in the lead row of its rows, the one of least right-hand side, ties to
the last row (the row the lexicographic test below picks from q_0 and
the slacks): each lead row is subtracted from the other rows of its
level, so every right-hand side stays >= 0 exactly and no phase-1 is
needed.  The per-group form runs the step once, on the group levels in
the group rows.  The node form runs it on the z_h in the group rows;
each coupling row, which holds -1 at its groups' levels, then adds
their lead rows, so its right-hand side stays >= 0, and the step runs
again on the t_i in the coupling rows.  In the per-group form the crash
basis is the one Dantzig's rule reaches after its J level pivots when no
q column enters in between.  Its columns are the identity in the
tableau, so they serve as the primal phase's lexicographic keys.

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
of the group rows are returned as well (for a single group they are the
minimizing player's optimal mix), and every answer is checked against them
before it is returned.  Each group's duals lam_h are scaled to sum to its
mass: w_j in the per-group form; in the node form the mass of branch
(i, u), from the coupling rows' duals scaled to sum to w_i over u (Player
I's first-stage mix).  A branch or group with mass but no dual mass puts
it all on its least entry at q.  By weak duality, max_k of the
dual-weighted group rows summed over every group, each over its block,
bounds the objective from above, and that bound must meet the primal
value within DUALITY_TOL, else ``SolverFailure`` is raised.  A wrong
value is never returned.
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
    value : the recomputed objective, sum_j w_j min_r (C_j q)_r in the
        per-group form.
    q : optimal point of the K-simplex.
    row_duals : per group, nonnegative multipliers over that group's rows
        summing to its mass, w_j in the per-group form (a scaled optimal
        mix of the inner minimizer).
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
    blocks: int = 1,
) -> MinmaxSolution:
    """Maximize sum_j w_j min_r (C_j q)_r over the simplex, or, in the
    node form, sum_i w_i min_u sum_b min_r (C_(i,u,b) q_b)_r.

    ``groups`` holds one matrix per weight, or in the node form
    len(weights) * U * ``blocks`` matrices in (weight, branch, block)
    order, for U >= 1 branches per weight and one block of q per
    ``blocks``.  Every group has the same width W, and q has K = blocks
    * W entries; group (i, u, b) acts on q_b = q[b * W:(b + 1) * W].
    With one group per weight the two forms agree.

    ``start`` is an optional earlier solution of the same groups before
    rows were appended to them.  The solve runs the dual simplex from its
    basis, mapped into this LP, and solves the same LP cold once when that
    basis is singular or not dual feasible within PIVOT_TOL, or when the
    warm solve raises ``SolverFailure``.

    Raises ``ValueError`` on a group count that is not a positive multiple
    of len(weights) * blocks, on a ``start`` that does not fit (another
    group count or K, fewer rows in a group, or a basis that is not one of
    the start's own LP), and ``SolverFailure`` when the cold simplex hits
    MAX_PIVOTS or when its answer fails the duality certificate.
    """
    w = np.asarray(weights, dtype=float).reshape(-1)
    mats = [np.atleast_2d(np.asarray(c, dtype=float)) for c in groups]
    blocks = operator.index(blocks)
    J, H = w.shape[0], len(mats)
    if J == 0 or blocks < 1 or H == 0 or H % (J * blocks):
        raise ValueError(
            "need one weight per group, or per branch of `blocks` groups, "
            "at least one group"
        )
    if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
        raise ValueError("group weights must be positive and finite")
    W = mats[0].shape[1]
    if any(c.shape[1] != W or c.shape[0] < 1 for c in mats):
        raise ValueError(
            "all groups must have equally many columns and >= 1 row"
        )
    stacked = np.vstack(mats)
    if not np.all(np.isfinite(stacked)):
        raise ValueError("group matrices must be finite")
    K = blocks * W
    rows_per = [c.shape[0] for c in mats]
    r_tot = stacked.shape[0]
    starts = np.cumsum([0, *rows_per[:-1]])
    group_of_row = np.repeat(np.arange(H), rows_per)
    wide = stacked
    if blocks > 1:
        wide = np.zeros((r_tot, blocks, W))
        wide[np.arange(r_tot), group_of_row % blocks] = stacked
        wide = wide.reshape(r_tot, K)

    # Standard form min c.x, A x = b, x >= 0.  With one group per weight
    # the variables are [q_0..q_{K-1}, t_0..t_{J-1}, s_0..s_{r_tot-1}],
    # t_j the group level shifted up by shifts[j], and the rows the
    # simplex row and every group row.  The node form puts one level z_h
    # per group after the J atom levels, shifted up by S > max |C|, and
    # the atom levels up by blocks * S; its rows are the simplex row, one
    # coupling row t_i - sum_b z_(i,u,b) + s = 0 per (i, u), then every
    # group row.  In both, q_0 and the slacks are primal feasible.
    coupling = H // blocks if H > J else 0
    z0 = K + J if coupling else K
    m = 1 + coupling + r_tot
    n = z0 + H + coupling + r_tot
    a_mat = np.zeros((m, n))
    a_mat[0, :K] = 1.0
    a_mat[1 + coupling:, :K] = -wide
    a_mat[np.arange(1 + coupling, m), z0 + group_of_row] = 1.0
    a_mat[1:, n - (m - 1):] = np.eye(m - 1)
    if coupling:
        branch = np.arange(coupling)
        a_mat[1 + branch, K + branch // (coupling // J)] = 1.0
        a_mat[1 + np.arange(H) // blocks, z0 + np.arange(H)] = -1.0
        shift = float(np.abs(stacked).max()) + 1.0
        b = np.concatenate([[1.0], np.zeros(coupling), np.full(r_tot, shift)])
    else:
        shifts = np.maximum.reduceat(np.abs(stacked).max(axis=1), starts) + 1.0
        b = np.concatenate([[1.0], shifts[group_of_row]])
    cost = np.zeros(n)
    cost[K:K + J] = -w

    def certified(basis, iters, x_basic, y):
        return _certified(
            w, wide, rows_per, starts, blocks, (m, n), basis, iters, x_basic, y
        )

    warm_pivots = 0
    if start is not None:
        basis = _grown_basis(start, rows_per, K, n - r_tot, coupling)
        try:
            return certified(*_dual_simplex(a_mat, b, cost, basis))
        except SolverFailure as exc:
            warm_pivots = exc.iterations
    layout = (K, J, coupling, starts)
    sol = certified(*_primal_simplex(a_mat, b, cost, layout))
    if warm_pivots:
        sol = replace(sol, iterations=sol.iterations + warm_pivots)
    return sol


def _grown_basis(
    start: MinmaxSolution,
    rows_per: list[int],
    K: int,
    n_fixed: int,
    coupling: int,
) -> list[int]:
    """``start.basis``, checked against the start's own LP (its rows per
    group read off ``row_duals``, its K off ``q``), mapped into the LP
    whose groups have ``rows_per`` rows: the ``n_fixed`` columns before
    the group rows' slacks (q, the levels and the ``coupling`` rows'
    slacks) keep their indices, each group row's slack shifts by the rows
    added to earlier groups, and every new row's slack is basic."""
    old_rows = [len(lam) for lam in start.row_duals]
    if len(old_rows) != len(rows_per) or len(start.q) != K:
        raise ValueError(f"start has {len(old_rows)} groups, K {len(start.q)}")
    basis = [operator.index(col) for col in start.basis]
    m, n = 1 + coupling + sum(old_rows), n_fixed + sum(old_rows)
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
    wide: np.ndarray,
    rows_per: list[int],
    starts: np.ndarray,
    blocks: int,
    shape: tuple[int, int],
    basis: list[int],
    iters: int,
    x_basic: np.ndarray,
    y: np.ndarray,
) -> MinmaxSolution:
    """The solution of an optimal basis of ``max_weighted_min``'s LP of
    ``shape``, its value recomputed from the primal point and checked
    against the row duals' upper bound.  ``wide`` holds every group's
    rows over all K columns (zero outside the group's block), group h's
    ``rows_per[h]`` from ``starts[h]``.

    Both forms take one path: each branch sums its ``blocks`` groups'
    minima, the value is w . (each weight's least branch), and each
    group's duals sum to its branch's mass mu.  The per-group form is the
    node form with one branch and one block, and its mu is w; the node
    form's mu is Player I's first-stage mix, the coupling rows' duals
    scaled to sum to w_i over each weight's branches."""
    m, n = shape
    r_tot, K = wide.shape
    J = len(w)
    coupling = m - 1 - r_tot
    x = np.zeros(n)
    x[basis] = x_basic
    q = np.clip(x[:K], 0.0, None)
    total = float(np.sum(q))
    if not np.isfinite(total) or abs(total - 1.0) > 1e-6:
        raise SolverFailure("simplex returned a defective primal point", iters)
    q = q / total

    at_q = wide @ q
    minima = np.minimum.reduceat(at_q, starts)
    branches = minima.reshape(-1, blocks).sum(axis=1)
    value = float(np.dot(w, branches.reshape(J, -1).min(axis=1)))
    prices = np.clip(-y[1:], 0.0, None)
    mu = w
    if coupling:
        first = np.arange(coupling)[::coupling // J]
        mu = _spread(prices[:coupling], branches, first, w)
    mass = np.repeat(mu, blocks)
    lam = _spread(prices[coupling:], at_q, starts, mass)
    # Weak duality: each weight's branch mix sums to w_i, and each group's
    # lam_h >= 0 to its branch's mass (to w_j with one group per weight),
    # so the value is at most (sum_h lam_h' C_h) q for every q in the
    # simplex.
    gap = float(np.max(lam @ wide)) - value
    if not gap <= DUALITY_TOL:
        raise SolverFailure(
            f"LP certificate gap {gap:.3e} exceeds {DUALITY_TOL} "
            f"on a {m} x {n} LP",
            iters,
        )
    duals = tuple(
        lam[a:a + r] for a, r in zip(starts.tolist(), rows_per)
    )
    return MinmaxSolution(value, q, duals, iters, gap, tuple(basis))


def _spread(
    duals: np.ndarray, at_q: np.ndarray, starts: np.ndarray, mass: np.ndarray
) -> np.ndarray:
    """``duals`` scaled, segment h (from ``starts[h]`` to the next start)
    to sum to ``mass[h]``.  A segment with mass but no dual mass puts all
    of it on its entry of least ``at_q``, which keeps weak duality valid:
    any nonnegative duals of the right sums bound the value."""
    sizes = np.diff(np.append(starts, len(duals)))
    sums = np.add.reduceat(duals, starts)
    for h in np.flatnonzero((sums == 0.0) & (mass > 0.0)).tolist():
        a = int(starts[h])
        duals[a + int(at_q[a:a + sizes[h]].argmin())] = 1.0
        sums[h] = 1.0
    scale = np.divide(mass, sums, out=np.zeros(len(sums)), where=sums > 0.0)
    return duals * np.repeat(scale, sizes)


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
    a_mat: np.ndarray, b: np.ndarray, cost: np.ndarray, layout: tuple
) -> tuple[list[int], int, np.ndarray, np.ndarray]:
    """Cold solve: ``_simplex`` from the crash basis of ``_crash``, which
    is primal feasible, so only its primal phase pivots.

    Returns the optimal basis (column index per row), the pivot count, and
    the basic values and row duals solved afresh for that basis.
    """
    return _simplex(a_mat, b, cost, *_crash(a_mat, b, cost, layout))


def _crash(
    a_mat: np.ndarray, b: np.ndarray, cost: np.ndarray, layout: tuple
) -> tuple[list[int], np.ndarray]:
    """The crash basis of ``max_weighted_min``'s LP and its tableau.

    ``layout`` is (K, J, coupling, starts): K entries of q, J weights,
    the coupling rows (0 in the per-group form) and each group's first
    row among the group rows.  q_0 is basic in the simplex row, each
    level in its lead row and the slacks in every other row.  The group
    levels come first, in the group rows; in the node form each coupling
    row then adds the lead rows of its groups, at whose levels it holds
    -1, and the weight levels follow in the coupling rows.  The last
    tableau row holds the reduced costs.
    """
    K, J, coupling, starts = layout
    m, n = a_mat.shape
    tableau = np.zeros((m + 1, n + 1))
    tableau[:m, :n] = a_mat
    tableau[:m, n] = b
    tableau[m, :n] = cost
    # Eliminating q_0 from the group rows leaves each right-hand side at
    # its group's shift plus a C entry, so > 0.
    tableau[1:m] -= tableau[1:m, 0, None] * tableau[0]
    basis = np.array([0, *range(n - (m - 1), n)])
    top = 1 + coupling
    lead = _lead_rows(tableau, top, m, starts)
    basis[lead] = np.arange(n - (m - 1) - len(starts), n - (m - 1))
    if coupling:
        # Adding the lead rows keeps the coupling rows' right-hand sides
        # >= 0: they were 0 and the lead rows' are > 0.
        tableau[1:top] += tableau[lead].reshape(coupling, -1, n + 1).sum(1)
        first = np.arange(coupling)[::coupling // J]
        lead = _lead_rows(tableau, 1, top, first)
        basis[lead] = np.arange(K, K + J)
    # The weight levels' pivots add w_i times their lead rows to the
    # reduced costs; the group levels of the node form cost nothing.
    tableau[m] += (-cost[K:K + J, None] * tableau[lead]).sum(axis=0)
    return basis.tolist(), tableau


def _lead_rows(
    tableau: np.ndarray, top: int, end: int, starts: np.ndarray
) -> np.ndarray:
    """Make level h basic in the lead row of segment h of ``tableau``'s
    rows ``top`` to ``end`` (each segment from its start to the next),
    where the level's entry is 1 in every row of its segment and 0 in
    every other row of the range.

    The lead row is the segment's row of least right-hand side, ties to
    the last row, as the lexicographic test with slack keys breaks them (a
    near tie is not a tie).  Each lead row is subtracted from the other
    rows of its segment, which keeps their right-hand sides >= 0 exactly;
    no lead row holds another segment's level, so the pivots do not
    interact.  Returns the lead rows' indices in ``tableau``."""
    rhs = tableau[top:end, -1]
    sizes = np.diff(np.append(starts, len(rhs)))
    least = np.repeat(np.minimum.reduceat(rhs, starts), sizes)
    rows = np.arange(len(rhs))
    lead = np.maximum.reduceat(np.where(rhs == least, rows, -1), starts)
    leads = np.repeat(tableau[top + lead], sizes, axis=0)
    leads[lead] = 0.0
    tableau[top:end] -= leads
    return top + lead


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
