"""Value of the discretized game with a blind maximizer.

Player I (the minimizer) knows the initial atom and observes the opponent's
stage controls with a one-stage delay: a pure strategy is one decision tree
per atom, mapping each v-history prefix to a u-grid index for the next
stage.  Player II is blind and commits to one probability vector over the
full set of stage-control sequences.

The value

    sup over Q   inf over trees   E[ g(X_T) ]

is computed by a cutting-plane loop: each best response of Player I against
the master's current Q yields linear functionals of Q (per atom, or from
n = 3 on per first-stage decision node), the master maximizes the weighted
sum of their running lower envelopes over the sequence simplex, and the
loop stops when the gap between the master value and the best lower bound
closes.  Every state reachable from the atoms depends only on the
stage-control history, so a solve integrates them once, as a lattice, and
reads every best response and cut off its leaf payoffs: one backward sweep
chooses a u at every node, and one forward read of those choices, from the
root or from every first-stage node, gives the tree and the cuts.  A
brute-force oracle builds the full matrix game over product trees and
sequences and solves it directly; a one-step dynamic-programming check and
a finite-space variational point search round out the module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

# No call goes through this name: advance_stage is imported only because
# perfbench/tracing.py looks it up on this module to install its wrapper.
from .dynamics import (  # noqa: F401
    ControlProblem,
    advance_stage,
    control_pairs,
    flow,
    stage_step,
    terminal_costs,
)
from .errors import SolverFailure
from .measures import ParticleMeasure, _probabilities
from .game_kernel import MatrixGame, MatrixGameSolution, solve_matrix_game
from .simplex import max_weighted_min
from .transport import wasserstein2

LATTICE_GUARD = 2 * 10**6
BRUTE_ROW_GUARD = 10**5
BRUTE_COL_GUARD = 10**3


# ---------------------------------------------------------------------------
# Strategy representations
# ---------------------------------------------------------------------------

def seq_from_rank(rank: int, n_stages: int, n_v: int) -> tuple[int, ...]:
    """Stage-0-major decoding of a sequence rank (lexicographic order)."""
    _check_rank(rank, n_stages, n_v)
    digits = []
    for k in range(n_stages - 1, -1, -1):
        digits.append((rank // n_v**k) % n_v)
    return tuple(digits)


def _check_rank(rank: int, n_stages: int, n_v: int) -> None:
    if not 0 <= rank < n_v**n_stages:
        raise ValueError(f"rank {rank} is outside [0, {n_v**n_stages})")


def tree_prefixes(n_stages: int, n_v: int) -> list[tuple[int, ...]]:
    """All v-history prefixes, ordered by length then lexicographically."""
    out: list[tuple[int, ...]] = []
    for k in range(n_stages):
        out.extend(itertools.product(range(n_v), repeat=k))
    return out


@dataclass(frozen=True, eq=False)
class MixedStrategyII:
    """Player II's blind mix: ``q[r]`` is the probability of the v-sequence
    ``seq_from_rank(r, n_stages, n_v)`` (read-only, length n_v**n_stages).

    ``q`` is copied and held to the probability-vector rule a measure's
    weights follow, ``measures._probabilities``."""

    n_stages: int
    n_v: int
    q: np.ndarray

    def __post_init__(self):
        if self.n_stages < 1 or self.n_v < 1:
            raise ValueError("need n_stages >= 1 and n_v >= 1")
        q = np.array(self.q, dtype=float)
        size = self.n_v**self.n_stages
        if q.shape != (size,):
            raise ValueError(f"q must have shape ({size},), got {q.shape}")
        object.__setattr__(self, "q", _probabilities(q, "q"))

    @property
    def support(self) -> np.ndarray:
        """Ranks of the sequences played with positive probability."""
        return np.flatnonzero(self.q)

    @classmethod
    def pure(cls, n_stages: int, n_v: int, rank: int = 0) -> "MixedStrategyII":
        _check_rank(rank, n_stages, n_v)
        q = np.zeros(n_v**n_stages)
        q[rank] = 1.0
        return cls(n_stages, n_v, q)


@dataclass(frozen=True, eq=False)
class StrategyTreeI:
    """One delayed decision tree per atom.

    ``decisions[i, c]`` is the u-grid index atom i plays at the stage after
    the v-history prefix ``tree_prefixes(n_stages, n_v)[c]``: one row per
    atom, one column per prefix of length 0 .. n_stages-1, ordered by
    length then lexicographically (read-only int64).
    """

    n_stages: int
    n_v: int
    decisions: np.ndarray

    def __post_init__(self):
        if self.n_stages < 1 or self.n_v < 1:
            raise ValueError("need n_stages >= 1 and n_v >= 1")
        dec = np.array(self.decisions)
        width = sum(self.n_v**k for k in range(self.n_stages))
        if dec.dtype.kind not in "iu" or dec.ndim != 2 or dec.shape[1] != width:
            raise ValueError(
                f"decisions must be integers of shape (atoms, {width}), "
                f"got {dec.dtype} of shape {dec.shape}"
            )
        if np.any(dec < 0):
            raise ValueError("decisions must be nonnegative")
        dec = dec.astype(np.int64)
        dec.setflags(write=False)
        object.__setattr__(self, "decisions", dec)


# ---------------------------------------------------------------------------
# Payoff and best response
# ---------------------------------------------------------------------------

def _check_compat(
    prob: ControlProblem, mu0: ParticleMeasure, n_stages: int
) -> None:
    if mu0.dim != prob.dim:
        raise ValueError("measure dimension differs from problem dimension")
    if n_stages < 1:
        raise ValueError("need at least one stage")


def payoff(
    prob: ControlProblem,
    mu0: ParticleMeasure,
    strat_i: StrategyTreeI,
    strat_ii: MixedStrategyII,
) -> float:
    """Expected terminal cost of a tree profile against a blind mix.

    Every (atom, support sequence) path is integrated in one batch, and
    the weighted payoffs are summed in (atom, sequence) order.
    """
    n, n_v = strat_ii.n_stages, prob.n_v
    _check_compat(prob, mu0, n)
    if strat_i.n_stages != n or n_v != strat_i.n_v or n_v != strat_ii.n_v:
        raise ValueError("strategy shapes do not match")
    if strat_i.decisions.shape[0] != mu0.n_atoms:
        raise ValueError("one tree per atom required")
    support = strat_ii.support
    seqs = np.stack(np.unravel_index(support, (n_v,) * n), axis=1)
    # Prefixes are numbered level by level (``tree_prefixes`` order), so
    # prefix c extended by v has column c * n_v + 1 + v.
    cols = np.zeros_like(seqs)
    for k in range(1, n):
        cols[:, k] = cols[:, k - 1] * n_v + 1 + seqs[:, k - 1]
    iu = strat_i.decisions[:, cols].reshape(-1, n)
    iv = np.tile(seqs, (mu0.n_atoms, 1))
    x = flow(prob, np.repeat(mu0.points, len(seqs), axis=0), iu.T, iv.T)
    weights = np.outer(mu0.weights, strat_ii.q[support]).reshape(-1)
    total = 0.0
    for term in weights * terminal_costs(prob, x):
        total += term
    return total


@dataclass(frozen=True, eq=False)
class StateLattice:
    """Terminal payoffs of every stage-control history, built once per solve.

    ``payoffs[i, a, b]`` is g(X_T) of atom i under the u-history of rank
    ``a`` and the v-history of rank ``b`` (shape (atoms, n_u**n, n_v**n));
    both ranks are stage-0-major, as in ``seq_from_rank``, so ``b`` is the
    sequence rank of Player II's mix.  Histories that share their first k
    stages form one block: in the view of shape
    ``(atoms, n_u**k, n_u, n_v**k, n_v)`` axes 1 and 3 are the ranks of
    the u and v prefixes and axes 2 and 4 the stage-k controls.  The grid
    sizes n_u and n_v are read off that shape.
    """

    n_stages: int
    payoffs: np.ndarray


def build_lattice(
    prob: ControlProblem,
    mu0: ParticleMeasure,
    n: int,
) -> StateLattice:
    """Integrate every state reachable in n stages, one batched RK4 call
    per stage, and keep g at the leaves.

    Raises ``ValueError`` before any allocation if the lattice has more
    than ``LATTICE_GUARD`` leaf states, and ``NumericFailure`` naming the
    stage if any state, under any control history, leaves the finite range;
    ``ValueError`` if ``f`` or ``g`` does not act on the last axis or a leaf
    payoff is not finite.
    """
    _check_compat(prob, mu0, n)
    n_u, n_v = prob.n_u, prob.n_v
    size = mu0.n_atoms * (n_u * n_v) ** n
    if size > LATTICE_GUARD:
        raise ValueError(
            f"state lattice of atoms * (|u_grid| * |v_grid|)^n = {size} "
            f"leaf states exceeds the lattice guard {LATTICE_GUARD}"
        )
    x = mu0.points
    for k in range(n):
        x = stage_step(prob, *control_pairs(prob, x), prob.T / n, k)
    # The rows run over (atom, u0, v0, u1, v1, ...); gather the u and the
    # v indices into one axis each.
    payoffs = terminal_costs(prob, x).reshape((mu0.n_atoms,) + (n_u, n_v) * n)
    order = (0, *range(1, 2 * n, 2), *range(2, 2 * n + 1, 2))
    payoffs = payoffs.transpose(order).reshape(mu0.n_atoms, n_u**n, n_v**n)
    return StateLattice(n, payoffs)


def _lattice_for(
    prob: ControlProblem,
    mu0: ParticleMeasure,
    n: int,
    lattice: StateLattice | None,
) -> StateLattice:
    if lattice is None:
        return build_lattice(prob, mu0, n)
    shape = (n, mu0.n_atoms, prob.n_u**n, prob.n_v**n)
    if (lattice.n_stages, *lattice.payoffs.shape) != shape:
        raise ValueError("lattice shape does not match the game")
    return lattice


def best_response_I(
    prob: ControlProblem,
    mu0: ParticleMeasure,
    strat_ii: MixedStrategyII,
    lattice: StateLattice | None = None,
) -> tuple[StrategyTreeI, float, list[np.ndarray]]:
    """Exact minimizing delayed tree per atom, by backward induction.

    At each v-history prefix the chosen u minimizes the conditional
    expected terminal cost under the mix; the same u applies to every
    continuation, which is exactly the one-stage information delay.
    Zero-probability prefixes are filled by minimizing under uniform
    continuation weights; no support sequence reaches them, so their
    decisions cannot change ``payoff`` against the mix.

    One backward sweep over the lattice levels values every (u, v)
    history at once: a live v-prefix sums its live children in v order, a
    dead one takes the uniform mean of its children, and ties go to the
    first u.

    Returns the tree, its value against the mix and the sweep's choices:
    ``choices[k][i, a, c]`` is the u-grid index atom i plays at stage k
    after the u-history of rank ``a`` and the v-prefix of rank ``c``, at
    every node, also off the tree's own path.
    """
    n = strat_ii.n_stages
    _check_compat(prob, mu0, n)
    if strat_ii.n_v != prob.n_v:
        raise ValueError("mix has a different v-grid size than the game")
    lattice = _lattice_for(prob, mu0, n, lattice)
    n_u, n_v = prob.n_u, prob.n_v
    q = strat_ii.q
    live_v = [(q.reshape(n_v**k, -1) > 0.0).any(axis=1) for k in range(n + 1)]
    g = lattice.payoffs
    values = np.where(live_v[n], q * g, g)
    choices = [None] * n
    for k in range(n - 1, -1, -1):
        children = values.reshape(mu0.n_atoms, n_u**k, n_u, n_v**k, n_v)
        use = live_v[k + 1].reshape(-1, n_v) | ~live_v[k][:, None]
        tot = np.zeros(children.shape[:-1])
        for iv in range(n_v):
            tot += np.where(use[:, iv], children[..., iv], 0.0)
        tot = np.where(live_v[k], tot, tot / n_v)
        choices[k] = np.argmin(tot, axis=2)
        # tot is a sum started from +0.0, so it holds no -0.0 and its min
        # is bit for bit the entry argmin picks.
        values = np.min(tot, axis=2)

    value = 0.0
    for w, atom_value in zip(mu0.weights, values[:, 0, 0]):
        value += w * atom_value

    decisions, _ = _read_forward(choices, n_u, n_v, 0)
    tree = StrategyTreeI(n, n_v, np.concatenate(decisions, axis=2)[:, 0])
    return tree, float(value), choices


def _read_forward(
    choices: list[np.ndarray], n_u: int, n_v: int, depth: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """Follow a backward sweep's ``choices`` forward from every node at
    level ``depth``: every u-history of that length against every
    v-prefix of that length, the u-history of rank a starting the paths
    of index a.  Returns each level's decisions, entry [i, a, c] of level
    k's (k >= depth) being atom i's u-grid index after v-prefix c of
    length k, and every leaf's u-history rank, entry [i, a, s] for the
    sequence of rank s (shape (atoms, n_u**depth, n_v**n)).  At depth 0
    this reads the best-response tree along its own decisions.
    """
    rows = np.arange(len(choices[0]))[:, None, None]
    # ``hist`` is the u-history rank each v-prefix of the level reaches.
    hist = np.indices((len(rows), n_u**depth, n_v**depth))[1]
    decisions = []
    for k in range(depth, len(choices)):
        dec = choices[k][rows, hist, np.arange(n_v**k)]
        decisions.append(dec)
        hist = np.repeat(hist * n_u + dec, n_v, axis=2)
    return decisions, hist


def cut_coefficients(
    prob: ControlProblem,
    mu0: ParticleMeasure,
    tree: StrategyTreeI,
    lattice: StateLattice | None = None,
) -> np.ndarray:
    """Payoff of each atom's tree against every pure sequence: row i, by
    sequence rank, is atom i's g at the leaf its decisions reach (shape
    (atoms, n_v**n), unweighted by the atom masses).
    """
    n, n_v = tree.n_stages, tree.n_v
    _check_compat(prob, mu0, n)
    if n_v != prob.n_v or tree.decisions.shape[0] != mu0.n_atoms:
        raise ValueError("tree shape does not match the game")
    lattice = _lattice_for(prob, mu0, n, lattice)
    if np.any(tree.decisions >= prob.n_u):
        raise ValueError("tree decision out of range of the u-grid")
    hist = np.zeros((mu0.n_atoms, 1), dtype=np.int64)
    levels = np.cumsum([n_v**k for k in range(n - 1)], dtype=np.int64)
    for dec in np.split(tree.decisions, levels, axis=1):
        hist = np.repeat(hist * prob.n_u + dec, n_v, axis=1)
    return np.take_along_axis(lattice.payoffs, hist[:, None], 1)[:, 0]


# ---------------------------------------------------------------------------
# Cutting-plane solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IterationRecord:
    """One cutting-plane iteration: the best response against the current
    mix, the new cut re-evaluated at that same generating mix (must match
    the best response), the refreshed master value and gap, and the
    pivots of that iteration's master (a cold fallback's included)."""

    br_value: float
    cut_at_generating_mix: float
    master_value: float
    gap: float
    master_pivots: int


@dataclass(frozen=True, eq=False)
class VnSolution:
    """``cuts[t, i]`` is atom i's row of iteration t's best-response tree
    against every pure sequence, by rank (read-only, shape
    (iterations, atoms, n_v**n)).  The value is the last master's at its
    mix q.  The master reads its cuts at depth 1 if n >= 3, else at depth
    0: for n <= 2 (depth 0, one group per atom) the value is sum_i w_i
    min_t cuts[t, i] @ q; for n >= 3 (depth 1, one group per first-stage
    node) the master also holds the off-path node cuts, so its value is
    at most that sum.  ``q_star`` is the incumbent, the mix whose best
    response gave the best lower bound, so Player I's best response
    against it is worth at least value - gap; at ``q_star`` the cut sum
    above bounds that worth from above."""

    value: float
    q_star: MixedStrategyII
    cuts: np.ndarray
    gap: float
    iterations: int
    converged: bool
    history: tuple[IterationRecord, ...]


def solve_Vn(
    prob: ControlProblem,
    mu0: ParticleMeasure,
    n: int,
    tol: float = 1e-7,
    max_iter: int = 200,
) -> VnSolution:
    """Certified value of the n-stage discretized game.

    Alternates the master LP over the sequence simplex (upper bound) with
    Player I's exact best response at the master's mix (lower bound and
    new cuts) until the gap closes below tol, and returns the mix of the
    best lower bound as ``q_star``: the last master's mix has met no best
    response.  Player I knows the atom, so the best response separates by
    atom.  For n <= 2 each iteration adds one cut per atom, and the master
    maximizes sum_i w_i min over atom i's distinct cuts, the multicut
    decomposition of Birge and Louveaux (1988).  For n >= 3 Player I also
    decides after seeing the first stage, so the best response separates
    by first-stage node (atom i, u0, v0): the backward sweep picks a best
    continuation below every u0, also off the tree's path, and each
    iteration adds to every node the payoff of its continuation against
    the n_v**(n-1) sequences that start with v0.  The master is then
    ``max_weighted_min``'s node form, sum_i w_i min_u0 sum_v0 min over
    node (i, u0, v0)'s distinct cuts.  Both are one cut read at a depth,
    1 if n >= 3, else 0: the sweep's choices are read forward from every
    node at that level, (n_u * n_v)**depth groups per atom, each acting
    on one of n_v**depth blocks of q.  A cut equal to one its group holds
    is dropped.  An atom of zero weight still gets its cuts, but no group
    in the master.  Termination is finite: there are finitely many pure
    trees per atom.
    Each master after the first is warm-started from the last one's
    solution (``max_weighted_min``'s ``start``), so it may end on another
    optimal vertex than a cold solve would, and the iterations may differ
    from a cold run.

    The module constant ``LATTICE_GUARD`` (which also bounds
    ``|v_grid|^n``, the number of leaves of one atom with one u-point) is
    read at call time.
    """
    _check_compat(prob, mu0, n)
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be > 0 and finite")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    lattice = build_lattice(prob, mu0, n)

    q_current = MixedStrategyII.pure(n, prob.n_v)
    q_vec = q_current.q
    cuts: list[np.ndarray] = []
    # The master holds one cut group per node (atom, u-history, v-prefix)
    # at level ``depth``, in that order, each acting on its v-prefix's
    # block of q: per first-stage node from n = 3 on, per atom below.
    depth = 1 if n >= 3 else 0
    blocks = prob.n_v**depth
    per_atom = (prob.n_u * prob.n_v) ** depth
    atom = np.arange(mu0.n_atoms)
    seqs = np.arange(prob.n_v**n)
    # Each positive-weight atom's groups of distinct cut rows, and their
    # bytes to drop repeats: the master's weights must be positive, while
    # ``cuts`` keeps every atom.
    live = mu0.weights > 0.0
    groups: list[list[np.ndarray]] = [
        [] for _ in range(np.count_nonzero(live) * per_atom)
    ]
    seen: list[set[bytes]] = [set() for _ in groups]
    history: list[IterationRecord] = []
    best_lower = -np.inf
    incumbent = q_current  # the mix whose best response gave best_lower
    master_value = np.inf
    last = None  # the previous master's solution
    gap = np.inf
    converged = False

    for _ in range(max_iter):
        tree, br_value, choices = best_response_I(
            prob, mu0, q_current, lattice
        )
        _, leaves = _read_forward(choices, prob.n_u, prob.n_v, depth)
        node_rows = lattice.payoffs[atom[:, None, None], leaves, seqs]
        rows = node_rows[atom, tree.decisions[:, 0] if depth else 0]
        new_rows = node_rows[live].reshape(len(groups), -1)
        cuts.append(rows)
        for group, keys, row in zip(groups, seen, new_rows):
            key = row.tobytes()
            if key not in keys:
                keys.add(key)
                group.append(row)
        if br_value > best_lower:
            best_lower, incumbent = br_value, q_current
        cut_at_gen = float(np.dot(mu0.weights, rows @ q_vec))

        try:
            last = max_weighted_min(
                mu0.weights[live], [np.vstack(g) for g in groups], last,
                blocks=blocks,
            )
        except SolverFailure as exc:
            raise SolverFailure(
                f"master LP ({sum(map(len, groups))} cuts x {len(q_vec)} "
                f"sequences): {exc.message}",
                exc.iterations,
            ) from exc
        master_value, q_vec = last.value, last.q
        gap = max(master_value - best_lower, 0.0)
        history.append(IterationRecord(
            br_value, cut_at_gen, master_value, gap, last.iterations
        ))
        # The next mix keeps the master's entries above 1e-15: the live
        # prefixes decide the best response.  The master's q sums to 1 over
        # n_v**n <= LATTICE_GUARD sequences, so its largest entry is kept.
        keep = q_vec > 1e-15
        q_kept = np.where(keep, q_vec, 0.0)
        q_current = MixedStrategyII(
            n, prob.n_v, q_kept / float(np.sum(q_kept[keep]))
        )
        if gap <= tol:
            converged = True
            break

    cut_array = np.stack(cuts)
    cut_array.setflags(write=False)
    return VnSolution(
        value=float(master_value),
        q_star=incumbent,
        cuts=cut_array,
        gap=float(gap),
        iterations=len(history),
        converged=converged,
        history=tuple(history),
    )


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def _tree_tables(prob: ControlProblem, xs: np.ndarray, n: int) -> np.ndarray:
    """Payoff tables of every pure delayed tree from each state of ``xs``
    (N, d): entry [i, t, s] is g(X_T) from xs[i] under tree t, which plays
    base-n_u digit k of t (most significant first) after prefix k of
    ``tree_prefixes``, against the sequence of rank s.

    Each (state, open-loop u-sequence) pair is one block of n_v**n rows,
    one per v-sequence, and each ``flow`` call integrates as many whole
    blocks as fit in ``BRUTE_ROW_GUARD`` rows, and at least one.  ``f``
    acts row by row, so every endpoint equals the single-state trajectory
    bit for bit.  g is checked here, one endpoint at a time, rather than
    through ``terminal_costs``, so the oracle stays independent.  Tree t
    meets sequence s along the u-sequence of its digits at the prefixes s
    reads, one prefix column per stage.
    """
    n_u, n_v = prob.n_u, prob.n_v
    n_open, n_cols = n_u**n, n_v**n
    u_digits = np.unravel_index(np.arange(n_open), (n_u,) * n)
    v_digits = np.unravel_index(np.arange(n_cols), (n_v,) * n)
    n_blocks = len(xs) * n_open
    per_call = max(1, BRUTE_ROW_GUARD // n_cols)
    ends = []
    for start in range(0, n_blocks, per_call):
        blocks = np.arange(start, min(start + per_call, n_blocks))
        rows = np.repeat(blocks, n_cols)
        ends.append(flow(
            prob,
            xs[rows // n_open],
            [u[rows % n_open] for u in u_digits],
            [np.tile(v, len(blocks)) for v in v_digits],
        ))
    payoffs = np.array([float(prob.g(end)) for end in np.concatenate(ends)])
    if not np.all(np.isfinite(payoffs)):
        raise ValueError("g returned a non-finite value")

    # Prefixes are numbered level by level (``tree_prefixes`` order), so
    # prefix c extended by v has column c * n_v + 1 + v.
    n_prefix = len(tree_prefixes(n, n_v))
    trees = np.arange(n_u**n_prefix)[:, None]
    digits = trees // n_u ** np.arange(n_prefix - 1, -1, -1) % n_u
    col = np.zeros(n_cols, dtype=np.int64)
    u_rank = digits[:, col]
    for k in range(1, n):
        col = col * n_v + 1 + v_digits[k - 1]
        u_rank = u_rank * n_u + digits[:, col]
    payoffs = payoffs.reshape(len(xs), n_open, n_cols)
    return payoffs[:, u_rank, np.arange(n_cols)]


def _check_rows(n_rows: int) -> None:
    if n_rows > BRUTE_ROW_GUARD:
        raise ValueError(
            f"{n_rows} product trees exceed the row guard {BRUTE_ROW_GUARD}"
        )


def _product_game(
    weights: Sequence[float], tables: Sequence[np.ndarray]
) -> tuple[MatrixGameSolution, np.ndarray]:
    """Solution and matrix of the game whose row for the trees (t_0, t_1,
    ...) is sum_i weights[i] * tables[i][t_i], summed in atom order, the
    rows in ``itertools.product`` order."""
    n_cols = tables[0].shape[1]
    matrix = np.zeros((1, n_cols))
    for w, table in zip(weights, tables):
        matrix = (matrix[:, None] + w * table).reshape(-1, n_cols)
    return solve_matrix_game(MatrixGame(matrix)), matrix


@dataclass(frozen=True, eq=False)
class BruteForceResult:
    """The oracle's value, the payoff matrix it was solved from and Player
    I's certified optimal mix over its rows (read-only); row r is the
    product of per-atom tree indices ``row_trees[r]``."""

    value: float
    matrix: np.ndarray
    row_trees: tuple[tuple[int, ...], ...]
    row_mix: np.ndarray


def brute_force_value(
    prob: ControlProblem,
    mu0: ParticleMeasure,
    n: int,
) -> BruteForceResult:
    """Exhaustive oracle for the discretized-game value.

    Enumerates every pure product of per-atom delayed trees and every pure
    sequence, builds the full payoff matrix and solves it as one matrix
    game.  An atom of zero weight adds nothing to any entry, so only the
    positive-weight atoms' trees are enumerated, and the zero-weight atoms
    play tree 0 in every row of ``row_trees``.  Deliberately naive: shares
    nothing with the cutting-plane path except the trajectory integrator.
    ``BRUTE_ROW_GUARD`` and ``BRUTE_COL_GUARD`` cap the rows and columns at
    call time, before anything is integrated.  The matrix is
    ``_product_game`` of the positive-weight atoms' tables from one
    ``_tree_tables`` call, which integrates every (atom, open-loop
    u-sequence, v-sequence) trajectory together, in ``flow`` calls of as
    many whole (atom, u-sequence) blocks as fit in ``BRUTE_ROW_GUARD`` rows
    (so, like the solver, the oracle needs an ``f`` that acts on the last
    axis), then one broadcast add per atom.
    """
    _check_compat(prob, mu0, n)
    trees_per_atom = prob.n_u ** len(tree_prefixes(n, prob.n_v))
    live = mu0.weights > 0.0
    _check_rows(trees_per_atom ** np.count_nonzero(live))
    n_cols = prob.n_v**n
    if n_cols > BRUTE_COL_GUARD:
        raise ValueError(
            f"{n_cols} sequences exceed the column guard {BRUTE_COL_GUARD}"
        )
    sol, matrix = _product_game(
        mu0.weights[live], _tree_tables(prob, mu0.points[live], n)
    )
    row_trees = itertools.product(
        *[range(trees_per_atom if alive else 1) for alive in live]
    )
    sol.row_mix.setflags(write=False)
    return BruteForceResult(sol.value, matrix, tuple(row_trees), sol.row_mix)


# ---------------------------------------------------------------------------
# One-step dynamic programming check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DppReport:
    lhs: float
    rhs: float
    difference: float


def dpp_check(
    prob: ControlProblem,
    mu0: ParticleMeasure,
    n: int,
) -> DppReport:
    """Verify the one-step dynamic programming identity at time 0.

    Left side: the n-stage brute-force value.  Right side: the supremum
    over pure first-stage v of the (n-1)-stage brute-force value at mu1,
    each atom's mass spread over rho* and moved one stage.  rho* is each
    atom's marginal of the oracle's own optimal row mix on its tree's
    first decision (digit 0 of ``_tree_tables``' row index).  Against
    rho* every v's continuation value is at most the left side, and the
    DPP makes the infimum over first stages at least the left side, so
    the two agree to LP precision.  Every continuation game is the
    ``_product_game`` of the (n-1)-stage tables of the one-stage images
    of rho*'s support over the positive-weight atoms, weighted as mu1
    weights its atoms; its rows are checked against ``BRUTE_ROW_GUARD``
    before any of those tables is built, and one ``_tree_tables`` call
    builds the tables of every (support image, first-stage v) pair.
    """
    if n < 2:
        raise ValueError("dpp_check needs n >= 2")
    bf = brute_force_value(prob, mu0, n)
    live = mu0.weights > 0.0
    n_u, n_v = prob.n_u, prob.n_v
    first = np.array(bf.row_trees) // n_u ** (len(tree_prefixes(n, n_v)) - 1)
    rho = np.array([
        np.bincount(first[:, a], weights=bf.row_mix, minlength=n_u)
        for a in range(mu0.n_atoms)
    ])
    atoms, us = np.nonzero((rho > 0.0) & live[:, None])
    _check_rows(n_u ** (len(tree_prefixes(n - 1, n_v)) * len(atoms)))
    tau = prob.T / n
    cont_prob = replace(prob, T=prob.T - tau)
    images = stage_step(
        prob, *control_pairs(prob, mu0.points), tau, 0
    ).reshape(mu0.n_atoms, n_u, n_v, prob.dim)[atoms, us]
    # mu1's weights, renormalized as its measure would; v-free.
    weights = _probabilities(mu0.weights[atoms] * rho[atoms, us], "weights")
    tables = _tree_tables(
        cont_prob, images.reshape(-1, prob.dim), n - 1
    ).reshape(len(atoms), n_v, -1, n_v ** (n - 1))
    rhs = max(
        _product_game(weights, tables[:, iv])[0].value for iv in range(n_v)
    )
    return DppReport(float(bf.value), float(rhs), float(rhs - bf.value))


# ---------------------------------------------------------------------------
# Variational point search on a finite domain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EkelandResult:
    index: int
    violations: tuple[int, ...]
    iterations: int
    value: float


def _mean_lower_bounds(
    measures: Sequence[ParticleMeasure],
) -> Callable[[int], list[float]]:
    """Lower bounds on ``wasserstein2`` from the measures' means.

    Returns ``row(i)``: for every j a float ``lb`` no larger than the float
    ``wasserstein2(measures[i], measures[j])[0]``.  For quadratic cost
    W2^2(mu, nu) = |m_mu - m_nu|^2 + W2^2 of the centred measures, so
    W2 >= |m_mu - m_nu| (Jensen), and ``lb = max(0, |dm| - delta) *
    (1 - 1e-9)``, where ``dm`` is the difference of the computed means and
    ``delta`` the sum of the two measures' ``slop``.  The error budget:

    * Weight snapping.  ``wasserstein2`` transports the weights of
      ``_integer_marginals``: each is snapped to the nearest fraction of
      denominator at most 10**12 (off by at most 5e-13) and divided by the
      snapped total (off from one by at most atoms * 5e-13), so the
      weights move by at most atoms * 1e-12 in all.  Both weight vectors
      sum to one, so the mean moves by at most that times the largest
      distance of an atom from the mean: the ``2e-12`` term, with a factor
      2 of margin.
    * Float means.  The computed mean, and the float weights' sum, whose
      distance from one shifts the mean by as much times its norm, are
      each off by at most about atoms * 2**-53 times the largest |atom|:
      the ``1e-15`` term is about 3 times their sum.
    * Relative rounding.  The float costs, the final division and the
      ``sqrt`` of ``wasserstein2``, and the norm and subtraction here,
      round by a relative (d + 4) * 2**-53 at most, which the factor
      ``1 - 1e-9`` covers for any dimension d below 10**6.

    Each measure's mean and slop are computed once, for all measures in
    one pass over their stacked atoms.
    """
    atoms = np.array([mu.n_atoms for mu in measures])
    starts = np.cumsum(atoms) - atoms
    points = np.concatenate([mu.points for mu in measures])
    weights = np.concatenate([mu.weights for mu in measures])
    means = np.add.reduceat(weights[:, None] * points, starts)
    spread = np.linalg.norm(points - np.repeat(means, atoms, axis=0), axis=1)
    slop = atoms * (
        2e-12 * np.maximum.reduceat(spread, starts)
        + 1e-15 * np.maximum.reduceat(np.linalg.norm(points, axis=1), starts)
    )

    def row(i: int) -> list[float]:
        gaps = np.linalg.norm(means - means[i], axis=1) - (slop + slop[i])
        return (np.maximum(gaps, 0.0) * (1.0 - 1e-9)).tolist()

    return row


def ekeland_point(
    domain: Sequence[tuple[float, ParticleMeasure]],
    func: Callable[[float, ParticleMeasure], float],
    eps: float,
) -> EkelandResult:
    """Find a point that eps-minimizes ``func`` and dominates it up to an
    eps-scaled transport-distance penalty.

    Iterative descent: start at the first eps-optimal point; while some
    point beats the current one by more than eps times the distance, move
    to one whose value is at most halfway between the current value and
    the infimum over the improving set.  The certificate re-checks both
    inequalities against every domain point and must come back empty.

    Every test is ``values[j] < values[i] - eps * W2(i, j) - slack``, with
    slack 0 in the descent and 1e-12 in the certificate.  It fails without
    a transport solve when ``values[j] >= values[i] - slack`` (as eps * W2
    >= 0) or when ``values[j] >= values[i] - eps * lb - slack`` for the
    mean bound ``lb <= W2`` of :func:`_mean_lower_bounds`: float products
    and differences are monotone, so the same expression with ``lb`` is
    never below the one with W2.  Only the pairs neither decides call
    ``wasserstein2``, so the result is the one every pair's exact W2 gives.
    """
    if len(domain) == 0:
        raise ValueError("domain must be nonempty")
    if not eps > 0.0:
        raise ValueError("eps must be > 0")
    values = [float(func(t, mu)) for t, mu in domain]
    if not all(np.isfinite(v) for v in values):
        raise ValueError("func must be finite on the domain")
    dim = domain[0][1].dim
    for i, (_, mu) in enumerate(domain):
        if mu.dim != dim:
            raise ValueError(
                f"dimension mismatch: domain[{i}] has dimension {mu.dim}, "
                f"domain[0] has {dim}"
            )

    dist_cache: dict[tuple[int, int], float] = {}

    def dist(i: int, j: int) -> float:  # i != j: beaten skips j == i first
        key = (min(i, j), max(i, j))
        if key not in dist_cache:
            d, _ = wasserstein2(domain[key[0]][1], domain[key[1]][1])
            dist_cache[key] = d
        return dist_cache[key]

    lower = _mean_lower_bounds([mu for _, mu in domain])

    def beaten(i: int, slack: float) -> list[int]:
        """Every j with values[j] < values[i] - eps * W2(i, j) - slack."""
        return [
            j
            for j, lb in enumerate(lower(i))
            if values[j] < values[i] - slack
            and values[j] < values[i] - eps * lb - slack
            and values[j] < values[i] - eps * dist(i, j) - slack
        ]

    min_value = min(values)
    current = next(
        i for i, v in enumerate(values) if v <= min_value + eps
    )
    iterations = 0
    while True:
        improving = beaten(current, 0.0)
        if not improving:
            break
        target = (values[current] + min(values[j] for j in improving)) / 2.0
        current = next(j for j in improving if values[j] <= target)
        iterations += 1

    violations = tuple(beaten(current, 1e-12))
    if values[current] > min_value + eps + 1e-12:
        violations = violations + (current,)
    return EkelandResult(
        index=current,
        violations=violations,
        iterations=iterations,
        value=values[current],
    )
