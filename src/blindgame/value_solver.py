"""Value of the discretized game with a blind maximizer.

Player I (the minimizer) knows the initial atom and observes the opponent's
stage controls with a one-stage delay: a pure strategy is one decision tree
per atom, mapping each v-history prefix to a u-grid index for the next
stage.  Player II is blind and commits to one probability vector over the
full set of stage-control sequences.

The value

    sup over Q   inf over trees   E[ g(X_T) ]

is computed by a cutting-plane loop: each best response of Player I against
the master's current Q yields a linear functional of Q (its payoff against
every pure sequence), the master maximizes the running lower envelope of
those cuts over the sequence simplex, and the loop stops when the gap
between the master value and the best lower bound closes.  Every state
reachable from the atoms depends only on the stage-control history, so a
solve integrates them once, as a lattice, and reads every best response
and cut off its leaf payoffs.  A brute-force oracle builds the full matrix
game over product trees and sequences and solves it directly; a one-step
dynamic-programming check and a finite-space variational point search
round out the module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .dynamics import (
    ControlProblem,
    StepControlSequence,
    advance_stage,
    flow,
)
from .errors import NumericFailure, SolverFailure
from .measures import ParticleMeasure, split
from .game_kernel import MatrixGame, MatrixGameSolution, solve_matrix_game
from .simplex import max_weighted_min
from .transport import wasserstein2

PROB_TOL = 1e-12
SEQUENCE_GUARD = 10**6
LATTICE_GUARD = 2 * 10**6
BRUTE_ROW_GUARD = 10**5
BRUTE_COL_GUARD = 10**3
COLGEN_THRESHOLD = 10**4


# ---------------------------------------------------------------------------
# Strategy representations
# ---------------------------------------------------------------------------

def seq_from_rank(rank: int, n_stages: int, n_v: int) -> tuple[int, ...]:
    """Stage-0-major decoding of a sequence rank (lexicographic order)."""
    digits = []
    for k in range(n_stages - 1, -1, -1):
        digits.append((rank // n_v**k) % n_v)
    return tuple(digits)


def rank_of_seq(values: Sequence[int], n_v: int) -> int:
    rank = 0
    for v in values:
        rank = rank * n_v + int(v)
    return rank


def tree_prefixes(n_stages: int, n_v: int) -> list[tuple[int, ...]]:
    """All v-history prefixes, ordered by length then lexicographically."""
    out: list[tuple[int, ...]] = []
    for k in range(n_stages):
        out.extend(itertools.product(range(n_v), repeat=k))
    return out


@dataclass(frozen=True, eq=False)
class MixedStrategyII:
    """Probability vector over distinct stage-control sequences."""

    support: tuple[StepControlSequence, ...]
    probs: np.ndarray

    def __post_init__(self):
        support = tuple(self.support)
        if len(support) == 0:
            raise ValueError("empty support")
        n = support[0].n_stages
        if any(s.n_stages != n for s in support):
            raise ValueError("support sequences have mixed stage counts")
        if len({s.values for s in support}) != len(support):
            raise ValueError("support sequences must be distinct")
        p = np.asarray(self.probs, dtype=float).reshape(-1)
        if p.shape[0] != len(support):
            raise ValueError("probs length differs from support size")
        if np.any(p < 0.0):
            raise ValueError("probs must be nonnegative")
        total = float(np.sum(p))
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"probs sum to {total!r}")
        if total != 1.0:
            p = p / total
        p.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", p)

    @property
    def n_stages(self) -> int:
        return self.support[0].n_stages

    @classmethod
    def pure(cls, seq: StepControlSequence) -> "MixedStrategyII":
        return cls((seq,), np.array([1.0]))


@dataclass(frozen=True, eq=False)
class StrategyTreeI:
    """One delayed decision tree per atom.

    ``trees[i]`` maps each v-history prefix (a tuple of v-grid indices of
    length 0 .. n_stages-1) to the u-grid index played at the next stage.
    ``flagged`` lists, once each, the (atom, prefix) pairs whose prefix has
    zero probability under the generating mixed strategy while its parent
    prefix has positive probability; decisions in those subtrees were
    filled with uniform tie-break weights and cannot affect any payoff.
    """

    n_stages: int
    n_v: int
    trees: tuple[dict, ...]
    flagged: tuple[tuple[int, tuple[int, ...]], ...] = ()

    def __post_init__(self):
        if self.n_stages < 1 or self.n_v < 1:
            raise ValueError("need n_stages >= 1 and n_v >= 1")
        expected = sum(self.n_v**k for k in range(self.n_stages))
        for i, tree in enumerate(self.trees):
            if len(tree) != expected:
                raise ValueError(
                    f"tree {i} has {len(tree)} decisions, expected {expected}"
                )
            for prefix, dec in tree.items():
                if (
                    not isinstance(prefix, tuple)
                    or len(prefix) >= self.n_stages
                    or any(not 0 <= v < self.n_v for v in prefix)
                ):
                    raise ValueError(f"tree {i}: invalid prefix {prefix!r}")
                if int(dec) < 0:
                    raise ValueError(f"tree {i}: invalid decision at {prefix!r}")

    def u_sequence(self, atom: int, seq_values: Sequence[int]) -> tuple[int, ...]:
        """The u indices the atom's tree plays along a full v-sequence."""
        tree = self.trees[atom]
        vals = tuple(int(v) for v in seq_values)
        return tuple(tree[vals[:k]] for k in range(self.n_stages))


@dataclass(frozen=True, eq=False)
class Cut:
    """A linear functional of Player II's mix over the full sequence set.

    ``coeffs[r]`` is the payoff of the generating best-response tree
    against the pure sequence of rank r, so the cut value at a mix Q is
    the exact payoff of that tree against Q.
    """

    coeffs: np.ndarray
    tag: str

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float).reshape(-1)
        if not np.all(np.isfinite(c)):
            raise ValueError("cut coefficients must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def at(self, q: np.ndarray) -> float:
        return float(np.dot(self.coeffs, q))


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
    """Expected terminal cost of a tree profile against a blind mix."""
    n = strat_ii.n_stages
    _check_compat(prob, mu0, n)
    if strat_i.n_stages != n or strat_i.n_v != prob.n_v:
        raise ValueError("strategy shapes do not match")
    if len(strat_i.trees) != mu0.n_atoms:
        raise ValueError("one tree per atom required")
    total = 0.0
    for i, (w, x) in enumerate(zip(mu0.weights, mu0.points)):
        for seq, p in zip(strat_ii.support, strat_ii.probs):
            u_seq = StepControlSequence(n, strat_i.u_sequence(i, seq.values))
            total += w * p * float(prob.g(flow(prob, x, u_seq, seq)))
    return total


@dataclass(frozen=True, eq=False)
class StateLattice:
    """Terminal payoffs of every stage-control history, built once per solve.

    Node j of level k is one atom under one (u, v) history of k stages,
    and its children are ``j * n_u * n_v + iu * n_v + iv``; nodes are
    numbered within their atom.  Only the leaf payoffs are kept:
    ``payoffs[i, j]`` is g(X_T) of atom i at leaf j.  ``v_ranks[k][j]`` is
    the rank of the v-history of node j of level k.
    """

    n_stages: int
    n_u: int
    n_v: int
    payoffs: np.ndarray
    v_ranks: tuple[np.ndarray, ...]


def build_lattice(
    prob: ControlProblem,
    mu0: ParticleMeasure,
    n: int,
) -> StateLattice:
    """Integrate every state reachable in n stages, one batched RK4 call
    per stage, and keep g at the leaves.

    Raises ``ValueError`` before any allocation if the lattice has more
    than ``LATTICE_GUARD`` leaf states, and ``NumericFailure`` naming the
    stage if any state, under any control history, leaves the finite range.
    """
    _check_compat(prob, mu0, n)
    n_u, n_v = prob.n_u, prob.n_v
    branch = n_u * n_v
    size = mu0.n_atoms * branch**n
    if size > LATTICE_GUARD:
        raise ValueError(
            f"state lattice of atoms * (|u_grid| * |v_grid|)^n = {size} "
            f"leaf states exceeds the lattice guard {LATTICE_GUARD}"
        )
    tau = prob.T / n
    u_rows = np.repeat(prob.u_grid, n_v, axis=0)
    v_rows = np.tile(prob.v_grid, (n_u, 1))
    x = np.asarray(mu0.points, dtype=float)
    v_ranks = [np.zeros(1, dtype=np.int64)]
    for k in range(n):
        parents = x.shape[0]
        x = advance_stage(
            prob,
            np.repeat(x, branch, axis=0),
            np.tile(u_rows, (parents, 1)),
            np.tile(v_rows, (parents, 1)),
            tau,
        )
        if not np.all(np.isfinite(x)):
            raise NumericFailure("trajectory left the finite range", stage=k)
        ranks = v_ranks[-1][:, None, None] * n_v + np.arange(n_v)
        v_ranks.append(
            np.broadcast_to(ranks, (ranks.shape[0], n_u, n_v)).reshape(-1)
        )
    payoffs = np.array([float(prob.g(y)) for y in x])
    return StateLattice(
        n, n_u, n_v, payoffs.reshape(mu0.n_atoms, -1), tuple(v_ranks)
    )


def _lattice_for(
    prob: ControlProblem,
    mu0: ParticleMeasure,
    n: int,
    lattice: StateLattice | None,
) -> StateLattice:
    if lattice is None:
        return build_lattice(prob, mu0, n)
    if (lattice.n_stages, lattice.n_u, lattice.n_v) != (n, prob.n_u, prob.n_v):
        raise ValueError("lattice shape does not match the game")
    if lattice.payoffs.shape[0] != mu0.n_atoms:
        raise ValueError("lattice has one row per atom of a different measure")
    return lattice


def _descend(
    nodes: np.ndarray, dec: np.ndarray, n_u: int, n_v: int
) -> np.ndarray:
    """Per atom, the children of ``nodes`` under the u decisions ``dec``,
    one per v index, in v-prefix rank order."""
    children = ((nodes * n_u + dec) * n_v)[..., None] + np.arange(n_v)
    return children.reshape(nodes.shape[0], -1)


def best_response_I(
    prob: ControlProblem,
    mu0: ParticleMeasure,
    strat_ii: MixedStrategyII,
    lattice: StateLattice | None = None,
) -> tuple[StrategyTreeI, float]:
    """Exact minimizing delayed tree per atom, by backward induction.

    At each v-history prefix the chosen u minimizes the conditional
    expected terminal cost under the mix; the same u applies to every
    continuation, which is exactly the one-stage information delay.
    Zero-probability prefixes are filled by minimizing under uniform
    continuation weights and flagged (their decisions are payoff-free).

    One backward sweep over the lattice levels values every node at once:
    a live node sums its live children in v order, a dead node takes the
    uniform mean of its children, and ties go to the first u.
    """
    n = strat_ii.n_stages
    _check_compat(prob, mu0, n)
    lattice = _lattice_for(prob, mu0, n, lattice)
    n_u, n_v = prob.n_u, prob.n_v
    q = np.zeros(n_v**n)
    for seq, p in zip(strat_ii.support, strat_ii.probs):
        if max(seq.values) >= n_v:
            raise ValueError("mix sequence has a v index out of range")
        q[rank_of_seq(seq.values, n_v)] = p
    live_v = [(q.reshape(n_v**k, -1) > 0.0).any(axis=1) for k in range(n + 1)]
    live = [lv[ranks] for lv, ranks in zip(live_v, lattice.v_ranks)]

    g = lattice.payoffs
    values = np.where(live[n], q[lattice.v_ranks[n]] * g, g)
    choices = [None] * n
    for k in range(n - 1, -1, -1):
        children = values.reshape(mu0.n_atoms, -1, n_u, n_v)
        use = live[k + 1].reshape(-1, n_u, n_v) | ~live[k][:, None, None]
        tot = np.zeros(children.shape[:-1])
        for iv in range(n_v):
            tot += np.where(use[..., iv], children[..., iv], 0.0)
        tot = np.where(live[k][:, None], tot, tot / n_v)
        choices[k] = np.argmin(tot, axis=-1)
        values = np.take_along_axis(tot, choices[k][..., None], -1)[..., 0]

    value = 0.0
    for w, atom_value in zip(mu0.weights, values[:, 0]):
        value += w * atom_value

    # Read each tree forward along its own decisions.
    rows = np.arange(mu0.n_atoms)[:, None]
    nodes = np.zeros((mu0.n_atoms, 1), dtype=np.int64)
    decisions = []
    for k in range(n):
        dec = choices[k][rows, nodes]
        decisions.append(dec)
        nodes = _descend(nodes, dec, n_u, n_v)
    prefixes = tree_prefixes(n, n_v)
    trees = tuple(
        dict(zip(prefixes, row.tolist()))
        for row in np.concatenate(decisions, axis=1)
    )
    dead_children = [
        seq_from_rank(int(r), k, n_v)
        for k in range(1, n + 1)
        for r in np.nonzero(~live_v[k] & np.repeat(live_v[k - 1], n_v))[0]
    ]
    flagged = tuple(
        (i, child) for i in range(mu0.n_atoms) for child in dead_children
    )
    return StrategyTreeI(n, n_v, trees, flagged), float(value)


def cut_coefficients(
    prob: ControlProblem,
    mu0: ParticleMeasure,
    tree: StrategyTreeI,
    lattice: StateLattice | None = None,
) -> np.ndarray:
    """Payoff of the tree against every pure sequence, by sequence rank.

    Follows each atom's decisions down the lattice to the leaf of every
    sequence and gathers the leaf payoffs, accumulated atom by atom.
    """
    n, n_v = tree.n_stages, tree.n_v
    _check_compat(prob, mu0, n)
    if n_v != prob.n_v or len(tree.trees) != mu0.n_atoms:
        raise ValueError("tree shape does not match the game")
    lattice = _lattice_for(prob, mu0, n, lattice)
    prefixes = tree_prefixes(n, n_v)
    flat = np.array(
        [[t[p] for p in prefixes] for t in tree.trees], dtype=np.int64
    )
    if np.any(flat >= prob.n_u):
        raise ValueError("tree decision out of range of the u-grid")
    nodes = np.zeros((mu0.n_atoms, 1), dtype=np.int64)
    start = 0
    for k in range(n):
        dec = flat[:, start:start + n_v**k]
        start += n_v**k
        nodes = _descend(nodes, dec, prob.n_u, n_v)
    coeffs = np.zeros(n_v**n)
    for w, g, leaves in zip(mu0.weights, lattice.payoffs, nodes):
        coeffs += w * g[leaves]
    return coeffs


# ---------------------------------------------------------------------------
# Cutting-plane solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IterationRecord:
    """One cutting-plane iteration: the best response against the current
    mix, the new cut re-evaluated at that same generating mix (must match
    the best response), and the refreshed master value and gap."""

    br_value: float
    cut_at_generating_mix: float
    master_value: float
    gap: float


@dataclass(frozen=True, eq=False)
class VnSolution:
    value: float
    q_star: MixedStrategyII
    cuts: tuple[Cut, ...]
    gap: float
    iterations: int
    converged: bool
    history: tuple[IterationRecord, ...]


def _mix_from_vector(q: np.ndarray, n: int, n_v: int) -> MixedStrategyII:
    idx = np.nonzero(q > 1e-15)[0]
    if idx.size == 0:
        idx = np.array([int(np.argmax(q))])
    probs = q[idx]
    support = tuple(
        StepControlSequence(n, seq_from_rank(int(r), n, n_v)) for r in idx
    )
    return MixedStrategyII(support, probs / float(np.sum(probs)))


def _solve_master(
    cut_matrix: np.ndarray, colgen_threshold: int
) -> tuple[float, np.ndarray]:
    """max over the sequence simplex of the minimum over cuts.

    Direct LP when the number of sequences is small; otherwise column
    generation on the restricted simplex, priced with the dual mix over
    cuts, run until no sequence improves the restricted value.
    """
    n_cuts, n_seq = cut_matrix.shape

    def lp(sub: np.ndarray):
        try:
            return max_weighted_min([1.0], [sub])
        except SolverFailure as exc:
            raise SolverFailure(
                f"master LP ({n_cuts} cuts x {n_seq} sequences): "
                f"{exc.message}",
                exc.iterations,
            ) from exc

    if n_seq <= colgen_threshold:
        sol = lp(cut_matrix)
        return sol.value, sol.q
    cols = [0]
    in_cols = {0}
    for _ in range(n_seq):
        sub = cut_matrix[:, cols]
        sol = lp(sub)
        lam = sol.row_duals[0]
        scores = lam @ cut_matrix
        best = int(np.argmax(scores))
        if scores[best] <= sol.value + 1e-12 or best in in_cols:
            q = np.zeros(n_seq)
            q[cols] = sol.q
            return sol.value, q
        cols.append(best)
        in_cols.add(best)
    raise SolverFailure("column generation failed to terminate", n_seq)


def solve_Vn(
    prob: ControlProblem,
    mu0: ParticleMeasure,
    n: int,
    tol: float = 1e-7,
    max_iter: int = 200,
    sequence_guard: int = SEQUENCE_GUARD,
    colgen_threshold: int = COLGEN_THRESHOLD,
) -> VnSolution:
    """Certified value of the n-stage discretized game.

    Alternates the master LP over the sequence simplex (upper bound) with
    Player I's exact best response at the master's mix (lower bound and a
    new cut) until the gap closes below tol.  Termination is finite: there
    are finitely many pure best-response trees.
    """
    _check_compat(prob, mu0, n)
    if tol <= 0.0:
        raise ValueError("tol must be > 0")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    n_seq = prob.n_v**n
    if n_seq > sequence_guard:
        raise ValueError(
            f"|v_grid|^n = {n_seq} exceeds the enumeration guard "
            f"{sequence_guard}"
        )
    lattice = build_lattice(prob, mu0, n)

    q_current = MixedStrategyII.pure(
        StepControlSequence(n, seq_from_rank(0, n, prob.n_v))
    )
    q_vec = np.zeros(n_seq)
    q_vec[0] = 1.0
    cuts: list[Cut] = []
    history: list[IterationRecord] = []
    best_lower = -np.inf
    master_value = np.inf
    gap = np.inf
    converged = False

    for it in range(1, max_iter + 1):
        tree, br_value = best_response_I(prob, mu0, q_current, lattice)
        coeffs = cut_coefficients(prob, mu0, tree, lattice)
        cut = Cut(coeffs, tag=f"br{it:03d}")
        cuts.append(cut)
        best_lower = max(best_lower, br_value)
        cut_at_gen = cut.at(q_vec)

        cut_matrix = np.vstack([c.coeffs for c in cuts])
        master_value, q_vec = _solve_master(cut_matrix, colgen_threshold)
        gap = max(master_value - best_lower, 0.0)
        history.append(
            IterationRecord(br_value, cut_at_gen, master_value, gap)
        )
        q_current = _mix_from_vector(q_vec, n, prob.n_v)
        if gap <= tol:
            converged = True
            break

    return VnSolution(
        value=float(master_value),
        q_star=q_current,
        cuts=tuple(cuts),
        gap=float(gap),
        iterations=len(history),
        converged=converged,
        history=tuple(history),
    )


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BruteForceResult:
    value: float
    row_mix: np.ndarray
    col_mix: np.ndarray
    matrix: np.ndarray
    row_trees: tuple[tuple[int, ...], ...]
    col_seqs: tuple[StepControlSequence, ...]
    game: MatrixGameSolution


def brute_force_value(
    prob: ControlProblem,
    mu0: ParticleMeasure,
    n: int,
    row_guard: int = BRUTE_ROW_GUARD,
    col_guard: int = BRUTE_COL_GUARD,
) -> BruteForceResult:
    """Exhaustive oracle for the discretized-game value.

    Enumerates every pure product of per-atom delayed trees and every pure
    sequence, builds the full payoff matrix and solves it as one matrix
    game.  Deliberately naive: shares nothing with the cutting-plane path
    except the trajectory integrator.
    """
    _check_compat(prob, mu0, n)
    n_u, n_v = prob.n_u, prob.n_v
    prefixes = tree_prefixes(n, n_v)
    n_prefix = len(prefixes)
    trees_per_atom = n_u**n_prefix
    n_rows = trees_per_atom**mu0.n_atoms
    n_cols = n_v**n
    if n_rows > row_guard:
        raise ValueError(
            f"{n_rows} product trees exceed the row guard {row_guard}"
        )
    if n_cols > col_guard:
        raise ValueError(
            f"{n_cols} sequences exceed the column guard {col_guard}"
        )

    prefix_index = {p: k for k, p in enumerate(prefixes)}
    seqs = [
        StepControlSequence(n, seq_from_rank(r, n, n_v)) for r in range(n_cols)
    ]

    # Per-atom payoff tables, then product rows weighted by the atom masses.
    tables = []
    for x in mu0.points:
        table = np.empty((trees_per_atom, n_cols))
        for t in range(trees_per_atom):
            decisions = [
                (t // n_u ** (n_prefix - 1 - k)) % n_u for k in range(n_prefix)
            ]
            for s, seq in enumerate(seqs):
                u_vals = tuple(
                    decisions[prefix_index[seq.values[:k]]] for k in range(n)
                )
                u_seq = StepControlSequence(n, u_vals)
                table[t, s] = float(prob.g(flow(prob, x, u_seq, seq)))
        tables.append(table)

    row_trees = list(
        itertools.product(range(trees_per_atom), repeat=mu0.n_atoms)
    )
    matrix = np.zeros((n_rows, n_cols))
    for r, combo in enumerate(row_trees):
        acc = np.zeros(n_cols)
        for i, t in enumerate(combo):
            acc += mu0.weights[i] * tables[i][t]
        matrix[r] = acc

    game = solve_matrix_game(MatrixGame(matrix))
    return BruteForceResult(
        value=game.value,
        row_mix=game.row_mix,
        col_mix=game.col_mix,
        matrix=matrix,
        row_trees=tuple(row_trees),
        col_seqs=tuple(seqs),
        game=game,
    )


# ---------------------------------------------------------------------------
# One-step dynamic programming check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DppReport:
    lhs: float
    rhs: float
    difference: float
    method: str
    note: str


def _one_stage_measure(
    prob: ControlProblem,
    mu0: ParticleMeasure,
    rho: np.ndarray,
    v_index: int,
    stage_len: float,
) -> ParticleMeasure:
    """Split each atom over its u-mix and advance one stage under v."""
    v = prob.v_grid[v_index]
    fanout = []
    for i, x in enumerate(mu0.points):
        branches = []
        for iu in range(prob.n_u):
            if rho[i, iu] <= 0.0:
                continue
            y = advance_stage(prob, x, prob.u_grid[iu], v, stage_len)
            branches.append((rho[i, iu], y))
        fanout.append(branches)
    return split(mu0, fanout)


def _dyadic_simplex(n_parts: int, resolution: int) -> list[np.ndarray]:
    """All probability vectors with denominator ``resolution``."""
    out = []
    for comp in itertools.combinations_with_replacement(
        range(n_parts), resolution
    ):
        counts = np.bincount(comp, minlength=n_parts).astype(float)
        out.append(counts / resolution)
    return out


def dpp_check(
    prob: ControlProblem,
    mu0: ParticleMeasure,
    n: int,
    resolution: int = 64,
    combo_guard: int = 20_000,
) -> DppReport:
    """Verify the one-step dynamic programming identity at time 0.

    Left side: the n-stage brute-force value.  Right side: the infimum
    over per-atom randomized first-stage controls of the supremum over
    pure first-stage v of the (n-1)-stage brute-force value at the split
    and transported measure.  The infimum is exact when the continuation
    is linear in the measure (single-v games) or when Player I has no
    choice; otherwise it is searched on the dyadic mix grid with the given
    resolution, so the reported difference carries that grid slack.
    """
    if n < 2:
        raise ValueError("dpp_check needs n >= 2")
    _check_compat(prob, mu0, n)
    lhs = brute_force_value(prob, mu0, n).value
    tau = prob.T / n
    cont_prob = replace(prob, T=prob.T - tau)
    n_u, n_v = prob.n_u, prob.n_v

    if n_v == 1:
        # Continuation is linear in the measure: pure per-atom controls
        # are exact and the whole check collapses to per-atom minimization.
        v_seq = StepControlSequence(n, (0,) * n)
        rhs = 0.0
        for w, x in zip(mu0.weights, mu0.points):
            best = min(
                float(prob.g(flow(prob, x, StepControlSequence(n, u_vals), v_seq)))
                for u_vals in itertools.product(range(n_u), repeat=n)
            )
            rhs += w * best
        method, note = "exact-linear", "single-v continuation, pure controls exact"
    elif n_u == 1:
        rho = np.ones((mu0.n_atoms, 1))
        rhs = max(
            brute_force_value(
                cont_prob, _one_stage_measure(prob, mu0, rho, iv, tau), n - 1
            ).value
            for iv in range(n_v)
        )
        method, note = "exact-single-u", "no minimizer choice at stage 0"
    else:
        per_atom = _dyadic_simplex(n_u, resolution)
        combos = len(per_atom) ** mu0.n_atoms
        if combos > combo_guard:
            raise ValueError(
                f"{combos} dyadic mix combinations exceed the guard "
                f"{combo_guard}"
            )
        rhs = np.inf
        for combo in itertools.product(per_atom, repeat=mu0.n_atoms):
            rho = np.vstack(combo)
            worst = -np.inf
            for iv in range(n_v):
                mu1 = _one_stage_measure(prob, mu0, rho, iv, tau)
                worst = max(
                    worst, brute_force_value(cont_prob, mu1, n - 1).value
                )
            rhs = min(rhs, worst)
        method = f"dyadic-grid-1/{resolution}"
        note = (
            f"first-stage mixes searched at resolution 1/{resolution}; "
            "the difference carries that grid slack"
        )
    return DppReport(
        lhs=float(lhs),
        rhs=float(rhs),
        difference=float(rhs - lhs),
        method=method,
        note=note,
    )


# ---------------------------------------------------------------------------
# Variational point search on a finite domain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EkelandResult:
    index: int
    violations: tuple[int, ...]
    iterations: int
    value: float


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
    """
    if len(domain) == 0:
        raise ValueError("domain must be nonempty")
    if eps <= 0.0:
        raise ValueError("eps must be > 0")
    values = [float(func(t, mu)) for t, mu in domain]
    if not all(np.isfinite(v) for v in values):
        raise ValueError("func must be finite on the domain")

    dist_cache: dict[tuple[int, int], float] = {}

    def dist(i: int, j: int) -> float:
        if i == j:
            return 0.0
        key = (min(i, j), max(i, j))
        if key not in dist_cache:
            d, _ = wasserstein2(domain[key[0]][1], domain[key[1]][1])
            dist_cache[key] = d
        return dist_cache[key]

    min_value = min(values)
    current = next(
        i for i, v in enumerate(values) if v <= min_value + eps
    )
    iterations = 0
    while True:
        improving = [
            j
            for j in range(len(domain))
            if values[j] < values[current] - eps * dist(current, j)
        ]
        if not improving:
            break
        target = (values[current] + min(values[j] for j in improving)) / 2.0
        current = next(j for j in improving if values[j] <= target)
        iterations += 1

    violations = tuple(
        j
        for j in range(len(domain))
        if values[j] < values[current] - eps * dist(current, j) - 1e-12
    )
    if values[current] > min_value + eps + 1e-12:
        violations = violations + (current,)
    return EkelandResult(
        index=current,
        violations=violations,
        iterations=iterations,
        value=values[current],
    )
