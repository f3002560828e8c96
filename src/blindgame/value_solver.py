"""Value of the discretized game with a blind maximizer.

Player I (the minimizer) knows the initial atom and observes the opponent's
stage controls with a one-stage delay: a pure strategy is one decision tree
per atom, mapping each v-history prefix to a u-grid index for the next
stage.  Player II is blind and commits to one probability vector over the
full set of stage-control sequences.

The value

    sup over Q   inf over trees   E[ g(X_T) ]

is computed by a cutting-plane loop: each best response of Player I against
the master's current Q yields one linear functional of Q per atom (that
atom's payoff against every pure sequence), the master maximizes the
weighted sum of the atoms' running lower envelopes over the sequence
simplex, and the loop stops when the gap between the master value and the
best lower bound closes.  Every state reachable from the atoms depends
only on the stage-control history, so a solve integrates them once, as a
lattice, and reads every best response and cut off its leaf payoffs.  A
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
    flow,
    stage_pushforward,
    stage_step,
    terminal_costs,
)
from .errors import SolverFailure
from .measures import ParticleMeasure, split
from .game_kernel import MatrixGame, MatrixGameSolution, solve_matrix_game
from .simplex import max_weighted_min
from .transport import wasserstein2

PROB_TOL = 1e-12
LATTICE_GUARD = 2 * 10**6
BRUTE_ROW_GUARD = 10**5
BRUTE_COL_GUARD = 10**3
DPP_RESOLUTION = 64
DPP_COMBO_GUARD = 20_000
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


def tree_prefixes(n_stages: int, n_v: int) -> list[tuple[int, ...]]:
    """All v-history prefixes, ordered by length then lexicographically."""
    out: list[tuple[int, ...]] = []
    for k in range(n_stages):
        out.extend(itertools.product(range(n_v), repeat=k))
    return out


@dataclass(frozen=True, eq=False)
class MixedStrategyII:
    """Player II's blind mix: ``q[r]`` is the probability of the v-sequence
    ``seq_from_rank(r, n_stages, n_v)`` (read-only, length n_v**n_stages)."""

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
        if not np.all(np.isfinite(q)) or np.any(q < 0.0):
            raise ValueError("q must be finite and nonnegative")
        total = float(np.sum(q[q > 0.0]))
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"q sums to {total!r}")
        if total != 1.0:
            q = q / total
        q.setflags(write=False)
        object.__setattr__(self, "q", q)

    @property
    def support(self) -> np.ndarray:
        """Ranks of the sequences played with positive probability."""
        return np.flatnonzero(self.q)

    @classmethod
    def pure(cls, n_stages: int, n_v: int, rank: int = 0) -> "MixedStrategyII":
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
    ``flagged`` lists, once each, the (atom, prefix) pairs whose prefix has
    zero probability under the generating mixed strategy while its parent
    prefix has positive probability; decisions in those subtrees were
    filled with uniform tie-break weights and cannot affect any payoff.
    """

    n_stages: int
    n_v: int
    decisions: np.ndarray
    flagged: tuple[tuple[int, tuple[int, ...]], ...] = ()

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
    x = np.repeat(mu0.points, len(seqs), axis=0)
    for k in range(n):
        x = stage_step(prob, x, iu[:, k], iv[:, k], prob.T / n, k)
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
    the u and v prefixes and axes 2 and 4 the stage-k controls.
    """

    n_stages: int
    n_u: int
    n_v: int
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
    branch = n_u * n_v
    size = mu0.n_atoms * branch**n
    if size > LATTICE_GUARD:
        raise ValueError(
            f"state lattice of atoms * (|u_grid| * |v_grid|)^n = {size} "
            f"leaf states exceeds the lattice guard {LATTICE_GUARD}"
        )
    tau = prob.T / n
    branch_u = np.repeat(np.arange(n_u), n_v)
    branch_v = np.tile(np.arange(n_v), n_u)
    x = mu0.points
    for k in range(n):
        iu, iv = np.tile(branch_u, x.shape[0]), np.tile(branch_v, x.shape[0])
        x = stage_step(prob, np.repeat(x, branch, axis=0), iu, iv, tau, k)
    # The rows run over (atom, u0, v0, u1, v1, ...); gather the u and the
    # v indices into one axis each.
    payoffs = terminal_costs(prob, x).reshape((mu0.n_atoms,) + (n_u, n_v) * n)
    order = (0, *range(1, 2 * n, 2), *range(2, 2 * n + 1, 2))
    payoffs = payoffs.transpose(order).reshape(mu0.n_atoms, n_u**n, n_v**n)
    return StateLattice(n, n_u, n_v, payoffs)


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
) -> tuple[StrategyTreeI, float]:
    """Exact minimizing delayed tree per atom, by backward induction.

    At each v-history prefix the chosen u minimizes the conditional
    expected terminal cost under the mix; the same u applies to every
    continuation, which is exactly the one-stage information delay.
    Zero-probability prefixes are filled by minimizing under uniform
    continuation weights and flagged (their decisions are payoff-free).

    One backward sweep over the lattice levels values every (u, v)
    history at once: a live v-prefix sums its live children in v order, a
    dead one takes the uniform mean of its children, and ties go to the
    first u.
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

    # Read each tree forward along its own decisions: ``hist`` is the
    # u-history rank each v-prefix of the current level reaches.
    rows = np.arange(mu0.n_atoms)[:, None]
    hist = np.zeros((mu0.n_atoms, 1), dtype=np.int64)
    decisions = []
    for k in range(n):
        dec = choices[k][rows, hist, np.arange(n_v**k)]
        decisions.append(dec)
        hist = np.repeat(hist * n_u + dec, n_v, axis=1)
    dead_children = [
        seq_from_rank(int(r), k, n_v)
        for k in range(1, n + 1)
        for r in np.nonzero(~live_v[k] & np.repeat(live_v[k - 1], n_v))[0]
    ]
    flagged = tuple(
        (i, child) for i in range(mu0.n_atoms) for child in dead_children
    )
    tree = StrategyTreeI(n, n_v, np.concatenate(decisions, axis=1), flagged)
    return tree, float(value)


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
    the best response), and the refreshed master value and gap."""

    br_value: float
    cut_at_generating_mix: float
    master_value: float
    gap: float


@dataclass(frozen=True, eq=False)
class VnSolution:
    """``cuts[t, i]`` is atom i's row of iteration t's best-response tree
    against every pure sequence, by rank (read-only, shape
    (iterations, atoms, n_v**n)).  The value is
    sum_i w_i min_t cuts[t, i] @ q at the master's mix q."""

    value: float
    q_star: MixedStrategyII
    cuts: np.ndarray
    gap: float
    iterations: int
    converged: bool
    history: tuple[IterationRecord, ...]


def _solve_master(
    weights: np.ndarray, groups: list[np.ndarray]
) -> tuple[float, np.ndarray]:
    """max over the sequence simplex of sum_i w_i min over atom i's cuts.

    Direct LP up to ``COLGEN_THRESHOLD`` sequences; otherwise column
    generation on the restricted simplex, priced with the atoms' dual
    mixes over their cuts, run until no sequence improves the restricted
    value.
    """
    n_cuts = sum(c.shape[0] for c in groups)
    n_seq = groups[0].shape[1]

    def lp(subs: list[np.ndarray]):
        try:
            return max_weighted_min(weights, subs)
        except SolverFailure as exc:
            raise SolverFailure(
                f"master LP ({n_cuts} cuts x {n_seq} sequences): "
                f"{exc.message}",
                exc.iterations,
            ) from exc

    if n_seq <= COLGEN_THRESHOLD:
        sol = lp(groups)
        return sol.value, sol.q
    cols = [0]
    in_cols = {0}
    for _ in range(n_seq):
        sol = lp([c[:, cols] for c in groups])
        scores = sum(lam @ c for lam, c in zip(sol.row_duals, groups))
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
) -> VnSolution:
    """Certified value of the n-stage discretized game.

    Alternates the master LP over the sequence simplex (upper bound) with
    Player I's exact best response at the master's mix (lower bound and
    new cuts) until the gap closes below tol.  Player I knows the atom, so
    the best response separates by atom and each iteration adds one cut
    per atom: the master maximizes sum_i w_i min over atom i's distinct
    cuts, the multicut decomposition of Birge and Louveaux (1988).
    Termination is finite: there are finitely many pure trees per atom.

    The module constants ``LATTICE_GUARD`` (which also bounds
    ``|v_grid|^n``, the number of leaves of one atom with one u-point) and
    ``COLGEN_THRESHOLD`` are read at call time.
    """
    _check_compat(prob, mu0, n)
    if tol <= 0.0:
        raise ValueError("tol must be > 0")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    lattice = build_lattice(prob, mu0, n)

    q_current = MixedStrategyII.pure(n, prob.n_v)
    q_vec = q_current.q
    cuts: list[np.ndarray] = []
    # Atom i's distinct cut rows, and their bytes to drop repeats.
    groups: list[list[np.ndarray]] = [[] for _ in range(mu0.n_atoms)]
    seen: list[set[bytes]] = [set() for _ in range(mu0.n_atoms)]
    history: list[IterationRecord] = []
    best_lower = -np.inf
    master_value = np.inf
    gap = np.inf
    converged = False

    for _ in range(max_iter):
        tree, br_value = best_response_I(prob, mu0, q_current, lattice)
        rows = cut_coefficients(prob, mu0, tree, lattice)
        cuts.append(rows)
        for group, keys, row in zip(groups, seen, rows):
            key = row.tobytes()
            if key not in keys:
                keys.add(key)
                group.append(row)
        best_lower = max(best_lower, br_value)
        cut_at_gen = float(np.dot(mu0.weights, rows @ q_vec))

        master_value, q_vec = _solve_master(
            mu0.weights, [np.vstack(g) for g in groups]
        )
        gap = max(master_value - best_lower, 0.0)
        history.append(
            IterationRecord(br_value, cut_at_gen, master_value, gap)
        )
        # The next mix keeps the master's entries above 1e-15 (else its
        # argmax): the live prefixes decide the best response.
        keep = q_vec > 1e-15
        if not keep.any():
            keep[np.argmax(q_vec)] = True
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
        q_star=q_current,
        cuts=cut_array,
        gap=float(gap),
        iterations=len(history),
        converged=converged,
        history=tuple(history),
    )


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def _oracle_g(prob: ControlProblem, x: np.ndarray) -> float:
    """g at one terminal state, checked here rather than through
    ``terminal_costs`` so that the oracles stay independent."""
    value = float(prob.g(x))
    if not np.isfinite(value):
        raise ValueError("g returned a non-finite value")
    return value


@dataclass(frozen=True, eq=False)
class BruteForceResult:
    value: float
    row_mix: np.ndarray
    col_mix: np.ndarray
    matrix: np.ndarray
    row_trees: tuple[tuple[int, ...], ...]
    game: MatrixGameSolution


def brute_force_value(
    prob: ControlProblem,
    mu0: ParticleMeasure,
    n: int,
) -> BruteForceResult:
    """Exhaustive oracle for the discretized-game value.

    Enumerates every pure product of per-atom delayed trees and every pure
    sequence, builds the full payoff matrix and solves it as one matrix
    game.  Deliberately naive: shares nothing with the cutting-plane path
    except the trajectory integrator.  ``BRUTE_ROW_GUARD`` and
    ``BRUTE_COL_GUARD`` cap the rows and columns at call time.
    """
    _check_compat(prob, mu0, n)
    n_u, n_v = prob.n_u, prob.n_v
    prefixes = tree_prefixes(n, n_v)
    n_prefix = len(prefixes)
    trees_per_atom = n_u**n_prefix
    n_rows = trees_per_atom**mu0.n_atoms
    n_cols = n_v**n
    if n_rows > BRUTE_ROW_GUARD:
        raise ValueError(
            f"{n_rows} product trees exceed the row guard {BRUTE_ROW_GUARD}"
        )
    if n_cols > BRUTE_COL_GUARD:
        raise ValueError(
            f"{n_cols} sequences exceed the column guard {BRUTE_COL_GUARD}"
        )

    prefix_index = {p: k for k, p in enumerate(prefixes)}
    seqs = [seq_from_rank(r, n, n_v) for r in range(n_cols)]

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
                    decisions[prefix_index[seq[:k]]] for k in range(n)
                )
                table[t, s] = _oracle_g(prob, flow(prob, x, u_vals, seq))
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
    fanout = [
        [(r, x) for r in row if r > 0.0] for row, x in zip(rho, mu0.points)
    ]
    branch_u = np.nonzero(rho > 0.0)[1]
    mu_split = split(mu0, fanout)
    return stage_pushforward(prob, mu_split, branch_u, v_index, stage_len)


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
) -> DppReport:
    """Verify the one-step dynamic programming identity at time 0.

    Left side: the n-stage brute-force value.  Right side: the infimum
    over per-atom randomized first-stage controls of the supremum over
    pure first-stage v of the (n-1)-stage brute-force value at the split
    and transported measure.  The infimum is exact when the continuation
    is linear in the measure (single-v games) or when Player I has no
    choice; otherwise it is searched on the dyadic mix grid of resolution
    ``DPP_RESOLUTION`` under ``DPP_COMBO_GUARD`` combinations (both read at
    call time), so the reported difference carries that grid slack.
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
        rhs = 0.0
        for w, x in zip(mu0.weights, mu0.points):
            best = min(
                _oracle_g(prob, flow(prob, x, u_vals, (0,) * n))
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
        per_atom = _dyadic_simplex(n_u, DPP_RESOLUTION)
        combos = len(per_atom) ** mu0.n_atoms
        if combos > DPP_COMBO_GUARD:
            raise ValueError(
                f"{combos} dyadic mix combinations exceed the guard "
                f"{DPP_COMBO_GUARD}"
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
        method = f"dyadic-grid-1/{DPP_RESOLUTION}"
        note = (
            f"first-stage mixes searched at resolution 1/{DPP_RESOLUTION}; "
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
