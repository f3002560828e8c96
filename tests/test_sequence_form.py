"""The sequence-form LP as a second, independent oracle for ``solve_Vn``.

The discretized game has an extensive form with perfect recall (Koller,
Megiddo & von Stengel 1996, "Efficient computation of equilibria for
extensive two-person games", GEB 14).  Player I's decision nodes are
(atom, (u, v)-history); Player II is blind, so her realization plan is
her mix q over full v-sequences.  The value is one LP:

    maximize  sum_i z_(i, root)
    s.t.      z_h <= sum_v z_(h, u, v)   for every decision node h and u,
              q >= 0,  sum q = 1,

where a leaf child (h, u, v) stands for w_i g(X_T) q(v-history of h, v).
HiGHS solves it.  The helper integrates its own states, level by level,
with ``advance_stage``; it shares nothing else with the cutting-plane
path.  Unlike the brute-force oracle, it stays small where product trees
explode: 2x2 grids with 3 atoms at n = 6 is an 8,190-row LP.
"""

import numpy as np
import pytest

from blindgame import ParticleMeasure, advance_stage, make_problem, solve_Vn

scipy_optimize = pytest.importorskip("scipy.optimize")
sparse = pytest.importorskip("scipy.sparse")


def sequence_form_value(prob, mu0, n):
    """Value of the n-stage game from one sequence-form LP."""
    n_u, n_v = prob.n_u, prob.n_v
    branch = n_u * n_v
    n_atoms = mu0.n_atoms
    n_seq = n_v**n
    # Level k holds, per atom, one state per (u0, v0, ..., u_k-1, v_k-1)
    # history, u-major within each stage, and that history's v-rank.
    u_of = np.repeat(np.arange(n_u), n_v)
    v_of = np.tile(np.arange(n_v), n_u)
    states = mu0.points[:, None, :]
    v_rank = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        size = states.shape[1]
        x = np.repeat(states.reshape(-1, prob.dim), branch, axis=0)
        u = prob.u_grid[np.tile(u_of, n_atoms * size)]
        v = prob.v_grid[np.tile(v_of, n_atoms * size)]
        states = advance_stage(prob, x, u, v, prob.T / n).reshape(
            n_atoms, size * branch, prob.dim
        )
        v_rank = (v_rank[:, None] * n_v + v_of).reshape(-1)
    g = np.array(
        [[float(prob.g(s)) for s in atom] for atom in states]
    )
    if not np.all(np.isfinite(g)):
        raise ValueError("g returned a non-finite value")

    # Variables: q (n_seq), then z of every decision node, atom by atom
    # and level by level.
    level_sizes = [branch**k for k in range(n)]
    per_atom = sum(level_sizes)
    z0 = n_seq
    rows, cols, vals = [], [], []
    n_rows = 0
    for i in range(n_atoms):
        base = z0 + i * per_atom
        for k, size in enumerate(level_sizes):
            h = np.arange(size)
            for iu in range(n_u):
                r = n_rows + h
                rows.append(r)
                cols.append(base + sum(level_sizes[:k]) + h)
                vals.append(np.ones(size))
                for iv in range(n_v):
                    child = h * branch + iu * n_v + iv
                    rows.append(r)
                    if k + 1 < n:
                        cols.append(base + sum(level_sizes[:k + 1]) + child)
                        vals.append(-np.ones(size))
                    else:
                        cols.append(v_rank[child])
                        vals.append(-mu0.weights[i] * g[i, child])
                n_rows += size
    a_ub = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_rows, z0 + n_atoms * per_atom),
    ).tocsr()
    cost = np.zeros(z0 + n_atoms * per_atom)
    cost[z0 + per_atom * np.arange(n_atoms)] = -1.0
    a_eq = np.zeros((1, cost.size))
    a_eq[0, :n_seq] = 1.0
    bounds = [(0.0, None)] * n_seq + [(None, None)] * (n_atoms * per_atom)
    res = scipy_optimize.linprog(
        cost, A_ub=a_ub, b_ub=np.zeros(n_rows), A_eq=a_eq, b_eq=[1.0],
        bounds=bounds, method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun


def _grid(rng, size, dim):
    return np.round(rng.uniform(-1.0, 1.0, (size, dim)), 3)


def _random_game(rng, kind, n=None):
    """A seeded ``u_plus_v``, planar ``pursuit`` or planar ``affine`` game
    with 2 to 8 grid points, 1 to 3 atoms and n stages, drawn from 1 to 3
    when not given; the larger grid shrinks until the lattice has at most
    ``LEAF_CAP`` leaves."""
    n_u, n_v = (int(k) for k in rng.integers(2, 9, size=2))
    atoms = int(rng.integers(1, 4))
    if n is None:
        n = int(rng.integers(1, 4))
    while atoms * (n_u * n_v) ** n > LEAF_CAP:
        if n_u > n_v:
            n_u -= 1
        else:
            n_v -= 1
    dim = 1 if kind == "u_plus_v" else 2
    extra = {}
    if kind == "affine":
        extra = {
            "A": np.round(rng.uniform(-0.5, 0.5, (2, 2)), 3),
            "B": np.round(rng.uniform(-1.0, 1.0, (2, 2)), 3),
            "C": np.round(rng.uniform(-1.0, 1.0, (2, 2)), 3),
            "dim": 2,
        }
    prob = make_problem(
        kind, T=1.0, u_grid=_grid(rng, n_u, dim), v_grid=_grid(rng, n_v, dim),
        **extra,
    )
    weights = rng.uniform(0.2, 1.0, atoms)
    mu = ParticleMeasure(
        np.round(rng.uniform(-0.5, 0.5, (atoms, dim)), 3),
        weights / weights.sum(),
    )
    return prob, mu, n


LEAF_CAP = 8000
BATTERY = [
    (kind, seed) for kind in ("u_plus_v", "pursuit", "affine")
    for seed in range(14)
]


@pytest.mark.parametrize("kind,seed", BATTERY)
def test_solver_matches_sequence_form_lp(kind, seed):
    prob, mu, n = _random_game(np.random.default_rng([seed, len(kind)]), kind)
    res = solve_Vn(prob, mu, n)
    assert res.converged and res.gap <= 1e-7
    assert abs(res.value - sequence_form_value(prob, mu, n)) <= 1e-7 + 1e-9


DEEP_BATTERY = [
    (kind, seed) for kind in ("u_plus_v", "pursuit", "affine")
    for seed in range(14, 18)
]


@pytest.mark.parametrize("kind,seed", DEEP_BATTERY)
def test_solver_matches_sequence_form_lp_at_four_stages(kind, seed):
    rng = np.random.default_rng([seed, len(kind)])
    prob, mu, n = _random_game(rng, kind, n=4)
    res = solve_Vn(prob, mu, n)
    assert res.converged and res.gap <= 1e-7
    assert abs(res.value - sequence_form_value(prob, mu, n)) <= 1e-7 + 1e-9


def _thirds(points):
    return ParticleMeasure(np.array(points), np.full(len(points), 1 / 3))


DIRECTIONS = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [0.0, 0.0]]


class TestLargeMasters:
    """Games whose master LP, under a single aggregated cut and Bland's
    entering rule, took minutes, failed or stopped unconverged."""

    def check(self, prob, mu, n):
        res = solve_Vn(prob, mu, n)
        assert res.converged and res.gap <= 1e-7
        assert abs(res.value - sequence_form_value(prob, mu, n)) <= 1e-7 + 1e-9

    def test_u_plus_v_four_by_five_at_three_stages(self):
        prob = make_problem(
            "u_plus_v", T=1.0, u_grid=[-1.0, -1 / 3, 1 / 3, 1.0],
            v_grid=[-1.0, -0.5, 0.0, 0.5, 1.0],
        )
        mu = ParticleMeasure(np.array([[-0.3], [0.0]]), np.array([0.5, 0.5]))
        self.check(prob, mu, 3)

    def test_planar_pursuit_with_three_atoms(self):
        prob = make_problem(
            "pursuit", T=1.0, u_grid=DIRECTIONS, v_grid=DIRECTIONS
        )
        mu = _thirds([[-0.4, -0.4], [-0.2, 0.4], [0.0, 0.2]])
        self.check(prob, mu, 3)

    def test_u_plus_v_two_by_two_three_atoms_at_six_stages(self):
        prob = make_problem(
            "u_plus_v", T=1.0, u_grid=[-1.0, 1.0], v_grid=[-1.0, 1.0]
        )
        self.check(prob, _thirds([[-0.3], [0.1], [0.4]]), 6)

    def test_u_plus_v_seven_by_seven_single_atom_at_three_stages(self):
        # Under the per-atom master this game stopped unconverged at
        # max_iter = 200 with a gap of 2.6e-3.
        grid = np.linspace(-1.0, 1.0, 7)
        prob = make_problem("u_plus_v", T=1.0, u_grid=grid, v_grid=grid)
        self.check(prob, ParticleMeasure(np.array([[0.1]]), np.array([1.0])), 3)

    def test_u_plus_v_three_by_three_at_four_stages(self):
        prob = make_problem(
            "u_plus_v", T=1.0, u_grid=[-1.0, 0.0, 1.0],
            v_grid=[-1.0, 0.0, 1.0],
        )
        mu = ParticleMeasure(np.array([[-0.3], [0.4]]), np.array([0.5, 0.5]))
        self.check(prob, mu, 4)
