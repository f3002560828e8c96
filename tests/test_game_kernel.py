import dataclasses

import numpy as np
import pytest

from blindgame import (
    HamiltonianQuery,
    MatrixGame,
    ParticleMeasure,
    ProjectionField,
    barycentric_projection,
    build_lattice,
    eval_H,
    eval_Hn,
    gamma_n,
    l2_norm,
    make_problem,
    nearest_coarse,
    reverse_plan,
    solve_matrix_game,
    wasserstein2,
)
from blindgame import game_kernel


def certificate_gap(a, sol):
    return float(np.max(sol.row_mix @ a) - np.min(a @ sol.col_mix))


class TestSolveMatrixGame:
    def test_zero_matrix(self):
        sol = solve_matrix_game(MatrixGame(np.zeros((3, 2))))
        assert sol.value == 0.0

    def test_one_by_one(self):
        sol = solve_matrix_game(MatrixGame(np.array([[2.0]])))
        assert sol.value == 2.0
        assert sol.row_mix[0] == 1.0 and sol.col_mix[0] == 1.0

    def test_matching_pennies(self):
        a = np.array([[1.0, -1.0], [-1.0, 1.0]])
        sol = solve_matrix_game(MatrixGame(a))
        assert sol.value == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(sol.row_mix, [0.5, 0.5], atol=1e-12)
        assert np.allclose(sol.col_mix, [0.5, 0.5], atol=1e-12)

    def test_saddle_point_game(self):
        # row 0 dominates; column 1 is the column player's best reply
        a = np.array([[1.0, 2.0], [4.0, 3.0]])
        sol = solve_matrix_game(MatrixGame(a))
        assert sol.value == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_duality_on_random_rectangles(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            m = int(rng.integers(1, 9))
            k = int(rng.integers(1, 9))
            a = rng.uniform(-1, 1, size=(m, k))
            sol = solve_matrix_game(MatrixGame(a))
            assert certificate_gap(a, sol) <= 1e-9
            assert sol.certified_gap <= 1e-9
            # The returned mixes are the vectors the LP certified.
            for mix in (sol.row_mix, sol.col_mix):
                assert np.all(mix >= 0.0) and abs(mix.sum() - 1.0) <= 1e-12
            assert sol.certified_gap == pytest.approx(
                certificate_gap(a, sol), abs=1e-12
            )

    def test_tall_matrix_orientation(self):
        rng = np.random.default_rng(42)
        a = rng.uniform(-1, 1, size=(40, 3))
        sol = solve_matrix_game(MatrixGame(a))
        assert certificate_gap(a, sol) <= 1e-9

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            MatrixGame(np.array([[np.inf]]))


def pennies_problem():
    return make_problem(
        "u_plus_v", T=1.0, u_grid=[-1.0, 1.0], v_grid=[-1.0, 1.0]
    )


def dirac(x):
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    return ParticleMeasure(arr.reshape(1, -1), np.array([1.0]))


class TestHamiltonians:
    def test_zero_field_annihilates(self):
        prob = pennies_problem()
        mu = dirac(0.0)
        q = HamiltonianQuery(ProjectionField(mu, np.zeros((1, 1))), prob)
        assert eval_H(q) == 0.0
        assert eval_Hn(q, [0]) == 0.0

    def test_control_free_dynamics_reduce_to_integral(self):
        prob = make_problem(
            "constant", drift=[2.0, -1.0], T=1.0, u_grid=[0.0], v_grid=[0.0]
        )
        mu = ParticleMeasure(
            np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0.5, 0.5])
        )
        p = np.array([[1.0, 0.0], [0.0, 3.0]])
        q = HamiltonianQuery(ProjectionField(mu, p), prob)
        expected = 0.5 * 2.0 + 0.5 * (-3.0)
        assert eval_H(q) == pytest.approx(expected, abs=1e-12)

    def test_single_atom_u_plus_v(self):
        prob = pennies_problem()
        mu = dirac(0.0)
        q = HamiltonianQuery(ProjectionField(mu, np.array([[1.0]])), prob)
        assert eval_H(q) == pytest.approx(0.0, abs=1e-12)

    def test_coarse_single_column(self):
        prob = pennies_problem()
        mu = dirac(0.0)
        q = HamiltonianQuery(ProjectionField(mu, np.array([[1.0]])), prob)
        assert eval_Hn(q, [0]) == pytest.approx(-2.0, abs=1e-12)

    def test_single_state_f_rejected(self):
        prob = dataclasses.replace(
            pennies_problem(), f=lambda x, u, v: np.array([u[0] + v[0]])
        )
        mu = ParticleMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        q = HamiltonianQuery(ProjectionField(mu, np.ones((2, 1))), prob)
        with pytest.raises(ValueError, match="last axis"):
            eval_H(q)

    @pytest.mark.parametrize("kind", ["affine", "pursuit", "u_plus_v", "rotation"])
    def test_pairing_tables_equal_the_per_pair_loop(self, kind):
        rng = np.random.default_rng(29)
        for _ in range(10):
            prob = _library_problem(rng, kind)
            mu, field = _random_query(rng, prob)
            w = np.where(rng.uniform(size=mu.n_atoms) < 0.3, 0.0, mu.weights)
            w[0] = 1.0
            mu = ParticleMeasure(mu.points, w / w.sum())
            field = ProjectionField(mu, field.vectors)
            keep = mu.weights > 0.0
            weights, tables = game_kernel._pairing_tables(
                HamiltonianQuery(field, prob)
            )
            assert np.array_equal(weights, mu.weights[keep])
            assert tables.shape == (len(weights), prob.n_u, prob.n_v)
            assert not tables.flags.writeable
            expected = [
                [
                    [float(np.dot(prob.f(y, u, v), p)) for v in prob.v_grid]
                    for u in prob.u_grid
                ]
                for y, p in zip(mu.points[keep], field.vectors[keep])
            ]
            assert tables.tolist() == expected

    def test_full_coarse_grid_equals_H(self):
        rng = np.random.default_rng(0)
        prob = _random_affine(rng)
        mu, field = _random_query(rng, prob)
        q = HamiltonianQuery(field, prob)
        assert eval_Hn(q, range(prob.n_v)) == pytest.approx(
            eval_H(q), abs=1e-12
        )

    def test_one_lp_per_index_set_and_query(self, monkeypatch):
        calls = []
        solve = game_kernel.max_weighted_min
        monkeypatch.setattr(
            game_kernel, "max_weighted_min",
            lambda w, groups: calls.append(len(groups[0][0])) or solve(w, groups),
        )
        prob = make_problem(
            "affine", A=[[0.3]], B=[[1.0]], C=[[-0.7]], dim=1, T=1.0,
            u_grid=[-1.0, 1.0], v_grid=[-1.0, 0.2, 1.0],
        )
        mu = ParticleMeasure(np.array([[0.5], [-1.0]]), np.array([0.4, 0.6]))
        field = ProjectionField(mu, np.array([[1.5], [-0.5]]))
        q = HamiltonianQuery(field, prob)
        h = eval_H(q)
        assert eval_Hn(q, range(prob.n_v)) == h
        assert calls == [3]
        eval_Hn(q, [0, 2])
        eval_Hn(q, (0, 2))
        assert calls == [3, 2]
        # A new query on the same field starts with no LP values.
        assert eval_H(HamiltonianQuery(field, prob)) == h
        assert calls == [3, 2, 3]

    def test_planar_hamiltonian_lp_starts_at_its_crash_basis(
        self, monkeypatch
    ):
        # 30 atoms, 4 u-points and 12 v-points on the unit circle: a
        # 121-row LP.  From q_0 and the slacks it took 33 pivots, 30 of
        # them bringing the per-atom levels into the basis.
        sols = []
        solve = game_kernel.max_weighted_min
        monkeypatch.setattr(
            game_kernel, "max_weighted_min",
            lambda w, groups: sols.append(solve(w, groups)) or sols[-1],
        )
        rng = np.random.default_rng(2)
        angles = np.arange(12) * (2.0 * np.pi / 12)
        prob = make_problem(
            "pursuit", T=1.0,
            u_grid=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
            v_grid=np.column_stack([np.cos(angles), np.sin(angles)]),
        )
        mu = ParticleMeasure(
            rng.normal(0.0, 0.5, size=(30, 2)), np.full(30, 1 / 30)
        )
        field = ProjectionField(mu, rng.standard_normal((30, 2)))
        assert eval_H(HamiltonianQuery(field, prob)) == -0.83033323433349
        assert [sol.iterations for sol in sols] == [1]

    def test_coarse_validation(self):
        prob = pennies_problem()
        mu = dirac(0.0)
        q = HamiltonianQuery(ProjectionField(mu, np.array([[1.0]])), prob)
        with pytest.raises(ValueError, match="nonempty"):
            eval_Hn(q, [])
        with pytest.raises(ValueError, match="distinct"):
            eval_Hn(q, [0, 0])
        with pytest.raises(ValueError, match="range"):
            eval_Hn(q, [5])
        with pytest.raises(ValueError, match="integers"):
            eval_Hn(q, [1.5])  # not truncated to index 1

    def test_field_dimension_must_match_problem(self):
        mu = dirac([0.0, 1.0])
        field = ProjectionField(mu, np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError, match="dimensions differ"):
            HamiltonianQuery(field, pennies_problem())

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            prob = _random_affine(rng)
            mu, field = _random_query(rng, prob)
            q1 = HamiltonianQuery(field, prob)
            c = float(rng.uniform(0.0, 4.0))
            scaled = ProjectionField(mu, c * field.vectors)
            q2 = HamiltonianQuery(scaled, prob)
            assert eval_H(q2) == pytest.approx(c * eval_H(q1), abs=1e-9)

    def test_dominance_and_gap_bound(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            prob = _random_affine(rng)
            mu, field = _random_query(rng, prob)
            q = HamiltonianQuery(field, prob)
            n_coarse = int(rng.integers(1, prob.n_v + 1))
            coarse = sorted(
                rng.choice(prob.n_v, size=n_coarse, replace=False).tolist()
            )
            h = eval_H(q)
            hn = eval_Hn(q, coarse)
            assert h >= hn - 1e-9
            bound = gamma_n(prob, coarse, list(mu.points)) * l2_norm(field)
            assert h - hn <= bound + 1e-9

    def test_continuity_against_transported_fields(self):
        # |H(mu, p) - H(nu, -q)| <= Lip_x(f) * W2(mu, nu)^2 for the
        # projections p, q of one optimal plan between nu and mu.  The
        # quadratic modulus requires the plan not to split atoms (the
        # per-atom inner minimization otherwise contributes a first-order
        # term), so the pairs are equal-weight clouds of equal size, whose
        # canonical optimal plan is a one-to-one matching.
        rng = np.random.default_rng(34)
        for _ in range(25):
            prob = _random_affine(rng)
            m = int(rng.integers(1, 6))
            w = np.full(m, 1.0 / m)
            nu_bar = ParticleMeasure(rng.uniform(-2, 2, (m, prob.dim)), w)
            mu_bar = ParticleMeasure(rng.uniform(-2, 2, (m, prob.dim)), w)
            dist, plan = wasserstein2(nu_bar, mu_bar)
            p_field = barycentric_projection(plan)
            q_field = barycentric_projection(reverse_plan(plan))
            h_mu = eval_H(HamiltonianQuery(p_field, prob))
            neg_q = ProjectionField(nu_bar, -q_field.vectors)
            h_nu = eval_H(HamiltonianQuery(neg_q, prob))
            assert abs(h_mu - h_nu) <= prob.lip_f_x * dist**2 + 1e-6


class TestGammaN:
    def test_identical_grids_give_zero(self):
        prob = pennies_problem()
        assert gamma_n(prob, range(prob.n_v), [np.zeros(1)]) == 0.0

    def test_v_independent_dynamics_give_zero(self):
        prob = make_problem(
            "constant", drift=[1.0], T=1.0, u_grid=[0.0], v_grid=[-1.0, 1.0]
        )
        assert gamma_n(prob, [0], [np.zeros(1)]) == 0.0

    def test_u_plus_v_enumeration(self):
        prob = make_problem(
            "u_plus_v", T=1.0, u_grid=[-1.0, 1.0], v_grid=[-1.0, 0.0, 1.0]
        )
        val = gamma_n(prob, [0, 2], [np.zeros(1)])
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_full_grid_never_calls_f(self):
        def f(x, u, v):
            raise AssertionError("f called")

        prob = dataclasses.replace(pennies_problem(), f=f)
        assert gamma_n(prob, [1, 0], np.zeros((3, 1))) == 0.0

    def test_f_sees_only_the_rows_whose_v_moves(self):
        rows = []
        prob = make_problem(
            "u_plus_v", T=1.0, u_grid=[-1.0, 0.5, 1.0],
            v_grid=[-1.0, 0.0, 1.0, 0.9],
        )
        f = prob.f
        prob = dataclasses.replace(
            prob, f=lambda x, u, v: rows.append(len(x)) or f(x, u, v)
        )
        samples = np.linspace(-2.0, 2.0, 5)[:, None]
        # v = 0 snaps to -1 (a tie goes to the first) and v = 0.9 to 1.
        assert gamma_n(prob, [0, 2], samples) == pytest.approx(1.0, abs=1e-12)
        assert rows == [5 * 3 * 2, 5 * 3 * 2]

    def test_samples_as_array_or_points(self):
        rng = np.random.default_rng(83)
        prob = _library_problem(rng, "pursuit")
        samples = rng.uniform(-3, 3, size=(7, 2))
        expected = gamma_n(prob, [0, 3], list(samples))
        assert gamma_n(prob, [0, 3], samples) == expected
        assert gamma_n(prob, [0, 3], samples[0]) == gamma_n(
            prob, [0, 3], samples[:1]
        )
        flat = [0.5, -1.0, 2.0]
        pennies = pennies_problem()
        assert gamma_n(pennies, [0], flat) == gamma_n(
            pennies, [0], [np.array([x]) for x in flat]
        )
        with pytest.raises(ValueError, match="of dimension 2"):
            gamma_n(prob, [0], np.zeros((4, 3)))

    def test_empty_samples_rejected(self):
        prob = pennies_problem()
        with pytest.raises(ValueError, match="sample"):
            gamma_n(prob, range(prob.n_v), [])

    @pytest.mark.parametrize("rows", [game_kernel.GAMMA_BATCH_ROWS, 5])
    @pytest.mark.parametrize("kind", ["affine", "pursuit", "u_plus_v", "rotation"])
    def test_batched_equals_the_per_row_loop(self, kind, rows, monkeypatch):
        monkeypatch.setattr(game_kernel, "GAMMA_BATCH_ROWS", rows)
        rng = np.random.default_rng(61)
        for _ in range(10):
            prob = _library_problem(rng, kind)
            coarse = range(int(rng.integers(1, prob.n_v + 1)))
            samples = list(rng.uniform(-3, 3, size=(40, prob.dim)))
            got = gamma_n(prob, coarse, samples)
            expected = gamma_n_loop(
                prob, prob.v_grid, prob.v_grid[list(coarse)], samples
            )
            assert got == expected

    def test_nan_rows_are_skipped(self):
        prob = dataclasses.replace(
            pennies_problem(),
            f=lambda x, u, v: np.where(
                x[..., :1] > 0.0, np.nan, x[..., :1] * (u[..., :1] + v[..., :1])
            ),
        )
        samples = [np.array([1.0]), np.array([-2.0]), np.array([-0.5])]
        assert gamma_n(prob, [0], samples) == 4.0
        assert gamma_n(prob, [0], samples[:1]) == 0.0

    def test_single_state_f_rejected(self):
        prob = dataclasses.replace(
            pennies_problem(), f=lambda x, u, v: np.array([u[0] + v[0]])
        )
        samples = [np.zeros(1), np.ones(1)]
        with pytest.raises(ValueError, match="last axis"):
            gamma_n(prob, [0], samples)

    def test_coarse_validation(self):
        # The same four index errors as eval_Hn.
        prob = pennies_problem()
        for coarse, message in [
            ([], "must be nonempty"),
            ([0, 0], "indices must be distinct"),
            ([2], "index out of range"),
            ([-1], "index out of range"),
            ([1.5], "indices must be integers"),
        ]:
            with pytest.raises(ValueError, match=f"^coarse v-grid {message}$"):
                gamma_n(prob, coarse, [np.zeros(1)])

    def test_nearest_pairing_is_deterministic(self):
        fine = np.array([[0.0]])
        coarse = np.array([[-1.0], [1.0]])  # tie: first index wins
        assert nearest_coarse(fine, coarse)[0] == 0


SHAPE_ERROR = (
    r"^f returned shape \(1,\) for a batch of shape \(\d+, 1\); "
    r"f must act on the last axis$"
)


@pytest.mark.parametrize("entry", ["build_lattice", "eval_H", "eval_Hn", "gamma_n"])
def test_single_state_f_raises_the_one_shape_error(entry):
    # Written for one state: on a batch it returns row 0's derivative only.
    prob = dataclasses.replace(
        pennies_problem(), f=lambda x, u, v: np.array(u[0] + v[0])
    )
    mu = ParticleMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    q = HamiltonianQuery(ProjectionField(mu, np.ones((2, 1))), prob)
    calls = {
        "build_lattice": lambda: build_lattice(prob, mu, 1),
        "eval_H": lambda: eval_H(q),
        "eval_Hn": lambda: eval_Hn(q, [0]),
        "gamma_n": lambda: gamma_n(prob, [0], list(mu.points)),
    }
    with pytest.raises(ValueError, match=SHAPE_ERROR):
        calls[entry]()


def test_eval_H_is_eval_Hn_on_every_v_index():
    rng = np.random.default_rng(71)
    for _ in range(200):
        prob = _random_affine(rng)
        mu = _random_cloud(rng, prob.dim)
        if mu.n_atoms > 1:
            w = np.where(rng.uniform(size=mu.n_atoms) < 0.3, 0.0, mu.weights)
            w[0] += 1e-3
            mu = ParticleMeasure(mu.points, w / w.sum())
        field = ProjectionField(mu, rng.uniform(-2, 2, size=mu.points.shape))
        q = HamiltonianQuery(field, prob)
        assert eval_H(q) == eval_Hn(q, range(prob.n_v))


def gamma_n_loop(problem, fine_v, coarse_v, sample_points):
    """Reference gamma_n: two single-state f calls per (x, u, fine v)."""
    fine = np.asarray(fine_v, dtype=float).reshape(len(fine_v), -1)
    coarse = np.asarray(coarse_v, dtype=float).reshape(len(coarse_v), -1)
    pairing = nearest_coarse(fine, coarse)
    worst = 0.0
    for x in sample_points:
        for u in problem.u_grid:
            for i, v in enumerate(fine):
                d = float(
                    np.linalg.norm(
                        np.asarray(problem.f(x, u, v), dtype=float)
                        - np.asarray(problem.f(x, u, coarse[pairing[i]]), dtype=float)
                    )
                )
                if d > worst:
                    worst = d
    return worst


def _library_problem(rng, kind):
    if kind == "affine":
        dim, cdim = 2, int(rng.integers(1, 3))
        return make_problem(
            "affine",
            A=rng.uniform(-0.5, 0.5, size=(dim, dim)),
            B=rng.uniform(-1, 1, size=(dim, cdim)),
            C=rng.uniform(-1, 1, size=(dim, cdim)),
            dim=dim,
            T=1.0,
            u_grid=rng.uniform(-1, 1, size=(3, cdim)),
            v_grid=rng.uniform(-1, 1, size=(6, cdim)),
        )
    planar = kind in ("pursuit", "rotation")
    shape = (4, 2) if planar else 4
    return make_problem(
        kind,
        T=1.0,
        u_grid=rng.uniform(-1, 1, size=shape),
        v_grid=rng.uniform(-1, 1, size=(6, 2) if planar else 6),
        omega=float(rng.uniform(0.5, 2.0)),
    )


def _random_affine(rng):
    dim = int(rng.integers(1, 3))
    n_u = int(rng.integers(1, 4))
    n_v = int(rng.integers(1, 5))
    return make_problem(
        "affine",
        A=rng.uniform(-0.5, 0.5, size=(dim, dim)),
        B=rng.uniform(-1, 1, size=(dim, 1)),
        C=rng.uniform(-1, 1, size=(dim, 1)),
        dim=dim,
        T=1.0,
        u_grid=np.sort(rng.uniform(-1, 1, size=n_u)).tolist(),
        v_grid=np.sort(rng.uniform(-1, 1, size=n_v)).tolist(),
    )


def _random_cloud(rng, dim, max_atoms=5):
    n = int(rng.integers(1, max_atoms + 1))
    pts = rng.uniform(-2, 2, size=(n, dim))
    w = rng.uniform(0.2, 1.0, size=n)
    return ParticleMeasure(pts, w / w.sum())


def _random_query(rng, prob):
    mu = _random_cloud(rng, prob.dim)
    field = ProjectionField(mu, rng.uniform(-2, 2, size=mu.points.shape))
    return mu, field
