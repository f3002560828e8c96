import numpy as np
import pytest

from blindgame import (
    ControlProblem,
    NumericFailure,
    ParticleMeasure,
    advance_stage,
    flow,
    make_payoff,
    make_problem,
    payoff_open_loop,
    pushforward,
    stage_pushforward,
)


class TestFlow:
    def test_frozen_dynamics_stay_put(self):
        prob = make_problem(
            "frozen", dim=2, T=1.0, u_grid=[0.0, 1.0], v_grid=[0.0]
        )
        x = flow(prob, [0.3, -0.7], (1,), (0,))
        assert np.array_equal(x, [0.3, -0.7])

    def test_constant_drift_is_exact(self):
        prob = make_problem(
            "constant", drift=[2.0, -1.0], T=0.5, u_grid=[0.0], v_grid=[0.0]
        )
        x = flow(prob, [1.0, 1.0], (0, 0), (0, 0))
        assert np.allclose(x, [2.0, 0.5], atol=1e-14)

    def test_exponential_decay(self):
        prob = make_problem(
            "linear", A=[[-1.0]], dim=1, T=1.0, u_grid=[0.0], v_grid=[0.0]
        )
        x = flow(prob, [1.0], (0,), (0,))
        assert x[0] == pytest.approx(np.exp(-1.0), abs=1e-6)

    def test_rotation_closed_form(self):
        w = 0.8
        prob = make_problem(
            "rotation", omega=w, T=1.0, u_grid=[0.0], v_grid=[0.0]
        )
        x = flow(prob, [1.0, 0.0], (0, 0), (0, 0))
        assert np.allclose(x, [np.cos(w), np.sin(w)], atol=1e-8)

    def test_affine_closed_form(self):
        # x' = a x + b u + c v with constant controls: variation of constants
        a, b, c = -0.5, 1.0, 2.0
        u, v = 0.7, -0.3
        prob = make_problem(
            "affine",
            A=[[a]],
            B=[[b]],
            C=[[c]],
            dim=1,
            T=1.0,
            u_grid=[u],
            v_grid=[v],
        )
        x0 = 0.4
        forcing = b * u + c * v
        expected = x0 * np.exp(a) + forcing / a * (np.exp(a) - 1.0)
        x = flow(prob, [x0], (0,), (0,))
        assert x[0] == pytest.approx(expected, abs=1e-8)

    def test_stage_count_mismatch(self):
        prob = make_problem("u_plus_v", T=1.0, u_grid=[0.0], v_grid=[0.0])
        with pytest.raises(ValueError, match="stage"):
            flow(prob, [0.0], (0,), (0, 0))

    def test_index_out_of_range(self):
        prob = make_problem("u_plus_v", T=1.0, u_grid=[0.0], v_grid=[0.0])
        with pytest.raises(ValueError, match="index"):
            flow(prob, [0.0], (1,), (0,))

    def test_nonfinite_state_raises_with_stage(self):
        blow = ControlProblem(
            dim=1,
            f=lambda x, u, v: x * x * 1e4,
            g=lambda x: 0.0,
            T=4.0,
            u_grid=[0.0],
            v_grid=[0.0],
            lip_f_x=1.0,
            lip_g=0.0,
        )
        with pytest.raises(NumericFailure) as err:
            flow(blow, [10.0], (0, 0), (0, 0))
        assert err.value.stage == 0

    def test_gronwall_envelope_on_sampled_pairs(self):
        prob = make_problem(
            "affine",
            A=[[0.0, 1.0], [-1.0, 0.3]],
            B=[[1.0], [0.0]],
            C=[[0.0], [1.0]],
            dim=2,
            T=1.0,
            u_grid=[-1.0, 1.0],
            v_grid=[-1.0, 1.0],
        )
        rng = np.random.default_rng(2)
        growth = np.exp(prob.lip_f_x * prob.T)
        for _ in range(25):
            x = rng.uniform(-2, 2, size=2)
            y = rng.uniform(-2, 2, size=2)
            controls = tuple(rng.integers(0, 2, size=4))
            controls_v = tuple(rng.integers(0, 2, size=4))
            fx = flow(prob, x, controls, controls_v)
            fy = flow(prob, y, controls, controls_v)
            bound = growth * np.linalg.norm(x - y) * 1.05
            assert np.linalg.norm(fx - fy) <= bound


class TestPayoffOpenLoop:
    def test_constant_payoff(self):
        prob = make_problem(
            "u_plus_v",
            T=1.0,
            u_grid=[-1.0, 1.0],
            v_grid=[-1.0, 1.0],
            g_kind="linear",
            g_coeffs=[0.0],
        )
        # zero linear payoff stands in for g == const after shifting
        mu = ParticleMeasure(np.array([[0.1], [2.0]]), np.array([0.5, 0.5]))
        assert payoff_open_loop(prob, mu, (0,), (1,)) == 0.0

    def test_frozen_dynamics_average_g(self):
        prob = make_problem(
            "frozen", dim=1, T=1.0, u_grid=[0.0], v_grid=[0.0],
            g_kind="quadratic",
        )
        mu = ParticleMeasure(np.array([[1.0], [3.0]]), np.array([0.25, 0.75]))
        expected = 0.25 * 1.0 + 0.75 * 9.0
        assert payoff_open_loop(prob, mu, (0,), (0,)) == pytest.approx(
            expected, abs=0
        )

    def test_cancelling_controls(self):
        prob = make_problem(
            "u_plus_v",
            T=1.0,
            u_grid=[-1.0, 1.0],
            v_grid=[-1.0, 1.0],
            g_kind="quadratic",
        )
        mu = ParticleMeasure(np.array([[0.0]]), np.array([1.0]))
        val = payoff_open_loop(prob, mu, (1, 1), (0, 0))
        assert val == pytest.approx(0.0, abs=1e-24)

    def test_blow_up_raises_numeric_failure_naming_the_stage(self):
        prob = _blow_up_problem()
        mu = ParticleMeasure(np.array([[1.0], [0.5]]), np.array([0.5, 0.5]))
        with pytest.raises(NumericFailure, match="stage=1") as exc:
            payoff_open_loop(prob, mu, (0, 0), (0, 0))
        assert exc.value.stage == 1


def _blow_up_problem(rate=1e77):
    """x' = rate * x with one RK4 step per stage: at rate 1e77 one stage
    multiplies x by about 4e306, so stage 0 stays finite and stage 1
    overflows; at 1e200 stage 0 overflows."""
    return make_problem(
        "linear", A=[[rate]], T=2.0, u_grid=[0.0], v_grid=[0.0], substeps=1
    )


class TestStagePushforward:
    def test_frozen_dynamics_keep_measure(self):
        prob = make_problem(
            "frozen", dim=1, T=1.0, u_grid=[0.0], v_grid=[0.0]
        )
        mu = ParticleMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        out = stage_pushforward(prob, mu, [0, 0], 0, 0.5)
        assert np.array_equal(out.points, mu.points)

    def test_single_atom_matches_flow(self):
        prob = make_problem(
            "u_plus_v", T=1.0, u_grid=[-1.0, 1.0], v_grid=[-1.0, 1.0]
        )
        mu = ParticleMeasure(np.array([[0.3]]), np.array([1.0]))
        out = stage_pushforward(prob, mu, [1], 0, prob.T)
        end = flow(prob, [0.3], (1,), (0,))
        assert np.array_equal(out.points[0], end)

    def test_per_atom_translation(self):
        # f = u: each atom moves by its own u * stage_len
        prob = make_problem(
            "affine",
            A=[[0.0]],
            B=[[1.0]],
            C=[[0.0]],
            dim=1,
            T=1.0,
            u_grid=[-1.0, 2.0],
            v_grid=[0.0],
        )
        mu = ParticleMeasure(np.array([[0.0], [10.0]]), np.array([0.5, 0.5]))
        out = stage_pushforward(prob, mu, [0, 1], 0, 0.5)
        assert np.allclose(out.points, [[-0.5], [11.0]], atol=1e-12)

    def test_commutes_with_pushforward(self):
        prob = make_problem(
            "affine",
            A=[[0.2]],
            B=[[1.0]],
            C=[[1.0]],
            dim=1,
            T=1.0,
            u_grid=[-1.0, 1.0],
            v_grid=[-1.0, 1.0],
        )
        mu = ParticleMeasure(
            np.array([[0.1], [0.7], [-2.0]]), np.array([0.2, 0.3, 0.5])
        )
        stage_len = 0.25
        out = stage_pushforward(prob, mu, [1, 1, 1], 0, stage_len)
        mapped = pushforward(
            mu,
            lambda x: advance_stage(
                prob, x, prob.u_grid[1], prob.v_grid[0], stage_len
            ),
        )
        assert np.array_equal(out.points, mapped.points)

    def test_blow_up_raises_numeric_failure_naming_the_stage(self):
        prob = _blow_up_problem(1e200)
        mu = ParticleMeasure(np.array([[1.0], [0.0]]), np.array([0.5, 0.5]))
        with pytest.raises(NumericFailure, match="stage=0") as exc:
            stage_pushforward(prob, mu, [0, 0], 0, 1.0)
        assert exc.value.stage == 0

    def test_assignment_length_checked(self):
        prob = make_problem("frozen", dim=1, T=1.0, u_grid=[0.0], v_grid=[0.0])
        mu = ParticleMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="u_assignment"):
            stage_pushforward(prob, mu, [0], 0, 0.5)


class TestProblemLibrary:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            make_problem("warp", T=1.0, u_grid=[0.0], v_grid=[0.0])

    def test_pursuit_needs_planar_grids(self):
        with pytest.raises(ValueError, match="planar"):
            make_problem("pursuit", T=1.0, u_grid=[0.0], v_grid=[0.0])

    def test_pursuit_dynamics(self):
        prob = make_problem(
            "pursuit",
            T=1.0,
            u_grid=[[1.0, 0.0], [0.0, 1.0]],
            v_grid=[[0.0, 0.0]],
        )
        x = flow(prob, [0.0, 0.0], (0,), (0,))
        assert np.allclose(x, [1.0, 0.0], atol=1e-14)

    def test_t_must_be_positive(self):
        with pytest.raises(ValueError, match="T"):
            make_problem("frozen", dim=1, T=0.0, u_grid=[0.0], v_grid=[0.0])

    def test_payoff_table(self):
        g, lip = make_payoff(
            "custom-table", table=[(-1.0, 2.0), (0.0, 0.0), (2.0, 1.0)]
        )
        assert g(np.array([-1.0])) == 2.0
        assert g(np.array([-0.5])) == pytest.approx(1.0)
        assert g(np.array([5.0])) == 1.0  # constant extrapolation
        assert lip == pytest.approx(2.0)

    def test_payoff_table_needs_dim_one(self):
        with pytest.raises(ValueError, match="dim"):
            make_payoff("custom-table", table=[(0.0, 0.0), (1.0, 1.0)], dim=2)

    def test_sequence_validation(self):
        prob = make_problem(
            "u_plus_v", T=1.0, u_grid=[0.0, 1.0], v_grid=[0.0, 1.0]
        )
        with pytest.raises(ValueError, match="got 2 and 1"):
            flow(prob, [0.0], (0, 0), (0,))
        with pytest.raises(ValueError, match="got 0 and 0"):
            flow(prob, [0.0], (), ())
        with pytest.raises(ValueError, match="stage 1: control index"):
            flow(prob, [0.0], (0, -1), (0, 0))


def _library_problems(rng):
    """One problem of each library kind with random coefficients."""
    d = 3

    def grids(cu=1, cv=1):
        return {
            "T": 1.0,
            "u_grid": rng.uniform(-1.0, 1.0, size=(2, cu)),
            "v_grid": rng.uniform(-1.0, 1.0, size=(3, cv)),
        }

    def mat(cols):
        return rng.uniform(-1.0, 1.0, size=(d, cols))

    return [
        make_problem("frozen", dim=d, **grids()),
        make_problem("constant", drift=mat(1)[:, 0], **grids()),
        make_problem("linear", A=mat(d), **grids()),
        make_problem("u_plus_v", **grids()),
        make_problem("rotation", omega=float(rng.uniform(-2, 2)), **grids()),
        make_problem("pursuit", **grids(2, 2)),
        make_problem(
            "affine", dim=d, A=mat(d), B=mat(2), C=mat(1), **grids(2, 1)
        ),
    ]


class TestBatchedDynamics:
    """f and advance_stage on an (N, d) batch equal the per-state results
    bit for bit, which is what lets the solver integrate in batches."""

    def _batch(self, prob, rng, size=200):
        x = rng.uniform(-3.0, 3.0, size=(size, prob.dim))
        u = prob.u_grid[rng.integers(prob.n_u, size=size)]
        v = prob.v_grid[rng.integers(prob.n_v, size=size)]
        return x, u, v

    def test_every_kind_f_rows_match_single_states(self):
        rng = np.random.default_rng(41)
        for prob in _library_problems(rng):
            x, u, v = self._batch(prob, rng)
            batch = np.asarray(prob.f(x, u, v), dtype=float)
            assert batch.shape == x.shape, prob.label
            for i in range(x.shape[0]):
                single = np.asarray(prob.f(x[i], u[i], v[i]), dtype=float)
                assert single.shape == (prob.dim,), prob.label
                assert np.array_equal(batch[i], single), prob.label

    def test_every_kind_g_rows_match_single_states(self):
        rng = np.random.default_rng(43)
        for d in (1, 2, 3):
            kinds = [
                make_payoff("abs"),
                make_payoff("quadratic"),
                make_payoff("linear", dim=d),
                make_payoff("linear", coeffs=rng.uniform(-2, 2, d), dim=d),
            ]
            if d == 1:
                kinds.append(make_payoff(
                    "custom-table", table=[(-1.0, 2.0), (0.5, -1.0), (2.0, 0.3)]
                ))
            x = rng.uniform(-3.0, 3.0, size=(200, d))
            for k, (g, _) in enumerate(kinds):
                batch = np.asarray(g(x), dtype=float)
                assert batch.shape == (200,), (d, k)
                for i in range(x.shape[0]):
                    single = np.asarray(g(x[i]), dtype=float)
                    assert single.shape == (), (d, k)
                    assert batch[i] == single, (d, k)

    def test_every_kind_stage_rows_match_single_states(self):
        rng = np.random.default_rng(42)
        for prob in _library_problems(rng):
            x, u, v = self._batch(prob, rng, size=50)
            batch = advance_stage(prob, x, u, v, 0.3)
            for i in range(x.shape[0]):
                single = advance_stage(prob, x[i], u[i], v[i], 0.3)
                assert np.array_equal(batch[i], single), prob.label
