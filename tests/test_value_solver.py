import itertools

import numpy as np
import pytest

from blindgame import (
    MatrixGame,
    MixedStrategyII,
    NumericFailure,
    ParticleMeasure,
    SolverFailure,
    StrategyTreeI,
    best_response_I,
    brute_force_value,
    build_lattice,
    cut_coefficients,
    dpp_check,
    ekeland_point,
    flow,
    make_problem,
    payoff,
    seq_from_rank,
    solve_Vn,
    solve_matrix_game,
    tree_prefixes,
    wasserstein2,
)
from dataclasses import replace

from blindgame import simplex, value_solver


def pennies(T=1.0):
    return make_problem(
        "u_plus_v", T=T, u_grid=[-1.0, 1.0], v_grid=[-1.0, 1.0]
    )


def dirac0():
    return ParticleMeasure(np.array([[0.0]]), np.array([1.0]))


def uniform_mix(n, n_v):
    return MixedStrategyII(n, n_v, np.full(n_v**n, 1.0 / n_v**n))


def exhaustive_best_response_value(prob, mu0, mix):
    """Independent oracle: enumerate every per-atom delayed tree."""
    n, n_v, n_u = mix.n_stages, prob.n_v, prob.n_u
    prefixes = tree_prefixes(n, n_v)
    index = {p: k for k, p in enumerate(prefixes)}
    total = 0.0
    for w, x in zip(mu0.weights, mu0.points):
        best = np.inf
        for decisions in itertools.product(range(n_u), repeat=len(prefixes)):
            val = 0.0
            for r in mix.support:
                seq = seq_from_rank(int(r), n, n_v)
                u_vals = tuple(decisions[index[seq[:k]]] for k in range(n))
                val += mix.q[r] * float(prob.g(flow(prob, x, u_vals, seq)))
            best = min(best, val)
        total += w * best
    return total


def blind_tree_value(prob, mu0, n):
    """Value when Player I is restricted to history-blind (open-loop)
    per-atom controls, by full enumeration."""
    n_u, n_v = prob.n_u, prob.n_v
    seqs = [seq_from_rank(r, n, n_v) for r in range(n_v**n)]
    tables = []
    for x in mu0.points:
        tab = np.empty((n_u**n, len(seqs)))
        for t, u_vals in enumerate(itertools.product(range(n_u), repeat=n)):
            for s, seq in enumerate(seqs):
                tab[t, s] = float(prob.g(flow(prob, x, u_vals, seq)))
        tables.append(tab)
    rows = []
    for combo in itertools.product(range(n_u**n), repeat=mu0.n_atoms):
        rows.append(
            sum(w * tables[i][t] for i, (w, t) in enumerate(zip(mu0.weights, combo)))
        )
    return solve_matrix_game(MatrixGame(np.array(rows))).value


class TestSequenceRanks:
    def test_round_trip(self):
        for n_v in (1, 2, 3):
            for n in (1, 2, 3):
                assert [seq_from_rank(r, n, n_v) for r in range(n_v**n)] == list(
                    itertools.product(range(n_v), repeat=n)
                )

    def test_lexicographic(self):
        assert seq_from_rank(0, 2, 3) == (0, 0)
        assert seq_from_rank(1, 2, 3) == (0, 1)
        assert seq_from_rank(3, 2, 3) == (1, 0)

    def test_prefix_order(self):
        assert tree_prefixes(2, 2) == [(), (0,), (1,)]


class TestStrategyTypes:
    def test_mix_validation(self):
        with pytest.raises(ValueError, match="sum"):
            MixedStrategyII(1, 2, np.array([0.9, 0.0]))
        with pytest.raises(ValueError, match="sum"):
            MixedStrategyII(1, 2, np.array([0.5, 0.5 + 1e-11]))
        with pytest.raises(ValueError, match=r"shape \(4,\), got \(2,\)"):
            MixedStrategyII(2, 2, np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match=r"shape \(2,\), got \(1, 2\)"):
            MixedStrategyII(1, 2, np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError, match="nonnegative"):
            MixedStrategyII(1, 3, np.array([0.6, -0.1, 0.5]))
        # Within PROB_TOL of 1 the mix is renormalised.
        mix = MixedStrategyII(1, 2, np.array([0.5, 0.5 + 1e-13]))
        assert mix.q.sum() == pytest.approx(1.0, abs=1e-15)

    def test_mix_must_be_finite(self):
        # A NaN entry would make every prefix of the best response dead.
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                MixedStrategyII(1, 2, np.array([bad, 0.0]))

    def test_mix_is_a_read_only_copy(self):
        q = np.array([0.0, 0.25, 0.0, 0.75])
        mix = MixedStrategyII(2, 2, q)
        q[0] = 1.0
        assert mix.q.tolist() == [0.0, 0.25, 0.0, 0.75]
        assert mix.support.tolist() == [1, 3]
        with pytest.raises(ValueError, match="read-only"):
            mix.q[0] = 1.0

    def test_pure_mix(self):
        mix = MixedStrategyII.pure(2, 3, rank=5)
        assert mix.q.tolist() == [0.0] * 5 + [1.0] + [0.0] * 3
        assert mix.support.tolist() == [5]
        assert MixedStrategyII.pure(1, 2).support.tolist() == [0]

    def test_tree_needs_one_column_per_prefix(self):
        # Prefixes (), (0,), (1,): three columns.
        assert StrategyTreeI(2, 2, [[0, 1, 0]]).decisions.shape == (1, 3)
        msg = r"\(atoms, 3\), got int64 of shape \(1, 2\)"
        with pytest.raises(ValueError, match=msg):
            StrategyTreeI(2, 2, [[0, 0]])  # (1,) missing
        with pytest.raises(ValueError, match=r"shape \(3,\)$"):
            StrategyTreeI(2, 2, [0, 0, 0])  # no atom axis

    def test_tree_decisions_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            StrategyTreeI(2, 2, [[0, -1, 0]])

    def test_tree_decisions_must_be_integers(self):
        with pytest.raises(ValueError, match="got float64"):
            StrategyTreeI(2, 2, np.array([[0.0, 1.0, 0.0]]))

    def test_tree_decisions_are_a_read_only_copy(self):
        dec = np.array([[0, 1, 0]], dtype=np.int32)
        tree = StrategyTreeI(2, 2, dec)
        dec[0, 0] = 1
        assert tree.decisions.dtype == np.int64
        assert tree.decisions.tolist() == [[0, 1, 0]]
        with pytest.raises(ValueError, match="read-only"):
            tree.decisions[0, 0] = 1


def scalar_flow_payoff(prob, mu0, tree, mix):
    """Reference payoff: one scalar ``flow`` per (atom, sequence) path,
    summed in that order."""
    n, n_v = mix.n_stages, prob.n_v
    column = {p: c for c, p in enumerate(tree_prefixes(n, n_v))}
    total = 0.0
    for i, (w, x) in enumerate(zip(mu0.weights, mu0.points)):
        for r in mix.support:
            seq = seq_from_rank(int(r), n, n_v)
            u_vals = tuple(
                int(tree.decisions[i, column[seq[:k]]]) for k in range(n)
            )
            end = flow(prob, x, u_vals, seq)
            total += w * mix.q[r] * float(prob.g(end))
    return total


class TestPayoff:
    def test_decision_off_the_u_grid_is_rejected(self):
        tree = StrategyTreeI(2, 2, [[0, 0, 2]])  # u-grid has 2 points
        with pytest.raises(ValueError, match="stage 1: control index"):
            payoff(pennies(), dirac0(), tree, uniform_mix(2, 2))
        # Only prefix (1,) plays the bad index; a mix that never reaches
        # it has a payoff.
        mix = MixedStrategyII.pure(2, 2, rank=1)  # sequence (0, 1)
        assert payoff(pennies(), dirac0(), tree, mix) == pytest.approx(1.0)

    def test_constant_payoff(self):
        prob = make_problem(
            "u_plus_v",
            T=1.0,
            u_grid=[-1.0, 1.0],
            v_grid=[-1.0, 1.0],
            g_kind="custom-table",
            g_table=[(-100.0, 5.0), (100.0, 5.0)],
        )
        mu = dirac0()
        tree = StrategyTreeI(1, 2, [[0]])
        assert payoff(prob, mu, tree, uniform_mix(1, 2)) == pytest.approx(
            5.0, abs=1e-12
        )

    def test_frozen_dynamics(self):
        prob = make_problem(
            "frozen", dim=1, T=1.0, u_grid=[0.0, 1.0], v_grid=[0.0, 1.0],
            g_kind="quadratic",
        )
        mu = ParticleMeasure(np.array([[1.0], [2.0]]), np.array([0.5, 0.5]))
        tree = StrategyTreeI(1, 2, [[1], [0]])
        expected = 0.5 * 1.0 + 0.5 * 4.0
        assert payoff(prob, mu, tree, uniform_mix(1, 2)) == pytest.approx(
            expected, abs=0
        )

    def test_non_finite_g_is_rejected(self):
        # g is infinite at x = 2, which u = v = +1 reaches in two stages.
        prob = replace(
            pennies(),
            g=lambda x: np.where(x[..., 0] > 1.5, np.inf, np.abs(x[..., 0])),
        )
        tree = StrategyTreeI(2, 2, [[1, 1, 1]])
        with pytest.raises(ValueError, match="g returned a non-finite value"):
            payoff(prob, dirac0(), tree, uniform_mix(2, 2))
        with pytest.raises(ValueError, match="g returned a non-finite value"):
            solve_Vn(prob, dirac0(), 2)

    def test_single_stage_cancellation(self):
        prob = make_problem(
            "u_plus_v",
            T=1.0,
            u_grid=[-1.0, 1.0],
            v_grid=[-1.0, 1.0],
            g_kind="quadratic",
        )
        tree = StrategyTreeI(1, 2, [[0]])  # play u = -1 blindly
        pure_plus = MixedStrategyII.pure(1, 2, rank=1)
        assert payoff(prob, dirac0(), tree, pure_plus) == pytest.approx(
            0.0, abs=1e-24
        )


class TestBestResponse:
    def test_single_v_reduces_to_open_loop(self):
        prob = make_problem(
            "affine",
            A=[[0.0]],
            B=[[1.0]],
            C=[[1.0]],
            dim=1,
            T=1.0,
            u_grid=[-1.0, 0.5],
            v_grid=[0.25],
        )
        mu = ParticleMeasure(np.array([[0.2], [-1.0]]), np.array([0.5, 0.5]))
        mix = MixedStrategyII.pure(2, 1)
        _, val = best_response_I(prob, mu, mix)
        assert val == pytest.approx(
            exhaustive_best_response_value(prob, mu, mix), abs=1e-12
        )

    def test_pure_mix_is_anticipated(self):
        prob = pennies()
        mix = MixedStrategyII.pure(2, 2, rank=2)  # sequence (1, 0)
        tree, val = best_response_I(prob, dirac0(), mix)
        # the known pure sequence can be cancelled stage by stage
        assert val == pytest.approx(0.0, abs=1e-12)
        assert payoff(prob, dirac0(), tree, mix) == pytest.approx(
            val, abs=1e-12
        )

    def test_uniform_two_stage_value_matches_exhaustive_oracle(self):
        # Stage-1 u sees only stage-0 v; the residual |u0 + v1| term makes
        # the optimum T/2, confirmed by enumerating all 8 trees.
        prob = pennies()
        mix = uniform_mix(2, 2)
        tree, val = best_response_I(prob, dirac0(), mix)
        oracle = exhaustive_best_response_value(prob, dirac0(), mix)
        assert val == pytest.approx(oracle, abs=1e-12)
        assert val == pytest.approx(0.5, abs=1e-12)
        assert payoff(prob, dirac0(), tree, mix) == pytest.approx(
            val, abs=1e-12
        )

    def test_mix_on_another_v_grid_is_rejected(self):
        mix = MixedStrategyII.pure(1, 3)
        with pytest.raises(ValueError, match="v-grid"):
            best_response_I(pennies(), dirac0(), mix)
        with pytest.raises(ValueError, match="shapes"):
            payoff(pennies(), dirac0(), StrategyTreeI(1, 2, [[0]]), mix)

    def test_zero_mass_prefixes_are_flagged_and_complete(self):
        prob = pennies()
        mix = MixedStrategyII.pure(2, 2)
        tree, _ = best_response_I(prob, dirac0(), mix)
        assert tree.decisions.shape == (1, 3)  # (), (0,), (1,)
        assert (0, (1,)) in tree.flagged

    def test_never_beaten_by_exhaustive_enumeration(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            prob = make_problem(
                "affine",
                A=[[float(rng.uniform(-0.5, 0.5))]],
                B=[[1.0]],
                C=[[float(rng.uniform(0.5, 1.5))]],
                dim=1,
                T=1.0,
                u_grid=[-1.0, 1.0],
                v_grid=[-1.0, 1.0],
            )
            mu = ParticleMeasure(
                rng.uniform(-1, 1, size=(2, 1)), np.array([0.5, 0.5])
            )
            n = 2
            ranks = rng.choice(4, size=2, replace=False)
            probs = rng.uniform(0.2, 1.0, size=2)
            q = np.zeros(4)
            q[ranks] = probs / probs.sum()
            mix = MixedStrategyII(n, 2, q)
            _, val = best_response_I(prob, mu, mix)
            oracle = exhaustive_best_response_value(prob, mu, mix)
            assert val <= oracle + 1e-9
            assert val >= oracle - 1e-9


class TestCutCoefficients:
    def test_matches_pure_sequence_payoffs(self):
        prob = pennies()
        mu = ParticleMeasure(np.array([[0.3], [-0.4]]), np.array([0.6, 0.4]))
        mix = uniform_mix(2, 2)
        tree, _ = best_response_I(prob, mu, mix)
        rows = cut_coefficients(prob, mu, tree)
        assert rows.shape == (2, 4)
        for r in range(4):
            pure = MixedStrategyII.pure(2, 2, r)
            assert mu.weights @ rows[:, r] == pytest.approx(
                payoff(prob, mu, tree, pure), abs=1e-12
            )
            for i, x in enumerate(mu.points):
                atom = ParticleMeasure(x[None, :], np.array([1.0]))
                alone = StrategyTreeI(2, 2, tree.decisions[i:i + 1])
                assert rows[i, r] == payoff(prob, atom, alone, pure)


class TestSolveVn:
    def test_frozen_dynamics_exact(self):
        prob = make_problem(
            "frozen", dim=1, T=1.0, u_grid=[0.0, 1.0], v_grid=[0.0, 1.0],
            g_kind="quadratic",
        )
        mu = ParticleMeasure(np.array([[1.0], [3.0]]), np.array([0.25, 0.75]))
        res = solve_Vn(prob, mu, 2, tol=1e-9)
        expected = 0.25 * 1.0 + 0.75 * 9.0
        assert res.value == expected  # bit-exact
        assert res.converged and res.gap == 0.0

    def test_single_v_grid(self):
        prob = make_problem(
            "affine",
            A=[[0.0]],
            B=[[1.0]],
            C=[[1.0]],
            dim=1,
            T=1.0,
            u_grid=[-1.0, 1.0],
            v_grid=[0.5],
        )
        mu = ParticleMeasure(np.array([[0.4], [-2.0]]), np.array([0.5, 0.5]))
        res = solve_Vn(prob, mu, 2, tol=1e-9)
        # X_T = x0 + 0.5 (u0 + u1) + 0.5 under the fixed v = 0.5
        expected = 0.0
        for w, x in zip(mu.weights, mu.points):
            best = min(
                abs(float(x[0]) + 0.5 * (u0 + u1) + 0.5)
                for u0 in (-1.0, 1.0)
                for u1 in (-1.0, 1.0)
            )
            expected += w * best
        assert res.value == pytest.approx(expected, abs=1e-9)

    def test_matching_pennies_value_one(self):
        res = solve_Vn(pennies(), dirac0(), 1, tol=1e-9)
        assert res.value == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(res.q_star.q, [0.5, 0.5], atol=1e-9)

    def test_validation(self):
        prob = pennies()
        with pytest.raises(ValueError, match="tol"):
            solve_Vn(prob, dirac0(), 1, tol=0.0)
        with pytest.raises(ValueError, match="guard"):
            solve_Vn(prob, dirac0(), 25)

    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(14)
        for _ in range(6):
            prob = make_problem(
                "affine",
                A=[[float(rng.uniform(-0.4, 0.4))]],
                B=[[1.0]],
                C=[[1.0]],
                dim=1,
                T=1.0,
                u_grid=np.sort(rng.uniform(-1, 1, 2)).tolist(),
                v_grid=np.sort(rng.uniform(-1, 1, 2)).tolist(),
            )
            mu = ParticleMeasure(
                rng.uniform(-1, 1, size=(2, 1)), np.array([0.5, 0.5])
            )
            res = solve_Vn(prob, mu, 2, tol=1e-8)
            bf = brute_force_value(prob, mu, 2)
            assert abs(res.value - bf.value) <= 1e-8 + 1e-9

    def test_history_invariants(self):
        prob = make_problem(
            "u_plus_v",
            T=1.0,
            u_grid=[-1.0, 0.0, 1.0],
            v_grid=[-1.0, 0.0, 1.0],
        )
        mu = ParticleMeasure(np.array([[0.2], [-0.6]]), np.array([0.5, 0.5]))
        res = solve_Vn(prob, mu, 2, tol=1e-9)
        assert res.converged
        prev_master = np.inf
        for rec in res.history:
            # each cut is exact at the mix that generated it
            assert abs(rec.br_value - rec.cut_at_generating_mix) <= 1e-9
            # master values never increase, and lower bounds never pass them
            assert rec.master_value <= prev_master + 1e-9
            assert rec.br_value <= rec.master_value + 1e-9
            prev_master = rec.master_value

    def test_cuts_are_one_read_only_array(self):
        mu = ParticleMeasure(np.array([[0.3], [-0.4]]), np.array([0.6, 0.4]))
        res = solve_Vn(pennies(), mu, 2)
        assert res.cuts.shape == (res.iterations, 2, 2**2)
        assert not res.cuts.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            res.cuts[0, 0, 0] = 0.0
        # Each atom's value is its lowest cut at q*.
        q = res.q_star.q
        value = sum(
            w * np.min(res.cuts[:, i] @ q) for i, w in enumerate(mu.weights)
        )
        assert value == pytest.approx(res.value, abs=1e-12)

    def test_column_generation_matches_direct(self, monkeypatch):
        prob = make_problem(
            "u_plus_v",
            T=1.0,
            u_grid=[-1.0, 1.0],
            v_grid=[-1.0, 0.0, 1.0],
        )
        mu = dirac0()
        direct = solve_Vn(prob, mu, 2, tol=1e-9)
        monkeypatch.setattr(value_solver, "COLGEN_THRESHOLD", 2)
        colgen = solve_Vn(prob, mu, 2, tol=1e-9)
        assert direct.value == pytest.approx(colgen.value, abs=1e-9)

    def test_column_generation_matches_direct_with_two_atoms(
        self, monkeypatch
    ):
        prob = make_problem(
            "u_plus_v",
            T=1.0,
            u_grid=[-1.0, 0.0, 1.0],
            v_grid=[-1.0, 0.0, 1.0],
        )
        mu = ParticleMeasure(np.array([[-0.3], [0.4]]), np.array([0.5, 0.5]))
        direct = solve_Vn(prob, mu, 2, tol=1e-9)
        monkeypatch.setattr(value_solver, "COLGEN_THRESHOLD", 2)
        colgen = solve_Vn(prob, mu, 2, tol=1e-9)
        assert direct.converged and colgen.converged
        assert colgen.cuts.shape[1] == 2
        assert direct.value == pytest.approx(colgen.value, abs=1e-9)


class TestMasterLPRegressions:
    """Games whose master LP cycled, or pivoted onto a numerically
    singular basis, under a float Bland leaving rule."""

    @staticmethod
    def halves():
        return ParticleMeasure(np.array([[-0.3], [0.4]]), np.array([0.5, 0.5]))

    def test_u_plus_v_on_eight_point_v_grid(self):
        prob = make_problem(
            "u_plus_v", T=1.0, u_grid=[-1.0, 0.0, 1.0],
            v_grid=np.linspace(-1.0, 1.0, 8),
        )
        res = solve_Vn(prob, self.halves(), 2)
        assert res.converged and res.gap <= 1e-7
        assert abs(res.value - 0.5) <= 1e-7 + 1e-9

    def test_u_plus_v_on_three_point_grids_at_four_stages(self):
        prob = make_problem(
            "u_plus_v", T=1.0, u_grid=[-1.0, 0.0, 1.0],
            v_grid=[-1.0, 0.0, 1.0],
        )
        res = solve_Vn(prob, self.halves(), 4)
        assert res.converged and res.gap <= 1e-7

    def test_planar_pursuit_on_unit_directions(self):
        dirs = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
        prob = make_problem("pursuit", T=1.0, u_grid=dirs, v_grid=dirs)
        mu = ParticleMeasure(
            np.array([[0.3, 0.1], [-0.2, 0.4]]), np.array([0.5, 0.5])
        )
        res = solve_Vn(prob, mu, 3)
        assert res.converged and res.gap <= 1e-7

    def test_master_failure_names_the_lp(self, monkeypatch):
        monkeypatch.setattr(simplex, "MAX_PIVOTS", 0)
        msg = (
            r"master LP \(1 cuts x 4 sequences\): simplex hit the "
            r"iteration cap: 0 pivots on a 2 x 6 LP \(iterations=0\)"
        )
        with pytest.raises(SolverFailure, match=msg):
            solve_Vn(pennies(), dirac0(), 2)


class TestStateLattice:
    """Best responses and cuts read off the lattice, checked against the
    brute-force matrix, the zero-mass flags and the guards."""

    @staticmethod
    def _games():
        yield pennies(), dirac0(), 2
        yield make_problem(
            "affine", A=[[0.3]], B=[[1.0]], C=[[0.7]], dim=1, T=1.0,
            u_grid=[-1.0, 0.5], v_grid=[-1.0, 0.0, 1.0],
        ), ParticleMeasure(np.array([[0.4], [-0.2]]), np.array([0.3, 0.7])), 2
        yield make_problem(
            "pursuit", T=1.0, u_grid=[[1.0, 0.0], [0.0, 1.0]],
            v_grid=[[1.0, 0.0], [0.0, -1.0]],
        ), ParticleMeasure(np.array([[0.2, 0.1]]), np.array([1.0])), 3

    @staticmethod
    def _mixes(rng, n, n_v):
        n_seq = n_v**n
        dense = rng.uniform(0.1, 1.0, n_seq)
        sparse = np.where(rng.uniform(size=n_seq) < 0.5, 0.0, dense)
        sparse[int(rng.integers(n_seq))] = 1.0
        pure = np.zeros(n_seq)
        pure[n_seq - 1] = 1.0
        for q in (np.full(n_seq, 1.0), dense, sparse, pure):
            q = q / q.sum()
            yield q, MixedStrategyII(n, n_v, q)

    def test_payoffs_are_indexed_by_u_and_v_history_ranks(self):
        prob = make_problem(
            "affine", A=[[0.0, 1.0], [-1.0, 0.0]], B=[[1.0], [0.0]],
            C=[[0.0], [1.0]], dim=2, T=1.0, u_grid=[-1.0, 1.0],
            v_grid=[-1.0, 0.0, 1.0],
        )
        mu = ParticleMeasure(
            np.array([[0.1, -0.2], [-0.3, 0.4]]), np.array([0.5, 0.5])
        )
        n = 2
        lattice = build_lattice(prob, mu, n)
        assert lattice.payoffs.shape == (2, prob.n_u**n, prob.n_v**n)
        for i, x in enumerate(mu.points):
            for a in range(prob.n_u**n):
                for b in range(prob.n_v**n):
                    u_seq = seq_from_rank(a, n, prob.n_u)
                    v_seq = seq_from_rank(b, n, prob.n_v)
                    g = float(prob.g(flow(prob, x, u_seq, v_seq)))
                    assert lattice.payoffs[i, a, b] == g

    def test_value_and_cut_match_brute_force_matrix(self):
        rng = np.random.default_rng(23)
        for prob, mu, n in self._games():
            bf = brute_force_value(prob, mu, n)
            n_prefix = len(tree_prefixes(n, prob.n_v))
            for q, mix in self._mixes(rng, n, prob.n_v):
                tree, val = best_response_I(prob, mu, mix)
                assert val == pytest.approx(min(bf.matrix @ q), abs=1e-12)
                # The brute-force row of this product of trees.
                combo = tuple(
                    sum(
                        int(d) * prob.n_u ** (n_prefix - 1 - k)
                        for k, d in enumerate(row)
                    )
                    for row in tree.decisions
                )
                row = bf.matrix[bf.row_trees.index(combo)]
                rows = cut_coefficients(prob, mu, tree)
                assert rows.shape == (mu.n_atoms, prob.n_v**n)
                assert np.max(np.abs(mu.weights @ rows - row)) <= 1e-15
                # Accumulated in atom order, as the oracle does, bit-exact.
                acc = np.zeros(prob.n_v**n)
                for w, atom_row in zip(mu.weights, rows):
                    acc += w * atom_row
                assert np.array_equal(acc, row)

    def test_flagged_are_dead_children_of_live_prefixes(self):
        prob, _, n = list(self._games())[2]
        mu = ParticleMeasure(
            np.array([[0.2, 0.1], [-0.3, 0.0]]), np.array([0.5, 0.5])
        )
        # Sequences (0, 1, 0) and (1, 0, 0) live; (0, 1, 1) dead.
        q = np.array([0.0, 0.0, 0.5, 0.0, 0.5, 0.0, 0.0, 0.0])
        mix = MixedStrategyII(n, prob.n_v, q)
        tree, _ = best_response_I(prob, mu, mix)

        def mass(prefix):
            return sum(
                mix.q[r]
                for r in range(prob.n_v**n)
                if seq_from_rank(r, n, prob.n_v)[: len(prefix)] == prefix
            )

        expected = {
            (i, child)
            for i in range(mu.n_atoms)
            for k in range(1, n + 1)
            for child in itertools.product(range(prob.n_v), repeat=k)
            if mass(child) <= 0.0 and mass(child[:-1]) > 0.0
        }
        assert (0, (0, 1, 1)) in expected and (1, (0, 0)) in expected
        assert len(tree.flagged) == len(set(tree.flagged))
        assert set(tree.flagged) == expected

    def test_blow_up_raises_numeric_failure_naming_the_stage(self):
        # One RK4 step per stage multiplies x by about 4e306: stage 0 stays
        # finite, stage 1 overflows.
        prob = make_problem(
            "linear", A=[[1e77]], T=2.0, u_grid=[0.0, 1.0],
            v_grid=[0.0, 1.0], substeps=1,
        )
        mu = ParticleMeasure(np.array([[1.0]]), np.array([1.0]))
        with pytest.raises(NumericFailure, match="stage=1") as exc:
            solve_Vn(prob, mu, 2)
        assert exc.value.stage == 1

    def test_lattice_guard_names_the_size(self):
        wide = make_problem(
            "u_plus_v", T=1.0, u_grid=np.linspace(-1, 1, 10),
            v_grid=np.linspace(-1, 1, 10),
        )
        with pytest.raises(ValueError, match="= 100000000 leaf states"):
            solve_Vn(wide, dirac0(), 4)

    def test_lattice_guard_is_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(value_solver, "LATTICE_GUARD", 10)
        with pytest.raises(ValueError, match="16 leaf states .* guard 10$"):
            solve_Vn(pennies(), dirac0(), 2)

    def test_single_state_only_f_is_rejected(self):
        # Written for one state: on a batch it returns row 0's derivative,
        # shape (1, 1), which RK4 would broadcast over every row.
        prob = replace(
            pennies(), f=lambda x, u, v: np.array([u[0] + v[0]])
        )
        assert brute_force_value(prob, dirac0(), 1).value == pytest.approx(
            1.0, abs=1e-12
        )
        with pytest.raises(ValueError, match="f must act on the last axis"):
            solve_Vn(prob, dirac0(), 1)

    def test_single_state_only_g_is_rejected(self):
        # Written for one state: on a batch it returns one number for all
        # rows, shape (), which would silently weight every leaf alike.
        prob = replace(pennies(), g=lambda x: float(np.linalg.norm(x)))
        assert brute_force_value(prob, dirac0(), 1).value == pytest.approx(
            1.0, abs=1e-12
        )
        with pytest.raises(
            ValueError, match=r"g returned shape \(\) for a batch of shape "
            r"\(4, 1\); g must act on the last axis"
        ):
            solve_Vn(prob, dirac0(), 1)

    def test_payoff_of_best_responses_matches_scalar_flow(self):
        rng = np.random.default_rng(29)
        for prob, mu, n in self._games():
            for _, mix in self._mixes(rng, n, prob.n_v):
                tree, _ = best_response_I(prob, mu, mix)
                assert payoff(prob, mu, tree, mix) == scalar_flow_payoff(
                    prob, mu, tree, mix
                )

    def test_prebuilt_lattice_must_match_the_game(self):
        lattice = build_lattice(pennies(), dirac0(), 2)
        mix = uniform_mix(3, 2)
        with pytest.raises(ValueError, match="lattice"):
            best_response_I(pennies(), dirac0(), mix, lattice)


class TestBruteForce:
    def test_two_by_two_structure(self):
        bf = brute_force_value(pennies(), dirac0(), 1)
        assert bf.matrix.shape == (2, 2)
        assert sorted(bf.matrix.flatten().tolist()) == [0.0, 0.0, 2.0, 2.0]
        assert bf.value == pytest.approx(1.0, abs=1e-12)

    def test_frozen_dynamics_constant_matrix(self):
        prob = make_problem(
            "frozen", dim=1, T=1.0, u_grid=[0.0, 1.0], v_grid=[0.0, 1.0],
            g_kind="quadratic",
        )
        mu = ParticleMeasure(np.array([[1.0], [2.0]]), np.array([0.5, 0.5]))
        bf = brute_force_value(prob, mu, 1)
        expected = 0.5 * 1.0 + 0.5 * 4.0
        assert np.all(bf.matrix == expected)
        assert bf.value == expected

    def test_non_finite_g_is_named(self):
        # g is infinite at x = 2, which u = v = +1 reaches in two stages.
        prob = replace(
            pennies(),
            g=lambda x: np.where(x[..., 0] > 1.5, np.inf, np.abs(x[..., 0])),
        )
        with pytest.raises(ValueError, match="g returned a non-finite value"):
            brute_force_value(prob, dirac0(), 2)
        with pytest.raises(ValueError, match="g returned a non-finite value"):
            dpp_check(prob, dirac0(), 2)

    def test_guards(self, monkeypatch):
        # Pennies at n = 2: 2**3 trees for the one atom, 2**2 sequences.
        monkeypatch.setattr(value_solver, "BRUTE_ROW_GUARD", 7)
        with pytest.raises(ValueError, match="8 product trees .* guard 7$"):
            brute_force_value(pennies(), dirac0(), 2)
        monkeypatch.setattr(value_solver, "BRUTE_ROW_GUARD", 8)
        monkeypatch.setattr(value_solver, "BRUTE_COL_GUARD", 3)
        with pytest.raises(ValueError, match="4 sequences .* guard 3$"):
            brute_force_value(pennies(), dirac0(), 2)


class TestInformationMonotonicity:
    def test_frozen_opponent_below_blind_above(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            prob = make_problem(
                "affine",
                A=[[float(rng.uniform(-0.3, 0.3))]],
                B=[[1.0]],
                C=[[1.0]],
                dim=1,
                T=1.0,
                u_grid=[-1.0, 1.0],
                v_grid=np.sort(rng.uniform(-1, 1, 2)).tolist(),
            )
            mu = ParticleMeasure(
                rng.uniform(-1, 1, size=(2, 1)), np.array([0.5, 0.5])
            )
            n = 2
            value = brute_force_value(prob, mu, n).value
            frozen_prob = replace(prob, v_grid=prob.v_grid[[0]])
            frozen = brute_force_value(frozen_prob, mu, n).value
            blind = blind_tree_value(prob, mu, n)
            assert frozen <= value + 1e-9
            assert value <= blind + 1e-9


class TestLipschitzInMeasure:
    def test_value_lipschitz_under_perturbation(self):
        prob = pennies()
        bound_factor = prob.lip_g * np.exp(prob.lip_f_x * prob.T)
        rng = np.random.default_rng(12)
        for _ in range(8):
            pts = rng.uniform(-1, 1, size=(2, 1))
            w = np.array([0.5, 0.5])
            mu = ParticleMeasure(pts, w)
            nu = ParticleMeasure(pts + rng.normal(0, 0.3, size=pts.shape), w)
            v_mu = solve_Vn(prob, mu, 2, tol=1e-9).value
            v_nu = solve_Vn(prob, nu, 2, tol=1e-9).value
            dist, _ = wasserstein2(mu, nu)
            assert abs(v_mu - v_nu) <= bound_factor * dist + 1e-6


class TestDppCheck:
    def test_frozen_is_exact(self):
        prob = make_problem(
            "frozen", dim=1, T=1.0, u_grid=[0.0, 1.0], v_grid=[0.0, 1.0],
            g_kind="quadratic",
        )
        mu = ParticleMeasure(np.array([[1.5]]), np.array([1.0]))
        rep = dpp_check(prob, mu, 2)
        assert rep.difference == pytest.approx(0.0, abs=1e-12)

    def test_frozen_two_atoms_single_u_exact(self):
        prob = make_problem(
            "frozen", dim=1, T=1.0, u_grid=[0.0], v_grid=[0.0, 1.0],
            g_kind="quadratic",
        )
        mu = ParticleMeasure(np.array([[1.0], [2.0]]), np.array([0.5, 0.5]))
        rep = dpp_check(prob, mu, 2)
        assert rep.method == "exact-single-u"
        assert rep.difference == pytest.approx(0.0, abs=1e-12)

    def test_no_choices_is_exact(self):
        prob = make_problem(
            "affine",
            A=[[0.2]],
            B=[[1.0]],
            C=[[1.0]],
            dim=1,
            T=1.0,
            u_grid=[0.5],
            v_grid=[-0.5],
        )
        mu = dirac0()
        rep = dpp_check(prob, mu, 2)
        assert abs(rep.difference) <= 1e-9

    def test_single_v_exact_linear(self):
        prob = make_problem(
            "affine",
            A=[[0.0]],
            B=[[1.0]],
            C=[[1.0]],
            dim=1,
            T=1.0,
            u_grid=[-1.0, 1.0],
            v_grid=[0.25],
        )
        mu = ParticleMeasure(np.array([[0.3], [-0.8]]), np.array([0.5, 0.5]))
        rep = dpp_check(prob, mu, 2)
        assert rep.method == "exact-linear"
        assert abs(rep.difference) <= 1e-9

    def test_pennies_two_stage(self):
        rep = dpp_check(pennies(), dirac0(), 2)
        assert abs(rep.difference) <= 1e-3
        assert rep.method == "dyadic-grid-1/64"

    def test_v_only_dynamics(self):
        # Player I's stage-0 mix is payoff-irrelevant, so the dyadic grid
        # search is exact up to solver tolerances.
        prob = make_problem(
            "affine",
            A=[[0.0]],
            B=[[0.0]],
            C=[[1.0]],
            dim=1,
            T=1.0,
            u_grid=[-1.0, 1.0],
            v_grid=[-1.0, 1.0],
        )
        mu = dirac0()
        rep = dpp_check(prob, mu, 2)
        assert abs(rep.difference) <= 1e-6

    def test_needs_two_stages(self):
        with pytest.raises(ValueError, match="n >= 2"):
            dpp_check(pennies(), dirac0(), 1)

    def test_grid_constants_are_read_at_call_time(self, monkeypatch):
        # Two u-points at resolution 1/4: five mixes for the one atom.
        monkeypatch.setattr(value_solver, "DPP_RESOLUTION", 4)
        assert dpp_check(pennies(), dirac0(), 2).method == "dyadic-grid-1/4"
        monkeypatch.setattr(value_solver, "DPP_COMBO_GUARD", 4)
        with pytest.raises(ValueError, match="5 dyadic mix .* guard 4$"):
            dpp_check(pennies(), dirac0(), 2)


class TestEkeland:
    @staticmethod
    def _domain(rng, size, atoms=2):
        out = []
        for i in range(size):
            pts = rng.normal(0, 1, size=(atoms, 1))
            out.append((i / max(size - 1, 1), ParticleMeasure(pts, np.full(atoms, 1.0 / atoms))))
        return out

    def test_constant_function_returns_first_point(self):
        rng = np.random.default_rng(1)
        domain = self._domain(rng, 12)
        res = ekeland_point(domain, lambda t, mu: 3.0, eps=0.5)
        assert res.index == 0
        assert res.violations == ()

    def test_unique_strict_minimizer_found(self):
        rng = np.random.default_rng(2)
        domain = self._domain(rng, 15)
        target = 9
        values = np.full(len(domain), 10.0)
        values[target] = 0.0
        res = ekeland_point(domain, _TableFunc(domain, values), eps=1e-3)
        assert res.index == target
        assert res.violations == ()

    def test_random_domains_pass_exhaustive_verification(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            domain = self._domain(rng, int(rng.integers(2, 20)))
            values = rng.uniform(-1, 1, size=len(domain))
            func = _TableFunc(domain, values)
            res = ekeland_point(domain, func, eps=0.1)
            assert res.violations == ()
            # re-verify independently
            dists = [
                wasserstein2(domain[res.index][1], mu)[0] for _, mu in domain
            ]
            for j, (d, v) in enumerate(zip(dists, values)):
                assert v >= values[res.index] - 0.1 * d - 1e-12
            assert values[res.index] <= min(values) + 0.1 + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            ekeland_point([], lambda t, mu: 0.0, eps=0.1)
        rng = np.random.default_rng(4)
        domain = self._domain(rng, 3)
        with pytest.raises(ValueError, match="eps"):
            ekeland_point(domain, lambda t, mu: 0.0, eps=0.0)


class _TableFunc:
    """Deterministic lookup by object identity of the measure."""

    def __init__(self, domain, values):
        self.table = {id(mu): float(v) for (_, mu), v in zip(domain, values)}

    def __call__(self, t, mu):
        return self.table[id(mu)]
