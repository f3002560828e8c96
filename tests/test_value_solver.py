import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

from blindgame import (
    EkelandResult,
    MatrixGame,
    MixedStrategyII,
    NumericFailure,
    ParticleMeasure,
    SolverFailure,
    StrategyTreeI,
    advance_stage,
    best_response_I,
    brute_force_value,
    build_lattice,
    cut_coefficients,
    dpp_check,
    ekeland_point,
    flow,
    make_problem,
    payoff,
    second_moment,
    seq_from_rank,
    solve_Vn,
    solve_matrix_game,
    tree_prefixes,
    wasserstein2,
)
from dataclasses import replace

import blindgame
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

    @pytest.mark.parametrize("rank", [-1, 4])
    def test_out_of_range_rank_raises(self, rank):
        # Neither wraps around: 4 would read as (0, 0), -1 as (1, 1).
        with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
            seq_from_rank(rank, 2, 2)


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
        # Within measures.WEIGHT_TOL of 1 the mix is renormalised.
        mix = MixedStrategyII(1, 2, np.array([0.5, 0.5 + 1e-13]))
        assert mix.q.sum() == pytest.approx(1.0, abs=1e-15)
        # Rounding of a normalized mix is kept as given.
        rng = np.random.default_rng(0)
        for _ in range(1000):
            q = rng.uniform(0.2, 1.0, 9)
            q = q / q.sum()
            assert np.array_equal(MixedStrategyII(1, 9, q).q, q)

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

    @pytest.mark.parametrize(
        "p, valid",
        [
            ([0.25, 0.75], True),  # exact
            ([0.7, 0.1, 0.1, 0.1], True),  # sums to 1 - 2**-53
            ([0.5, 0.5 + 2.0**-51], True),  # 2 ulps: at the threshold
            ([0.5, 0.5 + 1e-13], True),  # renormalised
            ([0.5, 0.5 + 1e-11], False),
            ([0.0, 0.3, 0.0, 0.7 + 1e-13, 0.0], True),
            ([0.6, -0.1, 0.5], False),
            ([np.nan, 1.0], False),
        ],
        ids=["exact", "ulp", "ulps", "1e-13", "1e-11", "zeros", "negative",
             "nan"],
    )
    def test_mix_and_measure_weights_follow_one_rule(self, p, valid):
        p = np.array(p)
        k = len(p)
        if not valid:
            with pytest.raises(ValueError):
                MixedStrategyII(1, k, p)
            with pytest.raises(ValueError):
                ParticleMeasure(np.zeros((k, 1)), p)
            return
        q = MixedStrategyII(1, k, p).q
        weights = ParticleMeasure(np.zeros((k, 1)), p).weights
        assert q.tobytes() == weights.tobytes()

    @pytest.mark.parametrize("rank", [-1, 4])
    def test_pure_mix_rejects_out_of_range_ranks(self, rank):
        # -1 would index the last rank through numpy's negative indexing.
        with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
            MixedStrategyII.pure(2, 2, rank)

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


def assert_dead_prefix_decisions_inert(prob, mu, mix):
    """Rewrite every decision of the best response at a zero-mass prefix
    (one no support sequence of ``mix`` reaches), check the payoff does not
    move by one bit, and return those prefixes."""
    n, n_v = mix.n_stages, prob.n_v
    tree, _, _ = best_response_I(prob, mu, mix)
    live = {
        seq_from_rank(int(r), n, n_v)[:k] for r in mix.support for k in range(n)
    }
    prefixes = tree_prefixes(n, n_v)
    cols = [c for c, p in enumerate(prefixes) if p not in live]
    dec = tree.decisions.copy()
    dec[:, cols] = (dec[:, cols] + 1) % prob.n_u
    rewritten = StrategyTreeI(n, n_v, dec)
    assert payoff(prob, mu, rewritten, mix) == payoff(prob, mu, tree, mix)
    return [prefixes[c] for c in cols]


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
        _, val, _ = best_response_I(prob, mu, mix)
        assert val == pytest.approx(
            exhaustive_best_response_value(prob, mu, mix), abs=1e-12
        )

    def test_pure_mix_is_anticipated(self):
        prob = pennies()
        mix = MixedStrategyII.pure(2, 2, rank=2)  # sequence (1, 0)
        tree, val, _ = best_response_I(prob, dirac0(), mix)
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
        tree, val, _ = best_response_I(prob, dirac0(), mix)
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
        mix = MixedStrategyII.pure(2, 2)  # sequence (0, 0)
        tree, _, _ = best_response_I(prob, dirac0(), mix)
        assert tree.decisions.shape == (1, 3)  # (), (0,), (1,)
        assert assert_dead_prefix_decisions_inert(prob, dirac0(), mix) == [
            (1,)
        ]

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
            _, val, _ = best_response_I(prob, mu, mix)
            oracle = exhaustive_best_response_value(prob, mu, mix)
            assert val <= oracle + 1e-9
            assert val >= oracle - 1e-9


class TestCutCoefficients:
    def test_matches_pure_sequence_payoffs(self):
        prob = pennies()
        mu = ParticleMeasure(np.array([[0.3], [-0.4]]), np.array([0.6, 0.4]))
        mix = uniform_mix(2, 2)
        tree, _, _ = best_response_I(prob, mu, mix)
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
        with pytest.raises(ValueError, match="tol must be > 0"):
            solve_Vn(prob, dirac0(), 1, tol=float("nan"))
        with pytest.raises(ValueError, match="guard"):
            solve_Vn(prob, dirac0(), 25)

    def test_infinite_tol_rejected(self):
        # With tol = inf the first iterate would pass as certified: value
        # 0.85 with gap 0.7 on this game, whose value is 0.5.
        prob = make_problem(
            "u_plus_v", T=1.0, u_grid=[-1.0, 0.0, 1.0],
            v_grid=[-1.0, -0.5, 0.0, 0.5, 1.0],
        )
        mu0 = ParticleMeasure(np.array([[-0.3], [0.0]]), np.array([0.5, 0.5]))
        assert solve_Vn(prob, mu0, 2).value == pytest.approx(0.5, abs=1e-9)
        with pytest.raises(ValueError, match="tol must be > 0"):
            solve_Vn(prob, mu0, 2, tol=np.inf)

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
        # At q* the cut sum lies between V(q*) >= value - gap and the
        # value; this game closes its gap to 0.
        assert res.gap == 0.0
        q = res.q_star.q
        value = sum(
            w * np.min(res.cuts[:, i] @ q) for i, w in enumerate(mu.weights)
        )
        assert value == pytest.approx(res.value, abs=1e-12)

    @pytest.mark.parametrize(
        "points, converged", [([-0.3, 0.4], True), ([0.1], False)]
    )
    def test_q_star_reaches_the_value_minus_the_gap(self, points, converged):
        # 7x7 grids at n = 3; the single-atom game, which converges at
        # the default max_iter, is stopped after 5 iterations.  The last
        # master's mix, which no best response has checked, gave 6.5e-3
        # below the value on the 2-atom game under the per-atom master;
        # the incumbent's best response is the lower bound itself.
        grid = np.linspace(-1.0, 1.0, 7)
        prob = make_problem("u_plus_v", T=1.0, u_grid=grid, v_grid=grid)
        mu = ParticleMeasure(
            np.array(points)[:, None], np.full(len(points), 1 / len(points))
        )
        lattice = build_lattice(prob, mu, 3)
        res = solve_Vn(prob, mu, 3, max_iter=200 if converged else 5)
        assert res.converged is converged
        _, v_star, _ = best_response_I(prob, mu, res.q_star, lattice)
        assert v_star >= res.value - res.gap - 1e-12
        assert v_star == max(rec.br_value for rec in res.history)

    def test_wide_master_is_one_warm_lp_over_every_sequence(
        self, monkeypatch
    ):
        prob = make_problem(
            "u_plus_v", T=1.0, u_grid=[-1.0, 1.0],
            v_grid=np.linspace(-1.0, 1.0, 11),
        )
        mu = ParticleMeasure(np.array([[0.1]]), np.array([1.0]))
        starts = []
        solve = value_solver.max_weighted_min

        def spy(weights, groups, start=None, blocks=1):
            starts.append(start)
            return solve(weights, groups, start, blocks)

        monkeypatch.setattr(value_solver, "max_weighted_min", spy)
        res = solve_Vn(prob, mu, 4, max_iter=4)
        assert res.cuts.shape == (4, 1, 11**4)
        assert len(starts) == 4 and starts[0] is None
        assert all(start is not None for start in starts[1:])


class TestZeroWeightAtoms:
    def test_value_is_the_positive_atoms_game_value(self):
        prob = pennies()
        mu = ParticleMeasure(np.array([[0.2], [-0.3]]), np.array([1.0, 0.0]))
        one = ParticleMeasure(np.array([[0.2]]), np.array([1.0]))
        tol = 1e-9
        sol = solve_Vn(prob, mu, 2, tol=tol)
        assert sol.converged
        assert abs(sol.value - solve_Vn(prob, one, 2, tol=tol).value) <= tol
        assert sol.value == pytest.approx(0.575, abs=tol)
        assert abs(sol.value - brute_force_value(prob, mu, 2).value) <= tol
        # Every atom keeps its cuts.
        assert sol.cuts.shape[1] == 2

    def test_oracle_enumerates_the_positive_atoms_trees_only(
        self, monkeypatch
    ):
        prob = pennies()
        mu = ParticleMeasure(np.array([[0.2], [-0.3]]), np.array([1.0, 0.0]))
        one = ParticleMeasure(np.array([[0.2]]), np.array([1.0]))
        # 2**3 trees for the weighted atom; the 2**6 products of both
        # atoms' trees would exceed this guard.
        monkeypatch.setattr(value_solver, "BRUTE_ROW_GUARD", 10)
        bf = brute_force_value(prob, mu, 2)
        assert bf.matrix.shape == (8, 4)
        one_atom = brute_force_value(prob, one, 2)
        assert np.array_equal(bf.matrix, one_atom.matrix)
        assert bf.value == pytest.approx(0.575, abs=1e-12)
        # One tree per atom in every row; the zero-weight atom plays tree 0.
        assert bf.row_trees == tuple((t, 0) for t in range(8))
        report = dpp_check(prob, mu, 2)
        assert report.lhs == bf.value
        assert abs(report.difference) <= 1e-9


def pinned_counts(game):
    """Iterations and master pivots of ``solve_Vn`` on one pinned game,
    which must converge."""
    halves = ParticleMeasure(np.array([[-0.3], [0.4]]), np.array([0.5, 0.5]))
    dirs = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
    prob, mu, n = {
        "upv-3x8": (make_problem(
            "u_plus_v", T=1.0, u_grid=[-1.0, 0.0, 1.0],
            v_grid=np.linspace(-1.0, 1.0, 8),
        ), halves, 2),
        "upv-3x3-n4": (make_problem(
            "u_plus_v", T=1.0, u_grid=[-1.0, 0.0, 1.0],
            v_grid=[-1.0, 0.0, 1.0],
        ), halves, 4),
        "pursuit": (
            make_problem("pursuit", T=1.0, u_grid=dirs, v_grid=dirs),
            ParticleMeasure(
                np.array([[0.3, 0.1], [-0.2, 0.4]]), np.array([0.5, 0.5])
            ),
            3,
        ),
    }[game]
    res = solve_Vn(prob, mu, n)
    assert res.converged
    return res.iterations, sum(rec.master_pivots for rec in res.history)


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

    def test_warm_masters_pivot_less_than_cold_ones(self):
        # Solved cold, the 11 masters of this game take 169 pivots.
        prob = make_problem(
            "u_plus_v", T=1.0, u_grid=[-1.0, 0.0, 1.0],
            v_grid=np.linspace(-1.0, 1.0, 8),
        )
        res = solve_Vn(prob, self.halves(), 2)
        assert sum(rec.master_pivots for rec in res.history) <= 80

    def test_failed_warm_starts_fall_back_to_cold_masters(self, monkeypatch):
        prob = make_problem(
            "u_plus_v", T=1.0, u_grid=[-1.0, 0.0, 1.0],
            v_grid=np.linspace(-1.0, 1.0, 8),
        )
        warm = solve_Vn(prob, self.halves(), 2)

        def failing(a_mat, b, cost, basis):
            raise SolverFailure("forced warm-start failure", 0)

        monkeypatch.setattr(simplex, "_dual_simplex", failing)
        cold = solve_Vn(prob, self.halves(), 2)
        assert cold.converged
        assert cold.value == pytest.approx(warm.value, abs=1e-7 + 1e-9)
        assert sum(rec.master_pivots for rec in cold.history) == 169

    @pytest.mark.parametrize(
        "game, iterations, pivots",
        [("upv-3x8", 14, 43), ("upv-3x3-n4", 24, 108), ("pursuit", 13, 172)],
    )
    def test_warm_master_pivots_are_pinned(self, game, iterations, pivots):
        # Every first master starts from its crash basis, every level
        # already basic: at q_0 and the slacks upv-3x8 (n = 2) took 45
        # pivots with the same iterations, upv-3x3-n4 27 iterations and
        # 137 pivots, pursuit 17 and 227.  The node masters (n >= 3) are
        # large enough for their path to depend on the BLAS thread count,
        # so they are counted in a child with one thread, as the benchmark
        # runs them.
        if game == "upv-3x8":
            counts = pinned_counts(game)
        else:
            code = (
                "import sys; sys.path.insert(0, sys.argv[1]); "
                "from test_value_solver import pinned_counts; "
                "print(*pinned_counts(sys.argv[2]))"
            )
            src = os.path.dirname(os.path.dirname(blindgame.__file__))
            env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
            env["PYTHONPATH"] = os.pathsep.join(
                [src, *filter(None, [env.get("PYTHONPATH")])]
            )
            tests = os.path.dirname(os.path.abspath(__file__))
            out = subprocess.run(
                [sys.executable, "-c", code, tests, game],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
            counts = tuple(int(c) for c in out.split())
        assert counts == (iterations, pivots)

    def test_first_node_master_starts_from_its_crash_basis(self):
        # From q_0 and the slacks this master took 43 pivots.
        prob = make_problem(
            "affine", A=[[0.0, 1.0], [-1.0, 0.0]], B=[[1.0], [0.0]],
            C=[[0.0], [1.0]], dim=2, T=1.0, u_grid=np.linspace(-1.0, 1.0, 7),
            v_grid=np.linspace(-1.0, 1.0, 6),
        )
        mu = ParticleMeasure(np.array([[0.2, -0.3]]), np.array([1.0]))
        res = solve_Vn(prob, mu, 3)
        assert res.history[0].master_pivots <= 2

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
    brute-force matrix, the zero-mass prefixes and the guards."""

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
        yield make_problem(
            "u_plus_v", T=1.0, u_grid=[-1.0, 0.0, 1.0],
            v_grid=[-1.0, 0.5, 1.0],
        ), ParticleMeasure(np.array([[0.3], [-0.1]]), np.array([0.6, 0.4])), 1

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
                tree, val, _ = best_response_I(prob, mu, mix)
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

    def test_node_cuts_are_best_continuations_below_every_first_u(self):
        # Read forward from depth 1, row [i, u0] of the node cuts is the
        # payoff of a real tree of atom i that plays u0 first, the best
        # such tree against the mix; at the tree's own u0 it is the tree's
        # cut, bit for bit.  Read from depth 0, the one row is that cut.
        rng = np.random.default_rng(31)
        for prob, mu, n in self._games():
            lattice = build_lattice(prob, mu, n)
            tables = value_solver._tree_tables(prob, mu.points, n)
            n_prefix = len(tree_prefixes(n, prob.n_v))
            first = np.arange(tables.shape[1]) // prob.n_u ** (n_prefix - 1)
            atoms = np.arange(mu.n_atoms)
            seqs = np.arange(prob.n_v**n)

            def read(choices, depth):
                _, leaves = value_solver._read_forward(
                    choices, prob.n_u, prob.n_v, depth
                )
                return lattice.payoffs[atoms[:, None, None], leaves, seqs]

            for q, mix in self._mixes(rng, n, prob.n_v):
                tree, _, choices = best_response_I(prob, mu, mix, lattice)
                cut = cut_coefficients(prob, mu, tree, lattice)
                tree_row = read(choices, 0)
                assert tree_row.shape == (mu.n_atoms, 1, prob.n_v**n)
                assert np.array_equal(tree_row[:, 0], cut)
                nodes = read(choices, 1)
                assert nodes.shape == (mu.n_atoms, prob.n_u, prob.n_v**n)
                own = nodes[atoms, tree.decisions[:, 0]]
                assert np.array_equal(own, cut)
                for i, u0 in np.ndindex(nodes.shape[:2]):
                    table = tables[i, first == u0]
                    assert (table == nodes[i, u0]).all(axis=1).any()
                    assert nodes[i, u0] @ q == pytest.approx(
                        min(table @ q), abs=1e-12
                    )

    def test_flagged_are_dead_children_of_live_prefixes(self):
        # The zero-mass prefixes are exactly those below a dead child of a
        # live prefix, and rewriting any decision there leaves the payoff
        # unchanged bit for bit.
        prob, _, n = list(self._games())[2]
        mu = ParticleMeasure(
            np.array([[0.2, 0.1], [-0.3, 0.0]]), np.array([0.5, 0.5])
        )
        # Sequences (0, 1, 0) and (1, 0, 0) live; (0, 1, 1) dead.
        q = np.array([0.0, 0.0, 0.5, 0.0, 0.5, 0.0, 0.0, 0.0])
        mix = MixedStrategyII(n, prob.n_v, q)

        def mass(prefix):
            return sum(
                mix.q[r]
                for r in range(prob.n_v**n)
                if seq_from_rank(r, n, prob.n_v)[: len(prefix)] == prefix
            )

        expected = {
            child
            for k in range(1, n)
            for child in itertools.product(range(prob.n_v), repeat=k)
            if mass(child) <= 0.0 and mass(child[:-1]) > 0.0
        }
        assert expected == {(0, 0), (1, 1)}
        dead = assert_dead_prefix_decisions_inert(prob, mu, mix)
        assert {p for p in dead if p[:-1] not in dead} == expected
        assert all(any(p[:k] in expected for k in range(len(p) + 1))
                   for p in dead)

        rng = np.random.default_rng(17)
        rewritten_any = 0
        for prob, mu, n in self._games():
            for _, mix in self._mixes(rng, n, prob.n_v):
                rewritten_any += bool(
                    assert_dead_prefix_decisions_inert(prob, mu, mix)
                )
        # The pure mixes at least have dead prefixes.
        assert rewritten_any >= 3

    def test_row_mix_is_a_certified_read_only_optimal_mix(self):
        for prob, mu, n in oracle_battery(np.random.default_rng(41)):
            bf = brute_force_value(prob, mu, n)
            assert bf.row_mix.shape == (len(bf.row_trees),)
            assert bf.row_mix.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(bf.row_mix >= 0.0)
            assert not bf.row_mix.flags.writeable
            with pytest.raises(ValueError):
                bf.row_mix[0] = 0.0
            # Against the mix every sequence pays at most the value.
            assert np.max(bf.row_mix @ bf.matrix) <= (
                bf.value + simplex.DUALITY_TOL
            )

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
        # shape (1, 1), which RK4 would broadcast over every row.  It is
        # right on one state, but the oracle integrates batches too.
        prob = replace(
            pennies(), f=lambda x, u, v: np.array([u[0] + v[0]])
        )
        assert flow(prob, [0.0], (1, 0), (1, 1)) == pytest.approx([1.0])
        with pytest.raises(ValueError, match="f must act on the last axis"):
            brute_force_value(prob, dirac0(), 1)
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
                tree, _, _ = best_response_I(prob, mu, mix)
                assert payoff(prob, mu, tree, mix) == scalar_flow_payoff(
                    prob, mu, tree, mix
                )

    def test_prebuilt_lattice_must_match_the_game(self):
        lattice = build_lattice(pennies(), dirac0(), 2)
        mix = uniform_mix(3, 2)
        with pytest.raises(ValueError, match="lattice"):
            best_response_I(pennies(), dirac0(), mix, lattice)


def scalar_oracle_matrix(prob, mu0, n):
    """The oracle's matrix with every (tree, sequence) cell integrated
    one state at a time through ``flow``."""
    n_u, n_v = prob.n_u, prob.n_v
    prefixes = tree_prefixes(n, n_v)
    index = {p: k for k, p in enumerate(prefixes)}
    seqs = [seq_from_rank(r, n, n_v) for r in range(n_v**n)]
    tables = []
    for x in mu0.points:
        table = []
        for decisions in itertools.product(range(n_u), repeat=len(prefixes)):
            row = []
            for seq in seqs:
                u_vals = tuple(decisions[index[seq[:k]]] for k in range(n))
                row.append(float(prob.g(flow(prob, x, u_vals, seq))))
            table.append(row)
        tables.append(np.array(table))
    rows = []
    for combo in itertools.product(range(len(tables[0])), repeat=mu0.n_atoms):
        acc = np.zeros(len(seqs))
        for w, table, t in zip(mu0.weights, tables, combo):
            acc += w * table[t]
        rows.append(acc)
    return np.array(rows)


def oracle_battery(rng):
    """Seeded u_plus_v, planar affine and pursuit games, 1-3 atoms,
    n = 1..3, small enough for the scalar reference."""
    for n in (1, 2, 3):
        for atoms in (1, 2, 3):
            if n * atoms > 4 or (n == 3 and atoms > 1):
                continue
            w = rng.dirichlet(np.ones(atoms))
            yield make_problem(
                "u_plus_v", T=1.0, u_grid=[-1.0, 1.0],
                v_grid=[-1.0, 0.5, 1.0] if n < 3 else [-1.0, 1.0],
            ), ParticleMeasure(rng.uniform(-1, 1, (atoms, 1)), w), n
            pts = rng.uniform(-1, 1, (atoms, 2))
            yield make_problem(
                "affine", A=rng.uniform(-0.5, 0.5, (2, 2)).tolist(),
                B=[[1.0], [0.0]], C=[[0.0], [1.0]], dim=2, T=1.0,
                u_grid=[-1.0, 1.0],
                v_grid=[-1.0, 0.0, 1.0] if n < 3 else [-1.0, 1.0],
                g_kind="quadratic",
            ), ParticleMeasure(pts, w), n
            yield make_problem(
                "pursuit", T=1.0, u_grid=[[1.0, 0.0], [0.0, 1.0]],
                v_grid=[[1.0, 0.0], [0.0, -1.0]],
            ), ParticleMeasure(pts, w), n


class TestBruteForce:
    def test_matrix_equals_scalar_reference_bit_for_bit(self):
        games = list(oracle_battery(np.random.default_rng(31)))
        assert len(games) == 18
        for prob, mu, n in games:
            bf = brute_force_value(prob, mu, n)
            assert np.array_equal(bf.matrix, scalar_oracle_matrix(prob, mu, n))

    def test_one_flow_call_for_every_atom_and_open_loop_u_sequence(
        self, monkeypatch
    ):
        calls = []
        real_flow = value_solver.flow

        def counting_flow(*args):
            calls.append(args)
            return real_flow(*args)

        monkeypatch.setattr(value_solver, "flow", counting_flow)
        for prob, mu, n in oracle_battery(np.random.default_rng(37)):
            calls.clear()
            brute_force_value(prob, mu, n)
            # Under the default row guard one call carries every (atom,
            # open-loop u-sequence, v-sequence) row.
            assert len(calls) == 1
            assert len(calls[0][1]) == mu.n_atoms * prob.n_u**n * prob.n_v**n

    def test_row_guard_splits_the_batch_into_whole_blocks(self, monkeypatch):
        # Each (atom, open-loop u-sequence) block has one row per
        # v-sequence.  Pennies at n = 2 has 4 blocks of 4 rows, so a guard
        # of 8 gives two calls of two blocks; 3 atoms at n = 1 have 6 blocks
        # of 2 rows, 4 to a call; a 3-point v-grid at n = 2 has 9-row
        # blocks, above half the guard of 16, so one block to a call.
        three_v = make_problem(
            "u_plus_v", T=1.0, u_grid=[-1.0, 1.0], v_grid=[-1.0, 0.5, 1.0]
        )
        three_atoms = ParticleMeasure(
            np.array([[0.2], [-0.3], [0.7]]), np.array([0.2, 0.3, 0.5])
        )
        cases = [
            (pennies(), dirac0(), 2, 8, [8, 8]),
            (pennies(), three_atoms, 1, 8, [8, 4]),
            (three_v, dirac0(), 2, 16, [9] * 4),
        ]
        real_flow = value_solver.flow
        for prob, mu, n, guard, expected in cases:
            whole = brute_force_value(prob, mu, n)
            rows = []
            with monkeypatch.context() as m:
                m.setattr(value_solver, "BRUTE_ROW_GUARD", guard)
                m.setattr(
                    value_solver, "flow",
                    lambda *args: rows.append(len(args[1])) or real_flow(*args),
                )
                split = brute_force_value(prob, mu, n)
            assert rows == expected
            assert max(rows) <= guard
            assert np.array_equal(split.matrix, whole.matrix)
            assert np.array_equal(split.matrix, scalar_oracle_matrix(prob, mu, n))

    def test_blow_up_raises_numeric_failure_naming_the_stage(self):
        # One RK4 step per stage multiplies x by about 4e306: stage 0 stays
        # finite, stage 1 overflows.
        prob = make_problem(
            "linear", A=[[1e77]], T=2.0, u_grid=[0.0, 1.0],
            v_grid=[0.0, 1.0], substeps=1,
        )
        mu = ParticleMeasure(np.array([[1.0]]), np.array([1.0]))
        with pytest.raises(NumericFailure, match="stage=1") as exc:
            brute_force_value(prob, mu, 2)
        assert exc.value.stage == 1

    def test_oracle_and_solver_name_the_same_failing_stage(self):
        # u = 1e308 overflows in the stage it is played: in stage 0 on the
        # u-sequences that open with it, in stage 1 on (0, 1e308).  Both
        # integrate every u-sequence's stage 0 before any stage 1.
        prob = make_problem(
            "affine", A=[[0.0]], B=[[1.0]], C=[[0.0]], dim=1, T=2.0,
            u_grid=[0.0, 1e308], v_grid=[0.0], substeps=1,
        )
        for solver in (solve_Vn, brute_force_value):
            with pytest.raises(NumericFailure, match="stage=0") as exc:
                solver(prob, dirac0(), 2)
            assert exc.value.stage == 0

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

    def test_oracle_shares_nothing_with_the_solver(self):
        # The oracle is the reference the cutting-plane path is checked
        # against, so no code of it, nested code included, names a
        # function of that path.
        fast = {
            "build_lattice", "_lattice_for", "best_response_I",
            "cut_coefficients", "terminal_costs", "solve_Vn",
            "max_weighted_min",
        }
        for func in (
            brute_force_value,
            value_solver._tree_tables,
            value_solver._product_game,
            dpp_check,
        ):
            codes, names = [func.__code__], set()
            while codes:
                code = codes.pop()
                names.update(code.co_names)
                codes += [c for c in code.co_consts if hasattr(c, "co_names")]
            assert not names & fast, func.__name__

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


def per_atom_dpp_reference(prob, mu0, n, rho):
    """Right side of the one-step DPP check at the first-stage mix ``rho``
    (one row per atom over the u-grid), every continuation measure built
    atom by atom: each atom's branches in u order, each moved by a
    single-state ``advance_stage`` and weighted by its mass times its mix
    weight."""
    tau = prob.T / n
    cont_prob = replace(prob, T=prob.T - tau)
    worst = -np.inf
    for iv in range(prob.n_v):
        points, weights = [], []
        for w, x, row in zip(mu0.weights, mu0.points, rho):
            for iu, r in enumerate(row):
                if r > 0.0:
                    points.append(advance_stage(
                        prob, x, prob.u_grid[iu], prob.v_grid[iv], tau
                    ))
                    weights.append(w * r)
        mu1 = ParticleMeasure(np.array(points), np.array(weights))
        worst = max(worst, brute_force_value(cont_prob, mu1, n - 1).value)
    return float(worst)


def first_stage_mix(prob, bf, n):
    """Each atom's marginal of the oracle's row mix on its tree's first
    decision, summed row by row."""
    first_place = prob.n_u ** (len(tree_prefixes(n, prob.n_v)) - 1)
    rho = np.zeros((len(bf.row_trees[0]), prob.n_u))
    for p, trees in zip(bf.row_mix, bf.row_trees):
        for a, t in enumerate(trees):
            rho[a, t // first_place] += p
    return rho


def dpp_battery(rng):
    """Nine seeded n = 2 games, 1 or 2 atoms: u_plus_v, single-u affine
    with a quadratic g, and planar affine."""
    for k in range(9):
        atoms = 1 + k % 2
        if k % 3 == 0:
            prob = make_problem(
                "u_plus_v", T=1.0,
                u_grid=np.sort(rng.uniform(-1, 1, 2)),
                v_grid=np.sort(rng.uniform(-1, 1, 2)),
            )
        elif k % 3 == 1:
            prob = make_problem(
                "affine", A=[[rng.uniform(-0.5, 0.5)]], B=[[1.0]],
                C=[[1.0]], dim=1, T=1.0, u_grid=[rng.uniform(-1, 1)],
                v_grid=np.sort(rng.uniform(-1, 1, 3)), g_kind="quadratic",
            )
        else:
            prob = make_problem(
                "affine", A=[[0.0, 1.0], [-1.0, 0.0]], B=[[1.0], [0.0]],
                C=[[0.0], [1.0]], dim=2, T=1.0,
                u_grid=np.sort(rng.uniform(-1, 1, 2)),
                v_grid=np.sort(rng.uniform(-1, 1, 2)),
            )
        w = rng.uniform(0.2, 1.0, atoms)
        yield prob, ParticleMeasure(
            rng.uniform(-1, 1, (atoms, prob.dim)), w / w.sum()
        )


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
        # With one v-point the continuation is linear in the measure.
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
        assert abs(rep.difference) <= 1e-9

    def test_pennies_two_stage(self):
        rep = dpp_check(pennies(), dirac0(), 2)
        assert abs(rep.difference) <= 1e-9

    def test_v_only_dynamics(self):
        # Player I's stage-0 mix is payoff-irrelevant here.
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
        assert abs(rep.difference) <= 1e-9

    def test_needs_two_stages(self):
        with pytest.raises(ValueError, match="n >= 2"):
            dpp_check(pennies(), dirac0(), 1)

    def test_exact_linear_continues_from_the_one_stage_images(
        self, monkeypatch
    ):
        # The left side integrates every open-loop trajectory over all n
        # stages in one call; the right side then starts every
        # continuation at the one-stage images that rho* charges, in one
        # call of n - 1 stages.
        prob = make_problem(
            "affine", A=[[0.3]], B=[[1.0]], C=[[1.0]], dim=1, T=1.0,
            u_grid=[-1.0, 0.2, 1.0], v_grid=[0.4],
        )
        mu = ParticleMeasure(np.array([[0.3], [-0.8]]), np.array([0.4, 0.6]))
        support = np.count_nonzero(
            first_stage_mix(prob, brute_force_value(prob, mu, 3), 3)
        )
        real_flow = value_solver.flow
        calls = []

        def counting_flow(*args):
            calls.append((len(args[2]), len(args[1])))
            return real_flow(*args)

        monkeypatch.setattr(value_solver, "flow", counting_flow)
        rep = dpp_check(prob, mu, 3)
        assert abs(rep.difference) <= 1e-12
        # (stages, rows); the single v-point makes one sequence per side.
        assert calls == [
            (3, mu.n_atoms * prob.n_u**3), (2, support * prob.n_u**2)
        ]

    def test_matches_per_atom_reference(self):
        # At the oracle's own first stage rho* the right side equals the
        # left side, and the reference rebuilds it bit for bit.
        for k, (prob, mu) in enumerate(dpp_battery(np.random.default_rng(15))):
            rep = dpp_check(prob, mu, 2)
            bf = brute_force_value(prob, mu, 2)
            rhs = per_atom_dpp_reference(
                prob, mu, 2, first_stage_mix(prob, bf, 2)
            )
            assert repr((rep.lhs, rep.rhs)) == repr((bf.value, rhs)), k
            assert abs(rep.difference) <= 1e-9, k

    def test_no_first_stage_mix_beats_the_value(self):
        # The other direction of the DPP: every first-stage mix lets
        # Player II reach at least the n-stage value.
        draws = np.random.default_rng(16)
        for k, (prob, mu) in enumerate(dpp_battery(np.random.default_rng(15))):
            lhs = brute_force_value(prob, mu, 2).value
            for _ in range(3):
                rho = draws.dirichlet(np.ones(prob.n_u), size=mu.n_atoms)
                rhs = per_atom_dpp_reference(prob, mu, 2, rho)
                assert rhs >= lhs - 1e-9, k

    def test_row_guard_caps_each_continuation_game(self, monkeypatch):
        # Four u-points, two v-points, one atom at n = 2: the left side has
        # 4**3 = 64 trees; rho* charges two u-points, so each continuation
        # game has two atoms of 4 one-stage trees each, 16 product trees.
        # The guard is lifted only around the left side's oracle call.
        prob = make_problem(
            "u_plus_v", T=1.0, u_grid=[-1.0, -0.5, 0.5, 1.0],
            v_grid=[-1.0, 1.0],
        )
        real_oracle = value_solver.brute_force_value

        def lifted_oracle(*args):
            monkeypatch.setattr(value_solver, "BRUTE_ROW_GUARD", 64)
            try:
                return real_oracle(*args)
            finally:
                monkeypatch.setattr(value_solver, "BRUTE_ROW_GUARD", 15)

        monkeypatch.setattr(value_solver, "brute_force_value", lifted_oracle)
        monkeypatch.setattr(value_solver, "BRUTE_ROW_GUARD", 15)
        calls = []
        real_flow = value_solver.flow
        monkeypatch.setattr(
            value_solver, "flow",
            lambda *args: calls.append((len(args[2]), len(args[1])))
            or real_flow(*args),
        )
        with pytest.raises(ValueError, match="^16 product trees .* guard 15$"):
            dpp_check(prob, dirac0(), 2)
        # Only the left side ran: one 2-stage call of 4**2 open-loop
        # u-sequences times 2**2 v-sequences, 64 rows under its lifted guard.
        assert calls == [(2, 4**2 * 2**2)]

    def test_exact_check_integrates_each_support_image_once(
        self, monkeypatch
    ):
        # A 2-atom u_plus_v game at n = 2.  The left side makes one flow
        # call of atoms * n_u**n * n_v**n rows; rho* charges all four
        # (atom, u) pairs (one of them 3.6e-16, a degenerate basic value
        # of the oracle's LP), and one more call builds the (n-1)-stage
        # tables of their n_v one-stage images, n_u**(n-1) * n_v**(n-1)
        # rows each.
        prob = make_problem(
            "u_plus_v", T=1.0, u_grid=[-1.0, 0.5], v_grid=[-0.5, 1.0]
        )
        mu = ParticleMeasure(np.array([[0.2], [-0.4]]), np.array([0.5, 0.5]))
        flows, oracles = [], []
        real_flow = value_solver.flow
        real_oracle = value_solver.brute_force_value
        monkeypatch.setattr(
            value_solver, "flow",
            lambda *args: flows.append(args) or real_flow(*args),
        )
        monkeypatch.setattr(
            value_solver, "brute_force_value",
            lambda *args: oracles.append(args) or real_oracle(*args),
        )
        rep = dpp_check(prob, mu, 2)
        assert repr(rep) == (
            "DppReport(lhs=0.4113636363636367, rhs=0.4113636363636367, "
            "difference=0.0)"
        )
        assert [len(args[1]) for args in flows] == [
            2 * 2**2 * 2**2, 4 * 2 * 2 * 2
        ]
        # The second call starts from the 4 * 2 one-stage images, each in
        # one block of 4 consecutive rows.
        starts = flows[1][1][::4]
        assert starts.shape == (8, 1)
        assert np.array_equal(flows[1][1], np.repeat(starts, 4, axis=0))
        assert len(oracles) == 1


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
        with pytest.raises(ValueError, match="eps must be > 0"):
            ekeland_point(domain, lambda t, mu: 0.0, eps=float("nan"))
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="func must be finite"):
                ekeland_point(domain, lambda t, mu: bad if t > 0 else 0.0, 0.1)

    def test_mixed_dimensions_raise_naming_the_index(self):
        domain = [
            (0.0, ParticleMeasure([[0.0, 0.0]], [1.0])),
            (0.5, ParticleMeasure([[1.0, 0.0]], [1.0])),
            (1.0, ParticleMeasure([[3.0]], [1.0])),
        ]
        for values in ([0.0, 1.0, 2.0], [2.0, 1.0, 0.0]):
            with pytest.raises(ValueError, match=r"domain\[2\] has dimension 1"):
                ekeland_point(domain, _TableFunc(domain, values), eps=0.5)
        dirac = [domain[0], domain[2]]
        for values in ([0.0, 1.0], [1.0, 0.0]):
            with pytest.raises(ValueError, match="dimension mismatch"):
                ekeland_point(dirac, _TableFunc(dirac, values), eps=0.5)

    def test_mean_bound_never_exceeds_w2(self):
        # Weights 2e-13 off 1/2 snap to 1/2, so wasserstein2 sees an exact
        # translate 1e-6 away while the float means are 1.0000004e-6 apart.
        mu = ParticleMeasure([[-1.0], [1.0]], [0.5, 0.5])
        nu = ParticleMeasure(mu.points + 1e-6, [0.5 - 2e-13, 0.5 + 2e-13])
        lb = value_solver._mean_lower_bounds([mu, nu])(0)[1]
        assert 0.0 < lb <= wasserstein2(mu, nu)[0]
        rng = np.random.default_rng(16)
        decided = 0
        for k in range(240):
            dim = 1 + k % 3
            mu = _battery_measure(rng, k, dim)
            # The same offset, moved by 1e-7 to 10 so the means part.
            shift = 10.0 ** rng.uniform(-7, 1) * rng.normal(size=dim)
            nu = _battery_measure(rng, k, dim, mu.points[0] + shift)
            for a, b in [(mu, nu), (nu, mu), (mu, mu)]:
                lb = value_solver._mean_lower_bounds([a, b])(0)[1]
                assert lb <= wasserstein2(a, b)[0], (k, lb)
                decided += lb > 0.0
        assert decided > 100  # the bound is not vacuous

    def test_matches_unscreened_reference(self):
        rng = np.random.default_rng(17)
        for k in range(60):
            domain, values, eps = _battery_domain(rng, k)
            res = ekeland_point(domain, _TableFunc(domain, values), eps)
            assert res == unscreened_ekeland(domain, values, eps), k

    def test_margin_ties_match_unscreened_reference(self):
        # Values exactly at, and one ulp either side of, the descent's and
        # the certificate's thresholds against point 0.  Only points within
        # W2 <= 1 of it get one, so point 0 stays eps-optimal and the
        # search starts there.
        rng = np.random.default_rng(18)
        for k in range(30):
            domain, values, eps = _battery_domain(rng, k)
            values[0] = min(values)
            for j in range(1, len(domain)):
                w = wasserstein2(domain[0][1], domain[j][1])[0]
                edge = values[0] - eps * w - (1e-12 if j % 2 else 0.0)
                values[j] = values[0] + 1.0 if w > 1.0 else [
                    np.nextafter(edge, -np.inf), edge,
                    np.nextafter(edge, np.inf),
                ][j % 3]
            res = ekeland_point(domain, _TableFunc(domain, values), eps)
            assert res == unscreened_ekeland(domain, values, eps), k

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mean_bound_skips_most_transport_solves(self, seed, monkeypatch):
        # Shaped like the kernels benchmark's ekeland domain: 150 jittered
        # copies of an 8-atom planar cloud in a seeded pose, valued by
        # t + second moment, at eps = 5.
        shape = np.random.default_rng(2024).normal(0.0, 0.5, size=(8, 2))
        base = shape + np.random.default_rng(seed).normal(0.0, 0.5, size=2)
        jitter = np.random.default_rng(2024)
        domain = [
            (i / 149, ParticleMeasure(
                base + jitter.normal(0.0, 0.5, size=base.shape),
                np.full(8, 1.0 / 8),
            ))
            for i in range(150)
        ]
        func = lambda t, mu: t + second_moment(mu)
        calls = []

        def counting(mu, nu):
            calls.append(1)
            return wasserstein2(mu, nu)

        monkeypatch.setattr(value_solver, "wasserstein2", counting)
        res = ekeland_point(domain, func, 5.0)
        assert res.violations == ()
        # Without the screen this domain takes 149 transport solves.
        assert 0 < len(calls) <= 20
        monkeypatch.undo()
        values = [func(t, mu) for t, mu in domain]
        assert res == unscreened_ekeland(domain, values, 5.0)


def unscreened_ekeland(domain, values, eps):
    """The variational point search with an exact W2 on every comparison."""
    dist_cache = {}

    def dist(i, j):
        if i == j:
            return 0.0
        key = (min(i, j), max(i, j))
        if key not in dist_cache:
            dist_cache[key] = wasserstein2(domain[key[0]][1], domain[key[1]][1])[0]
        return dist_cache[key]

    values = [float(v) for v in values]
    min_value = min(values)
    current = next(i for i, v in enumerate(values) if v <= min_value + eps)
    iterations = 0
    while True:
        improving = [
            j for j in range(len(domain))
            if values[j] < values[current] - eps * dist(current, j)
        ]
        if not improving:
            break
        target = (values[current] + min(values[j] for j in improving)) / 2.0
        current = next(j for j in improving if values[j] <= target)
        iterations += 1
    violations = tuple(
        j for j in range(len(domain))
        if values[j] < values[current] - eps * dist(current, j) - 1e-12
    )
    if values[current] > min_value + eps + 1e-12:
        violations = violations + (current,)
    return EkelandResult(current, violations, iterations, values[current])


def _battery_measure(rng, k, dim, offset=None):
    """A seeded measure for screen tests: uniform, Dirichlet, 1/3 or
    zero-weight atoms by ``k % 4``; near the origin or far out (up to 1e8)
    with jitter down to 1e-7 by ``k // 4 % 2``; centred when ``k % 5 == 0``.
    """
    kind = k % 4
    atoms = 3 if kind == 2 else int(rng.integers(1, 6))
    if kind == 0:
        w = np.full(atoms, 1.0 / atoms)
    elif kind == 1:
        w = rng.dirichlet(np.ones(atoms))
    elif kind == 2:
        w = np.full(3, 1.0 / 3.0)
    else:
        w = rng.dirichlet(np.ones(atoms + 1))
        w = np.append(w[:-1], 0.0)
        w[0] += 1.0 - w.sum()
    if offset is None:
        offset = rng.uniform(-1e8, 1e8, dim) if k // 4 % 2 else 0.0
    scale = 10.0 ** rng.uniform(-7, 0) if k // 4 % 2 else 1.0
    pts = offset + scale * rng.normal(size=(len(w), dim))
    if k % 5 == 0:
        pts = pts - w @ pts
    return ParticleMeasure(pts, w)


def _battery_domain(rng, k):
    """A seeded domain, its values (on a 1/4 lattice for even k) and eps."""
    dim = 1 + k % 3
    size = int(rng.integers(2, 16))
    offset = rng.uniform(-1e8, 1e8, dim) if k // 4 % 2 else None
    domain = [
        (i / size, _battery_measure(rng, k, dim, offset)) for i in range(size)
    ]
    if k % 2 == 0:
        values = rng.integers(-8, 9, size) / 4.0
    else:
        values = rng.uniform(-1, 1, size)
    eps = float(rng.choice([0.05, 0.5, 5.0]))
    return domain, values, eps


class _TableFunc:
    """Deterministic lookup by object identity of the measure."""

    def __init__(self, domain, values):
        self.table = {id(mu): float(v) for (_, mu), v in zip(domain, values)}

    def __call__(self, t, mu):
        return self.table[id(mu)]
