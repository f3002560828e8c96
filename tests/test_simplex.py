import itertools
from dataclasses import replace

import numpy as np
import pytest

from blindgame import SolverFailure, max_weighted_min, simplex

PENNIES = np.array([[1.0, -1.0], [-1.0, 1.0]])


def dual_certificate_gap(weights, groups, sol):
    """Weak-duality check: the returned row duals give an upper bound
    max_k sum_j (lam_j' C_j)_k that must meet the primal value."""
    upper = -np.inf
    k = groups[0].shape[1]
    scores = np.zeros(k)
    for lam, c in zip(sol.row_duals, groups):
        scores += lam @ c
    upper = float(np.max(scores))
    return upper - sol.value


class TestSingleGroup:
    def test_constant_matrix_is_exact(self):
        c = np.full((3, 4), 0.7)
        sol = max_weighted_min([1.0], [c])
        assert sol.value == 0.7  # recomputed from the primal, bit-exact

    def test_single_column(self):
        c = np.array([[2.0], [5.0], [-1.0]])
        sol = max_weighted_min([1.0], [c])
        assert sol.value == -1.0
        assert sol.q[0] == 1.0

    def test_matching_pennies_shape(self):
        c = np.array([[1.0, -1.0], [-1.0, 1.0]])
        sol = max_weighted_min([1.0], [c])
        assert sol.value == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(sol.q, [0.5, 0.5])
        assert np.allclose(sol.row_duals[0], [0.5, 0.5])

    def test_dominated_column_is_ignored(self):
        # column 1 dominates column 0 in every row
        c = np.array([[0.0, 1.0], [0.0, 2.0]])
        sol = max_weighted_min([1.0], [c])
        assert sol.value == pytest.approx(1.0, abs=1e-12)
        assert sol.q[1] == pytest.approx(1.0, abs=1e-12)


class TestWeightedGroups:
    def test_two_groups_hand_value(self):
        # q mixes two columns; group values: min over rows.
        c1 = np.array([[1.0, 0.0]])
        c2 = np.array([[0.0, 1.0]])
        # 0.5*q0 + 0.5*q1 is maximized at any q; value = 0.5
        sol = max_weighted_min([0.5, 0.5], [c1, c2])
        assert sol.value == pytest.approx(0.5, abs=1e-12)

    def test_groups_against_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            j = int(rng.integers(1, 4))
            k = int(rng.integers(1, 5))
            groups = [
                rng.uniform(-3, 3, size=(int(rng.integers(1, 4)), k))
                for _ in range(j)
            ]
            weights = rng.uniform(0.2, 2.0, size=j)
            sol = max_weighted_min(weights, groups)
            # dense simplex grid search as an independent lower-bound oracle
            grid = _simplex_grid(k, 24)
            best = max(
                float(
                    sum(
                        w * np.min(c @ q)
                        for w, c in zip(weights, groups)
                    )
                )
                for q in grid
            )
            assert sol.value >= best - 1e-9
            assert dual_certificate_gap(weights, groups, sol) >= -1e-9

    def test_duality_certificate_tight(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            j = int(rng.integers(1, 4))
            k = int(rng.integers(1, 6))
            groups = [
                rng.uniform(-5, 5, size=(int(rng.integers(1, 5)), k))
                for _ in range(j)
            ]
            weights = rng.uniform(0.1, 1.5, size=j)
            sol = max_weighted_min(weights, groups)
            gap = dual_certificate_gap(weights, groups, sol)
            assert -1e-9 <= gap <= 1e-9


def _highs_value(weights, groups):
    """The same LP solved by scipy's HiGHS: max sum_j w_j z_j subject to
    z_j <= (C_j q)_r for every row r, q in the simplex."""
    optimize = pytest.importorskip("scipy.optimize")
    k, j = groups[0].shape[1], len(groups)
    a_ub = np.vstack(
        [
            np.hstack([-c, np.tile(np.eye(j)[g], (c.shape[0], 1))])
            for g, c in enumerate(groups)
        ]
    )
    res = optimize.linprog(
        np.concatenate([np.zeros(k), -np.asarray(weights)]),
        A_ub=a_ub,
        b_ub=np.zeros(a_ub.shape[0]),
        A_eq=np.concatenate([np.ones(k), np.zeros(j)])[None],
        b_eq=[1.0],
        bounds=[(0.0, None)] * k + [(None, None)] * j,
        method="highs",
    )
    assert res.status == 0
    return -res.fun


def _degenerate_instance(rng):
    """Integer-valued groups with duplicated rows and columns, so that
    ratio ties are the rule rather than the exception."""
    k = int(rng.integers(1, 9))
    groups = []
    for _ in range(int(rng.integers(1, 4))):
        r = int(rng.integers(1, 8))
        c = rng.integers(-2, 3, size=(r, k)).astype(float)
        if r > 1:
            c[rng.integers(r)] = c[rng.integers(r)]
        if k > 1:
            c[:, rng.integers(k)] = c[:, rng.integers(k)]
        if rng.random() < 0.3:
            c = c / 7.0  # entries inexact in binary
        groups.append(c)
    weights = rng.integers(1, 4, size=len(groups)) / 4.0
    return weights, groups


class TestDegenerateBattery:
    def test_values_match_highs(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            weights, groups = _degenerate_instance(rng)
            sol = max_weighted_min(weights, groups)
            assert sol.certified_gap <= simplex.DUALITY_TOL
            assert sol.value == pytest.approx(
                _highs_value(weights, groups), abs=1e-9
            )

    @pytest.mark.parametrize(
        "seed, pivots, q",
        [
            (2, 15, [0.35897435897435914, 0.10256410256410242,
                     0.12820512820512822, 0.07692307692307698,
                     0.1794871794871794, 0.15384615384615388]),
            (3, 11, [0.09999999999999992, 0.3, 0.2, 0.3, 0.0,
                     0.10000000000000003]),
        ],
    )
    def test_wide_ratio_ties_keep_their_pivots(self, seed, pivots, q):
        # Two 40-row groups over {-1, 0, 1}: up to 19 rows tie in one
        # ratio test.  The pivot count and q* pin every leaving row.
        rng = np.random.default_rng(seed)
        groups = [rng.integers(-1, 2, size=(40, 6)).astype(float) for _ in range(2)]
        sol = max_weighted_min([1.0, 2.0], groups)
        assert sol.iterations == pivots
        assert sol.q.tolist() == pytest.approx(q, abs=1e-12)


def _cold_lps(instances, monkeypatch):
    """The (a_mat, b, cost, layout) of each instance's cold LP, as
    ``max_weighted_min`` hands them to ``_primal_simplex``."""
    lps = []
    cold = simplex._primal_simplex

    def spy(a_mat, b, cost, layout):
        lps.append((a_mat, b, cost, layout))
        return cold(a_mat, b, cost, layout)

    monkeypatch.setattr(simplex, "_primal_simplex", spy)
    for weights, groups, *blocks in instances:
        max_weighted_min(weights, groups, None, *blocks)
    return lps


def _tie_instances():
    """The degenerate battery and the two wide-tie instances."""
    rng = np.random.default_rng(2024)
    yield from (_degenerate_instance(rng) for _ in range(100))
    for seed in (2, 3):
        rng = np.random.default_rng(seed)
        yield [1.0, 2.0], [
            rng.integers(-1, 2, size=(40, 6)).astype(float) for _ in range(2)
        ]


def _node_instances():
    """Node-form instances of ``TestNodeForm``'s generator."""
    rng = np.random.default_rng(2029)
    yield from (_node_instance(rng) for _ in range(100))


class TestCrash:
    def test_crash_tableau_is_the_fresh_tableau_of_its_basis(
        self, monkeypatch
    ):
        instances = itertools.chain(_tie_instances(), _node_instances())
        for a_mat, b, cost, layout in _cold_lps(instances, monkeypatch):
            basis, tableau = simplex._crash(a_mat, b, cost, layout)
            assert sorted(basis) == sorted(set(basis))
            fresh = simplex._fresh_tableau(a_mat, b, cost, basis)
            assert np.allclose(tableau, fresh, rtol=0.0, atol=1e-12)
            assert tableau[:-1, -1].min() >= 0.0  # primal feasible exactly

    def test_lead_rows_are_the_lexicographic_leaving_rows(self, monkeypatch):
        # From q_0 and the slacks, pivoting each level in by the primal
        # phase's ratio test, with those columns as keys, leaves the rows
        # where the crash makes the levels basic.
        for a_mat, b, cost, layout in _cold_lps(_tie_instances(), monkeypatch):
            m, n = a_mat.shape
            k = int(a_mat[0].sum())
            levels = range(k, n - (m - 1))
            start = [0, *range(n - (m - 1), n)]
            tableau = simplex._fresh_tableau(a_mat, b, cost, start)
            leaving = []
            for col in levels:
                row = simplex._leaving_row(tableau, col, np.array(start), 0)
                pivot_row = tableau[row] / tableau[row, col]
                tableau -= tableau[:, col, None] * pivot_row
                tableau[row] = pivot_row
                leaving.append(row)
            basis, _ = simplex._crash(a_mat, b, cost, layout)
            assert leaving == [basis.index(col) for col in levels]


def _grown(rng, weights, groups):
    """The groups with 1-3 rows of {-2, ..., 2} appended to random groups,
    and ``max_weighted_min(weights, groups)``, a start for them."""
    first = max_weighted_min(weights, groups)
    k, j = groups[0].shape[1], len(groups)
    grown = [c.copy() for c in groups]
    for _ in range(int(rng.integers(1, 4))):
        g = int(rng.integers(j))
        row = rng.integers(-2, 3, size=(1, k)).astype(float)
        grown[g] = np.vstack([grown[g], row])
    return grown, first


def _start(groups, basis=None):
    """The solution of ``groups`` at unit weights, its basis replaced when
    one is given."""
    sol = max_weighted_min([1.0] * len(groups), groups)
    return sol if basis is None else replace(sol, basis=basis)


class TestWarmStart:
    def test_grown_instances_match_cold_and_highs(self, monkeypatch):
        cold_calls = []
        cold = simplex._primal_simplex

        def counted(*args):
            cold_calls.append(1)
            return cold(*args)

        rng = np.random.default_rng(2025)
        for _ in range(100):
            weights, groups = _degenerate_instance(rng)
            grown, first = _grown(rng, weights, groups)
            monkeypatch.setattr(simplex, "_primal_simplex", counted)
            warm = max_weighted_min(weights, grown, first)
            monkeypatch.undo()
            assert not cold_calls  # the warm solve needed no fallback
            assert warm.certified_gap <= simplex.DUALITY_TOL
            assert warm.value == pytest.approx(
                max_weighted_min(weights, grown).value, abs=1e-9
            )
            assert warm.value == pytest.approx(
                _highs_value(weights, grown), abs=1e-9
            )

    def test_start_without_dual_feasibility_solves_cold(self):
        rng = np.random.default_rng(11)
        groups = [rng.uniform(-2, 2, size=(5, 4)) for _ in range(2)]
        cold = max_weighted_min([1.0, 0.5], groups)
        # q_0 and the slacks: primal feasible, but the levels price out.
        start = replace(cold, basis=(0, *range(6, 16)))
        warm = max_weighted_min([1.0, 0.5], groups, start)
        assert warm.value == cold.value
        assert warm.q.tolist() == cold.q.tolist()
        assert warm.iterations == cold.iterations

    def test_singular_start_solves_cold(self):
        # Columns q_0 and q_1 of the LP are equal, so no basis holds both.
        c = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
        cold = max_weighted_min([1.0], [c])
        warm = max_weighted_min([1.0], [c], replace(cold, basis=(0, 1, 3)))
        assert warm.value == cold.value
        assert warm.q.tolist() == cold.q.tolist()

    @pytest.mark.parametrize(
        "start, match",
        [
            (_start([PENNIES], (0, 3)), "needs 3 columns, got 2"),
            (_start([PENNIES], (0, 3, 4, 2)), "needs 3 columns, got 4"),
            (_start([PENNIES], (0, 3, 3)), "distinct"),
            (_start([PENNIES], (0, 3, 5)), "distinct and in \\[0, 5\\)"),
            (_start([PENNIES], (-1, 3, 4)), "distinct and in"),
            (_start([PENNIES, PENNIES]), "start has 2 groups, K 2"),
            (_start([np.eye(3)]), "start has 1 groups, K 3"),
            (
                _start([np.vstack([PENNIES, [[0.0, 0.0]]])]),
                "group 0 has 2 rows, the start 3",
            ),
        ],
    )
    def test_malformed_start_raises(self, start, match):
        # A misfit is refused by a ValueError, never by an IndexError.
        with pytest.raises(ValueError, match=match):
            max_weighted_min([1.0], [PENNIES], start)

    def test_start_basis_is_checked_against_its_own_lp(self):
        # Column 5 exists once a row is appended, but not in the LP the
        # start solved, whose 5 columns are q_0, q_1, the level and two
        # slacks.
        grown = [np.vstack([PENNIES, [[0.0, 0.0]]])]
        with pytest.raises(ValueError, match="distinct and in \\[0, 5\\)"):
            max_weighted_min([1.0], grown, _start([PENNIES], (0, 3, 5)))


class TestCertificate:
    PENNIES = PENNIES

    def test_gap_is_reported(self):
        sol = max_weighted_min([1.0], [self.PENNIES])
        assert sol.certified_gap == dual_certificate_gap(
            [1.0], [self.PENNIES], sol
        )

    def test_wrong_basis_raises(self, monkeypatch):
        # q_0, the level and the first slack: feasible with q = (1, 0),
        # value -1, while its duals bound the value by 1.
        wrong = [0, 2, 3]

        def wrong_simplex(a_mat, b, cost, layout):
            x_basic = simplex._solve_basis(a_mat, wrong, b)
            y = simplex._solve_basis(a_mat, wrong, cost[wrong], transpose=True)
            return wrong, 0, x_basic, y

        monkeypatch.setattr(simplex, "_primal_simplex", wrong_simplex)
        with pytest.raises(SolverFailure, match="certificate gap 2.000e\\+00"):
            max_weighted_min([1.0], [self.PENNIES])

    def test_certificate_matches_the_per_group_loop(self):
        # The value, duals and gap are computed on all groups stacked; the
        # loop over groups gives them to rounding.
        rng = np.random.default_rng(7)
        for _ in range(50):
            weights, groups = _degenerate_instance(rng)
            sol = max_weighted_min(weights, groups)
            value = sum(w * np.min(c @ sol.q) for w, c in zip(weights, groups))
            assert sol.value == pytest.approx(value, abs=1e-12)
            assert [len(lam) for lam in sol.row_duals] == [len(c) for c in groups]
            for w, lam in zip(weights, sol.row_duals):
                assert lam.min() >= 0.0
                assert lam.sum() == pytest.approx(w, abs=1e-12)
            assert sol.certified_gap == pytest.approx(
                dual_certificate_gap(weights, groups, sol), abs=1e-12
            )

    def test_pivot_cap_names_the_lp(self, monkeypatch):
        monkeypatch.setattr(simplex, "MAX_PIVOTS", 0)
        with pytest.raises(
            SolverFailure,
            match=r"iteration cap: 0 pivots on a 3 x 5 LP \(iterations=0\)",
        ):
            max_weighted_min([1.0], [self.PENNIES])


def _node_instance(rng):
    """Node-form groups: 1-3 weights, 1-3 branches and 1-3 blocks of width
    1-4, 1-4 rows per group over {-2, ..., 2} (ties are the rule), some
    of them divided by 7."""
    j, u, blocks = (int(x) for x in rng.integers(1, 4, size=3))
    width = int(rng.integers(1, 5))
    groups = []
    for _ in range(j * u * blocks):
        c = rng.integers(-2, 3, size=(int(rng.integers(1, 5)), width))
        groups.append(c / 7.0 if rng.random() < 0.3 else c.astype(float))
    return rng.integers(1, 4, size=j) / 4.0, groups, blocks


def _highs_node_value(weights, groups, blocks):
    """The node LP solved by scipy's HiGHS over [q, t, z]: max sum_i w_i
    t_i subject to t_i <= sum_b z_(i,u,b) for every (i, u) and z_h <=
    (C_h q_b)_r for every row r of group h, q in the simplex."""
    optimize = pytest.importorskip("scipy.optimize")
    j, h, width = len(weights), len(groups), groups[0].shape[1]
    k = blocks * width
    u = h // (j * blocks)
    rows = []
    for branch in range(j * u):
        row = np.zeros(k + j + h)
        row[k + branch // u] = 1.0
        row[k + j + branch * blocks:k + j + (branch + 1) * blocks] = -1.0
        rows.append(row)
    for node, c in enumerate(groups):
        b = node % blocks
        part = np.zeros((len(c), k + j + h))
        part[:, b * width:(b + 1) * width] = -c
        part[:, k + j + node] = 1.0
        rows.extend(part)
    res = optimize.linprog(
        np.concatenate([np.zeros(k), -np.asarray(weights), np.zeros(h)]),
        A_ub=np.array(rows),
        b_ub=np.zeros(len(rows)),
        A_eq=np.concatenate([np.ones(k), np.zeros(j + h)])[None],
        b_eq=[1.0],
        bounds=[(0.0, None)] * k + [(None, None)] * (j + h),
        method="highs",
    )
    assert res.status == 0
    return -res.fun


def node_certificate(weights, groups, blocks, sol):
    """The value sum_i w_i min_u sum_b min_r (C_(i,u,b) q_b)_r at the
    returned q, and the upper bound max_k of the dual-weighted rows of
    every group, each placed over its block."""
    j, width = len(weights), groups[0].shape[1]
    bound = np.zeros(blocks * width)
    minima = []
    for node, (lam, c) in enumerate(zip(sol.row_duals, groups)):
        cols = slice(node % blocks * width, (node % blocks + 1) * width)
        bound[cols] += lam @ c
        minima.append(np.min(c @ sol.q[cols]))
    branches = np.array(minima).reshape(j, -1, blocks).sum(axis=2)
    return float(np.dot(weights, branches.min(axis=1))), float(bound.max())


class TestNodeForm:
    def test_values_match_highs(self):
        rng = np.random.default_rng(2026)
        for _ in range(100):
            weights, groups, blocks = _node_instance(rng)
            sol = max_weighted_min(weights, groups, blocks=blocks)
            assert sol.certified_gap <= simplex.DUALITY_TOL
            assert sol.value == pytest.approx(
                _highs_node_value(weights, groups, blocks), abs=1e-9
            )

    def test_gap_is_recomputed_from_the_returned_duals(self):
        rng = np.random.default_rng(2027)
        for _ in range(50):
            weights, groups, blocks = _node_instance(rng)
            sol = max_weighted_min(weights, groups, blocks=blocks)
            value, bound = node_certificate(weights, groups, blocks, sol)
            assert sol.value == pytest.approx(value, abs=1e-12)
            assert sol.certified_gap == pytest.approx(bound - value, abs=1e-12)
            # Each group's duals sum to its branch's mass, the same in
            # every block, and each weight's branches to the weight.
            sums = np.array([lam.sum() for lam in sol.row_duals])
            sums = sums.reshape(len(weights), -1, blocks)
            assert min(lam.min() for lam in sol.row_duals) >= 0.0
            assert np.allclose(sums, sums[:, :, :1], rtol=0.0, atol=1e-12)
            assert np.allclose(
                sums[:, :, 0].sum(axis=1), weights, rtol=0.0, atol=1e-12
            )

    def test_warm_starts_from_grown_groups_match_cold_and_highs(
        self, monkeypatch
    ):
        cold_calls = []
        cold = simplex._primal_simplex

        def counted(*args):
            cold_calls.append(1)
            return cold(*args)

        rng = np.random.default_rng(2028)
        for _ in range(100):
            weights, groups, blocks = _node_instance(rng)
            first = max_weighted_min(weights, groups, blocks=blocks)
            grown = [c.copy() for c in groups]
            for _ in range(int(rng.integers(1, 4))):
                node = int(rng.integers(len(grown)))
                row = rng.integers(-2, 3, size=(1, grown[node].shape[1]))
                grown[node] = np.vstack([grown[node], row])
            monkeypatch.setattr(simplex, "_primal_simplex", counted)
            warm = max_weighted_min(weights, grown, first, blocks)
            monkeypatch.undo()
            assert not cold_calls  # the warm solve needed no fallback
            assert warm.certified_gap <= simplex.DUALITY_TOL
            assert warm.value == pytest.approx(
                max_weighted_min(weights, grown, blocks=blocks).value,
                abs=1e-9,
            )
            assert warm.value == pytest.approx(
                _highs_node_value(weights, grown, blocks), abs=1e-9
            )

    def test_wrong_basis_raises(self, monkeypatch):
        # One weight, two branches, two blocks of one column: the value is
        # max_q min(q_0, q_1) = 1/2.  q_0, the atom level, the four group
        # levels and the first coupling slack: feasible with q = (1, 0),
        # value 0, while its duals bound the value by 1.
        groups = [np.array([[1.0]]), np.array([[0.0]]),
                  np.array([[0.0]]), np.array([[1.0]])]
        assert max_weighted_min([1.0], groups, blocks=2).value == 0.5
        wrong = [0, 2, 3, 4, 5, 6, 7]

        def wrong_simplex(a_mat, b, cost, layout):
            x_basic = simplex._solve_basis(a_mat, wrong, b)
            y = simplex._solve_basis(a_mat, wrong, cost[wrong], transpose=True)
            return wrong, 0, x_basic, y

        monkeypatch.setattr(simplex, "_primal_simplex", wrong_simplex)
        with pytest.raises(SolverFailure, match="certificate gap 1.000e\\+00"):
            max_weighted_min([1.0], groups, blocks=2)

    @pytest.mark.parametrize(
        "weights, count, blocks",
        [([1.0], 3, 2), ([1.0, 1.0], 3, 1), ([1.0], 2, 0)],
    )
    def test_group_count_must_fill_every_block(self, weights, count, blocks):
        with pytest.raises(ValueError, match="per branch of `blocks` groups"):
            max_weighted_min(weights, [PENNIES] * count, blocks=blocks)


class TestValidation:
    def test_empty_groups_rejected(self):
        with pytest.raises(ValueError):
            max_weighted_min([], [])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            max_weighted_min([0.0], [np.ones((1, 2))])

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError, match="columns"):
            max_weighted_min([1.0, 1.0], [np.ones((1, 2)), np.ones((1, 3))])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            max_weighted_min([1.0], [np.array([[np.nan, 0.0]])])


def _simplex_grid(k, resolution):
    """All simplex points with denominator `resolution` (coarse oracle)."""
    out = []
    for comp in itertools.combinations_with_replacement(range(k), resolution):
        counts = np.bincount(comp, minlength=k).astype(float)
        out.append(counts / resolution)
    return out
