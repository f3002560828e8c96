import itertools
import os
import sys
import warnings
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from blindgame import (
    InvalidStateError,
    ParticleMeasure,
    SolverFailure,
    TransportPlan,
    barycentric_projection,
    l2_norm,
    plan_to_csv,
    reverse_plan,
    wasserstein2,
)
from blindgame import transport

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from test_transport_golden import pivot_count  # noqa: E402


def random_cloud(rng, n, d, equal_weights=False):
    pts = rng.uniform(-2.0, 2.0, size=(n, d))
    if equal_weights:
        w = np.full(n, 1.0 / n)
    else:
        w = rng.uniform(0.2, 1.0, size=n)
        w = w / w.sum()
    return ParticleMeasure(pts, w)


def readme_pair(atoms, dim):
    """The README's equal-weight pair: normal clouds, the target shifted."""
    rng = np.random.default_rng(atoms)
    w = np.full(atoms, 1.0 / atoms)
    return (ParticleMeasure(rng.normal(size=(atoms, dim)), w),
            ParticleMeasure(rng.normal(size=(atoms, dim)) + 0.5, w))


def dyadic_cloud(rng, n, d):
    """Positive unequal weights k / 32 with exact sums in any order, so a
    reordered copy keeps every weight bit for bit."""
    w = (rng.multinomial(32 - n, np.full(n, 1.0 / n)) + 1) / 32.0
    return ParticleMeasure(rng.uniform(-2.0, 2.0, size=(n, d)), w)


def permutation_w2(mu, nu):
    """Independent oracle for equal-weight clouds: exhaustive assignment."""
    n = mu.n_atoms
    assert nu.n_atoms == n
    best = np.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(
            (1.0 / n) * float(np.sum((mu.points[i] - nu.points[j]) ** 2))
            for i, j in enumerate(perm)
        )
        best = min(best, cost)
    return np.sqrt(best)


class TestWasserstein:
    def test_identical_measures_have_zero_distance(self):
        mu = ParticleMeasure(
            np.array([[0.0, 1.0], [2.0, -1.0]]), np.array([0.3, 0.7])
        )
        d, plan = wasserstein2(mu, mu)
        assert d == 0.0
        assert plan.cost == 0.0

    def test_single_atoms(self):
        a = ParticleMeasure(np.array([[0.0, 0.0]]), np.array([1.0]))
        b = ParticleMeasure(np.array([[3.0, 4.0]]), np.array([1.0]))
        d, _ = wasserstein2(a, b)
        assert d == pytest.approx(5.0, abs=1e-12)

    def test_two_point_shift(self):
        # uniform on {0,2} vs uniform on {1,3}: monotone matching wins
        a = ParticleMeasure(np.array([[0.0], [2.0]]), np.array([0.5, 0.5]))
        b = ParticleMeasure(np.array([[1.0], [3.0]]), np.array([0.5, 0.5]))
        d, plan = wasserstein2(a, b)
        assert d == pytest.approx(1.0, abs=1e-12)
        assert plan.coupling[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert plan.coupling[1, 1] == pytest.approx(0.5, abs=1e-12)
        assert plan.coupling[0, 1] == 0.0

    def test_dimension_mismatch(self):
        a = ParticleMeasure(np.array([[0.0]]), np.array([1.0]))
        b = ParticleMeasure(np.array([[0.0, 0.0]]), np.array([1.0]))
        with pytest.raises(ValueError, match="dimension"):
            wasserstein2(a, b)

    def test_matches_permutation_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            d = int(rng.integers(1, 4))
            mu = random_cloud(rng, n, d, equal_weights=True)
            nu = random_cloud(rng, n, d, equal_weights=True)
            dist, _ = wasserstein2(mu, nu)
            assert dist == pytest.approx(permutation_w2(mu, nu), abs=1e-12)

    def test_zero_distance_iff_same_after_merging_duplicates(self):
        a = ParticleMeasure(np.array([[0.0], [0.0]]), np.array([0.5, 0.5]))
        b = ParticleMeasure(np.array([[0.0]]), np.array([1.0]))
        assert wasserstein2(a, b)[0] == 0.0
        c = ParticleMeasure(np.array([[1e-6]]), np.array([1.0]))
        assert wasserstein2(b, c)[0] > 0.0

    def test_unequal_weights(self):
        # all of a's mass must reach both atoms of b
        a = ParticleMeasure(np.array([[0.0]]), np.array([1.0]))
        b = ParticleMeasure(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))
        d, plan = wasserstein2(a, b)
        assert d == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(plan.coupling, [[0.5, 0.5]])

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            mu = random_cloud(rng, int(rng.integers(1, 6)), 2)
            nu = random_cloud(rng, int(rng.integers(1, 6)), 2)
            d1, _ = wasserstein2(mu, nu)
            d2, _ = wasserstein2(nu, mu)
            assert abs(d1 - d2) <= 1e-12

    def test_triangle_inequality(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            mus = [random_cloud(rng, int(rng.integers(1, 5)), 2) for _ in range(3)]
            d02, _ = wasserstein2(mus[0], mus[2])
            d01, _ = wasserstein2(mus[0], mus[1])
            d12, _ = wasserstein2(mus[1], mus[2])
            assert d02 <= d01 + d12 + 1e-9

    def test_overflowing_costs_name_the_shape(self):
        mu = ParticleMeasure(
            np.array([[-1e200, 1e200], [0.0, 0.0]]), np.array([0.5, 0.5])
        )
        nu = ParticleMeasure(
            np.array([[1e200, -1e200], [1.0, 1.0], [2.0, 2.0]]),
            np.full(3, 1.0 / 3.0),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            with pytest.raises(ValueError, match="overflow on a 2 x 3 problem"):
                wasserstein2(mu, nu)

    def test_dyadic_scaling_scales_the_distance_exactly(self):
        # Scaling by 2**500 is exact on every float the solver forms, so
        # the plan is the same bit for bit, far from overflow and near it.
        rng = np.random.default_rng(21)
        mu, nu = random_cloud(rng, 7, 2), random_cloud(rng, 5, 2)
        d, plan = wasserstein2(mu, nu)
        big = (ParticleMeasure(m.points * 2.0**500, m.weights) for m in (mu, nu))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d_big, plan_big = wasserstein2(*big)
        assert d_big == d * 2.0**500
        assert np.array_equal(plan_big.coupling, plan.coupling)

    def test_marginals_of_plan(self):
        rng = np.random.default_rng(17)
        mu = random_cloud(rng, 4, 2)
        nu = random_cloud(rng, 3, 2)
        _, plan = wasserstein2(mu, nu)
        assert np.max(np.abs(plan.coupling.sum(axis=1) - mu.weights)) <= 1e-9
        assert np.max(np.abs(plan.coupling.sum(axis=0) - nu.weights)) <= 1e-9


def exact_problem(mu, nu):
    """Integer costs, marginals, float costs and cost scale of a pair's
    positive-mass atoms, as the simplex sees them."""
    a, b, _ = transport._integer_marginals(mu, nu)
    rows = [i for i, w in enumerate(a) if w > 0]
    cols = [j for j, w in enumerate(b) if w > 0]
    cost_f = transport._cost_matrix(mu, nu)[np.ix_(rows, cols)]
    cost, scale = transport._integer_costs(cost_f)
    return cost, [a[i] for i in rows], [b[j] for j in cols], cost_f, scale


def lattice_measure(rng, n, dim):
    """Integer-lattice atoms, so costs tie, under equal, partly zero or
    positive unequal weights."""
    points = rng.integers(-2, 3, size=(n, dim)).astype(float)
    kind = int(rng.integers(3))  # 0 equal, 1 partly zero, 2 positive
    w = np.ones(n) if kind == 0 else rng.integers(kind - 1, 4, size=n) * 1.0
    if w.sum() == 0.0:
        w[int(rng.integers(n))] = 1.0
    return ParticleMeasure(points, w / w.sum())


def highs_cost(mu, nu):
    """Optimal cost of the pair as a plain LP over the coupling (HiGHS)."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    m, k = mu.n_atoms, nu.n_atoms
    a_eq = np.zeros((m + k, m * k))
    for i in range(m):
        a_eq[i, i * k:(i + 1) * k] = 1.0
    for j in range(k):
        a_eq[m + j, j::k] = 1.0
    res = linprog(
        transport._cost_matrix(mu, nu).reshape(-1), A_eq=a_eq,
        b_eq=np.concatenate([mu.weights, nu.weights]), bounds=(0, None),
        method="highs-ds",
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    return float(res.fun)


def dantzig_reference(cost, a, b):
    """Exact full-scan transportation simplex, recomputing the tree and
    every reduced cost at each pivot: the entering cells in order, the
    final flows, and the gaps from each least reduced cost to the next.

    It starts from the northwest corner, enters the least reduced cost
    (ties to the smallest ``i*k + j``), and, walking the cycle from its apex
    (tree rooted at row 0) down to the entering row, across the entering
    cell and up from its column, leaves by the last minus-cell of least
    flow.
    """
    m, k = len(a), len(b)
    flows, ra, rb, i, j = {}, list(a), list(b), 0, 0
    while True:
        f = min(ra[i], rb[j])
        flows[i, j] = f
        ra[i] -= f
        rb[j] -= f
        if (i, j) == (m - 1, k - 1):
            break
        i, j = (i + 1, j) if ra[i] == 0 and i < m - 1 else (i, j + 1)
    entered, gaps = [], []
    while True:
        parent, pot, order = {0: None}, {0: 0}, [0]
        for x in order:
            for i, j in flows:
                if x in (i, m + j):
                    y = m + j if x == i else i
                    if y not in parent:
                        parent[y], pot[y] = x, cost[i][j] - pot[x]
                        order.append(y)
        reduced = sorted(
            (cost[i][j] - pot[i] - pot[m + j], i, j)
            for i in range(m) for j in range(k)
        )
        best, i0, j0 = reduced[0]
        if best >= 0:
            return entered, flows, gaps
        entered.append((i0, j0))
        gaps.append(reduced[1][0] - best)

        def up(z):
            path = [z]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return path

        up_i, up_j = up(i0), up(m + j0)
        apex = next(z for z in up_i if z in up_j)
        down = up_i[:up_i.index(apex) + 1][::-1]  # apex ... i0
        rise = up_j[:up_j.index(apex) + 1]  # m + j0 ... apex
        walk = list(zip(down, down[1:])) + [(i0, m + j0)] + list(zip(rise, rise[1:]))
        cells = [(min(x, y), max(x, y) - m) for x, y in walk]
        enter_at = len(down) - 1
        minus = [c for t, c in enumerate(cells) if (t - enter_at) % 2]
        theta = min(flows[c] for c in minus)
        leave = [c for c in minus if flows[c] == theta][-1]
        for t, c in enumerate(cells):
            if c != (i0, j0):
                flows[c] += theta if (t - enter_at) % 2 == 0 else -theta
        del flows[leave]
        flows[i0, j0] = theta


def fraction_permutation_cost(mu, nu):
    """The optimal cost of an equal-weight pair, exactly: the least sum of
    ``Fraction`` float squared distances over all permutations, over n,
    rounded once."""
    n = mu.n_atoms
    cost = [
        [Fraction(sum((p - q) * (p - q) for p, q in zip(x, y))) for y in
         nu.points.tolist()]
        for x in mu.points.tolist()
    ]
    best = min(
        sum(cost[i][j] for i, j in enumerate(perm))
        for perm in itertools.permutations(range(n))
    )
    return float(best / n)


class TestExactSimplex:
    def test_integer_costs_are_exact_multiples(self):
        cost_f = np.array([[0.5, 3.0], [0.1, 0.0]])
        tenth, scale = (0.1).as_integer_ratio()
        assert transport._integer_costs(cost_f) == (
            [[scale // 2, 3 * scale], [tenth, 0]],
            scale,
        )
        for bad, exc in [(np.nan, ValueError), (np.inf, OverflowError)]:
            with pytest.raises(exc):
                transport._integer_costs(np.array([[1.0, bad]]))

    def test_integer_costs_match_a_per_cell_reference(self):
        def reference(cost_f):
            ratios = [[c.as_integer_ratio() for c in row] for row in cost_f.tolist()]
            scale = max(d for row in ratios for _, d in row)
            return [[n * (scale // d) for n, d in row] for row in ratios], scale

        rng = np.random.default_rng(199)
        cases = [np.zeros((2, 3)), np.array([[5e-324, 1.7e308, 0.0, -1.5]])]
        for _ in range(200):
            shape = tuple(int(x) for x in rng.integers(1, 9, size=2))
            cases += [
                rng.normal(size=shape) ** 2,
                rng.integers(-3, 4, size=shape).astype(float),
                np.ldexp(rng.random(shape), rng.integers(-1100, 1020, size=shape)),
            ]
        for cost_f in cases:
            assert transport._integer_costs(cost_f) == reference(cost_f)

    def test_certificate_rejects_feasible_non_optimal_basis(self):
        # The northwest corner sends 0 -> 2 and 2 -> 0; crossing costs 0.
        mu = ParticleMeasure(np.array([[0.0], [2.0]]), np.array([0.5, 0.5]))
        nu = ParticleMeasure(np.array([[2.0], [0.0]]), np.array([0.5, 0.5]))
        cost, a, b, cost_f, scale = exact_problem(mu, nu)
        corner = transport._northwest_corner(a, b)
        with pytest.raises(InvalidStateError, match="negative reduced cost"):
            transport._certify(corner, cost, a, b)
        basis = transport._solve_transport(cost, a, b, cost_f, scale)
        transport._certify(basis, cost, a, b)

    def test_certificate_rejects_broken_bases(self):
        rng = np.random.default_rng(5)
        cost, a, b, cost_f, scale = exact_problem(
            random_cloud(rng, 3, 2), random_cloud(rng, 2, 2)
        )
        basis = transport._solve_transport(cost, a, b, cost_f, scale)
        cell, flow = next(iter(basis.items()))
        cases = [
            ({**basis, cell: flow + 1}, "not feasible"),
            ({c: f for c, f in basis.items() if c != cell}, "spanning tree"),
            ({(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}, "cycle"),
        ]
        for bad, message in cases:
            with pytest.raises(InvalidStateError, match=message):
                transport._certify(bad, cost, a, b)

    def test_pivot_cap_names_the_shape(self, monkeypatch):
        rng = np.random.default_rng(3)
        mu, nu = random_cloud(rng, 6, 2), random_cloud(rng, 5, 2)
        monkeypatch.setattr(transport, "MAX_PIVOTS", 1)
        with pytest.raises(SolverFailure, match="6 x 5 problem") as err:
            wasserstein2(mu, nu)
        assert err.value.iterations == 1
        monkeypatch.undo()
        wasserstein2(mu, nu)

    def test_degenerate_battery(self):
        # Strongly feasible: every zero-flow basic cell (i, j) of the final
        # tree hangs row i directly below column j.
        rng = np.random.default_rng(1976)
        zero_cells = 0
        for idx in range(200):
            dim = 1 + idx % 2
            mu = lattice_measure(rng, int(rng.integers(1, 26)), dim)
            nu = lattice_measure(rng, int(rng.integers(1, 26)), dim)
            cost, a, b, cost_f, scale = exact_problem(mu, nu)
            basis = transport._solve_transport(cost, a, b, cost_f, scale)
            transport._certify(basis, cost, a, b)
            m = len(a)
            _, parent, _, _ = transport._tree(basis, cost, m, len(b))
            zero = [c for c, f in basis.items() if f == 0]
            assert all(parent[i] == m + j for i, j in zero), f"pair {idx}"
            zero_cells += len(zero)
            assert wasserstein2(mu, nu)[1].cost == pytest.approx(
                highs_cost(mu, nu), rel=1e-12, abs=1e-15
            ), f"pair {idx}"
        assert zero_cells > 0

    def test_pivot_budget_of_an_equal_weight_pair(self, monkeypatch):
        rng = np.random.default_rng(1000)
        w = np.full(20, 1.0 / 20)
        mu = ParticleMeasure(rng.normal(size=(20, 2)), w)
        nu = ParticleMeasure(rng.normal(size=(20, 2)) + 0.5, w)
        monkeypatch.setattr(transport, "MAX_PIVOTS", 200)
        d, _ = wasserstein2(mu, nu)
        assert d == pytest.approx(np.sqrt(highs_cost(mu, nu)), rel=1e-12)

    @pytest.mark.parametrize(
        "atoms, dim, pivots",
        [(20, 2, 49), (28, 2, 77), (40, 2, 135), (80, 2, 346),
         (24, 1, 0), (80, 1, 0)],
    )
    def test_pivot_counts_of_the_readme_pairs(
        self, monkeypatch, atoms, dim, pivots
    ):
        # Any change to the sorted start or to the entering or leaving
        # sequence moves these counts; in 1-d the start is optimal.
        mu, nu = readme_pair(atoms, dim)
        if pivots:
            monkeypatch.setattr(transport, "MAX_PIVOTS", pivots - 1)
            with pytest.raises(SolverFailure, match="pivot cap"):
                wasserstein2(mu, nu)
        monkeypatch.setattr(transport, "MAX_PIVOTS", pivots)
        wasserstein2(mu, nu)

    def test_quarter_turns_and_mirrors_keep_pivots_and_plan(self):
        # Negating and swapping coordinates is exact in floats, so the
        # costs, the sorted start and every pivot are the same bit for bit.
        rng = np.random.default_rng(90)
        maps = [
            lambda p: np.stack([-p[:, 1], p[:, 0]], axis=1),  # quarter turn
            lambda p: -p,  # half turn
            lambda p: np.stack([p[:, 1], -p[:, 0]], axis=1),  # three quarters
            lambda p: p * np.array([-1.0, 1.0]),  # mirror in the y axis
            lambda p: p[:, ::-1],  # mirror in the diagonal
        ]
        pairs = [readme_pair(20, 2),
                 (dyadic_cloud(rng, 9, 2), dyadic_cloud(rng, 13, 2))]
        for mu, nu in pairs:
            pivots = pivot_count(mu, nu)
            d, plan = wasserstein2(mu, nu)
            for f in maps:
                mu_f, nu_f = (
                    ParticleMeasure(f(m.points), m.weights) for m in (mu, nu)
                )
                assert pivot_count(mu_f, nu_f) == pivots
                d_f, plan_f = wasserstein2(mu_f, nu_f)
                assert d_f == d
                assert np.array_equal(plan_f.coupling, plan.coupling)

    def test_shuffled_atoms_permute_the_plan(self):
        rng = np.random.default_rng(2011)
        for dim in (1, 2, 3):
            mu, nu = dyadic_cloud(rng, 17, dim), dyadic_cloud(rng, 11, dim)
            d, plan = wasserstein2(mu, nu)
            p, q = rng.permutation(17), rng.permutation(11)
            d_s, plan_s = wasserstein2(
                ParticleMeasure(mu.points[p], mu.weights[p]),
                ParticleMeasure(nu.points[q], nu.weights[q]),
            )
            assert d_s == d
            assert np.array_equal(plan_s.coupling, plan.coupling[np.ix_(p, q)])

    def test_screen_matches_exact_full_scan_where_floats_tie(self, monkeypatch):
        # Costs 2**60 + 128 q + t with t in {-1, 0, 1}: floats there are 256
        # apart, so the float costs drop t and round odd q to even.  The
        # screen's values are then off by about 128 while the exact reduced
        # costs differ by 1, and only its exact check can pick the cell.
        entered = []
        hang = transport._hang

        def spy(top, adj, parent, *rest):
            if parent[top] >= 0:  # a pivot hangs the entering cell's end
                entered.append(sorted((top, parent[top])))
            return hang(top, adj, parent, *rest)

        rng = np.random.default_rng(60)
        pivots, unit_gaps = 0, 0
        for _ in range(30):
            m, k = (int(x) for x in rng.integers(2, 8, size=2))
            q, t = rng.integers(0, 8, size=(m, k)), rng.integers(-1, 2, size=(m, k))
            cost = (2**60 + 128 * q + t).tolist()
            a, b = rng.integers(1, 6, size=m), rng.integers(1, 6, size=k)
            a, b = (a * b.sum()).tolist(), (b * a.sum()).tolist()
            cost_f = np.array(cost, dtype=float)
            want, flows, gaps = dantzig_reference(cost, a, b)
            entered.clear()
            monkeypatch.setattr(transport, "_hang", spy)
            got = transport._solve_transport(cost, a, b, cost_f, 1)
            monkeypatch.undo()
            assert [(i, j - m) for i, j in entered] == want
            assert got == flows
            pivots += len(want)
            unit_gaps += gaps.count(1)
        assert pivots > 100 and unit_gaps > 10

    def test_whole_float_range_matches_a_fraction_oracle(self, monkeypatch):
        # Costs from near overflow (about 1e308) down to subnormal: the
        # screen's scaling and error bound must hold at both ends.
        rng = np.random.default_rng(0)

        def side():
            points = np.concatenate([
                rng.uniform(-4e153, 4e153, size=(2, 2)),
                rng.uniform(-1e150, 1e150, size=(2, 2)),
                rng.uniform(-1e-160, 1e-160, size=(3, 2)),
            ])
            return ParticleMeasure(points, np.full(7, 1.0 / 7.0))

        line = ParticleMeasure(
            np.array([[-6e153], [-1e150], [-1e-160], [3e-161], [2e-161], [1e150]]),
            np.full(6, 1.0 / 6.0),
        )
        flipped = ParticleMeasure(-line.points[::-1] + 1e-160, line.weights)
        pairs = [(line, flipped), (side(), side())]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mu, nu in pairs:
                costs = transport._cost_matrix(mu, nu)
                assert costs.max() > 1e307 and 0.0 < costs[costs > 0].min() < 2.0**-1022
                _, plan = wasserstein2(mu, nu)
                assert plan.cost == fraction_permutation_cost(mu, nu)
            # Column 1's potential is 2**1024, past the float range unless
            # the screen divides by 2**E first.
            cost = [[2**1023, 2**1023], [0, 2**1023]]
            flows = transport._solve_transport(
                cost, [1, 1], [1, 1], np.array(cost, dtype=float), 1
            )
            assert flows == dantzig_reference(cost, [1, 1], [1, 1])[1]
            monkeypatch.setattr(transport, "MAX_PIVOTS", 0)
            with pytest.raises(SolverFailure, match="pivot cap"):
                wasserstein2(*pairs[1])

    def test_integer_marginals_match_a_per_atom_reference(self):
        def reference(mu, nu):
            fa, fb = ([Fraction(float(w)).limit_denominator(10**12) for w in m.weights]
                      for m in (mu, nu))
            fa = [f / sum(fa) for f in fa]
            fb = [f / sum(fb) for f in fb]
            denom = lcm(*[f.denominator for f in fa + fb])
            return [int(f * denom) for f in fa], [int(f * denom) for f in fb], denom

        rng = np.random.default_rng(12)
        unequal = rng.uniform(0.0, 1.0, size=7)
        third = 1.0 / 3.0
        # Three distinct floats that all snap to the rational 1/3.
        thirds = [third, np.nextafter(third, 1.0), np.nextafter(third, 0.0)]
        assert len(set(thirds)) == 3
        assert {Fraction(w).limit_denominator(10**12) for w in thirds} == {
            Fraction(1, 3)
        }
        measures = [
            ParticleMeasure(np.zeros((len(w), 1)), np.asarray(w))
            for w in [
                unequal / unequal.sum(),
                [0.0, 0.25, 0.0, 0.75],  # zero weights
                np.full(9, 1.0 / 9.0),  # equal
                thirds,
            ]
        ]
        for mu, nu in itertools.product(measures, repeat=2):
            assert transport._integer_marginals(mu, nu) == reference(mu, nu)

    def test_zero_mass_atoms_get_zero_rows_and_columns(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-2.0, 2.0, size=(6, 2))
        y = rng.uniform(-2.0, 2.0, size=(5, 2))
        wx = np.array([0.0, 0.2, 0.3, 0.0, 0.4, 0.1])
        wy = np.array([0.25, 0.0, 0.25, 0.5, 0.0])
        rows, cols = wx > 0, wy > 0
        d, plan = wasserstein2(ParticleMeasure(x, wx), ParticleMeasure(y, wy))
        d_kept, plan_kept = wasserstein2(
            ParticleMeasure(x[rows], wx[rows]),
            ParticleMeasure(y[cols], wy[cols]),
        )
        assert not plan.coupling[~rows].any()
        assert not plan.coupling[:, ~cols].any()
        assert d == d_kept and plan.cost == plan_kept.cost
        kept = plan.coupling[np.ix_(rows, cols)]
        assert np.array_equal(kept, plan_kept.coupling)


class TestPlanType:
    def test_defective_marginals_rejected(self):
        a = ParticleMeasure(np.array([[0.0]]), np.array([1.0]))
        b = ParticleMeasure(np.array([[1.0]]), np.array([1.0]))
        with pytest.raises(ValueError, match="marginal"):
            TransportPlan(np.array([[0.5]]), a, b, 0.5)

    def test_wrong_cost_rejected(self):
        a = ParticleMeasure(np.array([[0.0]]), np.array([1.0]))
        b = ParticleMeasure(np.array([[1.0]]), np.array([1.0]))
        with pytest.raises(ValueError, match="cost"):
            TransportPlan(np.array([[1.0]]), a, b, 0.123)

    def test_large_costs_pass_the_cost_check(self):
        # Translating the target by c shifts every coupling's cost, and so
        # W2^2, by 2 c.(m_nu - m_mu) + |c|^2; far pairs cost about 1e8.
        rng = np.random.default_rng(0)
        c = np.array([1e4, 0.0])
        for _ in range(50):
            mu, nu = (
                ParticleMeasure(rng.normal(size=(3, 2)), rng.dirichlet(np.ones(3)))
                for _ in range(2)
            )
            far = ParticleMeasure(nu.points + c, nu.weights)
            shift = 2.0 * c @ (nu.weights @ nu.points - mu.weights @ mu.points)
            expected = wasserstein2(mu, nu)[0] ** 2 + shift + c @ c
            assert wasserstein2(mu, far)[0] ** 2 == pytest.approx(
                expected, rel=1e-12
            )

    def test_csv_triples(self):
        a = ParticleMeasure(np.array([[0.0], [2.0]]), np.array([0.5, 0.5]))
        b = ParticleMeasure(np.array([[1.0], [3.0]]), np.array([0.5, 0.5]))
        _, plan = wasserstein2(a, b)
        text = plan_to_csv(plan)
        assert text.splitlines()[0] == "i,j,mass"
        assert "0,0,0.5" in text and "1,1,0.5" in text


class TestBarycentricProjection:
    def test_product_coupling_of_diracs(self):
        a = ParticleMeasure(np.array([[2.0, 0.0]]), np.array([1.0]))
        b = ParticleMeasure(np.array([[0.0, 1.0]]), np.array([1.0]))
        _, plan = wasserstein2(a, b)
        field = barycentric_projection(plan)
        assert np.allclose(field.vectors, [[2.0, -1.0]])

    def test_diagonal_plan_gives_zero_field(self):
        mu = ParticleMeasure(np.array([[0.0], [5.0]]), np.array([0.5, 0.5]))
        _, plan = wasserstein2(mu, mu)
        field = barycentric_projection(plan)
        assert np.allclose(field.vectors, 0.0)

    def test_column_average_of_displacements(self):
        # source two atoms at 0 and 2, target one atom at 1: p(1) = 0
        a = ParticleMeasure(np.array([[0.0], [2.0]]), np.array([0.5, 0.5]))
        b = ParticleMeasure(np.array([[1.0]]), np.array([1.0]))
        plan = TransportPlan(np.array([[0.5], [0.5]]), a, b, 1.0)
        field = barycentric_projection(plan)
        assert np.allclose(field.vectors, [[0.0]])

    def test_zero_column_mass_raises(self):
        a = ParticleMeasure(np.array([[0.0]]), np.array([1.0]))
        b = ParticleMeasure(np.array([[0.0], [9.0]]), np.array([1.0, 0.0]))
        plan = TransportPlan(np.array([[1.0, 0.0]]), a, b, 0.0)
        with pytest.raises(InvalidStateError, match="no mass"):
            barycentric_projection(plan)

    def test_pairing_identity(self):
        # <xi(y), x - y> against the plan equals <xi(y), p(y)> against the
        # target, for every atom-indicator test field.
        rng = np.random.default_rng(23)
        mu = random_cloud(rng, 4, 2)
        nu = random_cloud(rng, 3, 2)
        _, plan = wasserstein2(mu, nu)
        field = barycentric_projection(plan)
        for j in range(nu.n_atoms):
            for axis in range(nu.dim):
                lhs = sum(
                    plan.coupling[i, j] * (mu.points[i, axis] - nu.points[j, axis])
                    for i in range(mu.n_atoms)
                )
                rhs = nu.weights[j] * field.vectors[j, axis]
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_projection_norm_below_distance(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            mu = random_cloud(rng, int(rng.integers(1, 6)), 2)
            nu = random_cloud(rng, int(rng.integers(1, 6)), 2)
            dist, plan = wasserstein2(mu, nu)
            field = barycentric_projection(plan)
            assert l2_norm(field) <= dist + 1e-9

    def test_reverse_plan_swaps_sides(self):
        rng = np.random.default_rng(31)
        mu = random_cloud(rng, 3, 2)
        nu = random_cloud(rng, 4, 2)
        _, plan = wasserstein2(mu, nu)
        rev = reverse_plan(plan)
        assert rev.cost == plan.cost
        assert np.array_equal(rev.coupling, plan.coupling.T)
        assert rev.source is plan.target and rev.target is plan.source


class TestL2Norm:
    def test_zero_field(self):
        mu = ParticleMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        _, plan = wasserstein2(mu, mu)
        assert l2_norm(barycentric_projection(plan)) == 0.0

    def test_single_atom(self):
        from blindgame import ProjectionField

        mu = ParticleMeasure(np.array([[0.0, 0.0]]), np.array([1.0]))
        f = ProjectionField(mu, np.array([[3.0, 4.0]]))
        assert l2_norm(f) == pytest.approx(5.0, abs=1e-12)

    def test_weighted_quadratic_mean(self):
        from blindgame import ProjectionField

        mu = ParticleMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        f = ProjectionField(mu, np.array([[1.0], [3.0]]))
        assert l2_norm(f) == pytest.approx(np.sqrt(5.0), abs=1e-12)
