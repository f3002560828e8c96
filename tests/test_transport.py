import itertools

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


def random_cloud(rng, n, d, equal_weights=False):
    pts = rng.uniform(-2.0, 2.0, size=(n, d))
    if equal_weights:
        w = np.full(n, 1.0 / n)
    else:
        w = rng.uniform(0.2, 1.0, size=n)
        w = w / w.sum()
    return ParticleMeasure(pts, w)


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

    def test_marginals_of_plan(self):
        rng = np.random.default_rng(17)
        mu = random_cloud(rng, 4, 2)
        nu = random_cloud(rng, 3, 2)
        _, plan = wasserstein2(mu, nu)
        assert np.max(np.abs(plan.coupling.sum(axis=1) - mu.weights)) <= 1e-9
        assert np.max(np.abs(plan.coupling.sum(axis=0) - nu.weights)) <= 1e-9


def exact_problem(mu, nu):
    """Integer costs and marginals of a pair, as the simplex sees them."""
    a, b, _ = transport._integer_marginals(mu, nu)
    return transport._integer_costs(transport._cost_matrix(mu, nu)), a, b


class TestExactSimplex:
    def test_integer_costs_are_exact_multiples(self):
        cost_f = np.array([[0.5, 3.0], [0.1, 0.0]])
        tenth, scale = (0.1).as_integer_ratio()
        assert transport._integer_costs(cost_f) == [
            [scale // 2, 3 * scale],
            [tenth, 0],
        ]
        for bad, exc in [(np.nan, ValueError), (np.inf, OverflowError)]:
            with pytest.raises(exc):
                transport._integer_costs(np.array([[1.0, bad]]))

    def test_certificate_rejects_feasible_non_optimal_basis(self):
        # The northwest corner sends 0 -> 2 and 2 -> 0; crossing costs 0.
        mu = ParticleMeasure(np.array([[0.0], [2.0]]), np.array([0.5, 0.5]))
        nu = ParticleMeasure(np.array([[2.0], [0.0]]), np.array([0.5, 0.5]))
        cost, a, b = exact_problem(mu, nu)
        corner = transport._northwest_corner(a, b)
        with pytest.raises(InvalidStateError, match="negative reduced cost"):
            transport._certify(corner, cost, a, b)
        transport._certify(transport._solve_transport(cost, a, b), cost, a, b)

    def test_certificate_rejects_broken_bases(self):
        rng = np.random.default_rng(5)
        cost, a, b = exact_problem(random_cloud(rng, 3, 2), random_cloud(rng, 2, 2))
        basis = transport._solve_transport(cost, a, b)
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
