import io

import numpy as np
import pytest

import blindgame
from blindgame import (
    ParticleMeasure,
    from_csv,
    second_moment,
    to_csv,
)


def atoms(mu):
    """Canonical multiset view of a measure for equality checks."""
    rows = [(tuple(p), w) for p, w in zip(mu.points, mu.weights)]
    return sorted(rows)


class TestConstruction:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            ParticleMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.6]))

    def test_small_drift_is_renormalized(self):
        w = np.array([0.5, 0.5 + 4e-13])
        mu = ParticleMeasure(np.array([[0.0], [1.0]]), w)
        assert np.sum(mu.weights) == pytest.approx(1.0, abs=1e-15)

    def test_rebuilding_from_own_weights_is_bit_identical(self):
        rng = np.random.default_rng(0)
        pts = np.arange(9.0).reshape(-1, 1)
        for _ in range(1000):
            w = rng.uniform(0.2, 1.0, 9)
            mu = ParticleMeasure(pts, w / w.sum())
            assert np.array_equal(ParticleMeasure(pts, mu.weights).weights,
                                  mu.weights)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ParticleMeasure(np.array([[0.0], [1.0]]), np.array([-0.1, 1.1]))

    def test_measure_holds_read_only_copies(self):
        pts, w = np.zeros((2, 1)), np.array([0.5, 0.5])
        mu = ParticleMeasure(pts, w)
        pts[0, 0], w[0] = 5.0, 0.9  # the caller's arrays stay writeable
        assert mu.points.tolist() == [[0.0], [0.0]]
        assert mu.weights.tolist() == [0.5, 0.5]
        with pytest.raises(ValueError, match="read-only"):
            mu.weights[0] = 0.9

    def test_zero_weight_allowed(self):
        mu = ParticleMeasure(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
        assert mu.n_atoms == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="weights"):
            ParticleMeasure(np.array([[0.0], [1.0]]), np.array([1.0]))

    def test_scalar_points_get_column_shape(self):
        mu = ParticleMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        assert mu.dim == 1 and mu.points.shape == (2, 1)


def test_every_package_export_resolves_once():
    names = blindgame.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(blindgame, name)] == []


class TestSecondMoment:
    def test_dirac_at_origin(self):
        assert second_moment(
            ParticleMeasure(np.array([[0.0, 0.0]]), np.array([1.0]))
        ) == 0.0

    def test_single_atom_norm(self):
        mu = ParticleMeasure(np.array([[3.0, 4.0]]), np.array([1.0]))
        assert second_moment(mu) == pytest.approx(25.0, abs=0)

    def test_weighted_sum(self):
        mu = ParticleMeasure(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))
        assert second_moment(mu) == pytest.approx(1.0, abs=0)


class TestCsv:
    def test_round_trip(self):
        mu = ParticleMeasure(
            np.array([[0.25, -1.5], [3.0, 2.0]]), np.array([0.4, 0.6])
        )
        back = from_csv(to_csv(mu))
        assert atoms(back) == atoms(mu)

    def test_header_required(self):
        with pytest.raises(ValueError, match="header"):
            from_csv("0.5,1.0\n0.5,2.0\n")

    def test_file_like(self):
        mu = ParticleMeasure(np.array([[1.0]]), np.array([1.0]))
        assert atoms(from_csv(io.StringIO(to_csv(mu)))) == atoms(mu)

    def test_path(self, tmp_path):
        mu = ParticleMeasure(np.array([[1.0], [2.0]]), np.array([0.5, 0.5]))
        p = tmp_path / "mu.csv"
        p.write_text(to_csv(mu))
        assert atoms(from_csv(str(p))) == atoms(mu)
