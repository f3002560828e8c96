"""Golden W2 distances and plans on a seeded battery of transport pairs.

``battery()`` draws 200 pairs from one seed: 1-d and 2-d, 1 to 30 atoms
per side with ``m != k`` in most pairs, and three point kinds (random
clouds, integer-lattice points whose costs tie, and duplicate atoms drawn
from a small shared pool) under equal or unequal rational weights, some of
them zero.  For every pair, ``repr(distance)`` and ``plan_to_csv(plan)``
are compared byte for byte against ``tests/golden/transport/NNN.txt``.
The exact simplex picks one canonical plan by its fixed pivot rules, so
these files catch any change to the pivot sequence, not only to the cost.

Regenerate (only after a deliberate change of canonical plans, noted in
CHANGES.md):

    PYTHONPATH=src python3 tests/test_transport_golden.py
"""

import os

import numpy as np
import pytest

from blindgame import ParticleMeasure, plan_to_csv, wasserstein2

GOLDEN = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden", "transport"
)
PAIRS = 200
POINT_KINDS = ("cloud", "lattice", "duplicates")


def _points(rng, kind: str, n: int, dim: int, pool: np.ndarray) -> np.ndarray:
    if kind == "cloud":
        return rng.uniform(-2.0, 2.0, size=(n, dim))
    if kind == "lattice":
        return rng.integers(-3, 4, size=(n, dim)).astype(float)
    return pool[rng.integers(0, len(pool), size=n)]


def _weights(rng, equal: bool, n: int) -> np.ndarray:
    if equal:
        return np.full(n, 1.0 / n)
    w = rng.integers(0, 10, size=n).astype(float)
    if w.sum() == 0.0:
        w[int(rng.integers(n))] = 1.0
    return w / w.sum()


def battery() -> list[tuple[ParticleMeasure, ParticleMeasure]]:
    """The 200 seeded (mu, nu) pairs of the golden battery."""
    rng = np.random.default_rng(2011)
    pairs = []
    for idx in range(PAIRS):
        dim = 1 + idx % 2
        kind = POINT_KINDS[(idx // 2) % 3]
        equal = (idx // 6) % 2 == 0
        m = int(rng.integers(1, 31))
        k = m if rng.random() < 0.25 else int(rng.integers(1, 31))
        pool = rng.uniform(-2.0, 2.0, size=(max(1, (m + k) // 6), dim))
        mu = ParticleMeasure(
            _points(rng, kind, m, dim, pool), _weights(rng, equal, m)
        )
        nu = ParticleMeasure(
            _points(rng, kind, k, dim, pool), _weights(rng, equal, k)
        )
        pairs.append((mu, nu))
    return pairs


def golden_text(mu: ParticleMeasure, nu: ParticleMeasure) -> str:
    dist, plan = wasserstein2(mu, nu)
    return f"distance,{dist!r}\n" + plan_to_csv(plan)


def _path(idx: int) -> str:
    return os.path.join(GOLDEN, f"{idx:03d}.txt")


_BATTERY = battery()


@pytest.mark.parametrize("idx", range(PAIRS))
def test_plan_matches_golden_bytes(idx):
    mu, nu = _BATTERY[idx]
    with open(_path(idx), encoding="utf-8", newline="") as fh:
        assert golden_text(mu, nu) == fh.read(), f"pair {idx:03d} differs"


def test_battery_covers_its_cases():
    sizes = [(mu.n_atoms, nu.n_atoms) for mu, nu in _BATTERY]
    assert min(min(s) for s in sizes) == 1 and max(max(s) for s in sizes) == 30
    assert sum(m != k for m, k in sizes) > PAIRS // 2
    assert {mu.dim for mu, _ in _BATTERY} == {1, 2}
    assert any(np.any(mu.weights == 0.0) for mu, _ in _BATTERY)


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for idx, (mu, nu) in enumerate(_BATTERY):
        with open(_path(idx), "w", encoding="utf-8", newline="") as fh:
            fh.write(golden_text(mu, nu))
    print(f"wrote {PAIRS} golden plans under {GOLDEN}")
