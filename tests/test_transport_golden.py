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

It prints every file it changed, and refuses to write anything when a
distance moves by more than ``DISTANCE_RTOL`` relative, or when the file of
a ``cloud`` pair changes at all: the optimal cost is unique, so a recapture
may move a plan on tied costs or a last bit of the distance, never the
distance itself; and random clouds have no tied costs, so their optimal
plan is unique too.
"""

import os

import numpy as np
import pytest

from blindgame import ParticleMeasure, plan_to_csv, transport, wasserstein2

GOLDEN = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden", "transport"
)
PAIRS = 200
DISTANCE_RTOL = 1e-12
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


def _kind(idx: int) -> str:
    """The point kind of pair ``idx``."""
    return POINT_KINDS[(idx // 2) % 3]


def battery() -> list[tuple[ParticleMeasure, ParticleMeasure]]:
    """The 200 seeded (mu, nu) pairs of the golden battery."""
    rng = np.random.default_rng(2011)
    pairs = []
    for idx in range(PAIRS):
        dim = 1 + idx % 2
        kind = _kind(idx)
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


def test_one_dimensional_pairs_need_no_pivots(monkeypatch):
    # The sorted start is the monotone coupling, which is optimal in 1-d.
    monkeypatch.setattr(transport, "MAX_PIVOTS", 0)
    pairs = [(mu, nu) for mu, nu in _BATTERY if mu.dim == 1]
    assert len(pairs) == PAIRS // 2
    for mu, nu in pairs:
        wasserstein2(mu, nu)


def _distance(text: str) -> float:
    """The distance on the first line of a golden file."""
    return float(text.split("\n", 1)[0].split(",")[1])


def regenerate() -> list[str]:
    """Recompute every pair and rewrite the golden files that changed.

    Refuses, writing nothing, when a distance moves by more than
    ``DISTANCE_RTOL`` relative or a ``cloud`` pair's file changes.  Returns
    the changed paths.
    """
    changed, moved = {}, []
    for idx, (mu, nu) in enumerate(_BATTERY):
        text, path = golden_text(mu, nu), _path(idx)
        old = None
        if os.path.exists(path):
            with open(path, encoding="utf-8", newline="") as fh:
                old = fh.read()
        if old == text:
            continue
        changed[path] = text
        if old is not None:
            new_d, old_d = _distance(text), _distance(old)
            if not abs(new_d - old_d) <= DISTANCE_RTOL * abs(old_d):
                moved.append(f"{path}: distance {old_d!r} -> {new_d!r}")
            elif _kind(idx) == "cloud":
                moved.append(f"{path}: the unique plan of a cloud pair changed")
    if moved:
        raise SystemExit(
            "refusing to rewrite golden plans, distances moved beyond "
            f"{DISTANCE_RTOL:g} relative or cloud plans changed:\n"
            + "\n".join(moved)
        )
    os.makedirs(GOLDEN, exist_ok=True)
    for path, text in changed.items():
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return list(changed)


if __name__ == "__main__":
    changed = regenerate()
    for path in changed:
        print(f"changed {os.path.relpath(path)}")
    print(f"{len(changed)} golden files changed under {GOLDEN}")
