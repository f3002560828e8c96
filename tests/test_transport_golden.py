"""Golden W2 distances and plans on a seeded battery of transport pairs.

``battery()`` draws 200 pairs from one seed: 1-d and 2-d, 1 to 30 atoms
per side with ``m != k`` in most pairs, and three point kinds (random
clouds, integer-lattice points whose costs tie, and duplicate atoms drawn
from a small shared pool) under equal or unequal rational weights, some of
them zero.  For every pair, ``repr(distance)`` and ``plan_to_csv(plan)``
are compared byte for byte against ``tests/golden/transport/NNN.txt``.
The exact simplex picks one canonical plan by its fixed pivot rules, so
these files catch any change to the pivot sequence, not only to the cost.
A cloud pair's optimal plan is unique, so its file cannot show a changed
pivot sequence; ``tests/golden/transport/pivots.csv`` therefore pins every
pair's pivot count, the smallest ``transport.MAX_PIVOTS`` that solves it.

Regenerate (only after a deliberate change of canonical plans, noted in
CHANGES.md):

    PYTHONPATH=src python3 tests/test_transport_golden.py

It prints every file it changed and every pivot count that moved, and
rewrites ``pivots.csv``.  It refuses to write anything when a distance
moves by more than ``DISTANCE_RTOL`` relative, or when the file of a
``cloud`` pair changes at all: the optimal cost is unique, so a recapture
may move a plan on tied costs or a last bit of the distance, never the
distance itself; and random clouds have no tied costs, so their optimal
plan is unique too.
"""

import os

import numpy as np
import pytest

from blindgame import (
    ParticleMeasure,
    SolverFailure,
    plan_to_csv,
    transport,
    wasserstein2,
)

GOLDEN = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden", "transport"
)
PIVOTS = os.path.join(GOLDEN, "pivots.csv")
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


def _solves(mu: ParticleMeasure, nu: ParticleMeasure, cap: int) -> bool:
    """Whether the pair solves within ``cap`` pivots."""
    saved, transport.MAX_PIVOTS = transport.MAX_PIVOTS, cap
    try:
        wasserstein2(mu, nu)
    except SolverFailure:
        return False
    finally:
        transport.MAX_PIVOTS = saved
    return True


def pivot_count(mu: ParticleMeasure, nu: ParticleMeasure) -> int:
    """The smallest ``MAX_PIVOTS`` that solves the pair."""
    lo, hi = -1, 0  # lo fails (or is -1), hi solves once the doubling stops
    while not _solves(mu, nu, hi):
        lo, hi = hi, 2 * hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _solves(mu, nu, mid) else (mid, hi)
    return hi


def pinned_pivots() -> list[int]:
    """The pivot count of every pair, from ``pivots.csv``."""
    with open(PIVOTS, encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "pair,pivots"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(idx) for idx, _ in rows] == list(range(len(rows)))
    return [int(count) for _, count in rows]


_BATTERY = battery()


@pytest.mark.parametrize("idx", range(PAIRS))
def test_plan_matches_golden_bytes(idx):
    mu, nu = _BATTERY[idx]
    with open(_path(idx), encoding="utf-8", newline="") as fh:
        assert golden_text(mu, nu) == fh.read(), f"pair {idx:03d} differs"


def test_pivot_counts_match_pinned():
    # Each pair solves within its pinned count and fails one pivot short.
    pinned = pinned_pivots()
    assert len(pinned) == PAIRS
    wrong = [
        f"{idx:03d}" for idx, ((mu, nu), count) in enumerate(zip(_BATTERY, pinned))
        if not _solves(mu, nu, count) or (count and _solves(mu, nu, count - 1))
    ]
    assert not wrong, f"pivot counts moved on pairs {', '.join(wrong)}"


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


def regenerate() -> tuple[list[str], list[str]]:
    """Recompute every pair, rewrite the golden files that changed and the
    pivot counts.

    Refuses, writing nothing, when a distance moves by more than
    ``DISTANCE_RTOL`` relative or a ``cloud`` pair's file changes.  Returns
    the changed paths and one line per pivot count that moved.
    """
    old_counts = pinned_pivots() if os.path.exists(PIVOTS) else []
    counts = [pivot_count(mu, nu) for mu, nu in _BATTERY]
    recounted = [
        f"pair {idx:03d}: pivots {old} -> {new}"
        for idx, (old, new) in enumerate(zip(old_counts, counts)) if old != new
    ]
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
    with open(PIVOTS, "w", encoding="utf-8", newline="") as fh:
        fh.write("pair,pivots\n")
        fh.writelines(f"{idx},{count}\n" for idx, count in enumerate(counts))
    return list(changed), recounted


if __name__ == "__main__":
    changed, recounted = regenerate()
    for path in changed:
        print(f"changed {os.path.relpath(path)}")
    for line in recounted:
        print(line)
    print(f"{len(changed)} golden files changed under {GOLDEN}")
