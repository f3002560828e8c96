"""Finitely supported probability measures on R^d.

A :class:`ParticleMeasure` is a weighted point cloud.  It is the state
object everything else in the package operates on: initial distributions,
transported distributions after a control stage, and the base measures the
Hamiltonians integrate over.

Weights must form a probability vector, and ``_probabilities`` is the one
rule for every probability vector in the package (a measure's weights and
Player II's blind mix alike).  A float total within ``len(p)`` ulps of 1 is
rounding of a normalized vector and is kept as given, so a vector rebuilt
from its own entries keeps them bit for bit.  Larger drift up to
``WEIGHT_TOL`` away from total mass 1 is silently renormalized; anything
larger is rejected as a bug in the caller.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

WEIGHT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ParticleMeasure:
    """Probability measure with finite support: sum_i w_i * delta(x_i).

    Attributes
    ----------
    points : (m, d) float array, one support point per row.
    weights : (m,) float array, nonnegative, summing to 1.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        # Copies: freezing them must not freeze the caller's arrays, and no
        # later write by the caller may reach the checked weights.
        pts = np.array(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("points must be a nonempty (m, d) array")
        w = np.array(self.weights, dtype=float).reshape(-1)
        if w.shape[0] != pts.shape[0]:
            raise ValueError(
                f"got {pts.shape[0]} points but {w.shape[0]} weights"
            )
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", _probabilities(w, "weights"))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]

    def __repr__(self) -> str:
        return f"ParticleMeasure(n_atoms={self.n_atoms}, dim={self.dim})"


def _probabilities(p: np.ndarray, name: str) -> np.ndarray:
    """The float vector ``p`` as a read-only probability vector, or a
    ``ValueError`` naming it: its entries must be finite and nonnegative,
    and its sum within ``WEIGHT_TOL`` of 1.  It is divided by that sum
    only when the sum is off by more than ``len(p)`` ulps."""
    if not np.all(np.isfinite(p)) or np.any(p < 0.0):
        raise ValueError(f"{name} must be finite and nonnegative")
    total = float(np.sum(p))
    drift = abs(total - 1.0)
    if drift > WEIGHT_TOL:
        raise ValueError(
            f"{name} sum to {total!r}, off by {drift:.3e} > {WEIGHT_TOL}"
        )
    if drift > len(p) * np.finfo(float).eps:
        p = p / total
    p.setflags(write=False)
    return p


def second_moment(mu: ParticleMeasure) -> float:
    """sum_i w_i |x_i|^2."""
    return float(np.sum(mu.weights * np.sum(mu.points**2, axis=1)))


def to_csv(mu: ParticleMeasure) -> str:
    """Serialize: header then one ``w,x_1,...,x_d`` row per atom."""
    cols = ["w"] + [f"x_{k + 1}" for k in range(mu.dim)]
    lines = [",".join(cols)]
    for w, x in zip(mu.weights, mu.points):
        lines.append(",".join(_fmt(v) for v in [w, *x]))
    return "\n".join(lines) + "\n"


def from_csv(text_or_path) -> ParticleMeasure:
    """Parse the CSV produced by :func:`to_csv` (header required) from a
    file-like object, from text (a ``str`` holding a newline), or from the
    path of a file that must exist."""
    if hasattr(text_or_path, "read"):
        text = text_or_path.read()
    else:
        text, _ = _read_text(text_or_path)
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty particle-measure CSV")
    header = [c.strip() for c in lines[0].split(",")]
    if header[0] != "w":
        raise ValueError("particle-measure CSV must start with a 'w' header")
    d = len(header) - 1
    weights, points = [], []
    for ln in lines[1:]:
        vals = [float(c) for c in ln.split(",")]
        if len(vals) != d + 1:
            raise ValueError(f"row has {len(vals)} columns, expected {d + 1}")
        weights.append(vals[0])
        points.append(vals[1:])
    return ParticleMeasure(np.array(points), np.array(weights))


def _read_text(text_or_path: str | os.PathLike) -> tuple[str, str | None]:
    """``(text, path)`` of a text-or-file argument: a ``str`` holding a
    newline is the text itself (``path`` None), and anything else is a path
    to a file that must exist (``OSError`` otherwise)."""
    if isinstance(text_or_path, str) and "\n" in text_or_path:
        return text_or_path, None
    path = os.fspath(text_or_path)
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read(), path


def _fmt(v: float) -> str:
    return f"{float(v):.12g}"
