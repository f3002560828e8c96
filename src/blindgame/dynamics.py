"""Controlled dynamics, stage controls, and terminal payoffs.

The state follows x' = f(x, u, v) on [0, T].  Both players act through
finite control grids and piecewise-constant stage controls on the uniform
grid with step T / n_stages; each stage is integrated with a classical
4th-order Runge-Kutta scheme using a fixed number of substeps.  Games at a
later start time are expressed by shrinking T.

A small library of problems with closed-form behaviour (frozen, constant
drift, linear, scalar u+v, rotation, planar pursuit) plus a config-driven
affine family f = A x + B u + C v covers the test and CLI surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericFailure

#: State radius on which the quadratic payoff's slope bound is taken.
DOMAIN_RADIUS = 10.0


def as_grid(values) -> np.ndarray:
    """Normalize a control grid to a read-only (n, cdim) float array."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError("control grid must be a nonempty list of points")
    if not np.all(np.isfinite(arr)):
        raise ValueError("control grid must be finite")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ControlProblem:
    """Dynamics, terminal cost, control grids and regularity metadata.

    ``lip_f_x`` and ``lip_g`` are metadata used by property tests
    (Gronwall envelopes, value Lipschitz bounds); the library
    constructors fill them with exact constants where available and with
    documented estimates on the radius-``DOMAIN_RADIUS`` ball otherwise.
    ``f`` and ``g`` must act on the last axis: the solver calls them on
    (N, d) batches of states, ``f`` with matching rows of controls.
    """

    dim: int
    f: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    T: float
    u_grid: np.ndarray
    v_grid: np.ndarray
    lip_f_x: float
    lip_g: float
    substeps: int = 16

    def __post_init__(self):
        object.__setattr__(self, "u_grid", as_grid(self.u_grid))
        object.__setattr__(self, "v_grid", as_grid(self.v_grid))
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not self.T > 0.0:
            raise ValueError("T must be > 0")
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")
        for name in ("lip_f_x", "lip_g"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def n_u(self) -> int:
        return self.u_grid.shape[0]

    @property
    def n_v(self) -> int:
        return self.v_grid.shape[0]


def checked_f(
    prob: ControlProblem, x: np.ndarray, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """``f(x, u, v)`` as a float array.  On a batch ``x`` of shape (N, d)
    it raises ``ValueError`` if ``f`` returns a different shape, as an
    ``f`` written for single states only would."""
    fx = np.asarray(prob.f(x, u, v), dtype=float)
    if x.ndim == 2 and fx.shape != x.shape:
        raise ValueError(
            f"f returned shape {fx.shape} for a batch of shape "
            f"{x.shape}; f must act on the last axis"
        )
    return fx


def control_pairs(
    prob: ControlProblem, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row of the batch ``x`` repeated once per (u, v) grid pair,
    u-major, with the u-grid and the v-grid index of every row."""
    n_u, n_v = prob.n_u, prob.n_v
    iu = np.tile(np.repeat(np.arange(n_u), n_v), len(x))
    iv = np.tile(np.arange(n_v), len(x) * n_u)
    return np.repeat(x, n_u * n_v, axis=0), iu, iv


def advance_stage(
    prob: ControlProblem,
    x: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    stage_len: float,
) -> np.ndarray:
    """One stage of RK4 integration under constant controls u, v.

    ``x`` is one state of shape (d,) or a batch of shape (N, d) with
    matching rows of ``u`` and ``v``; every library ``f`` acts row by row,
    so each row of a batch equals the single-state result bit for bit.
    A batch raises the ``ValueError`` of ``checked_f``.
    """
    h = stage_len / prob.substeps
    f = prob.f
    for _ in range(prob.substeps):
        k1 = checked_f(prob, x, u, v)
        k2 = np.asarray(f(x + 0.5 * h * k1, u, v), dtype=float)
        k3 = np.asarray(f(x + 0.5 * h * k2, u, v), dtype=float)
        k4 = np.asarray(f(x + h * k3, u, v), dtype=float)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def stage_step(
    prob: ControlProblem, x: np.ndarray, iu, iv, stage_len: float, stage: int
) -> np.ndarray:
    """Advance one state (d,) or a batch (N, d) through stage ``stage``
    under one u-grid index ``iu`` and v-grid index ``iv`` per row.  Raises
    ``ValueError`` on an index off its grid and ``NumericFailure`` naming
    the stage on a non-finite state, which numpy no longer warns about."""
    if np.any((iu < 0) | (iu >= prob.n_u) | (iv < 0) | (iv >= prob.n_v)):
        raise ValueError(f"stage {stage}: control index out of range")
    with np.errstate(over="ignore", invalid="ignore"):
        x = advance_stage(prob, x, prob.u_grid[iu], prob.v_grid[iv], stage_len)
    if not np.all(np.isfinite(x)):
        raise NumericFailure("trajectory left the finite range", stage=stage)
    return x


def terminal_costs(prob: ControlProblem, x: np.ndarray) -> np.ndarray:
    """g of each row of ``x``, checked to give one finite value per row."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.asarray(prob.g(x), dtype=float)
    if out.shape != x.shape[:1]:
        raise ValueError(
            f"g returned shape {out.shape} for a batch of shape {x.shape}; "
            "g must act on the last axis"
        )
    if not np.all(np.isfinite(out)):
        raise ValueError("g returned a non-finite value")
    return out


def flow(
    prob: ControlProblem,
    x0,
    u_seq: Sequence[int | np.ndarray],
    v_seq: Sequence[int | np.ndarray],
) -> np.ndarray:
    """Endpoints X_T of the stage-wise trajectories from x0 (d,) or (N, d)
    under one u-grid and one v-grid index per stage.  A stage's index is
    one integer for every row, or an integer array with one entry per row
    of a batch."""
    n = len(u_seq)
    if n == 0 or len(v_seq) != n:
        raise ValueError(
            f"need one u and one v index per stage, got {n} and {len(v_seq)}"
        )
    tau = prob.T / n
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    if x.shape[-1] != prob.dim:
        raise ValueError(f"x0 has dimension {x.shape[-1]}, expected {prob.dim}")
    rows = np.zeros(x.shape[:-1], dtype=np.int64)
    for k in range(n):
        x = stage_step(prob, x, rows + u_seq[k], rows + v_seq[k], tau, k)
    return x


# ---------------------------------------------------------------------------
# Terminal payoffs
# ---------------------------------------------------------------------------

def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.dot(a, b)`` per row, bit for bit (a batched ``x @ b`` or
    ``np.einsum`` may round differently)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def payoff_table(xs, vals) -> tuple[Callable, float]:
    """Piecewise-linear 1-d payoff with constant extrapolation."""
    xs = np.asarray(xs, dtype=float).reshape(-1)
    vals = np.asarray(vals, dtype=float).reshape(-1)
    if xs.shape != vals.shape or xs.shape[0] < 2:
        raise ValueError("payoff table needs >= 2 matching breakpoints")
    order = np.argsort(xs)
    xs, vals = xs[order], vals[order]
    if np.any(np.diff(xs) <= 0):
        raise ValueError("payoff table breakpoints must be distinct")
    lip = float(np.max(np.abs(np.diff(vals) / np.diff(xs))))
    return (lambda x: np.interp(x[..., 0], xs, vals), lip)


def payoff_kind(kind: str) -> str:
    """``kind`` as ``make_payoff`` matches it: any case, ``-`` for ``_``."""
    return kind.strip().lower().replace("_", "-")


def make_payoff(kind: str, *, coeffs=None, table=None, dim: int = 1):
    """Library terminal payoff g and its Lipschitz constant.

    Kinds: ``abs`` (|x|), ``quadratic`` (|x|^2, slope bound taken on the
    radius-``DOMAIN_RADIUS`` ball), ``linear`` (c . x, ``coeffs`` one per
    state dimension, default all ones) and ``custom-table`` (see
    ``payoff_table``).  Each g acts on the last axis: it takes one state
    (d,) or a batch (N, d) and returns one payoff per row.
    """
    kind = payoff_kind(kind)
    if kind == "abs":
        return (lambda x: np.sqrt(_rowdot(x, x)), 1.0)
    if kind == "quadratic":
        return (lambda x: _rowdot(x, x), 2.0 * DOMAIN_RADIUS)
    if kind == "linear":
        c = np.ones(dim) if coeffs is None else coeffs
        c = np.asarray(c, dtype=float).reshape(-1)
        if len(c) != dim:
            raise ValueError(
                f"linear payoff has {len(c)} coefficients for state "
                f"dimension {dim}"
            )
        return (lambda x: _rowdot(c, x), float(np.linalg.norm(c)))
    if kind == "custom-table":
        if dim != 1:
            raise ValueError("custom-table payoff requires dim = 1")
        if table is None:
            raise ValueError("custom-table payoff needs a table")
        xs, vals = zip(*table)
        return payoff_table(xs, vals)
    raise ValueError(f"unknown payoff kind {kind!r}")


# ---------------------------------------------------------------------------
# Dynamics library
# ---------------------------------------------------------------------------

def _spectral(mat: np.ndarray) -> float:
    return float(np.linalg.norm(mat, 2))


def _matvec(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``mat @ x`` for each row of ``x``; one matrix-vector product per row,
    so a batch row equals the single-state product bit for bit (a batched
    ``x @ mat.T`` may round differently)."""
    return (mat @ x[..., None])[..., 0]


def dynamics_kind(kind: str) -> str:
    """``kind`` as ``make_problem`` matches it: any case, ``_`` for ``-``."""
    return kind.strip().lower().replace("-", "_")


def make_problem(
    kind: str,
    *,
    T: float,
    u_grid,
    v_grid,
    dim: int | None = None,
    A=None,
    B=None,
    C=None,
    drift=None,
    omega: float = 1.0,
    g_kind: str = "abs",
    g_coeffs=None,
    g_table=None,
    substeps: int = 16,
) -> ControlProblem:
    """Build a library problem.

    Kinds: ``frozen`` (f = 0), ``constant`` (f = drift), ``linear``
    (f = A x), ``u_plus_v`` (scalar f = u + v), ``rotation`` (planar
    f = omega * (-x2, x1)), ``pursuit`` (planar f = u - v),
    ``affine`` (f = A x + B u + C v).  Each ``f`` acts on the last axis,
    so it takes one state (d,) or a batch (N, d) with matching control rows.
    """
    kind = dynamics_kind(kind)
    ug, vg = as_grid(u_grid), as_grid(v_grid)

    if kind == "frozen":
        d = dim or 1
        f = lambda x, u, v: np.zeros(np.shape(x))
        lip_f = 0.0
    elif kind == "constant":
        if drift is None:
            raise ValueError("constant dynamics need a drift vector")
        c = np.asarray(drift, dtype=float).reshape(-1)
        d = c.shape[0]
        if dim is not None and dim != d:
            raise ValueError("dim does not match drift length")
        f = lambda x, u, v: np.broadcast_to(c, np.shape(x))
        lip_f = 0.0
    elif kind == "linear":
        if A is None:
            raise ValueError("linear dynamics need a matrix A")
        mat = np.atleast_2d(np.asarray(A, dtype=float))
        d = mat.shape[0]
        if mat.shape != (d, d):
            raise ValueError("A must be square")
        f = lambda x, u, v: _matvec(mat, x)
        lip_f = _spectral(mat)
    elif kind == "u_plus_v":
        d = 1
        f = lambda x, u, v: u[..., :1] + v[..., :1]
        lip_f = 0.0
    elif kind == "rotation":
        d = 2
        w = float(omega)
        f = lambda x, u, v: np.stack(
            [-w * x[..., 1], w * x[..., 0]], axis=-1
        )
        lip_f = abs(w)
    elif kind == "pursuit":
        d = 2
        if ug.shape[1] != 2 or vg.shape[1] != 2:
            raise ValueError("pursuit needs planar control grids")
        f = lambda x, u, v: u - v
        lip_f = 0.0
    elif kind == "affine":
        if A is None or B is None or C is None:
            raise ValueError("affine dynamics need matrices A, B and C")
        mata = np.atleast_2d(np.asarray(A, dtype=float))
        matb = np.atleast_2d(np.asarray(B, dtype=float))
        matc = np.atleast_2d(np.asarray(C, dtype=float))
        d = mata.shape[0]
        if mata.shape != (d, d):
            raise ValueError("A must be square")
        if matb.shape != (d, ug.shape[1]) or matc.shape != (d, vg.shape[1]):
            raise ValueError("B / C shapes do not match dim and grids")
        f = lambda x, u, v: (
            _matvec(mata, x) + _matvec(matb, u) + _matvec(matc, v)
        )
        lip_f = _spectral(mata)
    else:
        raise ValueError(f"unknown dynamics kind {kind!r}")

    if dim is not None and dim != d:
        raise ValueError(f"kind {kind!r} has dim {d}, config says {dim}")
    g, lip_g = make_payoff(
        g_kind, coeffs=g_coeffs, table=g_table, dim=d
    )
    return ControlProblem(
        dim=d,
        f=f,
        g=g,
        T=float(T),
        u_grid=ug,
        v_grid=vg,
        lip_f_x=lip_f,
        lip_g=lip_g,
        substeps=int(substeps),
    )
