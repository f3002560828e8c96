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
from .measures import ParticleMeasure

#: State radius used when estimating |f| bounds and quadratic-payoff slopes.
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

    ``lip_f_x``, ``lip_g`` and ``bound_f`` are metadata used by property
    tests (Gronwall envelopes, value Lipschitz bounds); the library
    constructors fill them with exact constants where available and with
    documented estimates on the radius-``DOMAIN_RADIUS`` ball otherwise.
    ``f`` must act on the last axis: the value solver calls it on (N, d)
    batches of states with matching rows of controls.
    """

    dim: int
    f: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], float]
    T: float
    u_grid: np.ndarray
    v_grid: np.ndarray
    lip_f_x: float
    lip_g: float
    bound_f: float
    label: str = "problem"
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
        for name in ("lip_f_x", "lip_g", "bound_f"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def n_u(self) -> int:
        return self.u_grid.shape[0]

    @property
    def n_v(self) -> int:
        return self.v_grid.shape[0]


@dataclass(frozen=True)
class StepControlSequence:
    """Indices into a control grid, one per stage."""

    n_stages: int
    values: tuple[int, ...]

    def __post_init__(self):
        vals = tuple(int(v) for v in self.values)
        if self.n_stages < 1:
            raise ValueError("n_stages must be >= 1")
        if len(vals) != self.n_stages:
            raise ValueError(
                f"got {len(vals)} values for {self.n_stages} stages"
            )
        if any(v < 0 for v in vals):
            raise ValueError("grid indices must be nonnegative")
        object.__setattr__(self, "values", vals)


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
    A batch raises ``ValueError`` if ``f`` returns a different shape, as an
    ``f`` written for single states only would.
    """
    h = stage_len / prob.substeps
    f = prob.f
    for _ in range(prob.substeps):
        k1 = np.asarray(f(x, u, v), dtype=float)
        if x.ndim == 2 and k1.shape != x.shape:
            raise ValueError(
                f"f returned shape {k1.shape} for a batch of shape "
                f"{x.shape}; f must act on the last axis"
            )
        k2 = np.asarray(f(x + 0.5 * h * k1, u, v), dtype=float)
        k3 = np.asarray(f(x + 0.5 * h * k2, u, v), dtype=float)
        k4 = np.asarray(f(x + h * k3, u, v), dtype=float)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def flow(
    prob: ControlProblem,
    x0,
    u_seq: StepControlSequence,
    v_seq: StepControlSequence,
) -> np.ndarray:
    """Endpoint X_T of the stage-wise integrated trajectory from x0."""
    if u_seq.n_stages != v_seq.n_stages:
        raise ValueError(
            f"stage mismatch: {u_seq.n_stages} != {v_seq.n_stages}"
        )
    n = u_seq.n_stages
    tau = prob.T / n
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape[0] != prob.dim:
        raise ValueError(f"x0 has dimension {x.shape[0]}, expected {prob.dim}")
    for k in range(n):
        iu, iv = u_seq.values[k], v_seq.values[k]
        if iu >= prob.n_u or iv >= prob.n_v:
            raise ValueError(f"stage {k}: control index out of range")
        x = advance_stage(prob, x, prob.u_grid[iu], prob.v_grid[iv], tau)
        if not np.all(np.isfinite(x)):
            raise NumericFailure("trajectory left the finite range", stage=k)
    return x


def payoff_open_loop(
    prob: ControlProblem,
    mu0: ParticleMeasure,
    u_seq: StepControlSequence,
    v_seq: StepControlSequence,
) -> float:
    """Expected terminal cost when both controls ignore the initial state."""
    total = 0.0
    for w, x in zip(mu0.weights, mu0.points):
        total += w * float(prob.g(flow(prob, x, u_seq, v_seq)))
    return total


def stage_pushforward(
    prob: ControlProblem,
    mu: ParticleMeasure,
    u_assignment: Sequence[int],
    v_index: int,
    stage_len: float,
) -> ParticleMeasure:
    """Advance every atom one stage; atom i uses its own control index.

    Weights are unchanged.  Matches ``measures.pushforward`` of the
    per-atom stage map exactly (same float operations).
    """
    if len(u_assignment) != mu.n_atoms:
        raise ValueError(
            f"u_assignment has {len(u_assignment)} entries "
            f"for {mu.n_atoms} atoms"
        )
    if not 0 <= v_index < prob.n_v:
        raise ValueError("v_index out of range")
    v = prob.v_grid[v_index]
    new_points = []
    for k, (x, iu) in enumerate(zip(mu.points, u_assignment)):
        if not 0 <= iu < prob.n_u:
            raise ValueError(f"atom {k}: u index out of range")
        y = advance_stage(prob, x, prob.u_grid[iu], v, stage_len)
        if not np.all(np.isfinite(y)):
            raise NumericFailure("trajectory left the finite range", stage=0)
        new_points.append(y)
    return ParticleMeasure(np.array(new_points), mu.weights.copy())


# ---------------------------------------------------------------------------
# Terminal payoffs
# ---------------------------------------------------------------------------

def payoff_abs() -> tuple[Callable, float]:
    """g(x) = |x| (Euclidean norm); Lipschitz constant 1."""
    return (lambda x: float(np.linalg.norm(x)), 1.0)


def payoff_quadratic() -> tuple[Callable, float]:
    """g(x) = |x|^2; slope bound taken on the radius-DOMAIN_RADIUS ball."""
    return (lambda x: float(np.dot(x, x)), 2.0 * DOMAIN_RADIUS)


def payoff_linear(coeffs) -> tuple[Callable, float]:
    c = np.asarray(coeffs, dtype=float).reshape(-1)
    return (lambda x: float(np.dot(c, x)), float(np.linalg.norm(c)))


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
    return (lambda x: float(np.interp(float(x[0]), xs, vals)), lip)


def make_payoff(kind: str, *, coeffs=None, table=None, dim: int = 1):
    kind = kind.strip().lower().replace("_", "-")
    if kind == "abs":
        return payoff_abs()
    if kind == "quadratic":
        return payoff_quadratic()
    if kind == "linear":
        return payoff_linear(np.ones(dim) if coeffs is None else coeffs)
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

def _grid_norm_max(grid: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(grid, axis=1)))


def _spectral(mat: np.ndarray) -> float:
    return float(np.linalg.norm(mat, 2))


def _matvec(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``mat @ x`` for each row of ``x``; one matrix-vector product per row,
    so a batch row equals the single-state product bit for bit (a batched
    ``x @ mat.T`` may round differently)."""
    return (mat @ x[..., None])[..., 0]


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
    label: str | None = None,
    lip_g: float | None = None,
) -> ControlProblem:
    """Build a library problem.

    Kinds: ``frozen`` (f = 0), ``constant`` (f = drift), ``linear``
    (f = A x), ``u_plus_v`` (scalar f = u + v), ``rotation`` (planar
    f = omega * (-x2, x1)), ``pursuit`` (planar f = u - v),
    ``affine`` (f = A x + B u + C v).  Each ``f`` acts on the last axis,
    so it takes one state (d,) or a batch (N, d) with matching control rows.
    """
    kind = kind.strip().lower().replace("-", "_")
    ug, vg = as_grid(u_grid), as_grid(v_grid)

    if kind == "frozen":
        d = dim or 1
        f = lambda x, u, v: np.zeros(np.shape(x))
        lip_f, bound = 0.0, 0.0
    elif kind == "constant":
        if drift is None:
            raise ValueError("constant dynamics need a drift vector")
        c = np.asarray(drift, dtype=float).reshape(-1)
        d = c.shape[0]
        if dim is not None and dim != d:
            raise ValueError("dim does not match drift length")
        f = lambda x, u, v: np.broadcast_to(c, np.shape(x))
        lip_f, bound = 0.0, float(np.linalg.norm(c))
    elif kind == "linear":
        if A is None:
            raise ValueError("linear dynamics need a matrix A")
        mat = np.atleast_2d(np.asarray(A, dtype=float))
        d = mat.shape[0]
        if mat.shape != (d, d):
            raise ValueError("A must be square")
        f = lambda x, u, v: _matvec(mat, x)
        lip_f = _spectral(mat)
        bound = lip_f * DOMAIN_RADIUS
    elif kind == "u_plus_v":
        d = 1
        f = lambda x, u, v: u[..., :1] + v[..., :1]
        lip_f = 0.0
        bound = _grid_norm_max(ug) + _grid_norm_max(vg)
    elif kind == "rotation":
        d = 2
        w = float(omega)
        f = lambda x, u, v: np.stack(
            [-w * x[..., 1], w * x[..., 0]], axis=-1
        )
        lip_f = abs(w)
        bound = abs(w) * DOMAIN_RADIUS
    elif kind == "pursuit":
        d = 2
        if ug.shape[1] != 2 or vg.shape[1] != 2:
            raise ValueError("pursuit needs planar control grids")
        f = lambda x, u, v: u - v
        lip_f = 0.0
        bound = float(
            max(
                np.linalg.norm(uu - vv)
                for uu in ug
                for vv in vg
            )
        )
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
        bound = (
            lip_f * DOMAIN_RADIUS
            + _spectral(matb) * _grid_norm_max(ug)
            + _spectral(matc) * _grid_norm_max(vg)
        )
    else:
        raise ValueError(f"unknown dynamics kind {kind!r}")

    if dim is not None and dim != d:
        raise ValueError(f"kind {kind!r} has dim {d}, config says {dim}")
    g, lip_g_auto = make_payoff(
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
        lip_g=float(lip_g) if lip_g is not None else lip_g_auto,
        bound_f=bound,
        label=label or kind,
        substeps=int(substeps),
    )
