"""Flat dotted-key scenario files.

The format is deliberately parser-free: one ``key = value`` pair per line,
``#`` starts a comment, arrays are comma lists and point lists use ``;``
between points.  Example::

    problem.label   = pennies
    problem.kind    = u_plus_v
    problem.T       = 1.0
    problem.n_stages = 1
    problem.u_grid  = -1, 1
    problem.v_grid  = -1, 1
    g.kind          = abs
    mu0.atoms       = 1.0 0.0
    solver.tol      = 1e-7
    seed            = 7

Validation errors name the offending field and line.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .dynamics import ControlProblem, make_problem
from .measures import ParticleMeasure, from_csv


class ConfigError(ValueError):
    """A scenario file failed validation; the message names the field."""


@dataclass(frozen=True, eq=False)
class Scenario:
    label: str
    problem: ControlProblem
    mu0: ParticleMeasure
    n_stages: int
    tol: float
    max_iter: int
    seed: int
    sweep: tuple[int, ...] = ()
    transport_target: ParticleMeasure | None = None
    hamiltonian_queries: int = 8
    hamiltonian_coarse: tuple[int, ...] | None = None
    ekeland_eps: float = 0.1
    ekeland_domain: int = 40
    ekeland_func: str = "moment"


def parse_kv(text: str) -> dict[str, tuple[str, int]]:
    """Parse ``key = value`` lines into {key: (value, line_number)}."""
    out: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = (value, lineno)
    return out


def _floats(raw: str, key: str) -> list[float]:
    toks = [t for t in raw.replace(",", " ").split() if t]
    try:
        return [float(t) for t in toks]
    except ValueError as exc:
        raise ConfigError(f"{key}: not a number list ({exc})") from None


def _ints(raw: str, key: str) -> tuple[int, ...]:
    vals = _floats(raw, key)
    if not all(v.is_integer() for v in vals):
        raise ConfigError(f"{key}: expected integers, got {raw!r}")
    return tuple(int(v) for v in vals)


def _points(raw: str, key: str) -> list[list[float]]:
    pts = [p for p in raw.split(";") if p.strip()]
    if not pts:
        raise ConfigError(f"{key}: empty point list")
    out = [_floats(p, key) for p in pts]
    if len({len(p) for p in out}) != 1:
        raise ConfigError(f"{key}: points have mixed dimensions")
    return out


def _grid(raw: str, key: str) -> list[list[float]]:
    """Control grids: a comma list of scalars, or ';'-separated vectors.

    A single vector-valued grid point needs a trailing ';' to distinguish
    it from a list of scalars.
    """
    if ";" in raw:
        return _points(raw, key)
    vals = _floats(raw, key)
    if not vals:
        raise ConfigError(f"{key}: empty grid")
    return [[v] for v in vals]


class _Fields:
    """Typed access into the parsed key/value table with field-named errors.

    Every key looked up is recorded in ``read``, so that
    ``check_all_read`` can name the keys the loader never asked for.
    """

    def __init__(self, table: dict[str, tuple[str, int]]):
        self.table = table
        self.read: set[str] = set()

    def has(self, key: str) -> bool:
        return key in self.table

    def raw(self, key: str, default: str | None = None) -> str | None:
        self.read.add(key)
        if key not in self.table:
            return default
        return self.table[key][0]

    def require(self, key: str) -> str:
        raw = self.raw(key)
        if raw is None:
            raise ConfigError(f"{key}: required field is missing")
        return raw

    def check_all_read(self) -> None:
        """Raise on the first key, in file order, that was never read."""
        for key, (_, lineno) in self.table.items():
            if key not in self.read:
                raise ConfigError(f"{key}: unknown key (line {lineno})")

    def get_float(self, key: str, default: float | None = None) -> float:
        raw = self.raw(key)
        if raw is None:
            if default is None:
                raise ConfigError(f"{key}: required field is missing")
            return default
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {raw!r}") from None

    def get_int(self, key: str, default: int | None = None) -> int:
        raw = self.raw(key)
        if raw is None:
            if default is None:
                raise ConfigError(f"{key}: required field is missing")
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _atoms_to_measure(raw: str, key: str) -> ParticleMeasure:
    rows = _points(raw, key)
    if any(len(r) < 2 for r in rows):
        raise ConfigError(f"{key}: each atom needs a weight and a point")
    weights = [r[0] for r in rows]
    points = [r[1:] for r in rows]
    try:
        return ParticleMeasure(np.array(points), np.array(weights))
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _load_measure(
    fields: _Fields, prefix: str, base_dir: str
) -> ParticleMeasure | None:
    atoms = fields.raw(f"{prefix}.atoms")
    csv_path = fields.raw(f"{prefix}.csv")
    if atoms is not None and csv_path is not None:
        raise ConfigError(f"{prefix}: give either .atoms or .csv, not both")
    if atoms is not None:
        return _atoms_to_measure(atoms, f"{prefix}.atoms")
    if csv_path is not None:
        path = csv_path
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        if not os.path.exists(path):
            raise ConfigError(f"{prefix}.csv: file not found: {path}")
        try:
            return from_csv(path)
        except ValueError as exc:
            raise ConfigError(f"{prefix}.csv: {exc}") from None
    return None


def _matrix(raw: str, rows: int, cols: int, key: str) -> np.ndarray:
    vals = _floats(raw, key)
    if len(vals) != rows * cols:
        raise ConfigError(
            f"{key}: expected {rows * cols} row-major entries, got {len(vals)}"
        )
    return np.array(vals).reshape(rows, cols)


def load_scenario(path_or_text: str) -> Scenario:
    """Load and validate a scenario file (or literal config text)."""
    if "\n" not in path_or_text and os.path.exists(path_or_text):
        base_dir = os.path.dirname(os.path.abspath(path_or_text))
        with open(path_or_text, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        base_dir = os.getcwd()
        text = path_or_text
    fields = _Fields(parse_kv(text))

    kind = fields.require("problem.kind")
    t_horizon = fields.get_float("problem.T")
    if not t_horizon > 0.0:
        raise ConfigError("problem.T: must be > 0")
    n_stages = fields.get_int("problem.n_stages")
    if n_stages < 1:
        raise ConfigError("problem.n_stages: must be >= 1")
    u_grid = _grid(fields.require("problem.u_grid"), "problem.u_grid")
    v_grid = _grid(fields.require("problem.v_grid"), "problem.v_grid")
    label = fields.raw("problem.label", default=kind)
    dim = fields.get_int("problem.dim") if fields.has("problem.dim") else None
    if dim is not None and dim < 1:
        raise ConfigError("problem.dim: must be >= 1")

    g_kind = fields.raw("g.kind", default="abs")
    g_coeffs = None
    if fields.has("g.coeffs"):
        g_coeffs = _floats(fields.require("g.coeffs"), "g.coeffs")
    g_table = None
    if fields.has("g.table"):
        rows = _points(fields.require("g.table"), "g.table")
        if any(len(r) != 2 for r in rows):
            raise ConfigError("g.table: each entry must be 'x v'")
        g_table = [(r[0], r[1]) for r in rows]

    kw: dict = {}
    d_for_mats = dim
    if kind in ("linear", "affine"):
        if d_for_mats is None:
            raise ConfigError("problem.dim: required for linear/affine dynamics")
        kw["A"] = _matrix(fields.require("problem.A"), d_for_mats, d_for_mats, "problem.A")
    if kind == "affine":
        cu, cv = len(u_grid[0]), len(v_grid[0])
        kw["B"] = _matrix(fields.require("problem.B"), d_for_mats, cu, "problem.B")
        kw["C"] = _matrix(fields.require("problem.C"), d_for_mats, cv, "problem.C")
    if kind == "constant":
        kw["drift"] = _floats(fields.require("problem.drift"), "problem.drift")
    if kind == "rotation":
        kw["omega"] = fields.get_float("problem.omega", default=1.0)

    try:
        problem = make_problem(
            kind,
            T=t_horizon,
            u_grid=u_grid,
            v_grid=v_grid,
            dim=dim,
            g_kind=g_kind,
            g_coeffs=g_coeffs,
            g_table=g_table,
            substeps=fields.get_int("integrator.substeps", default=16),
            label=label,
            **kw,
        )
    except ValueError as exc:
        raise ConfigError(f"problem: {exc}") from None

    mu0 = _load_measure(fields, "mu0", base_dir)
    if mu0 is None:
        raise ConfigError("mu0.atoms: required field is missing (or mu0.csv)")
    if mu0.dim != problem.dim:
        raise ConfigError(
            f"mu0: dimension {mu0.dim} does not match problem dim {problem.dim}"
        )

    tol = fields.get_float("solver.tol", default=1e-7)
    if not tol > 0.0:
        raise ConfigError("solver.tol: must be > 0")
    max_iter = fields.get_int("solver.max_iter", default=200)
    if max_iter < 1:
        raise ConfigError("solver.max_iter: must be >= 1")

    sweep: tuple[int, ...] = ()
    if fields.has("sweep.n"):
        sweep = _ints(fields.require("sweep.n"), "sweep.n")
        if any(v < 1 for v in sweep):
            raise ConfigError("sweep.n: stage counts must be >= 1")

    coarse = None
    if fields.has("hamiltonian.coarse_indices"):
        key = "hamiltonian.coarse_indices"
        coarse = _ints(fields.require(key), key)
        if not coarse:
            raise ConfigError(f"{key}: must list at least one index")
        if len(set(coarse)) != len(coarse):
            raise ConfigError(f"{key}: indices must be distinct")
        if any(i < 0 or i >= problem.n_v for i in coarse):
            raise ConfigError(f"{key}: index out of range of problem.v_grid")

    queries = fields.get_int("hamiltonian.queries", default=8)
    if queries < 1:
        raise ConfigError("hamiltonian.queries: must be >= 1")
    ekeland_eps = fields.get_float("ekeland.eps", default=0.1)
    if not ekeland_eps > 0.0:
        raise ConfigError("ekeland.eps: must be > 0")
    ekeland_domain = fields.get_int("ekeland.domain", default=40)
    if ekeland_domain < 1:
        raise ConfigError("ekeland.domain: must be >= 1")
    seed = fields.get_int("seed", default=0)
    if seed < 0:
        raise ConfigError("seed: must be >= 0")
    ekeland_func = fields.raw("ekeland.func", default="moment")
    if ekeland_func not in ("moment", "payoff"):
        raise ConfigError("ekeland.func: must be 'moment' or 'payoff'")
    transport_target = _load_measure(fields, "transport.target", base_dir)
    fields.check_all_read()

    return Scenario(
        label=label,
        problem=problem,
        mu0=mu0,
        n_stages=n_stages,
        tol=tol,
        max_iter=max_iter,
        seed=seed,
        sweep=sweep,
        transport_target=transport_target,
        hamiltonian_queries=queries,
        hamiltonian_coarse=coarse,
        ekeland_eps=ekeland_eps,
        ekeland_domain=ekeland_domain,
        ekeland_func=ekeland_func,
    )
