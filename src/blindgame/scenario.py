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

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (
    ControlProblem, dynamics_kind, make_payoff, make_problem, payoff_kind
)
from .game_kernel import _coarse_indices
from .measures import ParticleMeasure, _read_text, from_csv


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
    sweep: tuple[int, ...]
    transport_target: ParticleMeasure | None
    hamiltonian_queries: int
    hamiltonian_coarse: tuple[int, ...] | None
    ekeland_eps: float
    ekeland_domain: int
    ekeland_func: str


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
    """The finite numbers of a comma or space separated list."""
    toks = [t for t in raw.replace(",", " ").split() if t]
    try:
        vals = [float(t) for t in toks]
    except ValueError as exc:
        raise ConfigError(f"{key}: not a number list ({exc})") from None
    for tok, val in zip(toks, vals):
        if not math.isfinite(val):
            raise ConfigError(f"{key}: must be finite, got {tok!r}")
    return vals


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

    def get(self, key: str, kind: type, default=None, *, above=None,
            at_least=None):
        """The field as ``kind`` (``float`` or ``int``), or ``default`` if
        it is absent and a default is given.

        The value must be finite, and ``> above`` and ``>= at_least`` where
        those bounds are given; the error names the key and the bound.
        """
        if default is not None and self.raw(key) is None:
            return default
        raw = self.require(key)
        try:
            value = kind(raw)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ConfigError(f"{key}: expected {what}, got {raw!r}") from None
        if not math.isfinite(value):
            raise ConfigError(f"{key}: must be finite, got {raw!r}")
        if above is not None and not value > above:
            raise ConfigError(f"{key}: must be > {above}")
        if at_least is not None and not value >= at_least:
            raise ConfigError(f"{key}: must be >= {at_least}")
        return value


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
    fields: _Fields, prefix: str, base_dir: str, dim: int
) -> ParticleMeasure | None:
    """The measure given by ``prefix.atoms`` or ``prefix.csv``, checked to
    live in dimension ``dim``, or None if neither key is given."""
    atoms = fields.raw(f"{prefix}.atoms")
    csv_path = fields.raw(f"{prefix}.csv")
    if atoms is not None and csv_path is not None:
        raise ConfigError(f"{prefix}: give either .atoms or .csv, not both")
    if atoms is not None:
        mu = _atoms_to_measure(atoms, f"{prefix}.atoms")
    elif csv_path is not None:
        try:
            mu = from_csv(os.path.join(base_dir, csv_path))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{prefix}.csv: {exc}") from None
    else:
        return None
    if mu.dim != dim:
        raise ConfigError(
            f"{prefix}: dimension {mu.dim} does not match problem dim {dim}"
        )
    return mu


def _matrix(raw: str, rows: int, cols: int, key: str) -> np.ndarray:
    vals = _floats(raw, key)
    if len(vals) != rows * cols:
        raise ConfigError(
            f"{key}: expected {rows * cols} row-major entries, got {len(vals)}"
        )
    return np.array(vals).reshape(rows, cols)


def load_scenario(path_or_text: str | os.PathLike) -> Scenario:
    """Load and validate a scenario file, or literal config text: a ``str``
    holding a newline is the text itself, and anything else is the path of
    a scenario file, which must exist.  Relative ``.csv`` paths resolve
    against the file's directory, or the working directory for text."""
    try:
        text, path = _read_text(path_or_text)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file: {exc}") from None
    base_dir = os.path.dirname(os.path.abspath(path)) if path else os.getcwd()
    fields = _Fields(parse_kv(text))

    kind = fields.require("problem.kind")
    t_horizon = fields.get("problem.T", float, above=0)
    n_stages = fields.get("problem.n_stages", int, at_least=1)
    u_grid = _grid(fields.require("problem.u_grid"), "problem.u_grid")
    v_grid = _grid(fields.require("problem.v_grid"), "problem.v_grid")
    dim = None
    if fields.raw("problem.dim") is not None:
        dim = fields.get("problem.dim", int, at_least=1)

    # Each kind-specific key is read only for its kind, so that
    # ``check_all_read`` names one given for another kind.
    g_kind = payoff_kind(fields.raw("g.kind", default="abs"))
    g_coeffs = g_table = None
    if g_kind == "linear":
        coeffs = fields.raw("g.coeffs")
        if coeffs is not None:
            g_coeffs = _floats(coeffs, "g.coeffs")
    elif g_kind == "custom-table":
        table = fields.raw("g.table")
        if table is not None:
            rows = _points(table, "g.table")
            if any(len(r) != 2 for r in rows):
                raise ConfigError("g.table: each entry must be 'x v'")
            g_table = [(r[0], r[1]) for r in rows]

    kw: dict = {}
    problem_kind = dynamics_kind(kind)
    if problem_kind in ("linear", "affine"):
        if dim is None:
            raise ConfigError("problem.dim: required for linear/affine dynamics")
        kw["A"] = _matrix(fields.require("problem.A"), dim, dim, "problem.A")
    if problem_kind == "affine":
        cu, cv = len(u_grid[0]), len(v_grid[0])
        kw["B"] = _matrix(fields.require("problem.B"), dim, cu, "problem.B")
        kw["C"] = _matrix(fields.require("problem.C"), dim, cv, "problem.C")
    if problem_kind == "constant":
        kw["drift"] = _floats(fields.require("problem.drift"), "problem.drift")
    if problem_kind == "rotation":
        kw["omega"] = fields.get("problem.omega", float, default=1.0)
    substeps = fields.get("integrator.substeps", int, default=16, at_least=1)

    try:
        problem = make_problem(
            kind,
            T=t_horizon,
            u_grid=u_grid,
            v_grid=v_grid,
            dim=dim,
            g_kind=g_kind,
            g_table=g_table,
            substeps=substeps,
            **kw,
        )
    except ValueError as exc:
        raise ConfigError(f"problem: {exc}") from None
    # The label is written unquoted into every CSV the CLI writes; a kind
    # that make_problem accepts never holds either character.
    label = fields.raw("problem.label", default=kind)
    if any(c in label for c in ',"'):
        raise ConfigError(
            f"problem.label: must not contain ',' or '\"', got {label!r}"
        )
    # The coefficient count is checked against the dimension make_problem
    # settled on, so that the error names its key.
    if g_coeffs is not None:
        try:
            g, lip_g = make_payoff("linear", coeffs=g_coeffs, dim=problem.dim)
        except ValueError as exc:
            raise ConfigError(f"g.coeffs: {exc}") from None
        problem = replace(problem, g=g, lip_g=lip_g)

    mu0 = _load_measure(fields, "mu0", base_dir, problem.dim)
    if mu0 is None:
        raise ConfigError("mu0.atoms: required field is missing (or mu0.csv)")

    tol = fields.get("solver.tol", float, default=1e-7, above=0)
    max_iter = fields.get("solver.max_iter", int, default=200, at_least=1)

    sweep: tuple[int, ...] = ()
    if fields.raw("sweep.n") is not None:
        sweep = _ints(fields.require("sweep.n"), "sweep.n")
        if any(v < 1 for v in sweep):
            raise ConfigError("sweep.n: stage counts must be >= 1")

    coarse = None
    if fields.raw("hamiltonian.coarse_indices") is not None:
        key = "hamiltonian.coarse_indices"
        indices = _ints(fields.require(key), key)
        try:
            coarse = tuple(_coarse_indices(problem, indices))
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from None

    queries = fields.get("hamiltonian.queries", int, default=8, at_least=1)
    ekeland_eps = fields.get("ekeland.eps", float, default=0.1, above=0)
    ekeland_domain = fields.get("ekeland.domain", int, default=40, at_least=1)
    seed = fields.get("seed", int, default=0, at_least=0)
    ekeland_func = fields.raw("ekeland.func", default="moment")
    if ekeland_func not in ("moment", "payoff"):
        raise ConfigError("ekeland.func: must be 'moment' or 'payoff'")
    transport_target = _load_measure(
        fields, "transport.target", base_dir, problem.dim
    )
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
