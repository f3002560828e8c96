"""Workload definitions: seeded input generation, the op ladders and the
output checks.

Every op is one ``blindgame`` CLI command.  ``build(workload, seed, work, ...)``
writes the scenario files and measure CSVs for one workload into ``work``
and returns its ladder of ops; the same seed always writes the same files.

How the seed varies the inputs without varying the work:

* solve / converge / oracle scenarios are drawn in a seeded pose that is an
  exact symmetry of the game: the mirror x -> -x (with both control grids
  negated, index order kept) and, for the planar ``pursuit`` dynamics, a
  rotation by a multiple of 90 degrees.  Float negation and these
  rotations are exact, so every trajectory is mapped exactly, the value is
  unchanged and the solver takes the same path.  That lets one reference
  table (``reference.json``, recorded from the base pose) check every seed.
* transport pairs are fixed cloud shapes placed in a seeded rigid pose
  (rotation, reflection, translation).  W2 is invariant under a common
  rigid motion and the exact simplex makes the same pivots, so the seed
  changes the numbers but not the amount of work; the expected cost comes
  from an independent HiGHS LP on the generated numbers.
* hamiltonian, converge and ekeland draw their random fields and domains
  inside the program from ``--seed``, which is derived from the seed here.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

WORKLOADS = ("solve-deep", "solve-wide", "transport", "kernels")

OK = "ok"
KNOWN_DEFECT = "known-defect"

# The master-LP defect reproduction (ROADMAP item 2): exactly these grid
# floats make the Bland-rule master LP cycle until the iteration cap.
REPRO_V_GRID = [float(v) for v in np.linspace(-1.0, 1.0, 8)]
REPRO_MESSAGE = "simplex hit the iteration cap"
# Value the solver certifies for the same game on the grid written as
# (2i - 7) / 7, which differs from REPRO_V_GRID only in the last bits.
REPRO_VALUE = 0.5


def _num(x: float) -> str:
    return repr(float(x))


def _grid_text(grid: np.ndarray) -> str:
    if grid.shape[1] == 1:
        return ", ".join(_num(v) for v in grid[:, 0])
    return " ".join(" ".join(_num(c) for c in row) + ";" for row in grid)


def _write_measure_csv(path: str, points: np.ndarray, weights: np.ndarray):
    cols = ["w"] + [f"x_{k + 1}" for k in range(points.shape[1])]
    lines = [",".join(cols)]
    for w, x in zip(weights, points):
        lines.append(",".join(_num(v) for v in [w, *x]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_measure_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        rows = [[float(c) for c in r] for r in list(csv.reader(fh))[1:] if r]
    arr = np.array(rows)
    return arr[:, 1:], arr[:, 0]


def _read_rows(path: str) -> list[dict[str, str]]:
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@dataclass(frozen=True)
class Game:
    """One base scenario of the discretized game, before the seeded pose."""

    key: str
    kind: str
    n: int
    u_grid: list
    v_grid: list
    points: list
    weights: list
    extra: dict = field(default_factory=dict)
    tol: float = 1e-7

    def posed(self, sign: float, turns: int):
        """Points and grids mirrored by ``sign`` and, for planar pursuit,
        turned by ``turns`` quarter turns; rows keep their order."""
        arrays = [
            sign * np.asarray(a, dtype=float).reshape(len(a), -1)
            for a in (self.points, self.u_grid, self.v_grid)
        ]
        quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
        for _ in range(turns):
            arrays = [a @ quarter.T for a in arrays]
        return arrays


# Affine planar dynamics f = A x + B u + C v: the mirror maps it to itself.
_AFFINE = {"problem.dim": "2", "problem.A": "0, 1, -1, 0",
           "problem.B": "1, 0", "problem.C": "0, 1"}
_PURSUIT_U = [[1, 0], [0, 1], [-1, 0], [0, -1]]
_PURSUIT_V = [[1, 0], [0, 1], [-1, 0], [0, -1], [0, 0]]
_A2 = ([-0.3, 0.4], [0.5, 0.5])
_A3 = ([-0.5, 0.1, 0.6], [0.3, 0.3, 0.4])

GAMES = {
    g.key: g
    for g in [
        # solve-deep: small grids, deep delayed trees.
        Game("upv-2x2-a3-n3", "u_plus_v", 3, [-1, 1], [-1, 1], *_A3),
        Game("upv-2x2-a2-n4", "u_plus_v", 4, [-1, 1], [-1, 1], *_A2),
        Game("upv-2x2-a1-n5", "u_plus_v", 5, [-1, 1], [-1, 1], [0.25], [1.0]),
        Game("upv-2x3-a2-n3", "u_plus_v", 3, [-1, 1], [-1, 0, 1], *_A2),
        Game("affine-2x2-a2-n3", "affine", 3, [-1, 1], [-1, 1],
             [[0.2, -0.3], [-0.4, 0.1]], [0.5, 0.5], _AFFINE),
        Game("affine-2x2-a2-n4", "affine", 4, [-1, 1], [-1, 1],
             [[0.2, -0.3], [-0.4, 0.1]], [0.5, 0.5], _AFFINE),
        # solve-wide: wide v-grids at n <= 2.
        Game("upv-3x5-a2-n2", "u_plus_v", 2, [-1, 0, 1],
             [-1, -0.5, 0, 0.5, 1], *_A2),
        Game("upv-3x6-a2-n2", "u_plus_v", 2, [-1, 0, 1],
             [-1, -0.6, -0.2, 0.2, 0.6, 1], *_A2),
        Game("pursuit-4x5-a2-n2", "pursuit", 2, _PURSUIT_U, _PURSUIT_V,
             [[0.3, 0.1], [-0.2, 0.4]], [0.5, 0.5]),
        Game("upv-3x8-master-lp-repro", "u_plus_v", 2, [-1, 0, 1],
             REPRO_V_GRID, *_A2),
        # kernels: games small enough for the brute-force oracle.
        Game("oracle-upv-2x2-a2-n2", "u_plus_v", 2, [-1, 1], [-1, 1], *_A2),
        Game("oracle-upv-3x2-a1-n2", "u_plus_v", 2, [-1, 0, 1], [-1, 1],
             [0.1], [1.0]),
        Game("oracle-affine-2x2-a1-n2", "affine", 2, [-1, 1], [-1, 1],
             [[0.2, -0.3]], [1.0], _AFFINE),
    ]
}

# Converge sweeps reuse a base game with ``sweep.n``; keyed per stage count.
CONVERGE_GAME = "upv-3x5-a2-n2"
CONVERGE_SWEEP = (1, 2)


def _pose(game: Game, rng: np.random.Generator) -> tuple[float, int]:
    """A seeded exact symmetry of the game (see the module docstring)."""
    sign = float(rng.choice([-1.0, 1.0]))
    turns = int(rng.integers(4)) if game.kind == "pursuit" else 0
    return sign, turns


def _scenario_text(game: Game, pose: tuple[float, int], label: str,
                   csv_name: str, extra: dict) -> tuple[str, np.ndarray, np.ndarray]:
    x, u, v = game.posed(*pose)
    lines = [
        f"problem.label = {label}",
        f"problem.kind = {game.kind}",
        "problem.T = 1.0",
        f"problem.n_stages = {game.n}",
        f"problem.u_grid = {_grid_text(u)}",
        f"problem.v_grid = {_grid_text(v)}",
        "g.kind = abs",
        f"mu0.csv = {csv_name}",
        f"solver.tol = {_num(game.tol)}",
    ]
    lines += [f"{k} = {val}" for k, val in {**game.extra, **extra}.items()]
    return "\n".join(lines) + "\n", x, np.asarray(game.weights, dtype=float)


@dataclass
class Op:
    """One CLI command and the check of its outputs."""

    name: str
    argv: list[str]
    out_dir: str
    check: Callable[[int, str, str], str]


def _solve_check(op_out: str, value: float, tol: float):
    def check(rc: int, stdout: str, stderr: str) -> str:
        if rc != 0:
            return f"exit code {rc}: {stderr.strip()[-200:]}"
        row = _read_rows(os.path.join(op_out, "values.csv"))[0]
        got, gap = float(row["value"]), float(row["gap"])
        if gap > tol:
            return f"gap {gap} > tol {tol}"
        if abs(got - value) > tol + 1e-9:
            return f"value {got} differs from reference {value}"
        if not os.path.exists(os.path.join(op_out, "certificate.csv")):
            return "certificate.csv missing"
        return OK
    return check


def _repro_check(op_out: str, tol: float):
    solved = _solve_check(op_out, REPRO_VALUE, tol)

    def check(rc: int, stdout: str, stderr: str) -> str:
        if rc == 1 and REPRO_MESSAGE in stderr:
            return KNOWN_DEFECT
        return solved(rc, stdout, stderr)
    return check


def _converge_check(op_out: str, values: dict, tol: float):
    def check(rc: int, stdout: str, stderr: str) -> str:
        if rc != 0:
            return f"exit code {rc}: {stderr.strip()[-200:]}"
        rows = _read_rows(os.path.join(op_out, "converge.csv"))
        if [int(r["n"]) for r in rows] != sorted(values):
            return "converge.csv rows do not match sweep.n"
        for r in rows:
            want = values[int(r["n"])]
            if float(r["gap"]) > tol or abs(float(r["value"]) - want) > tol + 1e-9:
                return f"n={r['n']}: value {r['value']} gap {r['gap']} vs {want}"
            if float(r["h_gap"]) > float(r["gamma_bound"]) + 1e-9:
                return f"n={r['n']}: h_gap above gamma_bound"
        return OK
    return check


def _exit_zero(rc: int, stdout: str, stderr: str) -> str:
    return OK if rc == 0 else f"exit code {rc}: {stderr.strip()[-200:]}"


def _hamiltonian_check(op_out: str, queries: int):
    def check(rc: int, stdout: str, stderr: str) -> str:
        if rc != 0:
            return f"exit code {rc}: {stderr.strip()[-200:]}"
        rows = _read_rows(os.path.join(op_out, "hamiltonian.csv"))
        if len(rows) != queries:
            return f"{len(rows)} hamiltonian rows, expected {queries}"
        for r in rows:
            if float(r["gap"]) > float(r["bound"]) + 1e-9:
                return f"query {r['query']}: gap {r['gap']} > bound {r['bound']}"
        return OK
    return check


def _ekeland_check(op_out: str):
    def check(rc: int, stdout: str, stderr: str) -> str:
        if rc != 0:
            return f"exit code {rc}: {stderr.strip()[-200:]}"
        row = _read_rows(os.path.join(op_out, "ekeland.csv"))[0]
        if int(row["violations"]) != 0:
            return f"{row['violations']} violations"
        return OK
    return check


def _transport_check(op_out: str, expected_cost: float):
    def check(rc: int, stdout: str, stderr: str) -> str:
        if rc != 0:
            return f"exit code {rc}: {stderr.strip()[-200:]}"
        row = _read_rows(os.path.join(op_out, "transport.csv"))[0]
        got = float(row["cost"])
        if abs(got - expected_cost) > 1e-9 * max(1.0, abs(expected_cost)):
            return f"cost {got} differs from HiGHS {expected_cost}"
        return OK
    return check


def _unarmed(rc: int, stdout: str, stderr: str) -> str:
    return "no reference cost computed"


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class Builder:
    """Writes one workload's inputs into ``work`` and collects its ops."""

    def __init__(self, work: str, seed: int):
        self.work = work
        self.rng = np.random.default_rng(seed)
        self.ops: list[Op] = []
        os.makedirs(work, exist_ok=True)

    def cli_seed(self) -> int:
        return int(self.rng.integers(1, 2**31 - 1))

    def _files(self, name: str, text: str, x: np.ndarray, w: np.ndarray) -> str:
        cfg = os.path.join(self.work, f"{name}.cfg")
        _write_measure_csv(os.path.join(self.work, f"{name}-mu0.csv"), x, w)
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text)
        return cfg

    def game_file(self, command: str, key: str, pose: tuple[float, int],
                  extra: dict | None = None) -> tuple[str, str]:
        """Write one game's scenario in ``pose``; return (name, cfg path)."""
        name = f"{command}-{key}"
        text, x, w = _scenario_text(
            GAMES[key], pose, name, f"{name}-mu0.csv", extra or {}
        )
        return name, self._files(name, text, x, w)

    def game_op(self, command: str, key: str, check_for: Callable,
                extra: dict | None = None, args: tuple = ()) -> None:
        game = GAMES[key]
        name, cfg = self.game_file(command, key, _pose(game, self.rng), extra)
        out = os.path.join(self.work, "out", name)
        argv = [command, "--config", cfg, "--out", out, "--repro", *args]
        self.ops.append(Op(name, argv, out, check_for(out, game)))

    def planar_measure(self, name: str, x: np.ndarray, command: str,
                       extra: dict, cli_seed: int, check: Callable) -> None:
        """A pursuit scenario with a 12-point planar v-grid on cloud ``x``."""
        w = np.full(len(x), 1.0 / len(x))
        u = np.array(_PURSUIT_U, dtype=float)
        angles = np.arange(12) * (2.0 * math.pi / 12)
        v = np.column_stack([np.cos(angles), np.sin(angles)])
        lines = [
            f"problem.label = {name}", "problem.kind = pursuit",
            "problem.T = 1.0", "problem.n_stages = 2",
            f"problem.u_grid = {_grid_text(u)}",
            f"problem.v_grid = {_grid_text(v)}",
            f"mu0.csv = {name}-mu0.csv",
        ] + [f"{k} = {val}" for k, val in extra.items()]
        cfg = self._files(name, "\n".join(lines) + "\n", x, w)
        out = os.path.join(self.work, "out", name)
        argv = [command, "--config", cfg, "--out", out, "--repro",
                "--seed", str(cli_seed)]
        self.ops.append(Op(name, argv, out, check(out)))

    def transport_op(self, name: str, shape_seed: int, atoms: int, dim: int):
        """A fixed pair of cloud shapes in a seeded rigid pose."""
        shapes = np.random.default_rng(shape_seed)
        a = shapes.normal(size=(atoms, dim))
        b = shapes.normal(size=(atoms, dim)) + 0.5
        if dim == 2:
            theta = self.rng.uniform(0.0, 2.0 * math.pi)
            rot = np.array([[math.cos(theta), -math.sin(theta)],
                            [math.sin(theta), math.cos(theta)]])
        else:
            rot = np.eye(1)
        rot = rot * float(self.rng.choice([-1.0, 1.0]))
        shift = self.rng.normal(size=dim)
        a, b = a @ rot.T + shift, b @ rot.T + shift
        w = np.full(atoms, 1.0 / atoms)
        _write_measure_csv(os.path.join(self.work, f"{name}-target.csv"), b, w)
        lines = [
            f"problem.label = {name}", "problem.kind = frozen",
            f"problem.dim = {dim}", "problem.T = 1.0",
            "problem.n_stages = 1", "problem.u_grid = 0", "problem.v_grid = 0",
            f"mu0.csv = {name}-mu0.csv",
            f"transport.target.csv = {name}-target.csv",
        ]
        if dim == 2:
            lines[5:7] = ["problem.u_grid = 0 0;", "problem.v_grid = 0 0;"]
        cfg = self._files(name, "\n".join(lines) + "\n", a, w)
        out = os.path.join(self.work, "out", name)
        argv = ["transport", "--config", cfg, "--out", out, "--repro"]
        self.ops.append(Op(name, argv, out, _unarmed))


def _ref_check(reference: dict):
    def for_game(out: str, game: Game):
        return _solve_check(out, reference[game.key], game.tol)
    return for_game


def build(workload: str, seed: int, work: str, reference: dict) -> list[Op]:
    """Write the inputs of ``workload`` for ``seed`` and return its ops."""
    b = Builder(work, seed)
    solve = _ref_check(reference)
    if workload == "solve-deep":
        for key in ["upv-2x2-a3-n3", "upv-2x2-a2-n4", "upv-2x2-a1-n5",
                    "upv-2x3-a2-n3", "affine-2x2-a2-n3", "affine-2x2-a2-n4"]:
            b.game_op("solve", key, solve)
    elif workload == "solve-wide":
        for key in ["upv-3x5-a2-n2", "upv-3x6-a2-n2", "pursuit-4x5-a2-n2"]:
            b.game_op("solve", key, solve)
        sweep = {n: reference[f"{CONVERGE_GAME}@n={n}"] for n in CONVERGE_SWEEP}
        b.game_op(
            "converge", CONVERGE_GAME,
            lambda out, g: _converge_check(out, sweep, g.tol),
            extra={"sweep.n": ", ".join(str(n) for n in CONVERGE_SWEEP)},
            args=("--seed", str(b.cli_seed())),
        )
        b.game_op("solve", "upv-3x8-master-lp-repro",
                  lambda out, g: _repro_check(out, g.tol))
    elif workload == "transport":
        for i, (atoms, dim) in enumerate(
            [(20, 2), (20, 2), (20, 2), (20, 2), (28, 2), (28, 2), (24, 1)]
        ):
            b.transport_op(f"w2-{dim}d-{atoms}-{i}", 1000 + i, atoms, dim)
    elif workload == "kernels":
        queries = 4
        b.planar_measure(
            "hamiltonian-30", b.rng.normal(0.0, 0.5, size=(30, 2)),
            "hamiltonian", {"hamiltonian.queries": str(queries)},
            b.cli_seed(), lambda out: _hamiltonian_check(out, queries),
        )
        # The ekeland domain is mu0 plus jitter drawn from --seed.  A fixed
        # shape, jitter seed and eps keep the search on the same 149 W2
        # pairs for every seed; the seed translates the whole domain.
        shape = np.random.default_rng(2024).normal(0.0, 0.5, size=(8, 2))
        b.planar_measure(
            "ekeland-8x150", shape + b.rng.normal(0.0, 0.5, size=2), "ekeland",
            {"ekeland.domain": "150", "ekeland.eps": "5.0"}, 2024,
            _ekeland_check,
        )
        for key in ["oracle-upv-2x2-a2-n2", "oracle-upv-3x2-a1-n2",
                    "oracle-affine-2x2-a1-n2"]:
            b.game_op("oracle", key, lambda out, g: _exit_zero)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return b.ops


def arm_transport_checks(ops: list[Op]) -> None:
    """Attach the HiGHS reference cost to every transport op.

    Runs outside the timed region: it imports scipy and solves each pair
    as a plain LP over the coupling, sharing no code with the program.
    """
    from scipy.optimize import linprog

    for op in ops:
        if op.argv[0] != "transport":
            continue
        base = op.argv[2][: -len(".cfg")]
        x, wa = _read_measure_csv(base + "-mu0.csv")
        y, wb = _read_measure_csv(base + "-target.csv")
        m, k = len(wa), len(wb)
        cost = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2).reshape(-1)
        a_eq = np.zeros((m + k, m * k))
        for i in range(m):
            a_eq[i, i * k:(i + 1) * k] = 1.0
        for j in range(k):
            a_eq[m + j, j::k] = 1.0
        res = linprog(
            cost, A_eq=a_eq, b_eq=np.concatenate([wa / wa.sum(), wb / wb.sum()]),
            bounds=(0, None), method="highs-ds",
            options={"primal_feasibility_tolerance": 1e-10,
                     "dual_feasibility_tolerance": 1e-10},
        )
        if res.status != 0:
            raise RuntimeError(f"{op.name}: HiGHS failed: {res.message}")
        op.check = _transport_check(op.out_dir, float(res.fun))


def warmup_ops(seed: int, work: str) -> list[Op]:
    """One cheap op per command, run during set-up so lazy imports and
    first-call costs land in ``setup_s`` rather than in ``wall_s``."""
    b = Builder(work, seed)
    b.game_op("solve", "oracle-upv-2x2-a2-n2", lambda out, g: _exit_zero)
    b.game_op("oracle", "oracle-upv-3x2-a1-n2", lambda out, g: _exit_zero)
    b.transport_op("warm-w2", 7, 6, 2)
    b.ops[-1].check = _exit_zero
    return b.ops
