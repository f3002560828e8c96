"""Scenario-driven command line front end.

Subcommands: ``solve``, ``converge``, ``oracle``, ``hamiltonian``,
``transport``, ``ekeland``.  Every command loads one scenario file, writes
CSV reports under --out, and communicates success through its exit code
(0 success / certified, 2 uncertified gap, 1 error).  All floating output
uses 12 significant digits and all randomness is drawn from the seed, so a
fixed scenario and seed reproduce byte-identical CSVs; pass --repro to also
zero the wall-time column of the solve report.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from typing import Sequence

import numpy as np

# No call goes through this name: advance_stage is imported only because
# perfbench/tracing.py looks it up on this module to install its wrapper.
from .dynamics import advance_stage  # noqa: F401
from .dynamics import control_pairs, stage_step, terminal_costs
from .errors import NumericFailure, SolverFailure
from .game_kernel import HamiltonianQuery, eval_H, eval_Hn, gamma_n
from .measures import ParticleMeasure, _fmt, second_moment
from .scenario import ConfigError, Scenario, load_scenario
from .transport import ProjectionField, l2_norm, plan_to_csv, wasserstein2
from .value_solver import (
    VnSolution,
    brute_force_value,
    ekeland_point,
    seq_from_rank,
    solve_Vn,
)


def _write(out_dir: str, name: str, text: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def covering_indices(v_grid: np.ndarray, radius: float) -> tuple[int, ...]:
    """Greedy covering subset: scan in index order, keep points farther
    than ``radius`` from everything kept so far."""
    kept: list[int] = []
    for i, v in enumerate(v_grid):
        if all(
            float(np.linalg.norm(v - v_grid[j])) > radius for j in kept
        ):
            kept.append(i)
    return tuple(kept)


def _reachable_samples(scn: Scenario, n: int) -> np.ndarray:
    """Atoms of mu0 plus their one-stage images under every control pair,
    atom by atom, u-major: the first level of the solver's state lattice,
    as one (N, d) array."""
    prob, pts = scn.problem, scn.mu0.points
    images = stage_step(prob, *control_pairs(prob, pts), prob.T / n, 0)
    return np.concatenate([pts, images])


def _coarsening_bound(scn: Scenario, coarse: tuple[int, ...], n: int) -> float:
    """gamma_n of the coarse v-grid, sampled on the reachable states, or
    on the atoms alone when the grid has n_v distinct indices: gamma_n is
    then 0.0 on any samples (a repeated v-point snaps to an equal one)."""
    full = len(coarse) == scn.problem.n_v
    samples = scn.mu0.points if full else _reachable_samples(scn, n)
    return gamma_n(scn.problem, coarse, samples)


def _query(scn: Scenario, p_vectors: np.ndarray) -> tuple[HamiltonianQuery, float]:
    """The Hamiltonian query of the field p on mu0, and the field's L2 norm."""
    proj = ProjectionField(scn.mu0, p_vectors)
    return HamiltonianQuery(proj, scn.problem), l2_norm(proj)


def _solve(scn: Scenario, n: int) -> VnSolution:
    """``solve_Vn`` at n stages with the scenario's solver settings."""
    return solve_Vn(
        scn.problem, scn.mu0, n, tol=scn.tol, max_iter=scn.max_iter
    )


def cmd_solve(scn: Scenario, out_dir: str, repro: bool) -> int:
    start = time.perf_counter()
    res = _solve(scn, scn.n_stages)
    wall_ms = 0 if repro else int((time.perf_counter() - start) * 1000)
    rows = ["scenario,n,value,gap,iterations,wall_time_ms"]
    rows.append(
        f"{scn.label},{scn.n_stages},{_fmt(res.value)},{_fmt(res.gap)},"
        f"{res.iterations},{wall_ms}"
    )
    _write(out_dir, "values.csv", "\n".join(rows) + "\n")

    cert = ["kind,tag,seq,value"]
    q_star = res.q_star
    for rank in q_star.support:
        seq = seq_from_rank(int(rank), q_star.n_stages, q_star.n_v)
        label = "-".join(str(v) for v in seq)
        cert.append(f"q_star,,{label},{_fmt(q_star.q[rank])}")
    for k, rows in enumerate(res.cuts, start=1):
        for atom, cut in enumerate(rows):
            # On a Python float f"{c:.12g}" is exactly ``_fmt``.
            tag = f"cut,br{k:03d}-a{atom},"
            cert.extend(
                f"{tag}{rank},{c:.12g}" for rank, c in enumerate(cut.tolist())
            )
    _write(out_dir, "certificate.csv", "\n".join(cert) + "\n")

    print(f"value {_fmt(res.value)} gap {_fmt(res.gap)} iterations {res.iterations}")
    return 0 if res.converged else 2


def cmd_converge(scn: Scenario, out_dir: str, seed: int) -> int:
    if not scn.sweep:
        raise ConfigError("sweep.n: required by the converge command")
    rng = np.random.default_rng(seed)
    p_vectors = rng.standard_normal((scn.mu0.n_atoms, scn.mu0.dim))
    # One field for the whole sweep, so H is solved once; eval_Hn reuses
    # its LP wherever the covering keeps every v-point.
    query, p_norm = _query(scn, p_vectors)
    h_full = eval_H(query)
    rows = ["n,value,gap,h_gap,gamma_bound"]
    for n in scn.sweep:
        res = _solve(scn, n)
        coarse = covering_indices(scn.problem.v_grid, 1.0 / n)
        h_coarse = eval_Hn(query, coarse)
        bound = _coarsening_bound(scn, coarse, n) * p_norm
        rows.append(
            f"{n},{_fmt(res.value)},{_fmt(res.gap)},"
            f"{_fmt(h_full - h_coarse)},{_fmt(bound)}"
        )
    _write(out_dir, "converge.csv", "\n".join(rows) + "\n")
    print(f"wrote {len(scn.sweep)} rows")
    return 0


def cmd_oracle(scn: Scenario, out_dir: str) -> int:
    res = _solve(scn, scn.n_stages)
    bf = brute_force_value(scn.problem, scn.mu0, scn.n_stages)
    diff = abs(res.value - bf.value)
    rows = ["scenario,n,solver_value,oracle_value,diff"]
    rows.append(
        f"{scn.label},{scn.n_stages},{_fmt(res.value)},{_fmt(bf.value)},"
        f"{_fmt(diff)}"
    )
    _write(out_dir, "oracle.csv", "\n".join(rows) + "\n")
    print(f"solver {_fmt(res.value)} oracle {_fmt(bf.value)} diff {_fmt(diff)}")
    return 0 if diff <= scn.tol + 1e-9 else 1


def cmd_hamiltonian(scn: Scenario, out_dir: str, seed: int) -> int:
    coarse = scn.hamiltonian_coarse
    if coarse is None:
        coarse = covering_indices(scn.problem.v_grid, 1.0 / scn.n_stages)
    gamma = _coarsening_bound(scn, coarse, scn.n_stages)
    rng = np.random.default_rng(seed)
    rows = ["query,H,Hn,gap,bound"]
    for qid in range(scn.hamiltonian_queries):
        p_vectors = rng.standard_normal((scn.mu0.n_atoms, scn.mu0.dim))
        query, p_norm = _query(scn, p_vectors)
        h_full = eval_H(query)
        h_coarse = eval_Hn(query, coarse)
        rows.append(
            f"{qid},{_fmt(h_full)},{_fmt(h_coarse)},"
            f"{_fmt(h_full - h_coarse)},{_fmt(gamma * p_norm)}"
        )
    _write(out_dir, "hamiltonian.csv", "\n".join(rows) + "\n")
    print(f"wrote {scn.hamiltonian_queries} queries")
    return 0


def cmd_transport(scn: Scenario, out_dir: str) -> int:
    if scn.transport_target is None:
        raise ConfigError(
            "transport.target.atoms: required by the transport command "
            "(or transport.target.csv)"
        )
    dist, plan = wasserstein2(scn.mu0, scn.transport_target)
    rows = ["scenario,distance,cost"]
    rows.append(f"{scn.label},{_fmt(dist)},{_fmt(plan.cost)}")
    _write(out_dir, "transport.csv", "\n".join(rows) + "\n")
    _write(out_dir, "plan.csv", plan_to_csv(plan))
    print(f"distance {_fmt(dist)}")
    return 0


def cmd_ekeland(scn: Scenario, out_dir: str, seed: int) -> int:
    rng = np.random.default_rng(seed)
    size = scn.ekeland_domain
    domain = []
    for i in range(size):
        t = scn.problem.T * (i / (size - 1) if size > 1 else 0.0)
        jitter = rng.normal(0.0, 0.5, size=scn.mu0.points.shape)
        domain.append(
            (t, ParticleMeasure(scn.mu0.points + jitter, scn.mu0.weights))
        )
    if scn.ekeland_func == "moment":
        func = lambda t, mu: t + second_moment(mu)
    else:
        func = lambda t, mu: t + float(
            sum(mu.weights * terminal_costs(scn.problem, mu.points))
        )
    res = ekeland_point(domain, func, scn.ekeland_eps)
    rows = ["scenario,index,value,eps,iterations,violations"]
    rows.append(
        f"{scn.label},{res.index},{_fmt(res.value)},{_fmt(scn.ekeland_eps)},"
        f"{res.iterations},{len(res.violations)}"
    )
    _write(out_dir, "ekeland.csv", "\n".join(rows) + "\n")
    print(f"index {res.index} violations {len(res.violations)}")
    return 0 if not res.violations else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused: parsing
    does not change it, and every call returns a new namespace."""
    parser = argparse.ArgumentParser(
        prog="blindgame",
        description="Value solver for zero-sum games with a blind maximizer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in [
        ("solve", "certified value of the scenario's discretized game"),
        ("converge", "value and Hamiltonian-gap sweep over stage counts"),
        ("oracle", "cross-check the solver against brute-force enumeration"),
        ("hamiltonian", "coarse-grid Hamiltonian gaps on random fields"),
        ("transport", "W2 distance and optimal plan between two measures"),
        ("ekeland", "variational point search on a random finite domain"),
    ]:
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", required=True, help="scenario file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override scenario seed")
        p.add_argument(
            "--repro",
            action="store_true",
            help="zero the wall-time column for byte-reproducible output",
        )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError("--seed: must be >= 0")
        scn = load_scenario(args.config)
        seed = args.seed if args.seed is not None else scn.seed
        if args.command == "solve":
            return cmd_solve(scn, args.out, args.repro)
        if args.command == "converge":
            return cmd_converge(scn, args.out, seed)
        if args.command == "oracle":
            return cmd_oracle(scn, args.out)
        if args.command == "hamiltonian":
            return cmd_hamiltonian(scn, args.out, seed)
        if args.command == "transport":
            return cmd_transport(scn, args.out)
        if args.command == "ekeland":
            return cmd_ekeland(scn, args.out, seed)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, SolverFailure, NumericFailure, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
