"""Record the solve reference values checked by the benchmark.

Run from the root of a checkout whose solver is trusted:

    python3 perfbench/record_reference.py

It solves every base game of ``workloads.GAMES`` in its unposed form
(every game except the master-LP reproduction, whose value is
``workloads.REPRO_VALUE``), plus each stage count of the converge sweep,
and rewrites ``perfbench/reference.json``.  Scratch files go to
``.bench_work/reference`` and are removed afterwards.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from blindgame import solve_Vn  # noqa: E402
from blindgame.scenario import load_scenario  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    work = os.path.join(ROOT, ".bench_work", "reference")
    builder = workloads.Builder(work, seed=0)
    table = {}
    try:
        for key, game in workloads.GAMES.items():
            if key.endswith("master-lp-repro"):
                continue
            scn = load_scenario(builder.game_file("solve", key, (1.0, 0))[1])
            sweep = workloads.CONVERGE_SWEEP if key == workloads.CONVERGE_GAME else ()
            for n in sorted({scn.n_stages, *sweep}):
                res = solve_Vn(scn.problem, scn.mu0, n, tol=scn.tol)
                if n == scn.n_stages:
                    table[key] = res.value
                if n in sweep:
                    table[f"{key}@n={n}"] = res.value
                print(f"{key} n={n}: {res.value!r} gap {res.gap!r}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
