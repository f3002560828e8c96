"""Golden CSV outputs of the CLI fixtures and of the benchmark games.

Every command of ``OUTPUTS`` runs on every ``FIXTURE_CONFIGS`` scenario
with ``--repro`` and its CSVs are compared byte for byte against the files
under ``tests/golden/<fixture>/``.  Each ``tests/golden/games/<game>/``
holds one benchmark game in its base pose (``scenario.cfg``) beside the
``values.csv`` and ``certificate.csv`` of ``solve --repro`` on it.  The
determinism criterion compares two runs inside one process; these files
also catch drift between versions.

Regenerate (only after a deliberate output change, noted in CHANGES.md):

    PYTHONPATH=src python3 tests/test_golden.py

It prints every file it changed and the old -> new ``iterations`` of
every game whose ``values.csv`` changed.  It refuses to write anything
when a ``values.csv`` value moves by more than its scenario's
``solver.tol + 1e-9``, or when a new ``values.csv`` has ``gap`` above
``solver.tol``.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from blindgame.cli import main  # noqa: E402
from blindgame.scenario import load_scenario  # noqa: E402
from test_acceptance import FIXTURE_CONFIGS, OUTPUTS  # noqa: E402

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GAMES = os.path.join(GOLDEN, "games")
GAME_NAMES = sorted(os.listdir(GAMES))


def _fixture_dir(name: str) -> str:
    return os.path.join(GOLDEN, os.path.splitext(name)[0])


def _run(command: str, cfg: str, out: str) -> dict[str, bytes]:
    """Run one command with --repro; return its CSVs by file name."""
    code = main([command, "--config", cfg, "--out", out, "--repro"])
    assert code == 0, f"{command} on {cfg} exited {code}"
    result = {}
    for fname in OUTPUTS[command]:
        with open(os.path.join(out, fname), "rb") as fh:
            result[fname] = fh.read()
    return result


def run_fixture(name: str, command: str, work: str) -> dict[str, bytes]:
    """Run one command on one fixture; return its CSVs by file name."""
    cfg = os.path.join(work, name)
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(FIXTURE_CONFIGS[name])
    return _run(command, cfg, os.path.join(work, f"{name}-{command}"))


@pytest.mark.parametrize("name", sorted(FIXTURE_CONFIGS))
@pytest.mark.parametrize("command", list(OUTPUTS))
def test_outputs_match_golden_bytes(name, command, tmp_path):
    got = run_fixture(name, command, str(tmp_path))
    for fname, data in got.items():
        with open(os.path.join(_fixture_dir(name), fname), "rb") as fh:
            assert data == fh.read(), f"{name}: {fname} differs from golden"


def solve_game(name: str, work: str) -> dict[str, bytes]:
    """``solve`` on one golden game; return its CSVs by file name."""
    cfg = os.path.join(GAMES, name, "scenario.cfg")
    return _run("solve", cfg, os.path.join(work, name))


@pytest.mark.parametrize("name", GAME_NAMES)
def test_games_match_golden_bytes(name, tmp_path):
    for fname, data in solve_game(name, str(tmp_path)).items():
        with open(os.path.join(GAMES, name, fname), "rb") as fh:
            assert data == fh.read(), f"{name}: {fname} differs from golden"


def _field(data: bytes, name: str) -> float:
    """Column ``name`` of a one-row ``values.csv``."""
    header, row = data.decode("utf-8").splitlines()[:2]
    return float(row.split(",")[header.split(",").index(name)])


def regenerate(work: str) -> tuple[list[str], list[tuple[str, int, int]]]:
    """Rerun every golden output and rewrite the files that changed.

    Refuses, writing nothing, when a ``values.csv`` value moves by more
    than its scenario's ``solver.tol + 1e-9`` or its new ``gap`` exceeds
    ``solver.tol``: a recapture may move q* or a last digit, never the
    value or its certificate.  Returns the changed paths and, per changed
    ``values.csv``, its path with the old and new ``iterations``.
    """
    outputs: dict[str, tuple[bytes, float]] = {}
    for name in sorted(FIXTURE_CONFIGS):
        tol = load_scenario(FIXTURE_CONFIGS[name]).tol
        for command in OUTPUTS:
            for fname, data in run_fixture(name, command, work).items():
                outputs[os.path.join(_fixture_dir(name), fname)] = data, tol
    for name in GAME_NAMES:
        tol = load_scenario(os.path.join(GAMES, name, "scenario.cfg")).tol
        for fname, data in solve_game(name, work).items():
            outputs[os.path.join(GAMES, name, fname)] = data, tol

    changed, moved, iterations = [], [], []
    for path, (data, tol) in outputs.items():
        old = None
        if os.path.exists(path):
            with open(path, "rb") as fh:
                old = fh.read()
        if old == data:
            continue
        changed.append(path)
        if os.path.basename(path) != "values.csv":
            continue
        gap = _field(data, "gap")
        if not gap <= tol:
            moved.append(f"{path}: gap {gap:.3e} exceeds solver.tol {tol}")
        if old is not None:
            shift = abs(_field(data, "value") - _field(old, "value"))
            if not shift <= tol + 1e-9:
                moved.append(f"{path}: value moved by {shift:.3e}")
            iterations.append((
                path,
                int(_field(old, "iterations")),
                int(_field(data, "iterations")),
            ))
    if moved:
        raise SystemExit(
            "refusing to rewrite golden CSVs, values moved beyond "
            "solver.tol + 1e-9 or gaps above solver.tol:\n" + "\n".join(moved)
        )
    for path in changed:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(outputs[path][0])
    return changed, iterations


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            changed, iterations = regenerate(tmp)
    for path in changed:
        print(f"changed {os.path.relpath(path)}")
    for path, old, new in iterations:
        print(f"{os.path.relpath(path)}: iterations {old} -> {new}")
    print(f"{len(changed)} golden files changed under {GOLDEN}")
