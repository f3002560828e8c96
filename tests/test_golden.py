"""Golden CSV outputs of the CLI fixtures.

Every command of ``OUTPUTS`` runs on every ``FIXTURE_CONFIGS`` scenario
with ``--repro`` and its CSVs are compared byte for byte against the files
under ``tests/golden/<fixture>/``.  The determinism criterion compares two
runs inside one process; these files also catch drift between versions.

Regenerate (only after a deliberate output change, noted in CHANGES.md):

    PYTHONPATH=src python3 tests/test_golden.py
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from blindgame.cli import main  # noqa: E402
from test_acceptance import FIXTURE_CONFIGS, OUTPUTS  # noqa: E402

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _fixture_dir(name: str) -> str:
    return os.path.join(GOLDEN, os.path.splitext(name)[0])


def run_fixture(name: str, command: str, work: str) -> dict[str, bytes]:
    """Run one command on one fixture; return its CSVs by file name."""
    cfg = os.path.join(work, name)
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(FIXTURE_CONFIGS[name])
    out = os.path.join(work, f"{name}-{command}")
    code = main([command, "--config", cfg, "--out", out, "--repro"])
    assert code == 0, f"{command} on {name} exited {code}"
    result = {}
    for fname in OUTPUTS[command]:
        with open(os.path.join(out, fname), "rb") as fh:
            result[fname] = fh.read()
    return result


@pytest.mark.parametrize("name", sorted(FIXTURE_CONFIGS))
@pytest.mark.parametrize("command", list(OUTPUTS))
def test_outputs_match_golden_bytes(name, command, tmp_path):
    got = run_fixture(name, command, str(tmp_path))
    for fname, data in got.items():
        with open(os.path.join(_fixture_dir(name), fname), "rb") as fh:
            assert data == fh.read(), f"{name}: {fname} differs from golden"


def regenerate(work: str) -> None:
    for name in sorted(FIXTURE_CONFIGS):
        os.makedirs(_fixture_dir(name), exist_ok=True)
        for command in OUTPUTS:
            for fname, data in run_fixture(name, command, work).items():
                with open(os.path.join(_fixture_dir(name), fname), "wb") as fh:
                    fh.write(data)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        regenerate(tmp)
    print(f"wrote golden CSVs under {GOLDEN}")
