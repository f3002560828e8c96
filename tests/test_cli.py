import numpy as np
import pytest

from blindgame import (
    ConfigError,
    ParticleMeasure,
    advance_stage,
    load_scenario,
    to_csv,
)
from blindgame import game_kernel
from blindgame.cli import _reachable_samples, covering_indices, main

PENNIES = """
problem.label    = pennies
problem.kind     = u_plus_v
problem.T        = 1.0
problem.n_stages = 1
problem.u_grid   = -1, 1
problem.v_grid   = -1, 1
g.kind           = abs
mu0.atoms        = 1.0 0.0
solver.tol       = 1e-9
seed             = 7
sweep.n          = 1, 2
transport.target.atoms = 0.5 1.0; 0.5 -1.0
"""


@pytest.fixture
def pennies_cfg(tmp_path):
    cfg = tmp_path / "pennies.cfg"
    cfg.write_text(PENNIES)
    return cfg


class TestScenarioParsing:
    def test_loads(self, pennies_cfg):
        scn = load_scenario(str(pennies_cfg))
        assert scn.label == "pennies"
        assert scn.problem.n_u == 2 and scn.problem.n_v == 2
        assert scn.mu0.n_atoms == 1
        assert scn.sweep == (1, 2)
        assert scn.transport_target.n_atoms == 2

    def test_missing_field_named(self):
        with pytest.raises(ConfigError, match="problem.T"):
            load_scenario(
                "problem.kind = u_plus_v\nproblem.n_stages = 1\n"
                "problem.u_grid = -1, 1\nproblem.v_grid = -1, 1\n"
                "mu0.atoms = 1.0 0.0\n"
            )

    def test_bad_number_reports_field(self):
        with pytest.raises(ConfigError, match="problem.T"):
            load_scenario(PENNIES.replace("problem.T        = 1.0", "problem.T = soon"))

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            load_scenario(PENNIES + "\nproblem.T = 2.0\n")

    def test_dimension_mismatch_reported(self):
        with pytest.raises(ConfigError, match="mu0"):
            load_scenario(PENNIES.replace("mu0.atoms        = 1.0 0.0",
                                          "mu0.atoms = 1.0 0.0 0.0"))

    def test_vector_grid_with_semicolons(self):
        text = PENNIES.replace("problem.kind     = u_plus_v", "problem.kind = pursuit")
        text = text.replace("problem.u_grid   = -1, 1", "problem.u_grid = 1 0; 0 1")
        text = text.replace("problem.v_grid   = -1, 1", "problem.v_grid = 0 0;")
        text = text.replace("mu0.atoms        = 1.0 0.0", "mu0.atoms = 1.0 0.0 0.0")
        scn = load_scenario(text)
        assert scn.problem.u_grid.shape == (2, 2)
        assert scn.problem.v_grid.shape == (1, 2)

    @pytest.mark.parametrize(
        "line",
        [
            "problem.dim = two",
            "problem.dim = 0",
            "problem.lip_g = steep",
            "hamiltonian.queries = -2",
            "sweep.n = 1.7",
            "hamiltonian.coarse_indices = 0, 1.5",
            "hamiltonian.coarse_indices = 0, 0",
            "hamiltonian.coarse_indices =",
            "hamiltonian.coarse_indices = 0, 2",
            "solver.max_iters = 5",
            "solver.tolerance = 1e-3",
            "ekeland.domain = -5",
            "ekeland.eps = 0",
            "seed = -1",
        ],
    )
    def test_bad_value_names_its_field(self, line):
        key = line.split(" =")[0]
        text = "\n".join(
            row for row in PENNIES.splitlines() if not row.startswith(key)
        )
        with pytest.raises(ConfigError, match=f"^{key}: "):
            load_scenario(text + "\n" + line + "\n")

    def test_mu0_csv(self, tmp_path):
        mu = ParticleMeasure(np.array([[0.5], [1.5]]), np.array([0.5, 0.5]))
        (tmp_path / "mu.csv").write_text(to_csv(mu))
        cfg = PENNIES.replace(
            "mu0.atoms        = 1.0 0.0", "mu0.csv = mu.csv"
        )
        path = tmp_path / "scn.cfg"
        path.write_text(cfg)
        scn = load_scenario(str(path))
        assert scn.mu0.n_atoms == 2


class TestCommands:
    def test_solve_writes_values_and_certificate(self, pennies_cfg, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["solve", "--config", str(pennies_cfg), "--out", str(out), "--repro"]
        )
        assert code == 0
        lines = (out / "values.csv").read_text().splitlines()
        assert lines[0] == "scenario,n,value,gap,iterations,wall_time_ms"
        fields = lines[1].split(",")
        assert fields[0] == "pennies"
        assert float(fields[2]) == pytest.approx(1.0, abs=1e-9)
        assert (out / "certificate.csv").exists()

    def test_solve_gap_flag_exit_two(self, pennies_cfg, tmp_path):
        cfg = tmp_path / "hard.cfg"
        cfg.write_text(
            PENNIES.replace("solver.tol       = 1e-9", "solver.tol = 1e-9\nsolver.max_iter = 1")
        )
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o')")])
        assert code == 2

    def test_solve_malformed_config_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text(PENNIES.replace("problem.T        = 1.0\n", ""))
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "problem.T" in capsys.readouterr().err

    def test_oracle_agreement(self, pennies_cfg, tmp_path):
        out = tmp_path / "out"
        code = main(["oracle", "--config", str(pennies_cfg), "--out", str(out)])
        assert code == 0
        row = (out / "oracle.csv").read_text().splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(float(row[3]), abs=1e-9)

    def test_converge_rows(self, pennies_cfg, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["converge", "--config", str(pennies_cfg), "--out", str(out), "--repro"]
        )
        assert code == 0
        lines = (out / "converge.csv").read_text().splitlines()
        assert lines[0] == "n,value,gap,h_gap,gamma_bound"
        assert len(lines) == 3
        # frozen-style check: values column matches solve per n
        assert float(lines[1].split(",")[1]) == pytest.approx(1.0, abs=1e-9)
        assert float(lines[2].split(",")[1]) == pytest.approx(0.5, abs=1e-9)

    def test_hamiltonian_gap_columns(self, pennies_cfg, tmp_path):
        out = tmp_path / "out"
        code = main(["hamiltonian", "--config", str(pennies_cfg), "--out", str(out)])
        assert code == 0
        lines = (out / "hamiltonian.csv").read_text().splitlines()
        assert lines[0] == "query,H,Hn,gap,bound"
        for ln in lines[1:]:
            _, h, hn, gap, bound = ln.split(",")
            assert float(gap) >= -1e-9
            assert float(gap) <= float(bound) + 1e-9

    def test_hamiltonian_builds_pairing_tables_once_per_query(
        self, tmp_path, monkeypatch
    ):
        builds = []
        build = game_kernel._pairing_tables
        monkeypatch.setattr(
            game_kernel, "_pairing_tables", lambda q: builds.append(q) or build(q)
        )
        cfg = tmp_path / "h.cfg"
        cfg.write_text(PENNIES + "hamiltonian.queries = 4\n")
        out = tmp_path / "out"
        assert main(["hamiltonian", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(builds) == 4

    def test_transport_outputs(self, pennies_cfg, tmp_path):
        out = tmp_path / "out"
        code = main(["transport", "--config", str(pennies_cfg), "--out", str(out)])
        assert code == 0
        row = (out / "transport.csv").read_text().splitlines()[1]
        assert float(row.split(",")[1]) == pytest.approx(1.0, abs=1e-12)
        plan = (out / "plan.csv").read_text()
        assert plan.splitlines()[0] == "i,j,mass"

    def test_ekeland_no_violations(self, pennies_cfg, tmp_path):
        out = tmp_path / "out"
        code = main(["ekeland", "--config", str(pennies_cfg), "--out", str(out)])
        assert code == 0
        row = (out / "ekeland.csv").read_text().splitlines()[1]
        assert row.split(",")[-1] == "0"

    def test_seed_override_changes_hamiltonian_queries(self, tmp_path):
        # needs a scenario whose Hamiltonian actually depends on the field
        cfg = tmp_path / "affine.cfg"
        cfg.write_text(
            "problem.kind = affine\nproblem.dim = 1\nproblem.T = 1.0\n"
            "problem.n_stages = 1\nproblem.A = 0.3\nproblem.B = 1.0\n"
            "problem.C = 1.0\nproblem.u_grid = -1, 1\nproblem.v_grid = -1, 1\n"
            "mu0.atoms = 1.0 1.0\nseed = 0\n"
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["hamiltonian", "--config", str(cfg), "--out", str(out1), "--seed", "1"])
        main(["hamiltonian", "--config", str(cfg), "--out", str(out2), "--seed", "2"])
        assert (out1 / "hamiltonian.csv").read_text() != (
            out2 / "hamiltonian.csv"
        ).read_text()

    def test_certificate_recomputes_the_value(self, tmp_path):
        # sum_i w_i min over atom i's cut rows of row . q*, from the files.
        cfg = tmp_path / "upv.cfg"
        cfg.write_text(
            "problem.kind = u_plus_v\nproblem.T = 1.0\nproblem.n_stages = 2\n"
            "problem.u_grid = -1, 0, 1\nproblem.v_grid = -1, -0.5, 0.5, 1\n"
            "mu0.atoms = 0.25 -0.3; 0.75 0.4\nsolver.tol = 1e-9\n"
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        q = np.zeros(4**2)
        rows: dict[int, list[np.ndarray]] = {0: [], 1: []}
        cuts: dict[str, np.ndarray] = {}
        lines = (out / "certificate.csv").read_text().splitlines()
        assert lines[0] == "kind,tag,seq,value"
        for line in lines[1:]:
            kind, tag, seq, value = line.split(",")
            if kind == "q_star":
                v0, v1 = (int(v) for v in seq.split("-"))
                q[4 * v0 + v1] = float(value)
            else:
                cuts.setdefault(tag, np.zeros(4**2))[int(seq)] = float(value)
        for tag, row in cuts.items():
            rows[int(tag.split("-a")[1])].append(row)
        value = 0.25 * min(r @ q for r in rows[0]) + 0.75 * min(
            r @ q for r in rows[1]
        )
        reported = (out / "values.csv").read_text().splitlines()[1]
        assert abs(value - float(reported.split(",")[2])) <= 1e-12

    def test_negative_seed_override_is_a_config_error(
        self, pennies_cfg, tmp_path, capsys
    ):
        out = tmp_path / "out"
        code = main(
            ["hamiltonian", "--config", str(pennies_cfg), "--out", str(out),
             "--seed", "-1"]
        )
        assert code == 1
        assert capsys.readouterr().err == "config error: --seed: must be >= 0\n"
        assert not out.exists()

    def test_byte_determinism_across_runs(self, pennies_cfg, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            for cmd in ("solve", "converge", "oracle", "hamiltonian", "transport", "ekeland"):
                assert main(
                    [cmd, "--config", str(pennies_cfg), "--out", str(out), "--repro"]
                ) == 0
            outs.append(out)
        for name in (
            "values.csv",
            "certificate.csv",
            "converge.csv",
            "oracle.csv",
            "hamiltonian.csv",
            "transport.csv",
            "plan.csv",
            "ekeland.csv",
        ):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestCoveringIndices:
    def test_full_grid_when_radius_small(self):
        grid = np.array([[-1.0], [0.0], [1.0]])
        assert covering_indices(grid, 0.5) == (0, 1, 2)

    def test_coarse_when_radius_large(self):
        grid = np.array([[-1.0], [0.0], [1.0]])
        assert covering_indices(grid, 1.0) == (0, 2)
        assert covering_indices(grid, 3.0) == (0,)


class TestReachableSamples:
    @pytest.mark.parametrize("atoms", ["1.0 1.0", "0.5 1.0; 0.5 -1.0"])
    def test_overflow_names_the_stage(self, atoms, tmp_path, capsys):
        cfg = tmp_path / "blow.cfg"
        cfg.write_text(
            "problem.kind = linear\nproblem.dim = 1\nproblem.A = 1e200\n"
            "problem.T = 1.0\nproblem.n_stages = 1\n"
            "problem.u_grid = -1, 1\nproblem.v_grid = -1, 0, 1\n"
            f"mu0.atoms = {atoms}\n"
        )
        out = tmp_path / "out"
        code = main(["hamiltonian", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert "trajectory left the finite range (stage=0)" in capsys.readouterr().err
        assert not (out / "hamiltonian.csv").exists()

    def test_batched_stage_matches_per_pair_integration(self, tmp_path):
        cfg = tmp_path / "affine.cfg"
        cfg.write_text(
            "problem.kind = affine\nproblem.dim = 2\nproblem.T = 1.0\n"
            "problem.n_stages = 3\nproblem.A = 0.1, 0.7, -0.3, 0.2\n"
            "problem.B = 0.3, 1\nproblem.C = 1.1, -0.4\n"
            "problem.u_grid = -1, 0.3, 1\nproblem.v_grid = -1, -0.3, 0.5\n"
            "mu0.atoms = 0.5 0.3 0.1; 0.5 -0.2 0.4\n"
        )
        scn = load_scenario(str(cfg))
        prob = scn.problem
        expected = [np.asarray(x, dtype=float) for x in scn.mu0.points]
        for x in scn.mu0.points:
            for u in prob.u_grid:
                for v in prob.v_grid:
                    expected.append(advance_stage(prob, x, u, v, prob.T / 3))
        got = _reachable_samples(scn, 3)
        assert len(got) == len(expected) == 2 + 2 * 3 * 3
        for a, b in zip(got, expected):
            assert np.array_equal(a, b)
