"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single ``[PASS] criterion N`` line (visible with -s or
in the captured output summary), so the suite doubles as a checklist.
"""

import itertools
import time

import numpy as np

from blindgame import (
    HamiltonianQuery,
    MatrixGame,
    ParticleMeasure,
    ProjectionField,
    barycentric_projection,
    brute_force_value,
    dpp_check,
    ekeland_point,
    eval_H,
    eval_Hn,
    flow,
    gamma_n,
    l2_norm,
    make_problem,
    reverse_plan,
    solve_Vn,
    solve_matrix_game,
    wasserstein2,
)
from blindgame.cli import main


def _report(num: int, ok: bool, text: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def measure(points, weights):
    return ParticleMeasure(np.array(points, dtype=float), np.array(weights))


def equal_cloud(rng, n, d):
    return ParticleMeasure(
        rng.uniform(-2.0, 2.0, size=(n, d)), np.full(n, 1.0 / n)
    )


# ---------------------------------------------------------------------------
# 1. Transport oracle
# ---------------------------------------------------------------------------

def test_criterion_1_transport_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(1, 4))
        mu = equal_cloud(rng, n, d)
        nu = equal_cloud(rng, n, d)
        dist, _ = wasserstein2(mu, nu)
        best = min(
            sum(
                (1.0 / n) * float(np.sum((mu.points[i] - nu.points[j]) ** 2))
                for i, j in enumerate(perm)
            )
            for perm in itertools.permutations(range(n))
        )
        worst = max(worst, abs(dist - np.sqrt(best)))
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst <= 1e-12 and elapsed < 10.0,
        f"200 equal-weight clouds match the permutation oracle "
        f"(worst diff {worst:.2e}, {elapsed:.2f}s < 10s)",
    )


# ---------------------------------------------------------------------------
# 2. Matrix-game duality
# ---------------------------------------------------------------------------

def test_criterion_2_matrix_game_duality():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = -np.inf
    for _ in range(500):
        m = int(rng.integers(1, 9))
        k = int(rng.integers(1, 9))
        a = rng.uniform(-1.0, 1.0, size=(m, k))
        sol = solve_matrix_game(MatrixGame(a))
        gap = float(np.max(sol.row_mix @ a) - np.min(a @ sol.col_mix))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    _report(
        2,
        worst <= 1e-9 and elapsed < 5.0,
        f"500 random matrices certified (worst duality gap {worst:.2e}, "
        f"{elapsed:.2f}s < 5s)",
    )


# ---------------------------------------------------------------------------
# 3. Hamiltonian gap against the coarsening modulus
# ---------------------------------------------------------------------------

def _random_affine(rng, n_u_lo=1, n_u_hi=4, n_v_lo=2, n_v_hi=5):
    dim = int(rng.integers(1, 3))
    return make_problem(
        "affine",
        A=rng.uniform(-0.6, 0.6, size=(dim, dim)),
        B=rng.uniform(-1, 1, size=(dim, 1)),
        C=rng.uniform(-1, 1, size=(dim, 1)),
        dim=dim,
        T=1.0,
        u_grid=np.sort(rng.uniform(-1, 1, int(rng.integers(n_u_lo, n_u_hi)))).tolist(),
        v_grid=np.sort(rng.uniform(-1, 1, int(rng.integers(n_v_lo, n_v_hi)))).tolist(),
    )


def test_criterion_3_hamiltonian_gap():
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    ok = True
    for _ in range(100):
        prob = _random_affine(rng)
        n = int(rng.integers(1, 5))
        mu = ParticleMeasure(
            rng.uniform(-2, 2, size=(n, prob.dim)),
            np.full(n, 1.0 / n),
        )
        field = ProjectionField(mu, rng.uniform(-2, 2, size=mu.points.shape))
        query = HamiltonianQuery(mu, field, prob)
        n_coarse = int(rng.integers(1, prob.n_v + 1))
        coarse = sorted(rng.choice(prob.n_v, size=n_coarse, replace=False).tolist())
        h = eval_H(query)
        hn = eval_Hn(query, coarse)
        bound = gamma_n(
            prob, prob.v_grid, prob.v_grid[coarse], list(mu.points)
        ) * l2_norm(field)
        ok = ok and (-1e-9 <= h - hn <= bound + 1e-9)
    elapsed = time.perf_counter() - start
    _report(
        3,
        ok and elapsed < 10.0,
        f"100 queries satisfy 0 <= H - Hn <= gamma_n * |p| "
        f"({elapsed:.2f}s < 10s)",
    )


# ---------------------------------------------------------------------------
# 4. Hamiltonian continuity along optimal plans
# ---------------------------------------------------------------------------

def test_criterion_4_hamiltonian_continuity():
    # Equal-weight equal-count pairs: their canonical optimal plan is a
    # one-to-one matching, the regime where the quadratic modulus
    # K * W2^2 is provable (atom-splitting plans admit first-order gaps).
    rng = np.random.default_rng(404)
    ok = True
    for _ in range(100):
        prob = _random_affine(rng, n_u_lo=2)
        m = int(rng.integers(1, 6))
        w = np.full(m, 1.0 / m)
        nu_bar = ParticleMeasure(rng.uniform(-2, 2, (m, prob.dim)), w)
        mu_bar = ParticleMeasure(rng.uniform(-2, 2, (m, prob.dim)), w)
        dist, plan = wasserstein2(nu_bar, mu_bar)
        p_field = barycentric_projection(plan)
        q_field = barycentric_projection(reverse_plan(plan))
        h_mu = eval_H(HamiltonianQuery(mu_bar, p_field, prob))
        h_nu = eval_H(
            HamiltonianQuery(
                nu_bar, ProjectionField(nu_bar, -q_field.vectors), prob
            )
        )
        ok = ok and abs(h_mu - h_nu) <= prob.lip_f_x * dist**2 + 1e-6
    _report(
        4,
        ok,
        "100 measure pairs satisfy |H(mu,p) - H(nu,-q)| <= Lip_x(f) * W2^2",
    )


# ---------------------------------------------------------------------------
# 5. Game-value oracle battery
# ---------------------------------------------------------------------------

def battery():
    """>= 12 scenarios inside the brute-force guards."""
    fixtures = []

    def add(label, prob, mu0, n):
        fixtures.append((label, prob, mu0, n))

    add(
        "frozen-1d-quadratic",
        make_problem(
            "frozen", dim=1, T=1.0, u_grid=[0.0, 1.0], v_grid=[0.0, 1.0],
            g_kind="quadratic",
        ),
        measure([[1.0], [3.0]], [0.25, 0.75]),
        1,
    )
    add(
        "frozen-2d-abs",
        make_problem(
            "frozen", dim=2, T=1.0, u_grid=[0.0, 1.0], v_grid=[0.0, 1.0],
        ),
        measure([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0.5, 0.25, 0.25]),
        2,
    )
    add(
        "constant-drift-single-u",
        make_problem(
            "constant", drift=[0.5], T=2.0, u_grid=[0.0], v_grid=[-1.0, 1.0],
        ),
        measure([[0.0], [1.0]], [0.5, 0.5]),
        2,
    )
    add(
        "pennies-n1",
        make_problem("u_plus_v", T=1.0, u_grid=[-1.0, 1.0], v_grid=[-1.0, 1.0]),
        measure([[0.0]], [1.0]),
        1,
    )
    add(
        "pennies-n2",
        make_problem("u_plus_v", T=1.0, u_grid=[-1.0, 1.0], v_grid=[-1.0, 1.0]),
        measure([[0.0]], [1.0]),
        2,
    )
    add(
        "u-plus-v-2atoms-quadratic",
        make_problem(
            "u_plus_v", T=1.0, u_grid=[-1.0, 1.0], v_grid=[-1.0, 1.0],
            g_kind="quadratic",
        ),
        measure([[0.3], [-0.5]], [0.5, 0.5]),
        2,
    )
    add(
        "u-plus-v-3x3",
        make_problem(
            "u_plus_v", T=1.0, u_grid=[-1.0, 0.0, 1.0], v_grid=[-1.0, 0.0, 1.0],
        ),
        measure([[0.2]], [1.0]),
        1,
    )
    add(
        "linear-decay",
        make_problem(
            "linear", A=[[-0.5]], dim=1, T=1.0, u_grid=[0.0, 1.0],
            v_grid=[0.0, 1.0],
        ),
        measure([[1.0], [-2.0]], [0.5, 0.5]),
        2,
    )
    add(
        "rotation-linear-payoff",
        make_problem(
            "rotation", omega=1.2, T=1.0, u_grid=[0.0, 1.0], v_grid=[0.0, 1.0],
            g_kind="linear", g_coeffs=[1.0, -1.0],
        ),
        measure([[1.0, 0.0], [0.0, 0.5]], [0.5, 0.5]),
        2,
    )
    add(
        "pursuit-plane",
        make_problem(
            "pursuit",
            T=1.0,
            u_grid=[[1.0, 0.0], [0.0, 1.0]],
            v_grid=[[0.5, 0.5], [-0.5, 0.0]],
        ),
        measure([[0.0, 0.0], [1.0, -1.0]], [0.5, 0.5]),
        1,
    )
    add(
        "affine-1d-vfine",
        make_problem(
            "affine", A=[[0.3]], B=[[1.0]], C=[[1.0]], dim=1, T=1.0,
            u_grid=[-1.0, 1.0], v_grid=[-1.0, 0.0, 1.0],
        ),
        measure([[0.4]], [1.0]),
        2,
    )
    add(
        "affine-2d-cross",
        make_problem(
            "affine",
            A=[[0.0, 0.4], [-0.4, 0.0]],
            B=[[1.0], [0.0]],
            C=[[0.0], [1.0]],
            dim=2,
            T=1.0,
            u_grid=[-1.0, 0.0, 1.0],
            v_grid=[-1.0, 0.0, 1.0],
            g_kind="quadratic",
        ),
        measure([[0.5, 0.0], [0.0, -0.5], [0.25, 0.25]], [0.4, 0.4, 0.2]),
        1,
    )
    add(
        "single-v-grid",
        make_problem(
            "affine", A=[[0.0]], B=[[1.0]], C=[[1.0]], dim=1, T=1.0,
            u_grid=[-1.0, 1.0], v_grid=[0.5],
        ),
        measure([[0.4], [-2.0]], [0.5, 0.5]),
        2,
    )
    add(
        "custom-table-payoff",
        make_problem(
            "u_plus_v", T=1.0, u_grid=[-1.0, 1.0], v_grid=[-1.0, 1.0],
            g_kind="custom-table",
            g_table=[(-2.0, 1.0), (0.0, 0.0), (2.0, 2.0)],
        ),
        measure([[0.0]], [1.0]),
        1,
    )
    return fixtures


def test_criterion_5_game_value_oracle():
    tol = 1e-7
    results = []
    for label, prob, mu0, n in battery():
        start = time.perf_counter()
        res = solve_Vn(prob, mu0, n, tol=tol)
        bf = brute_force_value(prob, mu0, n)
        elapsed = time.perf_counter() - start
        results.append(
            (label, abs(res.value - bf.value) <= tol + 1e-9 and elapsed < 60.0)
        )
    bad = [label for label, ok in results if not ok]
    _report(
        5,
        len(results) >= 12 and not bad,
        f"{len(results)} scenarios agree with brute force at tol 1e-7"
        + (f" (failing: {bad})" if bad else ""),
    )


# ---------------------------------------------------------------------------
# 6. Closed forms
# ---------------------------------------------------------------------------

def test_criterion_6_closed_forms():
    checks = []

    # f == 0: value is exactly the average terminal cost
    frozen = make_problem(
        "frozen", dim=1, T=1.0, u_grid=[0.0, 1.0], v_grid=[0.0, 1.0],
        g_kind="quadratic",
    )
    mu = measure([[1.0], [3.0]], [0.25, 0.75])
    expected = 0.25 * 1.0 + 0.75 * 9.0
    checks.append(solve_Vn(frozen, mu, 2, tol=1e-9).value == expected)

    # |v_grid| = 1: average per-atom open-loop minimum
    single_v = make_problem(
        "affine", A=[[0.0]], B=[[1.0]], C=[[1.0]], dim=1, T=1.0,
        u_grid=[-1.0, 1.0], v_grid=[0.5],
    )
    mu2 = measure([[0.4], [-2.0]], [0.5, 0.5])
    expected2 = sum(
        w
        * min(
            float(single_v.g(flow(single_v, x, u, (0, 0))))
            for u in itertools.product(range(2), repeat=2)
        )
        for w, x in zip(mu2.weights, mu2.points)
    )
    checks.append(
        abs(solve_Vn(single_v, mu2, 2, tol=1e-9).value - expected2) <= 1e-9
    )

    # single-stage matching-pennies row: value 1
    pennies = make_problem(
        "u_plus_v", T=1.0, u_grid=[-1.0, 1.0], v_grid=[-1.0, 1.0]
    )
    checks.append(
        abs(solve_Vn(pennies, measure([[0.0]], [1.0]), 1, tol=1e-9).value - 1.0)
        <= 1e-9
    )
    _report(
        6,
        all(checks),
        "frozen dynamics exact, single-v open-loop within 1e-9, "
        "matching-pennies value 1 within 1e-9",
    )


# ---------------------------------------------------------------------------
# 7. Lipschitz dependence on the initial distribution
# ---------------------------------------------------------------------------

def test_criterion_7_value_lipschitz():
    rng = np.random.default_rng(707)
    pennies = make_problem(
        "u_plus_v", T=1.0, u_grid=[-1.0, 1.0], v_grid=[-1.0, 1.0]
    )
    affine = make_problem(
        "affine", A=[[0.4]], B=[[1.0]], C=[[1.0]], dim=1, T=1.0,
        u_grid=[-1.0, 1.0], v_grid=[-1.0, 1.0],
    )
    ok = True
    for i in range(50):
        prob = pennies if i % 2 == 0 else affine
        factor = prob.lip_g * np.exp(prob.lip_f_x * prob.T)
        n_atoms = int(rng.integers(1, 3))
        pts = rng.uniform(-1, 1, size=(n_atoms, 1))
        w = np.full(n_atoms, 1.0 / n_atoms)
        mu = ParticleMeasure(pts, w)
        if i % 5 == 0:
            # occasionally compare against a completely different support
            m2 = int(rng.integers(1, 3))
            nu = ParticleMeasure(
                rng.uniform(-1, 1, size=(m2, 1)), np.full(m2, 1.0 / m2)
            )
        else:
            nu = ParticleMeasure(pts + rng.normal(0, 0.25, size=pts.shape), w)
        v_mu = solve_Vn(prob, mu, 2, tol=1e-9).value
        v_nu = solve_Vn(prob, nu, 2, tol=1e-9).value
        dist, _ = wasserstein2(mu, nu)
        ok = ok and abs(v_mu - v_nu) <= factor * dist + 1e-6
    _report(
        7,
        ok,
        "50 perturbed pairs satisfy |Vn(mu) - Vn(nu)| <= "
        "lip_g * e^(lip_f T) * W2 + 1e-6",
    )


# ---------------------------------------------------------------------------
# 8. Discrete dynamic programming
# ---------------------------------------------------------------------------

def test_criterion_8_discrete_dpp():
    scenarios = [
        (
            "frozen",
            make_problem(
                "frozen", dim=1, T=1.0, u_grid=[0.0, 1.0], v_grid=[0.0, 1.0],
                g_kind="quadratic",
            ),
            measure([[1.5]], [1.0]),
        ),
        (
            "single-u",
            make_problem(
                "affine", A=[[0.2]], B=[[1.0]], C=[[1.0]], dim=1, T=1.0,
                u_grid=[0.5], v_grid=[-0.5, 0.5],
            ),
            measure([[0.3], [1.0]], [0.5, 0.5]),
        ),
        (
            "single-v",
            make_problem(
                "affine", A=[[0.0]], B=[[1.0]], C=[[1.0]], dim=1, T=1.0,
                u_grid=[-1.0, 1.0], v_grid=[0.25],
            ),
            measure([[0.3], [-0.8]], [0.5, 0.5]),
        ),
        (
            "pennies",
            make_problem(
                "u_plus_v", T=1.0, u_grid=[-1.0, 1.0], v_grid=[-1.0, 1.0]
            ),
            measure([[0.0]], [1.0]),
        ),
        (
            "v-only",
            make_problem(
                "affine", A=[[0.0]], B=[[0.0]], C=[[1.0]], dim=1, T=1.0,
                u_grid=[-1.0, 1.0], v_grid=[-1.0, 1.0],
            ),
            measure([[0.2]], [1.0]),
        ),
    ]
    reports = [(label, dpp_check(prob, mu, 2)) for label, prob, mu in scenarios]
    bad = [
        f"{label}: {rep.difference:.2e} ({rep.method})"
        for label, rep in reports
        if abs(rep.difference) > 1e-3
    ]
    _report(
        8,
        not bad,
        "5 scenarios satisfy |LHS - RHS| <= 1e-3 "
        "(dyadic-mix slack documented in each report)"
        + (f"; failing: {bad}" if bad else ""),
    )


# ---------------------------------------------------------------------------
# 9. Variational point search
# ---------------------------------------------------------------------------

def test_criterion_9_ekeland():
    rng = np.random.default_rng(909)
    start = time.perf_counter()
    violations = 0
    for _ in range(100):
        size = int(rng.integers(2, 13))
        domain = []
        for i in range(size):
            atoms = int(rng.integers(1, 4))
            domain.append(
                (
                    float(rng.uniform(0, 1)),
                    ParticleMeasure(
                        rng.normal(0, 1, size=(atoms, 2)),
                        np.full(atoms, 1.0 / atoms),
                    ),
                )
            )
        values = rng.uniform(-1, 1, size=size)
        table = {id(mu): float(v) for (_, mu), v in zip(domain, values)}
        eps = float(rng.uniform(0.05, 0.5))
        res = ekeland_point(domain, lambda t, mu: table[id(mu)], eps)
        # independent exhaustive verification of both inequalities
        for j, (_, mu) in enumerate(domain):
            d, _ = wasserstein2(domain[res.index][1], mu)
            if values[j] < values[res.index] - eps * d - 1e-12:
                violations += 1
        if values[res.index] > np.min(values) + eps + 1e-12:
            violations += 1
        violations += len(res.violations)
    elapsed = time.perf_counter() - start
    _report(
        9,
        violations == 0 and elapsed < 5.0,
        f"100 random domains verified exhaustively with zero violations "
        f"({elapsed:.2f}s < 5s)",
    )


# ---------------------------------------------------------------------------
# 10. Byte determinism of the CLI fixtures
# ---------------------------------------------------------------------------

FIXTURE_CONFIGS = {
    "pennies.cfg": """
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
""",
    "affine.cfg": """
problem.label    = affine-mix
problem.kind     = affine
problem.dim      = 1
problem.T        = 1.0
problem.n_stages = 2
problem.A        = 0.3
problem.B        = 1.0
problem.C        = 1.0
problem.u_grid   = -1, 1
problem.v_grid   = -1, 0, 1
g.kind           = abs
mu0.atoms        = 0.5 0.4; 0.5 -0.2
solver.tol       = 1e-8
seed             = 11
sweep.n          = 1, 2
transport.target.atoms = 1.0 0.0
ekeland.domain   = 15
""",
}

OUTPUTS = {
    "solve": ("values.csv", "certificate.csv"),
    "converge": ("converge.csv",),
    "oracle": ("oracle.csv",),
    "hamiltonian": ("hamiltonian.csv",),
    "transport": ("transport.csv", "plan.csv"),
    "ekeland": ("ekeland.csv",),
}


def test_criterion_10_determinism(tmp_path):
    ok = True
    for name, text in FIXTURE_CONFIGS.items():
        cfg = tmp_path / name
        cfg.write_text(text)
        runs = []
        for run in ("r1", "r2"):
            out = tmp_path / f"{name}-{run}"
            for cmd in OUTPUTS:
                code = main(
                    [cmd, "--config", str(cfg), "--out", str(out), "--repro"]
                )
                ok = ok and code == 0
            runs.append(out)
        for files in OUTPUTS.values():
            for f in files:
                ok = ok and (runs[0] / f).read_bytes() == (runs[1] / f).read_bytes()
    _report(
        10,
        ok,
        "every CLI fixture reproduces byte-identical CSVs under a fixed seed",
    )
