"""Spans around the calls into each blindgame module, for the traced run.

The wrappers are installed where callers look the functions up: each
module imports its collaborators by name, so ``value_solver.advance_stage``
and ``dynamics.advance_stage`` are separate references to the same
function and both are wrapped.  A span records its name, start, end and
parent span; spans stay in memory and are aggregated per pass.  Self time
is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

from blindgame import cli, dynamics, game_kernel, scenario, value_solver
from blindgame.errors import SolverFailure


class Tracer:
    """Span recorder with per-layer counters; one instance per pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, on_result=None, on_failure=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except SolverFailure as exc:
                if on_failure is not None:
                    on_failure(exc)
                raise
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    def self_times(self) -> tuple[Counter, Counter]:
        """Per span name: total self time and number of spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for (name, start, end, _), covered in zip(self.spans, child):
            self_s[name] += (end - start) - covered
            calls[name] += 1
        return self_s, calls


def _targets(tr: Tracer) -> list[tuple[object, str, object]]:
    """(module, attribute, wrapper) for every traced call site."""
    c = tr.counts

    def pivots(kind):
        def on_result(sol, args):
            c[f"simplex.{kind}.pivots"] += sol.iterations
        return on_result

    def failures(kind):
        def on_failure(exc):
            c[f"simplex.{kind}.pivots"] += exc.iterations
            c[f"simplex.{kind}.failures"] += 1
        return on_failure

    def cells(result, args):
        c["transport.wasserstein2.cells"] += args[0].n_atoms * args[1].n_atoms

    w = tr.wrap
    stage = dynamics.advance_stage
    return [
        (dynamics, "advance_stage", w("dynamics.advance_stage", stage)),
        (value_solver, "advance_stage", w("dynamics.advance_stage", stage)),
        (cli, "advance_stage", w("dynamics.advance_stage", stage)),
        (value_solver, "flow", w("dynamics.flow", dynamics.flow)),
        (cli, "solve_Vn", w("value_solver.solve_Vn", value_solver.solve_Vn)),
        (value_solver, "best_response_I",
         w("value_solver.best_response_I", value_solver.best_response_I)),
        (value_solver, "cut_coefficients",
         w("value_solver.cut_coefficients", value_solver.cut_coefficients)),
        (cli, "brute_force_value",
         w("value_solver.brute_force_value", value_solver.brute_force_value)),
        (cli, "ekeland_point",
         w("value_solver.ekeland_point", value_solver.ekeland_point)),
        (value_solver, "max_weighted_min",
         w("simplex.master", value_solver.max_weighted_min,
           pivots("master"), failures("master"))),
        (game_kernel, "max_weighted_min",
         w("simplex.game", game_kernel.max_weighted_min,
           pivots("game"), failures("game"))),
        (cli, "eval_H", w("game_kernel.eval_H", game_kernel.eval_H)),
        (cli, "eval_Hn", w("game_kernel.eval_Hn", game_kernel.eval_Hn)),
        (cli, "gamma_n", w("game_kernel.gamma_n", game_kernel.gamma_n)),
        (value_solver, "solve_matrix_game",
         w("game_kernel.solve_matrix_game", game_kernel.solve_matrix_game)),
        (cli, "wasserstein2",
         w("transport.wasserstein2", cli.wasserstein2, cells)),
        (value_solver, "wasserstein2",
         w("transport.wasserstein2", value_solver.wasserstein2, cells)),
        (cli, "load_scenario",
         w("scenario.load_scenario", scenario.load_scenario)),
        (scenario, "from_csv", w("measures.from_csv", scenario.from_csv)),
    ]


@contextmanager
def installed(tr: Tracer):
    """Wrap every traced call site for the duration of the block."""
    targets = _targets(tr)
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
    for mod, attr, wrapper in targets:
        setattr(mod, attr, wrapper)
    try:
        yield tr
    finally:
        for mod, attr, original in saved:
            setattr(mod, attr, original)


# Per-layer metrics: (name, unit, source).  Sources: ("calls", span name),
# ("self", span name), ("count", counter), ("us_per_call", span name).
LAYER_METRICS = [
    ("dynamics.advance_stage.calls", "count", "calls", "dynamics.advance_stage"),
    ("dynamics.advance_stage.self_s", "s", "self", "dynamics.advance_stage"),
    ("dynamics.advance_stage.us_per_call", "us", "us_per_call",
     "dynamics.advance_stage"),
    ("dynamics.flow.calls", "count", "calls", "dynamics.flow"),
    ("dynamics.flow.self_s", "s", "self", "dynamics.flow"),
    ("value_solver.solve_Vn.calls", "count", "calls", "value_solver.solve_Vn"),
    ("value_solver.solve_Vn.self_s", "s", "self", "value_solver.solve_Vn"),
    # Every cutting-plane iteration makes exactly one best response, also
    # the iterations of a solve that ends in SolverFailure.
    ("value_solver.solve_Vn.iterations", "count", "calls",
     "value_solver.best_response_I"),
    ("value_solver.best_response_I.calls", "count", "calls",
     "value_solver.best_response_I"),
    ("value_solver.best_response_I.self_s", "s", "self",
     "value_solver.best_response_I"),
    ("value_solver.cut_coefficients.calls", "count", "calls",
     "value_solver.cut_coefficients"),
    ("value_solver.cut_coefficients.self_s", "s", "self",
     "value_solver.cut_coefficients"),
    ("value_solver.brute_force_value.self_s", "s", "self",
     "value_solver.brute_force_value"),
    ("value_solver.ekeland_point.self_s", "s", "self",
     "value_solver.ekeland_point"),
    ("simplex.master.calls", "count", "calls", "simplex.master"),
    ("simplex.master.pivots", "count", "count", "simplex.master.pivots"),
    ("simplex.master.self_s", "s", "self", "simplex.master"),
    ("simplex.master.failures", "count", "count", "simplex.master.failures"),
    ("simplex.game.calls", "count", "calls", "simplex.game"),
    ("simplex.game.pivots", "count", "count", "simplex.game.pivots"),
    ("simplex.game.self_s", "s", "self", "simplex.game"),
    ("game_kernel.eval_H.self_s", "s", "self", "game_kernel.eval_H"),
    ("game_kernel.eval_Hn.self_s", "s", "self", "game_kernel.eval_Hn"),
    ("game_kernel.gamma_n.calls", "count", "calls", "game_kernel.gamma_n"),
    ("game_kernel.gamma_n.self_s", "s", "self", "game_kernel.gamma_n"),
    ("game_kernel.solve_matrix_game.self_s", "s", "self",
     "game_kernel.solve_matrix_game"),
    ("transport.wasserstein2.calls", "count", "calls", "transport.wasserstein2"),
    ("transport.wasserstein2.self_s", "s", "self", "transport.wasserstein2"),
    ("transport.wasserstein2.cells", "count", "count",
     "transport.wasserstein2.cells"),
    ("scenario.load_scenario.self_s", "s", "self", "scenario.load_scenario"),
    ("measures.from_csv.calls", "count", "calls", "measures.from_csv"),
    ("measures.from_csv.self_s", "s", "self", "measures.from_csv"),
    ("cli.main.calls", "count", "calls", "cli.main"),
    ("cli.main.self_s", "s", "self", "cli.main"),
]


def pass_metrics(tr: Tracer) -> tuple[dict, dict]:
    """(counts, times) of one traced pass, keyed by metric name."""
    self_s, calls = tr.self_times()
    counts, times = {}, {}
    for name, unit, source, key in LAYER_METRICS:
        if source == "calls":
            counts[name] = calls[key]
        elif source == "count":
            counts[name] = tr.counts[key]
        elif source == "self":
            times[name] = self_s[key]
        else:
            times[name] = 1e6 * self_s[key] / calls[key] if calls[key] else 0.0
    return counts, times
