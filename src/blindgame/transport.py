"""Exact quadratic optimal transport between particle measures.

The solver is a transportation simplex with Bland's smallest-index rule,
in exact integers: the marginals over a common denominator (weights are
first snapped to rationals with denominator at most 10**12) and the float
costs times their largest denominator, which is exact as floats are dyadic.
The basis tree and its node potentials persist across pivots (Bonneel et
al. 2011), and the final basis is certified optimal from scratch.  The plan
is an exact optimum of the float costs, canonical by the fixed pivot order.

Also provides the barycentric projection of a plan: the vector field on the
target measure that averages the displacements ``x - y`` arriving at each
target atom.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import sub

import numpy as np

from .errors import InvalidStateError, SolverFailure
from .measures import ParticleMeasure

MARGINAL_TOL = 1e-9
_WEIGHT_DENOM = 10**12
#: Pivot cap of the transport simplex; read at call time.
MAX_PIVOTS = 200_000


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """A coupling of two particle measures with its squared-distance cost.

    Attributes
    ----------
    coupling : (m, k) array; entry (i, j) is the mass sent from source atom
        i to target atom j.
    source, target : the coupled measures.
    cost : total squared-displacement cost of the coupling.
    """

    coupling: np.ndarray
    source: ParticleMeasure
    target: ParticleMeasure
    cost: float

    def __post_init__(self):
        pi = np.asarray(self.coupling, dtype=float)
        m, k = self.source.n_atoms, self.target.n_atoms
        if pi.shape != (m, k):
            raise ValueError(f"coupling shape {pi.shape} != ({m}, {k})")
        if np.any(pi < -MARGINAL_TOL):
            raise ValueError("coupling has negative entries")
        row_err = np.max(np.abs(pi.sum(axis=1) - self.source.weights))
        col_err = np.max(np.abs(pi.sum(axis=0) - self.target.weights))
        if row_err > MARGINAL_TOL or col_err > MARGINAL_TOL:
            raise ValueError(
                f"marginal mismatch: rows {row_err:.3e}, cols {col_err:.3e}"
            )
        recomputed = float(np.sum(pi * _cost_matrix(self.source, self.target)))
        if abs(recomputed - self.cost) > MARGINAL_TOL:
            raise ValueError(
                f"stored cost {self.cost!r} != recomputed {recomputed!r}"
            )
        pi.setflags(write=False)
        object.__setattr__(self, "coupling", pi)


@dataclass(frozen=True, eq=False)
class ProjectionField:
    """A displacement vector per atom of ``base``."""

    base: ParticleMeasure
    vectors: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.vectors, dtype=float)
        if vec.ndim == 1:
            vec = vec.reshape(-1, 1)
        if vec.shape != (self.base.n_atoms, self.base.dim):
            raise ValueError(
                f"vectors shape {vec.shape} != "
                f"({self.base.n_atoms}, {self.base.dim})"
            )
        vec.setflags(write=False)
        object.__setattr__(self, "vectors", vec)


def _cost_matrix(mu: ParticleMeasure, nu: ParticleMeasure) -> np.ndarray:
    diff = mu.points[:, None, :] - nu.points[None, :, :]
    return np.sum(diff * diff, axis=2)


def _integer_marginals(
    mu: ParticleMeasure, nu: ParticleMeasure
) -> tuple[list[int], list[int], int]:
    """Snap both weight vectors to integers over one exact denominator."""
    fa = [Fraction(float(w)).limit_denominator(_WEIGHT_DENOM) for w in mu.weights]
    fb = [Fraction(float(w)).limit_denominator(_WEIGHT_DENOM) for w in nu.weights]
    ta, tb = sum(fa), sum(fb)
    if ta == 0 or tb == 0:
        raise ValueError("measure has zero snapped mass")
    fa = [f / ta for f in fa]
    fb = [f / tb for f in fb]
    denom = lcm(*[f.denominator for f in fa + fb])
    a = [int(f * denom) for f in fa]
    b = [int(f * denom) for f in fb]
    assert sum(a) == denom and sum(b) == denom
    return a, b, denom


def _northwest_corner(
    a: list[int], b: list[int]
) -> dict[tuple[int, int], int]:
    """Initial basic feasible flow with exactly m + k - 1 basic cells."""
    m, k = len(a), len(b)
    rem_a, rem_b = list(a), list(b)
    flows: dict[tuple[int, int], int] = {}
    i = j = 0
    while True:
        f = min(rem_a[i], rem_b[j])
        flows[(i, j)] = f
        rem_a[i] -= f
        rem_b[j] -= f
        if i == m - 1 and j == k - 1:
            break
        if rem_a[i] == 0 and i < m - 1:
            i += 1
        else:
            j += 1
    assert len(flows) == m + k - 1
    return flows


def _integer_costs(cost_f: np.ndarray) -> list[list[int]]:
    """The float costs times their largest denominator, as exact ints.

    Floats are dyadic, so every product is an integer.  NaN and inf raise.
    """
    ratios = [[c.as_integer_ratio() for c in row] for row in cost_f.tolist()]
    scale = max(d for row in ratios for _, d in row)
    return [[n * (scale // d) for n, d in row] for row in ratios]


def _hang(top, adj, parent, depth, pot, cost, m) -> None:
    """Set parent, depth and potential below ``top``, whose own are set.

    Rows are nodes ``0..m-1`` and columns ``m..m+k-1``; a basic cell (i, j)
    joins i and m+j and fixes ``pot[i] + pot[m+j] = cost[i][j]``.
    """
    stack = [top]
    while stack:
        x = stack.pop()
        if depth[x] >= len(parent):
            raise InvalidStateError("transport basis has a cycle")
        for y in adj[x]:
            if y != parent[x]:
                c = cost[x][y - m] if x < m else cost[y][x - m]
                parent[y], depth[y], pot[y] = x, depth[x] + 1, c - pot[x]
                stack.append(y)


def _tree(basis: dict[tuple[int, int], int], cost, m: int, k: int):
    """Adjacency, parent, depth and potential (the duals anchored at
    ``u_0 = 0``) of ``basis`` hung from row 0; unreached nodes keep parent -1.
    """
    adj: list[list[int]] = [[] for _ in range(m + k)]
    for i, j in basis:
        adj[i].append(m + j)
        adj[m + j].append(i)
    parent, depth, pot = [-1] * (m + k), [0] * (m + k), [0] * (m + k)
    _hang(0, adj, parent, depth, pot, cost, m)
    return adj, parent, depth, pot


def _certify(basis: dict[tuple[int, int], int], cost, a, b) -> None:
    """Raise ``InvalidStateError`` unless ``basis`` is an optimal tree flow.

    Exact checks, with duals from a fresh traversal of ``basis``: a spanning
    tree, flows >= 0 summing to ``a`` and ``b``, and reduced costs >= 0.
    """
    m, k = len(a), len(b)
    _, parent, _, pot = _tree(basis, cost, m, k)
    if len(basis) != m + k - 1 or -1 in parent[1:]:
        raise InvalidStateError("transport basis is not a spanning tree")
    rows = [sum(f for (i, _), f in basis.items() if i == r) for r in range(m)]
    cols = [sum(f for (_, j), f in basis.items() if j == c) for c in range(k)]
    if min(basis.values()) < 0 or rows != a or cols != b:
        raise InvalidStateError("transport flows are not feasible")
    if any(min(map(sub, cost[i], pot[m:])) < pot[i] for i in range(m)):
        raise InvalidStateError("transport basis has a negative reduced cost")


def _solve_transport(cost, a: list[int], b: list[int]) -> dict[tuple[int, int], int]:
    """Exact transportation simplex; returns optimal basic integer flows.

    A pivot enters the first cell in row-major order with a negative
    reduced cost, walks both its ends up the tree to find the cycle, and
    drops the minus-cell of least flow, ties to the smallest ``i*k + j``.
    The subtree cut off is hung again from the entering end inside it, so
    only its potentials change and row 0 stays the root.
    """
    m, k = len(a), len(b)
    flows = _northwest_corner(a, b)
    adj, parent, depth, pot = _tree(flows, cost, m, k)

    def cell(z: int) -> tuple[int, int]:  # the cell from node z to its parent
        return (z, parent[z] - m) if z < m else (parent[z], z - m)

    for pivots in range(MAX_PIVOTS + 1):
        v = pot[m:]
        i0 = next((i for i in range(m) if min(map(sub, cost[i], v)) < pot[i]), -1)
        if i0 < 0:
            break
        if pivots == MAX_PIVOTS:
            msg = f"transport simplex hit the pivot cap on a {m} x {k} problem"
            raise SolverFailure(msg, pivots)
        j0 = next(j for j in range(k) if cost[i0][j] - v[j] < pot[i0])
        xs, ys = [i0], [m + j0]  # the tree paths up to the common ancestor
        while xs[-1] != ys[-1]:
            path = xs if depth[xs[-1]] >= depth[ys[-1]] else ys
            path.append(parent[path[-1]])
        del xs[-1], ys[-1]
        # From either end, the cycle's edges alternately lose and gain flow.
        minus = [cell(z) for z in xs[::2] + ys[::2]]
        leave = min(minus, key=lambda c: (flows[c], c))
        theta = flows[leave]
        for c in minus:
            flows[c] -= theta
        for z in xs[1::2] + ys[1::2]:
            flows[cell(z)] += theta
        del flows[leave]
        flows[i0, j0] = theta
        # Cut at the leaving cell's child q; hang q's subtree from its end.
        q = leave[0] if parent[leave[0]] == m + leave[1] else m + leave[1]
        a_end, b_end = (i0, m + j0) if q in xs else (m + j0, i0)
        adj[q].remove(parent[q])
        adj[parent[q]].remove(q)
        adj[a_end].append(b_end)
        adj[b_end].append(a_end)
        parent[a_end], depth[a_end] = b_end, depth[b_end] + 1
        pot[a_end] = cost[i0][j0] - pot[b_end]
        _hang(a_end, adj, parent, depth, pot, cost, m)
    _certify(flows, cost, a, b)
    return flows


def wasserstein2(
    mu: ParticleMeasure, nu: ParticleMeasure
) -> tuple[float, TransportPlan]:
    """Wasserstein-2 distance and an optimal plan between two measures.

    Returns ``(distance, plan)`` with ``distance = sqrt(plan.cost)``.  The
    plan is the canonical optimum selected by the deterministic pivot order.
    Raises ``SolverFailure`` past ``MAX_PIVOTS`` pivots.
    """
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} != {nu.dim}")
    cost_f = _cost_matrix(mu, nu)
    a, b, denom = _integer_marginals(mu, nu)
    basis = _solve_transport(_integer_costs(cost_f), a, b)
    coupling = np.zeros((mu.n_atoms, nu.n_atoms))
    total = 0.0
    for (i, j) in sorted(basis):
        mass = float(Fraction(basis[(i, j)], denom))
        coupling[i, j] = mass
        total += mass * float(cost_f[i, j])
    cost = max(total, 0.0)
    plan = TransportPlan(coupling, mu, nu, cost)
    return float(np.sqrt(cost)), plan


def reverse_plan(plan: TransportPlan) -> TransportPlan:
    """The same coupling read in the opposite direction."""
    return TransportPlan(
        plan.coupling.T.copy(), plan.target, plan.source, plan.cost
    )


def barycentric_projection(plan: TransportPlan) -> ProjectionField:
    """Average displacement field on the plan's target measure.

    For target atom y_j the vector is sum_i pi_ij (x_i - y_j) / sum_i pi_ij,
    the unique field satisfying the pairing identity
    <xi(y), x - y> integrated against the plan = <xi(y), p(y)> integrated
    against the target, for every test field xi.
    """
    pi = plan.coupling
    col_mass = pi.sum(axis=0)
    if np.any(col_mass <= 0.0):
        j = int(np.argmin(col_mass))
        raise InvalidStateError(f"target atom {j} receives no mass")
    disp = plan.source.points[:, None, :] - plan.target.points[None, :, :]
    vectors = np.einsum("ij,ijd->jd", pi, disp) / col_mass[:, None]
    return ProjectionField(plan.target, vectors)


def l2_norm(field: ProjectionField) -> float:
    """Weighted L2 norm of the field under its base measure."""
    sq = np.sum(field.vectors**2, axis=1)
    return float(np.sqrt(np.sum(field.base.weights * sq)))


def plan_to_csv(plan: TransportPlan) -> str:
    """Serialize the nonzero coupling entries as (i, j, mass) triples."""
    lines = ["i,j,mass"]
    for i in range(plan.coupling.shape[0]):
        for j in range(plan.coupling.shape[1]):
            mass = plan.coupling[i, j]
            if mass != 0.0:
                lines.append(f"{i},{j},{mass:.12g}")
    return "\n".join(lines) + "\n"
