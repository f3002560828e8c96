"""Exact quadratic optimal transport between particle measures.

The solver is a transportation simplex in exact integers: the marginals
over a common denominator (weights are first snapped to rationals with
denominator at most 10**12) and the float costs times their largest
denominator, which is exact as floats are dyadic.  It starts from the
northwest corner of both sides sorted by their projection onto the
principal axis of the pooled atoms.  In 1-d that is the monotone coupling,
which is optimal for squared distances, so no pivot is needed unless
rounding of huge or tiny squared distances breaks the float costs' Monge
property (atoms spanning 1e-160 to 6e153 take 4 pivots); sliced Wasserstein
distances sort along projections the same way (Rabin, Peyre, Delon &
Bernot 2011).  It
enters by the most negative reduced cost and leaves by Cunningham's (1976)
strongly feasible rule, which keeps that pricing finite without Bland's
rule.  The basis tree and its node potentials persist across pivots
(Bonneel et al. 2011).  Each pivot screens every reduced cost in one float
pass and prices exactly only the cells that a proven error bound cannot
rule out, so it enters the cell an exact full scan enters: the
float-then-exact scheme of Applegate, Cook, Dash & Espinoza (2007).  The
final basis is certified optimal from scratch, in exact integers.  The
distance is the exact optimal cost rounded once, so it does not depend on
which optimal plan the pivots reach; the plan is canonical by the sorted
start and the fixed pivot rules.

Also provides the barycentric projection of a plan: the vector field on the
target measure that averages the displacements ``x - y`` arriving at each
target atom.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import frexp, lcm
from operator import lshift, mul, sub

import numpy as np

from .errors import InvalidStateError, SolverFailure
from .measures import ParticleMeasure, _fmt

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
        slack = MARGINAL_TOL * max(1.0, abs(self.cost))
        if abs(recomputed - self.cost) > slack:
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


def _axis_projections(
    x: np.ndarray, y: np.ndarray, wx: np.ndarray, wy: np.ndarray
) -> tuple[list[float], list[float]]:
    """Projections of the atoms ``x`` and ``y`` onto the principal axis of
    the pooled atoms, oriented along ``mean(y) - mean(x)``.

    The pooled atoms are first divided by their largest |entry|, so nothing
    here overflows.  The axis comes from 8 power steps on their centred
    scatter, started from the mass-weighted mean difference (the first
    coordinate axis if that is zero); the scatter is positive semidefinite,
    so no step turns the axis against its start.  Only elementwise products
    and sums are used, never BLAS, so the projections do not depend on the
    BLAS thread count, and a signed permutation of the coordinates (a
    quarter turn or a mirror in 2-d) maps every float exactly.
    """
    pooled = np.concatenate([x, y])
    z = pooled / (np.max(np.abs(pooled)) or 1.0)
    m, total = len(x), np.add.reduce
    axis = total(wy[:, None] * z[m:]) - total(wx[:, None] * z[:m])
    if not axis.any():
        axis = np.eye(z.shape[1])[0]
    centred = z - total(z) / len(z)
    scatter = total(centred[:, :, None] * centred[:, None, :]).tolist()
    axis = axis.tolist()
    for _ in range(8):
        step = [sum(map(mul, row, axis)) for row in scatter]
        top = max(map(abs, step))
        if top == 0.0:
            break
        axis = [s / top for s in step]
    proj = total(z * axis, axis=1).tolist()
    return proj[:m], proj[m:]


def _integer_marginals(
    mu: ParticleMeasure, nu: ParticleMeasure
) -> tuple[list[int], list[int], int]:
    """Snap both weight vectors to integers over one exact denominator.

    Each weight is snapped to the nearest rational of denominator at most
    ``_WEIGHT_DENOM`` and divided by its measure's snapped total; each
    distinct float is snapped and normalized once.
    """
    wa, wb = mu.weights.tolist(), nu.weights.tolist()
    fa, fb = _normalized_snaps(wa), _normalized_snaps(wb)
    denom = lcm(*[f.denominator for f in (*fa.values(), *fb.values())])
    scaled = {w: int(f * denom) for w, f in fa.items()}
    a = [scaled[w] for w in wa]
    scaled = {w: int(f * denom) for w, f in fb.items()}
    b = [scaled[w] for w in wb]
    assert sum(a) == denom and sum(b) == denom
    return a, b, denom


def _normalized_snaps(weights: list[float]) -> dict[float, Fraction]:
    """Each distinct weight's snapped rational over the snapped total."""
    counts = Counter(weights)
    snaps = {w: Fraction(w).limit_denominator(_WEIGHT_DENOM) for w in counts}
    total = sum(f * counts[w] for w, f in snaps.items())
    if total == 0:
        raise ValueError("measure has zero snapped mass")
    return {w: f / total for w, f in snaps.items()}


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


def _integer_costs(cost_f: np.ndarray) -> tuple[list[list[int]], int]:
    """The float costs times their largest denominator ``scale``, as exact
    ints, and that ``scale``.

    Floats are dyadic: ``frexp`` splits each cost elementwise into an odd
    integer (or zero) times a power of two, so every product is an integer.
    NaN raises ``ValueError`` and inf ``OverflowError``, as in
    ``float.as_integer_ratio``.
    """
    if np.isnan(cost_f).any():
        raise ValueError("cannot scale NaN costs to integers")
    if np.isinf(cost_f).any():
        raise OverflowError("cannot scale infinite costs to integers")
    mant, exp = np.frexp(cost_f)
    ints = np.ldexp(mant, 53).astype(np.int64)  # cost = ints * 2**(exp - 53)
    zeros = np.maximum(np.frexp(ints & -ints)[1] - 1, 0)  # trailing zero bits
    exp = np.where(ints == 0, 0, exp - 53 + zeros)  # cost = odd * 2**exp
    power = max(0, -int(exp.min()))
    rows = zip((ints >> zeros).tolist(), (exp + power).tolist())
    return [list(map(lshift, odd, shift)) for odd, shift in rows], 1 << power


def _hang(top, adj, parent, depth, pot, cost, m) -> list[int]:
    """Set parent, depth and potential below ``top``, whose own are set, and
    return the nodes of ``top``'s subtree.

    Rows are nodes ``0..m-1`` and columns ``m..m+k-1``; a basic cell (i, j)
    joins i and m+j and fixes ``pot[i] + pot[m+j] = cost[i][j]``.
    """
    stack, nodes = [top], []
    while stack:
        x = stack.pop()
        nodes.append(x)
        if depth[x] >= len(parent):
            raise InvalidStateError("transport basis has a cycle")
        for y in adj[x]:
            if y != parent[x]:
                c = cost[x][y - m] if x < m else cost[y][x - m]
                parent[y], depth[y], pot[y] = x, depth[x] + 1, c - pot[x]
                stack.append(y)
    return nodes


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
    rows, cols = [0] * m, [0] * k
    for (i, j), f in basis.items():
        rows[i] += f
        cols[j] += f
    if min(basis.values()) < 0 or rows != a or cols != b:
        raise InvalidStateError("transport flows are not feasible")
    if any(min(map(sub, cost[i], pot[m:])) < pot[i] for i in range(m)):
        raise InvalidStateError("transport basis has a negative reduced cost")


def _solve_transport(
    cost, a: list[int], b: list[int], cost_f: np.ndarray, scale: int
) -> dict[tuple[int, int], int]:
    """Exact transportation simplex; returns optimal basic integer flows.

    ``cost_f`` holds ``cost[i][j] / scale`` rounded to nearest, as an
    (m, k) float array; from ``_integer_costs`` it is exact.  The simplex
    starts from the northwest corner in the given order of rows and columns;
    ``wasserstein2`` sorts them along one axis first.  Every marginal must
    be positive, so that the northwest corner of any order is a strongly
    feasible tree (Cunningham 1976): hung from row 0, every zero-flow cell
    (i, j) has row i directly below column j.  A pivot enters the cell of
    most negative reduced cost, ties to the smallest ``i*k + j``, and walks
    both its ends up the tree to find the cycle.  Walking that cycle from
    its apex down to the entering row, across the entering cell and up from
    its column, the minus-cell of least flow met last leaves, which keeps
    the tree strongly feasible and the pivots finite.  The subtree cut off
    is hung again from the entering end inside it, so only its potentials
    change and row 0 stays the root.

    Pricing screens every cell in floats and confirms in integers.  Let
    ``n = m + k``, ``T`` the largest ``|cost_f|``, ``T < 2**e`` and ``2n <
    2**b``; then ``E = max(0, e + b - 1000)`` keeps ``2n T / 2**E`` below
    ``2**1000``.  Each pivot evaluates ``R = (cost_f / 2**E - u) - v``
    elementwise over all m x k cells, where ``u`` and ``v`` are the
    potentials ``pot / (scale * 2**E)`` by correctly rounded int / int
    division, refreshed only at the nodes ``_hang`` re-hangs.  Every cell
    with ``R <= min(R) + delta`` is then priced exactly, and the least exact
    reduced cost enters, ties to the smallest ``i*k + j``; the simplex stops
    when that least value is >= 0.  With ``delta = 16 n 2**-53 T / 2**E +
    2**-1069`` this is the cell, and the stop, of an exact full scan.
    Proof, in the units of ``R``, with ``eps = 2**-53``, ``eta = 2**-1075``
    (half the least subnormal) and ``mu = T / 2**E``:

    * Sizes.  Each exact cost ``cost[i][j] / (scale * 2**E)`` is at most
      ``mu' = (1 + 2 eps) mu + 2 eta`` in size.  A potential is an
      alternating sum of the costs on its tree path from row 0, so it is at
      most ``P = (n - 1) mu'``.  Every quantity below stays under
      ``2**1001``, so nothing overflows and no int / int division raises.
    * Inputs.  A scaled float cost is off from the exact one by at most
      ``eps mu' + 2 eta``: the rounding of ``cost_f``, then that of the
      division by ``2**E``, which is exact above the subnormals.  A float
      potential is off by at most ``eps P + eta``.
    * Operations.  The two subtractions round by at most ``eps`` times
      their results, which are below ``mu' + P`` and ``mu' + 2P`` up to
      ``O(eps)``; a subtraction with a subnormal result is exact.
    * Sum.  So ``|R - r| <= eps (3 mu' + 5 P) + 4 eta + O(eps**2 n mu) <=
      5 n eps mu + 5 eta`` for the exact reduced cost ``r``.  Take ``g``
      with ``R_g = min(R)``, so ``r_g <= min(R) + 5 n eps mu + 5 eta``.  The
      computed threshold ``fl(min(R) + delta)`` is off by at most ``eps
      |min(R) + delta| <= 2 n eps mu``, so a cell above it has ``r >
      min(R) + delta - 2 n eps mu - 5 n eps mu - 5 eta >= r_g``: ``delta``
      is at least ``12 n eps mu + 10 eta`` even after its own rounding.  So
      every exact minimizer is screened in, and only exact values decide.

    ``_certify`` still prices every cell exactly.  The float pass is
    elementwise numpy, never BLAS, so no choice depends on the BLAS thread
    count.
    """
    m, k = len(a), len(b)
    n = m + k
    flows = _northwest_corner(a, b)
    adj, parent, depth, pot = _tree(flows, cost, m, k)
    top = float(np.max(np.abs(cost_f)))
    shift = max(0, frexp(top)[1] + (2 * n).bit_length() - 1000)  # E
    div = scale << shift
    scaled = cost_f / 2.0**shift
    delta = (16 * n * 2.0**-53) * (top / 2.0**shift) + 2.0**-1069
    pf = np.array([p / div for p in pot])  # int / int is correctly rounded
    u, v = pf[:m, None], pf[m:]
    flat = np.empty(m * k)
    screen = flat.reshape(m, k)  # a view: the pass fills ``flat`` row-major

    def cell(z: int) -> tuple[int, int]:  # the cell from node z to its parent
        return (z, parent[z] - m) if z < m else (parent[z], z - m)

    for pivots in range(MAX_PIVOTS + 1):
        np.subtract(scaled, u, out=screen)
        np.subtract(screen, v, out=screen)
        near = (flat <= np.minimum.reduce(flat) + delta).nonzero()[0].tolist()
        best, i0, j0 = min(
            (cost[i][j] - pot[i] - pot[m + j], i, j)
            for i, j in map(divmod, near, repeat(k))
        )
        if best >= 0:
            break
        if pivots == MAX_PIVOTS:
            msg = f"transport simplex hit the pivot cap on a {m} x {k} problem"
            raise SolverFailure(msg, pivots)
        xs, ys = [i0], [m + j0]  # the tree paths up to the common ancestor
        while xs[-1] != ys[-1]:
            path = xs if depth[xs[-1]] >= depth[ys[-1]] else ys
            path.append(parent[path[-1]])
        del xs[-1], ys[-1]
        # From either end, the cycle's edges alternately lose and gain flow;
        # the minus-cells in the order the walk from the apex meets them.
        minus = [cell(z) for z in xs[::2][::-1] + ys[::2]]
        theta = min(flows[c] for c in minus)
        leave = next(c for c in reversed(minus) if flows[c] == theta)
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
        subtree = _hang(a_end, adj, parent, depth, pot, cost, m)
        pf[subtree] = [pot[z] / div for z in subtree]
    _certify(flows, cost, a, b)
    return flows


def wasserstein2(
    mu: ParticleMeasure, nu: ParticleMeasure
) -> tuple[float, TransportPlan]:
    """Wasserstein-2 distance and an optimal plan between two measures.

    Returns ``(distance, plan)`` with ``distance = sqrt(plan.cost)``.  The
    simplex runs on the atoms of positive snapped mass; the others get zero
    rows and columns.  Both sides enter it sorted (stably) by their
    projection onto the pooled atoms' principal axis, oriented from
    ``mean(mu)`` to ``mean(nu)``, so that its northwest-corner start is the
    sorted coupling: optimal in 1-d while the float costs stay Monge, near
    optimal along a dominant axis.
    The cost is the exact sum of flow times integer cost, rounded once, so
    every optimal plan gives the same distance.  The plan is the canonical
    optimum selected by the sorted order and the deterministic pivot rules.
    Raises ``ValueError`` when a squared distance overflows and
    ``SolverFailure`` past ``MAX_PIVOTS`` pivots.
    """
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} != {nu.dim}")
    a, b, denom = _integer_marginals(mu, nu)
    rows = [i for i, w in enumerate(a) if w > 0]
    cols = [j for j, w in enumerate(b) if w > 0]
    proj_x, proj_y = _axis_projections(
        mu.points[rows], nu.points[cols], mu.weights[rows], nu.weights[cols]
    )
    rows = [rows[t] for t in sorted(range(len(rows)), key=proj_x.__getitem__)]
    cols = [cols[t] for t in sorted(range(len(cols)), key=proj_y.__getitem__)]
    with np.errstate(over="ignore"):
        cost_f = _cost_matrix(mu, nu)[np.ix_(rows, cols)]
    if not np.all(np.isfinite(cost_f)):
        raise ValueError(
            f"squared distances overflow on a {len(rows)} x {len(cols)} problem"
        )
    cost, scale = _integer_costs(cost_f)
    basis = _solve_transport(
        cost, [a[i] for i in rows], [b[j] for j in cols], cost_f, scale
    )
    coupling = np.zeros((mu.n_atoms, nu.n_atoms))
    for (i, j), flow in basis.items():
        coupling[rows[i], cols[j]] = flow / denom  # int / int is correctly rounded
    total = sum(flow * cost[i][j] for (i, j), flow in basis.items())
    plan = TransportPlan(coupling, mu, nu, total / (denom * scale))
    return float(np.sqrt(plan.cost)), plan


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
    rows, cols = np.nonzero(plan.coupling)  # row-major order
    masses = plan.coupling[rows, cols]
    lines = ["i,j,mass"]
    lines += [f"{i},{j},{_fmt(mass)}" for i, j, mass in
              zip(rows.tolist(), cols.tolist(), masses.tolist())]
    return "\n".join(lines) + "\n"
