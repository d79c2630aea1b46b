"""Momentum-space grids and discretized operators.

The grid is a symmetric pair of intervals [-p_max, -p_min] u [p_min, p_max]
built from composite Gauss-Legendre panels, so the neighborhood of p = 0 is
excluded by construction (the time-of-arrival operator is singular there).
A field may be a stack of fields, which the momentum-space operators act
on per member.  Every command's fields carry closed-form derivative
samples, which the operators use.  The one exception is the
``commutator_order_{deriv_order}`` check of ``verify``: its fields carry
none, so d/dp is a polynomial finite difference of order 2 or 4 on the
actual (non-uniform) nodes, evaluated per half-line; near each interval end
the stencils become one-sided at the same order.  The weights are
barycentric, one ``fd_weights`` call per half-line table.

Operators:

* ``apply_hamiltonian``  -- node-wise H(p) = alpha_1 p + beta m.
* ``apply_toa``          -- T = (1/p) H(p) (-i d/dp) + i beta m / (2 p^2),
  the quantized time-of-arrival of the free Dirac particle.
* ``commutator_residual`` -- the canonical relation [T, H] = i on a field.
* ``to_energy_rep``      -- isometry onto functions of E on the two spectral
  branches (-inf, -m) u (m, +inf), with the exact Jacobian |dE/dp| = |p|/E_p.
  Branch lam takes the nodes lam E_p in the order of the positive momenta,
  so on either branch node 0 is next to the gap and node -1 is the truncated end.
* ``apply_toa_energy``   -- closed-form -i d/dE per branch, gated on g(+-m) = 0,
  the symmetric domain: |g| <= BC_TOL max|g| at node 0.
* ``symmetry_defect``    -- <g|T g> - <T g|g> on one branch, also gated at node -1.

The spectral core ``_spectral_data`` lives here: one broadcast spinor call
projects a field onto all four (lam, s) channels.  ``to_energy_rep`` and the
time-lattice kernels of ``eigenfunctions`` and ``arrival`` are built on it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import _BETA_DIAG, apply_h_values, energy_spinor_values, weight_factor

__all__ = [
    "MomentumGrid",
    "GridSpinorField",
    "EnergyGridFunction",
    "build_grid",
    "apply_hamiltonian",
    "apply_toa",
    "commutator_residual",
    "to_energy_rep",
    "energy_function_on_branch",
    "apply_toa_energy",
    "symmetry_defect",
    "energy_inner_product",
    "energy_measure_identity",
    "fd_weights",
]

#: boundary gate |g(end node)| <= BC_TOL max|g|, in units of g at every m, at
#: node 0, next to +-m, and, for ``symmetry_defect``, node -1, the truncated end
BC_TOL = 1e-6

# (lam, s) order of the channel axis of ``_spectral_data``: the first two
# channels are the lam = +1 branch, the last two the lam = -1 branch
_CHANNELS = ((1, 0.5), (1, -0.5), (-1, 0.5), (-1, -0.5))


def fd_weights(stencils, at) -> np.ndarray:
    """First-derivative weights at node ``at`` of each stencil.

    ``stencils`` has shape (..., k): k distinct nodes per stencil; ``at``
    broadcasts against its leading axes.  The weights are those of the
    interpolating polynomial's derivative in barycentric form (Berrut and
    Trefethen, SIAM Review 46, 2004): with a_j = 1 / prod_{l != j} (x_j - x_l),
    w_j = (a_j / a_at) / (x_at - x_j) for j != at and w_at = -sum_{j != at} w_j.
    One call covers a whole stencil table.
    """
    x = np.asarray(stencils, dtype=float)
    k = x.shape[-1]
    at = np.broadcast_to(at, x.shape[:-1])[..., None]
    diff = x[..., :, None] - x[..., None, :]
    diff[..., range(k), range(k)] = 1.0  # so the product runs over l != j
    a = 1.0 / np.prod(diff, axis=-1)
    dx = np.take_along_axis(x, at, axis=-1) - x
    w = np.divide(a / np.take_along_axis(a, at, axis=-1), dx, out=np.zeros_like(x), where=dx != 0.0)
    np.put_along_axis(w, at, -np.sum(w, axis=-1, keepdims=True), axis=-1)
    return w


def _gauss_legendre_panels(a: float, b: float, n: int, panels: int):
    """Composite Gauss-Legendre rule with n nodes split over equal panels;
    the first n % panels panels take one node more, and the panels of each
    size share one rule, mapped onto all of them at once."""
    base, rem = divmod(n, panels)
    edges = np.linspace(a, b, panels + 1)
    half, mid = 0.5 * (edges[1:] - edges[:-1]), 0.5 * (edges[1:] + edges[:-1])
    xs, ws = [], []
    for q, at in ((base + 1, slice(0, rem)), (base, slice(rem, panels))):
        if at.stop > at.start:
            x0, w0 = np.polynomial.legendre.leggauss(q)
            xs.append((half[at, None] * x0 + mid[at, None]).ravel())
            ws.append((half[at, None] * w0).ravel())
    return np.concatenate(xs), np.concatenate(ws)


def _stencil_table(nodes: np.ndarray, order: int):
    """Per-node first-derivative stencils (indices, weights) on one interval.

    Interior nodes get index-centered stencils of order+1 points; the
    order//2 nodes nearest each end fall back to one-sided windows.
    """
    n = len(nodes)
    k = order + 1
    if n < k:
        raise ValueError(f"need at least {k} nodes per side for order {order}")
    start = np.clip(np.arange(n) - order // 2, 0, n - k)
    idx = start[:, None] + np.arange(k)
    return idx, fd_weights(nodes[idx], np.arange(n) - start)


@dataclass(eq=False)
class MomentumGrid:
    """Symmetric quadrature grid on [-p_max, -p_min] u [p_min, p_max].

    nodes are strictly increasing, none in (-p_min, p_min); weights are
    composite Gauss-Legendre on equal panels of at most 128 nodes (see
    ``build_grid``), so one side sums to p_max - p_min exactly.  The halves are
    exact mirrors, nodes[negative] == -nodes[positive][::-1] and
    weights[negative] == weights[positive][::-1] bit for bit, so a function
    of |p| such as E_p takes equal values at p and -p (the arrival sums fold
    on it: ``eigenfunctions._fold``).  ``deriv_order``
    (2 or 4) is the order of the finite-difference d/dp, ``derivative``; a
    field that carries ``deriv_values`` bypasses it, so only
    ``verify.check_commutator_order`` reaches it.
    """

    p_min: float
    p_max: float
    n_per_side: int
    deriv_order: int
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def n_nodes(self) -> int:
        return 2 * self.n_per_side

    @property
    def positive(self) -> slice:
        return slice(self.n_per_side, 2 * self.n_per_side)

    @property
    def negative(self) -> slice:
        return slice(0, self.n_per_side)

    @cached_property
    def _stencils(self) -> tuple:
        """(idx, weights) of the negative and positive half-lines, built on
        the first derivative: commands that never differentiate skip them."""
        return (
            *_stencil_table(self.nodes[self.negative], self.deriv_order),
            *_stencil_table(self.nodes[self.positive], self.deriv_order),
        )

    def derivative(self, values: np.ndarray) -> np.ndarray:
        """Finite-difference d/dp per half-line; values shape (..., n_nodes, 4)."""
        idx_n, w_n, idx_p, w_p = self._stencils
        n = self.n_per_side
        out = np.empty_like(np.asarray(values, dtype=complex))
        out[..., :n, :] = np.einsum("ik,...ikc->...ic", w_n, values[..., :n, :][..., idx_n, :])
        out[..., n:, :] = np.einsum("ik,...ikc->...ic", w_p, values[..., n:, :][..., idx_p, :])
        return out

    def norm(self, values: np.ndarray):
        """Quadrature L2 norm of samples (..., n_nodes, 4), one per leading index."""
        norm = np.sqrt(np.sum(self.weights * np.sum(np.abs(values) ** 2, axis=-1), axis=-1))
        return norm if norm.ndim else float(norm)


def _grid_rule(p_min: float, p_max: float, n_points: int, deriv_order: int) -> None:
    """The grid rule of ``build_grid``, which ``config`` also applies at load."""
    if not (0.0 < p_min < p_max):
        raise ValueError(f"need 0 < p_min < p_max, got ({p_min}, {p_max})")
    if n_points < 8:
        raise ValueError(f"n_points must be >= 8, got {n_points}")
    if deriv_order not in (2, 4):
        raise ValueError(f"deriv_order must be 2 or 4, got {deriv_order!r}")


def build_grid(p_min: float, p_max: float, n_points: int, deriv_order: int = 4) -> MomentumGrid:
    """Build a symmetric composite Gauss-Legendre grid, n_points per side.

    Each side is split into max(1, min(8, n_points // 4), ceil(n_points / 128))
    equal panels, so a panel holds at most 128 nodes.
    """
    _grid_rule(p_min, p_max, n_points, deriv_order)
    panels = max(1, min(8, n_points // 4), -(-n_points // 128))
    pos, wpos = _gauss_legendre_panels(p_min, p_max, n_points, panels)
    nodes = np.concatenate([-pos[::-1], pos])
    weights = np.concatenate([wpos[::-1], wpos])
    return MomentumGrid(
        p_min=p_min,
        p_max=p_max,
        n_per_side=n_points,
        deriv_order=deriv_order,
        nodes=nodes,
        weights=weights,
    )


@dataclass(eq=False)
class GridSpinorField:
    """A 4-spinor-valued function sampled on a MomentumGrid, or a stack of
    them: ``values`` has shape (..., n_nodes, 4), acted on per member.

    ``deriv_values``, when present, holds closed-form d/dp samples and makes
    every derivative-based operator exact at quadrature level.
    """

    grid: MomentumGrid
    values: np.ndarray
    deriv_values: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape[-2:] != (self.grid.n_nodes, 4):
            raise ValueError(
                f"values must have shape (..., {self.grid.n_nodes}, 4), "
                f"got {self.values.shape}"
            )
        if self.deriv_values is not None:
            self.deriv_values = np.asarray(self.deriv_values, dtype=complex)
            if self.deriv_values.shape != self.values.shape:
                raise ValueError("deriv_values shape must match values")

    def norm(self):
        return self.grid.norm(self.values)

    def normalized(self) -> "GridSpinorField":
        n = np.asarray(self.norm())[..., None, None]
        if np.any(n == 0.0):
            raise ValueError("cannot normalize the zero field")
        dv = None if self.deriv_values is None else self.deriv_values / n
        return GridSpinorField(self.grid, self.values / n, dv)


def apply_hamiltonian(f: GridSpinorField, m: float) -> GridSpinorField:
    """Node-wise H(p) = alpha_1 p + beta m; propagates analytic derivatives."""
    p = f.grid.nodes
    vals = apply_h_values(m, p, f.values)
    dvals = None
    if f.deriv_values is not None:
        # d/dp (H f) = alpha_1 f + H f'
        dvals = f.values[..., ::-1] + apply_h_values(m, p, f.deriv_values)
    return GridSpinorField(f.grid, vals, dvals)


def apply_toa(f: GridSpinorField, m: float) -> GridSpinorField:
    """Time-of-arrival operator T = (1/p) H(p) (-i d/dp) + i beta m/(2 p^2).

    d/dp uses the field's analytic derivative samples when it carries them.
    """
    p = f.grid.nodes
    df = f.deriv_values if f.deriv_values is not None else f.grid.derivative(f.values)
    out = apply_h_values(m, p, -1j * df) / p[:, None]
    out += (1j * m / (2.0 * p * p))[:, None] * (f.values * _BETA_DIAG)
    return GridSpinorField(f.grid, out)


def commutator_residual(f: GridSpinorField, m: float):
    """|| (T H - H T) f + i f || / || f || under the quadrature norm, per member."""
    norm_f = f.norm()
    if np.any(norm_f == 0.0):
        raise ValueError("commutator residual is undefined for the zero field")
    th = apply_toa(apply_hamiltonian(f, m), m)
    ht = apply_hamiltonian(apply_toa(f, m), m)
    resid = th.values - ht.values + 1j * f.values
    return f.grid.norm(resid) / norm_f


def _spectral_data(f: GridSpinorField, m: float):
    """Per-node spectral data of a field: (E_p, W(p), phi, c).

    phi[k] holds the energy spinors phi_{lam s}(p), shape (N, 4), and c[k]
    the branch projections phi_{lam s}^dag psi, shape (N,), for the k-th
    (lam, s) of ``_CHANNELS``; one spinor call broadcasts over all four.
    """
    p = f.grid.nodes
    lam, s = np.array(_CHANNELS).T[:, :, None]
    phi = energy_spinor_values(m, p, lam, s)
    # conj(phi^T conj(psi)): no conjugated copy of the four spinor tables
    c = np.einsum("kjc,jc->kj", phi, np.conj(f.values)).conj()
    return np.hypot(p, m), weight_factor(m, p), phi, c


# ---------------------------------------------------------------------------
# energy representation
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class EnergyGridFunction:
    """Complex function(s) on one spectral branch of (-inf, -m) u (m, +inf).

    ``values`` has shape (n_nodes, n_channels); channels label (side of the
    momentum axis, spin) for transformed fields, or a single test channel.
    Nodes run outward from the gap, node 0 next to +-m.  Weights already
    include the Jacobian |dE/dp|, so plain weighted sums are integrals dE.
    """

    branch: int
    m: float
    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray
    deriv_values: np.ndarray | None = None

    def __post_init__(self):
        if self.branch not in (1, -1):
            raise ValueError("branch must be +1 or -1")
        if np.any(np.abs(self.nodes) <= self.m):
            raise ValueError("energy nodes must satisfy |E| > m")

    def norm_sq(self) -> float:
        dens = np.sum(np.abs(self.values) ** 2, axis=1)
        return float(np.sum(self.weights * dens))


def _induced_energy_axis(grid: MomentumGrid, m: float):
    """(E_p, weights) on the positive momenta, in their order: branch lam
    takes the nodes lam E_p.  Weights are w_p * |dE/dp|; no re-interpolation
    is performed.  The map needs m > 0: at m = 0 the two branches touch at E = 0.
    """
    if m <= 0.0:
        raise ValueError("the energy map requires m > 0")
    ppos = grid.nodes[grid.positive]
    E_p = np.hypot(ppos, m)
    return E_p, grid.weights[grid.positive] * (ppos / E_p)


def to_energy_rep(f: GridSpinorField, m: float):
    """Project onto the energy eigenbasis and map to the spectral branches.

    Returns a pair (branch +1, branch -1) of EnergyGridFunction with four
    channels (side, s), side = sign(p), in the sign and spin order of
    ``_CHANNELS``.  The map multiplies each projection of the spectral core
    by [E^2/(E^2 - m^2)]^(1/4) and rescales weights by |dE/dp| = |p|/E_p,
    which makes it an exact isometry of the discrete norms.
    """
    grid = f.grid
    n = grid.n_per_side
    E_p, _, _, c = _spectral_data(f, m)
    proj = np.sqrt(E_p / np.abs(grid.nodes)) * c  # [E^2/(E^2-m^2)]^(1/4)
    E_axis, weights = _induced_energy_axis(grid, m)
    # side +1 reads the positive momenta, side -1 the negative ones by |p|
    return tuple(
        EnergyGridFunction(
            branch=lam, m=m, nodes=lam * E_axis, weights=weights,
            values=np.concatenate([b[:, n:], b[:, n - 1 :: -1]]).T,
        )
        for lam, b in ((1, proj[:2]), (-1, proj[2:]))
    )


def energy_function_on_branch(
    grid: MomentumGrid, m: float, branch: int, fn, dfn=None
) -> EnergyGridFunction:
    """Single-channel test function g(E) on the induced axis of ``branch``."""
    E_p, weights = _induced_energy_axis(grid, m)
    nodes = branch * E_p
    vals = np.asarray(fn(nodes), dtype=complex)[:, None]
    dvals = None if dfn is None else np.asarray(dfn(nodes), dtype=complex)[:, None]
    return EnergyGridFunction(
        branch=branch, m=m, nodes=nodes, weights=weights,
        values=vals, deriv_values=dvals,
    )


def _check_boundary(g: EnergyGridFunction, index: int, condition: str):
    """Reject g when |g| at node ``index`` exceeds BC_TOL * max|g|."""
    edge, peak = np.max(np.abs(g.values[index])), np.max(np.abs(g.values))
    if edge > BC_TOL * peak:
        raise ValueError(
            f"boundary condition {condition} violated: |g| = {edge:.3e} at "
            f"E = {g.nodes[index]:.6g}, allowed "
            f"{BC_TOL:.0e} * max|g| = {BC_TOL * peak:.3e}"
        )


def apply_toa_energy(g: EnergyGridFunction) -> EnergyGridFunction:
    """-i d/dE on one spectral branch, from the field's closed-form ``deriv_values``.

    Rejects a field that breaks the symmetric-domain boundary condition
    g(+-m) = 0 at node 0, next to the gap, then one without ``deriv_values``.
    """
    _check_boundary(g, 0, f"g({g.branch:+d}m) = 0")
    if g.deriv_values is None:
        raise ValueError("no closed-form d/dE: pass dfn to energy_function_on_branch")
    return EnergyGridFunction(
        branch=g.branch, m=g.m, nodes=g.nodes, weights=g.weights, values=-1j * g.deriv_values,
    )


def energy_inner_product(g1: EnergyGridFunction, g2: EnergyGridFunction) -> complex:
    if g1.branch != g2.branch or not np.array_equal(g1.nodes, g2.nodes):
        raise ValueError("energy functions live on different branches or axes")
    return complex(np.sum(g1.weights * np.sum(np.conj(g1.values) * g2.values, axis=1)))


def symmetry_defect(g: EnergyGridFunction) -> complex:
    """<g|T g> - <T g|g>; vanishes when g satisfies the boundary condition.

    Integrating by parts leaves -i |g|^2 at both ends of the truncated
    axis, so g must also vanish at its far node -1, under the same BC_TOL
    gate as node 0.
    """
    _check_boundary(g, -1, "g = 0 at the truncated end of the axis")
    tg = apply_toa_energy(g)
    return energy_inner_product(g, tg) - energy_inner_product(tg, g)


def energy_measure_identity(grid: MomentumGrid, m: float, h):
    """Both sides of the spectral measure identity dE = p dp / E_p.

    Left: sum_lam int h(lam E_p) (p/E_p) dp over the positive momenta of the
    grid.  Right: int h(E) dE over the image interval on both spectral
    branches, by an independent 256-node, 8-panel Gauss-Legendre rule in the
    E variable.  The image starts at E(p_min), which is the energy face of
    the excluded neighborhood of p = 0.  Returns (left, right).
    """
    E_p, weights = _induced_energy_axis(grid, m)
    left = float(np.sum(weights * (h(E_p) + h(-E_p))))
    e_min = float(np.hypot(grid.p_min, m))
    e_max = float(np.hypot(grid.p_max, m))
    xe, we = _gauss_legendre_panels(e_min, e_max, 256, 8)
    right = float(np.sum(we * (h(xe) + h(-xe))))
    return left, right
