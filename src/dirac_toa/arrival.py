"""Wave packets, free evolution, and arrival-time distributions at the origin.

A packet is a Gaussian momentum amplitude riding on the energy spinors,

    psi(p) = sum_lam c_lam G(p; p0, sigma_p) e^{-i p x0} phi_{lam s}(p),

free evolution multiplies each branch by e^{-i lam E_p t}, and the arrival
distribution comes from overlaps with the time-labeled eigenfunctions:

    A_{lam s}(t) = <phi_{t lam s} | psi>,
    Pi(t) proportional to sum_s |sum_lam A_{lam s}(t)|^2.

The branches are summed coherently, which is what exposes the interference
between positive- and negative-energy components; the squared moduli of the
branch terms are reported as Pi_pos / Pi_neg and the cross term as
Pi_interf.  The operator itself never singles out a measurement rule, so
this spectral-overlap construction is a modeling choice, cross-checked
against the probability current at the origin (``flux_at_origin``), which is
an independent arrival-time oracle.  In 1D alpha_1 commutes with the
helicity Sigma_1, so the current is diagonal in s: with
psi(t, 0) = sum_s (U_s eta_s ; L_s sigma_1 eta_s),

    J(t) = psi^dag alpha_1 psi = 2 sum_s Re(conj(U_s) L_s),

where U_s and L_s are the node sums of c_{lam s} times the upper and lower
half-angle factors (N, N c) of each branch.  A packet of one helicity has
exact zero projections c_{lam, -s}, so half of J's columns are zero.

Both A_{lam s}(t) and psi(t, 0) are node sums sum_j b_j e^{-i lam E_j t}
over the spectral core of ``grids``, and ``arrival_distribution`` takes both
in one pass: one ``_spectral_data`` call, the six coefficient columns
[A_{+1/2}, A_{-1/2}, U_{+1/2}, U_{-1/2}, L_{+1/2}, L_{-1/2}] per branch,
lam = +1 first, as one block of twelve, and one kernel call, whose exp
tables serve Pi and J; ``flux_at_origin`` reads its J.  The samples form the
uniform lattice np.linspace(t0, t1, n_t), whose one window rule is
``eigenfunctions._window_rule``, shared with ``resynthesize_time_family``.
The kernel, ``eigenfunctions._lattice_overlaps``, takes one coefficient
block whose first c columns are lam = +1 sums and whose others are lam = -1
sums, on the conjugate exp tables; its docstring states the tables, node
blocks and skips that bound its memory and cost.  E_p and p^2 / 2m are even
in p and the grid's nodes are exact mirrors, so the arrival and
nonrelativistic sums add the coefficients of -p to those of p
(``eigenfunctions._fold``) and run on the N / 2 positive nodes.  ``evolve``
needs only the core's per-node spinors and projections.  The nonrelativistic
overlaps are the lam = +1 sums alone (c = 2 of 2 columns) on the energies
p^2 / 2m, and psi(t, x), odd in p, the lam = -1 sums alone (c = 0) over all
N nodes with p_j in place of E_j; ``_normalized`` forms every distribution's
curves from its two branch amplitudes.

Charge conjugation psi_c(p) = C conj(psi(-p)), C = i gamma^2, takes
phi_{lam s}(q) to lam sign(q) phi_{-lam,-s}(-q).  It keeps J, a local
density.  On a packet with no support at p < 0 it swaps the raw Pi_pos and
Pi_neg and negates the raw Pi_interf, which moves the normalization, the
window integral of the raw Pi_total.  With support on both sides of p = 0
no such map holds: Pi sees the relative sign(q) of the q and -q that a time
eigenfunction superposes at one energy.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import _BETA_DIAG, _branch_factors, energy_spinor_values, helicity_spinor, nr_limit_spinor
from .eigenfunctions import _SQRT2PI, _fold, _lattice_overlaps, _time_lattice
from .grids import _CHANNELS, GridSpinorField, MomentumGrid, _spectral_data

__all__ = [
    "PacketSpec",
    "ArrivalDistribution",
    "build_packet",
    "evolve",
    "position_profile",
    "arrival_distribution",
    "arrival_distribution_nonrel",
    "flux_peak_time",
    "l1_distance",
    "peak_location",
]


def peak_location(ts: np.ndarray, ys: np.ndarray) -> float:
    """Argmax of a sampled curve with parabolic sub-sample refinement."""
    i = int(np.argmax(ys))
    if 0 < i < len(ts) - 1:
        y0, y1, y2 = ys[i - 1 : i + 2]
        denom = y0 - 2.0 * y1 + y2
        if denom != 0.0:
            shift = 0.5 * (y0 - y2) / denom
            if abs(shift) <= 1.0:
                return float(ts[i] + shift * (ts[i + 1] - ts[i]))
    return float(ts[i])


@dataclass(frozen=True)
class PacketSpec:
    """Gaussian packet parameters: center x0, mean momentum p0, width sigma_p,
    branch amplitudes (c_plus, c_minus) with |c+|^2 + |c-|^2 = 1, spin s."""

    m: float
    x0: float
    p0: float
    sigma_p: float
    c_plus: complex = 1.0
    c_minus: complex = 0.0
    s: float = 0.5

    def __post_init__(self):
        if self.m < 0.0:
            raise ValueError("mass must be >= 0")
        if self.sigma_p <= 0.0:
            raise ValueError("sigma_p must be > 0")
        a, b = abs(self.c_plus), abs(self.c_minus)
        total = a * a + b * b  # inf past the float range, where ** 2 raises
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"|c+|^2 + |c-|^2 must be 1, got {total}")
        helicity_spinor(self.s)
        if abs(self.p0) <= 3.0 * self.sigma_p:
            warnings.warn(
                "|p0| <= 3 sigma_p: the excluded neighborhood of p = 0 may "
                "carry non-negligible probability mass",
                stacklevel=2,
            )


class ArrivalDistribution(NamedTuple):
    """Sampled arrival-time distribution and its branch decomposition.

    Pi_total = Pi_pos + Pi_neg + Pi_interf pointwise; the total integrates
    to 1 over the window after normalization.  ``captured_mass`` is the raw
    window integral relative to the full-line value.  ``J`` is the raw current
    at the origin on the same samples (``flux_at_origin``), or None for the
    nonrelativistic distribution, which has no current.
    """

    t: np.ndarray
    Pi_total: np.ndarray
    Pi_pos: np.ndarray
    Pi_neg: np.ndarray
    Pi_interf: np.ndarray
    normalization: float
    captured_mass: float
    warnings: tuple = ()
    J: np.ndarray | None = None

    @property
    def peak_time(self) -> float:
        """Location of the maximum of Pi_total (parabolic refinement)."""
        return peak_location(self.t, self.Pi_total)


def _gaussian_amplitude(p, p0: float, sigma_p: float) -> np.ndarray:
    """(2 pi sigma_p^2)^{-1/4} e^{-z^2}, z = (p - p0)/(2 sigma_p), with no sigma_p^2 to over/underflow."""
    z = (p - p0) / (2.0 * sigma_p)
    with np.errstate(over="ignore"):  # z z = inf gives e^{-inf} = 0, the exact value
        return np.exp(-z * z) / np.sqrt(np.sqrt(2.0 * np.pi) * sigma_p)


def build_packet(spec: PacketSpec, grid: MomentumGrid) -> GridSpinorField:
    """Sample the packet on the grid and renormalize to unit quadrature norm."""
    lo, hi = spec.p0 - 6.0 * spec.sigma_p, spec.p0 + 6.0 * spec.sigma_p
    if lo < -grid.p_max or hi > grid.p_max:
        raise ValueError(
            f"grid covers [{-grid.p_max}, {grid.p_max}] but the packet needs "
            f"[{lo:.6g}, {hi:.6g}]"
        )
    p = grid.nodes
    g = _gaussian_amplitude(p, spec.p0, spec.sigma_p) * np.exp(-1j * p * spec.x0)
    vals = np.zeros((grid.n_nodes, 4), dtype=complex)
    for lam, c in ((1, spec.c_plus), (-1, spec.c_minus)):
        if c != 0.0:
            vals += c * g[:, None] * energy_spinor_values(spec.m, p, lam, spec.s)
    f = GridSpinorField(grid, vals)
    if f.norm() == 0.0:
        raise ValueError("the packet has no weight on the grid nodes")
    return f.normalized()


def evolve(f: GridSpinorField, m: float, t) -> GridSpinorField:
    """Free evolution: each branch projection picks up e^{-i lam E_p t}; an
    array of t gives the stack of evolved fields, one member per t."""
    E, _, phi, c = _spectral_data(f, m)
    lam = np.array(_CHANNELS)[:, :1]
    phase = np.exp(-1j * lam * E * np.asarray(t)[..., None, None])
    return GridSpinorField(f.grid, np.einsum("...kj,kjc->...jc", c * phase, phi))


def position_profile(f: GridSpinorField, m: float, t: float, x_window: tuple, n_x: int):
    """(x, psi(t, x)) on x = np.linspace(*x_window, n_x), psi of shape (n_x, 4):
    sum_j w_j psi_j(t) e^{i p_j x} / sqrt(2 pi), the lam = -1 lattice sum."""
    xs, lattice = _time_lattice(x_window, n_x, "x")
    b = f.grid.weights[:, None] * evolve(f, m, t).values / _SQRT2PI
    return xs, _lattice_overlaps(f.grid.nodes, *lattice, b, 0)


def _full_line_mass(weights: np.ndarray, values: np.ndarray, beta: np.ndarray) -> float:
    """<psi|(I + beta P)|psi> under the grid weights, P the momentum reflection:
    the full-line integral of a raw arrival density."""
    direct = np.sum(weights * np.sum(np.conj(values) * values, axis=1))
    mirror = np.sum(weights * np.sum(np.conj(values) * (values[::-1] * beta), axis=1))
    return float(np.real(direct + mirror))


def _normalized(ts: np.ndarray, a_pos: np.ndarray, a_neg: np.ndarray, full: float, J=None) -> ArrivalDistribution:
    """(Pi_total, Pi_pos, Pi_neg, Pi_interf): sum_s |a_pos + a_neg|^2 of the
    (n_t, spin) branch amplitudes and its three parts, divided by the window
    integral of Pi_total, with a warning when it is off its full-line value
    ``full`` by over 1%, and the current ``J`` as it is.  Above 1 the node
    sums, almost periodic in t, repeat the arrival inside a window that the
    momentum grid does not resolve."""
    pi_pos = np.sum(np.abs(a_pos) ** 2, axis=1)
    pi_neg = np.sum(np.abs(a_neg) ** 2, axis=1)
    pi_int = 2.0 * np.sum(np.real(np.conj(a_pos) * a_neg), axis=1)
    curves = (pi_pos + pi_neg + pi_int, pi_pos, pi_neg, pi_int)
    raw = float(np.trapezoid(curves[0], ts))
    if raw <= 0.0:
        raise ValueError("no arrival mass inside the window")
    captured = raw / full if full > 0.0 else 0.0
    notes = []
    if captured < 0.99:
        notes.append(f"time window captures only {captured:.4f} of the arrival mass")
    elif captured > 1.01:
        notes.append(
            f"time window holds {captured:.4f} of the full-line arrival mass: "
            "the momentum grid does not resolve the window"
        )
    return ArrivalDistribution(ts, *(c / raw for c in curves), raw, captured, tuple(notes), J)


def arrival_distribution(
    f: GridSpinorField,
    m: float,
    t_window: tuple,
    n_t: int,
) -> ArrivalDistribution:
    """Arrival-time distribution at the origin from time-family overlaps, and
    the current J at the origin on the same samples, in one pass.

    The window integral of the raw density is compared against the full-line
    value <psi|(I + beta P)|psi> (P the momentum reflection); a warning is
    recorded when the window captures less than 99% or more than 101% of it.
    """
    ts, lattice = _time_lattice(t_window, n_t)
    E, W, phi, c = _spectral_data(f, m)
    del phi  # the (4, N, 4) spinor table: not held through the kernel
    _, N, Nc = _branch_factors(m, f.grid.nodes, np.array([[1], [-1]]))
    b = (f.grid.weights * W * c / _SQRT2PI).reshape(2, 2, -1)  # (lam, s, node)
    a = (f.grid.weights * c / _SQRT2PI).reshape(2, 2, -1)
    cols = np.concatenate([b, a * N[:, None], a * Nc[:, None]], axis=1)
    del W, c, N, Nc, b, a  # only the columns are held into the fold, and only
    E, cols = _fold(f.grid, E, cols.reshape(12, -1).T)  # the folded ones through the kernel
    full = _full_line_mass(f.grid.weights, f.values, _BETA_DIAG)
    sums = _lattice_overlaps(E, *lattice, cols, 6)
    UL = np.add(sums[:, 2:6], sums[:, 8:], out=sums[:, 2:6])  # the kernel's output is ours to reuse
    J = 2.0 * np.vecdot(UL[:, :2], UL[:, 2:]).real  # vecdot conjugates U_s
    return _normalized(ts, sums[:, :2], sums[:, 6:8], full, J)


def arrival_distribution_nonrel(
    f: GridSpinorField,
    m: float,
    t_window: tuple,
    n_t: int,
) -> ArrivalDistribution:
    """Arrival distribution built from the nonrelativistic eigenfunctions.

    Overlaps with (p^2/m^2)^{1/4} zeta_s e^{i p^2 t / 2 m} / sqrt(2 pi); only
    the positive-branch spin structure zeta_{+s} enters, matching the
    nonrelativistic reduction where the branches decouple.  The rest-mass
    phase e^{i m t} drops out of the squared modulus.  The lam = -1 block is
    zero, so Pi_neg and Pi_interf are 0 and Pi_total = Pi_pos.
    """
    if m <= 0.0:
        raise ValueError("nonrelativistic comparison requires m > 0")
    ts, lattice = _time_lattice(t_window, n_t)
    p = f.grid.nodes
    Wn = np.sqrt(np.abs(p) / m)
    zeta = np.stack([nr_limit_spinor(1, s) for s in (0.5, -0.5)], axis=1)
    b = (f.grid.weights * Wn / _SQRT2PI)[:, None] * (f.values @ np.conj(zeta))
    # the upper components, on which beta is +1
    full = _full_line_mass(f.grid.weights, f.values[:, :2], _BETA_DIAG[:2])
    E, b = _fold(f.grid, p * p / (2.0 * m), b)
    amp = _lattice_overlaps(E, *lattice, b, 2)
    return _normalized(ts, amp, np.zeros_like(amp), full)


def flux_at_origin(
    f: GridSpinorField,
    m: float,
    t_window: tuple,
    n_t: int,
):
    """Probability current J(t) = psi^dag(t, 0) alpha_1 psi(t, 0) as (t samples,
    J samples): ``arrival_distribution``'s J, so a window with no arrival mass
    inside raises its ValueError here too.  For a packet that fully crosses the
    origin once, J integrates to +-1 (sign = direction of crossing).  No command
    calls it, so it is not in ``__all__``; it is reached by module name."""
    d = arrival_distribution(f, m, t_window, n_t)
    return d.t, d.J


def flux_peak_time(ts: np.ndarray, J: np.ndarray) -> float:
    """Time of the flux peak in the crossing direction, by ``peak_location``:
    the peak of J, or of -J when max J is below half of max|J|.  A packet
    that crosses leftward (J <= 0) peaks where it crosses; one that crosses
    both ways with comparable peaks keeps its forward (J > 0) one."""
    return peak_location(ts, J if 2.0 * np.max(J) >= np.max(np.abs(J)) else -J)


def l1_distance(a: ArrivalDistribution, b: ArrivalDistribution) -> float:
    """L1 distance of two normalized distributions on identical t samples."""
    if not np.array_equal(a.t, b.t):
        raise ValueError("distributions sampled on different t lattices")
    return float(np.trapezoid(np.abs(a.Pi_total - b.Pi_total), a.t))
