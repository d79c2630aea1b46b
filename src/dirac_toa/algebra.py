"""Closed-form spinor and matrix constructions for a free Dirac particle in 1D.

Everything here works in natural units (hbar = c = 1) and in the frame where
the momentum points along the x-axis, so the 4-momentum is (E, p, 0, 0) and
the Hamiltonian reduces to H(p) = alpha_1 p + beta m.  Helicity then means the
eigenvalue of sigma_1, and the two-component spinors eta_s are chosen as the
sigma_1 eigenvectors (1, +-1)/sqrt(2).

Spinor families provided:

* ``energy_spinor_values`` -- phi_{lambda s}(p), the plane-wave spinor of the
  energy branch lambda = +-1 (E = lambda * sqrt(p^2 + m^2)); lambda = +1 is
  the conventional particle spinor u(p, s).
* ``event_spinor_values``  -- xi_{b s}(x), the event-space analogue with the
  substitution p -> x, m -> tau, lambda E_p -> b t_x, t_x = sqrt(x^2 + tau^2).
* ``w_spinor_values``      -- the conventional antiparticle spinor w.
* ``nr_limit_spinor``      -- the nonrelativistic limits zeta_{+-s}.

The energy and event spinors share one layout, (N eta_s ; N c sigma_1 eta_s),
and one rule for (N, N c): a half-angle rotation in the (lambda m, |p|) plane,
so each derivative is the layout of the quarter-turned pair.  The event spinor
is the energy spinor at the dual labels (p, m, lambda) = (x, tau, b), with a
mass that may be negative.
``weight_factor`` is the eigenfunction weight W(p) = [p^2/(p^2 + m^2)]^{1/4},
and the event weight [x^2/(x^2 + tau^2)]^{1/4} at the same labels.  All
functions are pure and broadcast over every argument (mass or x, momentum or
proper time, sign, spin), so one call evaluates a whole lattice of labels.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "SIGMA1",
    "DiracBasis",
    "dirac_basis",
    "helicity_spinor",
    "energy_spinor_values",
    "energy_spinor_derivative",
    "event_spinor_values",
    "event_spinor_tau_derivative",
    "w_spinor_values",
    "nr_limit_spinor",
    "weight_factor",
    "weight_factor_derivative_ratio",
    "apply_h_values",
    "clifford_max_residual",
]

_METRIC = np.diag([1.0, -1.0, -1.0, -1.0])

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_BETA_DIAG = np.array([1.0, 1.0, -1.0, -1.0])


class DiracBasis(NamedTuple):
    """Dirac matrices in the standard (Dirac) representation.

    gamma^mu gamma^nu + gamma^nu gamma^mu = 2 g^{mu nu} with
    g = diag(1, -1, -1, -1); alpha_i = beta gamma^i, beta = gamma^0.
    """

    gamma: tuple
    alpha: tuple
    beta: np.ndarray
    Sigma1: np.ndarray


def dirac_basis() -> DiracBasis:
    """Build the standard-representation Dirac matrices."""
    z2 = np.zeros((2, 2), dtype=complex)
    i2 = np.eye(2, dtype=complex)
    beta = np.block([[i2, z2], [z2, -i2]])
    gammas = [beta]
    for sig in (SIGMA1, _SIGMA2, _SIGMA3):
        gammas.append(np.block([[z2, sig], [-sig, z2]]))
    alphas = tuple(beta @ g for g in gammas[1:])
    Sigma1 = np.block([[SIGMA1, z2], [z2, SIGMA1]])
    return DiracBasis(
        gamma=tuple(gammas),
        alpha=alphas,
        beta=beta,
        Sigma1=Sigma1,
    )


def clifford_max_residual() -> float:
    """Max deviation over the 16 anticommutator identities
    gamma^mu gamma^nu + gamma^nu gamma^mu - 2 g^{mu nu} I, in one product."""
    g = np.array(dirac_basis().gamma)
    gg = g[:, None] @ g[None, :]
    acomm = gg + gg.transpose(1, 0, 2, 3)
    return float(np.max(np.abs(acomm - 2.0 * _METRIC[:, :, None, None] * np.eye(4))))


def helicity_spinor(s) -> np.ndarray:
    """Two-component helicity spinor eta_s with sigma_1 eta_s = 2s eta_s.

    s must be +1/2 or -1/2; broadcasts over s and returns s.shape + (2,).
    The sigma_1 eigenvectors (1, +-1)/sqrt(2) make the plane-wave states
    genuine helicity eigenstates for momentum along x.
    """
    spin = np.asarray(s, dtype=float)
    if not np.all((spin == 0.5) | (spin == -0.5)):
        raise ValueError(f"spin label must be +0.5 or -0.5, got {s!r}")
    return np.stack([np.ones_like(spin), 2.0 * spin], axis=-1).astype(complex) / np.sqrt(2.0)


def _spinor_layout(N, Nc, s) -> np.ndarray:
    """(N eta_s ; N c sigma_1 eta_s), broadcast over N, N c and s; shape (..., 4).

    The one layout of the energy and event spinors, linear in (N, N c).
    """
    e = helicity_spinor(s)
    # sigma_1 swaps the two components of eta_s
    return np.concatenate([N[..., None] * e, Nc[..., None] * e[..., ::-1]], axis=-1)


def _branch_factors(m, p, lam):
    """Half-angle prefactors of the layout, broadcast over m, p and lam.

    Returns (E, N, N c) with E = sqrt(p^2 + m^2): with r = |m|/E,
    A = sqrt(1/2 + r/2) and B = (|p|/E) A/(1 + r), (N, N c) is
    (A, lam sign(p) B) where lam m >= 0 and (B, lam sign(p) A) where lam m < 0,
    from ratios that stay finite wherever E is (B = A at m = 0).  The mass m is
    signed: the event spinor passes its proper time, negative when x p < 0.
    p = 0 and signs other than +-1 are rejected.
    """
    p = np.asarray(p, dtype=float)
    if np.any(p == 0.0):
        raise ValueError("p = 0 is excluded")
    if not np.all(np.abs(lam) == 1):
        raise ValueError(f"sign must be +1 or -1, got {lam}")
    E = np.hypot(p, m)
    r = np.abs(m) / E
    A = np.sqrt(0.5 + 0.5 * r)
    B = np.abs(p) / E * A / (1.0 + r)
    same = lam * m >= 0.0
    return E, np.where(same, A, B), lam * np.sign(p) * np.where(same, B, A)


def energy_spinor_values(m, p, lam, s) -> np.ndarray:
    """phi_{lam s}(p) = sqrt((m + lam E_p)/(2 lam E_p)) (eta_s ; sigma_1 p/(m + lam E_p) eta_s).

    Broadcasts over m, p, lam and s; returns their broadcast shape + (4,).
    Unit norm and H(p) phi = lam E_p phi hold identically.
    """
    if np.any(np.asarray(m) < 0.0):
        raise ValueError("mass must be >= 0")
    _, N, Nc = _branch_factors(m, p, lam)
    return _spinor_layout(N, Nc, s)


def energy_spinor_derivative(m, p, lam, s) -> np.ndarray:
    """Analytic d/dp of the energy spinor, (m/E)/(2E) layout(-N c, N): the half
    angle turns at rate m/(2 E^2) in p, and not at all for m = 0."""
    if np.any(np.asarray(m) < 0.0):
        raise ValueError("mass must be >= 0")
    E, N, Nc = _branch_factors(m, p, lam)
    return (m / E / E / 2.0)[..., None] * _spinor_layout(-Nc, N, s)


def event_spinor_values(x: float, tau, b: int, s: float) -> np.ndarray:
    """xi_{b s}(x) = sqrt((tau + b t_x)/(2 b t_x)) (eta_s ; sigma_1 x/(tau + b t_x) eta_s).

    The energy spinor at the dual labels p = x, m = tau, lam = b, with a
    signed tau.  Broadcasts over x, tau, b and s (the proper-time label may
    vary node to node); x = 0 is rejected.
    """
    _, N, Nc = _branch_factors(tau, x, b)
    return _spinor_layout(N, Nc, s)


def event_spinor_tau_derivative(x: float, tau, b: int, s: float) -> np.ndarray:
    """Analytic d/dtau of the event spinor at fixed x, (x/t_x)/(2 t_x) layout(N c, -N):
    the half angle turns at rate -x/(2 t_x^2) in tau."""
    t_x, N, Nc = _branch_factors(tau, x, b)
    return (x / t_x / t_x / 2.0)[..., None] * _spinor_layout(Nc, -N, s)


def w_spinor_values(m, p, s) -> np.ndarray:
    """w(p, s) = sqrt((m + E_p)/(2 E_p)) (sigma_1 p/(m + E_p) eta_s ; eta_s).

    The lam = +1 energy spinor with its two blocks swapped; broadcasts like
    it.  Satisfies w(p, s) = Sigma_1 (p/|p|) phi_{-1, s}(-p) with
    Sigma_1 = diag(sigma_1, sigma_1).
    """
    if np.any(np.asarray(m) <= 0.0):
        raise ValueError("u/w spinors require m > 0")
    return energy_spinor_values(m, p, 1, s)[..., [2, 3, 0, 1]]


def nr_limit_spinor(lam: int, s: float) -> np.ndarray:
    """Nonrelativistic limit zeta_{+s} = (eta_s ; 0), zeta_{-s} = (0 ; eta_s)."""
    if lam not in (1, -1):
        raise ValueError(f"branch sign must be +1 or -1, got {lam}")
    e = helicity_spinor(s)
    z = np.zeros_like(e)
    return np.concatenate([e, z] if lam == 1 else [z, e])


def weight_factor(m, p) -> np.ndarray:
    """W(p) = [p^2 / (p^2 + m^2)]^{1/4}."""
    p = np.asarray(p, dtype=float)
    E = np.hypot(p, m)
    return np.sqrt(np.abs(p) / E)


def weight_factor_derivative_ratio(m, p) -> np.ndarray:
    """W'(p) / W(p) = m^2 / (2 p E_p^2)."""
    p = np.asarray(p, dtype=float)
    E = np.hypot(p, m)
    return m * m / (2.0 * p * E * E)


def apply_h_values(m, p, values) -> np.ndarray:
    """(alpha_1 p + beta m) values, node-wise; values shape (..., 4), with
    m and p broadcasting against its leading axes.

    alpha_1 reverses the component order for this representation
    (alpha_1 psi)_i = psi_{3-i}, and beta multiplies by diag(1, 1, -1, -1).
    """
    p = np.asarray(p, dtype=float)
    values = np.asarray(values)
    m = np.asarray(m, dtype=float)
    return p[..., None] * values[..., ::-1] + m[..., None] * values * _BETA_DIAG
