"""Closed-form spinor and matrix constructions for a free Dirac particle in 1D.

Everything here works in natural units (hbar = c = 1) and in the frame where
the momentum points along the x-axis, so the 4-momentum is (E, p, 0, 0) and
the Hamiltonian reduces to H(p) = alpha_1 p + beta m.  Helicity then means the
eigenvalue of sigma_1, and the two-component spinors eta_s are chosen as the
sigma_1 eigenvectors (1, +-1)/sqrt(2).

Spinor families provided:

* ``energy_spinor_values`` -- phi_{lambda s}(p), the plane-wave spinor of the
  energy branch lambda = +-1 (E = lambda * sqrt(p^2 + m^2)).
* ``event_spinor_values``  -- xi_{b s}(x), the event-space analogue with the
  substitution p -> x, m -> tau, lambda E_p -> b t_x, t_x = sqrt(x^2 + tau^2).
* ``u_spinor_values``, ``w_spinor_values`` -- the conventional
  particle/antiparticle pair u, w.
* ``nr_limit_spinor``      -- the nonrelativistic limits zeta_{+-s}.

All functions are pure; the spinor families are vectorized over the
momentum (or proper-time) argument and are what the grid machinery consumes.
"""
from __future__ import annotations

from dataclasses import dataclass

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
    "u_spinor_values",
    "w_spinor_values",
    "nr_limit_spinor",
    "hamiltonian_matrix",
    "apply_h_values",
    "clifford_max_residual",
]

_METRIC = np.diag([1.0, -1.0, -1.0, -1.0])

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_BETA_DIAG = np.array([1.0, 1.0, -1.0, -1.0])


@dataclass(frozen=True)
class DiracBasis:
    """Dirac matrices in the standard (Dirac) representation.

    gamma^mu gamma^nu + gamma^nu gamma^mu = 2 g^{mu nu} with
    g = diag(1, -1, -1, -1); alpha_i = beta gamma^i, beta = gamma^0.
    """

    gamma: tuple
    alpha: tuple
    beta: np.ndarray
    sigma1: np.ndarray
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
        sigma1=SIGMA1.copy(),
        Sigma1=Sigma1,
    )


def clifford_max_residual(basis: DiracBasis | None = None) -> float:
    """Max deviation over the 16 anticommutator identities
    gamma^mu gamma^nu + gamma^nu gamma^mu - 2 g^{mu nu} I."""
    b = basis if basis is not None else dirac_basis()
    worst = 0.0
    eye4 = np.eye(4)
    for mu in range(4):
        for nu in range(4):
            acomm = b.gamma[mu] @ b.gamma[nu] + b.gamma[nu] @ b.gamma[mu]
            worst = max(worst, np.max(np.abs(acomm - 2.0 * _METRIC[mu, nu] * eye4)))
    return float(worst)


def helicity_spinor(s: float) -> np.ndarray:
    """Two-component helicity spinor eta_s with sigma_1 eta_s = 2s eta_s.

    s must be +1/2 or -1/2.  The sigma_1 eigenvectors (1, +-1)/sqrt(2) make
    the plane-wave states genuine helicity eigenstates for momentum along x.
    """
    if s not in (0.5, -0.5):
        raise ValueError(f"spin label must be +0.5 or -0.5, got {s!r}")
    return np.array([1.0, 2.0 * s], dtype=complex) / np.sqrt(2.0)


def _branch_factors(m: float, p: np.ndarray, lam: int):
    """Stable prefactors of the energy spinor.

    Returns (E, N, c) with N = sqrt((m + lam E)/(2 lam E)) and
    c = p/(m + lam E).  On the lam = -1 branch m - E is evaluated as
    -p^2/(E + m) to avoid cancellation for |p| << m.
    """
    E = np.hypot(p, m)
    if m == 0.0:
        N = np.full_like(E, 1.0 / np.sqrt(2.0))
        c = lam * np.sign(p)
        return E, N, c
    if lam == 1:
        D = m + E
    else:
        D = -(p * p) / (E + m)
    N = np.sqrt(D / (2.0 * lam * E))
    c = p / D
    return E, N, c


def energy_spinor_values(m: float, p, lam: int, s: float) -> np.ndarray:
    """phi_{lam s}(p) = sqrt((m + lam E_p)/(2 lam E_p)) (eta_s ; sigma_1 p/(m + lam E_p) eta_s).

    Vectorized over ``p``; returns shape p.shape + (4,).  Unit norm and
    H(p) phi = lam E_p phi hold identically.
    """
    p = np.asarray(p, dtype=float)
    if np.any(p == 0.0):
        raise ValueError("p = 0 is excluded")
    if m < 0.0:
        raise ValueError("mass must be >= 0")
    _, N, c = _branch_factors(m, p, lam)
    e = helicity_spinor(s)
    se = SIGMA1 @ e
    out = np.empty(p.shape + (4,), dtype=complex)
    out[..., :2] = N[..., None] * e
    out[..., 2:] = (N * c)[..., None] * se
    return out


def energy_spinor_derivative(m: float, p, lam: int, s: float) -> np.ndarray:
    """Analytic d/dp of the energy spinor (zero for m = 0 on each half-line)."""
    p = np.asarray(p, dtype=float)
    S = energy_spinor_values(m, p, lam, s)
    if m == 0.0:
        return np.zeros_like(S)
    E = np.hypot(p, m)
    if lam == 1:
        D = m + E
    else:
        D = -(p * p) / (E + m)
    dlnN = -m * p / (2.0 * E * E * D)
    dc = lam * m / (E * D)
    _, N, _ = _branch_factors(m, p, lam)
    se = SIGMA1 @ helicity_spinor(s)
    out = dlnN[..., None] * S
    out[..., 2:] += (N * dc)[..., None] * se
    return out


def _event_factors(x: float, tau, b: int):
    """Stable prefactors of the event spinor: t_x, Ntilde, ctilde and the
    tau-derivative ingredients.  Mirrors ``_branch_factors`` under the
    substitution p -> x, m -> tau, lam E_p -> b t_x."""
    tau = np.asarray(tau, dtype=float)
    t_x = np.hypot(x, tau)
    if np.any(t_x == 0.0):
        raise ValueError("degenerate event: t_x = 0")
    # D = tau + b t_x, with the cancellation-free form when signs oppose
    direct = tau + b * t_x
    stable = b * (x * x) / (t_x + np.abs(tau))
    D = np.where(b * tau >= 0.0, direct, stable)
    N = np.sqrt(D / (2.0 * b * t_x))
    c = x / D
    return t_x, D, N, c


def event_spinor_values(x: float, tau, b: int, s: float) -> np.ndarray:
    """xi_{b s}(x) = sqrt((tau + b t_x)/(2 b t_x)) (eta_s ; sigma_1 x/(tau + b t_x) eta_s).

    Vectorized over ``tau`` (the proper-time label may vary node to node).
    """
    if b not in (1, -1):
        raise ValueError(f"sign b must be +1 or -1, got {b}")
    tau = np.asarray(tau, dtype=float)
    _, _, N, c = _event_factors(x, tau, b)
    e = helicity_spinor(s)
    se = SIGMA1 @ e
    out = np.empty(tau.shape + (4,), dtype=complex)
    out[..., :2] = N[..., None] * e
    out[..., 2:] = (N * c)[..., None] * se
    return out


def event_spinor_tau_derivative(x: float, tau, b: int, s: float) -> np.ndarray:
    """Analytic d/dtau of the event spinor at fixed x."""
    tau = np.asarray(tau, dtype=float)
    t_x, D, N, _ = _event_factors(x, tau, b)
    # b t_x - tau, cancellation-free when b and tau share a sign
    direct = b * t_x - tau
    stable = b * (x * x) / (t_x + np.abs(tau))
    bt_minus_tau = np.where(b * tau <= 0.0, direct, stable)
    dlnN = bt_minus_tau / (2.0 * t_x * t_x)
    dc = -x * b / (t_x * D)
    S = event_spinor_values(x, tau, b, s)
    se = SIGMA1 @ helicity_spinor(s)
    out = dlnN[..., None] * S
    out[..., 2:] += (N * dc)[..., None] * se
    return out


def u_spinor_values(m: float, p, s: float) -> np.ndarray:
    """u(p, s): the positive-branch energy spinor in conventional form."""
    if m <= 0.0:
        raise ValueError("u/w spinors require m > 0")
    return energy_spinor_values(m, p, 1, s)


def w_spinor_values(m: float, p, s: float) -> np.ndarray:
    """w(p, s) = sqrt((m + E_p)/(2 E_p)) (sigma_1 p/(m + E_p) eta_s ; eta_s).

    Satisfies w(p, s) = Sigma_1 (p/|p|) phi_{-1, s}(-p) with
    Sigma_1 = diag(sigma_1, sigma_1).
    """
    if m <= 0.0:
        raise ValueError("u/w spinors require m > 0")
    p = np.asarray(p, dtype=float)
    if np.any(p == 0.0):
        raise ValueError("p = 0 is excluded")
    E = np.hypot(p, m)
    N = np.sqrt((m + E) / (2.0 * E))
    c = p / (m + E)
    e = helicity_spinor(s)
    se = SIGMA1 @ e
    out = np.empty(p.shape + (4,), dtype=complex)
    out[..., :2] = (N * c)[..., None] * se
    out[..., 2:] = N[..., None] * e
    return out


def nr_limit_spinor(lam: int, s: float) -> np.ndarray:
    """Nonrelativistic limit zeta_{+s} = (eta_s ; 0), zeta_{-s} = (0 ; eta_s)."""
    if lam not in (1, -1):
        raise ValueError(f"branch sign must be +1 or -1, got {lam}")
    e = helicity_spinor(s)
    out = np.zeros(4, dtype=complex)
    if lam == 1:
        out[:2] = e
    else:
        out[2:] = e
    return out


def hamiltonian_matrix(m: float, p: float) -> np.ndarray:
    """H(p) = alpha_1 p + beta m as an explicit 4x4 matrix."""
    b = dirac_basis()
    return b.alpha[0] * p + b.beta * m


def apply_h_values(m: float, p, values) -> np.ndarray:
    """(alpha_1 p + beta m) values, node-wise; values shape (..., 4).

    alpha_1 reverses the component order for this representation
    (alpha_1 psi)_i = psi_{3-i}, and beta multiplies by diag(1, 1, -1, -1).
    """
    p = np.asarray(p, dtype=float)
    values = np.asarray(values)
    return p[..., None] * values[..., ::-1] + m * values * _BETA_DIAG
