"""Nonrelativistic limits, the dual time-Hamiltonian picture, and
self-adjointness diagnostics.

The arrival operator T = -(alpha_1 x + beta tau) stands to t^2 = x^2 + tau^2
exactly as the Hamiltonian H = alpha_1 p + beta m stands to E^2 = p^2 + m^2.
``dual_solution`` realizes the event-state side of that correspondence:
functions of (E, p) treated as independent variables that satisfy
-i d/dE phi = T phi with T acting as multiplication by t = b sqrt(x^2 + tau^2).

``deficiency_diagnostic`` solves -i dphi/dE = +-i phi on the two spectral
branches (-inf, -m) and (m, +inf) and classifies each branch by the limit of
the closed-form integral of |phi|^2 as the cutoff goes to infinity: each sign
has a normalizable solution on exactly one branch at every m > 0, so the
deficiency indices come out equal, (1, 1), and self-adjoint extensions
exist.  Whether the extension is unique is left undetermined.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .algebra import (
    energy_spinor_values, event_spinor_values, nr_limit_spinor, w_spinor_values, weight_factor,
)
from .eigenfunctions import _SQRT2PI, time_eigenfunction
from .grids import build_grid

__all__ = [
    "LimitReport",
    "DualSolution",
    "nr_spinor_errors",
    "nr_spinor_limit_scan",
    "nr_eigen_limit_check",
    "nr_eigenfunction_limit",
    "nr_eigenfunction_limit_scan",
    "dual_solution",
    "dual_residual",
    "DeficiencyReport",
    "deficiency_diagnostic",
]

class LimitReport(NamedTuple):
    """Error-vs-ratio table with the fitted convergence order."""

    ratios: np.ndarray
    errors: np.ndarray
    fitted_order: float


def _fit_order(ratios, errors) -> float:
    """Slope of ln(error) against ln(ratio); NaN unless all errors are > 0 and finite."""
    x = np.log(ratios)
    if np.ptp(x) == 0.0:
        raise ValueError("the order fit needs at least two distinct ratios")
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.log(errors)
    if not np.all(np.isfinite(y)):
        return math.nan
    return float(np.polyfit(x, y, 1)[0])


def nr_spinor_errors(r):
    """(||u - zeta_+||, ||w - zeta_-||) at p = r m, m = 1; leading order r/2.
    Broadcasts over r; hypot norms square no component, so no r underflows."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("ratio must be > 0")
    u_err = np.abs(energy_spinor_values(1.0, r, 1, 0.5) - nr_limit_spinor(1, 0.5))
    w_err = np.abs(w_spinor_values(1.0, r, 0.5) - nr_limit_spinor(-1, 0.5))
    return np.hypot.reduce(u_err, axis=-1), np.hypot.reduce(w_err, axis=-1)


def nr_spinor_limit_scan(ratios) -> tuple:
    """(LimitReport for u, LimitReport for w) over a ratio lattice."""
    ratios = np.asarray(ratios, dtype=float)
    return tuple(LimitReport(ratios, e, _fit_order(ratios, e)) for e in nr_spinor_errors(ratios))


def nr_eigen_limit_check(x, p, m):
    """(t_rel, t_non, gap) with t_rel = -x E_p / p and t_non = -x m / p.

    The relative gap satisfies gap/|t_non| = E_p/m - 1 identically; x, p and m broadcast.
    """
    if np.any(np.asarray(p) == 0.0):
        raise ValueError("p = 0 is excluded")
    E = np.hypot(p, m)
    t_rel = -x * E / p
    t_non = -x * m / p
    return t_rel, t_non, abs(t_rel - t_non)


def nr_eigenfunction_limit(t: float, s: float, m: float, ratio):
    """Gaussian-weighted L2 distance between the rest-phase-stripped
    time-labeled eigenfunction and its nonrelativistic counterpart,
    broadcast over ``ratio`` on one z-grid (a few (ratios, 2048, 4) arrays).

    The relativistic function is multiplied by e^{-i m t} (splitting
    e^{i E t} = e^{i p^2 t / 2m} e^{i m t} in the limit), then compared with
    (p^2/m^2)^{1/4} zeta_s e^{i p^2 t / 2m} / sqrt(2 pi) under a normalized
    Gaussian weight of width sigma_p = ratio * m.  Both depend on p / m and m t
    alone: they are taken at unit mass on q = ratio z, z = p / sigma_p on
    ``build_grid(1e-2, 8, 1024)``, and without their common phase
    e^{i q^2 m t / 2}, so the relativistic one keeps m t (E_q - 1 - q^2/2) =
    -m t (q c)^2 / 2, c = q / (1 + E_q): no phase m t is rounded.  A ratio
    at which that phase is not finite (past about 1.7e153 at m t = 1) is a
    ``ValueError`` naming it, raised before any phase is formed.
    """
    ratio = np.asarray(ratio, dtype=float)
    if np.any(ratio <= 0.0) or m <= 0.0:
        raise ValueError("ratio and m must be > 0")
    grid = build_grid(1e-2, 8.0, 1024)
    z, w = grid.nodes, grid.weights
    with np.errstate(over="ignore", invalid="ignore"):
        q = ratio[..., None] * z
        c = q / (1.0 + np.hypot(q, 1.0))
        theta = -0.5 * m * t * (q * c) ** 2
    bad = ratio[~np.isfinite(theta).all(axis=-1)]
    if bad.size:
        raise ValueError(f"the phase m t (q c)^2 / 2 is not finite at ratio {bad.flat[0]:.6g}")
    f_rel = time_eigenfunction(0.0, 1, s, 1.0).value(q) * np.exp(1j * theta)[..., None]
    f_non = np.sqrt(np.abs(q))[..., None] * nr_limit_spinor(1, s) / _SQRT2PI
    gauss = np.exp(-0.5 * z * z)
    gauss /= np.sum(w * gauss)
    return np.sqrt(np.sum(w * gauss * np.sum(np.abs(f_rel - f_non) ** 2, axis=-1), axis=-1))


def nr_eigenfunction_limit_scan(t: float, s: float, m: float, ratios) -> LimitReport:
    """``nr_eigenfunction_limit`` over the ratios >= 1e-3, or over
    (1e-1, 1e-2, 1e-3) when fewer than two are left; the report holds the
    ratios used.  The window is not numerical (the distance follows
    0.2530 ratio^1.5 down to 1e-12 at m = 1 and 1e5): it is the range the
    ``limits`` eigenfunction table has always covered, while the same ratios
    take the spinor scan lower.  The fallback keeps two ratios for the fit.
    """
    ratios = np.asarray(ratios, dtype=float)
    ratios = ratios[ratios >= 1e-3]
    if len(ratios) < 2:
        ratios = np.asarray([1e-1, 1e-2, 1e-3])
    dists = nr_eigenfunction_limit(t, s, m, ratios)
    return LimitReport(ratios, dists, _fit_order(ratios, dists))


class DualSolution(NamedTuple):
    """Event state phi(E, p) = [x^2/(x^2+tau^2)]^{1/4} xi_{b s}(x) e^{i(t E - x p)} / sqrt(2 pi).

    E and p are independent variables here; the labels satisfy
    t = b t_x = b sqrt(x^2 + tau^2), so t^2 - x^2 = tau^2 exactly.  The labels
    may be arrays; they broadcast against each other and against E and p.
    """

    x: float
    tau: float
    b: int
    s: float

    @property
    def t_x(self):
        return np.hypot(self.x, self.tau)

    @property
    def t(self):
        return self.b * self.t_x

    def value(self, E, p) -> np.ndarray:
        E = np.asarray(E, dtype=float)
        p = np.asarray(p, dtype=float)
        phase = np.exp(1j * (self.t * E - self.x * p)) / _SQRT2PI
        weight = np.asarray(weight_factor(self.tau, self.x))[..., None]
        return weight * phase[..., None] * event_spinor_values(self.x, self.tau, self.b, self.s)

    def dvalue_dE(self, E, p) -> np.ndarray:
        """Analytic d/dE: only the phase depends on E."""
        return 1j * np.asarray(self.t)[..., None] * self.value(E, p)


def dual_solution(x, b, s, tau) -> DualSolution:
    if not np.all(np.abs(b) == 1):
        raise ValueError("sign b must be +1 or -1")
    if np.any(np.asarray(x) == 0):
        raise ValueError("x = 0 degenerates the event weight")
    return DualSolution(x=x, tau=tau, b=b, s=s)


def dual_residual(ds: DualSolution):
    """max | -i d/dE phi - t phi | per label over the unit-step (E, p)
    lattice [-5, 5] x [-3, 3], which runs along a new leading axis."""
    lattice = np.meshgrid(np.linspace(-5.0, 5.0, 11), np.linspace(-3.0, 3.0, 7), indexing="ij")
    EE, PP = (a.reshape(-1, *[1] * np.ndim(ds.t)) for a in lattice)
    lhs = -1j * ds.dvalue_dE(EE, PP)
    rhs = np.asarray(ds.t)[..., None] * ds.value(EE, PP)
    return np.max(np.abs(lhs - rhs), axis=(0, -1))


class DeficiencyReport(NamedTuple):
    """Normalizability of the deficiency solutions e^{-+E} per branch.

    ``classifications`` come from the closed-form integral's limit at an
    infinite cutoff.  ``log_integrals`` holds ln of the integral truncated at
    each of ``e_max_values`` (e_max, 2 e_max, 4 e_max) as numerical evidence,
    in logs so that e^{+-2E} neither overflows nor underflows at large m.
    ``equal`` is a bool.
    """

    m: float
    e_max_values: tuple
    log_integrals: dict
    classifications: dict
    n_plus: int
    n_minus: int

    @property
    def equal(self) -> bool:
        return self.n_plus == self.n_minus

    def to_dict(self) -> dict:
        return {**self._asdict(), "equal": self.equal, "has_self_adjoint_extension": self.equal}


def _log_branch_integral(m: float, e_max: float, sign_exp: float, branch: int) -> float:
    """ln int |e^{sign_exp * E}|^2 dE over (m, e_max) or (-e_max, -m), in closed form.

    With u = |E| - m the integrand is e^{2 k m} e^{2 k u}, k = sign_exp *
    branch = +-1, so with span = e_max - m, ln I = 2 k m + max(2 k span, 0)
    + ln(-expm1(-2 span) / 2), which neither overflows nor cancels at any m.
    At e_max = inf it is +inf for k = +1 and -2 m - ln 2 for k = -1.
    """
    k = sign_exp * branch
    span = e_max - m
    return 2.0 * k * m + max(2.0 * k * span, 0.0) + math.log(-math.expm1(-2.0 * span) / 2.0)


def deficiency_diagnostic(m: float, e_max: float) -> DeficiencyReport:
    """Count normalizable solutions of -i dphi/dE = +-i phi per branch.

    The candidate solutions are phi = e^{-+E}.  A branch is convergent when
    the closed-form integral stays finite as the cutoff goes to infinity,
    which holds exactly on the branch where e^{-+E} decays, at every m > 0;
    it is divergent otherwise.  The integrals truncated at e_max, 2 e_max
    and 4 e_max are reported alongside.  n_plus / n_minus count the
    branches that carry a normalizable solution for the +i / -i equation.
    """
    if m <= 0.0:
        raise ValueError("requires m > 0")
    e_max = float(e_max)
    if e_max <= m:
        raise ValueError("e_max must exceed m")
    if not math.isfinite(4.0 * e_max):
        raise ValueError(f"4 e_max overflows, got e_max = {e_max}")
    e_values = (e_max, 2.0 * e_max, 4.0 * e_max)
    log_integrals = {}
    classifications = {}
    counts = {"+i": 0, "-i": 0}
    # T^dag phi = +i phi  ->  phi = e^{-E};  T^dag phi = -i phi  ->  phi = e^{+E}
    for label, sign_exp in (("+i", -1.0), ("-i", 1.0)):
        for branch in (1, -1):
            key = f"{label}/branch{branch:+d}"
            log_integrals[key] = tuple(_log_branch_integral(m, e, sign_exp, branch) for e in e_values)
            if _log_branch_integral(m, math.inf, sign_exp, branch) < math.inf:
                classifications[key] = "convergent"
                counts[label] += 1
            else:
                classifications[key] = "divergent"
    return DeficiencyReport(m, e_values, log_integrals, classifications, counts["+i"], counts["-i"])
