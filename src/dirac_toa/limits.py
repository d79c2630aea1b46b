"""Nonrelativistic limits, the dual time-Hamiltonian picture, and
self-adjointness diagnostics.

The arrival operator T = -(alpha_1 x + beta tau) stands to t^2 = x^2 + tau^2
exactly as the Hamiltonian H = alpha_1 p + beta m stands to E^2 = p^2 + m^2.
``dual_solution`` realizes the event-state side of that correspondence:
functions of (E, p) treated as independent variables that satisfy
-i d/dE phi = T phi with T acting as multiplication by t = b sqrt(x^2 + tau^2).

``deficiency_diagnostic`` solves -i dphi/dE = +-i phi on the two spectral
branches (-inf, -m) and (m, +inf), with the integrals of |phi|^2 in closed
form: each sign has a normalizable solution on exactly one branch, so the
deficiency indices come out equal, (1, 1), and self-adjoint extensions
exist.  Whether the extension is unique is left undetermined.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

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

# deficiency classification thresholds on ln(I(4 e_max) / I(e_max))
_LOG_STABLE = (np.log1p(-1e-2), np.log1p(1e-2))
_LOG_BLOWUP = np.log(1e3)


@dataclass(frozen=True)
class LimitReport:
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


def nr_eigen_limit_check(x: float, p: float, m: float):
    """(t_rel, t_non, gap) with t_rel = -x E_p / p and t_non = -x m / p.

    The relative gap satisfies gap/|t_non| = E_p/m - 1 identically.
    """
    if p == 0.0:
        raise ValueError("p = 0 is excluded")
    E = float(np.hypot(p, m))
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


@dataclass(frozen=True)
class DualSolution:
    """Event state phi(E, p) = [x^2/(x^2+tau^2)]^{1/4} xi_{b s}(x) e^{i(t E - x p)} / sqrt(2 pi).

    E and p are independent variables here; the labels satisfy
    t = b t_x = b sqrt(x^2 + tau^2), so t^2 - x^2 = tau^2 exactly.
    """

    x: float
    tau: float
    b: int
    s: float

    @property
    def t_x(self) -> float:
        return float(np.hypot(self.x, self.tau))

    @property
    def t(self) -> float:
        return self.b * self.t_x

    def value(self, E, p) -> np.ndarray:
        E = np.asarray(E, dtype=float)
        p = np.asarray(p, dtype=float)
        phase = np.exp(1j * (self.t * E - self.x * p)) / _SQRT2PI
        weight = float(weight_factor(self.tau, self.x))
        return weight * phase[..., None] * event_spinor_values(self.x, self.tau, self.b, self.s)

    def dvalue_dE(self, E, p) -> np.ndarray:
        """Analytic d/dE: only the phase depends on E."""
        return 1j * self.t * self.value(E, p)


def dual_solution(x: float, b: int, s: float, tau: float) -> DualSolution:
    if b not in (1, -1):
        raise ValueError("sign b must be +1 or -1")
    if abs(x) == 0.0:
        raise ValueError("x = 0 degenerates the event weight")
    return DualSolution(x=x, tau=tau, b=b, s=s)


def dual_residual(ds: DualSolution) -> float:
    """max | -i d/dE phi - t phi | over the unit-step (E, p) lattice
    [-5, 5] x [-3, 3]."""
    EE, PP = np.meshgrid(np.linspace(-5.0, 5.0, 11), np.linspace(-3.0, 3.0, 7), indexing="ij")
    lhs = -1j * ds.dvalue_dE(EE, PP)
    rhs = ds.t * ds.value(EE, PP)
    return float(np.max(np.abs(lhs - rhs)))


@dataclass(frozen=True)
class DeficiencyReport:
    """Normalizability of the deficiency solutions e^{-+E} per branch.

    ``log_integrals`` holds ln of each truncated integral, so that e^{+-2E}
    neither overflows nor underflows at large m; ``equal`` is None unless all are classified.
    """

    m: float
    e_max_values: tuple
    log_integrals: dict
    classifications: dict
    n_plus: int
    n_minus: int

    @property
    def equal(self) -> bool | None:
        if "inconclusive" in self.classifications.values():
            return None
        return self.n_plus == self.n_minus

    def to_dict(self) -> dict:
        return {**asdict(self), "equal": self.equal, "has_self_adjoint_extension": self.equal}


def _log_branch_integral(m: float, e_max: float, sign_exp: float, branch: int) -> float:
    """ln int |e^{sign_exp * E}|^2 dE over (m, e_max) or (-e_max, -m), in closed form.

    With u = |E| - m the integrand is e^{2 k m} e^{2 k u}, k = sign_exp *
    branch = +-1, so with span = e_max - m, ln I = 2 k m + max(2 k span, 0)
    + ln(-expm1(-2 span) / 2), which neither overflows nor cancels at any m.
    """
    k = sign_exp * branch
    span = e_max - m
    return 2.0 * k * m + max(2.0 * k * span, 0.0) + math.log(-math.expm1(-2.0 * span) / 2.0)


def deficiency_diagnostic(m: float, e_max: float) -> DeficiencyReport:
    """Count normalizable solutions of -i dphi/dE = +-i phi per branch.

    The candidate solutions are phi = e^{-+E}.  Each truncated integral is
    evaluated at e_max, 2 e_max and 4 e_max; a branch is classified
    convergent when the sequence stabilizes (total relative change < 1%)
    and divergent when it blows up by orders of magnitude (more than 1e3).
    Both rules are applied to log differences.  n_plus / n_minus count the
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
            seq = tuple(_log_branch_integral(m, e, sign_exp, branch) for e in e_values)
            key = f"{label}/branch{branch:+d}"
            log_integrals[key] = seq
            growth = seq[2] - seq[0]
            # |I_2 - I_0| < 1e-2 I_0  <=>  ln(0.99) < ln(I_2 / I_0) < ln(1.01)
            if _LOG_STABLE[0] < growth < _LOG_STABLE[1]:
                classifications[key] = "convergent"
                counts[label] += 1
            elif growth > _LOG_BLOWUP:
                classifications[key] = "divergent"
            else:
                classifications[key] = "inconclusive"
    return DeficiencyReport(
        m=m,
        e_max_values=e_values,
        log_integrals=log_integrals,
        classifications=classifications,
        n_plus=counts["+i"],
        n_minus=counts["-i"],
    )
