"""Eigenfunction families of the time-of-arrival operator.

Three closed-form families, each with an analytic d/dp evaluator:

* time-labeled:     phi_{t lam s}(p) = W(p) phi_{lam s}(p) e^{i lam E_p t} / sqrt(2 pi)
  with W(p) = [p^2/(p^2 + m^2)]^{1/4}.  True eigenfunctions: T phi = t phi.
* position-labeled: phi_{x lam s}(p) = W(p) phi_{lam s}(p) e^{-i p x} / sqrt(2 pi).
  Satisfies the pointwise identity (T phi)(p) = [-(lam E_p / p) x] phi(p);
  the factor -x E/p is the classical arrival time, but it varies with p, so
  the family is treated as a node-local identity rather than a fixed-
  eigenvalue family.
* event-labeled:    phi_{x b s}(p) = [x^2/(x^2 + tau^2)]^{1/4} xi_{b s}(x) e^{-i p x} / sqrt(2 pi)
  with the proper-time label evaluated per node, tau(p) = x m / p.  At each
  node it coincides with the position-labeled family under the relabeling
  lam = b * sign(x) * sign(p), and the local factor is -b t_x(p).

Each member is amplitude x spinor x phase: one table per family, (amplitude,
spinor, phase), gives the value, and with (d ln amplitude, d spinor,
d ln phase) appended the d/dp; ``value`` evaluates no derivative.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    energy_spinor_derivative,
    energy_spinor_values,
    event_spinor_tau_derivative,
    event_spinor_values,
    helicity_spinor,
    weight_factor,
    weight_factor_derivative_ratio,
)
from .grids import GridSpinorField, MomentumGrid, _spectral_data

__all__ = [
    "ToaEigenfunction",
    "time_eigenfunction",
    "position_eigenfunction",
    "event_eigenfunction",
    "overlap_matrix",
    "resynthesize_time_family",
]

_SQRT2PI = np.sqrt(2.0 * np.pi)


def _window_rule(lo: float, hi: float, n: int, axis: str = "t") -> None:
    """The window rule of every t or x lattice, which ``config`` also applies at load."""
    word = {"t": "time", "x": "position"}[axis]
    if not hi > lo:
        raise ValueError(f"empty {word} window: need {axis}_min < {axis}_max, got ({lo}, {hi})")
    if not math.isfinite(hi - lo):
        raise ValueError(f"{word} window width {axis}_max - {axis}_min overflows, got ({lo}, {hi})")
    if n < 2:
        raise ValueError(f"need n_{axis} >= 2 {word} samples, got {n}")


def _time_lattice(window: tuple, n: int, axis: str = "t"):
    """The samples np.linspace(lo, hi, n) of a t or x window and their
    lattice (lo, (hi - lo) / (n - 1), n), under ``_window_rule``."""
    lo, hi = map(float, window)
    n = int(n)
    _window_rule(lo, hi, n, axis)
    return np.linspace(lo, hi, n), (lo, (hi - lo) / (n - 1), n)


def _lattice_phases(E: np.ndarray, t0: float, dt: float, n_t: int):
    """The two exp tables of the uniform lattice t_i = t0 + (k K + r) dt.

    With K = ceil(sqrt(n_t)), e^{-i E_j t_i} = Q[r, j] S[j, k] for
    Q = e^{-i E (t0 + r dt)} (K x N) and S = e^{-i E k K dt}
    (N x ceil(n_t / K)): about 2 sqrt(n_t) N exps in place of n_t N, where
    N is the n positive nodes of the grid for a phase even in p
    (``_fold``).  Both energy branches share E_p, so the lam = -1
    phases e^{+i E t} are the conjugates and the same tables serve both.
    The factorization is exact up to the rounding of E t: each sum over L
    terms of coefficients b differs from the direct sum by at most
    16 eps (max|t| max|E| + L) sum|b| (``tests/test_eigenfunctions.py``
    checks it against long double).
    """
    K = math.isqrt(max(n_t - 1, 0)) + 1
    Q = np.outer(t0 + dt * np.arange(K), -1j * E)
    S = np.outer(-1j * E, dt * K * np.arange(-(-n_t // K)))
    return np.exp(Q, out=Q), np.exp(S, out=S)


# nodes per block of the lattice kernels: their working memory is a few
# 128 x sqrt(n_t) tables, whatever the node count
_NODE_BLOCK = 128


def _node_blocks(n: int):
    """Consecutive slices of at most ``_NODE_BLOCK`` nodes covering range(n)."""
    return (slice(j, j + _NODE_BLOCK) for j in range(0, n, _NODE_BLOCK))


def _lattice_overlaps(
    E: np.ndarray, t0: float, dt: float, n_t: int, plus: np.ndarray, minus: np.ndarray
):
    """The lam = +1 and lam = -1 node sums sum_j b_j e^{-i lam E_j t_i} on
    t_i = t0 + i dt, i < n_t, for coefficient columns of shape (N, c) per
    branch; returns two (n_t, c) views of one result.

    The nodes are taken in blocks of ``_NODE_BLOCK``: per block, the two exp
    tables of its energies and, per column b of [plus | conj(minus)], one
    product Q @ (S b) of K x block by block x blocks, added whole into that
    column's contiguous K x blocks accumulator; each accumulator is transposed
    to t order in place at the end, and the lam = -1 columns are conjugated
    back.  Beside the coefficients, a copy of their live rows if a node is
    dead, and the output, the working memory is three block-sized tables and
    one product of a column's size, whatever N and the column count.  The
    cost is about 2 sqrt(n_t) N exps and c n_t N complex multiply-adds for N
    live nodes and c live columns; the arrival sums, whose phases are even in
    p, call it on the n positive nodes that ``_fold`` returns.

    Skip and flush: the subnormal real and imaginary parts of the
    coefficients are set to 0, a node with no value != 0 left in any column
    joins no block, so no tables are built for it, and per block only the
    columns that hold a value != 0 are multiplied.  Skipping an exact
    zero leaves a floating-point sum as it was, and NaN and inf coefficients
    stay live, so each output sample moves by at most 2 N tiny
    (tiny = ``np.finfo(float).tiny``), from the flushed subnormals alone,
    while the gemm takes no subnormal operand.
    """
    K = math.isqrt(max(n_t - 1, 0)) + 1
    n_b, c = -(-n_t // K), plus.shape[1]
    R = np.zeros((c + minus.shape[1], K, n_b), dtype=complex)
    Z = np.empty((K, n_b), dtype=complex)
    tiny = np.finfo(float).tiny
    live = np.zeros(len(E), dtype=bool)
    for b in (plus, minus):  # NaN compares False, so its node stays live
        live |= np.any(~(np.maximum(np.abs(b.real), np.abs(b.imag)) < tiny), axis=1)
    if not live.all():
        E, plus, minus = E[live], plus[live], minus[live]
    for blk in _node_blocks(len(E)):
        B = np.empty((len(R), len(E[blk])), dtype=complex)  # one row per column
        B[:c] = plus[blk].T
        np.conjugate(minus[blk].T, out=B[c:])
        parts = B.view(float)
        flushed = np.abs(parts) < tiny  # zeros and subnormals; NaN compares False
        parts[flushed] = 0.0
        Q, S = _lattice_phases(E[blk], t0, dt, n_t)
        Y = np.empty_like(S)
        for col in np.flatnonzero(~flushed.all(axis=1)).tolist():
            R[col] += np.matmul(Q, np.multiply(S, B[col, :, None], out=Y), out=Z)
        del Q, S, Y  # the next block's tables are built after these are freed
    for acc in R:  # each column to t order in place, through Z
        np.copyto(Z, acc)
        acc.reshape(n_b, K)[...] = Z.T
    np.conjugate(R[c:], out=R[c:])
    R = R.reshape(len(R), -1)[:, :n_t].T
    return R[:, :c], R[:, c:]


def _fold(grid: MomentumGrid, E: np.ndarray, *cols: np.ndarray):
    """(E[positive], *cols folded): ``_lattice_overlaps``'s energies and
    columns on the n positive nodes, for node energies even in p.

    ``build_grid`` mirrors the nodes and weights bit for bit, so E_p (and
    p^2 / 2m) is equal at p and -p and the two nodes share every phase: the
    coefficients of -p are added to those of p, which halves the kernel's exp
    tables and products.  The one added rounding per coefficient is within
    the kernel's bound for the full node count.  A caller that drops the
    unfolded columns before the kernel call does not hold them through it.
    """
    pos, neg = grid.positive, grid.negative
    return (E[pos], *(b[pos] + b[neg][::-1] for b in cols))


def _lattice_adjoint(
    E: np.ndarray, t0: float, dt: float, n_t: int, plus: np.ndarray, minus: np.ndarray
):
    """The adjoint of ``_lattice_overlaps``: (sum_i e^{+i E_j t_i} plus_i,
    sum_i e^{-i E_j t_i} minus_i) for lattice columns of shape (n_t, c) per
    branch; returns two (N, c) views of one result.

    Each column x of [conj(plus) | minus] is zero-padded to whole K-row
    blocks X_k.  Per block of ``_NODE_BLOCK`` nodes and per column,
    Z = Q^T @ [X_0 ... X_{blocks-1}], then sum_k S[:, k] Z[:, k] row by row
    gives the block's output rows; the lam = +1 columns are conjugated back in
    place.  As in the forward sums, the working memory beside the padded
    columns and the output is three block-sized tables, whatever N.
    """
    K = math.isqrt(max(n_t - 1, 0)) + 1
    c = plus.shape[1]
    X = np.zeros((c + minus.shape[1], -(-n_t // K) * K), dtype=complex)
    np.conjugate(plus.T, out=X[:c, :n_t])
    X[c:, :n_t] = minus.T
    X = X.reshape(len(X), -1, K)
    R = np.empty((len(E), len(X)), dtype=complex)
    for blk in _node_blocks(len(E)):
        Q, S = _lattice_phases(E[blk], t0, dt, n_t)
        Z = np.empty_like(S)
        for col, x in enumerate(X):
            np.matmul(Q.T, x.T, out=Z)
            R[blk, col] = np.einsum("jk,jk->j", Z, S)
        del Q, S, Z  # the next block's tables are built after these are freed
    np.conjugate(R[:, :c], out=R[:, :c])
    return R[:, :c], R[:, c:]


@dataclass(frozen=True)
class ToaEigenfunction:
    """One labeled member of an arrival-operator eigenfunction family.

    ``value`` is the vectorized closed form; ``eigenvalue`` returns the
    (possibly p-dependent) local factor the operator multiplies by,
    ``check_resolved`` states whether a grid resolves the label, and
    ``on_grid`` samples value and analytic derivative onto a grid.  The
    labels and m may be arrays that broadcast against p: labels of shape
    (L, 1) make a stack of L members, ``on_grid`` of shape (L, N, 4).
    """

    family: str  # "time" | "position" | "event"
    m: float
    labels: dict

    def _table(self, p: np.ndarray, derivative: bool) -> tuple:
        """(amplitude, spinor, phase) at p and, if ``derivative``, then
        (d ln amplitude, d spinor, d ln phase).

        d/dp is taken along p; for the event family the spinor's proper time
        tau(p) = x m / p carries the chain factor dtau/dp.
        """
        m, L = self.m, self.labels
        if self.family == "time":
            E = np.hypot(p, m)
            phase = np.exp(1j * L["lam"] * E * L["t"]) / _SQRT2PI
        else:
            phase = np.exp(-1j * p * L["x"]) / _SQRT2PI
        if self.family != "event":
            args = (m, p, L["lam"], L["s"])
            table = (weight_factor(m, p), energy_spinor_values(*args), phase)
            if not derivative:
                return table
            dln_phase = 1j * L["lam"] * L["t"] * p / E if self.family == "time" else -1j * L["x"]
            return table + (
                weight_factor_derivative_ratio(m, p), energy_spinor_derivative(*args), dln_phase,
            )
        x, b, s = L["x"], L["b"], L["s"]
        tau = x * m / p
        table = (weight_factor(tau, x), event_spinor_values(x, tau, b, s), phase)
        if not derivative:
            return table
        t_x = np.hypot(x, tau)
        dtau = -x * m / (p * p)
        return table + (
            -tau / (2.0 * t_x * t_x) * dtau,
            dtau[..., None] * event_spinor_tau_derivative(x, tau, b, s),
            -1j * x,
        )

    def value(self, p) -> np.ndarray:
        """amplitude x spinor x phase at p; no derivative is evaluated."""
        amp, spin, phase = self._table(np.asarray(p, dtype=float), False)
        return amp[..., None] * spin * phase[..., None]

    def _closed_form(self, p) -> tuple:
        """(value, d/dp) at p: amplitude x spinor x phase and its product rule."""
        amp, spin, phase, dln_amp, dspin, dln_phase = self._table(np.asarray(p, dtype=float), True)
        value = amp[..., None] * spin * phase[..., None]
        deriv = (dln_amp + dln_phase)[..., None] * value + amp[..., None] * dspin * phase[..., None]
        return value, deriv

    def eigenvalue(self, p):
        """Local arrival-time factor at momentum p (constant for the time family)."""
        p = np.asarray(p, dtype=float)
        L = self.labels
        if self.family == "time":
            return np.broadcast_arrays(np.asarray(L["t"], dtype=float), p)[0]
        E = np.hypot(p, self.m)
        if self.family == "position":
            return -L["x"] * L["lam"] * E / p
        t_x = np.abs(L["x"]) * E / np.abs(p)
        return -L["b"] * t_x

    def check_resolved(self, grid: MomentumGrid) -> None:
        """Raise ``ValueError`` unless ``grid`` resolves the label: the phase
        advance per node gap must stay below pi/2 on each half-line."""
        ppos = grid.nodes[grid.positive]
        if self.family == "time":
            name, label, step = "t", self.labels["t"], np.diff(np.hypot(ppos, self.m))
        else:
            name, label, step = "x", self.labels["x"], np.diff(ppos)
        step_max = float(np.max(step))
        # at a mass so large that E_p is flat on the grid every t is resolved
        limit = np.pi / (2.0 * step_max) if step_max > 0.0 else np.inf
        if abs(label) > limit:
            raise ValueError(
                f"|{name}| = {abs(label):.6g} exceeds the grid resolution limit {limit:.6g}"
            )

    def on_grid(self, grid: MomentumGrid) -> GridSpinorField:
        return GridSpinorField(grid, *self._closed_form(grid.nodes))


def _member(family: str, m: float, label: tuple, sign: tuple, s: float) -> ToaEigenfunction:
    """A family member with labels (t or x, lam or b, s), after the checks
    shared by the three families: m >= 0, the spin label, the sign +-1."""
    if m < 0.0:
        raise ValueError("mass must be >= 0")
    helicity_spinor(s)
    if sign[1] not in (1, -1):
        raise ValueError(f"sign {sign[0]} must be +1 or -1, got {sign[1]!r}")
    return ToaEigenfunction(family, m, {label[0]: float(label[1]), sign[0]: sign[1], "s": s})


def time_eigenfunction(t: float, lam: int, s: float, m: float) -> ToaEigenfunction:
    """Time-labeled eigenfunction; T phi = t phi for any real t."""
    return _member("time", m, ("t", t), ("lam", lam), s)


def position_eigenfunction(x: float, lam: int, s: float, m: float) -> ToaEigenfunction:
    """Position-labeled family; node-local factor -x lam E_p / p."""
    return _member("position", m, ("x", x), ("lam", lam), s)


def event_eigenfunction(x: float, b: int, s: float, m: float) -> ToaEigenfunction:
    """Event-labeled family with per-node proper time tau(p) = x m / p.

    x = 0 is rejected: the event weight and t_x degenerate there.
    """
    if x == 0.0:
        raise ValueError("x = 0 degenerates the event family")
    return _member("event", m, ("x", x), ("b", b), s)


def overlap_matrix(f: ToaEigenfunction, grid: MomentumGrid) -> np.ndarray:
    """Gram matrix, under the grid quadrature, of the L members of ``f``,
    whose labels are of shape (L, 1)."""
    samples = f.value(grid.nodes)
    return np.einsum("j,ajc,bjc->ab", grid.weights, np.conj(samples), samples)


def resynthesize_time_family(f: GridSpinorField, m: float, t_window: tuple, n_t: int) -> GridSpinorField:
    """Project onto time-labeled eigenfunctions on the lattice
    np.linspace(*t_window, n_t) (window rule: ``_time_lattice``) and resum.

    Summing |phi_t><phi_t| dt over all t yields I + beta P, where P is the
    momentum reflection p -> -p: the energies E_p of p and -p coincide, so
    the t-integral cannot separate them.  The factor 1/2 below compensates
    that double counting; states even under beta P are then reproduced
    exactly, while for a general state twice the output equals
    psi + beta P psi (a one-sided packet comes back at half amplitude on
    its own half-line plus a half-amplitude beta-reflected mirror).  The
    same degeneracy lets both sums run on the positive nodes alone: the
    overlaps fold p and -p (``_fold``), and the resum, equal at p and -p,
    is mirrored back.
    """
    _, lattice = _time_lattice(t_window, n_t)
    grid = f.grid
    E, W, phi, c = _spectral_data(f, m)
    b = grid.weights * W * c / _SQRT2PI
    E, plus, minus = _fold(grid, E, b[:2].T, b[2:].T)
    amp_pos, amp_neg = _lattice_overlaps(E, *lattice, plus, minus)  # <phi_t|psi>
    # the resum is the adjoint contraction on the same lattice
    up = np.concatenate(_lattice_adjoint(E, *lattice, amp_pos, amp_neg), axis=1)
    coeff = lattice[1] * np.concatenate([up[::-1], up]).T
    rec = 0.5 * np.einsum("kj,kjc->jc", W * coeff, phi) / _SQRT2PI
    return GridSpinorField(grid, rec)
