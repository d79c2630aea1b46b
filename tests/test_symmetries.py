"""Exact symmetries of the arrival pass, as properties over random packets.

Each test draws a packet (x0, p0, sigma_p, c+-, s) and a mass
m in {0} u [1e-3, 1e3] with derandomized ``hypothesis``, on a grid of 64
nodes per side that covers p0 +- 6 sigma_p and a window of 201 samples
that holds the classical arrival time, maps the packet by one symmetry
and compares the two arrival passes.  No oracle enters: each relation pins
whole curves at any mass.  Where a relation holds to rounding rather than
bit for bit, its bound is stated from 3,000 or more random draws of the
same kind and is at most 10x the worst measured case.  Charge conjugation
is tested the same way, with C psi built as a field on the mirrored nodes.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirac_toa import algebra, arrival, grids
from dirac_toa.algebra import _BETA_DIAG

EPS = np.finfo(float).eps
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=100)
DRAWS = dict(
    m=st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0**e)),
    p0=st.floats(0.5, 5.0) | st.floats(-5.0, -0.5),
    width=st.floats(0.05, 0.25),  # sigma_p / |p0|: no packet mass near p = 0
    x0=st.floats(-10.0, 10.0),
    theta=st.floats(0.0, math.pi / 2),  # (c+, c-) = (cos theta, sin theta e^{i phi})
    phi=st.floats(0.0, 2.0 * math.pi),
    s=st.sampled_from([0.5, -0.5]),
)
packets = given(**DRAWS)


def _scenario(m, p0, width, x0, theta, phi, s):
    """(spec, grid, window) of one draw."""
    sigma_p = width * abs(p0)
    spec = arrival.PacketSpec(
        m=m, x0=x0, p0=p0, sigma_p=sigma_p,
        c_plus=math.cos(theta), c_minus=math.sin(theta) * complex(math.cos(phi), math.sin(phi)), s=s,
    )
    grid = grids.build_grid(1e-3, abs(p0) + 6.0 * sigma_p + 1.0, 64, 4)
    t_max = 2.0 * abs(x0) * math.hypot(p0, m) / abs(p0) + 20.0
    return spec, grid, (-t_max, t_max)


def _dist(spec, grid, window, f=None):
    f = arrival.build_packet(spec, grid) if f is None else f
    return arrival.arrival_distribution(f, spec.m, window, 201)


@PROPERTY
@packets
def test_parity_keeps_pi_and_reverses_j(**draw):
    # the parity image of a field, beta psi(-p), has the branch projections
    # c(-p) at p: the fold adds the same two coefficients in the other order,
    # and the lower half-angle factor is odd in p, so Pi_total is bit-equal
    # and J flips sign bit for bit
    spec, grid, window = _scenario(**draw)
    f = arrival.build_packet(spec, grid)
    mirror = grids.GridSpinorField(grid, f.values[::-1] * _BETA_DIAG)
    d, dm = _dist(spec, grid, window, f), _dist(spec, grid, window, mirror)
    assert np.array_equal(d.Pi_total, dm.Pi_total)
    assert np.array_equal(d.J, -dm.J)
    # (x0, p0) -> (-x0, -p0) builds that image up to the rounding of its
    # norm, whose node sum runs over the mirrored samples in the other
    # order: measured at most 1.9 eps of max|psi|
    flipped = arrival.build_packet(replace(spec, x0=-spec.x0, p0=-spec.p0), grid)
    assert np.max(np.abs(flipped.values - mirror.values)) <= 4.0 * EPS * np.max(np.abs(f.values))


@PROPERTY
@packets
def test_helicity_flip_keeps_pi_and_j_bit_for_bit(**draw):
    spec, grid, window = _scenario(**draw)
    d, dh = _dist(spec, grid, window), _dist(replace(spec, s=-spec.s), grid, window)
    assert np.array_equal(d.Pi_total, dh.Pi_total)
    assert np.array_equal(d.J, dh.J)


@PROPERTY
@packets
@example(m=1.0, p0=2.0, width=0.1, x0=0.0, theta=math.pi / 4, phi=0.0, s=0.5)  # branches overlap in t
def test_interference_identity_on_raw_curves(**draw):
    # one helicity: I(phi) = 2 Re(conj(a+) e^{i phi} a-) per sample, so
    # I(0)^2 + I(pi/2)^2 = 4 |a+|^2 |a-|^2 = 4 Pi_pos Pi_neg on the raw curves
    # (Pi_* times the normalization); measured at most 2.8 eps of max(raw Pi_total)^2
    spec, grid, window = _scenario(**draw)
    d = _dist(spec, grid, window)
    di = _dist(replace(spec, c_minus=1j * spec.c_minus), grid, window)
    interf, interf_i = d.Pi_interf * d.normalization, di.Pi_interf * di.normalization
    product = 4.0 * (d.Pi_pos * d.normalization) * (d.Pi_neg * d.normalization)
    peak = np.max(d.Pi_total * d.normalization)
    assert np.max(np.abs(interf**2 + interf_i**2 - product)) <= 8.0 * EPS * peak**2


@PROPERTY
@packets
@example(m=0.0, p0=2.0, width=0.1, x0=-5.0, theta=0.0, phi=0.0, s=0.5)
def test_particle_antiparticle_reverses_pi_in_time(**draw):
    # the (0, 1) packet has the lam = +1 projections of the (1, 0) packet on
    # the lam = -1 branch, whose phases e^{+i E t} are the conjugates, so its
    # Pi on the mirrored window is Pi(-t), sample for sample reversed.  The
    # two passes round E t on different lattices (sample i of the mirrored
    # one, -t1 + i dt, against -(t0 + (n_t - 1 - i) dt)), so the bound is
    # C eps max|t| max|E| of the peak; measured at most C = 0.47 over 6,000
    # draws
    spec, grid, window = _scenario(**draw)
    d = _dist(replace(spec, c_plus=1.0, c_minus=0.0), grid, window)
    da = _dist(replace(spec, c_plus=0.0, c_minus=1.0), grid, (-window[1], -window[0]))
    Et = max(map(abs, window)) * math.hypot(grid.p_max, spec.m)
    peak = np.max(d.Pi_total)
    assert np.max(np.abs(da.Pi_total - d.Pi_total[::-1])) <= 2.0 * EPS * Et * peak
    # J(t) -> -J(-t) only at m = 0 (measured at most C = 0.23 of max|J|).  At
    # m > 0 the (0, 1) packet is not the charge conjugate C psi* of the
    # (1, 0) one: the lam = -1 spinors swap the upper and lower half-angle
    # factors sqrt((E + m) / 2E) and sqrt((E - m) / 2E) of the lam = +1 ones,
    # which are equal only at m = 0, so J, the product of the upper and lower
    # sums, is not mirrored (off by 1e-6 of max|J| in the median draw), while
    # Pi, summed over the whole spinor, does not see the swap
    if spec.m == 0.0:
        assert np.max(np.abs(da.J + d.J[::-1])) <= 1.0 * EPS * Et * np.max(np.abs(d.J))


@PROPERTY
@packets
def test_branch_phase_keeps_raw_pi_pos_and_pi_neg(**draw):
    # c- -> i c- multiplies every lam = -1 amplitude by i, so the raw
    # |a+|^2 and |a-|^2 (Pi_* times the normalization) are unchanged up to
    # the rounding of the packet; measured at most 7.4 eps of max(raw Pi_total)
    spec, grid, window = _scenario(**draw)
    d = _dist(spec, grid, window)
    di = _dist(replace(spec, c_minus=1j * spec.c_minus), grid, window)
    peak = np.max(d.Pi_total * d.normalization)
    for name in ("Pi_pos", "Pi_neg"):
        raw, raw_i = getattr(d, name) * d.normalization, getattr(di, name) * di.normalization
        assert np.max(np.abs(raw - raw_i)) <= 32.0 * EPS * peak, name


@PROPERTY
@given(k=st.integers(-60, 60), **DRAWS)
@example(k=-3, m=1.0, p0=2.0, width=0.1, x0=-5.0, theta=0.3, phi=1.0, s=0.5)
def test_scale_covariance(k, **draw):
    # with a = 2^k, m, p0, sigma_p, p_min and p_max times a and x0 and the
    # window over a leave every E t, p x, m / E and p / E as they were, so
    # t a and captured_mass are as before and Pi and J scale as a rate, by a.
    # The packet amplitude carries sigma_p^{-1/2}, a power of 2 only for even
    # k: there every output is bit-equal; at odd k its rounding moves the
    # curves by at most 13.4 eps of the peak of Pi_total, J by 381 eps of
    # max|J| and captured_mass by 3.5 eps of itself (measured over 6,000
    # draws; the t lattice is bit-equal at every k)
    spec, grid, window = _scenario(**draw)
    a = 2.0**k
    scaled = replace(spec, m=spec.m * a, p0=spec.p0 * a, sigma_p=spec.sigma_p * a, x0=spec.x0 / a)
    grid_a = grids.build_grid(1e-3 * a, grid.p_max * a, 64, 4)
    d, da = _dist(spec, grid, window), _dist(scaled, grid_a, (window[0] / a, window[1] / a))
    assert np.array_equal(da.t * a, d.t)
    exact = k % 2 == 0
    assert da.captured_mass == d.captured_mass if exact else (
        abs(da.captured_mass - d.captured_mass) <= 16.0 * EPS * d.captured_mass
    )
    peak = np.max(d.Pi_total)
    for name in ("Pi_total", "Pi_pos", "Pi_neg", "Pi_interf"):
        got, want = getattr(da, name) / a, getattr(d, name)
        assert np.array_equal(got, want) if exact else np.max(np.abs(got - want)) <= 64.0 * EPS * peak, name
    got = da.J / a
    assert np.array_equal(got, d.J) if exact else np.max(np.abs(got - d.J)) <= 2048.0 * EPS * np.max(np.abs(d.J))


# charge conjugation C = i gamma^2 of the Dirac representation: a signed
# permutation, so C conj(.) rounds nothing
C = 1j * algebra.dirac_basis().gamma[2]
one_sided = given(**{**DRAWS, "p0": st.floats(0.5, 5.0), "width": st.floats(0.05, 0.08)})


def _charge_conjugate(f):
    """psi_c(p) = C conj(psi(-p)) on the grid's mirrored nodes."""
    return grids.GridSpinorField(f.grid, np.conj(f.values[::-1]) @ C.T)


@PROPERTY
@given(m=DRAWS["m"], q=st.floats(-3.0, 3.0).map(lambda e: 10.0**e), q_sign=st.sampled_from([1.0, -1.0]),
       lam=st.sampled_from([1, -1]), s=DRAWS["s"])
def test_charge_conjugation_maps_each_spinor_to_the_other_branch(m, q, q_sign, lam, s):
    # C conj(phi_{lam s}(q)) = lam sign(q) phi_{-lam,-s}(-q): the lam = -1
    # spinor takes sign(p) from the positive root of its normalization
    q *= q_sign
    lhs = C @ np.conj(algebra.energy_spinor_values(m, q, lam, s))
    assert np.array_equal(lhs, lam * np.sign(q) * algebra.energy_spinor_values(m, -q, -lam, -s))


@PROPERTY
@packets
def test_charge_conjugation_keeps_j(**draw):
    # J = 2 sum_s Re(conj(U_s) L_s) does not see the sign(q) of the spinor
    # map.  The rounding is on the scale of the density |psi(t, 0)|^2, which
    # is max|J| / v at the group velocity v = |p0| / E(p0): measured at most
    # 20.8 eps of max|J| / v over 6,000 draws
    spec, grid, window = _scenario(**draw)
    f = arrival.build_packet(spec, grid)
    d, dc = _dist(spec, grid, window, f), _dist(spec, grid, window, _charge_conjugate(f))
    slowness = math.hypot(spec.p0, spec.m) / abs(spec.p0)
    assert np.max(np.abs(dc.J - d.J)) <= 64.0 * EPS * slowness * np.max(np.abs(d.J))


def _conjugation_defects(spec, grid, window):
    """max |raw Pi_neg[C psi] - raw Pi_pos[psi]|, the same with pos and neg
    swapped, and max |raw Pi_interf[C psi] + raw Pi_interf[psi]|, over the
    raw peak of Pi_total[psi]."""
    f = arrival.build_packet(spec, grid)
    d, dc = _dist(spec, grid, window, f), _dist(spec, grid, window, _charge_conjugate(f))
    raw = {name: getattr(d, name) * d.normalization for name in ("Pi_total", "Pi_pos", "Pi_neg", "Pi_interf")}
    raw_c = {name: getattr(dc, name) * dc.normalization for name in raw}
    peak = np.max(raw["Pi_total"])
    return [
        np.max(np.abs(raw_c["Pi_neg"] - raw["Pi_pos"])) / peak,
        np.max(np.abs(raw_c["Pi_pos"] - raw["Pi_neg"])) / peak,
        np.max(np.abs(raw_c["Pi_interf"] + raw["Pi_interf"])) / peak,
    ]


@PROPERTY
@one_sided
def test_charge_conjugation_swaps_the_branches_of_a_one_sided_packet(**draw):
    # the time eigenfunctions superpose q and -q at one energy, so the
    # branch amplitudes of C psi are lam conj(sum_q sign(q) W e^{-i lam E t} a_lam(q)):
    # lam conj(A_lam(t)) where psi has no support at p < 0 (p0 >= 12.5 sigma_p).
    # So the raw Pi_pos and Pi_neg swap and the raw Pi_interf changes sign;
    # measured at most 5.8 and 4.0 eps of the raw peak over 6,000 draws
    spec, grid, window = _scenario(**draw)
    swap_neg, swap_pos, interf = _conjugation_defects(spec, grid, window)
    assert max(swap_neg, swap_pos) <= 32.0 * EPS
    assert interf <= 16.0 * EPS


def test_charge_conjugation_sees_the_lam_minus_columns_on_the_lam_plus_phases(monkeypatch):
    # the lam = -1 sums of the kernel taken on the lam = +1 phases e^{-i E t}
    # put Pi_neg[C psi] at -t, against Pi_pos[psi] at +t: off by 1.0 of the peak
    real = arrival._lattice_overlaps
    mutant = lambda E, t0, dt, n_t, B, c: real(E, t0, dt, n_t, B, B.shape[1])
    monkeypatch.setattr(arrival, "_lattice_overlaps", mutant)
    spec, grid, window = _scenario(m=1.0, p0=5.0, width=0.08, x0=-10.0, theta=0.0, phi=0.0, s=0.5)
    assert _conjugation_defects(spec, grid, window)[0] > 0.5


@pytest.mark.parametrize("m", [0.0, 1.0, 7.0])
def test_charge_conjugation_leaves_a_known_gap_where_the_packet_reaches_p_below_0(m):
    # the arrival_broad grid, window and packet (sigma_p = 1.5, p < 0 share
    # 4.3e-4): by C conj(phi_{lam s}(q)) = lam sign(q) phi_{-lam,-s}(-q), C psi
    # takes the p < 0 tail of psi with the other relative sign, so raw
    # Pi_neg[C psi] - Pi_pos[psi] is no rounding: measured 8.8e-4 to 2.0e-3 of
    # the raw peak over m in {0, 1, 7} and these three packets
    h = 0.5**0.5
    c3 = np.array([0.6 + 0.2j, 0.3 - 0.714j]) / math.hypot(0.6, 0.2, 0.3, 0.714)
    grid = grids.build_grid(1e-3, 20.0, 1024, 4)
    for c_plus, c_minus, s in ((1.0, 0.0, 0.5), (h, 1j * h, 0.5), (*c3, -0.5)):
        spec = arrival.PacketSpec(m=m, x0=-10.0, p0=5.0, sigma_p=1.5, c_plus=c_plus, c_minus=c_minus, s=s)
        f = arrival.build_packet(spec, grid)
        d, dc = (arrival.arrival_distribution(g, m, (-45.0, 45.0), 2501) for g in (f, _charge_conjugate(f)))
        gap = np.max(np.abs(dc.Pi_neg * dc.normalization - d.Pi_pos * d.normalization))
        assert 4e-4 <= gap / np.max(d.Pi_total * d.normalization) <= 4e-3


def test_charge_conjugation_sees_pi_neg_taken_from_the_real_part(monkeypatch, edited):
    # Pi_neg = sum_s Re(a-)^2 in place of |a-|^2: the swap Pi_neg[C psi] = Pi_pos[psi]
    # of a one-sided packet is off by 0.996 of the peak
    monkeypatch.setattr(arrival, "_normalized", edited(arrival, "_normalized", "pi_neg = np.sum(np.abs(a_neg)",
                                                         "pi_neg = np.sum(np.real(a_neg)"))
    spec, grid, window = _scenario(m=1.0, p0=5.0, width=0.08, x0=-10.0, theta=0.0, phi=0.0, s=0.5)
    assert _conjugation_defects(spec, grid, window)[0] > 0.5


def test_charge_conjugation_pins_the_sign_of_the_lam_minus_spinor(monkeypatch):
    # -phi_{-1,s} in place of phi_{-1,s}: a packet's branch projections do
    # not change, so no Pi curve sees it, and J moves as under c- -> -c-,
    # which no relation fixes; the spinor map does
    real = algebra._branch_factors

    def flipped(m, p, lam):
        E, N, Nc = real(m, p, lam)
        sign = np.where(np.asarray(lam) < 0, -1.0, 1.0)
        return E, sign * N, sign * Nc

    monkeypatch.setattr(algebra, "_branch_factors", flipped)
    with pytest.raises(AssertionError):
        test_charge_conjugation_maps_each_spinor_to_the_other_branch.hypothesis.inner_test(
            m=1.0, q=2.0, q_sign=1.0, lam=1, s=0.5)
