"""Wave-packet construction, evolution, arrival distributions, flux oracle."""
import tracemalloc

import mpmath
import numpy as np
import pytest

from dirac_toa import algebra, arrival, eigenfunctions, grids
from dirac_toa.eigenfunctions import _fold, _lattice_overlaps
from dirac_toa.grids import _CHANNELS, _spectral_data

CLASSICAL_PEAK = 10.0 * np.sqrt(5.0) / 2.0  # -x0 E0/p0 for m=1, p0=2, x0=-10
WINDOW = (-20.0, 43.0)
N_T = 1261
SQRT2PI = np.sqrt(2.0 * np.pi)


@pytest.fixture(scope="module")
def grid512():
    return grids.build_grid(1e-3, 10.0, 512, 4)


@pytest.fixture(scope="module")
def benchmark_packet(grid512):
    spec = arrival.PacketSpec(m=1.0, x0=-10.0, p0=2.0, sigma_p=0.1)
    return arrival.build_packet(spec, grid512)


@pytest.fixture(scope="module")
def two_branch_packet(grid512):
    # complex c_minus so the conjugated lam = -1 block is exercised
    c = 1.0 / np.sqrt(2.0)
    spec = arrival.PacketSpec(m=1.0, x0=-10.0, p0=2.0, sigma_p=0.3, c_plus=c, c_minus=1j * c)
    return arrival.build_packet(spec, grid512)


def _current(psi0):
    """J = psi^dag alpha_1 psi for spinor rows psi0 (alpha_1 reverses components)."""
    return 2.0 * np.real(
        np.conj(psi0[..., 0]) * psi0[..., 3] + np.conj(psi0[..., 1]) * psi0[..., 2]
    )


def _loop_amplitudes_and_flux(f, m, ts):
    """Reference: one exp matrix per (lam, s) channel and one matvec per column."""
    p, w = f.grid.nodes, f.grid.weights
    E = np.hypot(p, m)
    W = np.sqrt(np.abs(p) / E)
    amps, psi0 = {}, np.zeros((len(ts), 4), dtype=complex)
    for lam in (1, -1):
        for s in (0.5, -0.5):
            spin = algebra.energy_spinor_values(m, p, lam, s)
            c = np.einsum("jc,jc->j", np.conj(spin), f.values)
            phase = np.exp(1j * np.outer(ts, -lam * E))
            amps[(lam, s)] = phase @ (w * W * c / SQRT2PI)
            for comp in range(4):
                psi0[:, comp] += phase @ (w * spin[:, comp] * c / SQRT2PI)
    return amps, _current(psi0)


def _loop_resynthesis(f, m, ts):
    """Reference: separate down and up exp matrices per branch."""
    p, w = f.grid.nodes, f.grid.weights
    E = np.hypot(p, m)
    W = np.sqrt(np.abs(p) / E)
    dt = ts[1] - ts[0]
    rec = np.zeros_like(f.values)
    for lam in (1, -1):
        down = np.exp(-1j * lam * np.outer(ts, E))
        up = np.exp(1j * lam * np.outer(E, ts))
        for s in (0.5, -0.5):
            spin = algebra.energy_spinor_values(m, p, lam, s)
            c = np.einsum("jc,jc->j", np.conj(spin), f.values)
            coeff = dt * (up @ (down @ (w * W * c / SQRT2PI)))
            rec += 0.5 * (W * coeff)[:, None] * spin / SQRT2PI
    return rec


def _dense_profile(f, m, t, xs):
    """Reference: psi(t, x) by one dense n_x x N exp kernel and one matmul, the
    synthesis ``position_profile`` used before the lattice sums."""
    kernel = np.exp(1j * np.outer(xs, f.grid.nodes)) * f.grid.weights / SQRT2PI
    return kernel @ arrival.evolve(f, m, t).values


def test_packet_spec_validation():
    with pytest.raises(ValueError):
        arrival.PacketSpec(m=1.0, x0=0.0, p0=2.0, sigma_p=-0.1)
    with pytest.raises(ValueError):
        arrival.PacketSpec(m=1.0, x0=0.0, p0=2.0, sigma_p=0.1, c_plus=1.0, c_minus=1.0)
    with pytest.warns(UserWarning, match="3 sigma_p"):
        arrival.PacketSpec(m=1.0, x0=0.0, p0=0.2, sigma_p=0.1)


def test_build_packet_norm_and_coverage(grid512, benchmark_packet):
    assert abs(benchmark_packet.norm() - 1.0) <= 1e-10
    spec = arrival.PacketSpec(m=1.0, x0=0.0, p0=9.9, sigma_p=0.5)
    with pytest.raises(ValueError, match="grid covers"):
        arrival.build_packet(spec, grid512)


def _squared_form_amplitude(p, p0, sigma_p):
    # the earlier formula: sigma_p**2 underflows (1e-300) or overflows (1e197)
    return (2.0 * np.pi * sigma_p**2) ** -0.25 * np.exp(-((p - p0) ** 2) / (4.0 * sigma_p**2))


@pytest.mark.parametrize("sigma_p", [0.1, 0.3])
def test_scaled_gaussian_amplitude_bound(monkeypatch, grid512, sigma_p):
    # stated bound of the scaled form: max |delta| <= 1e-14 max |.| for the
    # packet and for Pi_total (measured: 6e-16 relative on arrival.csv)
    c = 1.0 / np.sqrt(2.0)
    spec = arrival.PacketSpec(m=1.0, x0=-10.0, p0=2.0, sigma_p=sigma_p, c_plus=c, c_minus=1j * c)

    def run():
        f = arrival.build_packet(spec, grid512)
        return f.values, arrival.arrival_distribution(f, 1.0, WINDOW, N_T).Pi_total

    vals, pi = run()
    monkeypatch.setattr(arrival, "_gaussian_amplitude", _squared_form_amplitude)
    ref_vals, ref_pi = run()
    assert np.max(np.abs(vals - ref_vals)) <= 1e-14 * np.max(np.abs(ref_vals))
    assert np.max(np.abs(pi - ref_pi)) <= 1e-14 * np.max(ref_pi)


@pytest.mark.parametrize("sigma_p, p0", [(1e-300, 0.5), (1e197, 1e199)])
def test_gaussian_amplitude_finite_at_extreme_widths(sigma_p, p0):
    p = p0 * np.linspace(0.5, 1.5, 5)
    with np.errstate(over="ignore"):
        g = arrival._gaussian_amplitude(p, p0, sigma_p)
    assert np.all(np.isfinite(g)) and g[2] > 0.0


def test_packet_energy_expectation(grid512):
    # quadrature oracle: <H> must reproduce the Gaussian-weighted branch energy
    m, p0, sigma = 1.0, 2.0, 0.1
    p = grid512.nodes
    E = np.hypot(p, m)
    g2 = np.abs(
        (2 * np.pi * sigma**2) ** -0.25 * np.exp(-((p - p0) ** 2) / (4 * sigma**2))
    ) ** 2
    g2 = g2 / np.sum(grid512.weights * g2)
    expect_plus = float(np.sum(grid512.weights * g2 * E))

    for c_plus, c_minus, sign in ((1.0, 0.0, 1.0), (0.0, 1.0, -1.0)):
        spec = arrival.PacketSpec(m=m, x0=-10.0, p0=p0, sigma_p=sigma, c_plus=c_plus, c_minus=c_minus)
        f = arrival.build_packet(spec, grid512)
        hf = grids.apply_hamiltonian(f, m)
        e_mean = np.sum(grid512.weights * np.sum(np.conj(f.values) * hf.values, axis=1)).real
        assert abs(e_mean - sign * expect_plus) <= 1e-9
        assert sign * e_mean > m


def test_mixed_packet_norm(grid512):
    c = 1.0 / np.sqrt(2.0)
    spec = arrival.PacketSpec(m=1.0, x0=-10.0, p0=2.0, sigma_p=0.1, c_plus=c, c_minus=c)
    f = arrival.build_packet(spec, grid512)
    assert abs(f.norm() - 1.0) <= 1e-10
    # branch orthogonality: the branches are orthogonal node by node, so the
    # mixed packet is c (f_+ + f_-) of the unit single-branch packets
    f_pos, f_neg = (
        arrival.build_packet(arrival.PacketSpec(m=1.0, x0=-10.0, p0=2.0, sigma_p=0.1,
                                                c_plus=cp, c_minus=cm), grid512)
        for cp, cm in ((1.0, 0.0), (0.0, 1.0))
    )
    assert abs(np.sum(grid512.weights * np.sum(np.conj(f_pos.values) * f_neg.values, axis=1))) <= 1e-15
    assert np.max(np.abs(f.values - c * (f_pos.values + f_neg.values))) <= 1e-12


def test_evolve_identity_and_unitarity(grid512, benchmark_packet):
    f0 = arrival.evolve(benchmark_packet, 1.0, 0.0)
    assert np.max(np.abs(f0.values - benchmark_packet.values)) <= 1e-12
    for t in (0.5, 3.0, 20.0):
        ft = arrival.evolve(benchmark_packet, 1.0, t)
        assert abs(ft.norm() - benchmark_packet.norm()) <= 1e-12


def test_group_velocity(grid512):
    m, t = 1.0, 2.0
    spec = arrival.PacketSpec(m=m, x0=-10.0, p0=2.0, sigma_p=0.5)
    f = arrival.build_packet(spec, grid512)
    p = grid512.nodes
    dens = np.sum(np.abs(f.values) ** 2, axis=1)
    v_mean = float(np.sum(grid512.weights * dens * p / np.hypot(p, m)))

    def centroid(time):
        xs, prof = arrival.position_profile(f, m, time, (-16.0, -2.0), 701)
        rho = np.sum(np.abs(prof) ** 2, axis=1)
        return float(np.trapezoid(xs * rho, xs) / np.trapezoid(rho, xs))

    assert abs((centroid(t) - centroid(0.0)) - t * v_mean) <= 1e-2


def test_arrival_distribution_decomposition(grid512):
    c = 1.0 / np.sqrt(2.0)
    spec = arrival.PacketSpec(m=1.0, x0=-10.0, p0=2.0, sigma_p=0.1, c_plus=c, c_minus=c)
    f = arrival.build_packet(spec, grid512)
    dist = arrival.arrival_distribution(f, 1.0, WINDOW, N_T)
    total = dist.Pi_pos + dist.Pi_neg + dist.Pi_interf
    assert np.max(np.abs(dist.Pi_total - total)) <= 1e-12
    assert np.all(dist.Pi_pos >= 0.0) and np.all(dist.Pi_neg >= 0.0)
    assert float(np.trapezoid(dist.Pi_total, dist.t)) == pytest.approx(1.0, abs=1e-12)
    # both branches populated: interference shows up somewhere
    assert np.max(np.abs(dist.Pi_interf)) > 1e-8


def test_interference_vanishes_single_branch(grid512, benchmark_packet):
    dist = arrival.arrival_distribution(benchmark_packet, 1.0, WINDOW, N_T)
    assert np.max(np.abs(dist.Pi_interf)) <= 1e-12
    assert np.max(dist.Pi_neg) <= 1e-12


def test_arrival_peak_benchmark(grid512, benchmark_packet):
    dist = arrival.arrival_distribution(benchmark_packet, 1.0, WINDOW, N_T)
    assert abs(dist.peak_time - CLASSICAL_PEAK) <= 0.5
    assert dist.captured_mass >= 0.99
    assert not dist.warnings


def test_antiparticle_branch_reversed_peak(grid512):
    spec = arrival.PacketSpec(m=1.0, x0=-10.0, p0=2.0, sigma_p=0.1, c_plus=0.0, c_minus=1.0)
    f = arrival.build_packet(spec, grid512)
    dist = arrival.arrival_distribution(f, 1.0, (-43.0, 20.0), N_T)
    assert abs(dist.peak_time - (-CLASSICAL_PEAK)) <= 0.5
    assert dist.peak_time < 0.0


def test_mirror_symmetry(grid512):
    a = arrival.build_packet(arrival.PacketSpec(m=1.0, x0=-10.0, p0=2.0, sigma_p=0.1), grid512)
    b = arrival.build_packet(arrival.PacketSpec(m=1.0, x0=10.0, p0=-2.0, sigma_p=0.1), grid512)
    da = arrival.arrival_distribution(a, 1.0, WINDOW, N_T)
    db = arrival.arrival_distribution(b, 1.0, WINDOW, N_T)
    assert np.max(np.abs(da.Pi_total - db.Pi_total)) <= 1e-12


def test_narrow_window_warning(grid512, benchmark_packet):
    dist = arrival.arrival_distribution(benchmark_packet, 1.0, (10.0, 12.0), 101)
    assert dist.captured_mass < 0.99
    assert dist.warnings


@pytest.mark.parametrize("n_points, warned", [(64, True), (256, False)])
def test_capture_warning_looks_both_ways(n_points, warned):
    # the default config: at 64 points the node sums repeat the arrival inside
    # the window (captured_mass about 1.97), at 256 the grid resolves it
    spec = arrival.PacketSpec(m=1.0, x0=-10.0, p0=2.0, sigma_p=0.1)
    f = arrival.build_packet(spec, grids.build_grid(1e-3, 10.0, n_points, 4))
    dist = arrival.arrival_distribution(f, 1.0, WINDOW, N_T)
    assert (dist.captured_mass > 1.01) == warned
    assert bool(dist.warnings) == warned
    if warned:
        assert "does not resolve the window" in dist.warnings[0]


@pytest.mark.parametrize("m, warned", [(1e1, False), (1e2, False), (1e3, False), (1e4, True), (1e5, True),
                                       (1e6, True)])
def test_phase_rounding_warning_from_m_1e4(m, warned):
    # nonrel_arrival_l1's packet and grid in the window t* +- 25 m, where the
    # rest-mass phase E t leaves Pi off by 8.3e-8 (m = 1e4) to 6.9e-4 (1e6) of
    # its peak: the kernel's bound 16 eps (max|t| max|E| + N) per unit sum|b|
    # reads 9.2e-8 at m = 1e3 and 9.2e-6 at 1e4, against the warning's 1e-6
    spec = arrival.PacketSpec(m=m, x0=-1.0, p0=1.0, sigma_p=0.1)
    f = arrival.build_packet(spec, grids.build_grid(0.1, 10.0, 512, 4))
    t_star = -spec.x0 * np.hypot(spec.p0, m) / spec.p0
    dist = arrival.arrival_distribution(f, m, (t_star - 25.0 * m, t_star + 25.0 * m), 1601)
    notes = [note for note in dist.warnings if note.startswith("phases E t reach")]
    assert len(notes) == warned, dist.warnings


def test_full_line_mass_mirror_term_at_zero_mass():
    # at m = 0 the mirror term <psi|beta P|psi> of a unit packet is
    # e^{-p0^2/2 sigma_p^2 - 2 sigma_p^2 x0^2}, here e^{-1}; the quadrature
    # misses the gap (-p_min, p_min): 6.1e-7 off at p_min = 1e-6
    with pytest.warns(UserWarning, match="3 sigma_p"):
        spec = arrival.PacketSpec(m=0.0, x0=-1.0, p0=0.5, sigma_p=0.5)
    f = arrival.build_packet(spec, grids.build_grid(1e-6, 4.0, 512, 4))
    dist = arrival.arrival_distribution(f, 0.0, (0.0, 20.0), 201)
    assert abs(dist.normalization / dist.captured_mass - 1.0 - np.exp(-1.0)) <= 1e-6


def _massless_oracle(spec, ts):
    """(A_+, A_-, J) at the samples ts of a ``build_packet`` packet at m = 0,
    in closed form at 20 digits.  W = 1 and the spinors are constant on each
    half-line, so A_lam(t) = c_lam [I_+(x0 + lam t) + I_-(x0 - lam t)] / sqrt(2 pi)
    on the packet's helicity, with the half-line integrals of G e^{-i p a}:
    I_+(a) = (2 pi sigma^2)^{-1/4} sigma sqrt(pi) e^{-i p0 a - sigma^2 a^2} erfc(z),
    z = -p0 / (2 sigma) + i sigma a, and I_- the same with 2 - erfc(z).  U and
    L take the half-angle factors 1/sqrt(2) and lam sign(p)/sqrt(2) on the two
    half-lines, and J = 2 Re(conj(U) L)."""
    with mpmath.workdps(20):
        sig, p0, x0 = (mpmath.mpf(v) for v in (spec.sigma_p, spec.p0, spec.x0))
        scale = (2 * mpmath.pi * sig**2) ** mpmath.mpf(-0.25) * sig * mpmath.sqrt(mpmath.pi)

        def half_line(a, right):
            z = -p0 / (2 * sig) + 1j * sig * a
            erfc = mpmath.erfc(z) if right else 2 - mpmath.erfc(z)
            return scale * mpmath.exp(-1j * p0 * a - sig**2 * a**2) * erfc

        rows = []
        for t in map(mpmath.mpf, ts):
            A, U, L = [], 0, 0
            for lam, c in ((1, spec.c_plus), (-1, spec.c_minus)):
                c = mpmath.mpc(c) / mpmath.sqrt(2 * mpmath.pi)
                right, left = half_line(x0 + lam * t, True), half_line(x0 - lam * t, False)
                A.append(c * (right + left))
                U += c * (right + left) / mpmath.sqrt(2)
                L += c * lam * (right - left) / mpmath.sqrt(2)
            rows.append((complex(A[0]), complex(A[1]), float(2 * mpmath.re(mpmath.conj(U) * L))))
    return [np.array(col) for col in zip(*rows)]


def test_massless_arrival_matches_the_closed_form():
    # the arrival_broad packet at m = 0, where Pi_interf reaches 1.6% of the
    # peak, at 33 strided samples and the peak: the raw Pi_pos, Pi_neg and
    # Pi_interf within 1e-7 of the raw peak (measured 1.8e-9, 4.5e-8 and
    # 2.0e-9; the gap (-p_min, p_min) costs an error first order in p_min),
    # and J within 5e-8 of max|J| (measured 2.3e-8)
    h = 0.5**0.5
    spec = arrival.PacketSpec(m=0.0, x0=-10.0, p0=5.0, sigma_p=1.5, c_plus=h, c_minus=1j * h)
    f = arrival.build_packet(spec, grids.build_grid(1e-6, 20.0, 1024))
    dist = arrival.arrival_distribution(f, 0.0, (-45.0, 45.0), 2501)
    idx = sorted(set(range(0, 2501, 78)) | {int(np.argmax(dist.Pi_total))})
    a_pos, a_neg, J = _massless_oracle(spec, dist.t[idx])
    exact = {
        "Pi_pos": np.abs(a_pos) ** 2,
        "Pi_neg": np.abs(a_neg) ** 2,
        "Pi_interf": 2.0 * np.real(np.conj(a_pos) * a_neg),
    }
    peak = np.max(sum(exact.values()))
    for name, ref in exact.items():
        assert np.max(np.abs(getattr(dist, name)[idx] * dist.normalization - ref)) <= 1e-7 * peak, name
    assert np.max(np.abs(dist.J[idx] - J)) <= 5e-8 * np.max(np.abs(J))


DEFAULT_MASSLESS = arrival.PacketSpec(m=0.0, x0=-10.0, p0=2.0, sigma_p=0.1)


@pytest.mark.parametrize("n_points, bound", [(128, 1e-3), (192, 1e-10), (256, 1e-14)])
def test_default_packet_at_zero_mass_matches_the_closed_form(n_points, bound):
    # the default packet and window at m = 0, at 33 strided samples and the
    # peak: the raw Pi_pos and J within ``bound`` of their peaks (measured
    # 5.9e-4, 3.7e-11 and 2.3e-15 for both; the 128-node error is the grid's
    # own, 8.4e-4 over all 1261 samples, and falls as the nodes resolve the
    # phase e^{-i p x0}); Pi_neg and Pi_interf are exact zeros
    f = arrival.build_packet(DEFAULT_MASSLESS, grids.build_grid(1e-3, 10.0, n_points))
    dist = arrival.arrival_distribution(f, 0.0, WINDOW, N_T)
    idx = sorted(set(range(0, N_T, 39)) | {int(np.argmax(dist.Pi_total))})
    a_pos, _, J = _massless_oracle(DEFAULT_MASSLESS, dist.t[idx])
    ref = np.abs(a_pos) ** 2
    assert np.max(np.abs(dist.Pi_pos[idx] * dist.normalization - ref)) <= bound * np.max(ref)
    assert not np.any(dist.Pi_neg) and not np.any(dist.Pi_interf)
    assert np.max(np.abs(dist.J[idx] - J)) <= bound * np.max(np.abs(J))


def _oracle_peak(spec, column: str, t: float, h: float = 1e-2) -> float:
    """The peak of the closed-form Pi (``column`` "Pi") or J near t: three
    steps to the vertex of the parabola through the samples t - h, t, t + h."""
    for _ in range(3):
        a_pos, _, J = _massless_oracle(spec, [t - h, t, t + h])
        y0, y1, y2 = np.abs(a_pos) ** 2 if column == "Pi" else J
        t += 0.5 * h * (y0 - y2) / (y0 - 2.0 * y1 + y2)
    return t


def test_massless_peak_times_match_the_closed_form_between_samples():
    # on a lattice of dt = 0.05 that samples 9.98 and 10.03 but not the
    # oracle's peak, t = 10 to 3e-14: peak_time and flux_peak_time within
    # 1e-6 (measured 1.8e-7 for both, the parabola's error on this curve);
    # a wrong sign on the parabolic shift reads 9.96, 0.04 off
    f = arrival.build_packet(DEFAULT_MASSLESS, grids.build_grid(1e-3, 10.0, 256))
    dist = arrival.arrival_distribution(f, 0.0, (-19.97, 43.03), N_T)
    assert not np.any(np.isclose(dist.t, 10.0, rtol=0.0, atol=0.01))
    t_sampled = float(dist.t[np.argmax(dist.Pi_total)])
    assert abs(dist.peak_time - _oracle_peak(DEFAULT_MASSLESS, "Pi", t_sampled)) <= 1e-6
    assert abs(arrival.flux_peak_time(dist.t, dist.J) - _oracle_peak(DEFAULT_MASSLESS, "J", t_sampled)) <= 1e-6


@pytest.mark.parametrize("center", [3.37, 7.71])
def test_peak_location_refines_between_samples(center):
    # the parabola through the three samples around the maximum: 4.8e-5 off
    # at 3.37, where the unrefined sample is 0.03 off
    ts = np.linspace(0.0, 10.0, 101)
    ys = np.exp(-0.5 * (ts - center) ** 2)
    assert abs(arrival.peak_location(ts, ys) - center) <= 5e-5


@pytest.mark.parametrize(
    "kernel",
    [arrival.arrival_distribution, arrival.arrival_distribution_nonrel, arrival.flux_at_origin,
     eigenfunctions.resynthesize_time_family],
    ids=["arrival", "arrival_nonrel", "flux", "resynth"],
)
@pytest.mark.parametrize(
    "window, n_t, match",
    [((5.0, 5.0), 11, "empty time window"), ((5.0, 1.0), 11, "empty time window"),
     ((0.0, 20.0), 1, "n_t >= 2"), ((0.0, 20.0), 0, "n_t >= 2"),
     ((-1e308, 1e308), 11, "width t_max - t_min overflows")],
    ids=["empty", "reversed", "one-sample", "no-sample", "overflow"],
)
def test_time_kernels_share_one_window_rule(benchmark_packet, kernel, window, n_t, match):
    # one rule for the arrival kernels and the resynthesis: a window of
    # overflowing width would otherwise return NaN/inf curves with a warning
    with pytest.raises(ValueError, match=match):
        kernel(benchmark_packet, 1.0, window, n_t)


def test_flux_oracle_agreement(grid512, benchmark_packet):
    dist = arrival.arrival_distribution(benchmark_packet, 1.0, WINDOW, N_T)
    ts, J = arrival.flux_at_origin(benchmark_packet, 1.0, WINDOW, N_T)
    flux_peak = arrival.flux_peak_time(ts, J)
    # a forward packet keeps the peak of J itself, bit for bit
    assert flux_peak == arrival.peak_location(ts, J)
    assert abs(flux_peak - CLASSICAL_PEAK) <= 0.5
    assert abs(flux_peak - dist.peak_time) <= 0.5
    assert abs(float(np.trapezoid(J, ts)) - 1.0) <= 1e-2
    # single positive hump for a forward packet
    assert J.max() > 0.0
    assert J.min() >= -1e-6 * J.max()


@pytest.mark.parametrize(
    "humps, peak",
    [
        ([(10.0, 1.0)], 10.0),
        ([(10.0, -1.0)], 10.0),
        ([(10.0, -1.0), (30.0, 1e-3)], 10.0),  # backflow-sized forward current
        ([(-10.0, -1.0), (10.0, 0.99)], 10.0),  # both ways: the forward peak
        ([(-10.0, -1.0), (10.0, 0.4)], -10.0),
    ],
)
def test_flux_peak_time_follows_the_crossing_direction(humps, peak):
    ts = np.linspace(-20.0, 40.0, 601)
    J = sum(a * np.exp(-((ts - t) ** 2)) for t, a in humps)
    assert arrival.flux_peak_time(ts, J) == pytest.approx(peak, abs=1e-3)


def test_flux_noncrossing_packet(grid512):
    # left-mover starting left of the origin; sigma_p = 0.3 keeps the spatial
    # tail at the origin below the tolerance from the start
    spec = arrival.PacketSpec(m=1.0, x0=-10.0, p0=-2.0, sigma_p=0.3)
    f = arrival.build_packet(spec, grid512)
    _, J = arrival.flux_at_origin(f, 1.0, (0.0, 30.0), 301)
    assert np.max(np.abs(J)) <= 1e-6


def test_spectral_core_matches_per_channel_loop(two_branch_packet):
    # the factored lattice phases and one matmul must reproduce the
    # per-channel loops up to rounding of E t and summation order
    f, m = two_branch_packet, 1.0
    ts = np.linspace(*WINDOW, N_T)
    ref_amps, ref_J = _loop_amplitudes_and_flux(f, m, ts)

    E, W, _, c = _spectral_data(f, m)
    b = f.grid.weights * W * c / SQRT2PI
    dt = (WINDOW[1] - WINDOW[0]) / (N_T - 1)
    amps = _lattice_overlaps(E, WINDOW[0], dt, N_T, b.T, 2)
    for k, (lam, s) in enumerate(_CHANNELS):
        core = amps[:, k]
        ref = ref_amps[(lam, s)]
        assert np.max(np.abs(core - ref)) <= 1e-12 * np.max(np.abs(ref))

    _, J = arrival.flux_at_origin(f, m, WINDOW, N_T)
    assert np.max(np.abs(J - ref_J)) <= 1e-12 * np.max(np.abs(ref_J))

    t_lattice = np.arange(-20.0, 20.0 + 1e-9, 0.25)
    rec = eigenfunctions.resynthesize_time_family(f, m, (-20.0, 20.0), len(t_lattice)).values
    ref_rec = _loop_resynthesis(f, m, t_lattice)
    assert np.max(np.abs(rec - ref_rec)) <= 1e-12 * np.max(np.abs(ref_rec))


def test_time_kernels_hold_no_n_t_by_n_array():
    # the arrival_dense benchmark size, n_t = 12001 on N = 512 nodes: the
    # phases are two sqrt(n_t) x N tables, and a single n_t x N complex array
    # would be 4 times the limit; the one arrival pass, which flux_at_origin
    # reads, peaks at 3.5 MB, mostly its 12 output columns; the position
    # profile takes the same sums over an x lattice of the same size
    spec = arrival.PacketSpec(m=1.0, x0=-10.0, p0=2.0, sigma_p=0.1)
    f, n_t = arrival.build_packet(spec, grids.build_grid(1e-3, 10.0, 256, 4)), 12001
    limit = n_t * f.grid.n_nodes * 16 / 4
    kernels = {
        "arrival": lambda: arrival.arrival_distribution(f, 1.0, WINDOW, n_t),
        "flux": lambda: arrival.flux_at_origin(f, 1.0, WINDOW, n_t),
        "profile": lambda: arrival.position_profile(f, 1.0, 5.0, (-30.0, 30.0), n_t),
    }
    for name, run in kernels.items():
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, (name, peak, limit)


def test_flux_kernel_holds_under_two_megabytes():
    # the arrival_broad benchmark config: the one pass, which flux_at_origin
    # reads, drops the (4, N, 4) spinor table and folds its six columns per
    # branch before the kernel call, so neither is held through the kernel:
    # 1.23 MB measured for both; the unfolded columns held through the call
    # gave 1.62 MB, and the separate Pi and J passes 1.22 and 1.58 MB
    spec = arrival.PacketSpec(m=1.0, x0=-10.0, p0=5.0, sigma_p=1.5, c_plus=0.5**0.5, c_minus=0.5**0.5)
    f = arrival.build_packet(spec, grids.build_grid(1e-3, 20.0, 1024, 4))
    for kernel, limit in [(arrival.flux_at_origin, 2.0e6), (arrival.arrival_distribution, 1.35e6)]:
        tracemalloc.start()
        try:
            kernel(f, 1.0, (-45.0, 45.0), 2501)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit, (kernel.__name__, peak)


@pytest.mark.parametrize("s", [0.5, -0.5])
def test_one_helicity_flux_passes_zero_columns(monkeypatch, grid512, s):
    # a build_packet packet has one helicity, so the A, U and L columns of the
    # other are exact zeros, which the lattice kernel skips
    c = 0.5**0.5
    spec = arrival.PacketSpec(m=1.0, x0=-10.0, p0=2.0, sigma_p=0.3, c_plus=c, c_minus=1j * c, s=s)
    f = arrival.build_packet(spec, grid512)
    seen = []

    def spy(E, t0, dt, n_t, B, c):
        seen.append((B, c))
        return _lattice_overlaps(E, t0, dt, n_t, B, c)

    monkeypatch.setattr(arrival, "_lattice_overlaps", spy)
    arrival.flux_at_origin(f, 1.0, WINDOW, 101)
    (B, c), = seen  # the pass's one kernel call, on the folded positive nodes
    # columns [A_{+1/2}, A_{-1/2}, U_{+1/2}, U_{-1/2}, L_{+1/2}, L_{-1/2}] per branch, lam = +1 first
    assert B.shape == (grid512.n_nodes // 2, 12) and c == 6
    live, dead = ([0, 2, 4], [1, 3, 5]) if s == 0.5 else ([1, 3, 5], [0, 2, 4])
    for cols in (B[:, :6], B[:, 6:]):
        assert np.all(cols[:, dead] == 0.0)
        assert np.all(np.any(cols[:, live] != 0.0, axis=0))


def _spinor_flux(f, m, window, n_t):
    """Reference: psi(t, 0) component by component from the same folded
    lattice sums, and J = psi^dag alpha_1 psi of all four components."""
    _, lattice = eigenfunctions._time_lattice(window, n_t)
    E, _, phi, c = _spectral_data(f, m)
    b = f.grid.weights[:, None] * c[:, :, None] * phi / SQRT2PI
    E, B = _fold(f.grid, E, np.hstack([b[0] + b[1], b[2] + b[3]]))
    psi = _lattice_overlaps(E, *lattice, B, 4)
    return _current(psi[:, :4] + psi[:, 4:])


def _random_field(grid, seed):
    """Random node values: both helicities on both branches."""
    rng = np.random.default_rng(seed)
    return grids.GridSpinorField(grid, rng.normal(size=(grid.n_nodes, 4)) + 1j * rng.normal(size=(grid.n_nodes, 4)))


@pytest.mark.parametrize(
    "grid_args, packet, window, n_t",
    [
        # the arrival_dense and arrival_broad benchmark configs
        ((1e-3, 10.0, 256, 4), dict(x0=-10.0, p0=2.0, sigma_p=0.1), (-20.0, 43.0), 12001),
        (
            (1e-3, 20.0, 1024, 4),
            dict(x0=-10.0, p0=5.0, sigma_p=1.5, c_plus=0.5**0.5, c_minus=1j * 0.5**0.5),
            (-45.0, 45.0),
            2501,
        ),
    ],
    ids=["dense", "broad"],
)
def test_helicity_flux_moves_the_benchmark_flux_by_rounding(grid_args, packet, window, n_t):
    # against the four-component current on the same lattice sums, J moved by
    # at most 5.3 eps of max|J| and the flux peak by 3.2e-13
    f = arrival.build_packet(arrival.PacketSpec(m=1.0, **packet), grids.build_grid(*grid_args))
    ts, J = arrival.flux_at_origin(f, 1.0, window, n_t)
    ref = _spinor_flux(f, 1.0, window, n_t)
    assert np.max(np.abs(J - ref)) <= 8.0 * np.finfo(float).eps * np.max(np.abs(ref))
    assert abs(arrival.flux_peak_time(ts, J) - arrival.flux_peak_time(ts, ref)) <= 1e-12


@pytest.mark.parametrize("field, m", [("two_branch", 1.0), ("random", 0.0), ("random", 1.0), ("random", 50.0)])
def test_flux_matches_position_profile_current(two_branch_packet, grid512, field, m):
    # independent path: evolve + spatial synthesis at x = 0, no phase matrix in
    # t; it rounds E t otherwise, by up to 1.6e3 eps of max|J| at m = 50
    f = two_branch_packet if field == "two_branch" else _random_field(grid512, 7)
    window = (0.0, 2.0 * CLASSICAL_PEAK)
    ts, J = arrival.flux_at_origin(f, m, window, 5)
    ref = np.array([_current(_dense_profile(f, m, t, [0.0])[0]) for t in ts])
    assert np.max(np.abs(J - ref)) <= 1e-12 * np.max(np.abs(ref))
    # the helicity cross terms of the four-component current cancel to
    # rounding: against it on the same lattice sums, random fields (40 seeds
    # per mass) moved J by 4.7 eps of max|J| in the median and 15 eps at most
    spinor_ref = _spinor_flux(f, m, window, 5)
    assert np.max(np.abs(J - spinor_ref)) <= 16.0 * np.finfo(float).eps * np.max(np.abs(spinor_ref))


@pytest.mark.parametrize(
    "m, grid_args, packet, t, x_window, n_x",
    [
        (1.0, (1e-3, 10.0, 512, 4),
         dict(x0=-10.0, p0=2.0, sigma_p=0.3, c_plus=0.5**0.5, c_minus=1j * 0.5**0.5),
         3.0, (-20.0, 10.0), 601),
        (0.0, (1e-3, 10.0, 512, 4), dict(x0=-10.0, p0=2.0, sigma_p=0.3), 5.0, (-20.0, 10.0), 601),
        # the arrival_broad benchmark packet
        (1.0, (1e-3, 20.0, 1024, 4),
         dict(x0=-10.0, p0=5.0, sigma_p=1.5, c_plus=0.5**0.5, c_minus=0.5**0.5),
         2.0, (-30.0, 30.0), 1201),
    ],
    ids=["two_branch", "massless", "broad"],
)
def test_position_profile_matches_dense_synthesis(m, grid_args, packet, t, x_window, n_x):
    # the lattice sum against the dense kernel, per spinor component, within the
    # rounding bound of _lattice_phases: 16 eps (max|x| max|p| + N) sum_j |b_j|
    f = arrival.build_packet(arrival.PacketSpec(m=m, **packet), grids.build_grid(*grid_args))
    xs, psi = arrival.position_profile(f, m, t, x_window, n_x)
    assert np.array_equal(xs, np.linspace(*x_window, n_x))
    ref = _dense_profile(f, m, t, xs)
    assert psi.shape == ref.shape == (n_x, 4)
    b = f.grid.weights[:, None] * arrival.evolve(f, m, t).values / SQRT2PI
    scale = np.max(np.abs(xs)) * np.max(np.abs(f.grid.nodes)) + f.grid.n_nodes
    bound = 16.0 * np.finfo(float).eps * scale * np.sum(np.abs(b), axis=0)
    assert np.all(np.max(np.abs(psi - ref), axis=0) <= bound)


@pytest.mark.parametrize(
    "window, n_x, match",
    [((1.0, 1.0), 11, r"empty position window: need x_min < x_max, got \(1.0, 1.0\)"),
     ((0.0, 1.0), 1, "need n_x >= 2 position samples, got 1")],
    ids=["empty", "one-sample"],
)
def test_position_profile_names_its_window(benchmark_packet, window, n_x, match):
    # the window rule of the t lattices, worded for x
    with pytest.raises(ValueError, match=match):
        arrival.position_profile(benchmark_packet, 1.0, 0.0, window, n_x)


def test_nonrelativistic_arrival_agreement():
    # p0/m = 0.01: the two constructions agree in L1 after normalization
    m, p0, sigma, x0 = 100.0, 1.0, 0.1, -1.0
    grid = grids.build_grid(0.1, 10.0, 512, 4)
    spec = arrival.PacketSpec(m=m, x0=x0, p0=p0, sigma_p=sigma)
    f = arrival.build_packet(spec, grid)
    t_star = -x0 * np.hypot(p0, m) / p0
    window = (t_star - 2500.0, t_star + 2500.0)
    rel = arrival.arrival_distribution(f, m, window, 1601)
    non = arrival.arrival_distribution_nonrel(f, m, window, 1601)
    assert arrival.l1_distance(rel, non) <= 0.05
    assert non.captured_mass >= 0.99


@pytest.mark.parametrize(
    "masses",
    [
        pytest.param((1e1, 1e2, 1e3), id="m-1e1-1e3"),
        # the rounding of E t (about 25 m^2 eps) swamps the law: m^2 L1 reads
        # 4.67, 4.1e4 and 3.2e8.  ROADMAP item 2's K phases mend it.
        pytest.param(
            (1e4, 1e5, 1e6), id="m-1e4-1e6",
            marks=pytest.mark.xfail(
                strict=True, raises=AssertionError, reason="ROADMAP item 2: the time phases carry the rest mass"
            ),
        ),
    ],
)
def test_nonrelativistic_arrival_converges_as_one_over_m_squared(masses):
    # the scenario above on the window t* +- 25 m: L1 = C/m^2, measured slope
    # -1.999 and m^2 L1 = 0.4794, 0.4818, 0.4817 at m = 1e1, 1e2, 1e3
    grid = grids.build_grid(0.1, 10.0, 512)
    l1 = []
    for m in masses:
        f = arrival.build_packet(arrival.PacketSpec(m=m, x0=-1.0, p0=1.0, sigma_p=0.1), grid)
        window = (np.hypot(1.0, m) - 25.0 * m, np.hypot(1.0, m) + 25.0 * m)
        rel = arrival.arrival_distribution(f, m, window, 1601)
        l1.append(arrival.l1_distance(rel, arrival.arrival_distribution_nonrel(f, m, window, 1601)))
    assert abs(np.polyfit(np.log(masses), np.log(l1), 1)[0] + 2.0) <= 0.02
    assert np.all(np.abs(np.square(masses) * l1 / 0.4818 - 1.0) <= 0.01)


def test_nonrelativistic_arrival_is_the_positive_branch_of_the_shared_assembly():
    # the scenario above; Pi_total is sum_s |zeta overlap|^2, formed directly
    # on the folded assembly of the relativistic sums (p and -p share p^2 / 2m)
    m, t_star, n_t = 100.0, np.hypot(1.0, 100.0), 1601
    window = (t_star - 2500.0, t_star + 2500.0)
    f = arrival.build_packet(
        arrival.PacketSpec(m=m, x0=-1.0, p0=1.0, sigma_p=0.1), grids.build_grid(0.1, 10.0, 512, 4)
    )
    non = arrival.arrival_distribution_nonrel(f, m, window, n_t)
    p, w = f.grid.nodes, f.grid.weights
    zeta = np.stack([algebra.nr_limit_spinor(1, s) for s in (0.5, -0.5)], axis=1)
    b = (w * np.sqrt(np.abs(p) / m) / SQRT2PI)[:, None] * (f.values @ np.conj(zeta))
    ts, lattice = eigenfunctions._time_lattice(window, n_t)
    E, b = _fold(f.grid, p * p / (2.0 * m), b)
    amp = _lattice_overlaps(E, *lattice, b, 2)
    pi = np.sum(np.abs(amp) ** 2, axis=1)
    assert np.array_equal(non.Pi_total, pi / float(np.trapezoid(pi, ts)))
    assert np.array_equal(non.Pi_pos, non.Pi_total)
    assert not np.any(non.Pi_neg) and not np.any(non.Pi_interf)


def test_l1_distance_mismatched_lattice(grid512, benchmark_packet):
    d1 = arrival.arrival_distribution(benchmark_packet, 1.0, (0.0, 20.0), 101)
    d2 = arrival.arrival_distribution(benchmark_packet, 1.0, (0.0, 20.0), 201)
    with pytest.raises(ValueError):
        arrival.l1_distance(d1, d2)


def _single_gemm_overlaps(E, t0, dt, n_t, B, c):
    """The lattice sums as one product of Q with every block of every column
    side by side, as before the per-column contraction; kept as the reference."""
    Q, S = eigenfunctions._lattice_phases(E, t0, dt, n_t)
    B = np.concatenate([B[:, :c], np.conj(B[:, c:])], axis=1)
    n_b, cols = S.shape[1], B.shape[1]
    Y = (S[:, :, None] * B[:, None, :]).reshape(len(E), n_b * cols)
    R = (Q @ Y).reshape(len(Q), n_b, cols).transpose(1, 0, 2).reshape(-1, cols)[:n_t]
    np.conjugate(R[:, c:], out=R[:, c:])
    return R


@pytest.mark.parametrize(
    "grid_args, packet, window, n_t",
    [
        # the arrival_dense and arrival_broad benchmark configs
        ((1e-3, 10.0, 256, 4), dict(x0=-10.0, p0=2.0, sigma_p=0.1), (-20.0, 43.0), 12001),
        (
            (1e-3, 20.0, 1024, 4),
            dict(x0=-10.0, p0=5.0, sigma_p=1.5, c_plus=0.5**0.5, c_minus=0.5**0.5),
            (-45.0, 45.0),
            2501,
        ),
    ],
    ids=["dense", "broad"],
)
def test_per_column_contraction_matches_single_gemm(monkeypatch, grid_args, packet, window, n_t):
    # the per-column products sum each entry in the same order except where the
    # BLAS tail kernel takes the last K-block; every arrival.csv column then
    # stays within 1e-15 max Pi_total of the single product (measured 1.8e-19)
    f = arrival.build_packet(arrival.PacketSpec(m=1.0, **packet), grids.build_grid(*grid_args))
    dist = arrival.arrival_distribution(f, 1.0, window, n_t)
    _, J = arrival.flux_at_origin(f, 1.0, window, n_t)
    calls = []

    def single_gemm(*args):
        calls.append(args)
        return _single_gemm_overlaps(*args)

    # the name the one pass looks up: a patch that misses it compares the code with itself
    monkeypatch.setattr(arrival, "_lattice_overlaps", single_gemm)
    ref = arrival.arrival_distribution(f, 1.0, window, n_t)
    ref_J = ref.J
    assert len(calls) == 1
    scale = np.max(ref.Pi_total)
    for name in ("Pi_total", "Pi_pos", "Pi_neg", "Pi_interf"):
        assert np.max(np.abs(getattr(dist, name) - getattr(ref, name))) <= 1e-15 * scale, name
    assert np.max(np.abs(J - ref_J)) <= 1e-15 * np.max(np.abs(ref_J))
    assert dist.peak_time == ref.peak_time


def _unfolded_resynthesis(f, m, window, n_t):
    """``resynthesize_time_family`` summed over all 2n nodes, as before the
    fold of p and -p; kept as the reference."""
    _, lattice = eigenfunctions._time_lattice(window, n_t)
    E, W, phi, c = _spectral_data(f, m)
    b = f.grid.weights * W * c / SQRT2PI
    amp = _lattice_overlaps(E, *lattice, b.T, 2)
    coeff = lattice[1] * eigenfunctions._lattice_adjoint(E, *lattice, amp, 2).T
    return 0.5 * np.einsum("kj,kjc->jc", W * coeff, phi) / SQRT2PI


@pytest.mark.parametrize(
    "grid_args, packet, window, n_t",
    [
        (
            (1e-3, 10.0, 256, 4),
            dict(x0=-10.0, p0=2.0, sigma_p=0.3, c_plus=0.5**0.5, c_minus=1j * 0.5**0.5),
            WINDOW,
            N_T,
        ),
        # the arrival_broad benchmark config
        (
            (1e-3, 20.0, 1024, 4),
            dict(x0=-10.0, p0=5.0, sigma_p=1.5, c_plus=0.5**0.5, c_minus=0.5**0.5),
            (-45.0, 45.0),
            2501,
        ),
    ],
    ids=["two-branch", "broad"],
)
def test_folded_sums_match_the_sums_over_every_node(monkeypatch, grid_args, packet, window, n_t):
    # nodes p and -p share E_p, so their coefficients are added before the
    # kernel; against the sums over all 2n nodes every output moves by at most
    # 8 eps of its peak (the nonrelativistic Pi by 16 eps); measured at most
    # 4.6 eps for Pi, 2.5 eps for J, 2.2 eps for the resynthesis and 7.4 eps
    # for the nonrelativistic Pi
    f = arrival.build_packet(arrival.PacketSpec(m=1.0, **packet), grids.build_grid(*grid_args))
    dist = arrival.arrival_distribution(f, 1.0, window, n_t)
    _, J = arrival.flux_at_origin(f, 1.0, window, n_t)
    nonrel = arrival.arrival_distribution_nonrel(f, 1.0, window, n_t)
    rec = eigenfunctions.resynthesize_time_family(f, 1.0, window, n_t).values
    calls = []

    def unfolded(grid, E, B):
        calls.append("fold")
        return E, B

    # the names the one pass and the nonrelativistic sums look up; a patch
    # that misses them would compare the code with itself
    monkeypatch.setattr(arrival, "_fold", unfolded)
    ref = arrival.arrival_distribution(f, 1.0, window, n_t)
    ref_J = ref.J
    ref_nonrel = arrival.arrival_distribution_nonrel(f, 1.0, window, n_t)
    assert calls == ["fold", "fold"]
    ref_rec = _unfolded_resynthesis(f, 1.0, window, n_t)
    eps, peak = np.finfo(float).eps, np.max(ref.Pi_total)
    for name in ("Pi_total", "Pi_pos", "Pi_neg", "Pi_interf"):
        assert np.max(np.abs(getattr(dist, name) - getattr(ref, name))) <= 8.0 * eps * peak, name
    assert np.max(np.abs(J - ref_J)) <= 8.0 * eps * np.max(np.abs(ref_J))
    assert np.max(np.abs(rec - ref_rec)) <= 8.0 * eps * np.max(np.abs(ref_rec))
    peak = np.max(ref_nonrel.Pi_total)
    assert np.max(np.abs(nonrel.Pi_total - ref_nonrel.Pi_total)) <= 16.0 * eps * peak


def test_arrival_kernel_builds_tables_for_the_live_nodes_alone(monkeypatch):
    """On the default grid and packet (the ``arrival_dense`` workload's), 72 of
    the 256 folded nodes, p > 7.29, hold only zero or subnormal coefficients:
    the kernel builds exp tables for the 184 live ones, in blocks of 128 and 56."""
    grid = grids.build_grid(1e-3, 10.0, 256, 4)
    psi = arrival.build_packet(arrival.PacketSpec(m=1.0, x0=-10.0, p0=2.0, sigma_p=0.1), grid)
    phases, built = eigenfunctions._lattice_phases, []

    def counted(E, *lattice):
        built.append(len(E))
        return phases(E, *lattice)

    monkeypatch.setattr(eigenfunctions, "_lattice_phases", counted)
    arrival.arrival_distribution(psi, 1.0, WINDOW, 101)
    assert built == [128, 56]
