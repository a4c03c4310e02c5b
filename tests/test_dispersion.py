import numpy as np
import pytest

from kglab.diagnostics import fit_exponential_tail, support_radius
from kglab.dispersion import Mass, omega
from kglab.posfreq import positivity_tail_witness
from kglab.spectral import Field, UniformGrid, make_bump

import oracles
from kglab import dispersion
from kglab.dispersion import omega_multiplier, phase_multiplier


def test_omega_rest_energy():
    assert omega(0.0, Mass(1.0)) == 1.0


def test_omega_pythagorean():
    assert omega(3.0, Mass(4.0)) == 5.0


def test_omega_massless():
    assert omega(2.0, Mass(0.0)) == 2.0


def test_omega_even_and_massless_limit():
    p = np.linspace(-40, 40, 401)
    assert np.array_equal(omega(p, Mass(1.5)), omega(-p, Mass(1.5)))
    assert np.array_equal(omega(p, Mass(0.0)), np.abs(p))


def test_mass_validation():
    with pytest.raises(ValueError):
        Mass(-1.0)
    assert Mass(2.0).compton_wavelength == 0.5
    with pytest.raises(ValueError):
        Mass(0.0).compton_wavelength


@pytest.fixture
def grid():
    return UniformGrid(2048, 1 / 32)


# the omega multiplier is applied by the tail witness Pi = -i omega Phi;
# 1j * Pi undoes the factor -i exactly, and magnitudes are unchanged by it


def apply_omega(f, m):
    return 1j * positivity_tail_witness(f, m).values


def test_cached_spectrum_is_bit_equal_to_transform_every_call(grid):
    b = make_bump(grid, 0.0, 1.0, 1.0)
    m = Mass(1.0)
    assert np.array_equal(apply_omega(b, m), oracles.apply_omega_power_uncached(b, m, 1.0).values)
    # a second call reads the same cached spectrum
    assert np.array_equal(apply_omega(b, m), oracles.apply_omega_power_uncached(b, m, 1.0).values)


def test_single_mode_is_eigenfunction(grid):
    p1 = 2 * np.pi / grid.L
    mode = Field(grid, np.exp(1j * p1 * grid.x))
    m = Mass(1.5)
    out = apply_omega(mode, m)
    assert np.max(np.abs(out - omega(p1, m) * mode.values)) < 1e-11


def test_linearity(grid):
    rng = np.random.default_rng(3)
    f = Field(grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
    g = Field(grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
    m = Mass(1.0)
    a, b = 1.7, -0.4 + 0.2j
    combined = apply_omega(Field(grid, a * f.values + b * g.values), m)
    separate = a * apply_omega(f, m) + b * apply_omega(g, m)
    scale = np.max(np.abs(separate))
    assert np.max(np.abs(combined - separate)) < 1e-12 * scale


def test_nonlocality_witness_support_grows(grid):
    b = make_bump(grid, 0.0, 1.0, 1.0)
    out = positivity_tail_witness(b, Mass(1.0))
    assert support_radius(out, threshold=1e-12) > support_radius(b, threshold=1e-12)


def test_compton_tail_rate_matches_cut_oracle():
    # fitted rate over [4, 9]: the true tail is exp(-m x) x^(-3/2), so the
    # log-linear fit reads the Compton rate plus the algebraic bias
    # 1.5 <1/x>, about +0.256 on this window; both routes must agree
    g = UniformGrid(4096, 1 / 64)
    b = make_bump(g, 0.0, 1.0, 1.0)
    out = positivity_tail_witness(b, Mass(1.0))
    fit = fit_exponential_tail(out, (4.0, 9.0))
    radii = np.linspace(4.0, 9.0, 80)
    oracle_rate, oracle_r2 = oracles.log_linear_rate(radii, oracles.omega_bump_tail(radii, 1.0))
    assert oracle_rate == pytest.approx(1.2562, abs=2e-3)
    assert fit.rate == pytest.approx(oracle_rate, abs=0.01)
    assert fit.r2 > 0.99 and oracle_r2 > 0.99


def test_compton_tail_pointwise_against_cut_oracle():
    g = UniformGrid(8192, 1 / 128)
    b = make_bump(g, 0.0, 1.0, 1.0)
    m = Mass(1.0)
    out = positivity_tail_witness(b, m)
    xs = np.array([4.0, 6.0, 9.0, 12.0])
    oracle = oracles.omega_bump_tail(xs, 1.0)
    for x, ref in zip(xs, oracle):
        j = np.argmin(np.abs(g.x - x))
        assert abs(out.values[j]) == pytest.approx(ref, rel=1e-4)


def test_rate_doubles_with_mass():
    g = UniformGrid(8192, 1 / 128)
    b = make_bump(g, 0.0, 1.0, 1.0)
    fit1 = fit_exponential_tail(positivity_tail_witness(b, Mass(1.0)), (9.0, 16.0))
    fit2 = fit_exponential_tail(positivity_tail_witness(b, Mass(2.0)), (4.0, 9.0))
    assert 1.8 <= fit2.rate / fit1.rate <= 2.2


# every omega multiplier of the package, as fn(omega) at time t
MULTIPLIER_FORMS = {
    "exp(-i w t)": lambda t: lambda w: np.exp(-1j * w * t),
    "cos(w t)": lambda t: lambda w: np.cos(w * t),
    "t sinc(w t / pi)": lambda t: lambda w: t * np.sinc(w * t / np.pi),
    "w sin(w t)": lambda t: lambda w: w * np.sin(w * t),
    "w": lambda t: lambda w: w,
}


@pytest.mark.parametrize("form", sorted(MULTIPLIER_FORMS))
@pytest.mark.parametrize("m", [0.0, 0.7, 1.0, 2.0])
@pytest.mark.parametrize("n, dx", [(16, 0.25), (2048, 0.03), (2**16, 1 / 128), (2**17, 1 / 256)])
def test_half_lattice_multiplier_is_the_full_lattice_one_bit_for_bit(form, m, n, dx):
    # m = 0 puts the sinc at w = 0; the half lattice ends on the Nyquist bin
    grid = UniformGrid(n, dx)
    mass = Mass(m)
    for t in (1e-3, 0.1, 1.7, -0.3):
        fn = MULTIPLIER_FORMS[form](t)
        full = np.asarray(fn(omega(grid.p, mass)))
        mirrored = omega_multiplier(grid, mass, fn)
        assert mirrored.dtype == full.dtype and mirrored.shape == (n,)
        assert np.array_equal(mirrored.view(np.uint64), full.view(np.uint64)), t


@pytest.mark.parametrize("m", [0.0, 1.0])
@pytest.mark.parametrize("n, dx", [(16, 0.25), (2**16, 1 / 128)])
def test_phase_multiplier_is_the_full_lattice_exp_and_cos_bit_for_bit(m, n, dx):
    # at t = 0 (and on the massless zero mode) exp(-1j w t) has imaginary part +0.0, not -0.0
    grid, mass = UniformGrid(n, dx), Mass(m)
    for t in (0.0, -0.0, 1e-3, 0.1, 1.7, -0.3, 1e6):
        w = omega(grid.p, mass)
        for real, full in ((False, np.exp(-1j * w * t)), (True, np.cos(w * t).astype(np.complex128))):
            got = phase_multiplier(grid, mass, t, real=real)
            assert got.dtype == np.complex128 and got.shape == (n,)
            assert np.array_equal(got.view(np.uint64), full.view(np.uint64)), (t, real)


def test_half_lattice_ends_on_the_nyquist_bin():
    grid = UniformGrid(16, 0.25)
    half = dispersion._half_omega(grid.n, grid.dx, Mass(0.0))
    assert half.shape == (9,) and grid.p[8] < 0 and half[-1] == -grid.p[8] == np.pi / 0.25


def test_cached_omega_is_read_only_and_keyed_on_grid_and_mass():
    # grids no other test uses, so the first call of each key computes it
    grid, wide = UniformGrid(64, 0.1), UniformGrid(128, 0.1)
    first = dispersion._half_omega(64, 0.1, Mass(1.0))
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 0.0
    heavy = dispersion._half_omega(64, 0.1, Mass(2.0))
    assert (first[0], heavy[0]) == (1.0, 2.0)
    assert dispersion._half_omega(128, 0.1, Mass(1.0)).shape == (65,)
    assert dispersion._half_omega(64, 0.1, Mass(1.0)) is first
    for g, m in [(grid, 1.0), (wide, 2.0), (grid, 2.0), (wide, 1.0), (grid, 1.0)]:
        assert np.array_equal(omega_multiplier(g, Mass(m), lambda w: w), omega(g.p, Mass(m)))
