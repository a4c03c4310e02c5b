import numpy as np
import pytest

from kglab import (
    Field,
    UniformGrid,
    complex_momentum_transform,
    forward_transform,
    inverse_transform,
    make_bump,
)
from kglab.spectral import PreconditionError

import oracles


@pytest.fixture
def grid():
    return UniformGrid(1024, 1 / 16)


def test_grid_invariants(grid):
    assert grid.L == grid.n * grid.dx
    assert grid.x[0] == -grid.L / 2
    # every momentum except the Nyquist one has its negative on the grid
    p = grid.p
    nyquist = -np.pi / grid.dx
    others = p[p != nyquist]
    assert set(np.round(-others, 10)).issubset(set(np.round(p, 10)))


@pytest.mark.parametrize("n", [8, 24, 1000])
def test_grid_rejects_bad_sizes(n):
    with pytest.raises(ValueError):
        UniformGrid(n, 0.1)


def test_field_rejects_non_finite_with_index(grid):
    vals = np.ones(grid.n, dtype=complex)
    vals[17] = np.nan
    with pytest.raises(ValueError, match="index 17"):
        Field(grid, vals)


def test_values_are_immutable_and_decoupled(grid):
    # thread-safety contract: values are frozen copies of the input
    source = np.ones(grid.n, dtype=complex)
    f = Field(grid, source)
    source[0] = 5.0
    assert f.values[0] == 1.0
    with pytest.raises(ValueError):
        f.values[0] = 2.0
    assert not grid.x.flags.writeable and not grid.p.flags.writeable


def test_constant_field_transform(grid):
    F = forward_transform(Field(grid, np.ones(grid.n)))
    assert F[0] == pytest.approx(grid.L, rel=1e-14)
    assert np.max(np.abs(F[1:])) < 1e-12 * grid.L


def test_single_mode_transform(grid):
    p1 = 2 * np.pi / grid.L
    F = forward_transform(Field(grid, np.exp(1j * p1 * grid.x)))
    k1 = np.argmin(np.abs(grid.p - p1))
    assert F[k1] == pytest.approx(grid.L, rel=1e-13)
    rest = np.delete(np.abs(F), k1)
    assert np.max(rest) < 1e-10


def test_round_trip_identity():
    g = UniformGrid(1024, 1 / 16)
    f = make_bump(g, 0.0, 1.0, 1.0)
    back = inverse_transform(f, forward_transform(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_inverse_of_dc_coefficient(grid):
    coeffs = np.zeros(grid.n, dtype=complex)
    coeffs[0] = grid.L
    f = inverse_transform(Field(grid, np.zeros(grid.n)), coeffs)
    assert np.max(np.abs(f.values - 1.0)) < 1e-13


def test_inverse_of_zero_is_zero(grid):
    f = inverse_transform(Field(grid, np.ones(grid.n)), np.zeros(grid.n))
    assert np.all(f.values == 0)


def test_forward_of_inverse_identity(grid):
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    F2 = forward_transform(inverse_transform(Field(grid, np.zeros(grid.n)), coeffs))
    assert np.max(np.abs(F2 - coeffs)) < 1e-12 * np.max(np.abs(coeffs))


# inf times the exact zero part of an alternating sign warns before the check
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_inverse_of_non_finite_coefficients_names_field_finite(grid):
    coeffs = np.ones(grid.n, dtype=complex)
    coeffs[5] = np.inf
    with pytest.raises(PreconditionError) as err:
        inverse_transform(Field(grid, np.zeros(grid.n)), coeffs)
    assert err.value.rule == "field.finite"


def test_spectrum_is_the_forward_transform_taken_once(grid):
    rng = np.random.default_rng(3)
    f = Field(grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
    first = f.spectrum
    assert isinstance(first, np.ndarray)
    assert first.shape == (grid.n,) and first.dtype == np.complex128
    assert np.array_equal(first, forward_transform(f))
    assert f.spectrum is first
    assert not first.flags.writeable


def test_spectrum_taken_before_a_pool_is_shared_by_every_worker(grid, monkeypatch):
    import sys
    from concurrent.futures import ThreadPoolExecutor

    from kglab import spectral

    f = make_bump(grid, 0.0, 1.0, 1.0)
    first = f.spectrum
    calls = []
    monkeypatch.setattr(spectral, "forward_transform", lambda g: calls.append(g) or forward_transform(g))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(lambda: f.spectrum) for _ in range(64)]
            got = [future.result(timeout=10) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert calls == []
    assert all(spectrum is first for spectrum in got)


def test_parseval(grid):
    rng = np.random.default_rng(11)
    f = Field(grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
    left = grid.dx * np.sum(np.abs(f.values) ** 2)
    right = np.sum(np.abs(forward_transform(f)) ** 2) / grid.L
    assert left == pytest.approx(right, rel=1e-12)


# the pins compare raw float64 words: unlike np.array_equal on the values they
# tell -0.0 from 0.0, a difference that repr writes into the CSVs
@pytest.mark.parametrize(
    "n, dx, m", [(8192, 1 / 128, 1.0), (8192, 1 / 128, 2.0), (2**16, 1 / 128, 1.0), (1024, 1 / 16, 0.7)]
)
def test_tail_witness_keeps_the_former_bits(n, dx, m):
    from kglab import Mass, positivity_tail_witness

    grid = UniformGrid(n, dx)
    for bump in (make_bump(grid, 0.0, 1.0, 1.0), make_bump(grid, 0.13, 1.0, 1.7)):
        got = positivity_tail_witness(bump, Mass(m)).values
        ref = oracles.former_tail_witness(bump, Mass(m)).values
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("n, dx", [(1024, 1 / 16), (2048, 0.03)])
@pytest.mark.parametrize("q", [0.0, 0.5, -1.0, 3.0])
def test_complex_momentum_probe_keeps_the_former_bits(n, dx, q):
    grid = UniformGrid(n, dx)
    for bump in (make_bump(grid, 0.0, 1.0, 1.0), make_bump(grid, 0.13, 1.0, 1.7)):
        got = complex_momentum_transform(bump, q)
        ref = oracles.former_complex_momentum_transform(bump, q)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


class TestBump:
    def test_peak_value(self, grid):
        b = make_bump(grid, 0.0, 1.0, 1.0)
        assert b.values[grid.n // 2] == 1.0

    def test_closed_form_interior_point(self, grid):
        b = make_bump(grid, 0.0, 1.0, 1.0)
        j = np.argmin(np.abs(grid.x - 0.5))
        assert b.values[j].real == pytest.approx(np.exp(-1.0 / 3.0), rel=1e-14)

    def test_exactly_zero_outside(self, grid):
        b = make_bump(grid, 0.0, 1.0, 1.0)
        outside = np.abs(grid.x) >= 1.0
        assert np.all(b.values[outside] == 0.0)

    def test_under_resolved_rejected(self):
        g = UniformGrid(64, 1 / 4)
        with pytest.raises(ValueError, match="under-resolved"):
            make_bump(g, 0.0, 0.9, 1.0)

    def test_margin_rejected(self, grid):
        with pytest.raises(ValueError, match="clearance"):
            make_bump(grid, 30.0, 1.0, 1.0)


class TestComplexMomentumProbe:
    def test_q_zero_reduces_to_forward_transform(self, grid):
        b = make_bump(grid, 0.0, 1.0, 1.0)
        logs = complex_momentum_transform(b, 0.0)
        with np.errstate(divide="ignore"):
            ref = np.log(np.abs(forward_transform(b)))
        finite = np.isfinite(ref)
        assert np.allclose(logs[finite], ref[finite], atol=1e-12)

    def test_growth_slope_within_support_bound(self):
        g = UniformGrid(4096, 1 / 64)
        b = make_bump(g, 0.0, 1.0, 1.0)
        qs = np.linspace(1.0, 6.0, 11)
        tops = [np.max(complex_momentum_transform(b, q)) for q in qs]
        slope = np.polyfit(qs, tops, 1)[0]
        assert slope <= 1.05 * 1.0
        # independent adaptive-quadrature oracle; the max over p sits at
        # p = 0 because the weighted samples are non-negative
        oracle_tops = [oracles.weighted_bump_log_l1(q) for q in qs]
        oracle_slope = np.polyfit(qs, oracle_tops, 1)[0]
        assert oracle_slope == pytest.approx(0.4263487390, abs=1e-7)
        assert slope == pytest.approx(oracle_slope, abs=1e-6)

    def test_growth_bound_for_factory_states(self):
        g = UniformGrid(4096, 1 / 64)
        for center, radius in [(0.0, 1.0), (0.0, 2.0), (3.0, 1.5)]:
            b = make_bump(g, center, radius, 1.0)
            support = abs(center) + radius
            log_l1 = np.log(g.dx * np.sum(np.abs(b.values)))
            for q in (1.0, 4.0):
                top = np.max(complex_momentum_transform(b, q))
                assert top <= log_l1 + support * q + 1e-9

    def test_exponential_tails_diverge_beyond_mass(self):
        # field exp(-|x|): transform windowed to [-L/2, L/2] has closed form;
        # for q > m the maximum grows linearly in L, for q < m it is L-stable
        for q, min_growth, max_growth in [(0.5, -0.01, 0.01), (1.5, 15.0, 17.0)]:
            tops = {}
            for n, L in [(2048, 64.0), (4096, 128.0)]:
                g = UniformGrid(n, L / n)
                f = Field(g, np.exp(-np.abs(g.x)))
                tops[L] = np.max(complex_momentum_transform(f, q))
                expected = oracles.windowed_exponential_log_transform(q, L)
                assert tops[L] == pytest.approx(expected, abs=0.02)
            growth = tops[128.0] - tops[64.0]
            assert min_growth <= growth <= max_growth

    def test_overflow_guard(self):
        g = UniformGrid(4096, 1 / 64)
        b = make_bump(g, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="overflow"):
            complex_momentum_transform(b, 30.0)

    def test_zero_field_gives_minus_infinity(self, grid):
        f = Field(grid, np.zeros(grid.n))
        assert np.all(np.isneginf(complex_momentum_transform(f, 1.0)))
