import numpy as np
import pytest

from kglab import (
    CauchyData,
    Field,
    Mass,
    QuadratureSpec,
    UniformGrid,
    bridge_identity_error,
    cauchy_via_propagator,
    delta_plus,
    evolve_spectral,
    make_bump,
    pauli_jordan,
    spacelike_suppression_scan,
    time_derivative_identity_error,
)


# committed golden value for Dp(t=1.5, x=0.5, m=1), regenerated by
# oracles.delta_plus_quad (adaptive quadrature at 10x cutoff, 3-rung
# eps extrapolation); the closed form (1/4) H0^(2)(m sqrt(t^2 - x^2))
# agrees with it to 9e-16
GOLDEN_T, GOLDEN_X = 1.5, 0.5
GOLDEN_VALUE = 0.13978353610474492 - 0.0861592328249282j


@pytest.fixture(scope="module")
def scan_grid():
    return UniformGrid(4096, 1 / 256)  # L = 16


def mirror_index(grid, x):
    return np.argmin(np.abs(grid.x - x))


class TestDeltaPlus:
    def test_equal_time_slice_is_even(self, scan_grid):
        v = delta_plus(0.0, scan_grid, Mass(1.0))[0].values
        mirrored = np.roll(v[::-1], 1)
        assert np.max(np.abs(v - mirrored)) < 1e-10

    def test_golden_value(self):
        # wrap-free grid: L = 64 keeps periodization images below 1e-26
        g = UniformGrid(16384, 1 / 256)
        plus, residual = delta_plus(GOLDEN_T, g, Mass(1.0))
        assert residual <= QuadratureSpec().residual_tol
        j = mirror_index(g, GOLDEN_X)
        assert abs(plus.values[j] - GOLDEN_VALUE) < 1e-7

    def test_golden_against_closed_form(self):
        import scipy.special as sp

        tau = np.sqrt(GOLDEN_T**2 - GOLDEN_X**2)
        closed = 0.25 * (sp.j0(tau) - 1j * sp.y0(tau))
        assert abs(GOLDEN_VALUE - closed) < 1e-12

    def test_decays_with_mass_at_spacelike_point(self, scan_grid):
        j = mirror_index(scan_grid, 2.5)
        mags = [
            abs(delta_plus(1.0, scan_grid, Mass(m))[0].values[j]) for m in (1.0, 2.0, 4.0)
        ]
        assert mags[0] > mags[1] > mags[2]

    def test_massless_rejected(self, scan_grid):
        zero = Field(scan_grid, np.zeros(scan_grid.n))
        for build in (
            lambda: delta_plus(1.0, scan_grid, Mass(0.0)),
            lambda: pauli_jordan(1.0, scan_grid, Mass(0.0)),
            lambda: cauchy_via_propagator(CauchyData(zero, zero, Mass(0.0)), 1.0),
        ):
            with pytest.raises(ValueError, match="infrared") as err:
                build()
            assert err.value.rule == "mass.positive"

    def test_cutoff_floor_enforced(self, scan_grid):
        with pytest.raises(ValueError, match="floor"):
            delta_plus(1.0, scan_grid, Mass(1.0), QuadratureSpec(cutoff=100.0))


class TestPauliJordan:
    def test_zero_time_vanishes(self, scan_grid):
        s = pauli_jordan(0.0, scan_grid, Mass(1.0))
        assert np.max(np.abs(s.delta.values)) < 1e-10

    def test_defining_difference(self, scan_grid):
        m = Mass(1.0)
        s = pauli_jordan(1.0, scan_grid, m, QuadratureSpec())
        plus_t, _ = delta_plus(1.0, scan_grid, m)
        plus_back, _ = delta_plus(-1.0, scan_grid, m)
        manual = plus_t.values - np.roll(plus_back.values[::-1], 1)
        assert np.max(np.abs(s.delta.values - manual)) < 1e-10

    def test_antisymmetry(self, scan_grid):
        m = Mass(1.0)
        fwd = pauli_jordan(1.0, scan_grid, m)
        bwd = pauli_jordan(-1.0, scan_grid, m)
        mirrored = np.roll(bwd.delta.values[::-1], 1)
        assert np.max(np.abs(mirrored + fwd.delta.values)) < 1e-10

    def test_kernel_is_real(self, scan_grid):
        s = pauli_jordan(1.0, scan_grid, Mass(1.0))
        assert np.max(np.abs(s.delta.values.imag)) < 1e-12
        assert np.all(s.delta.values.imag == 0.0)

    def test_one_quadrature_per_slice(self, scan_grid, monkeypatch):
        from kglab import propagator

        calls = []
        original = propagator._damped_kernel

        def counted(*args):
            calls.append(args[3])
            return original(*args)

        monkeypatch.setattr(propagator, "_damped_kernel", counted)
        s = pauli_jordan(1.0, scan_grid, Mass(1.0))
        assert calls == [1.0]
        monkeypatch.undo()
        direct, residual = delta_plus(1.0, scan_grid, Mass(1.0))
        assert np.array_equal(s.delta_plus.values, direct.values)
        assert np.array_equal(s.delta.values.real, 2.0 * direct.values.real)
        assert s.residual == 2.0 * residual

    def test_one_resolve_per_slice(self, scan_grid, monkeypatch):
        # the quadrature is resolved once and handed to the module-level
        # delta_plus, which the benchmark tracer counts
        from kglab import propagator

        resolves, kernels = [], []
        resolve, plus = QuadratureSpec.resolve, propagator.delta_plus

        def spy_resolve(spec, grid, m):
            resolves.append(spec)
            return resolve(spec, grid, m)

        def spy_plus(t, *args):
            kernels.append(t)
            return plus(t, *args)

        monkeypatch.setattr(QuadratureSpec, "resolve", spy_resolve)
        monkeypatch.setattr(propagator, "delta_plus", spy_plus)
        for t in (0.0, 1.0):
            pauli_jordan(t, scan_grid, Mass(1.0))
        assert len(resolves) == 2
        assert kernels == [0.0, 1.0]

    def test_bridge_identity(self, scan_grid):
        s = pauli_jordan(1.0, scan_grid, Mass(1.0))
        assert s.converged
        assert bridge_identity_error(s) < 1e-3

    def test_bridge_identity_fine_grid(self):
        g = UniformGrid(16384, 1 / 1024)
        s = pauli_jordan(1.0, g, Mass(1.0))
        assert bridge_identity_error(s) < 1e-3

    def test_unconverged_is_flagged_not_raised(self, scan_grid):
        s = pauli_jordan(1.0, scan_grid, Mass(1.0), QuadratureSpec(residual_tol=1e-30))
        assert not s.converged


class TestSuppressionScan:
    @pytest.fixture(scope="class")
    def sample(self, scan_grid):
        return pauli_jordan(1.0, scan_grid, Mass(1.0))

    @pytest.mark.parametrize("t,m", [(1.0, 1.0), (2.0, 1.0), (1.0, 2.0)])
    def test_spacelike_suppressed(self, scan_grid, t, m):
        sample = pauli_jordan(t, scan_grid, Mass(m))
        assert sample.converged
        scan = spacelike_suppression_scan(sample, 0.2)
        assert scan.ratio < 1e-4
        assert scan.passed

    def test_zero_time_slice(self, scan_grid):
        scan = spacelike_suppression_scan(pauli_jordan(0.0, scan_grid, Mass(1.0)), 0.2)
        assert scan.spacelike_max < 1e-10

    def test_margin_shrinks_spacelike_max(self, sample):
        maxes = [spacelike_suppression_scan(sample, mg).spacelike_max for mg in (0.2, 0.4, 0.8)]
        assert maxes[0] > maxes[1] > maxes[2]

    def test_scan_reports_the_sample(self, sample):
        scan = spacelike_suppression_scan(sample, 0.2, ratio_ceiling=1e-12)
        assert not scan.passed

    def test_doubled_cutoff_confirms_suppression(self, scan_grid, sample):
        base = spacelike_suppression_scan(sample, 0.2)
        doubled = spacelike_suppression_scan(
            pauli_jordan(1.0, scan_grid, Mass(1.0), QuadratureSpec(cutoff=2 * 40 * 256.0)), 0.2
        )
        assert doubled.passed
        assert doubled.spacelike_max < 10 * base.spacelike_max

    def test_margin_floor_enforced(self, scan_grid, sample):
        with pytest.raises(ValueError, match="margin"):
            spacelike_suppression_scan(sample, scan_grid.dx)

    def test_boundary_enforced(self, sample):
        with pytest.raises(ValueError, match="boundary"):
            spacelike_suppression_scan(sample, 7.0)


class TestCauchyViaPropagator:
    def rel_l2(self, a, b):
        return np.linalg.norm(a - b) / np.linalg.norm(b)

    def test_zero_time_returns_initial(self):
        g = UniformGrid(4096, 1 / 64)
        b = make_bump(g, 0.0, 1.0, 1.0)
        data = CauchyData(b, Field(g, np.zeros(g.n)), Mass(1.0))
        out = cauchy_via_propagator(data, 0.0)
        assert self.rel_l2(out.values, b.values) < 1e-3

    def test_matches_spectral_on_pi_data(self):
        # Pi-driven data exercises the quadrature kernel convolution
        g = UniformGrid(4096, 1 / 64)
        data = CauchyData(
            Field(g, np.zeros(g.n)), make_bump(g, 0.0, 1.0, 1.0), Mass(1.0)
        )
        out = cauchy_via_propagator(data, 1.5)
        ref = evolve_spectral(data, 1.5)
        assert self.rel_l2(out.values, ref.phi.values) < 1e-3

    def test_matches_spectral_on_quiet_bump(self):
        g = UniformGrid(4096, 1 / 64)
        data = CauchyData(
            make_bump(g, 0.0, 1.0, 1.0), Field(g, np.zeros(g.n)), Mass(1.0)
        )
        out = cauchy_via_propagator(data, 2.0)
        ref = evolve_spectral(data, 2.0)
        assert self.rel_l2(out.values, ref.phi.values) < 1e-3

    def test_matches_spectral_on_mixed_data(self):
        g = UniformGrid(4096, 1 / 64)
        data = CauchyData(
            make_bump(g, 0.0, 1.0, 1.0), make_bump(g, 0.5, 1.0, 0.5), Mass(1.0)
        )
        out = cauchy_via_propagator(data, 2.0)
        ref = evolve_spectral(data, 2.0)
        assert self.rel_l2(out.values, ref.phi.values) < 1e-3

    def test_negative_time(self):
        # the kernel is odd in t and the multiplier even, so the formula
        # runs backward as well
        g = UniformGrid(2048, 1 / 64)
        data = CauchyData(
            Field(g, np.zeros(g.n)), make_bump(g, 0.0, 1.0, 1.0), Mass(1.0)
        )
        out = cauchy_via_propagator(data, -1.5)
        ref = evolve_spectral(data, -1.5)
        assert self.rel_l2(out.values, ref.phi.values) < 1e-3

    def test_unconverged_rejected(self):
        g = UniformGrid(4096, 1 / 64)
        data = CauchyData(
            make_bump(g, 0.0, 1.0, 1.0), Field(g, np.zeros(g.n)), Mass(1.0)
        )
        with pytest.raises(ValueError, match="converge"):
            cauchy_via_propagator(data, 1.0, QuadratureSpec(residual_tol=1e-30))


def test_time_derivative_cross_check(scan_grid):
    err = time_derivative_identity_error(1.0, scan_grid, Mass(1.0))
    assert err < 1e-2


def test_richardson_ladder_recovers_limit():
    from kglab.propagator import _extrapolate

    a, b, c, d = 1.234, -0.7, 0.31, -0.09
    eps0 = 0.8
    levels = [
        np.array([a + b * e + c * e * e + d * e**3]) for e in (eps0, eps0 / 2, eps0 / 4, eps0 / 8)
    ]
    value, residual = _extrapolate(levels, np.array([True]))
    assert abs(value[0] - a) < 1e-12
    assert residual < 1e-2
