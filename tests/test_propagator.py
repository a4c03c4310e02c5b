import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from kglab.dispersion import Mass, omega
from kglab.evolution import CauchyData, evolve_spectral
from kglab.propagator import (
    EPS_BASE_FACTOR,
    QuadratureSpec,
    RESIDUAL_COLLAR_CELLS,
    _damped_kernel,
    _off_cone,
    bridge_identity_error,
    check_scan,
    delta_plus,
    pauli_jordan,
    spacelike_suppression_scan,
)
from kglab.spectral import Field, PreconditionError, UniformGrid, make_bump

REPO = Path(__file__).resolve().parent.parent


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
            lambda: oracles.cauchy_via_propagator(CauchyData(zero, zero, Mass(0.0)), 1.0),
        ):
            with pytest.raises(ValueError, match="infrared") as err:
                build()
            assert err.value.rule == "mass.positive"

    def test_cutoff_floor_enforced(self, scan_grid):
        with pytest.raises(ValueError, match="floor"):
            delta_plus(1.0, scan_grid, Mass(1.0), QuadratureSpec(cutoff=100.0))

    def test_resolve_is_idempotent(self, scan_grid):
        m = Mass(1.0)
        for spec in (QuadratureSpec(), QuadratureSpec(cutoff=2 * 40 * 256.0, rungs=3)):
            res = spec.resolve(scan_grid, m)
            assert res.cutoff is not None
            assert res.resolve(scan_grid, m) == res
            assert res.eps_ladder == tuple(EPS_BASE_FACTOR / res.cutoff**2 / 2.0**r for r in range(res.rungs))

    def test_resolved_spec_is_checked_against_the_new_floor(self, scan_grid):
        # a spec resolved on a coarse grid sits below the floor of a finer one
        coarse = QuadratureSpec().resolve(UniformGrid(1024, 1 / 64), Mass(1.0))
        with pytest.raises(PreconditionError) as err:
            delta_plus(1.0, scan_grid, Mass(1.0), coarse)
        assert err.value.rule == "quadrature.cutoff"


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
        # one kernel per slice through the module-level delta_plus, which
        # the benchmark tracer counts, and the sample keeps the one resolved
        # spec that its metadata reports
        from kglab import propagator

        kernels, plus = [], propagator.delta_plus

        def spy_plus(t, *args):
            kernels.append(t)
            return plus(t, *args)

        monkeypatch.setattr(propagator, "delta_plus", spy_plus)
        spec, m = QuadratureSpec(rungs=3), Mass(1.0)
        samples = [pauli_jordan(t, scan_grid, m, spec) for t in (0.0, 1.0)]
        assert kernels == [0.0, 1.0]
        for sample in samples:
            assert sample.quad == spec.resolve(scan_grid, m)

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
        assert scan["ratio"] < 1e-4

    def test_zero_time_slice(self, scan_grid):
        scan = spacelike_suppression_scan(pauli_jordan(0.0, scan_grid, Mass(1.0)), 0.2)
        assert scan["spacelike_max"] < 1e-10

    def test_margin_shrinks_spacelike_max(self, sample):
        maxes = [spacelike_suppression_scan(sample, mg)["spacelike_max"] for mg in (0.2, 0.4, 0.8)]
        assert maxes[0] > maxes[1] > maxes[2]

    def test_doubled_cutoff_confirms_suppression(self, scan_grid, sample):
        base = spacelike_suppression_scan(sample, 0.2)
        doubled = spacelike_suppression_scan(
            pauli_jordan(1.0, scan_grid, Mass(1.0), QuadratureSpec(cutoff=2 * 40 * 256.0)), 0.2
        )
        assert doubled["ratio"] < 1e-4
        assert doubled["spacelike_max"] < 10 * base["spacelike_max"]

    def test_margin_floor_enforced(self, scan_grid, sample):
        with pytest.raises(ValueError, match="margin"):
            spacelike_suppression_scan(sample, scan_grid.dx)

    def test_slice_below_one_cell_refused(self, scan_grid):
        with pytest.raises(PreconditionError) as err:
            spacelike_suppression_scan(pauli_jordan(scan_grid.dx / 2, scan_grid, Mass(1.0)), 0.2)
        assert err.value.rule == "times.resolved"

    def test_slice_without_cells_off_the_collar_refused(self):
        # n = 16 with |t| = 4 dx: every cell lies within the residual's collar,
        # so a direct kernel call names the rule that config load names
        grid = UniformGrid(16, 1 / 16)
        for call in (lambda: delta_plus(0.25, grid, Mass(1.0)), lambda: check_scan(grid, -0.25, 3 * grid.dx)):
            with pytest.raises(PreconditionError) as err:
                call()
            assert err.value.rule == "times.collar"

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
        out = oracles.cauchy_via_propagator(data, 0.0)
        assert self.rel_l2(out.values, b.values) < 1e-3

    def test_matches_spectral_on_pi_data(self):
        # Pi-driven data exercises the quadrature kernel convolution
        g = UniformGrid(4096, 1 / 64)
        data = CauchyData(
            Field(g, np.zeros(g.n)), make_bump(g, 0.0, 1.0, 1.0), Mass(1.0)
        )
        out = oracles.cauchy_via_propagator(data, 1.5)
        ref = evolve_spectral(data, 1.5)
        assert self.rel_l2(out.values, ref.phi.values) < 1e-3

    def test_matches_spectral_on_quiet_bump(self):
        g = UniformGrid(4096, 1 / 64)
        data = CauchyData(
            make_bump(g, 0.0, 1.0, 1.0), Field(g, np.zeros(g.n)), Mass(1.0)
        )
        out = oracles.cauchy_via_propagator(data, 2.0)
        ref = evolve_spectral(data, 2.0)
        assert self.rel_l2(out.values, ref.phi.values) < 1e-3

    def test_matches_spectral_on_mixed_data(self):
        g = UniformGrid(4096, 1 / 64)
        data = CauchyData(
            make_bump(g, 0.0, 1.0, 1.0), make_bump(g, 0.5, 1.0, 0.5), Mass(1.0)
        )
        out = oracles.cauchy_via_propagator(data, 2.0)
        ref = evolve_spectral(data, 2.0)
        assert self.rel_l2(out.values, ref.phi.values) < 1e-3

    def test_negative_time(self):
        # the kernel is odd in t and the multiplier even, so the formula
        # runs backward as well
        g = UniformGrid(2048, 1 / 64)
        data = CauchyData(
            Field(g, np.zeros(g.n)), make_bump(g, 0.0, 1.0, 1.0), Mass(1.0)
        )
        out = oracles.cauchy_via_propagator(data, -1.5)
        ref = evolve_spectral(data, -1.5)
        assert self.rel_l2(out.values, ref.phi.values) < 1e-3

    def test_unconverged_rejected(self):
        g = UniformGrid(4096, 1 / 64)
        data = CauchyData(
            make_bump(g, 0.0, 1.0, 1.0), Field(g, np.zeros(g.n)), Mass(1.0)
        )
        with pytest.raises(ValueError, match="converge"):
            oracles.cauchy_via_propagator(data, 1.0, QuadratureSpec(residual_tol=1e-30))


def time_derivative_identity_error(t: float, grid: UniformGrid, m: Mass) -> float:
    """Centered finite difference of D in t against the quadrature kernel of
    the cos(w t) multiplier, compared pointwise away from the cone.

    Both objects converge to the same smooth function off the light cone
    (the cone itself carries the propagating delta pair, which no pointwise
    comparison can see), so the uniform-norm relative deviation over the
    off-cone region validates that differentiating the commutator kernel
    in time reproduces the multiplier used by the initial-value formula.
    The difference step is one cell, h = dx.
    """
    h = grid.dx
    fwd = pauli_jordan(t + h, grid, m)
    bwd = pauli_jordan(t - h, grid, m)
    fd = (fwd.delta.values - bwd.delta.values) / (2.0 * h)
    dt_vals, _ = _damped_kernel(grid, m, fwd.quad, t, lambda w: np.cos(w * t))
    mask = (
        _off_cone(grid, t, RESIDUAL_COLLAR_CELLS + 1)
        & _off_cone(grid, t + h, RESIDUAL_COLLAR_CELLS)
        & _off_cone(grid, t - h, RESIDUAL_COLLAR_CELLS)
    )
    sup = float(np.max(np.abs(dt_vals[mask])))
    return float(np.max(np.abs(fd[mask] - dt_vals[mask])) / sup)


def test_time_derivative_cross_check(scan_grid):
    err = time_derivative_identity_error(1.0, scan_grid, Mass(1.0))
    assert err < 1e-2


class TestHalfLatticeFold:
    """The kernel evaluates the even integrand on q >= 0 and folds it in
    runs between multiples of n; the full-lattice np.bincount form it
    replaced is the reference."""

    @pytest.mark.parametrize(
        "n,dx,m,cutoff,t,offset",
        [
            # propagator_default: q_max = 26076 lands at offset 2596
            (4096, 1 / 256, 1.0, None, 0.0, 2596),
            (4096, 1 / 256, 1.0, None, 1.0, 2596),
            (4096, 1 / 256, 1.0, None, 2.0, 2596),
            # an explicit cutoff with q_max = 8 n: the first run is empty
            (4096, 1 / 256, 1.0, 32767.5 * math.pi / 8, 1.0, 0),
            # m = 2 on a coarse grid: q_max = 6519, offset 649
            (1024, 1 / 16, 2.0, None, 1.0, 649),
            # q_max = 8 n - 1: offset 1, so the last run is exactly full
            (4096, 1 / 256, 1.0, 32766.5 * math.pi / 8, 1.0, 1),
            # q_max = 8 n + 1: offset n - 1, so the first run holds one node
            (4096, 1 / 256, 1.0, 32768.5 * math.pi / 8, 1.0, 4095),
        ],
    )
    def test_matches_the_full_lattice_fold(self, n, dx, m, cutoff, t, offset):
        grid, mass = UniformGrid(n, dx), Mass(m)
        res = QuadratureSpec(cutoff=cutoff).resolve(grid, mass)
        assert -math.ceil(res.cutoff / (2.0 * math.pi / grid.L)) % n == offset
        self.assert_matches_the_full_lattice_fold(grid, mass, res, t)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_the_full_lattice_fold_at_every_offset(self, data):
        # small grids with q_max between 1 and 3 times its floor, drawn so
        # that the first run, q_max mod n nodes long, takes every length
        n = data.draw(st.sampled_from([16, 32, 64, 128, 256]))
        grid = UniformGrid(n, data.draw(st.sampled_from([1 / 16, 0.1, 1 / 4])))
        mass = Mass(data.draw(st.sampled_from([0.5, 1.0, 2.0])))
        dp = 2.0 * math.pi / grid.L
        q_floor = math.ceil(QuadratureSpec().resolve(grid, mass).cutoff / dp)
        offset = data.draw(st.sampled_from([0, 1, n - 1]) | st.integers(0, n - 1))
        rows = data.draw(st.integers((q_floor + offset) // n + 1, (3 * q_floor + offset) // n))
        q_max = rows * n - offset
        res = QuadratureSpec(cutoff=(q_max - 0.5) * dp).resolve(grid, mass)
        assert math.ceil(res.cutoff / dp) == q_max
        # |t| <= L/4 in half cells; at n = 16, |t| = L/4 leaves no cell off the collar
        t = data.draw(st.sampled_from([0, n // 2, -(n // 2)]) | st.integers(-(n // 2), n // 2)) * grid.dx / 2
        if n == 16 and abs(t) == 4 * grid.dx:
            with pytest.raises(PreconditionError) as err:
                self.assert_matches_the_full_lattice_fold(grid, mass, res, t)
            assert err.value.rule == "times.collar"
        else:
            self.assert_matches_the_full_lattice_fold(grid, mass, res, t)

    @staticmethod
    def assert_matches_the_full_lattice_fold(grid, mass, res, t):
        def plus(w):
            return 0.5j * np.exp(-1j * w * t) / w

        values, residual = _damped_kernel(grid, mass, res, t, plus)
        ref_values, ref_residual = oracles.full_lattice_kernel(grid, mass, res, t, plus)
        # bit for bit: repr writes -0.0, which np.array_equal takes for 0.0
        assert np.array_equal(values.view(np.uint64), ref_values.view(np.uint64))
        assert residual == ref_residual

    @pytest.mark.parametrize("t", [0.0, 1.0, -1.5])
    def test_delta_plus_keeps_the_bits_of_its_former_multiplier(self, t):
        # the propagator-dense grid: n = 2^14, dx = 1/256, 4x the default cutoff
        grid, mass = UniformGrid(16384, 1 / 256), Mass(1.0)
        res = QuadratureSpec(cutoff=40960.0).resolve(grid, mass)
        plus, residual = delta_plus(t, grid, mass, res)
        ref_values, ref_residual = oracles.full_lattice_kernel(
            grid, mass, res, t, lambda w: 0.5j * np.exp(-1j * w * t) / w
        )
        assert np.array_equal(plus.values.view(np.uint64), ref_values.view(np.uint64))
        assert residual == ref_residual

    def test_multiplier_sees_the_half_lattice_once(self, scan_grid):
        seen = []

        def cos(w):
            seen.append(w.copy())
            return np.cos(w)

        res = QuadratureSpec().resolve(scan_grid, Mass(1.0))
        _damped_kernel(scan_grid, Mass(1.0), res, 1.0, cos)
        dp = 2.0 * math.pi / scan_grid.L
        q_max = math.ceil(res.cutoff / dp)
        assert len(seen) == 1
        assert seen[0].shape == (q_max + 1,)
        assert np.array_equal(seen[0], omega(np.arange(q_max + 1) * dp, Mass(1.0)))

    def test_cutoff_guard_covers_the_padded_block(self):
        # n = 2^55, dx = 1: 15 * 2^55 nodes stay below MAX_SAMPLES = 2^59 - 1,
        # but the block padded to whole rows of n needs up to 2 n more
        grid = UniformGrid(2**55, 1.0)
        QuadratureSpec(cutoff=13 * math.pi).resolve(grid, Mass(1.0))
        with pytest.raises(PreconditionError) as err:
            QuadratureSpec(cutoff=15 * math.pi).resolve(grid, Mass(1.0))
        assert err.value.rule == "quadrature.cutoff"


class TestFoldMemory:
    """The kernel folds its nodes in runs between multiples of n: beside
    the half-lattice integrand it holds one damping float per half-lattice
    node and O(n) values, so it peaks where the multiplier builds the
    integrand."""

    def test_dense_kernel_peaks_below_48_bytes_per_half_lattice_node(self):
        # the propagator-dense grid: n = 2^14, dx = 1/256, 4x the default cutoff
        grid, mass = UniformGrid(16384, 1 / 256), Mass(1.0)
        res = QuadratureSpec(cutoff=40960.0).resolve(grid, mass)
        nodes = math.ceil(res.cutoff / (2.0 * math.pi / grid.L)) + 1
        tracemalloc.start()
        try:
            _damped_kernel(grid, mass, res, 1.0, lambda w: 0.5j * np.exp(-1j * w) / w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * nodes

    def test_slice_at_cutoff_1e6_stays_below_128_mb(self, tmp_path):
        # one propagator_default slice at about 100x its cutoff floor: 2.5e6 half-lattice nodes
        tree = json.loads((REPO / "configs" / "propagator_default.json").read_text())
        tree.update({"times": [1.0], "quadrature": {**tree["quadrature"], "cutoff": 1e6}})
        cfg = tmp_path / "prop.json"
        cfg.write_text(json.dumps(tree))
        child = (
            "import resource, sys\n"
            "from kglab.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "print(rc, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        # Linux carries the spawning process's peak RSS into a child's
        # ru_maxrss across exec, so the child is forked by a small launcher
        # instead of by this test process
        launcher = "import subprocess, sys; subprocess.run(sys.argv[1:], check=True)"
        env = dict(os.environ, KGLAB_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
        argv = [sys.executable, "-c", child, "propagator", "--config", str(cfg), "--out", str(tmp_path / "out")]
        res = subprocess.run([sys.executable, "-c", launcher, *argv], capture_output=True, text=True, env=env, check=True)
        rc, maxrss_kib = map(int, res.stdout.split())
        assert rc == 0
        assert maxrss_kib < 128 * 1024


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
