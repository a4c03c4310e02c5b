import tracemalloc

import numpy as np
import pytest

from kglab.diagnostics import cone_leakage, fit_exponential_tail, support_radius
from kglab.dispersion import Mass
from kglab.evolution import CauchyData, evolve_from_rest, evolve_spectral
from kglab.posfreq import evolve_positive, positivity_tail_witness
from kglab.spectral import Field, UniformGrid, make_bump

import oracles


@pytest.fixture
def grid():
    return UniformGrid(2048, 1 / 32)


def random_data(grid, seed=5, m=1.0):
    rng = np.random.default_rng(seed)
    phi = Field(grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
    pi = Field(grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
    return CauchyData(phi, pi, Mass(m))


class TestProjection:
    # the split lives in the oracles; these pin its mode algebra
    def test_zero_pi_splits_evenly(self, grid):
        b = make_bump(grid, 0.0, 1.0, 1.0)
        plus, minus = oracles.project_positive(CauchyData(b, Field(grid, np.zeros(grid.n)), Mass(1.0)))
        assert np.max(np.abs(plus.values - 0.5 * b.values)) < 1e-13
        assert np.max(np.abs(minus.values - 0.5 * b.values)) < 1e-13

    def test_pure_positive_data(self, grid):
        b = make_bump(grid, 0.0, 1.0, 1.0)
        m = Mass(1.0)
        pi = positivity_tail_witness(b, m)
        plus, minus = oracles.project_positive(CauchyData(b, pi, m))
        assert np.max(np.abs(plus.values - b.values)) < 1e-12
        assert np.max(np.abs(minus.values)) < 1e-12

    def test_reconstruction_identities(self, grid):
        data = random_data(grid)
        plus, minus = oracles.project_positive(data)
        total = plus.values + minus.values
        scale = np.max(np.abs(data.phi.values))
        assert np.max(np.abs(total - data.phi.values)) < 1e-12 * scale
        diff = Field(grid, plus.values - minus.values)
        pi_back = positivity_tail_witness(diff, data.m).values
        assert np.max(np.abs(pi_back - data.pi.values)) < 1e-11 * np.max(np.abs(data.pi.values))


class TestEvolvePositive:
    def test_zero_time_identity(self, grid):
        b = make_bump(grid, 0.0, 1.0, 1.0)
        out = evolve_positive(b, Mass(1.0), 0.0)
        assert np.max(np.abs(out.values - b.values)) < 1e-15

    def test_norm_conserved_over_ladder(self, grid):
        b = make_bump(grid, 0.0, 1.0, 1.0)
        n0 = grid.dx * np.sum(np.abs(b.values) ** 2)
        for t in (0.1, 1.0, 10.0):
            nt = grid.dx * np.sum(np.abs(evolve_positive(b, Mass(1.0), t).values) ** 2)
            assert nt == pytest.approx(n0, rel=1e-12)

    def test_per_mode_unitarity(self, grid):
        from kglab.spectral import forward_transform

        b = make_bump(grid, 0.0, 1.0, 1.0)
        before = np.abs(forward_transform(b))
        after = np.abs(forward_transform(evolve_positive(b, Mass(1.0), 3.0)))
        assert np.max(np.abs(after - before)) < 1e-12 * np.max(before)

    def test_group_and_reversal(self, grid):
        b = make_bump(grid, 0.0, 1.0, 1.0)
        m = Mass(1.0)
        via = evolve_positive(evolve_positive(b, m, 1.0), m, 1.5)
        direct = evolve_positive(b, m, 2.5)
        assert np.max(np.abs(via.values - direct.values)) < 1e-13
        back = evolve_positive(evolve_positive(b, m, 2.0), m, -2.0)
        assert np.max(np.abs(back.values - b.values)) < 1e-13

    def test_margin_rejected(self, grid):
        b = make_bump(grid, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="margin"):
            evolve_positive(b, Mass(1.0), grid.L)

    def test_cached_spectrum_is_bit_equal_to_transform_every_call(self, grid):
        data = random_data(grid)
        for t in (0.0, 0.01, 1.0, -2.5):
            out = evolve_positive(data.phi, data.m, t)
            ref = oracles.evolve_positive_uncached(data.phi, data.m, t)
            assert np.array_equal(out.values, ref.values), t


def test_split_evolve_recombine_matches_spectral(grid):
    data = random_data(grid)
    t = 2.0
    rebuilt = oracles.recombine(*oracles.project_positive(data), data.m, t)
    ref = evolve_spectral(data, t)
    scale = np.max(np.abs(ref.phi.values))
    assert np.max(np.abs(rebuilt.phi.values - ref.phi.values)) < 1e-12 * scale
    assert np.max(np.abs(rebuilt.pi.values - ref.pi.values)) < 1e-11 * scale


def test_split_evolve_recombine_on_bump(grid):
    b = make_bump(grid, 0.0, 1.0, 1.0)
    data = CauchyData(b, Field(grid, np.zeros(grid.n)), Mass(1.0))
    rebuilt = oracles.recombine(*oracles.project_positive(data), data.m, 1.5)
    ref = evolve_spectral(data, 1.5)
    assert np.max(np.abs(rebuilt.phi.values - ref.phi.values)) < 1e-12


class TestHegerfeldtLeakage:
    def test_instant_spreading_above_floor(self):
        g = UniformGrid(8192, 1 / 128)
        psi0 = make_bump(g, 0.0, 1.0, 1.0)
        m = Mass(1.0)
        r0 = support_radius(psi0, threshold=1e-12)
        leak = cone_leakage(evolve_positive(psi0, m, 0.01), r0, 0.01, 5 * g.dx)
        assert leak > 1e-10

    def test_monotone_growth(self):
        g = UniformGrid(8192, 1 / 128)
        psi0 = make_bump(g, 0.0, 1.0, 1.0)
        m = Mass(1.0)
        r0 = support_radius(psi0, threshold=1e-12)
        leaks = [
            cone_leakage(evolve_positive(psi0, m, t), r0, t, 5 * g.dx)
            for t in (1e-3, 1e-2, 1e-1)
        ]
        assert leaks[0] < leaks[1] < leaks[2]

    def test_resolution_ladder_rules_out_aliasing(self):
        # same cone edge on both grids isolates the resolution dependence
        g1 = UniformGrid(8192, 1 / 128)
        g2 = UniformGrid(16384, 1 / 256)
        m = Mass(1.0)
        psi1 = make_bump(g1, 0.0, 1.0, 1.0)
        psi2 = make_bump(g2, 0.0, 1.0, 1.0)
        r0 = support_radius(psi1, threshold=1e-12)
        margin = 5 * g1.dx
        for t in (1e-2, 1e-1):
            l1 = cone_leakage(evolve_positive(psi1, m, t), r0, t, margin)
            l2 = cone_leakage(evolve_positive(psi2, m, t), r0, t, margin)
            assert l2 == pytest.approx(l1, rel=0.05)

    def test_contrast_pair(self):
        # the causal/acausal dichotomy in one assertion: the same bump
        # leaks under the first-order nonlocal flow and does not under
        # the second-order evolution
        g = UniformGrid(8192, 1 / 128)
        psi0 = make_bump(g, 0.0, 1.0, 1.0)
        m = Mass(1.0)
        r0 = support_radius(psi0, threshold=1e-12)
        data = CauchyData(psi0, Field(g, np.zeros(g.n)), m)
        for t in (0.01, 0.1, 1.0):
            positive = cone_leakage(evolve_positive(psi0, m, t), r0, t, 5 * g.dx)
            spectral = cone_leakage(evolve_spectral(data, t).phi, r0, t, 5 * g.dx)
            assert positive > 1e-10
            assert spectral < 1e-8


class TestTailWitness:
    def test_support_strictly_grows(self, grid):
        b = make_bump(grid, 0.0, 1.0, 1.0)
        w = positivity_tail_witness(b, Mass(1.0))
        assert support_radius(w, threshold=1e-12) > support_radius(b, threshold=1e-12)

    def test_linearity(self, grid):
        b1 = make_bump(grid, 0.0, 1.0, 1.0)
        b2 = make_bump(grid, 2.0, 1.5, 0.5)
        m = Mass(1.0)
        combined = positivity_tail_witness(Field(grid, b1.values + b2.values), m)
        separate = positivity_tail_witness(b1, m).values + positivity_tail_witness(b2, m).values
        assert np.max(np.abs(combined.values - separate)) < 1e-12

    def test_massless_rejected(self, grid):
        with pytest.raises(ValueError, match="m > 0"):
            positivity_tail_witness(make_bump(grid, 0.0, 1.0, 1.0), Mass(0.0))

    def test_rates_at_both_masses_with_oracle(self):
        g = UniformGrid(8192, 1 / 128)
        b = make_bump(g, 0.0, 1.0, 1.0)
        windows = {1.0: (9.0, 16.0), 2.0: (4.0, 9.0)}
        frozen = {1.0: 1.1263, 2.0: 2.2576}
        rates = {}
        for m, window in windows.items():
            fit = fit_exponential_tail(positivity_tail_witness(b, Mass(m)), window)
            radii = np.linspace(*window, 80)
            oracle_rate, oracle_r2 = oracles.log_linear_rate(
                radii, oracles.omega_bump_tail(radii, m)
            )
            assert oracle_rate == pytest.approx(frozen[m], abs=2e-3)
            assert fit.rate == pytest.approx(oracle_rate, abs=0.01)
            assert abs(fit.rate / m - 1.0) < 0.15
            assert fit.r2 > 0.99 and oracle_r2 > 0.99
            rates[m] = fit.rate
        assert 1.8 <= rates[2.0] / rates[1.0] <= 2.2


def test_snapshot_tails_match_cut_oracle():
    g = UniformGrid(8192, 1 / 128)
    b = make_bump(g, 0.0, 1.0, 1.0)
    t = 0.1
    for m, window in [(1.0, (9.0, 16.0)), (2.0, (4.0, 9.0))]:
        snap = evolve_positive(b, Mass(m), t)
        fit = fit_exponential_tail(snap, window)
        radii = np.linspace(*window, 80)
        oracle_rate, _ = oracles.log_linear_rate(radii, oracles.evolved_bump_tail(radii, m, t))
        assert fit.rate == pytest.approx(oracle_rate, abs=0.02)
        assert abs(fit.rate / m - 1.0) < 0.15
        assert fit.r2 > 0.99


class TestFlowMemory:
    """Each per-time flow takes the inverse transform in the one n-sample
    complex buffer of its multiplier-spectrum product, so the new field's
    samples are that buffer; ``cone_leakage`` sums the outside inside its one
    array of squared magnitudes."""

    @pytest.mark.parametrize(
        "name, bound", [("evolve_positive", 32), ("evolve_from_rest", 32), ("cone_leakage", 10)]
    )
    def test_peak_bytes_per_sample_on_the_hegerfeldt_doubling_grid(self, name, bound):
        grid, m = UniformGrid(2**16, 1 / 128), Mass(1.0)
        psi = make_bump(grid, 0.0, 1.0, 1.0)
        psi.spectrum
        evolved = evolve_positive(psi, m, 0.1)
        call = {
            "evolve_positive": lambda: evolve_positive(psi, m, 0.1),
            "evolve_from_rest": lambda: evolve_from_rest(psi, m, 0.1),
            "cone_leakage": lambda: cone_leakage(evolved, 1.0, 0.1, 5 * grid.dx),
        }[name]
        call()  # the cached half-lattice omega and grid.x are not the call's
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * grid.n
