import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kglab.config import load_config
from kglab.dispersion import Mass
from kglab.evolution import (
    CauchyData,
    _BLOCK,
    _STEP_BUDGET,
    _STEP_OVERHEAD_CELLS,
    energy,
    evolve_from_rest,
    evolve_local_fd_ladder,
    evolve_spectral,
    ladder_steps,
    leapfrog_energy,
    local_fd_steps,
)
from kglab.spectral import Field, PreconditionError, UniformGrid, make_bump

import oracles

REPO = Path(__file__).resolve().parent.parent


def bump_data(grid, m=1.0, pi="zero"):
    phi = make_bump(grid, 0.0, 1.0, 1.0)
    if pi == "zero":
        pi_field = Field(grid, np.zeros(grid.n))
    else:  # right mover: Pi = -Phi'
        pi_field = Field(grid, -oracles.bump_derivative(grid.x))
    return CauchyData(phi, pi_field, Mass(m))


@pytest.fixture
def grid():
    return UniformGrid(2048, 1 / 32)


def largest_stable_step(grid, m):
    """1 / hypot(1/dx, m/2), where (dt/dx)^2 + (m dt/2)^2 rounds to exactly 1
    on the grids used here; dt = dx at m = 0."""
    return 1.0 / math.hypot(1.0 / grid.dx, m / 2.0)


def test_zero_time_is_identity(grid):
    data = bump_data(grid)
    out = evolve_spectral(data, 0.0)
    assert out is data
    assert np.array_equal(out.phi.values, data.phi.values)
    assert np.array_equal(out.pi.values, data.pi.values)


def test_massless_right_mover_translates():
    # the bump transform decays only like exp(-0.7 sqrt(p)), so hitting
    # 1e-10 pointwise takes dx = 1/256
    g = UniformGrid(4096, 1 / 256)
    data = bump_data(g, m=0.0, pi="right-mover")
    out = evolve_spectral(data, 2.0)
    translated = oracles.bump_profile(g.x - 2.0)
    assert np.max(np.abs(out.phi.values - translated)) < 1e-10


def test_massless_zero_mode_limit(grid):
    # constant data: the p = 0 mode evolves as Phi + t * Pi at m = 0
    data = CauchyData(Field(grid, np.ones(grid.n)), Field(grid, 0.5 * np.ones(grid.n)), Mass(0.0))
    out = evolve_spectral(data, 3.0)
    assert np.max(np.abs(out.phi.values - 2.5)) < 1e-12
    assert np.max(np.abs(out.pi.values - 0.5)) < 1e-12


def test_energy_conserved(grid):
    data = bump_data(grid)
    e0 = energy(data)
    e2 = energy(evolve_spectral(data, 2.0))
    assert e2 == pytest.approx(e0, rel=1e-12)


def test_energy_zero_data(grid):
    z = Field(grid, np.zeros(grid.n))
    assert energy(CauchyData(z, z, Mass(1.0))) == 0.0


def test_massless_energy_overflow_names_inf(grid):
    # at m = 0 the mass term is left out, so 0 * inf cannot turn the overflow into nan
    with pytest.raises(PreconditionError) as err:
        energy(CauchyData(make_bump(grid, 0.0, 1.0, 1e300), Field(grid, np.zeros(grid.n)), Mass(0.0)))
    assert err.value.rule == "field.overflow"
    assert "energy is inf" in str(err.value)


def test_energy_single_mode_closed_form(grid):
    p1 = 2 * np.pi / grid.L
    a, m = 0.7, 1.3
    data = CauchyData(
        Field(grid, a * np.exp(1j * p1 * grid.x)), Field(grid, np.zeros(grid.n)), Mass(m)
    )
    assert energy(data) == pytest.approx(0.5 * grid.L * a**2 * (p1**2 + m**2), rel=1e-12)


def test_energy_bump_against_quadrature():
    g = UniformGrid(4096, 1 / 64)
    data = bump_data(g)
    oracle = oracles.bump_energy_quad()
    assert oracle == pytest.approx(2.004921291105526, abs=1e-9)
    assert energy(data) == pytest.approx(oracle, rel=1e-8)


def shipped_states(stem):
    """A shipped config's datum and its spectral states at the config's times."""
    cfg = load_config(REPO / "configs" / f"{stem}.json", "evolve")
    data = CauchyData(cfg.phi(cfg.grid), cfg.pi(cfg.grid), cfg.mass)
    return [data, *(evolve_spectral(data, t) for t in cfg.times)]


def leapfrog_ladder_states():
    """The leapfrog-ladder benchmark's datum (n = 2^15) and its leapfrog states."""
    data = bump_data(UniformGrid(2**15, 1 / 64))
    return [data, *evolve_local_fd_ladder(data, [2.0, 4.0, 8.0], 1 / 128)]


def at_rest(grid, values, m=1.0):
    return [CauchyData(Field(grid, values), Field(grid, np.zeros(grid.n)), Mass(m))]


def complex_data():
    g = UniformGrid(2048, 1 / 32)
    phi = make_bump(g, 0.0, 1.0, 1.0).values + 1j * make_bump(g, 0.3, 1.0, 0.5).values
    return [CauchyData(Field(g, phi), make_bump(g, -0.2, 1.0, 0.7), Mass(1.0))]


ENERGY_CASES = {
    "causal_default": lambda: shipped_states("causal_default"),
    "rightmover": lambda: shipped_states("rightmover"),
    "leapfrog-ladder": leapfrog_ladder_states,
    "complex": complex_data,
    "massless": lambda: [bump_data(UniformGrid(2048, 1 / 32), m=0.0, pi="right-mover")],
    # (-1)^j lives on mode n/2 alone, cos(p_1 x_j) on modes 1 and n - 1
    "nyquist": lambda: at_rest(UniformGrid(16, 0.25), (-1.0) ** np.arange(16)),
    "k1": lambda: at_rest(UniformGrid(16, 0.25), np.cos(2 * np.pi * np.arange(16) / 16)),
    "zero": lambda: at_rest(UniformGrid(16, 0.25), np.zeros(16)),
}


@pytest.mark.parametrize("case", ENERGY_CASES)
def test_parseval_energy_matches_the_inverse_transform_form(case):
    # zero data must give exactly 0.0: the tolerance is relative only
    for data in ENERGY_CASES[case]():
        assert energy(data) == pytest.approx(oracles.inverse_transform_energy(data), rel=1e-14, abs=0)


@pytest.mark.parametrize("k", [-40, 40])
@pytest.mark.parametrize("case", ["causal_default", "complex"])
def test_energy_of_a_datum_scaled_by_a_power_of_two(case, k):
    data = ENERGY_CASES[case]()[0]
    scaled = CauchyData(Field(data.grid, 2.0**k * data.phi.values), Field(data.grid, 2.0**k * data.pi.values), data.m)
    assert energy(scaled) == 4.0**k * energy(data)


def test_energy_peak_bytes_per_sample():
    # the former complex transform pair peaked at 44 B/sample
    state = leapfrog_ladder_states()[-1]
    energy(state)  # the cached grid.p is the grid's, not the call's
    tracemalloc.start()
    try:
        energy(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * state.grid.n


def test_group_property(grid):
    # times are elapsed from the datum: 1.0, then 1.5 more, is 2.5
    data = bump_data(grid)
    via = evolve_spectral(evolve_spectral(data, 1.0), 1.5)
    direct = evolve_spectral(data, 2.5)
    assert np.max(np.abs(via.phi.values - direct.phi.values)) < 1e-12
    assert np.max(np.abs(via.pi.values - direct.pi.values)) < 1e-12


def test_cached_spectra_are_bit_equal_to_transform_every_call(grid):
    rng = np.random.default_rng(2)
    noise = Field(grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
    for data in (bump_data(grid), bump_data(grid, m=0.0, pi="right-mover"), CauchyData(noise, noise, Mass(1.5))):
        ref = oracles.evolve_spectral_uncached
        pairs = [
            (evolve_spectral(data, 1.0), ref(data, 1.0)),
            (evolve_spectral(evolve_spectral(data, 1.0), 1.5), ref(ref(data, 1.0), 1.5)),
            (evolve_spectral(data, -0.75), ref(data, -0.75)),
        ]
        for out, expected in pairs:
            assert np.array_equal(out.phi.values, expected.phi.values)
            assert np.array_equal(out.pi.values, expected.pi.values)


@pytest.mark.parametrize("m", [0.0, 1.5])
def test_evolve_from_rest_equals_the_full_datum_at_rest(grid, m):
    rng = np.random.default_rng(3)
    profiles = (
        make_bump(grid, 0.0, 1.0, 1.0),
        Field(grid, -oracles.bump_derivative(grid.x)),  # a right mover's Pi, used as Phi
        Field(grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)),
    )
    for phi in profiles:
        data = CauchyData(phi, Field(grid, np.zeros(grid.n)), Mass(m))
        for t in (1.0, 2.5, -0.75):
            assert np.array_equal(evolve_from_rest(phi, Mass(m), t).values, evolve_spectral(data, t).phi.values)


def test_evolve_from_rest_keeps_the_margin(grid):
    with pytest.raises(ValueError, match="margin"):
        evolve_from_rest(make_bump(grid, 0.0, 1.0, 1.0), Mass(1.0), -(grid.L / 4 + 1.0))


def test_time_reversal(grid):
    data = bump_data(grid)
    back = evolve_spectral(evolve_spectral(data, 4.0), -4.0)
    assert np.max(np.abs(back.phi.values - data.phi.values)) < 1e-12
    assert np.max(np.abs(back.pi.values - data.pi.values)) < 1e-12


def test_margin_rejected(grid):
    data = bump_data(grid)
    with pytest.raises(ValueError, match="margin"):
        evolve_spectral(data, grid.L / 4 + 1.0)


def test_spectral_causality(grid):
    from kglab.diagnostics import cone_leakage, support_radius

    data = bump_data(grid)
    r0 = support_radius(data.phi, data.pi, threshold=1e-12)
    for t in (1.0, 4.0):
        out = evolve_spectral(data, t)
        assert cone_leakage(out.phi, r0, t, 5 * grid.dx) < 1e-8


class TestLocalFd:
    def test_exact_support_bound_64_steps(self):
        # joint support in [-1, 1], dx = 1/64, 64 steps at the largest stable
        # dt of m = 1: support stays inside [-2, 2] bit-exactly
        g = UniformGrid(512, 1 / 64)
        data = CauchyData(
            make_bump(g, 0.0, 1.0, 1.0), make_bump(g, 0.0, 1.0, 0.5), Mass(1.0)
        )
        nz0 = np.flatnonzero(np.abs(data.phi.values) + np.abs(data.pi.values))
        lo, hi = nz0[0], nz0[-1]
        for k, phi, pi in local_fd_steps(data, largest_stable_step(g, 1.0), 64):
            nz = np.flatnonzero(np.abs(phi) + np.abs(pi))
            assert nz[0] >= lo - k and nz[-1] <= hi + k
        assert np.max(np.abs(g.x[np.flatnonzero(np.abs(phi) + np.abs(pi))])) <= 2.0

    def test_zero_data_stays_zero(self, grid):
        z = Field(grid, np.zeros(grid.n))
        data = CauchyData(z, z, Mass(1.0))
        out = evolve_local_fd_ladder(data, [1.0], grid.dx / 2)[0]
        assert np.all(out.phi.values == 0) and np.all(out.pi.values == 0)

    def test_second_order_convergence(self):
        errors = []
        for n, dx in [(2048, 1 / 64), (4096, 1 / 128)]:
            g = UniformGrid(n, dx)
            data = bump_data(g)
            out = evolve_local_fd_ladder(data, [1.0], dx / 2)[0]
            ref = evolve_spectral(data, 1.0)
            errors.append(
                np.linalg.norm(out.phi.values - ref.phi.values)
                / np.linalg.norm(ref.phi.values)
            )
        assert errors[0] < 2e-3
        assert 3.4 <= errors[0] / errors[1] <= 4.6

    def test_courant_rejected(self, grid):
        data = bump_data(grid)
        with pytest.raises(ValueError, match="courant"):
            evolve_local_fd_ladder(data, [1.0], 2 * grid.dx)

    @pytest.mark.parametrize("m", [0.0, 1.0, 2.0])
    def test_step_rule_is_the_exact_stability_bound(self, grid, m):
        # the largest stable dt runs, the next float up is refused
        data = bump_data(grid, m)
        dt = largest_stable_step(grid, m)
        assert (dt == grid.dx) == (m == 0.0)
        evolve_local_fd_ladder(data, [dt], dt)
        up = math.nextafter(dt, math.inf)
        with pytest.raises(PreconditionError) as err:
            evolve_local_fd_ladder(data, [up], up)
        assert err.value.rule == "dt.courant"
        bound = (up / grid.dx) ** 2 + (m * up / 2.0) ** 2
        assert err.value.message == f"unstable step: courant (dt/dx)^2 + (m dt/2)^2 = {bound} exceeds 1"

    @pytest.mark.parametrize("m", [1.0, 2.0])
    def test_largest_stable_step_conserves_the_leapfrog_form(self, grid, m):
        # 10^4 steps at the edge of the bound; over the same steps dt = dx
        # grows Phi to ~1e128 at m = 1 and overflows float64 at m = 2
        data = bump_data(grid, m)
        dt = largest_stable_step(grid, m)
        q0 = leapfrog_energy(data, dt)
        for k, phi, pi in local_fd_steps(data, dt, 10_000):
            pass
        q1 = leapfrog_energy(CauchyData(Field(grid, phi), Field(grid, pi), data.m), dt)
        assert k == 10_000 and abs(q1 / q0 - 1.0) < 1e-12

    def test_non_multiple_time_rejected(self, grid):
        data = bump_data(grid)
        with pytest.raises(ValueError, match="multiple"):
            evolve_local_fd_ladder(data, [1.0 + grid.dx / 3], grid.dx / 2)

    def test_leapfrog_invariant_conserved(self, grid):
        data = bump_data(grid)
        dt = grid.dx / 2
        q0 = leapfrog_energy(data, dt)
        for k, phi, pi in local_fd_steps(data, dt, 1000):
            pass
        q1 = leapfrog_energy(CauchyData(Field(grid, phi), Field(grid, pi), data.m), dt)
        assert abs(q1 / q0 - 1.0) < 1e-12

    @staticmethod
    def support_data(cells, imag=False, n=256):
        """Phi and Pi random on ``cells`` (indices taken mod n), zero elsewhere;
        Pi's support is Phi's shifted by one cell, so the joint support is wider."""
        rng = np.random.default_rng(len(cells))
        phi, pi = np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)
        idx = np.mod(cells, n)
        phi[idx] = rng.standard_normal(idx.size) + (1j * rng.standard_normal(idx.size) if imag else 0)
        pi[np.mod(idx + 1, n)] = rng.standard_normal(idx.size)
        grid = UniformGrid(n, 1 / 16)
        return CauchyData(Field(grid, phi), Field(grid, pi), Mass(1.0))

    @pytest.mark.parametrize(
        "cells,imag",
        [
            (np.arange(0, 9), False),
            (np.arange(240, 255), False),
            (np.arange(-6, 7), False),
            ([97], False),
            (np.arange(100, 140), True),
            ([*range(20, 30), *range(180, 200)], False),
            (np.arange(256), True),
            ([], False),
        ],
        ids=[
            "touches-cell-0", "touches-cell-n-1", "straddles-the-edge", "one-cell", "complex", "two-bumps", "full-grid",
            "all-zero",
        ],
    )
    def test_leapfrog_form_on_the_support_matches_the_full_grid(self, cells, imag):
        data = self.support_data(np.asarray(cells, dtype=int), imag)
        dt = data.grid.dx / 2
        q = leapfrog_energy(data, dt)
        # abs=0: zero data must give exactly 0.0
        assert q == pytest.approx(oracles.full_grid_leapfrog_energy(data, dt), rel=1e-14, abs=0)
        for k in (-30, -1, 3, 40):
            scaled = CauchyData(Field(data.grid, 2.0**k * data.phi.values), Field(data.grid, 2.0**k * data.pi.values), data.m)
            assert leapfrog_energy(scaled, dt) == 4.0**k * q

    @staticmethod
    def assert_matches_reference(data, dt, n_steps, ref_phi, ref_pi):
        reference = oracles.leapfrog_steps(ref_phi, ref_pi, data.grid.dx, data.m.m, dt, n_steps)
        for (k, phi, pi), (_, want_phi, want_pi) in zip(local_fd_steps(data, dt, n_steps), reference):
            assert phi.dtype == want_phi.dtype and pi.dtype == want_pi.dtype
            assert phi.tobytes() == want_phi.tobytes() and pi.tobytes() == want_pi.tobytes(), k
        assert k == n_steps

    @staticmethod
    def edge_step(data):
        """First step whose window [lo - k, hi + k] keeps no neighbour cell inside the grid."""
        nz = np.flatnonzero((data.phi.values != 0) | (data.pi.values != 0))
        return min(nz[0], data.grid.n - 1 - nz[-1])

    @pytest.mark.parametrize("dx", [1 / 64, 0.1])
    def test_window_crossing_the_periodic_edge(self, dx):
        # the window reaches the edge at step 172 at dx = 1/64 and 243 at
        # dx = 0.1, both in the middle of a block, which therefore runs on the
        # full grid from its first step; the remaining blocks run there too
        g = UniformGrid(512, dx)
        data = CauchyData(make_bump(g, 0.0, 1.0, 1.0), make_bump(g, 0.3, 1.0, 0.5), Mass(1.3))
        assert self.edge_step(data) == {1 / 64: 172, 0.1: 243}[dx]
        assert (self.edge_step(data) - 1) % _BLOCK != 0
        phi0, pi0 = data.phi.values.real, data.pi.values.real
        self.assert_matches_reference(data, dx / 2, 600, phi0, pi0)

    def test_window_reaching_the_edge_at_a_block_start(self):
        g = UniformGrid(512, 1 / 64)
        center = 43 / 64
        data = CauchyData(make_bump(g, center, 1.0, 1.0), make_bump(g, center + 0.3, 1.0, 0.5), Mass(1.3))
        assert self.edge_step(data) == 2 * _BLOCK + 1
        self.assert_matches_reference(data, g.dx / 2, 600, data.phi.values.real, data.pi.values.real)

    @pytest.mark.parametrize("n_steps", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK - 1])
    @pytest.mark.parametrize("kind", ["real", "complex", "zero"])
    def test_steps_around_a_block_boundary(self, n_steps, kind):
        g = UniformGrid(512, 1 / 64)
        phi = make_bump(g, 0.0, 1.0, 1.0).values
        pi = make_bump(g, 0.3, 1.0, 0.5).values
        if kind == "complex":
            pi = pi + 1j * make_bump(g, -0.2, 1.0, 0.7).values
        elif kind == "zero":
            phi, pi = np.zeros(g.n), np.zeros(g.n)
        data = CauchyData(Field(g, phi), Field(g, pi), Mass(1.0))
        ref_phi, ref_pi = data.phi.values, data.pi.values
        if kind != "complex":
            ref_phi, ref_pi = ref_phi.real, ref_pi.real
        self.assert_matches_reference(data, g.dx / 2, n_steps, ref_phi, ref_pi)

    @pytest.mark.parametrize("n,skip", [(4096, 1), (512, 4 * _BLOCK + 1)], ids=["windowed", "full-grid"])
    def test_a_step_allocates_nothing(self, n, skip):
        # after the first step of a block, a step only writes into buffers it holds:
        # tracemalloc sees the yielded tuple, never a window-sized temporary
        # (the smallest window here holds over 100 float64 cells)
        import tracemalloc

        g = UniformGrid(n, 1 / 64)
        data = CauchyData(make_bump(g, 0.0, 1.0, 1.0), make_bump(g, 0.3, 1.0, 0.5), Mass(1.0))
        steps = local_fd_steps(data, g.dx / 2, skip + _BLOCK)
        for _ in range(skip):
            next(steps)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(_BLOCK - 2):
                next(steps)
            growth = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert growth < 512

    @pytest.mark.parametrize("seed", range(6))
    def test_signed_zeros_step_as_on_the_full_grid(self, seed):
        # exact zeros of either sign everywhere, a short random support and
        # complex data in odd seeds: a -0.0 of phi beyond the support is not
        # a fixed point of the step, so only a window that holds it matches
        rng = np.random.default_rng(seed)
        n = 256

        def datum():
            values = np.zeros(n, dtype=complex)
            values.real = np.where(rng.random(n) < 0.5, -0.0, 0.0)
            values.imag = np.where(rng.random(n) < 0.5, -0.0, 0.0)
            values.real[120:126] = rng.standard_normal(6)
            if seed % 2:
                values.imag[122:130] = rng.standard_normal(8)
            return values

        g = UniformGrid(n, 0.1)
        data = CauchyData(Field(g, datum()), Field(g, datum()), Mass(1.3 * (seed % 3 > 0)))
        ref_phi, ref_pi = data.phi.values, data.pi.values
        if seed % 2 == 0:
            ref_phi, ref_pi = ref_phi.real, ref_pi.real
        self.assert_matches_reference(data, g.dx / 2, 3 * _BLOCK + 5, ref_phi, ref_pi)

    def test_real_data_rounds_as_complex(self):
        # the complex128 scheme on real data: real parts bit-equal, imaginary
        # parts exact zeros, also where dx^2 is not a power of two
        g = UniformGrid(512, 0.1)
        data = CauchyData(make_bump(g, 0.0, 1.0, 1.0), make_bump(g, 0.3, 1.0, 0.5), Mass(1.3))
        reference = oracles.leapfrog_steps(data.phi.values, data.pi.values, g.dx, 1.3, g.dx / 2, 600)
        for (_, phi, pi), (_, want_phi, want_pi) in zip(local_fd_steps(data, g.dx / 2, 600), reference):
            assert phi.tobytes() == want_phi.real.copy().tobytes()
            assert pi.tobytes() == want_pi.real.copy().tobytes()
            assert not want_phi.imag.any() and not want_pi.imag.any()

    def test_complex_data(self):
        g = UniformGrid(512, 1 / 64)
        pi = make_bump(g, 0.3, 1.0, 0.5).values + 1j * make_bump(g, -0.2, 1.0, 0.7).values
        data = CauchyData(make_bump(g, 0.0, 1.0, 1.0), Field(g, pi), Mass(1.0))
        self.assert_matches_reference(data, g.dx / 2, 600, data.phi.values, data.pi.values)

    def test_ladder_matches_separate_evolutions(self, grid):
        data = bump_data(grid, pi="right-mover")
        dt = grid.dx / 2
        times = [2.0, 0.5, 2.0, 1.0]
        ladder = evolve_local_fd_ladder(data, times, dt)
        for t, state in zip(times, ladder):
            single = evolve_local_fd_ladder(data, [t], dt)[0]
            assert np.array_equal(state.phi.values, single.phi.values)
            assert np.array_equal(state.pi.values, single.pi.values)

    def test_margin_rejected(self, grid):
        data = bump_data(grid)
        dt = grid.dx / 2
        with pytest.raises(ValueError, match="margin"):
            evolve_local_fd_ladder(data, [grid.L / 4 + 1.0], dt)
        with pytest.raises(ValueError, match="margin"):
            evolve_local_fd_ladder(data, [1.0, grid.L / 4 + 1.0], dt)

    def test_step_budget(self):
        # 2^17 steps on 2048 cells cost exactly the budget; one more is refused
        grid = UniformGrid(2048, 0.25)
        dt = 2.0**-11
        assert 2**17 * (grid.n + _STEP_OVERHEAD_CELLS) == _STEP_BUDGET
        assert ladder_steps(grid, [1.0, 64.0], dt, Mass(1.0)) == [2**11, 2**17]
        with pytest.raises(PreconditionError) as err:
            ladder_steps(grid, [64.0 + dt, 1.0], dt, Mass(1.0))
        assert err.value.rule == "budget"
        assert "131073 leapfrog steps on n = 2048 cells" in err.value.message

    def test_ladder_refuses_a_run_over_the_step_budget(self, grid):
        # the library entry shares the refusal: 10^9 steps never start
        with pytest.raises(PreconditionError) as err:
            evolve_local_fd_ladder(bump_data(grid), [1.0], 1e-9)
        assert err.value.rule == "budget"
        assert "1000000000 leapfrog steps on n = 2048 cells" in err.value.message

