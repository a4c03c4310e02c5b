import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kglab.cli import _witness_report
from kglab.diagnostics import boundary_floor, cone_leakage, fit_exponential_tail, support_radius
from kglab.dispersion import Mass
from kglab.evolution import CauchyData, evolve_spectral
from kglab.io import write_json
from kglab.posfreq import evolve_positive, positivity_tail_witness
from kglab.spectral import Field, PreconditionError, UniformGrid, make_bump

import oracles


@pytest.fixture
def grid():
    return UniformGrid(2048, 1 / 32)


class TestConeLeakage:
    def test_compact_field_zero_exactly(self, grid):
        b = make_bump(grid, 0.0, 1.0, 1.0)
        assert cone_leakage(b, 1.0, 0.0, 2 * grid.dx) == 0.0

    def test_uniform_field_geometry(self, grid):
        f = Field(grid, np.ones(grid.n))
        frac = cone_leakage(f, grid.L / 8, grid.L / 16, grid.L / 16)
        assert frac == pytest.approx(0.5, abs=2.0 / grid.n)

    def test_zero_norm_rejected(self, grid):
        f = Field(grid, np.zeros(grid.n))
        with pytest.raises(ValueError, match="zero total norm"):
            cone_leakage(f, 1.0, 0.0, 0.1)

    def test_edge_outside_domain_rejected(self, grid):
        b = make_bump(grid, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="boundary"):
            cone_leakage(b, 1.0, grid.L / 2, 0.1)

    @pytest.mark.parametrize("scale", [2.0**-520, 2.0**520], ids=["2^-520", "2^520"])
    def test_power_of_two_scale_keeps_the_fraction_bit_for_bit(self, grid, scale):
        # the tail's squares would be subnormal, or the peak's overflow, unscaled
        w = positivity_tail_witness(make_bump(grid, 0.0, 1.0, 1.0), Mass(1.0))
        scaled = Field(grid, scale * w.values)
        assert cone_leakage(scaled, 1.0, 0.0, 0.5) == cone_leakage(w, 1.0, 0.0, 0.5) > 0.0

    def test_monotone_in_margin(self, grid):
        w = positivity_tail_witness(make_bump(grid, 0.0, 1.0, 1.0), Mass(1.0))
        fracs = [cone_leakage(w, 1.0, 0.0, mg) for mg in (0.1, 0.5, 1.0, 2.0)]
        assert all(a >= b for a, b in zip(fracs, fracs[1:]))

    @pytest.mark.parametrize(
        "cone",
        [
            (1.0, 0.25, 0.25),  # edge 1.5, on a grid point
            (1.0, -0.25, 0.0),  # edge 1.25, on a grid point, backward in time
            (1.0, 0.1, 0.01),  # edge between grid points
            (31.0, 0.0, 1.0 - 1 / 64),  # within one cell of L/2 = 32, above the last x
            (31.0, 0.0, 1.0 - 1 / 32),  # on the last x, L/2 - dx
            (0.0, 0.0, 0.0),  # edge 0: only x = 0 is inside
            (0.0, 0.0, -0.5),  # a negative edge leaves every cell outside
        ],
        ids=str,
    )
    @pytest.mark.parametrize("field", ["off-centre", "complex", "2^40", "2^-40"])
    def test_matches_the_masked_sum_bit_for_bit(self, grid, field, cone):
        m = Mass(1.0)
        if field == "off-centre":
            f = positivity_tail_witness(make_bump(grid, 5.0, 1.0, 1.0), m)
        else:
            f = evolve_positive(make_bump(grid, -3.0, 1.5, 1.0), m, 0.7)
            f = Field(grid, {"complex": 1.0, "2^40": 2.0**40, "2^-40": 2.0**-40}[field] * f.values)
        got, ref = cone_leakage(f, *cone), oracles.masked_cone_leakage(f, *cone)
        assert got.hex() == ref.hex()

    def test_a_cell_on_the_edge_stays_inside(self, grid):
        # mass only at x = -1.5 and x = 1.5, both grid points
        values = np.zeros(grid.n)
        values[np.flatnonzero(np.abs(grid.x) == 1.5)] = 1.0
        f = Field(grid, values)
        assert cone_leakage(f, 1.0, 0.25, 0.25) == 0.0
        assert cone_leakage(f, 1.0, 0.25, 0.25 - grid.dx) == 1.0


class TestTailFit:
    def test_pure_exponential_recovered(self, grid):
        f = Field(grid, np.exp(-2.0 * np.abs(grid.x)))
        fit = fit_exponential_tail(f, (3.0, 8.0))
        assert fit.rate == pytest.approx(2.0, abs=1e-6)
        assert fit.r2 > 0.999999
        assert fit.flags == ()

    def test_bounded_perturbation(self, grid):
        f = Field(grid, np.exp(-np.abs(grid.x)) * (1.0 + 0.01 * np.cos(grid.x)))
        fit = fit_exponential_tail(f, (3.0, 8.0))
        assert fit.rate == pytest.approx(1.0, abs=0.02)

    def test_witness_rate_in_band(self):
        # far window so the |x|^(-3/2) prefactor bias drops under 10%
        g = UniformGrid(16384, 1 / 256)
        w = positivity_tail_witness(make_bump(g, 0.0, 1.0, 1.0), Mass(1.0))
        fit = fit_exponential_tail(w, (12.0, 20.0))
        assert 0.9 <= fit.rate <= 1.1
        radii = np.linspace(12.0, 20.0, 60)
        oracle_rate, _ = oracles.log_linear_rate(radii, oracles.omega_bump_tail(radii, 1.0))
        assert fit.rate == pytest.approx(oracle_rate, abs=0.01)

    def test_too_few_points_rejected(self):
        g = UniformGrid(64, 1.0)
        f = Field(g, np.exp(-np.abs(g.x)))
        with pytest.raises(ValueError, match="16"):
            fit_exponential_tail(f, (3.0, 8.0))

    def test_zero_magnitude_rejected(self, grid):
        b = make_bump(grid, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="zero magnitude"):
            fit_exponential_tail(b, (3.0, 8.0))

    def test_asymmetry_flagged(self, grid):
        vals = np.where(grid.x < 0, np.exp(-2.0 * np.abs(grid.x)), np.exp(-np.abs(grid.x)))
        fit = fit_exponential_tail(Field(grid, vals), (3.0, 8.0))
        assert "asymmetric-tails" in fit.flags
        assert_matches_reference(Field(grid, vals), (3.0, 8.0))

    @pytest.mark.parametrize("level", [1e-250, 1e-3, 0.1, 1.0, 7.0, 1e250])
    def test_flat_field_r2_in_unit_interval(self, level):
        # the former np.polyfit fit read r^2 = -9.7 at level 0.1
        fit = fit_exponential_tail(Field(UniformGrid(4096, 1 / 64), np.full(4096, level)), (3.0, 8.0))
        assert 0.0 <= fit.r2 <= 1.0
        assert abs(fit.rate) < 1e-13

    def test_exact_exponential_r2_in_unit_interval(self, grid):
        fit = fit_exponential_tail(Field(grid, np.exp(1.5 - 2.0 * np.abs(grid.x))), (3.0, 8.0))
        assert 1.0 - 1e-15 <= fit.r2 <= 1.0
        assert fit.rate == pytest.approx(2.0, rel=1e-14)
        assert fit.intercept == pytest.approx(1.5, rel=1e-13)

    @pytest.mark.parametrize("m, window, times", [(1.0, (9.0, 16.0), (0.001, 0.01, 0.1)), (2.0, (4.0, 9.0), (0.0005, 0.005, 0.05))])
    @pytest.mark.parametrize("center", [0.0, 0.25, -0.25])
    def test_matches_the_polyfit_reference_on_the_shipped_windows(self, m, window, times, center):
        # the grid, windows and times of hegerfeldt_default (m = 1) and hegerfeldt_m2
        psi0 = make_bump(UniformGrid(8192, 1 / 128), center, 1.0, 1.0)
        assert_matches_reference(positivity_tail_witness(psi0, Mass(m)), window)
        for t in times:
            assert_matches_reference(evolve_positive(psi0, Mass(m), t), window)


def assert_matches_reference(f, window):
    """The closed-form fit against ``np.polyfit`` to 1e-13 relative.  The
    intercept is a difference of log-magnitudes up to rate * hi, so it is
    held to 1e-13 of that size: an intercept of 0 reads 1e-15 either way."""
    fit = fit_exponential_tail(f, window)
    rate, intercept, r2, rate_r, rate_l = oracles.reference_tail_fit(f, window)
    assert fit.rate == pytest.approx(rate, rel=1e-13, abs=0.0)
    assert fit.intercept == pytest.approx(intercept, abs=1e-13 * max(abs(intercept), abs(rate) * window[1]))
    assert fit.r2 == pytest.approx(r2, rel=1e-13, abs=0.0)
    assert fit.flags == (("asymmetric-tails",) if abs(rate_r - rate_l) > 0.1 * max(abs(rate_r), abs(rate_l)) else ())


NOISY_GRID = UniformGrid(2048, 1 / 32)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    rate=st.floats(-4.0, 4.0),
    intercept=st.floats(-20.0, 20.0),
    noise=st.floats(1e-3, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_noisy_line_r2_in_unit_interval(rate, intercept, noise, seed):
    # log|f| a line plus Gaussian noise, drawn independently on each side;
    # flat data, where the reference divides 0 by 0, is the flat-field test
    jitter = noise * np.random.default_rng(seed).standard_normal(NOISY_GRID.n)
    f = Field(NOISY_GRID, np.exp(intercept - rate * np.abs(NOISY_GRID.x) + jitter))
    fit = fit_exponential_tail(f, (3.0, 8.0))
    assert 0.0 <= fit.r2 <= 1.0
    assert fit.r2 == pytest.approx(oracles.reference_tail_fit(f, (3.0, 8.0))[2], abs=1e-12)


class TestSupportRadius:
    def test_bump(self, grid):
        b = make_bump(grid, 0.0, 1.0, 1.0)
        assert support_radius(b, threshold=1e-12) == pytest.approx(1.0, abs=0.02 + grid.dx)

    def test_zero_field(self, grid):
        assert support_radius(Field(grid, np.zeros(grid.n)), threshold=1e-12) == 0.0

    def test_exponential_closed_form(self, grid):
        f = Field(grid, np.exp(-np.abs(grid.x)))
        assert support_radius(f, threshold=np.exp(-5.0)) == pytest.approx(5.0, abs=grid.dx)

    def test_monotone_in_threshold(self, grid):
        f = Field(grid, np.exp(-np.abs(grid.x)))
        radii = [support_radius(f, threshold=thr) for thr in (1e-10, 1e-8, 1e-6, 1e-4)]
        assert all(a >= b for a, b in zip(radii, radii[1:]))

    def test_threshold_validation(self, grid):
        with pytest.raises(ValueError):
            support_radius(Field(grid, np.zeros(grid.n)), threshold=0.0)


class TestJointSupportRadius:
    def test_bump(self, grid):
        phi, pi = make_bump(grid, 0.0, 1.0, 1.0), Field(grid, np.zeros(grid.n))
        assert support_radius(phi, pi, threshold=1e-12) == pytest.approx(1.0, abs=grid.dx)

    def test_zero(self, grid):
        z = Field(grid, np.zeros(grid.n))
        assert support_radius(z, z, threshold=1e-12) == 0.0

    def test_max_of_supports(self, grid):
        # the bump rolls off double-exponentially, crossing 1e-12 about
        # 0.018 R inside the nominal radius
        phi, pi = make_bump(grid, 0.0, 1.0, 1.0), make_bump(grid, 0.0, 2.0, 1.0)
        assert support_radius(phi, pi, threshold=1e-12) == pytest.approx(2.0, abs=0.04 + grid.dx)

    def test_fields_on_different_grids_refused(self):
        a, b = UniformGrid(16, 0.5), UniformGrid(16, 0.25)
        for grids in [(a, b), (a, a, b), (a, UniformGrid(32, 0.5))]:
            fields = [Field(g, np.ones(g.n)) for g in grids]
            with pytest.raises(PreconditionError) as err:
                support_radius(*fields, threshold=1e-12)
            assert err.value.rule == "field.grid"


THRESHOLD = 1e-3
SMALL_GRID = UniformGrid(16, 0.5)
#: cells at, just below and just above the threshold, signed zeros, and
#: anything in between
CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, THRESHOLD, -THRESHOLD, np.nextafter(THRESHOLD, 0.0), np.nextafter(THRESHOLD, 1.0)]),
    st.floats(-2 * THRESHOLD, 2 * THRESHOLD),
)
SMALL_FIELDS = st.tuples(
    st.lists(CELLS, min_size=SMALL_GRID.n, max_size=SMALL_GRID.n),
    st.lists(st.one_of(st.just(0.0), CELLS), min_size=SMALL_GRID.n, max_size=SMALL_GRID.n),
).map(lambda parts: Field(SMALL_GRID, np.array(parts[0]) + 1j * np.array(parts[1])))
ZERO = Field(SMALL_GRID, np.zeros(SMALL_GRID.n))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(SMALL_FIELDS, min_size=1, max_size=3))
@example([ZERO, ZERO])
@example([ZERO, Field(SMALL_GRID, np.full(SMALL_GRID.n, THRESHOLD))])
def test_joint_support_is_the_largest_single_support(fields):
    # an independent statement of a joint support: the union of the
    # thresholded supports of the components
    joint = support_radius(*fields, threshold=THRESHOLD)
    assert joint == max(support_radius(f, threshold=THRESHOLD) for f in fields)


class TestBoundaryFloor:
    def test_fresh_bump_exactly_zero(self, grid):
        assert boundary_floor(make_bump(grid, 0.0, 1.0, 1.0)) == 0.0

    def test_uniform_field(self, grid):
        assert boundary_floor(Field(grid, 0.7 * np.ones(grid.n))) == pytest.approx(0.7)

    def test_quarter_period_evolution_stays_below_floor(self):
        # resolution ladder: the floor drops by orders with dx, and at
        # n = 4096, dx = 1/128 it sits below 1e-10 of the peak
        floors = {}
        for n, dx in [(2048, 1 / 64), (4096, 1 / 128)]:
            g = UniformGrid(n, dx)
            data = CauchyData(
                make_bump(g, 0.0, 1.0, 1.0), Field(g, np.zeros(g.n)), Mass(1.0)
            )
            out = evolve_spectral(data, g.L / 4.0)
            floors[dx] = boundary_floor(out.phi) / np.max(np.abs(data.phi.values))
        assert floors[1 / 128] < 1e-10
        assert floors[1 / 128] < floors[1 / 64]


class TestSupportReport:
    def test_roundtrip_json(self, grid, tmp_path):
        f = Field(grid, np.exp(-np.abs(grid.x)))
        report = _witness_report(f, np.exp(-5.0), (3.0, 8.0))
        write_json(tmp_path / "report.json", report)
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["schema"] == "kglab.support-report/2"
        assert "leakage_fraction" not in payload
        assert payload["tail_rate"] == pytest.approx(1.0, abs=1e-6)
        assert payload["support_radius"] == pytest.approx(5.0, abs=grid.dx)

    def test_nowhere_below_threshold_flagged(self, grid):
        f = Field(grid, np.ones(grid.n) + np.exp(-np.abs(grid.x)))
        report = _witness_report(f, 0.5, (3.0, 8.0))
        assert report["support_radius"] == grid.L / 2
        assert "nowhere-below-threshold" in report["flags"]

    def test_invariants_enforced(self, grid):
        f = Field(grid, np.exp(-np.abs(grid.x)))
        with pytest.raises(PreconditionError) as err:
            _witness_report(f, np.exp(-5.0), (2.0, 1.0))
        assert err.value.rule == "tail_fit.window"
