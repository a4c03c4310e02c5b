import pickle

import numpy as np
import pytest

from kglab.spectral import Field, PreconditionError, UniformGrid, forward_transform, inverse_transform, make_bump

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


@pytest.mark.parametrize("shape", [(2, 8), (16, 1), (1, 16), (), (8,), (17,)])
def test_field_refuses_every_shape_but_n_samples(shape):
    # a (2, 8) array holds 16 numbers but is not 16 samples of one line
    grid = UniformGrid(16, 0.5)
    with pytest.raises(PreconditionError) as err:
        Field(grid, np.zeros(shape))
    assert err.value.rule == "field.size"
    assert f"got shape {shape}" in err.value.message
    assert Field(grid, np.zeros(16)).values.shape == (16,)


def test_precondition_error_survives_pickling():
    # a forked propagator worker sends its refusal back pickled
    err = pickle.loads(pickle.dumps(PreconditionError("times.collar", "m")))
    assert (type(err), err.rule, err.message, str(err)) == (PreconditionError, "times.collar", "m", "times.collar: m")


@pytest.mark.parametrize("shape", [(8,), (17,), (2, 16), ()])
def test_inverse_transform_refuses_every_shape_but_n_coefficients(shape):
    # a 0-d scalar would otherwise broadcast to a flat spectrum
    grid = UniformGrid(16, 0.5)
    like = Field(grid, np.zeros(16))
    with pytest.raises(PreconditionError) as err:
        inverse_transform(like, np.ones(shape, dtype=complex))
    assert err.value.rule == "field.size"
    assert f"got shape {shape}" in err.value.message
    assert inverse_transform(like, np.ones(16)).values.shape == (16,)


def test_values_are_immutable_and_decoupled(grid):
    # thread-safety contract: values are frozen copies of the input; the
    # inverse transform hands over its own buffer, frozen the same way
    source = np.ones(grid.n, dtype=complex)
    f = Field(grid, source)
    source[0] = 5.0
    assert f.values[0] == 1.0
    with pytest.raises(ValueError):
        f.values[0] = 2.0
    assert not grid.x.flags.writeable and not grid.p.flags.writeable
    coeffs = forward_transform(f)
    back = inverse_transform(f, coeffs)
    assert not back.values.flags.writeable
    assert not np.shares_memory(back.values, coeffs)
    with pytest.raises(ValueError):
        back.values[0] = 2.0


def test_a_consumed_product_becomes_the_samples_with_the_same_bits(grid):
    f = make_bump(grid, 0.3, 2.0, 1.0)
    coeffs = 1j * forward_transform(f)
    copied = inverse_transform(f, coeffs)
    consumed = inverse_transform(f, coeffs, coeffs)
    assert np.shares_memory(consumed.values, coeffs) and not consumed.values.flags.writeable
    assert np.array_equal(consumed.values.view(np.uint64), copied.values.view(np.uint64))


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
    # real float64 coefficients are cast into the complex128 buffer
    f = inverse_transform(Field(grid, np.ones(grid.n)), np.zeros(grid.n))
    assert np.all(f.values == 0)
    assert f.values.dtype == np.complex128 and not f.values.flags.writeable


def test_forward_of_inverse_identity(grid):
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    F2 = forward_transform(inverse_transform(Field(grid, np.zeros(grid.n)), coeffs))
    assert np.max(np.abs(F2 - coeffs)) < 1e-12 * np.max(np.abs(coeffs))


# inf times the exact zero part of an alternating sign is nan, refused unwarned
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
    from kglab.dispersion import Mass
    from kglab.posfreq import positivity_tail_witness

    grid = UniformGrid(n, dx)
    for bump in (make_bump(grid, 0.0, 1.0, 1.0), make_bump(grid, 0.13, 1.0, 1.7)):
        got = positivity_tail_witness(bump, Mass(m)).values
        ref = oracles.former_tail_witness(bump, Mass(m)).values
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


# SHA-256 of the float64 words of each output, captured before the inverse
# transform wrote into one buffer.  Numpy elides temporaries of >= 256 KiB
# (n >= 16384 complex samples) by multiplying in place with the operands
# swapped, and complex products are not bitwise commutative on every build,
# so the two sizes pin the operand order on both sides of that threshold.
TRANSFORM_DIGESTS = {
    2**13: {
        "evolve_positive": "dbef64c3711dbeb87a26b2f306a0a63c325d023377b6acc6f6db97e8820dae8c",
        "evolve_from_rest": "db01af18826017dbf64bcc50c795718104ebcf6bb0b56409b3f5b66ca88d6012",
        "positivity_tail_witness": "98768055024bc91932fa86bc581eb54c05824a33845dd9496bd0dbf1765b57a7",
        "evolve_spectral.phi": "4bd4734578980b9bdb3eacaf8ff6efc1c587f51c4d4841c5936ba4ecaf7111f5",
        "evolve_spectral.pi": "7da7d4e9668b01b2b62a6b09142ffbd9744f51833eed539a9f6ca03fc9d54b92",
    },
    2**16: {
        "evolve_positive": "3d893fbe9b05e8fc318cc2dd992678967918a507808c2a262a8bb87dc0a1d7c8",
        "evolve_from_rest": "18e29731c66c7957a86d150a55df251b09d8a9ef5b352e18eb446282ee853947",
        "positivity_tail_witness": "5e0420dfa3707af5b48829599e79fc5e3282cb5493c02f3a45fe812bd9cae62f",
        "evolve_spectral.phi": "89b6dbade4519b7e70b5f2e5d62f46aca11e055bc88c7f41a233bc52364289d9",
        "evolve_spectral.pi": "98018d24b30e1825523c18b0c8b0d02803ef28d0cfb9f8b46d5ba74d49440042",
    },
}


@pytest.mark.parametrize("n", sorted(TRANSFORM_DIGESTS))
def test_transform_outputs_keep_their_bits_across_the_elision_threshold(n):
    import hashlib

    from kglab.dispersion import Mass
    from kglab.evolution import CauchyData, evolve_from_rest, evolve_spectral
    from kglab.posfreq import evolve_positive, positivity_tail_witness
    from kglab.spectral import bump_right_mover

    grid = UniformGrid(n, 64.0 / n)
    m = Mass(1.0)
    phi = make_bump(grid, 0.3, 2.0, 1.0)
    state = evolve_spectral(CauchyData(phi, bump_right_mover(grid, 0.3, 2.0, 1.0), m), 0.7)
    outputs = {
        "evolve_positive": evolve_positive(phi, m, 0.7),
        "evolve_from_rest": evolve_from_rest(phi, m, 0.7),
        "positivity_tail_witness": positivity_tail_witness(phi, m),
        "evolve_spectral.phi": state.phi,
        "evolve_spectral.pi": state.pi,
    }
    digests = {name: hashlib.sha256(f.values.view(np.uint64).tobytes()).hexdigest() for name, f in outputs.items()}
    assert digests == TRANSFORM_DIGESTS[n]


# the two per-time flows at t = 0, where exp(-1j w t) has imaginary part
# +0.0, and at a negative time, captured like TRANSFORM_DIGESTS before each
# flow wrote its multiplier into the buffer that it transforms back
FLOW_DIGESTS = {
    (2**13, 0.0): {
        "evolve_positive": "95778f4528ac0c4fb91e6b01914978874435707e23e304680cbec273aff453ef",
        "evolve_from_rest": "95778f4528ac0c4fb91e6b01914978874435707e23e304680cbec273aff453ef",
    },
    (2**13, -0.7): {
        "evolve_positive": "e619102090654886dd00c755259ce6072b502326456894fbb944bed0422655be",
        "evolve_from_rest": "db01af18826017dbf64bcc50c795718104ebcf6bb0b56409b3f5b66ca88d6012",
    },
    (2**16, 0.0): {
        "evolve_positive": "71a30ccdf3d159060b2cc01e6d7f92822aeddf94e0951e804e2a78aed3aea5ba",
        "evolve_from_rest": "71a30ccdf3d159060b2cc01e6d7f92822aeddf94e0951e804e2a78aed3aea5ba",
    },
    (2**16, -0.7): {
        "evolve_positive": "b8351122df9c376499d8f5d060fe9b8c7e9909cb7538fbeea8cb76c3cdd92203",
        "evolve_from_rest": "18e29731c66c7957a86d150a55df251b09d8a9ef5b352e18eb446282ee853947",
    },
}


@pytest.mark.parametrize("n, t", sorted(FLOW_DIGESTS))
def test_flows_keep_their_bits_at_zero_and_negative_times(n, t):
    import hashlib

    from kglab.dispersion import Mass
    from kglab.evolution import evolve_from_rest
    from kglab.posfreq import evolve_positive

    grid = UniformGrid(n, 64.0 / n)
    phi = make_bump(grid, 0.3, 2.0, 1.0)
    outputs = {"evolve_positive": evolve_positive(phi, Mass(1.0), t), "evolve_from_rest": evolve_from_rest(phi, Mass(1.0), t)}
    digests = {name: hashlib.sha256(f.values.view(np.uint64).tobytes()).hexdigest() for name, f in outputs.items()}
    assert digests == FLOW_DIGESTS[n, t]


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
        logs = oracles.complex_momentum_transform(b, 0.0)
        with np.errstate(divide="ignore"):
            ref = np.log(np.abs(forward_transform(b)))
        finite = np.isfinite(ref)
        assert np.allclose(logs[finite], ref[finite], atol=1e-12)

    def test_growth_slope_within_support_bound(self):
        g = UniformGrid(4096, 1 / 64)
        b = make_bump(g, 0.0, 1.0, 1.0)
        qs = np.linspace(1.0, 6.0, 11)
        tops = [np.max(oracles.complex_momentum_transform(b, q)) for q in qs]
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
                top = np.max(oracles.complex_momentum_transform(b, q))
                assert top <= log_l1 + support * q + 1e-9

    def test_exponential_tails_diverge_beyond_mass(self):
        # field exp(-|x|): transform windowed to [-L/2, L/2] has closed form;
        # for q > m the maximum grows linearly in L, for q < m it is L-stable
        for q, min_growth, max_growth in [(0.5, -0.01, 0.01), (1.5, 15.0, 17.0)]:
            tops = {}
            for n, L in [(2048, 64.0), (4096, 128.0)]:
                g = UniformGrid(n, L / n)
                f = Field(g, np.exp(-np.abs(g.x)))
                tops[L] = np.max(oracles.complex_momentum_transform(f, q))
                expected = oracles.windowed_exponential_log_transform(q, L)
                assert tops[L] == pytest.approx(expected, abs=0.02)
            growth = tops[128.0] - tops[64.0]
            assert min_growth <= growth <= max_growth

    def test_overflow_guard(self):
        g = UniformGrid(4096, 1 / 64)
        b = make_bump(g, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="overflow"):
            oracles.complex_momentum_transform(b, 30.0)

    def test_zero_field_gives_minus_infinity(self, grid):
        f = Field(grid, np.zeros(grid.n))
        assert np.all(np.isneginf(oracles.complex_momentum_transform(f, 1.0)))
