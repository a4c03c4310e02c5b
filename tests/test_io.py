import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from kglab import Field, Mass, UniformGrid, make_bump, pauli_jordan
from kglab.io import (
    field_from_json,
    field_to_csv,
    field_to_json,
    propagator_slice_to_csv,
    write_csv,
    write_json,
)

#: cells whose repr is easy to get wrong: signed zero, the smallest
#: subnormal, the switch to exponent form at 1e16 and below 1e-4, and a
#: decimal that is not a binary fraction
EDGE_VALUES = [-0.0, 5e-324, 1e16, 1e-5, 0.1, -1e16, 1e-4, 123456789.0, 2.5e-308, -7.0]


def test_field_json_roundtrip_is_exact(tmp_path):
    g = UniformGrid(256, 1 / 16)
    rng = np.random.default_rng(2)
    f = Field(g, rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
    path = tmp_path / "field.json"
    field_to_json(f, path)
    back = field_from_json(path)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)


def test_field_csv_columns(tmp_path):
    g = UniformGrid(64, 0.25)
    f = make_bump(g, 0.0, 2.0, 1.0)
    path = tmp_path / "field.csv"
    field_to_csv(f, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,re,im"
    assert len(lines) == g.n + 1
    x0, re0, im0 = lines[1].split(",")
    assert float(x0) == g.x[0]
    assert float(re0) == f.values[0].real


def test_writes_are_deterministic(tmp_path):
    g = UniformGrid(64, 0.25)
    f = make_bump(g, 0.0, 2.0, 1.0)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    field_to_json(f, a)
    field_to_json(f, b)
    assert a.read_bytes() == b.read_bytes()


def test_non_envelope_rejected(tmp_path):
    path = tmp_path / "bad.json"
    write_json(path, {"schema": "something-else"})
    with pytest.raises(ValueError, match="envelope"):
        field_from_json(path)


def test_propagator_slice_csv(tmp_path):
    g = UniformGrid(256, 1 / 16)
    sample = pauli_jordan(1.0, g, Mass(1.0))
    path = tmp_path / "slice.csv"
    propagator_slice_to_csv(sample, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,re_delta,im_delta,re_delta_plus,im_delta_plus"
    assert len(lines) == g.n + 1


def assert_same_bytes(tmp_path, write, reference, *args):
    new, ref = tmp_path / "new", tmp_path / "ref"
    write(*args, new)
    reference(*args, ref)
    assert new.read_bytes() == ref.read_bytes()


def edge_field(n: int = 16) -> Field:
    # set parts directly: re + 1j * im would turn a -0.0 into 0.0
    values = np.empty(n, dtype=complex)
    values.real = np.resize(EDGE_VALUES, n)
    values.imag = values.real[::-1]
    return Field(UniformGrid(n, 0.1), values)


@pytest.mark.parametrize(
    "header,columns",
    [
        (["a", "b"], [EDGE_VALUES, EDGE_VALUES[::-1]]),
        # integer cells, as config times arrive from JSON
        (["t", "v"], [[1, 2, 8], [0.5, 3, -4]]),
        # a series column with non-finite values
        (["t", "leak"], [[1.0, 2.0, 3.0, 4.0], [math.nan, math.inf, -math.inf, 0.25]]),
        # one-row tables
        (["t"], [[2.0]]),
        (["t", "energy", "joint_support_radius", "cone_leakage"], [[4], [1e-5], [0.1], [5e-324]]),
        (["x", "y"], [np.arange(3, dtype=np.int64), np.float32([0.1, 1e-5, 3.0])]),
        (["t", "v"], [[], []]),
    ],
)
def test_write_csv_matches_the_csv_module(tmp_path, header, columns):
    def write(path):
        write_csv(path, header, columns)

    def reference(path):
        oracles.reference_csv(path, header, zip(*columns))

    assert_same_bytes(tmp_path, write, reference)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.floats(width=64), st.floats(width=64), st.integers(-10**6, 10**6)), max_size=20))
def test_write_csv_matches_the_csv_module_on_any_floats(tmp_path_factory, rows):
    tmp = tmp_path_factory.mktemp("csv")
    columns = [list(col) for col in zip(*rows)] or [[], [], []]
    write_csv(tmp / "new.csv", ["a", "b", "c"], columns)
    oracles.reference_csv(tmp / "ref.csv", ["a", "b", "c"], rows)
    assert (tmp / "new.csv").read_bytes() == (tmp / "ref.csv").read_bytes()


@pytest.mark.parametrize(
    "field",
    [
        edge_field(),
        make_bump(UniformGrid(64, 0.25), 0.0, 2.0, 1.0),
        Field(UniformGrid(256, 1 / 16), [1, 1j] @ np.random.default_rng(5).standard_normal((2, 256))),
    ],
    ids=["edge-values", "real-bump", "complex-noise"],
)
@pytest.mark.parametrize("kind", ["csv", "json"])
def test_field_writers_match_the_reference_writers(tmp_path, field, kind):
    if kind == "csv":
        assert_same_bytes(tmp_path, field_to_csv, oracles.reference_field_csv, field)
    else:
        assert_same_bytes(tmp_path, field_to_json, oracles.reference_field_json, field)


@pytest.mark.parametrize("m", [1.0, 0.0], ids=["with-delta-plus", "massless"])
def test_propagator_slice_matches_the_reference_writer(tmp_path, m):
    sample = pauli_jordan(1.0, UniformGrid(256, 1 / 16), Mass(m))
    assert (sample.delta_plus is None) == (m == 0.0)
    assert_same_bytes(tmp_path, propagator_slice_to_csv, oracles.reference_slice_csv, sample)


def test_propagator_slice_edge_values_match_the_reference_writer(tmp_path):
    f = edge_field()
    for plus in (f, None):
        sample = SimpleNamespace(grid=f.grid, delta=f, delta_plus=plus)
        assert_same_bytes(tmp_path, propagator_slice_to_csv, oracles.reference_slice_csv, sample)


def test_write_csv_refuses_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "ragged.csv", ["a", "b"], [[1.0, 2.0], [1.0]])


def test_write_json_refuses_non_finite_values(tmp_path):
    with pytest.raises(ValueError, match="JSON compliant"):
        write_json(tmp_path / "report.json", {"value": math.nan})
