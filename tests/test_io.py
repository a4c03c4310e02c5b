import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from kglab import cli
from kglab.cli import FIELD_SCHEMA
from kglab.dispersion import Mass
from kglab.io import write_csv, write_json
from kglab.propagator import pauli_jordan
from kglab.spectral import Field, UniformGrid, make_bump

#: cells whose repr is easy to get wrong: signed zero, the smallest
#: subnormal, the switch to exponent form at 1e16 and below 1e-4, and a
#: decimal that is not a binary fraction
EDGE_VALUES = [-0.0, 5e-324, 1e16, 1e-5, 0.1, -1e16, 1e-4, 123456789.0, 2.5e-308, -7.0]


def random_field() -> Field:
    g = UniformGrid(256, 1 / 16)
    rng = np.random.default_rng(2)
    return Field(g, rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))


def words(values) -> np.ndarray:
    """The IEEE-754 bit patterns of float64 cells."""
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


def snapshot_csv(f: Field, path) -> None:
    """A CSV snapshot as the runner writes it: ``write_csv`` with the grid column."""
    cli._write_field(f, path, "csv")


def snapshot_json(f: Field, path) -> None:
    """A field's envelope as the runner writes it: ``write_json`` with re/im arrays."""
    cli._write_field(f, path, "json")


def slice_csv(sample, path) -> None:
    """A kernel slice as the runner writes it: ``write_csv`` with the grid column."""
    cli._write_slice(sample, path)


def test_field_json_roundtrip_is_exact(tmp_path):
    f = random_field()
    g = f.grid
    path = tmp_path / "field.json"
    snapshot_json(f, path)
    payload = json.loads(path.read_text())
    assert payload["schema"] == FIELD_SCHEMA
    assert payload["grid"] == {"n": g.n, "dx": g.dx, "L": g.L}
    assert np.array_equal(words(payload["re"]), words(f.values.real))
    assert np.array_equal(words(payload["im"]), words(f.values.imag))


def test_field_csv_columns(tmp_path):
    g = UniformGrid(64, 0.25)
    f = make_bump(g, 0.0, 2.0, 1.0)
    path = tmp_path / "field.csv"
    snapshot_csv(f, path)
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
    snapshot_json(f, a)
    snapshot_json(f, b)
    assert a.read_bytes() == b.read_bytes()


def test_propagator_slice_csv(tmp_path):
    g = UniformGrid(256, 1 / 16)
    sample = pauli_jordan(1.0, g, Mass(1.0))
    path = tmp_path / "slice.csv"
    slice_csv(sample, path)
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
        assert_same_bytes(tmp_path, snapshot_csv, oracles.reference_field_csv, field)
    else:
        assert_same_bytes(tmp_path, snapshot_json, oracles.reference_field_json, field)


def test_propagator_slice_matches_the_reference_writer(tmp_path):
    sample = pauli_jordan(1.0, UniformGrid(256, 1 / 16), Mass(1.0))
    assert_same_bytes(tmp_path, slice_csv, oracles.reference_slice_csv, sample)


def test_propagator_slice_edge_values_match_the_reference_writer(tmp_path):
    f = edge_field()
    sample = SimpleNamespace(grid=f.grid, delta=f, delta_plus=f)
    assert_same_bytes(tmp_path, slice_csv, oracles.reference_slice_csv, sample)


def test_slices_on_one_grid_share_their_x_cells(tmp_path):
    from kglab import io

    grid = UniformGrid(256, 1 / 16)
    writes = [
        (slice_csv, oracles.reference_slice_csv, pauli_jordan(1.0, grid, Mass(1.0))),
        (slice_csv, oracles.reference_slice_csv, pauli_jordan(2.0, grid, Mass(1.0))),
        (snapshot_csv, oracles.reference_field_csv, make_bump(UniformGrid(64, 0.25), 0.0, 2.0, 1.0)),
    ]
    io._x_cells.cache_clear()
    for i, (write, reference, obj) in enumerate(writes):
        write(obj, tmp_path / f"new{i}.csv")
        reference(obj, tmp_path / f"ref{i}.csv")
        assert (tmp_path / f"new{i}.csv").read_bytes() == (tmp_path / f"ref{i}.csv").read_bytes()
    # the second slice reused the first one's cells; the field's grid replaced them
    info = io._x_cells.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 2, 1)


def test_write_csv_refuses_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "ragged.csv", ["a", "b"], [[1.0, 2.0], [1.0]])


def test_write_json_refuses_non_finite_values(tmp_path):
    with pytest.raises(ValueError, match="JSON compliant"):
        write_json(tmp_path / "report.json", {"value": math.nan})


def sparse_columns(n: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Two columns of mostly exact zeros: long +0.0 runs, an isolated -0.0,
    a -0.0 run, the smallest subnormal between zeros, and nonzero runs."""
    rng = np.random.default_rng(7)
    sparse = np.zeros(n)
    sparse[8:16] = rng.standard_normal(8)
    sparse[20] = -0.0
    sparse[24:30] = -0.0
    sparse[33] = 5e-324
    sparse[35] = -5e-324
    sparse[40:44] = [1e16, -1e-5, 0.1, -7.0]
    # a single zero in an otherwise nonzero column
    dense = rng.standard_normal(n)
    dense[n // 3] = 0.0
    return sparse, dense


def sparse_fields(n: int = 64) -> tuple[Field, Field]:
    sparse, dense = sparse_columns(n)
    grid = UniformGrid(n, 0.1)
    # set parts directly: re + 1j * im would turn a -0.0 into 0.0
    a = np.zeros(n, dtype=complex)  # an all-zero imaginary column
    a.real = sparse
    b = np.empty(n, dtype=complex)
    b.real, b.imag = dense, sparse[::-1]
    return Field(grid, a), Field(grid, b)


def zero_edge_fields(n: int = 32) -> list[Field]:
    """An all-zero field; one whose ``re`` column's only zero is its first
    cell and whose ``im`` column's only zero is its last; and one whose
    ``re`` column is a -0.0 run among +0.0 cells."""
    grid = UniformGrid(n, 0.1)
    rng = np.random.default_rng(11)
    edges = np.empty(n, dtype=complex)
    edges.real, edges.imag = rng.standard_normal(n), rng.standard_normal(n)
    edges.real[0] = edges.imag[-1] = 0.0
    signed = np.zeros(n, dtype=complex)
    signed.real[10:14] = -0.0
    return [Field(grid, np.zeros(n)), Field(grid, edges), Field(grid, signed)]


def leapfrog_snapshot() -> Field:
    from kglab.evolution import CauchyData, evolve_local_fd_ladder

    grid = UniformGrid(4096, 1 / 64)
    data = CauchyData(make_bump(grid, 0.0, 1.0, 1.0), Field(grid, np.zeros(grid.n)), Mass(1.0))
    return evolve_local_fd_ladder(data, [8.0], grid.dx / 2)[0].phi


@pytest.mark.parametrize(
    "field", [random_field(), leapfrog_snapshot(), edge_field()], ids=["random", "local-fd-snapshot", "edge-values"]
)
def test_field_csv_roundtrip_is_exact(tmp_path, field):
    path = tmp_path / "field.csv"
    snapshot_csv(field, path)
    x, re, im = zip(*(map(float, line.split(",")) for line in path.read_text().splitlines()[1:]))
    assert np.array_equal(words(x), words(field.grid.x))
    assert np.array_equal(words(re), words(field.values.real))
    assert np.array_equal(words(im), words(field.values.imag))


@pytest.mark.parametrize(
    "field", [random_field(), leapfrog_snapshot(), edge_field()], ids=["random", "local-fd-snapshot", "edge-values"]
)
def test_field_envelope_and_csv_hold_the_same_words(tmp_path, field):
    # either file rebuilds the field, so either can stand in for the other
    snapshot_json(field, tmp_path / "field.json")
    snapshot_csv(field, tmp_path / "field.csv")
    payload = json.loads((tmp_path / "field.json").read_text())
    _, re, im = zip(*(map(float, line.split(",")) for line in (tmp_path / "field.csv").read_text().splitlines()[1:]))
    assert np.array_equal(words(payload["re"]), words(re))
    assert np.array_equal(words(payload["im"]), words(im))
    assert np.array_equal(words(payload["re"]), words(field.values.real))
    assert np.array_equal(words(payload["im"]), words(field.values.imag))


@pytest.mark.parametrize(
    "field",
    [*sparse_fields(), leapfrog_snapshot(), *zero_edge_fields()],
    ids=["sparse", "single-zero", "local-fd-snapshot", "all-zero", "zero-first-and-last", "signed-zero-run"],
)
@pytest.mark.parametrize("kind", ["csv", "json"])
def test_field_writers_match_the_reference_writers_on_exact_zeros(tmp_path, field, kind):
    assert (field.values.view(float) == 0).any()
    if kind == "csv":
        assert_same_bytes(tmp_path, snapshot_csv, oracles.reference_field_csv, field)
    else:
        assert_same_bytes(tmp_path, snapshot_json, oracles.reference_field_json, field)


@pytest.mark.parametrize("fields", [sparse_fields(), (leapfrog_snapshot(),) * 2], ids=["sparse", "local-fd-snapshot"])
def test_propagator_slice_matches_the_reference_writer_on_exact_zeros(tmp_path, fields):
    sample = SimpleNamespace(grid=fields[0].grid, delta=fields[0], delta_plus=fields[1])
    assert_same_bytes(tmp_path, slice_csv, oracles.reference_slice_csv, sample)


def test_write_csv_matches_the_csv_module_on_exact_zeros(tmp_path):
    sparse, dense = sparse_columns()
    columns = [sparse, dense, np.zeros(sparse.size), -sparse]

    def write(path):
        write_csv(path, ["a", "b", "c", "d"], columns)

    def reference(path):
        oracles.reference_csv(path, ["a", "b", "c", "d"], zip(*columns))

    assert_same_bytes(tmp_path, write, reference)


#: cells drawn three times in four from the signed zeros
ZERO_HEAVY = st.one_of(*[st.sampled_from([0.0, -0.0])] * 3, st.floats(width=64))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(ZERO_HEAVY, ZERO_HEAVY), max_size=30))
def test_write_csv_matches_the_csv_module_on_mostly_zero_cells(tmp_path_factory, rows):
    tmp = tmp_path_factory.mktemp("csv")
    columns = [list(col) for col in zip(*rows)] or [[], []]
    write_csv(tmp / "new.csv", ["a", "b"], columns)
    oracles.reference_csv(tmp / "ref.csv", ["a", "b"], rows)
    assert (tmp / "new.csv").read_bytes() == (tmp / "ref.csv").read_bytes()


def test_positive_zero_cells_share_one_string():
    from kglab import io

    sparse, _ = sparse_columns()
    cells = list(io._cells(sparse))
    assert cells == [repr(float(v)) for v in sparse]
    positive_zero = (sparse == 0) & ~np.signbit(sparse)
    assert len({id(c) for c, z in zip(cells, positive_zero) if z}) == 1
    assert [c for c, v in zip(cells, sparse) if v == 0 and np.signbit(v)] == ["-0.0"] * 7


#: float cells for JSON arrays: any finite float, drawn often from the
#: signed zeros and the subnormals
FINITE_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308]),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
)
FLOAT_ARRAYS = st.lists(FINITE_CELLS, max_size=12).map(lambda cells: np.array(cells, dtype=float))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(st.text(max_size=6), JSON_VALUES | FLOAT_ARRAYS, max_size=6))
def test_write_json_matches_json_dump(tmp_path_factory, payload):
    tmp = tmp_path_factory.mktemp("json")
    write_json(tmp / "new.json", payload)
    as_lists = {key: value.tolist() if isinstance(value, np.ndarray) else value for key, value in payload.items()}
    with open(tmp / "ref.json", "w") as fh:
        json.dump(as_lists, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    assert (tmp / "new.json").read_bytes() == (tmp / "ref.json").read_bytes()


@pytest.mark.parametrize("cells", [[1.0, math.nan], [math.inf], [0.0, -0.0, -math.inf]])
def test_write_json_refuses_non_finite_array_cells(tmp_path, cells):
    with pytest.raises(ValueError, match="JSON compliant"):
        write_json(tmp_path / "field.json", {"grid": {"n": 2}, "re": np.array(cells)})


def test_write_json_writes_an_empty_array_as_json_does(tmp_path):
    write_json(tmp_path / "empty.json", {"im": np.array([]), "re": np.zeros(0)})
    assert (tmp_path / "empty.json").read_text() == '{\n  "im": [],\n  "re": []\n}\n'
