import numpy as np
import pytest

from doqr import (
    CsvFormatError,
    Dataset,
    SeedSpec,
    SingularMatrixError,
    affine_transform,
    load_csv,
    write_csv,
)


def test_load_csv_basic(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("1,2\n3,4\n")
    ds = load_csv(p)
    assert ds.n == 2 and ds.d == 2
    assert np.array_equal(ds.data, [[1.0, 2.0], [3.0, 4.0]])


def test_load_csv_header(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("x,y\n0,0\n")
    ds = load_csv(p, has_header=True)
    assert ds.n == 1 and ds.d == 2
    assert np.array_equal(ds.data, [[0.0, 0.0]])


def test_load_csv_ragged_row_reports_location(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("1,2\n3\n")
    with pytest.raises(CsvFormatError, match="row 2"):
        load_csv(p)


def test_load_csv_non_numeric_reports_location(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("1,2\n3,oops\n")
    with pytest.raises(CsvFormatError, match="row 2, column 2"):
        load_csv(p)


def test_load_csv_non_finite_reports_location(tmp_path):
    p = tmp_path / "a.csv"
    for text, where in (
        ("1,2\nnan,4\n", "row 2, column 1"),
        ("1,inf\n3,4\n", "row 1, column 2"),
        ("1,2\n3,-Infinity\n", "row 2, column 2"),
        ("1e999,2\n", "row 1, column 1"),  # overflows to inf
    ):
        p.write_text(text)
        with pytest.raises(CsvFormatError, match=where):
            load_csv(p)


def test_load_csv_empty(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("")
    with pytest.raises(CsvFormatError):
        load_csv(p)
    p.write_text("x,y\n")
    with pytest.raises(CsvFormatError):
        load_csv(p, has_header=True)


def test_csv_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(17)
    # mix of awkward magnitudes; round trip must be bit-identical
    vals = np.concatenate(
        [
            rng.standard_normal(40),
            rng.standard_normal(20) * 1e-300,
            rng.standard_normal(20) * 1e300,
            np.array([0.1, 1 / 3, 2 / 3, 1e-17, -0.0]),
        ]
    )
    ds = Dataset(vals.reshape(-1, 5))
    p = tmp_path / "rt.csv"
    write_csv(ds, p)
    back = load_csv(p)
    assert back == ds
    assert np.array_equal(back.data, ds.data)


def test_write_csv_header_round_trip(tmp_path):
    ds = Dataset([[1.5, 2.5]])
    p = tmp_path / "h.csv"
    write_csv(ds, p, header=["a", "b"])
    assert load_csv(p, has_header=True) == ds
    with pytest.raises(ValueError):
        write_csv(ds, p, header=["only-one"])


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.empty((0, 2)))
    with pytest.raises(ValueError):
        Dataset([[1.0, np.nan]])
    with pytest.raises(ValueError):
        Dataset([[np.inf, 0.0]])


def test_dataset_immutable_and_hashable():
    ds = Dataset([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        ds.data[0, 0] = 9.0
    with pytest.raises(AttributeError):
        ds.n = 5
    assert hash(ds) == hash(Dataset([[1, 2], [3, 4]]))
    assert ds == Dataset([[1, 2], [3, 4]])
    assert ds != Dataset([[1, 2], [3, 5]])


def test_dataset_equality_matches_hash():
    # +0.0 and -0.0 hash apart (the bytes differ), so they must compare apart:
    # a set or a per-dataset cache keeps both, each with its own results
    pos, neg = Dataset([[0.0, 1], [2, 3]]), Dataset([[-0.0, 1], [2, 3]])
    assert pos != neg and len({pos, neg}) == 2
    assert pos == Dataset([[0.0, 1.0], [2.0, 3.0]]) and len({pos, Dataset([[0, 1], [2, 3]])}) == 1
    assert Dataset([[1.0, 2.0]]) != Dataset([[1.0], [2.0]])
    # equal datasets share cached results, so they share one memory layout:
    # numpy's reductions (a mean over the rows) round differently by layout
    fortran = Dataset(np.asfortranarray([[0.0, 1.0], [2.0, 3.0]]))
    assert fortran == pos and fortran.data.flags.c_contiguous


def test_affine_identity():
    ds = Dataset([[1, 2], [3, 4]])
    out = affine_transform(ds, np.eye(2), [0, 0])
    assert out == ds


def test_affine_scale_shift():
    ds = Dataset([[1, 0]])
    out = affine_transform(ds, 2 * np.eye(2), [0, 1])
    assert np.array_equal(out.data, [[2.0, 1.0]])


def test_affine_singular_rejected():
    ds = Dataset([[1, 0], [0, 1]])
    with pytest.raises(SingularMatrixError):
        affine_transform(ds, [[1, 1], [1, 1]], [0, 0])


def test_affine_dimension_mismatch():
    ds = Dataset([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        affine_transform(ds, np.eye(3), [0, 0, 0])
    with pytest.raises(ValueError):
        affine_transform(ds, np.eye(2), [0, 0, 0])


def test_affine_inverse_round_trip():
    rng = np.random.default_rng(5)
    ds = Dataset(rng.standard_normal((30, 3)))
    for _ in range(10):
        A = rng.standard_normal((3, 3))
        if abs(np.linalg.det(A)) < 0.1:
            continue
        b = rng.standard_normal(3)
        fwd = affine_transform(ds, A, b)
        Ainv = np.linalg.inv(A)
        back = affine_transform(fwd, Ainv, -Ainv @ b)
        assert np.max(np.abs(back.data - ds.data)) <= 1e-9


def test_affine_bitwise_per_coordinate_and_per_row():
    # (A x)_i + b_i summed left to right in plain floats, with no fused
    # multiply-add; and a row alone transforms exactly as inside the sample
    rng = np.random.default_rng(8)
    for d in (1, 2, 3, 5):
        x = rng.standard_normal((40, d)) * 10.0 ** rng.integers(-3, 4, (40, 1))
        A, b = rng.standard_normal((d, d)), rng.standard_normal(d)
        out = affine_transform(Dataset(x), A, b).data
        for p, row in zip(x.tolist(), out):
            want = []
            for i in range(d):
                acc = p[0] * A[i, 0]
                for k in range(1, d):
                    acc = acc + p[k] * A[i, k]
                want.append(float(acc + b[i]))
            assert row.tolist() == want
            assert affine_transform(Dataset([p]), A, b).data[0].tobytes() == row.tobytes()


def test_seedspec_substreams_deterministic_and_order_free():
    spec = SeedSpec(123)
    a1 = spec.generator(0, 4).standard_normal(5)
    b1 = spec.generator(1, 2).standard_normal(5)
    # opposite creation order, separate SeedSpec instance
    b2 = SeedSpec(123).generator(1, 2).standard_normal(5)
    a2 = SeedSpec(123).generator(0, 4).standard_normal(5)
    assert np.array_equal(a1, a2)
    assert np.array_equal(b1, b2)
    assert not np.array_equal(a1, b1)


def test_seedspec_validation():
    with pytest.raises(ValueError):
        SeedSpec(-1)
    with pytest.raises(ValueError):
        SeedSpec(1 << 64)
    with pytest.raises(TypeError):
        SeedSpec(1.5)
    with pytest.raises(TypeError, match="master_seed"):  # a JSON true is no seed
        SeedSpec(True)


def test_seedspec_numpy_integer_is_a_plain_int():
    # the rule of DepthConfig and ContaminationSpec: a report must still serialise
    for seed in (np.int64(3), np.uint64(3)):
        spec = SeedSpec(seed)
        assert type(spec.master_seed) is int
        assert spec == SeedSpec(3) and hash(spec) == hash(SeedSpec(3))
        assert np.array_equal(spec.generator(0, 1).random(4), SeedSpec(3).generator(0, 1).random(4))
    assert SeedSpec(np.uint64((1 << 64) - 1)).master_seed == (1 << 64) - 1
    for flag in (True, np.bool_(True)):
        with pytest.raises(TypeError, match="master_seed must be an int, got bool"):
            SeedSpec(flag)
