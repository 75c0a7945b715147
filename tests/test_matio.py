import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rebrick import matio
from rebrick.errors import MatrixParseError
from support import (
    reference_format_cell,
    reference_load_csv,
    reference_load_json,
    reference_save_csv,
    reference_save_json,
)


class TestCells:
    def test_plain_reals(self):
        assert matio.parse_cell("1.5", 1, 1) == 1.5
        assert matio.parse_cell("-2", 1, 1) == -2.0
        assert matio.parse_cell("+.5", 1, 1) == 0.5
        assert matio.parse_cell("1e-3", 1, 1) == 1e-3

    def test_complex_cells(self):
        assert matio.parse_cell("1.5-0.25i", 1, 1) == 1.5 - 0.25j
        assert matio.parse_cell("1.5+0.25i", 1, 1) == 1.5 + 0.25j
        assert matio.parse_cell("0+1i", 1, 1) == 1j
        assert matio.parse_cell("-1e2-3e-1i", 1, 1) == complex(-100.0, -0.3)

    def test_malformed_cells(self):
        for bad in ("1+2x", "i", "1 + 2i", "2i", "--3", ""):
            with pytest.raises(MatrixParseError):
                matio.parse_cell(bad, 3, 2)
        try:
            matio.parse_cell("1+2x", 3, 2)
        except MatrixParseError as exc:
            assert exc.row == 3 and exc.col == 2

    def test_format_round_trip(self):
        for v in (1.0, -0.1, 1e-17, 123456.789, 1.5 - 0.25j, -2j + 0.5):
            text = matio.format_cell(v)
            assert matio.parse_cell(text, 1, 1) == v


class TestCsv:
    def test_real_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((4, 6))
        p = tmp_path / "m.csv"
        matio.save_csv(p, M)
        back = matio.load_csv(p)
        assert back.dtype == np.float64
        np.testing.assert_allclose(back, M, rtol=0, atol=1e-15 * np.max(np.abs(M)))

    def test_complex_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        p = tmp_path / "m.csv"
        matio.save_csv(p, M)
        back = matio.load_csv(p)
        np.testing.assert_array_equal(back, M)  # %.17g round-trips doubles

    def test_ragged_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(MatrixParseError):
            matio.load_csv(p)

    def test_cell_position_reported(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\n3,1+2x\n")
        with pytest.raises(MatrixParseError) as exc:
            matio.load_csv(p)
        assert exc.value.row == 2 and exc.value.col == 2


class TestJson:
    def test_real_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((5, 2))
        p = tmp_path / "m.json"
        matio.save_json(p, M)
        np.testing.assert_array_equal(matio.load_json(p), M)

    def test_complex_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
        p = tmp_path / "m.json"
        matio.save_json(p, M)
        np.testing.assert_array_equal(matio.load_json(p), M)

    def test_shape_fields_checked(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"rows": 3, "cols": 2, "data": [[1, 2], [3, 4]]}')
        with pytest.raises(MatrixParseError):
            matio.load_json(p)

    @pytest.mark.parametrize(
        "text",
        [
            '{"data": []}',
            '{"data": 5}',
            '{"data": [1, 2]}',
            '{"data": [[]]}',
            '{"rows": "x", "data": [[1]]}',
            '{"rows": true, "data": [[1]]}',
            '{"rows": 1.0, "data": [[1]]}',
            '{"cols": "2", "data": [[1, 2]]}',
            '{"rows": 1, "cols": 3, "data": [[1, 2]]}',
        ],
    )
    def test_schema_violation_rejected(self, tmp_path, text):
        p = tmp_path / "bad.json"
        p.write_text(text)
        with pytest.raises(MatrixParseError):
            matio.load_json(p)

    def test_bad_cell_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"rows": 1, "cols": 2, "data": [[1, "x"]]}')
        with pytest.raises(MatrixParseError) as exc:
            matio.load_json(p)
        assert exc.value.row == 1 and exc.value.col == 2

    def test_extension_dispatch(self, tmp_path):
        M = np.eye(2)
        for name in ("m.csv", "m.json"):
            p = tmp_path / name
            matio.save_matrix(p, M)
            np.testing.assert_array_equal(matio.load_matrix(p), M)


class TestEscapes:
    """Files that fail in Python's own parsers still fail as a MatrixParseError."""

    def test_integer_above_float64_names_its_cell(self, tmp_path):
        big = "1" + "0" * 400
        for data, col in ((f"[[1, {big}]]", 2), (f"[[1, 2, [{big}, 0]]]", 3)):
            p = tmp_path / "big.json"
            p.write_text(f'{{"data": {data}}}')
            with pytest.raises(MatrixParseError, match="float64 range") as exc:
                matio.load_json(p)
            assert (exc.value.row, exc.value.col) == (1, col)

    def test_integer_beyond_the_digit_limit(self, tmp_path):
        p = tmp_path / "long.json"
        p.write_text('{"data": [[1, ' + "1" * 4301 + "]]}")  # Python's default limit is 4300
        with pytest.raises(MatrixParseError, match="float64 range"):
            matio.load_json(p)

    @pytest.mark.parametrize(
        "name, content",
        [("bad.csv", b"1,2\n3,4\xff\n"), ("bad.json", b'{"data": [[1]], "note": "\xff"}')],
    )
    def test_not_utf8(self, tmp_path, name, content):
        p = tmp_path / name
        p.write_bytes(content)
        with pytest.raises(MatrixParseError, match="not UTF-8"):
            matio.load_matrix(p)

    def test_nested_too_deeply(self, tmp_path):
        p = tmp_path / "deep.json"
        p.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(MatrixParseError, match="nested too deeply"):
            matio.load_json(p)


class TestCaps:
    """The cell cap, patched down so that no large file is written."""

    @pytest.fixture(autouse=True)
    def six_cells(self, monkeypatch):
        monkeypatch.setattr(matio, "MAX_CELLS", 6)

    def test_csv_cells(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2,3\n\n4,5,6\n")
        assert matio.load_csv(p).shape == (2, 3)
        p.write_text("1,2,3\n\n4,5,6\n7,8,9\n")
        with pytest.raises(MatrixParseError, match="more than 6 cells") as exc:
            matio.load_csv(p)
        assert exc.value.row == 4

    @pytest.mark.parametrize(
        "doc",
        [
            {"rows": 1, "cols": 7, "data": [[1]]},  # declared 7 cells, 1 in the data
            {"data": [[1] * 4, [2] * 4]},
            {"cols": 1, "data": [[1], [1] * 6]},  # declared 2 cells, 7 in the data
        ],
    )
    def test_json_cells(self, tmp_path, doc):
        p = tmp_path / "m.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(MatrixParseError, match="more than 6 cells"):
            matio.load_json(p)

    @pytest.mark.parametrize("name", ["m.csv", "m.json"])
    def test_file_size_checked_before_reading(self, tmp_path, monkeypatch, name):
        p = tmp_path / name
        p.write_text("1" + " " * 6 * 64)

        def refuse(*args, **kwargs):
            raise AssertionError("an oversized file was read")

        for read in ("read_text", "read_bytes"):
            monkeypatch.setattr(matio.Path, read, refuse)
        with pytest.raises(MatrixParseError, match="385 bytes exceeds the cap of 384 bytes"):
            matio.load_matrix(p)


class TestReadOnce:
    """A file is read once, as bytes; its text is what open() reads in text mode."""

    @pytest.mark.parametrize(
        "ext, content", [("csv", b"1,2\r\n1,2\r\n"), ("json", b'{"data": [[1, 2]]}\r\n')]
    )
    def test_digest_is_of_the_bytes_read(self, tmp_path, ext, content):
        p = tmp_path / f"m.{ext}"
        p.write_bytes(content)
        digest = hashlib.sha256()
        assert matio.load_matrix(p, digest)[0].tolist() == [1.0, 2.0]
        assert digest.hexdigest() == hashlib.sha256(content).hexdigest()

    @pytest.mark.parametrize(
        "content",
        [
            b"\xff",
            b"1,2\r\n" * 5000 + b"\xff\n",  # past the first 8 KiB, after CRLF line ends
            b"1,2\r" * 3000 + b"3,\xe2\x82",  # a truncated multi-byte sequence at the end
            b"1,\xed\xa0\x80\n",  # an encoded surrogate
            b"1,\xc0\xaf\n",  # an overlong encoding
        ],
    )
    def test_not_utf8_position_as_text_mode_reads_it(self, tmp_path, content):
        p = tmp_path / "bad.csv"
        p.write_bytes(content)
        with pytest.raises(UnicodeDecodeError) as text_mode:
            p.read_text(encoding="utf-8")
        exc = text_mode.value
        with pytest.raises(MatrixParseError) as parsed:
            matio.load_csv(p)
        assert str(parsed.value) == f"{p}: not UTF-8 text ({exc.reason} at byte {exc.start})"

    def test_line_breaks_are_not_listed_whole(self, tmp_path):
        # 2 MiB of line breaks: 16 MiB as one list of lines, 4 MiB as bytes plus text
        p = tmp_path / "breaks.csv"
        p.write_bytes(b"\n" * 2**21 + b"1")
        tracemalloc.start()
        try:
            A = matio.load_csv(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert A.tolist() == [[1.0]]
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# ------------------------------------- pinned against the per-cell reference

def _outcome(load, path):
    """What a reader makes of a file: the array's exact bytes, or the parse error."""
    try:
        A = load(path)
    except MatrixParseError as exc:
        return ("error", str(exc), exc.row, exc.col)
    return ("array", A.dtype.str, A.shape, A.tobytes())


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return tmp_path_factory.mktemp("reference")


_SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300, 1e-300, -1e-300,
    1.7976931348623157e308, 0.1, -1.5, 1.0, float("nan"), float("inf"), float("-inf"),
]
_FLOATS = st.one_of(st.sampled_from(_SPECIAL), st.floats())


@st.composite
def _matrices(draw):
    rows, cols = draw(
        st.one_of(
            st.sampled_from([(1, 1), (1, 6), (6, 1)]),
            st.tuples(st.integers(1, 4), st.integers(1, 4)),
        )
    )
    n = rows * cols
    kind = draw(st.sampled_from(["real", "complex", "int", "bool"]))
    if kind == "real":
        A = np.array(draw(st.lists(_FLOATS, min_size=n, max_size=n)), dtype=float)
    elif kind == "complex":
        A = np.empty(n, dtype=complex)
        A.real = draw(st.lists(_FLOATS, min_size=n, max_size=n))
        A.imag = draw(st.lists(_FLOATS, min_size=n, max_size=n))
    elif kind == "int":
        A = np.array(draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n)))
    else:
        A = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return A.reshape(rows, cols)


@settings(max_examples=300, deadline=None)
@given(A=_matrices(), ext=st.sampled_from(["csv", "json"]))
def test_writers_match_the_per_cell_reference(files, A, ext):
    write, reference = {
        "csv": (matio.save_csv, reference_save_csv),
        "json": (matio.save_json, reference_save_json),
    }[ext]
    write(files / f"new.{ext}", A)
    reference(files / f"reference.{ext}", A)
    assert (files / f"new.{ext}").read_bytes() == (files / f"reference.{ext}").read_bytes()


def _toeplitz(diagonals: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The rows x cols matrix whose entry (j, n) is diagonals[rows - 1 - j + n]."""
    j, n = np.ogrid[:rows, :cols]
    return diagonals[rows - 1 - j + n]


@st.composite
def _toeplitz_matrices(draw):
    """Toeplitz matrices, and near-Toeplitz ones: one cell's bits changed."""
    rows, cols = draw(
        st.one_of(
            st.sampled_from([(1, 1), (1, 6), (6, 1), (2, 2), (2, 7), (7, 2)]),
            st.tuples(st.integers(1, 6), st.integers(1, 6)),
        )
    )
    k = rows + cols - 1
    d = np.array(draw(st.lists(_FLOATS, min_size=k, max_size=k)), dtype=float)
    if draw(st.booleans()):
        d = d + 0j
        d.imag = draw(st.lists(_FLOATS, min_size=k, max_size=k))
    A = _toeplitz(d, rows, cols)
    change = draw(st.sampled_from(["none", "bit", "sign of zero"]))
    if change != "none":
        j, n = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        part = draw(st.sampled_from([A.real, A.imag] if A.dtype.kind == "c" else [A]))
        if change == "bit":
            part.view(np.int64)[j, n] ^= np.int64(1) << np.int64(draw(st.integers(0, 63)))
        else:  # -0.0 against 0.0: equal values, written apart
            part[j, n] = -0.0 if not np.signbit(part[j, n]) else 0.0
    return A


@settings(max_examples=400, deadline=None)
@given(A=_toeplitz_matrices())
def test_toeplitz_writers_match_the_per_cell_reference(files, A):
    for write, reference, ext in (
        (matio.save_csv, reference_save_csv, "csv"),
        (matio.save_json, reference_save_json, "json"),
    ):
        write(files / f"new.{ext}", A)
        reference(files / f"reference.{ext}", A)
        assert (files / f"new.{ext}").read_bytes() == (files / f"reference.{ext}").read_bytes()


def test_toeplitz_rule_reads_bits():
    d = np.array([1.0, 0.0, 2.0, np.nan, 3.0])
    A = _toeplitz(d, 3, 3)
    np.testing.assert_array_equal(matio._toeplitz_diagonals(A), d)
    A[2, 2] = -0.0  # equal to its neighbour 0.0 as a value, not as bits
    assert matio._toeplitz_diagonals(A) is None
    Z = _toeplitz(d + 1j * d[::-1], 3, 3)
    np.testing.assert_array_equal(matio._toeplitz_diagonals(Z), d + 1j * d[::-1])
    Z.imag[1, 2] = np.nan  # the real parts still agree
    assert matio._toeplitz_diagonals(Z) is None
    # a vector has no upper-left neighbours and goes the general way
    assert matio._toeplitz_diagonals(np.ones((1, 4))) is None


_CSV_CELLS = st.one_of(
    st.sampled_from(
        [
            "1", "-2", "+.5", "5.", "1e-3", "1E+300", "-0", "0.1", "1e309", "4.9e-324",
            "1+2i", "1.5-0.25i", "-0-0i", "0+1e-320i", "1e5+.5i", "3+0i",
            "\u0661", "\uff11.\uff15", "\u0663+\u0661i",
            " 1", "1 ", "\t2", "\u00a03", "4\u2003", "\u3000-1+1i", " 1+2i ",
            "", "nan", "inf", "-inf", "1_0", "0x1", "1+2x", "i", "2i", "1+i", "--3", "1 + 2i",
            "\ufeff1", "1e", "1.2.3", "+",
            # only the characters of a real row, yet not a number (the last two are numbers)
            ".", "e5", "1e+", "+-1", "1..2", "1e5.5", ".e1", "1e1e1", "5e", "-", "1.e5", "00.5e-0",
        ]
    ),
    _FLOATS.map(repr),
    st.tuples(_FLOATS, _FLOATS).map(lambda z: reference_format_cell(complex(*z))),
)


@st.composite
def _csv_texts(draw):
    width = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", " \u00a0 "])))
            continue
        count = draw(st.sampled_from([width] * 4 + [1, 2, 5]))
        cells = draw(st.lists(_CSV_CELLS, min_size=count, max_size=count))
        lines.append(",".join(cells) + draw(st.sampled_from(["", "", "", ","])))
    text = draw(st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x85", "\u2028", "\n\r"])).join(lines)
    text += draw(st.sampled_from(["", "\n", "\r\n"]))
    return draw(st.sampled_from(["", "", "", "\ufeff"])) + text


_CSV_CASES = [
    "1,2\n3,4\n",
    "1,2\n\n  \n3,4",
    "1,2\r\n3,4\r\n",
    "1,2\r3,4\r",
    " 1 ,\t2\n\u00a03,4\u2003\n",
    "1,2\n3,\n",
    "1,2,\n3,4,\n",
    "nan,1\n",
    "inf,1\n",
    "1_0,1\n",
    "0x1,1\n",
    "\ufeff1,2\n3,4\n",
    "1,2+3i\n4,5\n",
    "1+0i,2\n3,4-1e-300i\n",
    "1,2,3\nx,4\n",  # ragged, with a bad cell before the missing one
    "1,2\n3,4,5\n",
    "1,2\n3\n",
    "",
    "\n \n",
    "1,2\x0b3,4\x0c5,6\x1c7,8\n",  # every line end of str.splitlines
    "1,2\x1d3,4\x1e5,6\x857,8\u20289,0\u2029",
    "1,2\r\r\n3,4\n\r5,6",
    "\n" * 70_000 + "1,2\n3\n",  # a ragged row past the first block of lines
    "1,2\n" * 20_000 + "3,4",
    # the real-row alphabet without a number: float() refuses, parse_cell names the cell
    *(f"1,2\n3,{cell}\n" for cell in (".", "e5", "1e+", "+-1", "1..2", "1e5.5", ".e1", "1e1e1")),
    *(f"{cell},2\n3,4\n" for cell in ("5e", "-")),
    "1.e5,00.5e-0\n-1.e5,+00.5E-0\n",
    "\u0661,2\n3,\uff14e\u0661\n",  # non-ASCII digits in a real row stay real
]


@pytest.mark.parametrize("text", _CSV_CASES)
def test_csv_reader_cases_match_the_per_cell_reference(files, text):
    p = files / "case.csv"
    p.write_text(text, encoding="utf-8", newline="")
    assert _outcome(matio.load_csv, p) == _outcome(reference_load_csv, p)


@settings(max_examples=500, deadline=None)
@given(text=_csv_texts())
def test_csv_reader_matches_the_per_cell_reference(files, text):
    p = files / "drawn.csv"
    p.write_text(text, encoding="utf-8", newline="")
    assert _outcome(matio.load_csv, p) == _outcome(reference_load_csv, p)


_JSON_NUMBERS = st.one_of(
    st.integers(-(2**1023), 2**1023), st.integers(-5, 5), _FLOATS
)
_JSON_CELLS = st.one_of(
    _JSON_NUMBERS,
    _JSON_NUMBERS,
    st.booleans(),
    st.lists(st.one_of(_JSON_NUMBERS, st.booleans()), min_size=2, max_size=2),
    st.sampled_from([None, "1", "x", [], [1], [1, 2, 3], [[1, 2]], {"re": 1}]),
)


@st.composite
def _json_docs(draw):
    width = draw(st.integers(1, 4))
    data = []
    for _ in range(draw(st.integers(1, 4))):
        count = draw(st.sampled_from([width] * 4 + [0, 1, 5]))
        data.append(draw(st.lists(_JSON_CELLS, min_size=count, max_size=count)))
    doc = {"data": draw(st.sampled_from([data] * 8 + [[], 5, [1, 2], None]))}
    for key, size in (("rows", len(data)), ("cols", width)):
        value = draw(st.sampled_from([None, None, size, size, size + 1, str(size), True, 2.0]))
        if value is not None:
            doc[key] = value
    text = json.dumps(doc)  # NaN and Infinity constants for non-finite floats
    return draw(st.sampled_from([text] * 6 + ["\ufeff" + text, text[:-1], "[" + text + "]"]))


_JSON_CASES = [
    '{"data": [[1, 2.5], [-0.0, 1e-320]]}',
    '{"rows": 1, "cols": 2, "data": [[NaN, -Infinity]]}',
    '{"data": [[true, 1]]}',
    '{"data": [[1, false]]}',
    '{"data": [[1, "2"]]}',
    '{"data": [[1, [[2, 3]]]]}',
    '{"data": [[1, [2, 3, 4]]]}',
    '{"data": [[1, [2, true]]]}',
    '{"data": [[[1, 2], 3]]}',
    '{"data": [[1, 2], [3]]}',
    '{"data": [[1, "x"], [3]]}',
    '{"cols": 1, "data": [[1, 2]]}',
    '{"data": [[9007199254740993, 18446744073709551617]]}',
    '\ufeff{"data": [[1]]}',
    '{"data": [[1]]',
    '{"data":\r\n [[1,\r\n 2]]\r\n}\r\n',
    '{"data":\r\n [[1,\r\n x]]\r\n}',  # the error's line and column, with CRLF line ends
    '{"data":\r [[1,\r x]]\r}',
]


@pytest.mark.parametrize("text", _JSON_CASES)
def test_json_reader_cases_match_the_per_cell_reference(files, text):
    p = files / "case.json"
    p.write_text(text, encoding="utf-8", newline="")
    assert _outcome(matio.load_json, p) == _outcome(reference_load_json, p)


@settings(max_examples=500, deadline=None)
@given(text=_json_docs())
def test_json_reader_matches_the_per_cell_reference(files, text):
    p = files / "drawn.json"
    p.write_text(text, encoding="utf-8")
    assert _outcome(matio.load_json, p) == _outcome(reference_load_json, p)
