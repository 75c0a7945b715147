import numpy as np
import pytest

from rebrick import matio
from rebrick.errors import MatrixParseError


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
