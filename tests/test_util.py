"""Deterministic serialization: the vectorised row writer against format_float."""
import numpy as np
import pytest

from hkflow.util import (format_float, format_rows, json_dumps, write_csv,
                         write_jsonl)


def _reference(cols, sep=","):
    return [sep.join(format_float(x) for x in row) for row in zip(*cols)]


def _columns(rng, m=400):
    mag = 10.0 ** rng.uniform(-300, 300, size=(3, m))
    cols = list(rng.standard_normal((3, m)) * mag)
    cols[0][:4] = [-0.0, 0.0, 5e-324, -5e-324]
    cols[1][:3] = [1.0, -2.5e-310, 1.7976931348623157e308]
    return cols


def test_write_csv_matches_format_float_on_finite_values(tmp_path):
    cols = _columns(np.random.default_rng(7))
    path = tmp_path / "rows.csv"
    write_csv(path, "a,b,c", cols)
    expect = "\n".join(["a,b,c", *_reference(cols)]) + "\n"
    assert path.read_bytes() == expect.encode()
    assert "-0," in path.read_text()          # negative zero keeps its sign


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_csv_spells_non_finite_values_like_format_float(tmp_path, bad):
    cols = _columns(np.random.default_rng(8))
    cols[2][5] = bad
    path = tmp_path / "rows.csv"
    write_csv(path, "a,b,c", cols)
    expect = "\n".join(["a,b,c", *_reference(cols)]) + "\n"
    assert path.read_bytes() == expect.encode()
    assert format_float(bad) in path.read_text()


def test_format_rows_separator_and_shape():
    cols = _columns(np.random.default_rng(9), m=50)
    assert format_rows(cols, sep=" ") == _reference(cols, sep=" ")
    grid = np.arange(6.0).reshape(2, 3)
    assert format_rows([grid, -grid]) == ["0,-0", "1,-1", "2,-2", "3,-3",
                                          "4,-4", "5,-5"]


def test_format_rows_repeated_and_non_finite_columns():
    """Columns that repeat are formatted once per distinct value; -0 and 0,
    and NaN and Infinity, keep their own spelling on either route."""
    rng = np.random.default_rng(5)
    special = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 0.1])
    repeated = special[rng.integers(0, len(special), 300)]
    distinct = rng.standard_normal(300)
    distinct_nan = distinct.copy()
    distinct_nan[::7] = np.nan
    cols = [repeated, distinct, distinct_nan, np.repeat(distinct[:100], 3)]
    assert format_rows(cols) == _reference(cols)
    assert format_rows([np.zeros(0)]) == []


def test_write_jsonl_keeps_records_made_before_a_failure(tmp_path):
    path = tmp_path / "log.jsonl"

    def records():
        yield {"t": 0.0}
        yield {"t": 0.5}
        # every yielded record is on disk before the producer goes on
        assert path.read_text() == '{"t": 0}\n{"t": 0.5}\n'
        raise RuntimeError("guard")

    with pytest.raises(RuntimeError, match="guard"):
        write_jsonl(path, records())
    assert path.read_text() == '{"t": 0}\n{"t": 0.5}\n'


def test_json_dumps_empty_containers():
    assert json_dumps({}) == "{}"
    assert json_dumps([]) == "[]"
    assert json_dumps({"a": {}, "b": [], "c": ()}, indent=2) == (
        '{\n  "a": {},\n  "b": [],\n  "c": []\n}')


def test_json_dumps_rejects_arrays():
    # payloads carry lists of floats; an array is not one of the types
    with pytest.raises(TypeError):
        json_dumps(np.zeros(2))
