"""CSV/JSON rendering and the content-addressed cache."""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etalab.emitters import (
    CacheStore,
    format_number,
    json_document,
    render_csv,
    render_json,
    validate_document,
)


class TestFormatting:
    def test_round_trip_floats(self):
        for x in (0.1, 1.0 / 3.0, 1e-300, 123456.789, -0.0):
            assert float(format_number(x)) == x

    def test_integers_stay_integral(self):
        assert format_number(35) == "35"
        assert format_number(True) == "true"

    def test_csv_shape(self):
        text = render_csv(("n", "re", "im"), [[1, 2], [1.0, 0.5], [0.0, -0.25]])
        lines = text.split("\n")
        assert lines[0] == "n,re,im"
        assert lines[1] == "1,1.0,0.0"
        assert text.endswith("\n")
        assert "\r" not in text


def _columns(rows, width: int) -> list[list]:
    return [list(c) for c in zip(*rows)] if rows else [[] for _ in range(width)]


def _render_csv_rowwise(header, rows) -> str:
    """The row-at-a-time rendering that ``render_csv`` must reproduce."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_number(v) if not isinstance(v, str) else v for v in row))
    return "\n".join(lines) + "\n"


_KINDS = ("bool", "int", "np.int64", "float", "np.float64", "str")
_SPECIAL_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308)


def _cell(kind: str, rng: random.Random):
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "int":
        return rng.randrange(-10**12, 10**12)
    if kind == "np.int64":
        return np.int64(rng.randrange(-2**63, 2**63))
    if kind in ("float", "np.float64"):
        x = rng.choice(_SPECIAL_FLOATS) if rng.random() < 0.1 else rng.uniform(-1e3, 1e3) * 10.0 ** rng.randint(-300, 300)
        return x if kind == "float" else np.float64(x)
    if kind == "str":
        return rng.choice(("true", "false", "min", "max", "", "x y"))
    return _cell(rng.choice(_KINDS), rng)  # "mixed": the type changes from row to row


def _column(kind: str, n_rows: int, rng: random.Random) -> list:
    if kind == "array":  # a numpy column as the library hands it over
        return np.array([_cell("float", rng) for _ in range(n_rows)], dtype=np.float64).tolist()
    return [_cell(kind, rng) for _ in range(n_rows)]


class TestRenderCsvColumns:
    """Block-wise, column-wise rendering gives the bytes of the row-wise loop over the same table."""

    @pytest.mark.parametrize("n_rows", [0, 1, 2, 1023, 1024, 1025, 2049])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_rowwise(self, n_rows, seed):
        rng = random.Random(f"csv:{n_rows}:{seed}")
        kinds = [*_KINDS, "mixed", "mixed", "array", *rng.sample(_KINDS, 3)]
        header = [f"c{i}" for i in range(len(kinds))]
        columns = [_column(k, n_rows, rng) for k in kinds]
        rows = list(zip(*columns))
        assert render_csv(header, columns) == _render_csv_rowwise(header, rows)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(n_rows=st.sampled_from([0, 1, 1023, 1024, 1025]),
           kinds=st.lists(st.sampled_from([*_KINDS, "mixed", "array"]), min_size=1, max_size=5),
           seed=st.integers(0, 2**32 - 1))
    def test_tables_match_rowwise(self, n_rows, kinds, seed):
        rng = random.Random(seed)
        header = [f"c{i}" for i in range(len(kinds))]
        columns = [_column(k, n_rows, rng) for k in kinds]
        rows = list(zip(*columns))
        assert _columns(rows, len(header)) == columns
        assert render_csv(header, columns) == _render_csv_rowwise(header, rows)

    @pytest.mark.parametrize("kind", _KINDS)
    def test_column_changes_type_at_a_block_edge(self, kind):
        # the first block is all one type, the second starts with another
        rng = random.Random(kind)
        rows = [(_cell(kind, rng),) for _ in range(1024)]
        rows += [(_cell(other, rng),) for other in _KINDS for _ in range(3)]
        assert render_csv(("v",), _columns(rows, 1)) == _render_csv_rowwise(("v",), rows)

    def test_special_floats(self):
        rows = [(x, np.float64(x), str(x)) for x in _SPECIAL_FLOATS]
        assert render_csv(("a", "b", "c"), _columns(rows, 3)) == _render_csv_rowwise(("a", "b", "c"), rows)

    def test_ragged_rows_refused(self):
        # columns of unequal length, also where they differ only past a block edge
        for lengths in ((2, 1), (1, 2), (1024, 1025), (1025, 1024), (0, 1), (3, 0)):
            with pytest.raises(ValueError):
                render_csv(("a", "b"), [[1.0] * n for n in lengths])


class TestJsonDocuments:
    def test_document_envelope(self):
        doc = json_document(
            "etalab/table/v1",
            {"sigma": 0.5},
            {"command": "path-export", "header": ["n"], "rows": [[1]]},
        )
        rendered = render_json(doc)
        parsed = json.loads(rendered)
        assert parsed["schema"] == "etalab/table/v1"
        validate_document(parsed)

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError):
            json_document("etalab/none/v9", {}, {})

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError):
            validate_document({"schema": "etalab/table/v1", "config": {}, "data": {}})

    def test_rendering_is_deterministic(self):
        doc = json_document(
            "etalab/value/v1",
            {"b": 1, "a": 2},
            {"command": "eta", "value": {"re": 0.1, "im": 0.2}},
        )
        assert render_json(doc) == render_json(json.loads(render_json(doc)))


class TestCache:
    def test_key_depends_only_on_content(self):
        k1 = CacheStore.key({"a": 1, "b": [2.0, 3.0]})
        k2 = CacheStore.key({"b": [2.0, 3.0], "a": 1})
        assert k1 == k2
        assert k1 != CacheStore.key({"a": 1, "b": [2.0, 3.5]})

    def test_put_get_round_trip(self, tmp_path):
        store = CacheStore(tmp_path / "cache")
        key = CacheStore.key({"x": 1})
        assert store.get(key, "csv") is None
        store.put(key, "csv", b"n,re\n1,1.0\n")
        assert store.get(key, "csv") == b"n,re\n1,1.0\n"

    def test_no_temp_litter_after_put(self, tmp_path):
        store = CacheStore(tmp_path)
        store.put(CacheStore.key({"x": 2}), "json", b"{}")
        assert not list(tmp_path.glob("*.tmp"))
