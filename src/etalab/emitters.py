"""Bit-stable CSV/JSON emission and the content-addressed result cache.

A table is a header and equal-length columns of Python values.  Numbers
are rendered with the shortest round-trip decimal representation
(Python's repr), so identical computations give byte-identical files on
any platform.  JSON documents carry a versioned schema string plus the
resolved configuration next to the data.  The cache stores finished
output bytes under a hash of the producing (command, parameters) pair
and is written atomically by a single writer.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

SCHEMAS = {
    "etalab/value/v1": ("command", "value"),
    "etalab/scan/v1": ("command", "rows", "violations", "skipped"),
    "etalab/ratio/v1": ("command", "limit", "functional_ratio", "zero_events", "envelope"),
    "etalab/table/v1": ("command", "header", "rows"),
}


def format_number(x) -> str:
    """Shortest decimal that round-trips; integers stay integral."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int,)):
        return str(x)
    return repr(float(x))


_CSV_BLOCK_ROWS = 1024


def _csv_column(values):
    """The cells of one column, as ``format_number`` renders them (strings as they are)."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return list(map(repr, values))
    if kinds == {int}:
        return list(map(str, values))
    if kinds == {str}:
        return values
    return [v if isinstance(v, str) else format_number(v) for v in values]


def render_csv(header, columns) -> str:
    """CSV text with a fixed header, LF endings and round-trip numbers.

    Columns are sequences (lists, ranges), one per header name, and are
    formatted in blocks of 1024 rows: ``repr`` on an all-float block, ``str`` on an all-int
    block (bools excluded), strings as they are, and ``format_number``
    per cell on any other block (mixed types, numpy scalars, bools).
    Blocks keep the intermediate cells small.  Raises ValueError unless
    there is one column per header name and all have the same length.
    """
    if len(columns) != len(header):
        raise ValueError(f"{len(columns)} columns for {len(header)} header names")
    lines = [",".join(header)]
    for lo in range(0, max(map(len, columns), default=0), _CSV_BLOCK_ROWS):
        # no name holds a block's cells, so they are freed before the final join
        lines.extend(map(",".join, zip(*[_csv_column(c[lo:lo + _CSV_BLOCK_ROWS]) for c in columns], strict=True)))
    return "\n".join(lines) + "\n"


def write_text(path, text: str) -> None:
    with open(Path(path), "w", newline="\n") as fh:
        fh.write(text)


def json_document(schema: str, config: dict, data: dict) -> dict:
    if schema not in SCHEMAS:
        raise ValueError(f"unknown schema {schema!r}")
    return {"schema": schema, "config": config, "data": data}


def validate_document(doc: dict) -> None:
    """Structural check of a document against its embedded schema string."""
    schema = doc.get("schema")
    if schema not in SCHEMAS:
        raise ValueError(f"document carries unknown schema {schema!r}")
    for key in ("schema", "config", "data"):
        if key not in doc:
            raise ValueError(f"document missing top-level key {key!r}")
    missing = [k for k in SCHEMAS[schema] if k not in doc["data"]]
    if missing:
        raise ValueError(f"schema {schema}: data missing keys {missing}")


def render_json(doc: dict) -> str:
    validate_document(doc)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class CacheStore:
    """Content-addressed store of finished output bytes."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def key(params: dict) -> str:
        canonical = json.dumps(params, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def _path(self, key: str, suffix: str) -> Path:
        return self.directory / f"{key}.{suffix}"

    def get(self, key: str, suffix: str) -> bytes | None:
        path = self._path(key, suffix)
        try:
            return path.read_bytes()
        except FileNotFoundError:
            return None

    def put(self, key: str, suffix: str, payload: bytes) -> None:
        # atomic publish: write to a sibling temp file, then rename over
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, self._path(key, suffix))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
