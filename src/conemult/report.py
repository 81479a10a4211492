"""Deterministic report writing: JSON summaries, CSV details, atomic files.

Summaries are byte-identical across reruns with the same config and seed:
floats are serialized with repr, keys are sorted, and volatile metadata
(timestamps, host) goes to a separate run_meta.json that is excluded from
determinism comparisons.
"""

import csv
import dataclasses
import json
import os
import tempfile
import time

from .errors import ConfigError

SCHEMA_VERSION = "conemult-report-1"


def fields_dict(obj):
    """A dataclass instance's fields by name, values as they are."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _sanitize(obj):
    """JSON-ready form: a dataclass instance by its fields, keys as str."""
    import math

    import numpy as np
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = fields_dict(obj)
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        if math.isnan(f):
            return "nan"
        return f
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def atomic_write_text(path, text):
    """Write-temp-then-rename so partial files never appear."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_summary(path, payload):
    body = dict(payload)
    body["schema"] = SCHEMA_VERSION
    text = json.dumps(_sanitize(body), sort_keys=True, indent=1,
                      ensure_ascii=True)
    atomic_write_text(path, text + "\n")


def write_run_meta(path, extra=None):
    meta = {"written_at_unix": time.time()}
    if extra:
        meta.update(extra)
    atomic_write_text(path, json.dumps(_sanitize(meta), sort_keys=True,
                                       indent=1) + "\n")


def write_csv(path, header, columns):
    """Plot-ready CSV: one observable per file, repr-formatted floats.

    ``columns`` gives one sequence of Python scalars per header name, all
    of one length, such as an array's ``.tolist()``.  ``str`` of a Python
    float is its ``repr``, so each column is formatted by one
    ``map(str, column)`` and the rows are joined from the formatted columns.
    """
    cells = [map(str, column) for column in columns]
    lines = [",".join(header), *map(",".join, zip(*cells))]
    atomic_write_text(path, "\n".join(lines) + "\n")


def _csv_rows(path):
    """The header of a CSV file, then ``(line, cells)`` for each data row.

    Blank lines are skipped.  A row whose cell count differs from the
    header's, or text the csv module cannot read, raises ConfigError naming
    the file and line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ConfigError(f"{path}: empty file, expected a header row")
            yield header
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise ConfigError(f"{path}:{reader.line_num}: {len(row)} "
                                      f"cells, the header has {len(header)}")
                yield reader.line_num, row
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}:{reader.line_num}: {exc}") from None


def read_float_columns(path, names):
    """The named columns of a CSV file with a header row, as float arrays.

    A missing column, a ragged row or a cell that is not a float raises
    ConfigError naming the file and line.  The data rows are parsed as one
    table by ``np.loadtxt``; whenever that fails (quoted cells, columns
    that are not numbers, any malformed row, no data row), the rows are
    read one by one by the csv module, which words the error.
    """
    from array import array

    import numpy as np
    rows = _csv_rows(path)
    header = next(rows)
    missing = [name for name in names if name not in header]
    if missing:
        raise ConfigError(f"{path}:1: header lacks column(s) "
                          f"{', '.join(missing)}")
    table = _float_table(path, len(header))
    if table is not None:
        rows.close()
        return tuple(table[:, header.index(name)].copy() for name in names)
    # float arrays, not lists of str: a few MiB for 1e5 rows, not tens
    cols = [array("d") for _ in names]
    fill = [(col.append, header.index(name)) for col, name in zip(cols, names)]
    for line, row in rows:
        try:
            for append, i in fill:
                append(float(row[i]))
        except ValueError:
            raise ConfigError(f"{path}:{line}: {row[i]!r} is not a "
                              f"number") from None
    return tuple(np.array(col, dtype=float) for col in cols)


def _float_table(path, width):
    """The data rows of a CSV file as a float array of ``width`` columns,
    or None when ``np.loadtxt`` cannot read them so (or warns)."""
    import warnings

    import numpy as np
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(path, delimiter=",", skiprows=1, comments=None,
                               ndmin=2)
    except Exception:   # the row-wise reader words whatever went wrong
        return None
    return table if table.shape[1] == width else None
