"""Point maps over the scan axes, the relaxation-gap scan, and table emission.

map_points is the one loop over scan points: gap-scan, spectrum,
transmission and dipole-response each hand it a point function that
returns that point's block of named columns, axis values included, and it
returns the blocks in scan order (a run without a scan is the single point
{}).  Points are independent and run in sequence; each logs one INFO line
(axis values, n_fock, seconds).  Every point solves its model, with the
point's axis values applied (at_point), for exactly the levels it reports
(certified_eigensystem); the response maps solve a point and its mirror
-epsilon once.  A gap-scan point that raises ValueError, the type of every
declared refusal (levels the Fock truncation does not certify, a gap below
the float64 floor in liouvillian_gap, a LinAlgError from a solver), is
recorded as NaN with a log entry and counted, instead of aborting the
scan; a 400-point phase diagram should survive isolated truncation
failures.  Any other exception, such as liouvillian_gap's RuntimeError for
a missing stationary mode or a TypeError, ends the scan, and a failing
point of any other map ends the map.

Tables are emitted as row blocks: every CLI subcommand hands write_table
one block of columns or a list of them, where a column is an array or a
scalar that fills its block.  A block whose array another block reuses
(the shared omega grid, the value array of a mirrored epsilon) is written
from text formatted once per distinct array and row-joined once per
distinct tuple of arrays; runs of other blocks are joined and formatted
per column, a few thousand rows at a time, with one repr per distinct
float bit pattern.
"""

from __future__ import annotations

import json
import logging
import math
import time
from collections import Counter
from dataclasses import replace
from functools import reduce
from itertools import groupby
from typing import Any, Callable, Iterable, Sequence, TextIO

import numpy as np

from . import __version__
from .config import RunConfig, ScanAxis, emit_config
from .eigen import certified_eigensystem
from .lindblad import build_liouvillian, liouvillian_gap

log = logging.getLogger("usc_relax.scan")

CHUNK_ROWS = 4096   # CSV rows formatted and written at once

Block = dict[str, Any]   # column name -> 1-D values, or a scalar filling the block's rows


def at_point(config: RunConfig, point: dict[str, float]) -> RunConfig:
    """The config with one scan point's axis values (g, epsilon, T) applied."""
    model = config.model
    temperature = config.temperature
    for name, value in point.items():
        if name in ("g", "epsilon"):
            model = replace(model, **{name: float(value)})
        elif name == "T":
            temperature = float(value)
        else:
            raise ValueError(f"axis {name!r} is not a point parameter (use g, epsilon, T)")
    return replace(config, model=model, temperature=temperature)


def _where(point: dict[str, float]) -> str:
    return ", ".join(f"{k}={v:.6g}" for k, v in point.items())


def scan_points(axes: tuple[ScanAxis, ...]) -> list[dict[str, float]]:
    """Row-major point list in axis declaration order."""
    if not axes:
        return [{}]
    grids = [ax.grid() for ax in axes]
    points = []
    for idx in np.ndindex(*(ax.points for ax in axes)):
        points.append({ax.name: float(grids[d][i]) for d, (ax, i) in enumerate(zip(axes, idx))})
    return points


def map_points(
    config: RunConfig,
    kind: str,
    point_columns: Callable[[dict[str, float]], Block],
) -> list[Block]:
    """Every scan point's block of columns, in scan order.

    point_columns(point) returns one point's named columns, its axis values
    included; every point must return the same names.  The blocks are
    returned as they are, so arrays shared between points stay shared for
    write_table.  Each finished point logs one INFO line (axis values,
    n_fock, seconds), formatted only when INFO is enabled; an exception from
    a point ends the map.
    """
    blocks = []
    verbose = log.isEnabledFor(logging.INFO)
    for point in scan_points(config.scan):
        start = time.perf_counter()
        blocks.append(point_columns(point))
        if verbose:
            log.info(
                "%s point (%s): n_fock=%d, %.4f s",
                kind, _where(point), config.model.n_fock, time.perf_counter() - start,
            )
    return blocks


def gap_scan(config: RunConfig) -> tuple[dict[str, np.ndarray], tuple[str, ...]]:
    """Liouvillian gap over a 1- or 2-axis (g, epsilon, T) grid.

    Returns the (g, epsilon[, T], lambda) table columns, row-major, and the
    reason for every failed point.  The T column appears only when T is
    scanned; otherwise the header's temperature holds for every row.
    """
    if not config.scan:
        raise ValueError("gap-scan needs at least one scan axis (add scan = ...)")
    if not config.baths:
        raise ValueError("gap-scan needs at least one bath (add bath = ...)")
    for ax in config.scan:
        if ax.name == "omega":
            raise ValueError("gap-scan axes must be g, epsilon, or T, not omega")
    failures = []

    def gap_point(point: dict[str, float]) -> dict[str, float]:
        try:
            cfg = at_point(config, point)
            eig = certified_eigensystem(cfg.model, cfg.m_levels)
            lv = build_liouvillian(eig, cfg.model, cfg.baths, temperature=cfg.temperature)
            value = liouvillian_gap(lv)
        except ValueError as exc:   # a declared refusal: NaN-and-continue
            value = math.nan
            failures.append(f"({_where(point)}): {exc}")
        row = {
            "g": float(point.get("g", config.model.g)),
            "epsilon": float(point.get("epsilon", config.model.epsilon)),
        }
        if "T" in point:
            row["T"] = point["T"]
        row["lambda"] = value
        return row

    rows = map_points(config, "gap", gap_point)   # a block of scalars is one row
    columns = {name: np.array([row[name] for row in rows]) for name in rows[0]}
    for msg in failures:
        log.warning("scan point failed %s", msg)
    return columns, tuple(failures)


def build_metadata(config: RunConfig, extra: Iterable[str] = ()) -> tuple[str, ...]:
    lines = [f"usc-relax {__version__}"]
    lines.extend(emit_config(config).rstrip("\n").splitlines())
    lines.extend(extra)
    return tuple(lines)


def _table_blocks(
    table: Block | Sequence[Block],
) -> tuple[list[str], list[list[np.ndarray]], list[int]]:
    """A table's column names, each block's columns as arrays, and each block's row count.

    A scalar becomes a 0-d array.  Each column takes the dtype its blocks
    promote to, as in their concatenation; an array that needs no cast is
    kept as the same object, so reuse between blocks can be seen by identity.
    """
    blocks = [table] if isinstance(table, dict) else list(table)
    names = list(blocks[0]) if blocks else []
    if not names:
        return [], [], []
    arrays, sizes = [], []
    for block in blocks:
        if list(block) != names:
            raise ValueError("every block of a table must have the same columns, in order")
        cols = [np.asarray(block[name]) for name in names]
        shapes = {col.shape for col in cols if col.ndim}
        if len(shapes) > 1 or any(len(shape) > 1 for shape in shapes):
            raise ValueError("table columns must be 1-D and of equal length")
        arrays.append(cols)
        sizes.append(shapes.pop()[0] if shapes else 1)   # a block of scalars is one row
    dtypes = [reduce(np.promote_types, {col.dtype for col in column}) for column in zip(*arrays)]
    arrays = [[col.astype(dt, copy=False) for col, dt in zip(cols, dtypes)] for cols in arrays]
    return names, arrays, sizes


def _join(arrays: Sequence[list[np.ndarray]], sizes: Sequence[int]) -> list[np.ndarray]:
    """The blocks' columns concatenated, each scalar repeated over its block's rows."""
    return [
        np.concatenate([col if col.ndim else np.repeat(col, n) for col, n in zip(column, sizes)])
        for column in zip(*arrays)
    ]


def _csv_cells(column: np.ndarray) -> list[str]:
    """CSV text of one column: repr per distinct float bit pattern, str otherwise."""
    if column.dtype != np.float64:
        return [str(v) for v in column.tolist()]
    # distinct bits, not values: -0.0 and 0.0 print differently.  A stable
    # argsort finds them without np.unique, whose first call costs ~0.5 MB of RSS.
    bits = column.view(np.int64)
    order = np.argsort(bits, kind="stable")
    ordered = bits[order]
    first = np.ones(len(bits), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    text = np.array([repr(v) for v in ordered[first].view(np.float64).tolist()], dtype=object)
    inverse = np.empty(len(bits), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return text[inverse].tolist()


def _json_cells(column: np.ndarray) -> list:
    cells = column.tolist()
    if column.dtype == np.float64:
        return [None if math.isnan(v) else v for v in cells]
    return cells


def _write_csv_chunks(stream: TextIO, data: list[np.ndarray]) -> None:
    for lo in range(0, len(data[0]), CHUNK_ROWS):
        cells = [_csv_cells(col[lo:lo + CHUNK_ROWS]) for col in data]
        stream.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _write_csv_rows(stream: TextIO, arrays: list[list[np.ndarray]], sizes: list[int]) -> None:
    """The CSV rows of a block table, each reused array formatted once.

    A block with an array another block also holds is written as a row
    prefix, the text of its leading scalars, before the row-joined text of
    its remaining columns.  That text is built once per distinct tuple of
    column objects, from cells formatted once per distinct array; each is
    kept, as one joined string, when another block needs it again.
    Every other run of blocks is joined and written by column in chunks,
    so a scan of one-row points costs a few writes, not one per point.
    """
    uses = Counter(id(col) for cols in arrays for col in cols if col.ndim)

    def shared(cols: list[np.ndarray]) -> bool:
        return any(uses[id(col)] > 1 for col in cols if col.ndim)

    def lead(cols: list[np.ndarray]) -> int:
        return next(i for i, col in enumerate(cols) if col.ndim)

    keys = [tuple(map(id, cols[lead(cols):])) for cols in arrays if shared(cols)]
    key_uses = Counter(keys)
    array_keys = Counter(i for key in key_uses for i in key)
    cell_text: dict[int, str] = {}
    row_text: dict[tuple[int, ...], str] = {}

    def cells(col: np.ndarray, n: int) -> list[str]:
        if not col.ndim:
            return _csv_cells(col.reshape(1)) * n
        if id(col) in cell_text:
            return cell_text[id(col)].split("\n")
        text = _csv_cells(col)
        if array_keys[id(col)] > 1:
            cell_text[id(col)] = "\n".join(text)
        return text

    for reused, run in groupby(zip(arrays, sizes), key=lambda block: shared(block[0])):
        if not reused:
            _write_csv_chunks(stream, _join(*zip(*run)))
            continue
        for cols, n in run:
            if not n:
                continue
            start = lead(cols)
            key = tuple(map(id, cols[start:]))
            text = row_text.get(key)
            if text is None:
                text = "\n".join(map(",".join, zip(*(cells(col, n) for col in cols[start:]))))
                if key_uses[key] > 1:
                    row_text[key] = text
            prefix = "".join(_csv_cells(col.reshape(1))[0] + "," for col in cols[:start])
            if prefix:
                text = prefix + text.replace("\n", "\n" + prefix)
            stream.write(text + "\n")


def write_table(
    stream: TextIO,
    metadata: Iterable[str],
    table: Block | Sequence[Block],
    fmt: str = "csv",
) -> None:
    """Emit a table of row blocks under a metadata header.

    The table is one block or a list of them, written in order; a block
    maps each column name, in the same order in every block, to a 1-D array
    of the block's rows or to a scalar that fills them (a block of scalars
    is one row).  Every 1-D column of a block must have the same length.
    The output is that of the blocks' concatenation.  CSV
    prefixes every metadata line with '#' and writes floats as their
    shortest round-trip repr; JSON carries the same fields structurally
    (NaN becomes null so the output stays standard JSON).
    """
    names, arrays, sizes = _table_blocks(table)
    if fmt == "csv":
        for line in metadata:
            stream.write(f"# {line}\n")
        stream.write(f"# columns: {','.join(names)}\n")
        _write_csv_rows(stream, arrays, sizes)
    elif fmt == "json":
        rows = list(zip(*map(_json_cells, _join(arrays, sizes))))   # tuples encode as JSON arrays
        json.dump(
            {"metadata": list(metadata), "columns": names, "rows": rows},
            stream,
            indent=2,
        )
        stream.write("\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")
