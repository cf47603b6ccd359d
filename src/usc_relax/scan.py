"""Point maps over the scan axes, the relaxation-gap scan, and table emission.

map_points is the one loop over scan points: gap-scan, spectrum,
transmission and dipole-response each hand it a point function that
returns that point's named columns, axis values included, and it joins
them in scan order (a run without a scan is the single point {}).  Points
are independent and run in sequence; each logs one INFO line (axis values,
n_fock, seconds).  Every point solves its model, with the point's axis
values applied (at_point), for exactly the levels it reports
(certified_eigensystem); the response maps solve a point and its mirror
-epsilon once.  A gap-scan point that raises ValueError, the type of every
declared refusal (levels the Fock truncation does not certify, a gap below
the float64 floor in liouvillian_gap, a LinAlgError from a solver), is
recorded as NaN with a log entry and counted, instead of aborting the
scan; a 400-point phase diagram should survive isolated truncation
failures.  Any other exception, such as liouvillian_gap's RuntimeError for
a missing stationary mode or a TypeError, ends the scan, and a failing
point of any other map ends the map.

Tables are emitted by column: every CLI subcommand hands write_table its
columns as arrays, and CSV cells are formatted per column, a few thousand
rows at a time, with one repr per distinct float bit pattern.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import replace
from typing import Callable, Iterable, Sequence, TextIO

import numpy as np

from . import __version__
from .config import RunConfig, ScanAxis, emit_config
from .eigen import certified_eigensystem
from .lindblad import build_liouvillian, liouvillian_gap

log = logging.getLogger("usc_relax.scan")

CHUNK_ROWS = 4096   # CSV rows formatted and written at once


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
    point_columns: Callable[[dict[str, float]], dict[str, Sequence]],
) -> dict[str, np.ndarray]:
    """Every scan point's columns, joined in scan order.

    point_columns(point) returns one point's named columns, its axis values
    included; every point must return the same names.  Each finished point
    logs one INFO line (axis values, n_fock, seconds); an exception from a
    point ends the map.
    """
    parts = []
    for point in scan_points(config.scan):
        start = time.perf_counter()
        parts.append(point_columns(point))
        log.info(
            "%s point (%s): n_fock=%d, %.4f s",
            kind, _where(point), config.model.n_fock, time.perf_counter() - start,
        )
    return {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}


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

    def gap_point(point: dict[str, float]) -> dict[str, list[float]]:
        try:
            cfg = at_point(config, point)
            eig = certified_eigensystem(cfg.model, cfg.m_levels)
            lv = build_liouvillian(eig, cfg.model, cfg.baths, temperature=cfg.temperature)
            value = liouvillian_gap(lv)
        except ValueError as exc:   # a declared refusal: NaN-and-continue
            value = math.nan
            failures.append(f"({_where(point)}): {exc}")
        columns = {
            "g": [float(point.get("g", config.model.g))],
            "epsilon": [float(point.get("epsilon", config.model.epsilon))],
        }
        if "T" in point:
            columns["T"] = [point["T"]]
        columns["lambda"] = [value]
        return columns

    columns = map_points(config, "gap", gap_point)
    for msg in failures:
        log.warning("scan point failed %s", msg)
    return columns, tuple(failures)


def build_metadata(config: RunConfig, extra: Iterable[str] = ()) -> tuple[str, ...]:
    lines = [f"usc-relax {__version__}"]
    lines.extend(emit_config(config).rstrip("\n").splitlines())
    lines.extend(extra)
    return tuple(lines)


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


def write_table(
    stream: TextIO,
    metadata: Iterable[str],
    columns: dict[str, Sequence],
    fmt: str = "csv",
) -> None:
    """Emit a table, given by column (name -> values), under a metadata header.

    CSV prefixes every metadata line with '#' and writes floats as their
    shortest round-trip repr, CHUNK_ROWS rows at a time; JSON carries the
    same fields structurally (NaN becomes null so the output stays standard
    JSON).  Every column must have the same length.
    """
    names = list(columns)
    data = [np.ascontiguousarray(columns[name]) for name in names]
    n_rows = len(data[0]) if data else 0
    if any(col.shape != (n_rows,) for col in data):
        raise ValueError("table columns must be 1-D and of equal length")
    if fmt == "csv":
        for line in metadata:
            stream.write(f"# {line}\n")
        stream.write(f"# columns: {','.join(names)}\n")
        for lo in range(0, n_rows, CHUNK_ROWS):
            cells = [_csv_cells(col[lo:lo + CHUNK_ROWS]) for col in data]
            stream.write("\n".join(map(",".join, zip(*cells))) + "\n")
    elif fmt == "json":
        rows = list(zip(*map(_json_cells, data)))   # tuples encode as JSON arrays
        json.dump(
            {"metadata": list(metadata), "columns": names, "rows": rows},
            stream,
            indent=2,
        )
        stream.write("\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")
