"""Parameter scans over the relaxation-gap phase diagram, plus table emission.

Scan points are independent and run in sequence: each builds its band
Hamiltonian from the config and its axis values and solves it for exactly
the m_levels the master equation keeps, which the assembly then takes from
the eigensystem; the bath couplings are built once per Fock truncation and
shared.  Each point logs one INFO line (axis values, n_fock, seconds), as
do the CLI's spectrum and response maps.  A failing point is recorded as
NaN with a log entry instead of aborting the scan; a 400-point phase
diagram should survive isolated truncation failures.

Tables are emitted by column: every CLI subcommand hands write_table its
columns as arrays, and CSV cells are formatted per column, a few thousand
rows at a time, with one repr per distinct float bit pattern.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, replace
from typing import Iterable, Sequence, TextIO

import numpy as np

from . import __version__
from .config import RunConfig, ScanAxis, emit_config
from .eigen import diagonalize
from .lindblad import build_liouvillian, liouvillian_gap
from .operators import rabi_bands

log = logging.getLogger("usc_relax.scan")

CHUNK_ROWS = 4096   # CSV rows formatted and written at once


@dataclass(frozen=True)
class ScanResult:
    """Gridded scan output plus the reason for every failed (NaN) point."""

    axes: tuple[ScanAxis, ...]
    values: np.ndarray            # shape = tuple of axis point counts
    failures: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        expected = tuple(ax.points for ax in self.axes)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != axes shape {expected}")


def _apply_axis_values(config: RunConfig, point: dict[str, float]) -> RunConfig:
    model = config.model
    temperature = config.temperature
    for name, value in point.items():
        if name in ("g", "epsilon"):
            model = replace(model, **{name: float(value)})
        elif name == "T":
            temperature = float(value)
        else:
            raise ValueError(f"axis {name!r} is not a gap-scan parameter (use g, epsilon, T)")
    return replace(config, model=model, temperature=temperature)


def _where(point: dict[str, float]) -> str:
    return ", ".join(f"{k}={v:.6g}" for k, v in point.items())


def log_point(kind: str, point: dict[str, float], n_fock: int, start: float) -> None:
    """One INFO line for a finished point: axis values, n_fock, seconds since start."""
    log.info(
        "%s point (%s): n_fock=%d, %.4f s",
        kind, _where(point), n_fock, time.perf_counter() - start,
    )


def _gap_point(config: RunConfig, point: dict[str, float]) -> tuple[float, str | None]:
    start = time.perf_counter()
    try:
        cfg = _apply_axis_values(config, point)
        eig = diagonalize(rabi_bands(cfg.model), cfg.m_levels)
        lv = build_liouvillian(eig, cfg.model, cfg.baths, temperature=cfg.temperature)
        outcome = liouvillian_gap(lv), None
    except Exception as exc:   # noqa: BLE001 - NaN-and-continue is the contract
        outcome = math.nan, f"({_where(point)}): {exc}"
    log_point("gap", point, config.model.n_fock, start)
    return outcome


def scan_points(axes: tuple[ScanAxis, ...]) -> list[dict[str, float]]:
    """Row-major point list in axis declaration order."""
    if not axes:
        return [{}]
    grids = [ax.grid() for ax in axes]
    points = []
    for idx in np.ndindex(*(ax.points for ax in axes)):
        points.append({ax.name: float(grids[d][i]) for d, (ax, i) in enumerate(zip(axes, idx))})
    return points


def gap_scan(config: RunConfig) -> ScanResult:
    """Liouvillian gap over a 1- or 2-axis (g, epsilon, T) grid."""
    if not config.scan:
        raise ValueError("gap-scan needs at least one scan axis (add scan = ...)")
    if not config.baths:
        raise ValueError("gap-scan needs at least one bath (add bath = ...)")
    for ax in config.scan:
        if ax.name == "omega":
            raise ValueError("gap-scan axes must be g, epsilon, or T, not omega")
    outcomes = [_gap_point(config, point) for point in scan_points(config.scan)]
    values = np.array([v for v, _ in outcomes])
    failures = tuple(msg for _, msg in outcomes if msg is not None)
    for msg in failures:
        log.warning("scan point failed %s", msg)
    shape = tuple(ax.points for ax in config.scan)
    return ScanResult(axes=config.scan, values=values.reshape(shape), failures=failures)


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


def gap_rows(config: RunConfig, result: ScanResult) -> dict[str, np.ndarray]:
    """A gap ScanResult as (g, epsilon[, T], lambda) table columns, row-major.

    The T column appears only when T is scanned; otherwise the header's
    temperature holds for every row.
    """
    points = scan_points(result.axes)
    columns = {
        "g": np.array([p.get("g", config.model.g) for p in points], dtype=float),
        "epsilon": np.array([p.get("epsilon", config.model.epsilon) for p in points], dtype=float),
    }
    if any(ax.name == "T" for ax in result.axes):
        columns["T"] = np.array([p["T"] for p in points], dtype=float)
    columns["lambda"] = result.values.reshape(-1)
    return columns
