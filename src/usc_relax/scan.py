"""Parameter scans over the relaxation-gap phase diagram, plus table emission.

Scan points are independent and run in sequence: each builds its
Hamiltonian from the config and its axis values, while the parameter-free
operator terms are built once per Fock truncation and shared.  Each point
logs one INFO line (axis values, n_fock, seconds).  A failing point is
recorded as NaN with a log entry instead of aborting the scan; a 400-point
phase diagram should survive isolated truncation failures.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, replace
from typing import Iterable, TextIO

import numpy as np

from . import __version__
from .config import RunConfig, ScanAxis, emit_config
from .eigen import diagonalize
from .lindblad import build_liouvillian, liouvillian_gap
from .operators import build_rabi

log = logging.getLogger("usc_relax.scan")


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


def _gap_point(config: RunConfig, point: dict[str, float]) -> tuple[float, str | None]:
    start = time.perf_counter()
    where = ", ".join(f"{k}={v:.6g}" for k, v in point.items())
    try:
        cfg = _apply_axis_values(config, point)
        eig = diagonalize(build_rabi(cfg.model))
        lv = build_liouvillian(
            eig, cfg.model, cfg.baths, temperature=cfg.temperature, m_levels=cfg.m_levels
        )
        outcome = liouvillian_gap(lv), None
    except Exception as exc:   # noqa: BLE001 - NaN-and-continue is the contract
        outcome = math.nan, f"({where}): {exc}"
    log.info(
        "gap point (%s): n_fock=%d, %.4f s",
        where, config.model.n_fock, time.perf_counter() - start,
    )
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


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return repr(value)
    return str(value)


def write_table(
    stream: TextIO,
    metadata: Iterable[str],
    columns: list[str],
    rows: Iterable[tuple],
    fmt: str = "csv",
) -> None:
    """Emit a table with a self-describing metadata header.

    CSV prefixes every metadata line with '#'; JSON carries the same fields
    structurally (NaN becomes null so the output stays standard JSON).
    """
    if fmt == "csv":
        for line in metadata:
            stream.write(f"# {line}\n")
        stream.write(f"# columns: {','.join(columns)}\n")
        for row in rows:
            stream.write(",".join(_format_cell(v) for v in row) + "\n")
    elif fmt == "json":
        clean_rows = [
            [None if isinstance(v, float) and math.isnan(v) else v for v in row]
            for row in rows
        ]
        json.dump(
            {"metadata": list(metadata), "columns": columns, "rows": clean_rows},
            stream,
            indent=2,
        )
        stream.write("\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def gap_rows(config: RunConfig, result: ScanResult) -> list[tuple]:
    """Flatten a gap ScanResult to (g, epsilon, lambda) rows, row-major."""
    rows = []
    flat = result.values.reshape(-1)
    for point, value in zip(scan_points(result.axes), flat):
        g = point.get("g", config.model.g)
        eps = point.get("epsilon", config.model.epsilon)
        rows.append((float(g), float(eps), float(value)))
    return rows
