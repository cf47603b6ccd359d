"""Run configuration: a flat key/value text format with dotted groups.

Grammar (one statement per line):

    key = value            scalars; floats, ints, strings, true/false
    group.field = value    fields of a parameter group (model, well, edm,
                           response, evolve)
    bath = channel, law, strength, ref_freq[, nu]     (repeatable)
    scan = name, start, stop, points                  (repeatable, max 2)

'#' starts a comment (whole-line or trailing); blank lines are skipped.
`model.n_fock = auto` resolves the Fock cutoff from the coupling at parse
time, so an emitted config always round-trips to the identical object.
Scan axes may only reference g, epsilon, omega, or T.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .dipole import WellParams
from .edm import EdmParams
from .lindblad import BathSpec
from .operators import ModelParams, default_n_fock

SCAN_AXES = ("g", "epsilon", "omega", "T")


@dataclass(frozen=True)
class ScanAxis:
    """One scan dimension: a named, uniformly spaced parameter grid."""

    name: str
    start: float
    stop: float
    points: int

    def __post_init__(self) -> None:
        if self.name not in SCAN_AXES:
            raise ValueError(
                f"scan axis {self.name!r} not recognized; allowed: {', '.join(SCAN_AXES)}"
            )
        if self.points < 1:
            raise ValueError(f"scan axis {self.name!r} needs points >= 1, got {self.points}")

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class ResponseSettings:
    """Probe grid and readout parameters for structure-factor pipelines."""

    q_factor: float = 100.0
    eta: float = 0.0            # 0 = auto: omega_c/Q for cavity, 0.05 omega_c for dipole
    omega_min: float = 0.3
    omega_max: float = 1.7
    omega_points: int = 1401

    def __post_init__(self) -> None:
        if self.q_factor <= 0.0:
            raise ValueError(f"response.q_factor must be positive, got {self.q_factor}")
        if self.eta < 0.0:
            raise ValueError(f"response.eta must be >= 0, got {self.eta}")
        if self.omega_points < 2 or self.omega_max <= self.omega_min:
            raise ValueError("response omega grid must be ascending with >= 2 points")

    def grid(self) -> np.ndarray:
        return np.linspace(self.omega_min, self.omega_max, self.omega_points)


@dataclass(frozen=True)
class EvolveSettings:
    """Time-evolution runs: oscillation scenarios and the EDM cascade."""

    k: int = 1                   # resonance order, epsilon = k * omega_c
    gamma: float = 0.002
    n_periods: float = 6.5       # edm-evolve reads this as units of 1/Gamma_tot
    points_per_period: int = 60
    m_levels: int = 20
    m0: int = 1                  # initial rung for edm-evolve

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"evolve.k must be >= 1, got {self.k}")
        if self.gamma <= 0.0:
            raise ValueError(f"evolve.gamma must be positive, got {self.gamma}")
        if self.n_periods <= 0.0 or self.points_per_period < 2:
            raise ValueError("evolve needs n_periods > 0 and points_per_period >= 2")
        if self.m_levels < 2 or self.m0 < 0:
            raise ValueError("evolve needs m_levels >= 2 and m0 >= 0")


@dataclass(frozen=True)
class RunConfig:
    """Everything a CLI subcommand needs, in one round-trippable object."""

    model: ModelParams = ModelParams()
    baths: tuple[BathSpec, ...] = ()
    temperature: float = 0.0
    scan: tuple[ScanAxis, ...] = ()
    well: WellParams = WellParams()
    edm: EdmParams = EdmParams()
    response: ResponseSettings = ResponseSettings()
    evolve: EvolveSettings = EvolveSettings()
    m_levels: int = 24
    output: str | None = None
    fmt: str = "csv"

    def __post_init__(self) -> None:
        if len(self.scan) > 2:
            raise ValueError(f"at most 2 scan axes supported, got {len(self.scan)}")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.fmt!r}")
        if self.temperature < 0.0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if self.m_levels < 2:
            raise ValueError(f"m_levels must be >= 2, got {self.m_levels}")


_GROUPS = {
    "model": ModelParams,
    "well": WellParams,
    "edm": EdmParams,
    "response": ResponseSettings,
    "evolve": EvolveSettings,
}

_SCALARS = {
    "temperature": float,
    "m_levels": int,
    "output": str,
    "format": str,
}


def _parse_scalar(token: str, target: type, key: str):
    token = token.strip()
    if target is float:
        try:
            return float(token)
        except ValueError:
            raise ValueError(f"{key}: expected a number, got {token!r}") from None
    if target is int:
        try:
            return int(token)
        except ValueError:
            raise ValueError(f"{key}: expected an integer, got {token!r}") from None
    if target is bool:
        if token in ("true", "false"):
            return token == "true"
        raise ValueError(f"{key}: expected true or false, got {token!r}")
    return token


def _strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def parse_config(text: str) -> RunConfig:
    """Parse the flat key/value grammar into a RunConfig.

    Raises ValueError naming the offending key on any malformed or unknown
    entry; group validation errors come from the dataclasses themselves.
    """
    groups: dict[str, dict[str, object]] = {name: {} for name in _GROUPS}
    scalars: dict[str, object] = {}
    baths: list[BathSpec] = []
    axes: list[ScanAxis] = []
    auto_fock = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "bath":
            parts = [t.strip() for t in value.split(",")]
            if len(parts) not in (4, 5):
                raise ValueError(
                    f"line {lineno}: bath needs channel, law, strength, ref_freq[, nu]"
                )
            baths.append(
                BathSpec(
                    channel=parts[0],
                    law=parts[1],
                    strength=float(parts[2]),
                    ref_freq=float(parts[3]),
                    nu=float(parts[4]) if len(parts) == 5 else 3.0,
                )
            )
        elif key == "scan":
            parts = [t.strip() for t in value.split(",")]
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: scan needs name, start, stop, points")
            axes.append(
                ScanAxis(
                    name=parts[0],
                    start=float(parts[1]),
                    stop=float(parts[2]),
                    points=int(parts[3]),
                )
            )
        elif "." in key:
            group, _, fname = key.partition(".")
            if group not in _GROUPS:
                raise ValueError(
                    f"line {lineno}: unknown group {group!r}; known: {', '.join(_GROUPS)}"
                )
            cls = _GROUPS[group]
            by_name = {f.name: f for f in fields(cls)}
            if fname not in by_name:
                raise ValueError(
                    f"line {lineno}: {group} has no field {fname!r}; "
                    f"known: {', '.join(by_name)}"
                )
            if group == "model" and fname == "n_fock" and value == "auto":
                auto_fock = True
                continue
            ftype = by_name[fname].type
            target: type = str
            if "int" in str(ftype):
                target = int
            if "float" in str(ftype):
                target = float
            if "bool" in str(ftype):
                target = bool
            groups[group][fname] = _parse_scalar(value, target, key)
        elif key in _SCALARS:
            if key == "output" and value == "none":
                scalars[key] = None
            else:
                scalars[key] = _parse_scalar(value, _SCALARS[key], key)
        else:
            raise ValueError(
                f"line {lineno}: unknown key {key!r}; "
                f"known scalars: {', '.join(_SCALARS)}; groups: {', '.join(_GROUPS)}"
            )
    if auto_fock:
        g = float(groups["model"].get("g", 0.0))
        omega_c = float(groups["model"].get("omega_c", 1.0))
        groups["model"]["n_fock"] = default_n_fock(g, omega_c)
    if "format" in scalars:
        scalars["fmt"] = scalars.pop("format")
    built = {name: cls(**groups[name]) for name, cls in _GROUPS.items()}
    return RunConfig(baths=tuple(baths), scan=tuple(axes), **built, **scalars)


def load_config(path: str | Path) -> RunConfig:
    return parse_config(Path(path).read_text())


def _format_value(value: object) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_config(config: RunConfig) -> str:
    """Canonical text form; parse_config(emit_config(c)) == c."""
    lines = []
    for group in _GROUPS:
        obj = getattr(config, group)
        for f in fields(obj):
            lines.append(f"{group}.{f.name} = {_format_value(getattr(obj, f.name))}")
    for b in config.baths:
        lines.append(
            f"bath = {b.channel}, {b.law}, {_format_value(b.strength)}, "
            f"{_format_value(b.ref_freq)}, {_format_value(b.nu)}"
        )
    for ax in config.scan:
        lines.append(
            f"scan = {ax.name}, {_format_value(ax.start)}, "
            f"{_format_value(ax.stop)}, {ax.points}"
        )
    lines.append(f"temperature = {_format_value(config.temperature)}")
    lines.append(f"m_levels = {config.m_levels}")
    lines.append(f"output = {_format_value(config.output)}")
    lines.append(f"format = {config.fmt}")
    return "\n".join(lines) + "\n"


def apply_overrides(config: RunConfig, assignments: list[str]) -> RunConfig:
    """Apply --set key=value overrides on top of an existing config.

    Implemented by re-parsing the canonical emission with the overrides
    appended, so override syntax and file syntax can never diverge.  A bath
    or scan override resets the corresponding list rather than appending.
    """
    if not assignments:
        return config
    resets = {a.partition("=")[0].strip() for a in assignments}
    base = emit_config(config).splitlines()
    if "bath" in resets:
        base = [l for l in base if not l.startswith("bath =")]
    if "scan" in resets:
        base = [l for l in base if not l.startswith("scan =")]
    return parse_config("\n".join(base + list(assignments)))
