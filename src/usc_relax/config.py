"""Run configuration: a flat key/value text format with dotted groups.

Grammar (one statement per line):

    key = value            top-level scalars (temperature, m_levels, output,
                           format)
    group.field = value    fields of a parameter group (model, well, edm,
                           response, evolve)
    bath = channel, law, strength, ref_freq[, nu]     (repeatable)
    scan = name, start, stop, points                  (repeatable, max 2)

The dataclasses are the grammar.  A value is read by its field's declared
type: `float`, `int`, `str`, or `str | None` (which also takes `none`).  A
`bath` or `scan` entry lists the fields of `BathSpec` or `ScanAxis` in
order; trailing fields with defaults may be left out.  `format` names the
`fmt` field.  '#' starts a comment (whole-line or trailing); blank lines are
skipped.  The last assignment of a key wins, `model.n_fock = auto` included:
`auto` resolves the Fock cutoff from the final coupling at parse time, so an
emitted config always round-trips to the identical object.  Scan axes may
only reference g, epsilon, omega, or T.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
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

# list key -> (RunConfig field, entry dataclass); each line adds one entry
_LISTS = {"bath": ("baths", BathSpec), "scan": ("scan", ScanAxis)}

# top-level scalar key -> RunConfig field; `format` is the one alias
_SCALARS = {
    "format" if f.name == "fmt" else f.name: f
    for f in fields(RunConfig)
    if f.name not in _GROUPS and f.name not in {name for name, _ in _LISTS.values()}
}

_NUMBERS = {"float": (float, "a number"), "int": (int, "an integer")}


def _parse_value(token: str, ftype: str, key: str) -> object:
    """One value, read by its field's declared type (annotations are strings here)."""
    if ftype in _NUMBERS:
        cast, what = _NUMBERS[ftype]
        try:
            return cast(token)
        except ValueError:
            raise ValueError(f"{key}: expected {what}, got {token!r}") from None
    return None if ftype == "str | None" and token == "none" else token


def _parse_entry(key: str, value: str) -> object:
    """One bath or scan entry: its dataclass's fields by position."""
    cls = _LISTS[key][1]
    entry_fields = fields(cls)
    required = [f.name for f in entry_fields if f.default is MISSING]
    parts = [t.strip() for t in value.split(",")]
    if not len(required) <= len(parts) <= len(entry_fields):
        optional = "".join(f"[, {f.name}]" for f in entry_fields[len(required):])
        raise ValueError(f"{key} needs {', '.join(required)}{optional}")
    return cls(*(_parse_value(t, f.type, key) for t, f in zip(parts, entry_fields)))


def parse_config(text: str) -> RunConfig:
    """Parse the flat key/value grammar into a RunConfig.

    Raises ValueError naming the line and the offending key on any malformed
    or unknown entry; group validation errors come from the dataclasses
    themselves.
    """
    groups: dict[str, dict[str, object]] = {name: {} for name in _GROUPS}
    entries: dict[str, list] = {key: [] for key in _LISTS}
    scalars: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        try:
            if key in _LISTS:
                entries[key].append(_parse_entry(key, value))
            elif key in _SCALARS:
                scalars[_SCALARS[key].name] = _parse_value(value, _SCALARS[key].type, key)
            elif "." in key:
                group, _, name = key.partition(".")
                if group not in _GROUPS:
                    raise ValueError(f"unknown group {group!r}; known: {', '.join(_GROUPS)}")
                types = {f.name: f.type for f in fields(_GROUPS[group])}
                if name not in types:
                    raise ValueError(f"{group} has no field {name!r}; known: {', '.join(types)}")
                auto = key == "model.n_fock" and value == "auto"
                groups[group][name] = value if auto else _parse_value(value, types[name], key)
            else:
                raise ValueError(
                    f"unknown key {key!r}; "
                    f"known scalars: {', '.join(_SCALARS)}; groups: {', '.join(_GROUPS)}"
                )
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    model = groups["model"]
    if model.get("n_fock") == "auto":
        model["n_fock"] = default_n_fock(
            model.get("g", ModelParams.g), model.get("omega_c", ModelParams.omega_c)
        )
    built = {name: cls(**groups[name]) for name, cls in _GROUPS.items()}
    lists = {_LISTS[key][0]: tuple(found) for key, found in entries.items()}
    return RunConfig(**built, **lists, **scalars)


def load_config(path: str | Path) -> RunConfig:
    return parse_config(Path(path).read_text())


def _format_value(value: object) -> str:
    if value is None:
        return "none"
    return repr(value) if isinstance(value, float) else str(value)


def emit_config(config: RunConfig) -> str:
    """Canonical text form; parse_config(emit_config(c)) == c."""
    lines = [
        f"{group}.{f.name} = {_format_value(getattr(getattr(config, group), f.name))}"
        for group in _GROUPS
        for f in fields(_GROUPS[group])
    ]
    lines += [
        f"{key} = " + ", ".join(_format_value(getattr(entry, f.name)) for f in fields(entry))
        for key, (name, _) in _LISTS.items()
        for entry in getattr(config, name)
    ]
    lines += [f"{key} = {_format_value(getattr(config, f.name))}" for key, f in _SCALARS.items()]
    return "\n".join(lines) + "\n"


def apply_overrides(config: RunConfig, assignments: list[str]) -> RunConfig:
    """Apply --set key=value overrides on top of an existing config.

    Implemented by re-parsing the canonical emission with the overrides
    appended, so override syntax and file syntax can never diverge.  A
    list override (bath, scan) resets that list rather than appending.
    """
    if not assignments:
        return config
    resets = {a.partition("=")[0].strip() for a in assignments} & _LISTS.keys()
    base = [l for l in emit_config(config).splitlines() if l.partition(" =")[0] not in resets]
    return parse_config("\n".join(base + list(assignments)))
