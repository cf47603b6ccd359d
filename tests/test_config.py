"""Config grammar: parse/emit round trips, overrides, and error reporting."""

from dataclasses import fields, is_dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usc_relax.config import (
    SCAN_AXES,
    EvolveSettings,
    ResponseSettings,
    RunConfig,
    ScanAxis,
    apply_overrides,
    emit_config,
    load_config,
    parse_config,
)
from usc_relax.dipole import GRID_FLOOR, WellParams
from usc_relax.edm import EdmParams
from usc_relax.lindblad import BathSpec
from usc_relax.operators import ModelParams, default_n_fock


def sample_config() -> RunConfig:
    return RunConfig(
        model=ModelParams(g=2.5, epsilon=0.3, n_fock=66),
        baths=(
            BathSpec(channel="cavity", law="ohmic", strength=0.01, ref_freq=1.0),
            BathSpec(channel="dipole", law="radiative", strength=0.04, ref_freq=1.0, nu=3.0),
        ),
        temperature=0.2,
        scan=(ScanAxis(name="g", start=0.5, stop=3.0, points=6),),
        edm=EdmParams(g=1.0, epsilon=1.0, gamma=0.05, temperature=1.0),
        response=ResponseSettings(q_factor=250.0, omega_points=501),
        evolve=EvolveSettings(k=2, gamma=0.004),
        m_levels=20,
        output="out.csv",
        fmt="csv",
    )


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

def test_emit_parse_round_trip():
    c = sample_config()
    assert parse_config(emit_config(c)) == c


def test_default_config_round_trips():
    c = RunConfig()
    assert parse_config(emit_config(c)) == c
    assert parse_config("") == c


_BATH_ARGS = dict(
    channel=st.sampled_from(("cavity", "dipole")),
    law=st.sampled_from(("ohmic", "radiative")),
    strength=st.floats(0.0, 1.0),
    ref_freq=st.floats(0.1, 3.0),
)
baths = st.one_of(
    st.builds(BathSpec, **_BATH_ARGS),
    st.builds(BathSpec, nu=st.floats(1.0, 6.0), **_BATH_ARGS),
)
scan_axes = st.builds(
    ScanAxis,
    name=st.sampled_from(SCAN_AXES),
    start=st.floats(-5.0, 5.0),
    stop=st.floats(-5.0, 5.0),
    points=st.integers(1, 500),
)
outputs = st.none() | st.text("abcxyz019_-./", min_size=1).filter(lambda s: s != "none")
wells = st.builds(
    WellParams,
    mu2=st.floats(0.1, 4.0),
    mu4=st.floats(0.1, 4.0),
    tilt=st.floats(-1.0, 1.0),
    mass=st.floats(0.1, 10.0),
    grid_points=st.integers(GRID_FLOOR, 40001),
    x_max=st.floats(1.0, 10.0),
)
responses = st.builds(
    ResponseSettings,
    q_factor=st.floats(1.0, 1000.0),
    eta=st.floats(0.0, 0.1),
    omega_min=st.floats(0.0, 1.0),
    omega_max=st.floats(1.5, 3.0),
    omega_points=st.integers(2, 5000),
)
evolves = st.builds(
    EvolveSettings,
    k=st.integers(1, 6),
    gamma=st.floats(1e-4, 0.1),
    n_periods=st.floats(0.5, 20.0),
    points_per_period=st.integers(2, 200),
    m_levels=st.integers(2, 40),
    m0=st.integers(0, 10),
)


@settings(max_examples=40, deadline=None)
@given(
    g=st.floats(0.0, 6.0, allow_nan=False),
    epsilon=st.floats(-3.0, 3.0),
    omega_c=st.floats(0.5, 2.0),
    gamma=st.floats(1e-4, 1.0),
    temp=st.floats(0.0, 3.0),
    points=st.integers(1, 500),
    bath_list=st.lists(baths, max_size=3),
    extra_axes=st.lists(scan_axes, max_size=1),
    output=outputs,
    fmt=st.sampled_from(("csv", "json")),
    well=wells,
    response=responses,
    evolve=evolves,
)
def test_round_trip_survives_arbitrary_values(
    g, epsilon, omega_c, gamma, temp, points, bath_list, extra_axes, output, fmt, well,
    response, evolve,
):
    c = RunConfig(
        model=ModelParams(omega_c=omega_c, g=g, epsilon=epsilon, n_fock=48),
        baths=tuple(bath_list),
        edm=EdmParams(gamma=gamma, temperature=temp),
        scan=(ScanAxis(name="epsilon", start=-1.0, stop=epsilon, points=points),)
        + tuple(extra_axes),
        temperature=temp,
        well=well,
        response=response,
        evolve=evolve,
        output=output,
        fmt=fmt,
    )
    assert parse_config(emit_config(c)) == c


def test_every_field_has_a_type_the_value_parser_reads():
    """The value parser reads float, int, str and str | None; any other type
    would silently parse as a string."""
    entries = (ModelParams, WellParams, EdmParams, ResponseSettings, EvolveSettings,
               BathSpec, ScanAxis)
    leaves = [f for cls in entries for f in fields(cls)]
    leaves += [f for f in fields(RunConfig)
               if not is_dataclass(f.default) and not isinstance(f.default, tuple)]
    assert {f.type for f in leaves} == {"float", "int", "str", "str | None"}


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(emit_config(sample_config()))
    assert load_config(path) == sample_config()


# ---------------------------------------------------------------------------
# grammar features
# ---------------------------------------------------------------------------

def test_comments_and_blank_lines_ignored():
    text = """
    # full-line comment
    model.g = 1.5   # trailing comment

    temperature = 0.3
    """
    c = parse_config(text)
    assert c.model.g == 1.5
    assert c.temperature == 0.3


def test_auto_fock_resolves_at_parse_time():
    c = parse_config("model.g = 3.5\nmodel.n_fock = auto\n")
    assert c.model.n_fock == default_n_fock(3.5)
    assert c.model.n_fock == 89
    # resolution happens once; the emitted form carries the literal number
    assert f"model.n_fock = {c.model.n_fock}" in emit_config(c)
    assert parse_config(emit_config(c)) == c


def test_last_n_fock_assignment_wins_over_auto():
    assert parse_config("model.g = 2.5\nmodel.n_fock = auto\nmodel.n_fock = 80\n").model.n_fock == 80
    c = parse_config("model.n_fock = 80\nmodel.g = 2.5\nmodel.n_fock = auto\n")
    assert c.model.n_fock == default_n_fock(2.5)
    c = apply_overrides(sample_config(), ["model.n_fock = auto", "model.n_fock = 80"])
    assert c.model.n_fock == 80


def test_auto_fock_sees_omega_c():
    c = parse_config("model.g = 3.0\nmodel.omega_c = 2.0\nmodel.n_fock = auto\n")
    assert c.model.n_fock == default_n_fock(3.0, 2.0)


def test_none_sentinels():
    c = parse_config("output = none\n")
    assert c.output is None


def test_repeated_bath_lines_accumulate():
    c = parse_config(
        "bath = cavity, ohmic, 0.01, 1.0\n"
        "bath = dipole, radiative, 0.04, 1.0, 3.0\n"
    )
    assert len(c.baths) == 2
    assert c.baths[0].channel == "cavity"
    assert c.baths[1].nu == 3.0


def test_scan_axis_grid():
    ax = ScanAxis(name="g", start=0.0, stop=2.0, points=5)
    assert list(ax.grid()) == [0.0, 0.5, 1.0, 1.5, 2.0]


# ---------------------------------------------------------------------------
# validation and error reporting
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "text, match",
    [
        ("nonsense line\n", "key = value"),
        ("quux = 3\n", "unknown key 'quux'"),
        ("seed = 0\n", "unknown key 'seed'"),
        ("widget.g = 3\n", "unknown group 'widget'"),
        ("model.coupling = 3\n", "model has no field 'coupling'"),
        ("model.g = fast\n", "expected a number"),
        ("model.n_fock = 3.5\n", "expected an integer"),
        ("scan = g, 0, x, 3\n", "line 1: scan: expected a number, got 'x'"),
        ("scan = g, 0, 1, 2.5\n", "line 1: scan: expected an integer, got '2.5'"),
        ("bath = cavity, ohmic, fast, 1.0\n", "line 1: bath: expected a number, got 'fast'"),
        ("bath = cavity, ohmic, 0.01\n", "bath needs"),
        ("scan = g, 0, 1\n", "scan needs"),
        ("scan = mass, 0, 1, 5\n", "not recognized"),
        ("scan = g, 0, 1, 0\n", "points >= 1"),
        ("format = yaml\n", "csv or json"),
        ("temperature = -1\n", "temperature"),
        ("m_levels = 1\n", "m_levels"),
        ("evolve.k = 0\n", "evolve.k"),
        ("response.omega_points = 1\n", "omega grid"),
    ],
)
def test_errors_name_the_problem(text, match):
    with pytest.raises(ValueError, match=match):
        parse_config(text)


def test_at_most_two_scan_axes():
    text = (
        "scan = g, 0, 1, 3\n"
        "scan = epsilon, 0, 1, 3\n"
        "scan = T, 0, 1, 3\n"
    )
    with pytest.raises(ValueError, match="at most 2 scan axes"):
        parse_config(text)


def test_error_lines_carry_line_numbers():
    with pytest.raises(ValueError, match="line 3"):
        parse_config("model.g = 1.0\n\nbogus = 1\n")


# ---------------------------------------------------------------------------
# overrides
# ---------------------------------------------------------------------------

def test_overrides_replace_scalars():
    c = apply_overrides(sample_config(), ["model.g = 3.0", "temperature = 0.5"])
    assert c.model.g == 3.0
    assert c.temperature == 0.5
    # everything else untouched
    assert c == replace(
        sample_config(), model=replace(sample_config().model, g=3.0), temperature=0.5
    )


def test_override_resets_bath_list():
    c = apply_overrides(sample_config(), ["bath = cavity, ohmic, 0.02, 1.0"])
    assert len(c.baths) == 1
    assert c.baths[0].strength == 0.02


def test_override_resets_scan_list():
    c = apply_overrides(sample_config(), ["scan = T, 0.0, 1.0, 4"])
    assert c.scan == (ScanAxis(name="T", start=0.0, stop=1.0, points=4),)


def test_empty_overrides_are_identity():
    c = sample_config()
    assert apply_overrides(c, []) == c


def test_override_syntax_errors_match_file_syntax():
    with pytest.raises(ValueError, match="unknown key"):
        apply_overrides(RunConfig(), ["bogus = 1"])
