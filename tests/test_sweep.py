import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdivis import sweep
from kdivis.sweep import CellResult, GridSpec, ParamRange, PhaseDiagramGrid


def _tiny_ad_spec(**kwargs):
    defaults = dict(
        family="ad",
        x=ParamRange("gamma0", 0.1, 1.5, 5),
        y=ParamRange("lambda", 0.4, 1.6, 4),
        fixed={},
        horizon=40.0,
        n_steps=200,
    )
    defaults.update(kwargs)
    return GridSpec(**defaults)


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_grid_spec_validation():
    with pytest.raises(ValueError):
        _tiny_ad_spec(family="nope")
    with pytest.raises(ValueError):
        _tiny_ad_spec(x=ParamRange("J", 0.1, 1.0, 5))  # not an ad parameter
    with pytest.raises(ValueError):
        _tiny_ad_spec(x=ParamRange("gamma0", 1.0, 0.1, 5))  # min > max
    with pytest.raises(ValueError):
        _tiny_ad_spec(x=ParamRange("gamma0", 0.1, 1.0, 1))  # too few points
    with pytest.raises(ValueError):
        _tiny_ad_spec(y=ParamRange("gamma0", 0.1, 1.0, 4))  # duplicate axis


@pytest.mark.parametrize("kwargs", [
    {"horizon": 0.0}, {"horizon": -1.0}, {"n_steps": 1},
    {"epsilon": 0.0}, {"epsilon": -0.1}, {"epsilon": 0.3},  # dt = 40/200 = 0.2
    {"n_pairs": 0}, {"horizon": float("inf")}, {"horizon": float("nan")},
], ids=["horizon0", "horizon-neg", "steps1", "eps0", "eps-neg", "eps-over-dt", "pairs0",
        "horizon-inf", "horizon-nan"])
def test_grid_spec_rejects_invalid_run_parameters(kwargs):
    with pytest.raises(ValueError):
        _tiny_ad_spec(**kwargs)
    _tiny_ad_spec(epsilon=0.2, n_pairs=1)  # the edges of the valid ranges


def _cnot_spec(fixed):
    return GridSpec(family="cnot", x=ParamRange("gamma", 0.01, 1.0, 3),
                    y=ParamRange("a", 0.0, 1.0, 3), fixed=fixed,
                    horizon=2.0, n_steps=50)


def test_grid_spec_rejects_missing_fixed_parameter():
    with pytest.raises(ValueError, match=r"missing fixed parameter\(s\) \['J'\]"):
        _cnot_spec({})


def test_grid_spec_rejects_unknown_fixed_parameter():
    with pytest.raises(ValueError, match="Jtypo"):
        _cnot_spec({"J": 1.0, "Jtypo": 5.0})


def test_grid_spec_rejects_fixed_parameter_shadowing_an_axis():
    with pytest.raises(ValueError, match="gamma"):
        _cnot_spec({"J": 1.0, "gamma": 0.5})


def test_grid_spec_rejects_non_finite_values():
    for fixed in ({"J": float("nan")}, {"J": float("inf")}, {"J": "-inf"}):
        with pytest.raises(ValueError, match="fixed parameter 'J': must be finite"):
            _cnot_spec(fixed)
    with pytest.raises(ValueError, match="fixed parameter 'g3': constant rate must be finite"):
        GridSpec(family="pauli", x=ParamRange("g1", -1.0, 1.0, 3),
                 y=ParamRange("g2", -1.0, 1.0, 3), fixed={"g3": "nan"}, horizon=1.0)
    for lo, hi in ((float("-inf"), 1.0), (0.1, float("inf")), (float("nan"), 1.0)):
        with pytest.raises(ValueError, match="axis 'gamma0' bounds must be finite"):
            _tiny_ad_spec(x=ParamRange("gamma0", lo, hi, 5))


@pytest.mark.parametrize("name, value", [
    ("tol", float("nan")), ("tol", float("inf")), ("tol", 0.0),
    ("detection", float("nan")), ("detection", -1.0), ("detection", None),
])
def test_grid_spec_rejects_tolerance_and_detection_not_positive_and_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        _tiny_ad_spec(**{name: value})


def test_cell_model_binds_axes():
    spec = _tiny_ad_spec()
    model = spec.cell_model(0.7, 1.1)
    assert model.gamma0 == 0.7 and model.lam == 1.1


def test_fixed_params_must_be_serializable():
    with pytest.raises(ValueError):
        GridSpec(
            family="pauli",
            x=ParamRange("g1", -1.0, 1.0, 3),
            y=ParamRange("g2", -1.0, 1.0, 3),
            fixed={"g3": lambda t: 0.0},
            horizon=2.0, n_steps=50)


# ---------------------------------------------------------------------------
# sweeping
# ---------------------------------------------------------------------------

def test_small_amplitude_damping_sweep_regions():
    grid = sweep.run_sweep(_tiny_ad_spec(), compute_measures=True, jobs=1)
    assert len(grid.cells) == 20
    for cell in grid.cells:
        assert cell.pd_class in ("PD0", "PD2")  # degeneracy: no PD1 anywhere
        expected = "PD0" if cell.x > cell.y / 2 else "PD2"
        assert cell.pd_class == expected, (cell.x, cell.y)
        assert cell.blp is not None and cell.rhp is not None
        if cell.pd_class == "PD2":
            assert cell.rhp <= 1e-6


def test_sweep_without_measures_leaves_fields_empty():
    grid = sweep.run_sweep(_tiny_ad_spec(), compute_measures=False, jobs=1)
    assert all(c.blp is None and c.rhp is None for c in grid.cells)


def test_sweep_deterministic_across_worker_counts():
    spec = GridSpec(
        family="cnot",
        x=ParamRange("gamma", 0.02, 0.5, 4),
        y=ParamRange("a", 0.0, 1.0, 5),
        fixed={"J": 1.0},
        horizon=6.0,
        n_steps=150,
    )
    outputs = []
    for jobs in (1, 2, 3):
        grid = sweep.run_sweep(spec, compute_measures=True, jobs=jobs)
        outputs.append(sweep.encode_csv(grid))
    assert outputs[0] == outputs[1] == outputs[2]


def test_sweep_records_errors_per_cell():
    # x <= 0 is invalid for the superradiance family: those cells carry ERR
    spec = GridSpec(
        family="superradiance",
        x=ParamRange("x", -0.5, 1.5, 3),
        y=ParamRange("a", 0.0, 1.0, 2),
        fixed={"gamma0": 1.0},
        horizon=2.0,
        n_steps=50,
    )
    grid = sweep.run_sweep(spec, jobs=1)
    classes = grid.classes()
    assert (classes[:, 0] == "ERR").all()
    assert (classes[:, 2] != "ERR").all()
    err_cell = grid.cell(0, 0)
    assert err_cell.error


def test_sweep_propagates_programming_errors(monkeypatch):
    # only physical and numerical failures become ERR cells; a TypeError is
    # a bug and must stop the sweep instead of painting a white cell
    def broken(*args, **kwargs):
        raise TypeError("unexpected argument")

    monkeypatch.setattr(sweep.models, "propagator_grid", broken)
    with pytest.raises(TypeError, match="unexpected argument"):
        sweep.run_sweep(_tiny_ad_spec(), jobs=1)


def test_conflicting_cell_count_rejected():
    spec = _tiny_ad_spec()
    cells = [CellResult(0, 0, "PD2", False, None, None, 0)] * 3
    with pytest.raises(ValueError):
        PhaseDiagramGrid(spec=spec, cells=cells)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def _cell(x, y, cls="PD2", nb=False, blp=None, rhp=None, sing=0):
    return CellResult(x, y, cls, nb, blp, rhp, sing)


def _grid(cells, nx, ny):
    """``cells`` laid out on a small ad spec of ``nx`` by ``ny`` points."""
    spec = _tiny_ad_spec(x=ParamRange("gamma0", 0.1, 1.5, nx),
                         y=ParamRange("lambda", 0.4, 1.6, ny))
    return PhaseDiagramGrid(spec=spec, cells=cells)


def test_encode_csv_all_pd2():
    grid = _grid(nx=2, ny=2, cells=[
        _cell(0.0, 0.0), _cell(1.0, 0.0), _cell(0.0, 1.0), _cell(1.0, 1.0)])
    text = sweep.encode_csv(grid)
    lines = text.strip().splitlines()
    assert lines[0] == "x,y,class,near_boundary,blp,rhp,singular_count"
    assert len(lines) == 5
    assert all(",PD2,0,,,0" in ln for ln in lines[1:])


def test_encode_csv_err_cell():
    grid = _grid(nx=2, ny=2, cells=[
        _cell(0.0, 0.0, "ERR"), _cell(1.0, 0.0), _cell(0.0, 1.0), _cell(1.0, 1.0)])
    assert "ERR" in sweep.encode_csv(grid)


def test_csv_round_trip_known_grid():
    cells = [
        _cell(0.05, 0.1, "PD0", True, 0.123456789, 2.5e-7, 3),
        _cell(2.0, 0.1, "PD2", False, 0.0, 0.0, 0),
        _cell(0.05, 2.0, "ERR", False, None, None, 0),
        _cell(2.0, 2.0, "PD1", False, None, 4.2, 1),
    ]
    grid = _grid(cells, nx=2, ny=2)
    parsed = sweep.parse_csv(sweep.encode_csv(grid))
    for orig, new in zip(cells, parsed):
        assert new.pd_class == orig.pd_class
        assert new.x == pytest.approx(orig.x, rel=1e-8)
        assert new.y == pytest.approx(orig.y, rel=1e-8)
        assert new.near_boundary == orig.near_boundary
        assert new.singular_count == orig.singular_count


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(
        st.floats(-1e3, 1e3, allow_nan=False),
        st.floats(-1e3, 1e3, allow_nan=False),
        st.sampled_from(["PD0", "PD1", "PD2", "ERR"]),
        st.booleans(),
        st.one_of(st.none(), st.floats(0, 1e3, allow_nan=False)),
        st.integers(0, 500),
    ),
    min_size=4, max_size=12))
def test_csv_round_trip_property(rows):
    # two rows of cells: a spec axis has at least two points
    cells = [CellResult(x, y, cls, nb, blp, blp, sing)
             for (x, y, cls, nb, blp, sing) in rows[:len(rows) // 2 * 2]]
    grid = _grid(cells, nx=len(cells) // 2, ny=2)
    parsed = sweep.parse_csv(sweep.encode_csv(grid))
    assert len(parsed) == len(cells)
    for orig, new in zip(cells, parsed):
        assert new.pd_class == orig.pd_class
        assert new.near_boundary == orig.near_boundary
        assert new.singular_count == orig.singular_count
        assert new.x == pytest.approx(orig.x, rel=1e-8, abs=1e-12)


def test_parse_csv_rejects_garbage():
    with pytest.raises(ValueError):
        sweep.parse_csv("hello,world\n1,2\n")
    header = "x,y,class,near_boundary,blp,rhp,singular_count"
    with pytest.raises(ValueError, match="malformed row: '0.5,1,PD2,0,,'"):
        sweep.parse_csv(f"{header}\n0.5,1,PD2,0,,,0\n0.5,1,PD2,0,,\n")


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

def test_svg_single_red_rect_for_pd0():
    import re
    grid = _grid(nx=2, ny=2, cells=[
        _cell(0.0, 0.0, "PD0"), _cell(1.0, 0.0), _cell(0.0, 1.0), _cell(1.0, 1.0)])
    svg = sweep.encode_svg(grid)
    # exactly one cell rect (the legend swatch carries a stroke attribute)
    cell_rects = re.findall(rf'<rect [^>]*fill="{sweep.PALETTE["PD0"]}"/>', svg)
    assert len(cell_rects) == 1
    assert "<svg" in svg and "</svg>" in svg


def test_svg_mixed_grid_uses_per_class_fills():
    grid = _grid(nx=2, ny=2, cells=[
        _cell(0, 0, "PD0"), _cell(1, 0, "PD1"),
        _cell(0, 1, "PD2"), _cell(1, 1, "ERR")])
    svg = sweep.encode_svg(grid)
    for name in ("PD0", "PD1", "PD2"):
        assert sweep.PALETTE[name] in svg


def test_svg_contour_present_iff_pd0_split_by_threshold():
    def grid_with_blp(values):
        cells = []
        for iy in range(2):
            for ix in range(3):
                cells.append(_cell(float(ix), float(iy), "PD0",
                                   blp=values[iy][ix], rhp=1.0))
        return _grid(cells, nx=3, ny=2)

    # threshold 1e-5 splits the PD0 cells: dashed contour appears
    split = grid_with_blp([[1e-8, 1e-8, 1e-2], [1e-8, 1e-3, 1e-2]])
    assert "stroke-dasharray" in sweep.encode_svg(split)
    # all detected: no contour
    detected = grid_with_blp([[1e-2, 1e-2, 1e-2], [1e-2, 1e-2, 1e-2]])
    assert "stroke-dasharray" not in sweep.encode_svg(detected)
    # no measures at all: no contour
    bare = _grid(nx=2, ny=2, cells=[_cell(0, 0, "PD0"), _cell(1, 0, "PD0"),
                                    _cell(0, 1, "PD0"), _cell(1, 1, "PD0")])
    assert "stroke-dasharray" not in sweep.encode_svg(bare)


def test_marching_squares_simple_field():
    field = np.array([[0.0, 0.0], [1.0, 1.0]])
    segs = sweep._marching_squares(field, 0.5)
    assert len(segs) == 1
    (x1, y1), (x2, y2) = segs[0]
    # crossing halfway up both columns
    assert y1 == pytest.approx(0.5) and y2 == pytest.approx(0.5)
    field_nan = np.array([[0.0, np.nan], [1.0, 1.0]])
    assert sweep._marching_squares(field_nan, 0.5) == []


def test_default_jobs_counts_the_cpus_the_process_may_use(monkeypatch):
    # a process pinned to two of eight CPUs starts two workers, not eight
    assert sweep.default_jobs() >= 1
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 5}, raising=False)
    assert sweep.default_jobs() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert sweep.default_jobs() == 8
