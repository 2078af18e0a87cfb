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


def test_encode_csv_all_pd2():
    grid = PhaseDiagramGrid(spec=None, nx=2, ny=2, cells=[
        _cell(0.0, 0.0), _cell(1.0, 0.0), _cell(0.0, 1.0), _cell(1.0, 1.0)])
    text = sweep.encode_csv(grid)
    lines = text.strip().splitlines()
    assert lines[0] == "x,y,class,near_boundary,blp,rhp,singular_count"
    assert len(lines) == 5
    assert all(",PD2,0,,,0" in ln for ln in lines[1:])


def test_encode_csv_err_cell():
    grid = PhaseDiagramGrid(spec=None, nx=2, ny=1, cells=[
        _cell(0.0, 0.0, "ERR"), _cell(1.0, 0.0)])
    assert "ERR" in sweep.encode_csv(grid)


def test_csv_round_trip_known_grid():
    cells = [
        _cell(0.05, 0.1, "PD0", True, 0.123456789, 2.5e-7, 3),
        _cell(2.0, 0.1, "PD2", False, 0.0, 0.0, 0),
        _cell(0.05, 2.0, "ERR", False, None, None, 0),
        _cell(2.0, 2.0, "PD1", False, None, 4.2, 1),
    ]
    grid = PhaseDiagramGrid(spec=None, nx=2, ny=2, cells=cells)
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
    min_size=1, max_size=12))
def test_csv_round_trip_property(rows):
    cells = [CellResult(x, y, cls, nb, blp, blp, sing)
             for (x, y, cls, nb, blp, sing) in rows]
    grid = PhaseDiagramGrid(spec=None, nx=len(cells), ny=1, cells=cells)
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


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

def test_svg_single_red_rect_for_pd0():
    import re
    grid = PhaseDiagramGrid(spec=None, nx=1, ny=1, cells=[_cell(0.0, 0.0, "PD0")])
    svg = sweep.encode_svg(grid)
    # exactly one cell rect (the legend swatch carries a stroke attribute)
    cell_rects = re.findall(rf'<rect [^>]*fill="{sweep.PALETTE["PD0"]}"/>', svg)
    assert len(cell_rects) == 1
    assert "<svg" in svg and "</svg>" in svg


def test_svg_mixed_grid_uses_per_class_fills():
    grid = PhaseDiagramGrid(spec=None, nx=2, ny=2, cells=[
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
        return PhaseDiagramGrid(spec=None, nx=3, ny=2, cells=cells)

    # threshold 1e-5 splits the PD0 cells: dashed contour appears
    split = grid_with_blp([[1e-8, 1e-8, 1e-2], [1e-8, 1e-3, 1e-2]])
    assert "stroke-dasharray" in sweep.encode_svg(split)
    # all detected: no contour
    detected = grid_with_blp([[1e-2, 1e-2, 1e-2], [1e-2, 1e-2, 1e-2]])
    assert "stroke-dasharray" not in sweep.encode_svg(detected)
    # no measures at all: no contour
    bare = PhaseDiagramGrid(spec=None, nx=2, ny=1,
                            cells=[_cell(0, 0, "PD0"), _cell(1, 0, "PD0")])
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


def test_default_jobs_env(monkeypatch):
    monkeypatch.setenv("KDIVIS_JOBS", "3")
    assert sweep.default_jobs() == 3
    monkeypatch.setenv("KDIVIS_JOBS", "junk")
    assert sweep.default_jobs() >= 1
    monkeypatch.delenv("KDIVIS_JOBS")
    assert sweep.default_jobs() >= 1
