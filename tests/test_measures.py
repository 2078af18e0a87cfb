import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import one_step_grid, one_step_maps
import oracles
from kdivis import divisibility, measures, models, qmat
from kdivis.divisibility import DivisibilityClass
from kdivis.errors import AllStepsSingular


# ---------------------------------------------------------------------------
# BLP
# ---------------------------------------------------------------------------

def test_blp_zero_for_markovian_depolarizing():
    model = models.PauliChannelModel.constant(1.0, 1.0, 1.0)
    result = measures.blp_measure(model, 10.0)
    assert result.measure <= 1e-12


def test_blp_blind_to_hall_despite_pd1():
    model = models.PauliChannelModel.hall()
    assert divisibility.classify(model, 10.0).pd_class == DivisibilityClass.PD1
    assert measures.blp_measure(model, 10.0, n_pairs=64).measure <= 1e-6


def test_blp_detects_strong_coupling_amplitude_damping():
    model = models.AmplitudeDampingModel(gamma0=2.0, lam=1.0)
    result = measures.blp_measure(model, 20.0)
    assert result.measure > 1e-3
    assert measures.blp_detects(model, 20.0)


def test_blp_series_shapes_and_invariants():
    model = models.AmplitudeDampingModel(gamma0=2.0, lam=1.0)
    result = measures.blp_measure(model, 10.0, n_steps=100, n_pairs=16)
    assert result.sigma_series.shape == (100, 16)
    assert result.directions.shape == (16, 3)
    assert result.measure >= 0.0
    assert np.linalg.norm(result.argmax_pair) == pytest.approx(1.0, abs=1e-12)


def test_blp_trace_distance_matches_trace_norm_path():
    # the Bloch-difference shortcut must equal the direct trace-distance of
    # the evolved antipodal pair
    model = models.AmplitudeDampingModel(gamma0=2.0, lam=1.0)
    grid = models.propagator_grid(model, 6.0, 50)
    result = measures.blp_from_grid(grid, 8)
    dirs = result.directions
    for p in (0, 3, 7):
        rho_plus = oracles.density_from_bloch(dirs[p])
        rho_minus = oracles.density_from_bloch(-dirs[p])
        for i in (0, 20, 50):
            e = oracles.amplitude_damping_propagator(model, grid.times[i])
            direct = oracles.trace_distance(oracles.apply_superop(e, rho_plus),
                                            oracles.apply_superop(e, rho_minus))
            shortcut = np.linalg.norm(grid.bloch[i, :3] * dirs[p])
            assert_allclose(direct, shortcut, atol=1e-10)


def test_blp_requires_at_least_one_pair():
    with pytest.raises(ValueError):
        measures.blp_measure(models.PauliChannelModel.hall(), 1.0, n_pairs=0)


_BLP_MODELS = {
    "pauli": (models.PauliChannelModel.hall(), 10.0),
    "ad": (models.AmplitudeDampingModel(gamma0=2.0, lam=1.0), 20.0),
    "cnot": (models.CnotControlModel(J=1.0, gamma=0.1, a=0.5), 10.0),
    "superradiance": (models.SuperradianceModel(gamma0=1.0, x=np.pi / 2, a=0.5), 10.0),
}


def _direct_blp(full, dirs):
    """Reference: trace distances as the norms |M_t u| of the evolved Bloch
    differences under the full transfer matrices, the C-NOT maps with their
    rotation, without the Gram form or time blocks."""
    dist = np.linalg.norm(full.ptm[:, 1:, 1:] @ dirs.T, axis=1)
    inc = np.diff(dist, axis=0)
    positive = np.clip(inc, 0.0, None).sum(axis=0)
    return positive, inc / full.dt


@pytest.mark.parametrize("family", list(_BLP_MODELS))
def test_blp_matches_direct_bloch_norm(family):
    model, horizon = _BLP_MODELS[family]
    # time blocks of max(1, 8192 // n_pairs - 1) rows: 127-row blocks at
    # 500 steps and 64 pairs; 80-row blocks at 1000 steps and 100 pairs, so
    # the last block is partial; one row per block past 8192 pairs
    for n_steps, n_pairs in ((500, 64), (1000, 100), (40, 8193)):
        grid = models.propagator_grid(model, horizon, n_steps)
        result = measures.blp_from_grid(grid, n_pairs)
        positive, sigma = _direct_blp(oracles.full_grid(model, grid), result.directions)
        assert_allclose(result.measure, positive.max(), rtol=0, atol=1e-12)
        best = int(np.argmax(result.directions @ result.argmax_pair))
        assert_allclose(positive[best], positive.max(), rtol=0, atol=1e-12)
        assert_allclose(result.sigma_series, sigma, rtol=0, atol=1e-12)


def test_blp_of_a_gram_row_past_float64_is_a_value_error():
    # g1 = -100 grows lambda_2 = lambda_3 = e^{99 t} past sqrt(float max),
    # 1.3e154, from t = 3.585: d * d overflowed there and the measure was NaN
    model = models.PauliChannelModel.constant(-100.0, 1.0, 1.0)
    with pytest.raises(ValueError, match=r"BLP Gram diagonal overflows float64 from t = 3\.938"):
        measures.blp_measure(model, 7.16, 20)
    # one step earlier every entry still squares to a float64
    assert measures.blp_measure(model, 3.58, 10).measure > 1e150


def test_blp_command_of_an_overflowing_model_is_a_run_error(capsys):
    from kdivis.cli import main
    argv = ["blp", "pauli", "--g1", "-100", "--g2", "1", "--g3", "1", "--steps", "20"]
    assert main([*argv, "--horizon", "7.16"]) == 2
    captured = capsys.readouterr()
    assert "error: BLP Gram diagonal overflows float64" in captured.err
    assert captured.out == ""
    # classify and rhp read no Gram diagonal and stay finite
    assert main(["classify", *argv[1:], "--horizon", "7.16"]) == 0


def test_blp_directions_cached_read_only_and_calls_repeat():
    grid = models.propagator_grid(models.AmplitudeDampingModel(2.0, 1.0), 20.0, 300)
    first = measures.blp_from_grid(grid, 16)
    second = measures.blp_from_grid(grid, 16)
    assert first.directions is second.directions
    np.testing.assert_array_equal(first.directions, qmat.fibonacci_sphere(16))
    for arr in (first.directions, first.argmax_pair):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert first.measure == second.measure
    np.testing.assert_array_equal(first.argmax_pair, second.argmax_pair)
    np.testing.assert_array_equal(first.sigma_series, second.sigma_series)


def test_blp_from_grid_peak_allocation():
    # every temporary stays below glibc's mmap threshold, so a call reuses
    # heap memory instead of page-faulting fresh mappings; the evolved
    # (n+1, 3, n_pairs) tensor alone would be 752 KiB here
    grid = models.propagator_grid(models.AmplitudeDampingModel(2.0, 1.0), 100.0, 500)
    measures.blp_from_grid(grid, 64)
    tracemalloc.start()
    try:
        measures.blp_from_grid(grid, 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


# ---------------------------------------------------------------------------
# RHP
# ---------------------------------------------------------------------------

def _rhp_g(e_t, e_te, epsilon, closed_form=False):
    """RHP rate of the one complement step from ``e_t`` to ``e_te``, on the
    package's closed form or on the generic scan."""
    scan = (divisibility.complement_scan(one_step_grid(e_t, e_te, epsilon)) if closed_form
            else oracles.generic_scan(one_step_maps(e_t, e_te, epsilon)))
    return measures.rhp_from_scan(scan).g_series[0]


def test_rhp_g_zero_for_cp_complement():
    for closed_form in (True, False):
        assert _rhp_g(np.eye(4), np.eye(4), 0.02, closed_form) == 0.0


def test_rhp_g_positive_for_hall_complement():
    model = models.PauliChannelModel.hall()
    t, eps = 1.0, 0.01
    e_t = oracles.pauli_propagator_analytic(model, t)
    e_te = oracles.pauli_propagator_analytic(model, t + eps)
    # oracle: the complement, inverted here, has one negative Choi level of
    # size ~ eps tanh(t)/2
    choi = qmat.choi_of(e_te @ np.linalg.inv(e_t))
    lowest = np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))[0]
    assert lowest < -1e-4
    for closed_form in (True, False):
        g = _rhp_g(e_t, e_te, eps, closed_form)
        assert_allclose(g, -2.0 * lowest / eps, rtol=1e-6)
        assert_allclose(g, np.tanh(t), atol=0.02)


def test_rhp_g_from_synthetic_choi_spectrum():
    # complement with Choi eigenvalues (0.6, 0.5, -0.1, 0): trace norm 1.2
    eps = 0.05
    diag = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
    assert_allclose(_rhp_g(np.eye(4), oracles.superop_of_choi(diag), eps), 0.2 / eps,
                    atol=1e-12)


def test_rhp_measure_small_for_pd2_models():
    for model, horizon in ((models.PauliChannelModel.constant(1.0, 0.7, 0.2), 10.0),
                           (models.AmplitudeDampingModel(0.3, 1.0), 10.0),
                           (models.CnotControlModel(1.0, 0.2, 0.0), 10.0)):
        assert measures.rhp_measure(model, horizon).measure <= 1e-6


def test_rhp_measure_raises_when_every_step_is_singular(monkeypatch):
    # step 0 starts at the identity, so only maps that are not finite from
    # the first step on leave no step to integrate. A Pauli model raises
    # before its eigenvalues overflow, so the grid's are patched to +inf
    monkeypatch.setattr(models.PauliChannelModel, "bloch_eigenvalues",
                        lambda self, times: np.where(times[:, None] > 0.0, np.inf, np.ones(3)))
    with pytest.raises(AllStepsSingular):
        measures.rhp_measure(models.PauliChannelModel.hall(), 10.0, 20)


def test_rhp_hall_eternal_positive_everywhere():
    model = models.PauliChannelModel.hall()
    result = measures.rhp_measure(model, 10.0)
    assert result.measure > 1e-3
    late = result.times > 0.1
    assert np.nanmin(result.g_series[late]) > 0.0
    # g(t) tracks tanh t for this preset
    assert_allclose(np.nanmax(result.g_series), 1.0, atol=0.05)


def test_rhp_cnot_pure_control_measure_zero():
    model = models.CnotControlModel(J=1.0, gamma=0.05, a=0.0)
    assert measures.rhp_measure(model, 10.0).measure <= 1e-6


def test_detects_hall_rhp_only():
    model = models.PauliChannelModel.hall()
    assert not measures.blp_detects(model, 10.0)
    assert measures.rhp_detects(model, 10.0)


def test_detects_amplitude_damping_both():
    model = models.AmplitudeDampingModel(gamma0=2.0, lam=1.0)
    assert measures.blp_detects(model, 20.0)
    assert measures.rhp_detects(model, 20.0)


def test_detects_superradiance_small_a_rhp_only():
    model = models.SuperradianceModel(gamma0=1.0, x=np.pi / 2, a=0.05)
    assert measures.rhp_detects(model, 10.0)
    assert not measures.blp_detects(model, 10.0)


# ---------------------------------------------------------------------------
# theorem checks
# ---------------------------------------------------------------------------

def test_p_divisible_processes_have_no_information_backflow():
    # P-divisible implies sigma <= 0 for every pair; sampled discretely
    cases = [
        (models.PauliChannelModel.hall(), 10.0),
        (models.PauliChannelModel.sine_eternal(), 4 * np.pi),
        (models.PauliChannelModel.constant(1.0, 1.0, -0.4), 6.0),
        (models.PauliChannelModel.constant(0.5, 0.3, 0.1), 6.0),
        (models.SuperradianceModel(1.0, np.pi / 2, 0.05), 10.0),
    ]
    for model, horizon in cases:
        verdict = divisibility.classify(model, horizon)
        assert verdict.pd_class >= DivisibilityClass.PD1
        result = measures.blp_measure(model, horizon)
        assert result.sigma_series.max() <= 1e-6, type(model).__name__
        assert result.measure <= 1e-6


def test_blp_detection_implies_pd0():
    cases = [
        (models.PauliChannelModel(0.0, 0.0, "sin"), 2 * np.pi),
        (models.AmplitudeDampingModel(2.0, 1.0), 20.0),
        (models.CnotControlModel(1.0, 0.02, 0.5), 10.0),
        (models.SuperradianceModel(1.0, 0.05 * np.pi, 0.9), 10.0),
    ]
    detected = 0
    for model, horizon in cases:
        if measures.blp_detects(model, horizon):
            detected += 1
            verdict = divisibility.classify(model, horizon)
            assert verdict.pd_class == DivisibilityClass.PD0
    assert detected == len(cases)  # these cases all show backflow


def test_rhp_agrees_with_classifier_away_from_boundaries():
    cases = [
        (models.PauliChannelModel.constant(1.0, 1.0, 1.0), 6.0),
        (models.PauliChannelModel.hall(), 10.0),
        (models.AmplitudeDampingModel(0.3, 1.0), 10.0),
        (models.AmplitudeDampingModel(2.0, 1.0), 20.0),
        (models.CnotControlModel(1.0, 0.3, 0.25), 10.0),
        (models.SuperradianceModel(1.0, np.pi, 0.7), 10.0),
    ]
    for model, horizon in cases:
        verdict = divisibility.classify(model, horizon)
        detected = measures.rhp_detects(model, horizon)
        assert detected == (verdict.pd_class != DivisibilityClass.PD2), \
            type(model).__name__


def test_rhp_skips_singular_steps():
    model = models.CnotControlModel(J=1.0, gamma=1.0, a=0.0)
    grid = models.propagator_grid(model, 40.0, 200)
    scan = divisibility.complement_scan(grid)
    assert scan.singular.any()
    result = measures.rhp_from_scan(scan)
    assert result.measure <= 1e-6
    assert len(result.singular_times) == int(scan.singular.sum())
    assert np.isnan(result.g_series[scan.singular]).all()
