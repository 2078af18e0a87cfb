"""Acceptance suite: the eight exit criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import one_step_grid, random_cptp_map, random_hp_tp_map
import oracles
from kdivis import config, divisibility, measures, models, qmat, sweep
from kdivis.divisibility import DivisibilityClass


@contextmanager
def criterion(tag, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {tag} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"[acceptance] {tag} ({description}): PASS  [{elapsed:.1f}s]")


# ---------------------------------------------------------------------------
# 1. Pauli region reproduction
# ---------------------------------------------------------------------------

def test_criterion_1_pauli_region_reproduction():
    with criterion("1", "constant-rate Pauli classification matches the "
                        "analytic region predicates"):
        start = time.perf_counter()
        rng = np.random.default_rng(20240817)
        checked = 0
        while checked < 500:
            g = rng.uniform(-1.0, 1.0, size=3)
            margin = min(np.abs(g).min(), abs(g[0] + g[1]), abs(g[1] + g[2]),
                         abs(g[2] + g[0]))
            if margin < 0.05:
                continue
            checked += 1
            expected = divisibility.constant_pauli_class(*g)
            verdict = divisibility.classify(
                models.PauliChannelModel.constant(*g), horizon=2.0, n_steps=200)
            assert verdict.pd_class == expected, (g, verdict.pd_class, expected)
        elapsed = time.perf_counter() - start
        assert elapsed <= 120.0, f"runtime {elapsed:.1f}s exceeds 2 min"


# ---------------------------------------------------------------------------
# 2. Eternal non-Markovianity (Hall preset)
# ---------------------------------------------------------------------------

def test_criterion_2_hall_eternal_non_markovianity():
    with criterion("2", "Hall preset: PD1, positive RHP everywhere, BLP blind"):
        model = models.PauliChannelModel.hall()
        verdict = divisibility.classify(model, horizon=10.0)
        assert verdict.pd_class == DivisibilityClass.PD1

        rhp = measures.rhp_measure(model, horizon=10.0)
        assert rhp.measure > 1e-3
        late = rhp.times > 0.1
        assert np.nanmin(rhp.g_series[late]) > 0.0

        blp = measures.blp_measure(model, horizon=10.0, n_pairs=64)
        assert blp.measure <= 1e-6


# ---------------------------------------------------------------------------
# 3. Sine eternal preset
# ---------------------------------------------------------------------------

def test_criterion_3_sine_eternal_preset():
    with criterion("3", "sine preset: PD1 on horizon 4 pi, BLP blind"):
        model = models.PauliChannelModel.sine_eternal()
        verdict = divisibility.classify(model, horizon=4.0 * np.pi)
        assert verdict.pd_class == DivisibilityClass.PD1
        blp = measures.blp_measure(model, horizon=4.0 * np.pi, n_pairs=64)
        assert blp.measure <= 1e-6


# ---------------------------------------------------------------------------
# 4. Amplitude-damping boundary (Fig. 3 sweep)
# ---------------------------------------------------------------------------

def test_criterion_4_amplitude_damping_boundary():
    with criterion("4", "amplitude damping: gamma0 = lambda/2 boundary, "
                        "degeneracy, BLP equivalent to the verdict"):
        from kdivis import figures
        spec = figures.figure_specs("fig3")[0]
        start = time.perf_counter()
        grid = sweep.run_sweep(spec, compute_measures=True)
        elapsed = time.perf_counter() - start

        delta = (spec.x.hi - spec.x.lo) / (spec.x.n - 1)  # one grid spacing
        for cell in grid.cells:
            gap = cell.x - cell.y / 2.0
            if gap < -delta - 1e-12:
                assert cell.pd_class == "PD2", (cell.x, cell.y, cell.pd_class)
            elif gap > delta + 1e-12:
                assert cell.pd_class == "PD0", (cell.x, cell.y, cell.pd_class)
            assert cell.pd_class != "PD1", (cell.x, cell.y)  # degeneracy
            # matched detection threshold: on the closed-form path the BLP
            # noise floor is exactly zero (monotone decay sums no positive
            # increments), while every PD0 cell shows strictly positive
            # backflow, so detection reduces to strict positivity
            assert (cell.blp > 0.0) == (cell.pd_class == "PD0"), \
                (cell.x, cell.y, cell.pd_class, cell.blp)
        assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds 60 s"


# ---------------------------------------------------------------------------
# 5. C-NOT model (Fig. 2)
# ---------------------------------------------------------------------------

def test_criterion_5_cnot_model():
    with criterion("5", "C-NOT: pure-control rows Markovian, RHP tracks the "
                        "verdict, a=0.5 strongly non-Markovian"):
        spec = sweep.GridSpec(
            family="cnot",
            x=sweep.ParamRange("gamma", 0.01, 1.0, 7),
            y=sweep.ParamRange("a", 0.0, 1.0, 9),
            fixed={"J": 1.0}, horizon=10.0, n_steps=500)
        grid = sweep.run_sweep(spec, compute_measures=True)
        threshold = config.DEFAULT.detection
        for cell in grid.cells:
            if cell.y in (0.0, 1.0):
                assert cell.pd_class == "PD2", (cell.x, cell.y, cell.pd_class)
            if not cell.near_boundary:
                assert (cell.rhp > threshold) == (cell.pd_class != "PD2"), \
                    (cell.x, cell.y, cell.pd_class, cell.rhp)
        verdict = divisibility.classify(
            models.CnotControlModel(J=1.0, gamma=0.01, a=0.5), horizon=10.0)
        assert verdict.pd_class == DivisibilityClass.PD0


# ---------------------------------------------------------------------------
# 6. Superradiance (Fig. 4)
# ---------------------------------------------------------------------------

def test_criterion_6_superradiance():
    with criterion("6", "superradiance: Markovian lines, BLP implies PD0, "
                        "BLP-blind PD0 region exists"):
        spec = sweep.GridSpec(
            family="superradiance",
            x=sweep.ParamRange("x", 0.05 * np.pi, 3.0 * np.pi, 60),
            y=sweep.ParamRange("a", 0.0, 1.0, 6),
            fixed={"gamma0": 1.0}, horizon=10.0, n_steps=500)
        grid = sweep.run_sweep(spec, compute_measures=True)
        threshold = config.DEFAULT.detection

        xs = spec.x.values()
        pi_cols = {i for i, x in enumerate(xs)
                   if min(abs(x - k * np.pi) for k in (1, 2, 3)) < 1e-9}
        assert len(pi_cols) == 3

        undetected_pd0 = 0
        for iy in range(spec.y.n):
            for ix in range(spec.x.n):
                cell = grid.cell(ix, iy)
                if cell.y == 0.0:
                    assert cell.pd_class == "PD2", (cell.x, cell.pd_class)
                if ix in pi_cols:
                    assert cell.pd_class == "PD2", (cell.x, cell.y, cell.pd_class)
                if cell.blp > threshold:
                    assert cell.pd_class == "PD0", \
                        (cell.x, cell.y, cell.pd_class, cell.blp)
                elif cell.pd_class == "PD0":
                    undetected_pd0 += 1
        assert undetected_pd0 >= 1


# ---------------------------------------------------------------------------
# 7. Oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_7_oracle_equivalence():
    with criterion("7", "RK4 against the analytic Pauli propagator and the "
                        "decoupled superradiance limit"):
        rng = np.random.default_rng(77)
        for _ in range(50):
            g = rng.uniform(-1.0, 1.0, size=3)
            model = models.PauliChannelModel.constant(*g)
            gen = oracles.pauli_generator(model, 0.0)
            for t in (1.0, 2.5, 5.0):
                rk = oracles.propagate_rk4(lambda _t: gen, t, steps=int(800 * t))
                exact = oracles.pauli_propagator_analytic(model, t)
                assert np.abs(rk - exact).max() <= 1e-6, (g, t)

        joint = oracles.joint_dynamics(models.SuperradianceModel(gamma0=1.0, x=np.pi, a=0.0))
        for t in (0.5, 1.5, 3.0, 5.0):
            reduced = oracles.reduced_propagator(*joint, t, steps=int(200 * t))
            analytic = oracles.damping_superop(np.exp(-0.5 * t))
            assert np.abs(reduced - analytic).max() <= 1e-5, t


# ---------------------------------------------------------------------------
# 8. Property suites
# ---------------------------------------------------------------------------

def test_criterion_8a_choi_round_trip():
    with criterion("8a", "Choi round trip on 100 random maps"):
        rng = np.random.default_rng(81)
        for _ in range(100):
            e = random_hp_tp_map(rng)
            assert np.abs(oracles.superop_of_choi(qmat.choi_of(e)) - e).max() <= 1e-12


def test_criterion_8b_cp_implies_positive():
    with criterion("8b", "CP implies P on 200 random HP TP maps"):
        rng = np.random.default_rng(82)
        exercised = 0
        for k in range(200):
            e = random_cptp_map(rng) if k % 2 else random_hp_tp_map(rng)
            cp, _ = divisibility.is_cp(e, tol=1e-9)
            if cp:
                exercised += 1
                ok, witness = divisibility.is_positive(e, tol=2e-9)
                assert ok, witness
        assert exercised >= 50


def test_criterion_8c_pauli_positivity_fast_path():
    with criterion("8c", "Pauli-diagonal positivity fast path against the "
                         "general search on 200 maps"):
        rng = np.random.default_rng(83)
        for _ in range(200):
            mu = rng.uniform(-1.5, 1.5, size=3)
            superop = oracles.pauli_diagonal_superop(mu)
            # the closed form of the production scan, on the complement of
            # the identity by the map; both witnesses are (1 - max|mu|)/2
            scan = divisibility.complement_scan(
                one_step_grid(np.eye(4), superop))
            fast = scan.p_witness[0] >= -0.5e-9
            general, witness = divisibility.is_positive(superop, tol=0.5e-9)
            assert fast == general, (mu, scan.p_witness[0], witness)


def test_criterion_8d_p_divisible_implies_no_backflow():
    with criterion("8d", "P-divisible processes keep every sigma below 1e-6"):
        cases = [
            (models.PauliChannelModel.hall(), 10.0),
            (models.PauliChannelModel.sine_eternal(), 4 * np.pi),
            (models.PauliChannelModel.constant(1.0, 1.0, -0.6), 6.0),
            (models.PauliChannelModel.constant(0.8, 0.4, 0.2), 6.0),
            (models.SuperradianceModel(1.0, np.pi / 2, 0.05), 10.0),
        ]
        for model, horizon in cases:
            verdict = divisibility.classify(model, horizon)
            assert verdict.pd_class >= DivisibilityClass.PD1
            result = measures.blp_measure(model, horizon, n_pairs=64)
            assert result.sigma_series.max() <= 1e-6, type(model).__name__


def test_criterion_8e_sweep_determinism():
    with criterion("8e", "byte-identical sweep output for 1, 2 and 3 workers"):
        spec = sweep.GridSpec(
            family="cnot",
            x=sweep.ParamRange("gamma", 0.02, 0.5, 4),
            y=sweep.ParamRange("a", 0.0, 1.0, 5),
            fixed={"J": 1.0}, horizon=6.0, n_steps=150)
        encodings = {sweep.encode_csv(sweep.run_sweep(spec, True, jobs=j))
                     for j in (1, 2, 3)}
        assert len(encodings) == 1


def test_criterion_8f_csv_round_trip():
    with criterion("8f", "CSV encoding round-trips classes and coordinates"):
        spec = sweep.GridSpec(
            family="ad",
            x=sweep.ParamRange("gamma0", 0.1, 1.5, 4),
            y=sweep.ParamRange("lambda", 0.4, 1.6, 3),
            fixed={}, horizon=30.0, n_steps=150)
        grid = sweep.run_sweep(spec, compute_measures=True, jobs=1)
        parsed = sweep.parse_csv(sweep.encode_csv(grid))
        assert len(parsed) == len(grid.cells)
        for orig, new in zip(grid.cells, parsed):
            assert new.pd_class == orig.pd_class
            assert new.x == pytest.approx(orig.x, rel=1e-8)
            assert new.y == pytest.approx(orig.y, rel=1e-8)
            assert new.near_boundary == orig.near_boundary
            assert new.singular_count == orig.singular_count
