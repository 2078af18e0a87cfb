"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(tmp_root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=tmp_root,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.2",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def _reference_sweep():
    """The default seed's superradiance sweep and its committed reference."""
    cfg = workloads.sweep_configs("composite-measures", workloads.DEFAULT_SEED, "full", 1)[1]
    ref = run.reference("composite-measures", workloads.DEFAULT_SEED, "full")[1]
    svg = "<svg>" + "<rect />" * (cfg["sweep"]["x"]["n"] * cfg["sweep"]["y"]["n"]) + "</svg>\n"
    return cfg, ref, svg


def _corrupt(csv: str, row: int, column: int, value: str) -> str:
    lines = csv.splitlines()
    parts = lines[row + 1].split(",")
    parts[column] = value
    lines[row + 1] = ",".join(parts)
    return "\n".join(lines) + "\n"


def _fail_ratio(cfg, csv, svg, ref) -> float:
    tally = run.Tally()
    run.check_sweep_output(tally, cfg, 0, csv, svg, ref)
    return tally.failed / tally.attempted


def test_reference_output_passes_every_check():
    cfg, ref, svg = _reference_sweep()
    assert _fail_ratio(cfg, ref, svg, ref) == 0.0


@pytest.mark.parametrize("column, value", [
    (2, "flip-class"),       # class
    (4, "perturb-blp"),      # BLP
])
def test_corrupted_cell_counts_in_fail_ratio(column, value):
    cfg, ref, svg = _reference_sweep()
    cells = checks.parse_csv(ref)
    row = next(i for i, c in enumerate(cells) if not c["near"] and c["blp"] > 0.0)
    if value == "flip-class":
        value = "PD2" if cells[row]["class"] != "PD2" else "PD1"
    else:
        value = f"{cells[row]['blp'] * (1.0 + 1e-4):.9g}"
    bad = _corrupt(ref, row, column, value)
    n = cfg["sweep"]["x"]["n"] * cfg["sweep"]["y"]["n"]
    assert _fail_ratio(cfg, bad, svg, ref) == pytest.approx(1.0 / n)


def test_ad_cell_against_analytic_predicate_without_reference():
    cfg = workloads.sweep_configs("ad-measures", 5, "full", 1)[0]
    gamma0, lam = 2.0, 1.0   # first zero of G near t = 2.4, far inside the horizon
    assert checks.ad_expected_class(gamma0, lam, 100.0, 0.2) == "PD0"
    cfg["sweep"]["x"].update(min=gamma0, max=gamma0 + 0.1, n=2)
    cfg["sweep"]["y"].update(min=lam, max=lam + 0.1, n=2)
    rows = [f"{x:.9g},{y:.9g},PD2,0,0,0,0" for y in (lam, lam + 0.1) for x in (gamma0, gamma0 + 0.1)]
    csv = checks.CSV_HEADER + "\n" + "\n".join(rows) + "\n"
    svg = "<svg>" + "<rect />" * 4 + "</svg>\n"
    assert _fail_ratio(cfg, csv, svg, None) == 1.0


def test_corrupted_call_fails_its_check():
    pool = workloads.call_pool(workloads.DEFAULT_SEED, "full")
    ref = run.reference("single-calls", workloads.DEFAULT_SEED, "full")
    idx = next(i for i, e in enumerate(pool) if e["family"] == "cnot")
    good = ref[str(idx)]["classify"]
    assert checks.check_call(pool[idx], "classify", good, good) == []
    flipped = dict(good, **{"class": "PD2" if good["class"] != "PD2" else "PD1"})
    if not good["near"]:
        assert checks.check_call(pool[idx], "classify", flipped, good)
    blp = ref[str(idx)]["blp"]
    assert checks.check_call(pool[idx], "blp", {"blp": blp["blp"] * 1.001}, blp)


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "ad-measures", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
