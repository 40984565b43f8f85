"""Smoke test of the benchmark itself, on tiny versions of its workloads.

Run with: python3 -m pytest -q perfbench
"""

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

# coarse grids and short windows, sized like the test suite's small configs
TINY = {
    "fig1-compare": {
        "bath": {"modes": 12},
        "numerics": {
            "discrete": {"k_nodes": 101, "time_start_t0": -12.0, "time_stop_t0": 10.0,
                         "time_step_t0": 0.5, "x_min_l0": -160.0, "x_max_l0": 160.0,
                         "right_spacing_l0": 0.08},
            "continuum": {"x_min_l0": -160.0, "x_max_l0": 160.0, "grid_spacing_l0": 0.08,
                          "time_start_t0": -12.0, "time_stop_t0": 10.0,
                          "time_step_t0": 0.02, "snapshots": 5}},
        "comparison": {"window_recurrence_fraction": [0.0, 0.18], "n_resample": 512}},
    "fluor-pair": {"numerics": {"continuum": {"grid_spacing_l0": 0.3}}},
    "tabulated-fields": {"numerics": {"continuum": {
        "grid_spacing_l0": 0.2, "time_step_t0": 0.005, "snapshots": 9}}},
}


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


@pytest.fixture
def tiny(monkeypatch):
    for name, override in TINY.items():
        base = workloads.BUILDERS[name]
        monkeypatch.setitem(workloads.BUILDERS, name,
                            lambda base=base, override=override: _merge(base(), override))
    monkeypatch.setattr(run, "MIN_RUNS", 1)


def _result(capsys, workload: str, trace: int) -> dict:
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace)])
    assert code == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def _assert_metrics(result: dict, units: dict) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units


def test_end_to_end_metrics_are_emitted_with_units(tiny, capsys):
    result = _result(capsys, "tabulated-fields", trace=0)
    _assert_metrics(result, run.metric_units(trace=False))
    assert all(m["value"] > 0.0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(TINY))
def test_per_layer_metrics_are_emitted_with_units(tiny, capsys, workload):
    result = _result(capsys, workload, trace=1)
    _assert_metrics(result, run.metric_units(trace=True))
    assert result["attempted"] == 2        # one untraced run, one traced
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["runner.attributed_share"] > 0.9
    layer = {"fig1-compare": "discrete.norm_series_s",
             "fluor-pair": "conditional.two_channel_s",
             "tabulated-fields": "output.csv_s"}[workload]
    assert metrics[layer] > 0.0


def test_broken_output_counts_as_failed(tiny, capsys, monkeypatch):
    real = run._run_child

    def run_and_break(args, timeout):
        code, output = real(args, timeout)
        manifest = Path(args[1]) / "manifest.json"
        data = json.loads(manifest.read_text())
        data["summary"]["fluorescence"]["raw_comparison"]["linf_relative"] = 0.5
        manifest.write_text(json.dumps(data))
        return code, output

    monkeypatch.setattr(run, "_run_child", run_and_break)
    result = _result(capsys, "fluor-pair", trace=0)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_refuses_to_run_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "fluor-pair", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
