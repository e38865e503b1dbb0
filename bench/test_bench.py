"""Self-test of the benchmark harness at toy size.

Run from the root of the checkout:  python3 -m pytest bench/test_bench.py -q

Every workload path (demo, stage-by-stage static run, process-pool sweep)
runs end to end at toy size, timed and traced, with its output checks.
"""

import dataclasses
import json
import os
import time

import pytest

import run
import workloads
from tracer import is_layer, self_times, union_s

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Below the default sizes the default smoothing bandwidths fall under their
# level-spacing floors, so the toy sweep widens them.
_SWEEP = workloads.sweep(dims=(64, 128))
TOYS = {
    "demo": workloads.demo(n_sites=8),
    "static": workloads.static(n_sites=8),
    "sweep": dataclasses.replace(_SWEEP, base=dict(
        _SWEEP.base, extract={"profile_bandwidth": 0.4, "min_count": 5})),
}


@pytest.fixture(autouse=True)
def toy_env(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", ROOT)
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    monkeypatch.setattr(run, "SETUP_PROBES", 2)


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_tables_match_benchmark_json():
    spec = bench_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("toy", sorted(TOYS))
@pytest.mark.parametrize("trace", [0, 1])
def test_toy_workload_is_correct_and_prints_only_named_metrics(toy, trace, capsys):
    spec = bench_json()
    named = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    summary = run.run_workload(TOYS[toy], seed=5, seconds=0, trace=trace)
    out = capsys.readouterr().out
    assert summary["correct"], out
    assert summary["failed"] == 0 and summary["attempted"] > 10
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert set(summary["metrics"]) == set(expected)
    printed = {line.split()[1] for line in out.splitlines() if line.strip()}
    assert printed - {"fail_frac"} <= named
    assert "fail_frac" in printed


def test_computed_counts_repeat_exactly():
    counts = [name for name, unit in run.PER_LAYER.items()
              if unit.endswith(".computed")]
    first = run.run_workload(TOYS["sweep"], seed=9, seconds=0, trace=1)["metrics"]
    second = run.run_workload(TOYS["sweep"], seed=9, seconds=0, trace=1)["metrics"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["dynamics.otoc.gflop"]["value"] == pytest.approx(
        8 * (64**3 + 128**3) * 7 / 1e9)
    assert first["extract.envelope_estimate.pairs"]["value"] == 64 * 63 + 128 * 127


def traced_spans(toy, tmp_path):
    os.makedirs(tmp_path / "w")
    runner = run.Runner(TOYS[toy], 3, str(tmp_path / "w"), time.monotonic())
    res = runner.start(traced=True)
    assert res["ok"] and res["exit_codes"] == [0] * len(res["exit_codes"])
    return res["spans"], res


def test_sweep_worker_spans_reach_the_trace(tmp_path):
    spans, res = traced_spans("sweep", tmp_path)
    sweep = [s for s in spans if s["name"] == "pipeline.sweep"]
    assert len(sweep) == 1
    points = [s for s in spans if s["name"] == "pipeline.run" and s["parent"] == sweep[0]["id"]]
    assert len(points) == 2
    assert all(p["pid"] != sweep[0]["pid"] for p in points)
    stages = [s for s in spans if s["name"].startswith("pipeline.stage.")]
    assert len(stages) == 2 * len(workloads.ALL_STAGES)
    assert {s["run"] for s in spans} == {sweep[0]["run"]}


@pytest.mark.parametrize("toy", ["demo", "sweep"])
def test_self_times_add_up(toy, tmp_path):
    spans, res = traced_spans(toy, tmp_path)
    for pid in {s["pid"] for s in spans}:
        ids = {s["id"] for s in spans if s["pid"] == pid}
        mine = [dict(s, parent=s["parent"] if s["parent"] in ids else None)
                for s in spans if s["pid"] == pid]
        # Inside one process spans nest, so self times partition the outer spans.
        assert sum(self_times(mine).values()) == pytest.approx(
            sum(s["end"] - s["start"] for s in mine if s["parent"] is None), abs=1e-6)
    assert all(v >= -1e-9 for v in self_times(spans).values())


def test_layer_spans_cover_the_wall_time(tmp_path):
    spans, res = traced_spans("demo", tmp_path)
    assert union_s(s for s in spans if is_layer(s["name"])) > 0.95 * res["wall_s"]
    # Lose the dynamics stage's spans, and the cover falls well short.
    lost = {s["id"] for s in spans if s["name"] == "pipeline.stage.dynamics"}
    for s in sorted(spans, key=lambda s: s["start"]):
        if s["parent"] in lost:
            lost.add(s["id"])
    kept = [s for s in spans if s["id"] not in lost and is_layer(s["name"])]
    assert union_s(kept) < 0.8 * res["wall_s"]


def test_thread_count_is_measured_not_configured(tmp_path):
    threads = {}
    for blas in (1, 2):
        toy = dataclasses.replace(TOYS["demo"], blas_threads=blas)
        os.makedirs(tmp_path / str(blas))
        res = run.Runner(toy, 3, str(tmp_path / str(blas)), time.monotonic()).start(traced=True)
        threads[blas] = run.layer_metrics(res["spans"], res, toy)["pipeline.threads"]
    assert threads[2] > threads[1] >= 1


def test_self_time_uses_union_of_overlapping_children():
    spans = [
        {"id": "p", "parent": None, "start": 0.0, "end": 10.0},
        {"id": "a", "parent": "p", "start": 1.0, "end": 6.0},
        {"id": "b", "parent": "p", "start": 4.0, "end": 8.0},
        {"id": "c", "parent": "a", "start": 2.0, "end": 3.0},
    ]
    own = self_times(spans)
    assert own == pytest.approx({"p": 3.0, "a": 4.0, "b": 4.0, "c": 1.0})


def test_refuses_a_tree_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    assert run.main(["--workload", "demo-L10", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_checks_catch_a_tampered_output(tmp_path):
    import checks
    os.makedirs(tmp_path / "w")
    runner = run.Runner(TOYS["demo"], 3, str(tmp_path / "w"), time.monotonic())
    res = runner.start()
    cache = str(tmp_path / "cache")
    chk = checks.Checks()
    checks.check_run(chk, TOYS["demo"], res["out"], res["exit_codes"], {}, cache)
    assert chk.results and not chk.failed
    path = os.path.join(res["out"], "dynamics.json")
    with open(path) as fh:
        data = json.load(fh)
    data["per_beta"][0]["f2_zero"] *= 1 + 1e-6
    with open(path, "w") as fh:
        json.dump(data, fh)
    chk = checks.Checks()
    checks.check_run(chk, TOYS["demo"], res["out"], res["exit_codes"], {}, cache)
    assert [name for name, _, _ in chk.failed] == ["f2_zero"]
