"""Self-test of the benchmark at a tiny size.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))


def run_bench(workload, trace=0, *extra, cwd=ROOT, script=BENCH / "run.py"):
    command = [
        sys.executable, str(script), "--workload", workload, "--seed", "3",
        "--seconds", "1", "--trace", str(trace), "--scale", "tiny", *extra,
    ]
    return subprocess.run(command, capture_output=True, text=True, timeout=170, cwd=str(cwd))


def result_of(out):
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["context"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    result, context = result_of(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    for key in ("cpu_count", "python", "numpy", "seed", "host_probe_ms", "src_sha256"):
        assert key in context
    if workload == "serve" and trace:
        # transport is the remainder, so a gap means a stage was over-attributed
        assert context["worst_request_gap_pct"] == 0.0
        assert result["metrics"]["serving.decode_ms"]["value"] > 0
        assert result["metrics"]["fleet.execute_ms"]["value"] > 0
    if workload == "batch" and trace:
        assert result["metrics"]["stacked.groups"]["value"] == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_reference_counts_as_failed(workload):
    result, _ = result_of(run_bench(workload, 0, "--corrupt-reference"))
    assert result["failed"] >= 1
    assert result["correct"] is False


def test_stream_trace_yields_predicted_path_mix():
    import workloads

    scale = workloads.TINY
    stream = workloads.Stream(scale, seed=5)
    assert stream.paths.count("cold") == scale.incidents
    assert stream.paths.count("patched") == scale.incidents * (scale.incident_ticks - 1)
    stream.references = workloads.reference_candidates(stream.ticks)
    stream.warm_up()
    run = stream.run(passes=2)
    assert run["failed"] == 0
    assert run["path_mix_ok"]
    assert run["delta"]["cold"] == 2 * scale.incidents
    assert run["delta"]["patched"] == 2 * scale.incidents * (scale.incident_ticks - 1)


def test_predicted_paths_reject_churn_between_the_clamps():
    import repro.core
    import workloads

    stream = workloads.Stream(workloads.TINY, seed=5)
    ticks = list(stream.ticks)
    half = ticks[1]
    rows = half.n_rows // 10
    forecast = half.f.copy()
    forecast[:rows] += 1.0
    ticks[1] = type(half)(half.schema, half.codes, half.v, forecast, half.labels)
    with pytest.raises(RuntimeError, match="between the crossover clamps"):
        workloads.predicted_paths(ticks, repro.core.DeltaConfig())


def test_serve_counts_only_full_undeadlined_answers():
    import workloads

    answer = ["{a=1}"]
    body = {"status": "ok", "tier": "full", "stop_reason": None, "root_causes": answer}
    assert workloads.full_answer(body, answer)
    assert not workloads.full_answer({**body, "tier": "degraded"}, answer)
    assert not workloads.full_answer({**body, "stop_reason": "deadline"}, answer)
    assert not workloads.full_answer({**body, "root_causes": []}, answer)
    assert not workloads.full_answer({"status": "shed", "code": "queue_full"}, answer)


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("batch", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
