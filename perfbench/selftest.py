"""Self-tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the default test collection: they start
many interpreters and take a minute or two.
"""
from __future__ import annotations

import io
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import bench_workloads as BW  # noqa: E402
from bench_trace import Tracer  # noqa: E402
from run import WORKLOADS, tail_latency  # noqa: E402
from tubekit import formats as F  # noqa: E402
from tubekit.errors import FormatError  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def checkout(tmp_path_factory) -> Path:
    """A copy of what the benchmark needs, like the checkout it runs in."""
    root = tmp_path_factory.mktemp("checkout")
    shutil.copytree(ROOT / "src", root / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "perfbench", root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_appears_with_its_unit(checkout, workload, trace):
    proc = _run(checkout, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), name
    info = json.loads(next(line for line in lines if line.startswith("info "))[5:])
    assert info["fail_ratio"] == 0.0
    assert info["cold_start_s"] > 0.0
    assert len(info["output_sha256"]) == 64
    assert info["provenance"]["threads_pinned"]["OMP_NUM_THREADS"] == "1"
    if trace:
        assert (checkout / ".perfbench_work" / f"{workload}-s3-t1" / "trace.jsonl").is_file()
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0.0
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0.0 for m in wanted)
        scale = BW.CLASSES[workload].reference_s / info["reference_median_s"]
        assert info["reference_scale"] == pytest.approx(scale)
        assert result["metrics"]["setup_s"]["value"] == pytest.approx(
            statistics.median(info["setup_samples_s"]))
        for name, raw in info["unscaled"].items():
            want = raw / scale if name.endswith("_per_s") else raw * scale
            assert result["metrics"][name]["value"] == pytest.approx(want), name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "mine-eval", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _workload(name: str, work: Path, seed: int = 5) -> BW.Workload:
    spec = BW.generate_inputs(name, seed, "tiny", work)
    return BW.CLASSES[name](spec, work)


@pytest.mark.parametrize("workload", ["associate-dense", "mine-eval", "grad-check"])
def test_output_digest_repeats_for_a_seed(tmp_path, workload):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = BW.run_phase(_workload(workload, tmp_path / "a"), 0.0)
    again = BW.run_phase(_workload(workload, tmp_path / "b"), 0.0)
    assert first["failed"] == again["failed"] == 0
    assert first["output_sha256"] == again["output_sha256"]


@pytest.mark.parametrize("workload", ["walkthrough", "mine-eval"])
def test_reference_is_timed_before_every_operation(tmp_path, workload):
    phase = BW.run_phase(_workload(workload, tmp_path), 0.0)
    assert len(phase["ref"]) == len(phase["lat"]) == phase["attempted"]
    assert all(t > 0.0 for t in phase["ref"])


def test_truncated_tube_file_is_a_failed_operation(tmp_path, monkeypatch):
    wl = _workload("associate-dense", tmp_path)
    save_tubes = F.save_tubes

    def truncating_save(path, *args, **kwargs):
        save_tubes(path, *args, **kwargs)
        data = Path(path).read_bytes()
        Path(path).write_bytes(data[: len(data) // 2])

    monkeypatch.setattr(F, "save_tubes", truncating_save)
    log = io.StringIO()
    phase = BW.run_phase(wl, 0.0, log=log)
    assert phase["attempted"] == len(wl.items)
    assert phase["failed"] == len(wl.items)
    assert "FormatError" in log.getvalue()


def test_corrupt_input_fails_one_operation_and_the_run_goes_on(tmp_path):
    wl = _workload("mine-eval", tmp_path)
    tubes = tmp_path / wl.items[1]["tubes"]
    tubes.write_text(tubes.read_text()[:100])
    with pytest.raises(FormatError):
        F.load_tubes(str(tubes))
    phase = BW.run_phase(wl, 0.0, log=io.StringIO())
    assert phase["attempted"] == len(wl.items)
    assert phase["failed"] == 1


def test_changed_output_on_a_repeat_is_a_failure(tmp_path):
    wl = _workload("grad-check", tmp_path)
    first = BW.run_phase(wl, 0.0)
    wl.tubes[0] = wl.tubes[1]
    again = BW.run_phase(wl, 0.0, expected=first["expected"], log=io.StringIO())
    assert first["failed"] == 0 and again["failed"] == 1


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = [float(i) for i in range(100)]
    assert tail_latency(values) == (89.0, 90.0)
    assert tail_latency(values[:15]) == (7.0, 50.0)


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    with tracer.span("outer.a"):
        with tracer.span("inner.b"):
            pass
    outer, inner = tracer.spans
    selfs = tracer.self_times()
    assert selfs["inner"] == pytest.approx(inner["end"] - inner["start"])
    assert selfs["outer"] == pytest.approx(
        (outer["end"] - outer["start"]) - (inner["end"] - inner["start"]))

