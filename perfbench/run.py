"""Run one workload of the tubekit benchmark and print its metrics.

    python3 perfbench/run.py --workload mine-eval --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the repository root: it imports tubekit from ./src and reads
metric names and units from ./BENCHMARK.json.  Inputs come from --seed
alone.  The run generates them (timed apart, as bench.inputgen_s), measures
set-up in fresh workload processes, runs the timed phase in one of them,
checks every output, and prints one line per metric, one `info` line with
provenance, digests, unscaled timings and quality figures, and, last, one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, their operation
timings scaled to the speed of reference work timed before every operation
(see the reference section of bench_workloads.py); with --trace 1 they are
the per-layer ones from a traced run, unscaled.  Work files go to
./.perfbench_work, where the trace of a --trace 1 run stays as trace.jsonl.
"""
from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("walkthrough", "associate-dense", "mine-eval", "grad-check")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3          # fresh workload processes per run; set-up is their median
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed operation)."""


def tail_latency(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that
    percentile.  Too few samples for a tail above the median give the median."""
    s = sorted(values)
    k = len(s) - 11
    if k < 0 or (k + 1) / len(s) <= 0.5:
        return statistics.median(s), 50.0
    return s[k], 100.0 * (k + 1) / len(s)


def isolate_environment(src: Path) -> dict:
    """Pin BLAS/OpenMP pools to one thread and drop TUBEKIT_JOBS for this
    process and every process it starts."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    dropped = os.environ.pop("TUBEKIT_JOBS", None) is not None
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    return {"threads_pinned": {v: "1" for v in THREAD_VARS},
            "tubekit_jobs_unset": True, "tubekit_jobs_was_set": dropped}


def git_sha(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == root.resolve():
        return lines[1]
    return "unknown"


def provenance(root: Path, seed: int, isolation: dict) -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": importlib.metadata.version("scipy"),
            "git_sha": git_sha(root), "seed": seed, **isolation}


def spawn_worker(spec_path: Path, seconds: float, trace: int, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--spec", str(spec_path),
           "--seconds", repr(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"workload process ran past {WORKER_TIMEOUT_S} s") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited {proc.returncode}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["t_ready"] - t_spawn
    if out["cold_start_s"] is None:
        out["cold_start_s"] = out["t_imported"] - t_spawn
    return out


def run_workload(name: str, args, root: Path, bench: dict, prov: dict) -> dict:
    import bench_workloads as BW
    work = root / ".perfbench_work" / f"{name}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    t0 = time.perf_counter()
    spec = BW.generate_inputs(name, args.seed, args.scale, work)
    inputgen_s = time.perf_counter() - t0
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))

    # Set-up probes go before and after the timed phase, so their median
    # spans the run rather than one moment of a shared machine.
    n_probes = 0 if args.trace else SETUP_REPEATS - 1
    probes = [spawn_worker(spec_path, args.seconds, 0, True) for _ in range(n_probes // 2)]
    r = spawn_worker(spec_path, args.seconds, args.trace, False)
    probes += [spawn_worker(spec_path, args.seconds, 0, True)
               for _ in range(n_probes - n_probes // 2)]
    setups = [p["setup_s"] for p in probes + [r]]
    lat = r["lat"]
    tail, tail_pct = tail_latency(lat)
    raw = {
        # Median over passes, so a burst of load on a shared machine
        # moves it less than a mean over the run would.
        "clips_per_s": r["clips_per_pass"] / statistics.median(r["pass_busy"]),
        "tubes_per_s": r["tubes_per_pass"] / statistics.median(r["pass_busy"]),
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail,
    }
    # Operation figures at the reference speed: a time scales by the
    # reference's nominal time over its median in this run, a rate by the
    # inverse.
    ref_median = statistics.median(r["ref"])
    scale = r["reference_s"] / ref_median
    if args.trace:
        values = {"bench.inputgen_s": inputgen_s,
                  "scenes.generate_s": spec["scenes_generate_s"], **r["quality"], **r["layers"]}
        wanted = bench["per_layer"]
    else:
        values = {k: v / scale if k.endswith("_per_s") else v * scale
                  for k, v in raw.items()}
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = r["peak_rss_mb"]
        wanted = bench["end_to_end"]
    # A per-layer metric of a layer this workload does not use reads 0.
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    info = {"workload": name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "scale": args.scale,
            "output_sha256": r["output_sha256"],
            "fail_ratio": r["failed"] / r["attempted"],
            "cold_start_s": statistics.median(p["cold_start_s"] for p in probes + [r]),
            "latency_samples": len(lat), "latency_tail_percentile": tail_pct,
            "passes": len(r["pass_busy"]), "setup_samples_s": setups,
            "unscaled": raw, "reference_median_s": ref_median,
            "reference_scale": scale,
            "bench.inputgen_s": inputgen_s, "quality": r["quality"],
            "nonsmooth_scenes_skipped": spec["nonsmooth_scenes_skipped"],
            "provenance": prov}
    for p in work.iterdir():        # keep the trace, drop the bulky inputs
        if p.name != "trace.jsonl":
            shutil.rmtree(p) if p.is_dir() else p.unlink()
    return {"correct": r["failed"] == 0, "attempted": r["attempted"],
            "failed": r["failed"], "metrics": metrics, "info": info}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny shapes exist for the benchmark's self-tests")
    args = p.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "tubekit" / "__init__.py").is_file():
        print(f"error: no tubekit source under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    isolation = isolate_environment(src)
    compileall.compile_dir(str(src), quiet=1)     # the build step: bytecode
    sys.path.insert(0, str(src))
    import tubekit
    if Path(tubekit.__file__).resolve().parent != (src / "tubekit").resolve():
        print(f"error: tubekit imported from {tubekit.__file__}, not {src}", file=sys.stderr)
        return 2
    prov = provenance(root, args.seed, isolation)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            res = results[name] = run_workload(name, args, root, bench, prov)
            for metric, m in res["metrics"].items():
                print(f"{name:<16} {metric:<34} {m['value']:.6g} {m['unit']}")
            for metric, unit in (("fail_ratio", "ratio"), ("cold_start_s", "s")):
                print(f"{name:<16} {metric:<34} {res['info'][metric]:.6g} {unit}")
            print("info " + json.dumps(res.pop("info")))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
