"""Workload process of the tubekit benchmark.

Started by run.py, once per set-up measurement and once for the timed
phase.  It imports tubekit, runs one untimed warm-up operation, and prints
one JSON line with its timestamps (CLOCK_MONOTONIC, which every process on
the machine shares) and, unless --setup-only, the results of the timed
phase.  With --trace 1 it runs half the time untraced and half traced, and
writes the trace as JSONL next to the spec.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def peak_rss_mb(children: bool) -> float:
    """Peak RSS of this process, or the largest among its waited-for children.

    Linux carries the spawning process's peak into the rusage of the process
    it execs, so for this process VmHWM (the peak of its own address space
    since exec) is read instead.  The children's figure keeps that floor: it
    is at least this process's peak when it started them."""
    if children:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--spec", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import bench_workloads as BW           # imports tubekit
    from bench_trace import Tracer
    t_imported = time.monotonic()
    spec_path = Path(args.spec)
    spec = json.loads(spec_path.read_text())
    work = spec_path.parent
    wl = BW.CLASSES[spec["workload"]](spec, work)
    wl.warmup()
    out = {"t_imported": t_imported, "t_ready": time.monotonic(),
           "cold_start_s": wl.cold_start_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    if args.trace:
        plain = BW.run_phase(wl, args.seconds / 2)
        tracer = Tracer()
        wl.probes(tracer)
        wl.install(tracer)
        try:
            traced = BW.run_phase(wl, args.seconds / 2, tracer, expected=plain["expected"])
        finally:
            tracer.unwrap_all()
        layers = wl.layer_metrics(tracer, traced)
        layers["trace.overhead_ratio"] = (statistics.median(plain["pass_busy"])
                                          / statistics.median(traced["pass_busy"]))
        tracer.write_jsonl(work / "trace.jsonl")
        phases = [plain, traced]
        out["layers"] = layers
    else:
        phases = [BW.run_phase(wl, args.seconds)]

    main_phase = phases[0]
    out.update({
        "attempted": sum(ph["attempted"] for ph in phases),
        "failed": sum(ph["failed"] for ph in phases),
        "lat": main_phase["lat"], "ref": main_phase["ref"], "reference_s": wl.reference_s,
        "pass_busy": main_phase["pass_busy"],
        "clips_per_pass": main_phase["clips_per_pass"],
        "tubes_per_pass": main_phase["tubes_per_pass"],
        "output_sha256": main_phase["output_sha256"],
        "quality": wl.quality,
        "peak_rss_mb": peak_rss_mb(spec["workload"] == "walkthrough"),
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
