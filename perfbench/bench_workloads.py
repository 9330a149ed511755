"""The workloads of the tubekit benchmark.

Each workload has two halves.  `generate_inputs` runs in the orchestrator
before anything is timed: it turns the seed into input files and a spec.
The workload class runs in the workload process: it performs one operation
per item, checks the outputs outside the timed region, and turns a trace
into per-layer metrics.  Every call into tubekit goes through a module
attribute (`F.load_tubes`, `A.run_association`, ...), so the traced run can
wrap those names without an edit to tubekit itself.
"""
from __future__ import annotations

import csv
import hashlib
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from tubekit import association as A
from tubekit import autolabel as AL
from tubekit import consistency as C
from tubekit import formats as F
from tubekit import metrics as MT
from tubekit import mining as MN
from tubekit import scenes as S
from tubekit.errors import NonSmoothError

from bench_trace import Tracer

# Clip shapes.  `clips` (or `lengths`) is the number of distinct inputs a
# seed yields; a run cycles over them in whole passes, so every pass has the
# same input mix and the outputs of a repeat must match the first pass byte
# for byte.
SHAPES = {
    "full": {
        # The README CLI walkthrough.  One clip keeps a pass near 10 s, so
        # a run holds whole passes without running far past --seconds.
        "walkthrough": dict(clips=1, frames=32, objects=2, feature_dim=16,
                            detection_noise=0.005, distractor_rate=0.5,
                            n_q=2, exposure_trials=2000),
        # ROADMAP's large association shape, with appearance drift high
        # enough that identity switches occur.
        "associate-dense": dict(clips=5, frames=256, objects=15, feature_dim=64,
                                appearance_drift=0.5, detection_noise=0.005,
                                distractor_rate=3.0, n_q=15),
        "mine-eval": dict(clips=6, frames=128, objects=15, feature_dim=16,
                          appearance_drift=0.05, detection_noise=0.005,
                          distractor_rate=3.0, n_q=15),
        # Five short tubes per long one, so the latency median and tail sit
        # inside the T=32 group instead of jumping between the two lengths.
        "grad-check": dict(lengths=(32, 32, 32, 32, 32, 64), objects=2,
                           feature_dim=16, detection_noise=0.005,
                           distractor_rate=0.5, n_q=2),
    },
    # Same code paths at a size the self-tests can afford.
    "tiny": {
        "walkthrough": dict(clips=1, frames=16, objects=2, feature_dim=8,
                            detection_noise=0.005, distractor_rate=0.5,
                            n_q=2, exposure_trials=200),
        "associate-dense": dict(clips=2, frames=24, objects=4, feature_dim=8,
                                appearance_drift=0.5, detection_noise=0.005,
                                distractor_rate=1.0, n_q=4),
        "mine-eval": dict(clips=2, frames=24, objects=4, feature_dim=8,
                          appearance_drift=0.05, detection_noise=0.005,
                          distractor_rate=1.0, n_q=4),
        "grad-check": dict(lengths=(8, 8, 12), objects=2, feature_dim=8,
                           detection_noise=0.005, distractor_rate=0.5, n_q=2),
    },
}

ALPHA = 0.1
GRAD_TOLERANCE = 1e-4
SUBCOMMANDS = ("simulate", "associate", "mine", "losses", "grad-check",
               "select", "eval", "exposure", "autolabel")
REPORTS = ("mine", "losses", "grad-check", "eval", "exposure")
OUTPUTS = {
    "simulate": ("clip.detections.jsonl", "clip.gt.json", "clip.labels.json"),
    "associate": ("clip.tubes.json",),
    "mine": ("clip.mined.json",),
    "losses": ("clip.losses.json",),
    "grad-check": ("clip.gc.json",),
    "select": ("clip.pred.json",),
    "eval": ("clip.eval.json", "clip.drift.csv"),
    "exposure": ("exposure.json",),
    "autolabel": ("pseudo.gt.json",),
}


class CheckFailed(Exception):
    """An output that does not meet its check."""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest_files(directory: Path, names, extra: bytes = b"") -> str:
    h = hashlib.sha256(extra)
    for name in names:
        p = directory / name
        h.update(name.encode() + b"\0")
        h.update(p.read_bytes() if p.exists() else b"<missing>")
    return h.hexdigest()


# ------------------------------------------------------------ input generation

def _scene(shape: dict, seed: int, frames: int, gen_times: list) -> S.LabeledScene:
    cfg = S.SceneConfig(seed=seed, frames=frames, objects=shape["objects"],
                        feature_dim=shape["feature_dim"],
                        appearance_drift=shape.get("appearance_drift", 0.0),
                        detection_noise=shape["detection_noise"],
                        distractor_rate=shape["distractor_rate"])
    t0 = time.perf_counter()
    scene = S.generate_scene(cfg)
    gen_times.append(time.perf_counter() - t0)
    return scene


def _candidates(scene: S.LabeledScene) -> list[AL.CandidateTube]:
    """Detector fragments for autolabel: object 0 cut into three pieces with
    two-frame gaps, plus object 1 over the whole clip."""
    tracks: dict[int, list] = {}
    for frame, ids in zip(scene.frames, scene.identities):
        for det, ident in zip(frame.detections, ids):
            if ident >= 0:
                tracks.setdefault(ident, []).append((frame.t, det))
    n = len(scene.frames)
    a, b = n // 3, (2 * n) // 3
    pieces = [(0, 0, a - 2), (0, a + 1, b - 2), (0, b + 1, n - 1), (1, 0, n - 1)]
    out = []
    for ident, s, e in pieces:
        dets = [(t, d) for t, d in tracks[ident] if s <= t <= e]
        out.append(AL.CandidateTube(
            category="person", span=(s, e),
            records=[AL.CandidateRecord(t=t, box=d.box, score=d.score) for t, d in dets],
            appearance=np.mean([d.feature for _, d in dets], axis=0)))
    return out


def clip_seeds(seed: int, n: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(n)]


def generate_inputs(workload: str, seed: int, scale: str, work: Path) -> dict:
    """Write the inputs of one run under `work` and return its spec."""
    shape = SHAPES[scale][workload]
    gen_times: list[float] = []
    items = []
    skipped = 0
    if workload == "walkthrough":
        for k, s in enumerate(clip_seeds(seed, shape["clips"])):
            d = work / f"clip-{k}"
            d.mkdir()
            scene = _scene(shape, s, shape["frames"], gen_times)
            F.save_candidates(str(d / "cands.json"), f"sim-{s}", _candidates(scene))
            items.append({"dir": d.name, "seed": s, "ts": scene.gt.ts, "te": scene.gt.te})
    elif workload == "associate-dense":
        for k, s in enumerate(clip_seeds(seed, shape["clips"])):
            scene = _scene(shape, s, shape["frames"], gen_times)
            vid = f"dense-{s}"
            F.save_detections(str(work / f"{k}.detections.jsonl"), vid, 5.0, scene.frames)
            F.save_labels(str(work / f"{k}.labels.json"), vid, scene.identities)
            items.append({"detections": f"{k}.detections.jsonl",
                          "labels": f"{k}.labels.json", "out": f"{k}.tubes.json"})
    elif workload == "mine-eval":
        for k, s in enumerate(clip_seeds(seed, shape["clips"])):
            scene = _scene(shape, s, shape["frames"], gen_times)
            vid = f"mine-{s}"
            tubes = A.run_association(scene.frames, A.AssociationConfig(n_q=shape["n_q"], alpha=ALPHA))
            F.save_tubes(str(work / f"{k}.tubes.json"), vid, tubes, include_embeds=True)
            F.save_gt(str(work / f"{k}.gt.json"), vid, scene.gt)
            items.append({"tubes": f"{k}.tubes.json", "gt": f"{k}.gt.json"})
    elif workload == "grad-check":
        # This workload measures the checker, and a tube at a kink is refused
        # before any probing, so refusals would make its cost depend on the
        # seed.  A scene whose mined tube is not smooth is skipped (and
        # counted) and the next seed is drawn.
        rng = random.Random(seed)
        for k, frames in enumerate(shape["lengths"]):
            path = work / f"{k}.mined.json"
            while True:
                s = rng.randrange(1, 2**31)
                scene = _scene(shape, s, frames, gen_times)
                tubes = A.run_association(scene.frames, A.AssociationConfig(n_q=shape["n_q"], alpha=ALPHA))
                best, _ = MN.mine_best_tube(tubes, scene.gt)
                F.save_tubes(str(path), f"gc-{s}", [tubes[best]], include_embeds=True)
                try:
                    C.loss_gradients(C.MinedTube.from_tube(F.load_tubes(str(path))[1][0]))
                    break
                except NonSmoothError:
                    skipped += 1
            items.append({"tubes": path.name, "frames": frames})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "scale": scale, "shape": shape,
            "items": items, "scenes_generate_s": statistics.median(gen_times),
            "nonsmooth_scenes_skipped": skipped}


# ------------------------------------------------------------------ reference

# The benchmark runs on shared machines whose speed drifts by tens of
# percent over minutes, far more than a run can average out.  A fixed piece
# of work with no tubekit in it, of the same kind as the work being timed,
# is timed before every operation; run.py scales the run's timings by the
# reference's nominal time over its median in the run, so drift that slows
# the reference and the program alike cancels.  The nominal times are the
# medians on a quiet 2-core x86_64 VM with Python 3.11 and numpy 2.4.

# In-process Python work: 150 000 integer multiply-adds.
KERNEL_REFERENCE_S = 0.015
# A fresh interpreter that imports numpy: process start and import work.
PROCESS_REFERENCE_S = 0.22


def reference_kernel() -> float:
    """Wall time of the in-process reference work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i
    return time.perf_counter() - t0


def reference_process() -> float:
    """Wall time of the fresh-process reference work."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   capture_output=True, timeout=120)
    return time.perf_counter() - t0


# ------------------------------------------------------------------ workloads

class Workload:
    """One pass runs every item once.  `run` is the timed operation; `check`
    runs untimed and returns the digest of the operation's output.
    `reference` times work of the operation's kind, nominally `reference_s`."""

    reference = staticmethod(reference_kernel)
    reference_s = KERNEL_REFERENCE_S

    def __init__(self, spec: dict, work: Path):
        self.spec = spec
        self.shape = spec["shape"]
        self.work = work
        self.items = list(spec["items"])
        self.cold_start_s: float | None = None
        self.quality: dict[str, float] = {}

    def warmup(self) -> None:
        self.run(self.items[0])

    def prepare(self, item) -> None:
        pass

    def run(self, item):
        raise NotImplementedError

    def check(self, item, result, first: bool) -> str:
        raise NotImplementedError

    def end_pass(self, results: list) -> tuple[list[int], str]:
        """Work done once per pass; returns failed item indices and a digest."""
        return [], ""

    def probes(self, tracer: Tracer) -> None:
        """Measurements outside the operation loop, made in the traced run."""

    def install(self, tracer: Tracer) -> None:
        """Wrap the tubekit names this workload calls."""

    def layer_metrics(self, tracer: Tracer, phase: dict) -> dict[str, float]:
        return {}


def _self_shares(tracer: Tracer, layers) -> dict[str, float]:
    selfs = tracer.self_times()
    total = tracer.total("bench.op") + tracer.total("bench.end_pass")
    return {f"{layer}.self_share": selfs.get(layer, 0.0) / total for layer in layers}


class Walkthrough(Workload):
    """The README CLI walkthrough, one fresh `python -m tubekit.cli` process
    per subcommand.  An item is one subcommand of one clip."""

    reference = staticmethod(reference_process)
    reference_s = PROCESS_REFERENCE_S

    def __init__(self, spec, work):
        super().__init__(spec, work)
        self.clips = self.items
        self.items = [(k, sub) for k in range(len(self.clips)) for sub in SUBCOMMANDS]
        self.clips_per_pass = len(self.clips)
        self.tubes_per_pass = len(self.clips) * self.shape["n_q"]
        self.switch_rates: dict[int, float] = {}
        self.v_ious: dict[int, float] = {}
        self.tracer: Tracer | None = None

    @staticmethod
    def _cli(args, cwd=None) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "tubekit.cli", *args], cwd=cwd,
                              capture_output=True, text=True, timeout=120)

    def warmup(self) -> None:
        # The warm-up operation is a fresh `tubekit --version`; its wall
        # time is the cold start a CLI user pays before any work.
        t0 = time.perf_counter()
        proc = self._cli(["--version"])
        self.cold_start_s = time.perf_counter() - t0
        if proc.returncode != 0 or not proc.stdout.startswith("tubekit "):
            raise CheckFailed(f"tubekit --version failed: {proc.stderr.strip()}")

    def _argv(self, k: int, sub: str) -> list[str]:
        clip, sh = self.clips[k], self.shape
        seed = str(clip["seed"])
        return {
            "simulate": ["simulate", "--seed", seed, "--frames", str(sh["frames"]),
                         "--objects", str(sh["objects"]),
                         "--feature-dim", str(sh["feature_dim"]),
                         "--detection-noise", str(sh["detection_noise"]),
                         "--distractor-rate", str(sh["distractor_rate"]),
                         "--out", "clip", "--labels"],
            "associate": ["associate", "clip.detections.jsonl", "--n-q", str(sh["n_q"]),
                          "--alpha", str(ALPHA), "--embed", "--out", "clip.tubes.json"],
            "mine": ["mine", "--tubes", "clip.tubes.json", "--gt", "clip.gt.json",
                     "--out", "clip.mined.json"],
            "losses": ["losses", "--tubes", "clip.tubes.json", "--slot", "0",
                       "--out", "clip.losses.json"],
            "grad-check": ["grad-check", "--tubes", "clip.tubes.json", "--slot", "0",
                           "--out", "clip.gc.json"],
            "select": ["select", "--tubes", "clip.tubes.json", "--gt", "clip.gt.json",
                       "--out", "clip.pred.json"],
            "eval": ["eval", "--pred", "clip.pred.json", "--gt", "clip.gt.json",
                     "--tau", "0.3", "--tau", "0.5", "--drift", "clip.drift.csv",
                     "--out", "clip.eval.json"],
            "exposure": ["exposure", "--length", "200", "--eps", "0.01",
                         "--trials", str(sh["exposure_trials"]), "--seed", seed,
                         "--out", "exposure.json"],
            "autolabel": ["autolabel", "--candidates", "cands.json",
                          "--ts", str(clip["ts"]), "--te", str(clip["te"]),
                          "--out", "pseudo.gt.json"],
        }[sub]

    def _dir(self, k: int) -> Path:
        return self.work / self.clips[k]["dir"]

    def prepare(self, item) -> None:
        k, sub = item
        if sub == "simulate":       # a clip starts from its inputs only
            for names in OUTPUTS.values():
                for name in names:
                    (self._dir(k) / name).unlink(missing_ok=True)
            if self.tracer is not None:
                # Interleaved with the clips, so the import figures and the
                # subcommand figures see the same machine.
                self.probes(self.tracer)

    def run(self, item):
        k, sub = item
        return self._cli(self._argv(k, sub), cwd=self._dir(k))

    @staticmethod
    def _report(path: Path) -> dict:
        doc = json.loads(path.read_text())
        if doc.get("schema_version") != 1:
            raise CheckFailed(f"{path.name}: schema_version {doc.get('schema_version')!r}")
        return doc

    def check(self, item, proc, first: bool) -> str:
        k, sub = item
        d = self._dir(k)
        refused = (sub == "grad-check" and proc.returncode == 1
                   and "non-smooth point" in proc.stderr)
        if proc.returncode != 0 and not refused:
            raise CheckFailed(f"{sub} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        if sub == "simulate":
            F.load_detections(str(d / "clip.detections.jsonl"))
            F.load_gt(str(d / "clip.gt.json"))
            F.load_labels(str(d / "clip.labels.json"))
        elif sub == "associate":
            _, tubes = F.load_tubes(str(d / "clip.tubes.json"))
            if len(tubes) != self.shape["n_q"]:
                raise CheckFailed(f"associate wrote {len(tubes)} tubes")
            _, ids = F.load_labels(str(d / "clip.labels.json"))
            rates = S.identity_switch_rate(tubes, SimpleNamespace(identities=ids))
            self.switch_rates[k] = float(np.mean(rates))
        elif refused:
            pass
        elif sub == "grad-check":
            worst = max(r["max_rel_error"] for r in self._report(d / "clip.gc.json")["checks"])
            if not worst < GRAD_TOLERANCE:
                raise CheckFailed(f"grad-check worst relative error {worst}")
        elif sub == "select":
            F.load_predictions(str(d / "clip.pred.json"))
        elif sub == "eval":
            rep = self._report(d / "clip.eval.json")
            if not 0.0 <= rep["m_v_iou"] <= rep["m_t_iou"] <= 1.0:
                raise CheckFailed(f"eval: m_vIoU {rep['m_v_iou']} m_tIoU {rep['m_t_iou']}")
            with open(d / "clip.drift.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            if len(rows) != 2 or len(rows[1]) != 5:
                raise CheckFailed(f"drift csv has shape {[len(r) for r in rows]}")
            self.v_ious[k] = rep["m_v_iou"]
        elif sub == "autolabel" and "nothing written" not in proc.stdout:
            F.load_gt(str(d / "pseudo.gt.json"))
        elif sub in REPORTS:
            self._report(d / OUTPUTS[sub][0])
        return _digest_files(d, OUTPUTS[sub], proc.stdout.encode())

    def end_pass(self, results):
        if self.switch_rates and self.v_ious:
            self.quality = {
                "association.id_switch_rate": float(np.mean(list(self.switch_rates.values()))),
                "metrics.m_v_iou": float(np.mean(list(self.v_ious.values())))}
        return [], ""

    def probes(self, tracer: Tracer) -> None:
        """Fresh interpreters, so import cost shows on its own line."""
        cmds = {"cli.import": "import tubekit.cli", "ref.python_start": "pass",
                "ref.numpy_import": "import numpy",
                "ref.scipy_optimize_import": "import scipy.optimize"}
        for name, code in cmds.items():
            with tracer.span(name):
                proc = subprocess.run([sys.executable, "-c", code],
                                      capture_output=True, timeout=120)
            if proc.returncode != 0:
                raise CheckFailed(f"probe {code!r} failed: {proc.stderr[-300:]!r}")

    def install(self, tracer: Tracer) -> None:
        # The CLI children cannot be instrumented from here; each
        # subcommand is one span, recorded around the child process.
        self.tracer = tracer
        run = self.run

        def traced_run(item):
            with tracer.span(f"cli.{item[1]}"):
                return run(item)

        self.run = traced_run

    def layer_metrics(self, tracer, phase):
        out = {f"cli.{sub}_s": tracer.median(f"cli.{sub}") for sub in SUBCOMMANDS}
        out["cli.import_s"] = tracer.median("cli.import")
        for name in ("ref.python_start", "ref.numpy_import", "ref.scipy_optimize_import"):
            out[f"{name}_s"] = tracer.median(name)
        out["decoding.excess_s"] = out["cli.exposure_s"] - out["cli.import_s"]
        out["autolabel.excess_s"] = out["cli.autolabel_s"] - out["cli.import_s"]
        ops = [d for sub in SUBCOMMANDS for d in tracer.durations(f"cli.{sub}")]
        out["cli.import_share"] = out["cli.import_s"] * len(ops) / sum(ops)
        return out


class AssociateDense(Workload):
    """`tubekit associate --embed` in process: load detections, associate,
    save tubes with embeddings.  An item is one clip."""

    def __init__(self, spec, work):
        super().__init__(spec, work)
        self.clips_per_pass = len(self.items)
        self.tubes_per_pass = len(self.items) * self.shape["n_q"]
        self.labels = [F.load_labels(str(work / it["labels"]))[1] for it in self.items]
        self.facts: dict[int, dict] = {}

    def warmup(self) -> None:
        item = dict(self.items[0], out="warmup.tubes.json")
        self.run(item)

    def run(self, item):
        meta, frames = F.load_detections(str(self.work / item["detections"]))
        tubes = A.run_association(frames, A.AssociationConfig(n_q=self.shape["n_q"], alpha=ALPHA))
        F.save_tubes(str(self.work / item["out"]), meta["video_id"], tubes, include_embeds=True)
        return meta, tubes

    def check(self, item, result, first):
        path = self.work / item["out"]
        data = path.read_bytes()
        if first:
            self._full_check(item, result, path)
        return sha256(data)

    def _full_check(self, item, result, path: Path) -> None:
        meta, tubes = result
        video_id, loaded = F.load_tubes(str(path))
        n_q, frames = self.shape["n_q"], meta["frame_count"]
        if video_id != meta["video_id"] or len(loaded) != n_q:
            raise CheckFailed(f"{path.name}: {video_id!r} with {len(loaded)} tubes")
        for mem, disk in zip(tubes, loaded):
            if disk.timestamps() != list(range(frames)):
                raise CheckFailed(f"{path.name}: tube {disk.slot_id} does not cover every frame")
            for a, b in zip(mem.records, disk.records):
                if (a.t != b.t or a.det != b.det or F.f9(a.score) != b.score
                        or [F.f9(v) for v in a.box.to_list()] != b.box.to_list()
                        or [F.f9(v) for v in a.feature] != b.feature.tolist()):
                    raise CheckFailed(f"{path.name}: tube {mem.slot_id} frame {a.t} "
                                      "differs from the in-memory tube")
        k = self.items.index(item)
        rates = S.identity_switch_rate(loaded, SimpleNamespace(identities=self.labels[k]))
        records = sum(len(t.records) for t in loaded)
        gaps = sum(1 for t in loaded for r in t.records if r.det is None)
        self.facts[k] = {"switch": float(np.mean(rates)), "frames": frames,
                         "gap_ratio": gaps / records, "mb": path.stat().st_size / 1e6}

    def end_pass(self, results):
        if self.facts:
            self.quality = {"association.id_switch_rate":
                            float(np.mean([f["switch"] for f in self.facts.values()]))}
        return [], ""

    def install(self, tracer):
        tracer.wrap(F, "load_detections", "formats.load_detections")
        tracer.wrap(A, "run_association", "association.run")
        tracer.wrap(F, "save_tubes", "formats.save_tubes")
        # The name association calls, so only its solves are counted.
        tracer.wrap(A, "solve_assignment", "assignment.solve")

    def layer_metrics(self, tracer, phase):
        clips = len(tracer.durations("association.run"))
        facts = list(self.facts.values())
        frames = statistics.mean(f["frames"] for f in facts)
        mb = statistics.mean(f["mb"] for f in facts)
        # Means, not medians: assignment time is a share of association time.
        run_s = tracer.total("association.run") / clips
        save_s = tracer.median("formats.save_tubes")
        busy = tracer.total("assignment.solve")
        out = {
            "formats.load_detections_s": tracer.median("formats.load_detections"),
            "formats.save_tubes_s": save_s,
            "formats.tubes_mb": mb,
            "formats.save_tubes_mb_per_s": mb / save_s,
            "association.run_s": run_s,
            "association.step_ms": 1000.0 * run_s / frames,
            "association.frames": frames,
            "association.gap_ratio": statistics.mean(f["gap_ratio"] for f in facts),
            "assignment.calls": len(tracer.durations("assignment.solve")) / clips,
            "assignment.busy_s": busy / clips,
            "assignment.share": busy / (run_s * clips),
        }
        out.update(_self_shares(tracer, ("formats", "association", "assignment")))
        return out


class MineEval(Workload):
    """Training and evaluation side on pre-written tube files.  An item is
    one clip; `evaluate` runs once per pass over the pass's clips."""

    def __init__(self, spec, work):
        super().__init__(spec, work)
        self.clips_per_pass = len(self.items)
        self.tubes_per_pass = len(self.items) * self.shape["n_q"]
        self.refusals = 0
        self.frames_mined = 0

    def run(self, item):
        video_id, tubes = F.load_tubes(str(self.work / item["tubes"]))
        gt_id, gt = F.load_gt(str(self.work / item["gt"]))
        best, costs = MN.mine_best_tube(tubes, gt)
        mined = C.MinedTube.from_tube(tubes[best])
        loss = C.combined_loss(mined)
        try:
            grads = C.loss_gradients(mined)
        except NonSmoothError:
            grads = None
        pick = MT.select_tube(tubes)
        pred = MT.Prediction.from_tube(tubes[pick], ts=gt.ts, te=gt.te)
        profile = MT.drift_profile(pred, gt)
        return SimpleNamespace(ids=(video_id, gt_id), tubes=tubes, gt=gt, best=best,
                               costs=costs, mined=mined, loss=loss, grads=grads,
                               pick=pick, pred=pred, profile=profile)

    def check(self, item, r, first):
        if r.ids[0] != r.ids[1]:
            raise CheckFailed(f"tube file is for {r.ids[0]!r}, GT for {r.ids[1]!r}")
        # Criterion 4: the mined tube's temporal cost is its geometry loss,
        # bit for bit.
        if r.costs[r.best].c_temp != C.geom_loss(r.mined):
            raise CheckFailed(f"{item['tubes']}: c_temp {r.costs[r.best].c_temp!r} "
                              f"!= geom_loss {C.geom_loss(r.mined)!r}")
        if first:
            self.refusals += r.grads is None
            self.frames_mined += sum(len(t.records) for t in r.tubes)
        grads = (b"refused" if r.grads is None
                 else r.grads.d_features.tobytes() + r.grads.d_boxes.tobytes())
        doc = {"best": r.best, "pick": r.pick, "loss": r.loss, "profile": r.profile,
               "costs": [[c.c_cls, c.c_bbox, c.c_giou, c.c_temp, c.total] for c in r.costs],
               "grads": sha256(grads)}
        return sha256(json.dumps(doc).encode())

    def end_pass(self, results):
        live = [(i, r) for i, r in enumerate(results) if r is not None]
        report = MT.evaluate([(r.pred, r.gt) for _, r in live])
        bad = [i for (i, _), s in zip(live, report.samples)
               if not 0.0 <= s.v_iou <= s.t_iou <= 1.0]
        self.quality = {"metrics.m_v_iou": report.m_v_iou}
        doc = [[s.t_iou, s.v_iou] for s in report.samples] + [report.m_v_iou]
        return bad, sha256(json.dumps(doc).encode())

    def install(self, tracer):
        tracer.wrap(F, "load_tubes", "formats.load_tubes")
        tracer.wrap(F, "load_gt", "formats.load_gt")
        tracer.wrap(MN, "mine_best_tube", "mining.mine")
        tracer.wrap(C.MinedTube, "from_tube", "consistency.from_tube")
        tracer.wrap(C, "combined_loss", "consistency.losses")
        tracer.wrap(C, "loss_gradients", "consistency.gradients")
        tracer.wrap(MT, "select_tube", "metrics.select")
        tracer.wrap(MT.Prediction, "from_tube", "metrics.from_tube")
        tracer.wrap(MT, "drift_profile", "metrics.drift")
        tracer.wrap(MT, "evaluate", "metrics.evaluate")
        # Geometry kernels are counted through the names their callers use.
        tracer.wrap_count(MN, "giou", "geometry.giou_calls")
        tracer.wrap_count(C, "giou", "geometry.giou_calls")
        tracer.wrap_count(MT, "iou", "geometry.iou_calls")

    def layer_metrics(self, tracer, phase):
        clips = len(phase["pass_busy"]) * phase["clips_per_pass"]
        out = {
            "formats.load_tubes_s": tracer.median("formats.load_tubes"),
            "formats.load_gt_s": tracer.median("formats.load_gt"),
            "mining.mine_s": tracer.median("mining.mine"),
            "mining.tube_frames": self.frames_mined / len(self.items),
            "geometry.giou_calls": tracer.counters["geometry.giou_calls"] / clips,
            "geometry.iou_calls": tracer.counters["geometry.iou_calls"] / clips,
            "consistency.losses_s": tracer.median("consistency.losses"),
            "consistency.gradients_s": tracer.median("consistency.gradients"),
            "consistency.nonsmooth_refusals": self.refusals,
            "metrics.select_s": tracer.median("metrics.select"),
            "metrics.evaluate_s": tracer.median("metrics.evaluate"),
            "metrics.drift_s": tracer.median("metrics.drift"),
        }
        out.update(_self_shares(tracer, ("formats", "mining", "consistency", "metrics")))
        return out


class GradCheck(Workload):
    """Finite-difference `grad_check` on mined tubes.  An item is one tube."""

    def __init__(self, spec, work):
        super().__init__(spec, work)
        self.tubes = []
        for item in self.items:
            _, tubes = F.load_tubes(str(work / item["tubes"]))
            self.tubes.append(C.MinedTube.from_tube(tubes[0]))
        self.clips_per_pass = self.tubes_per_pass = len(self.items)
        self.refusals = 0
        self.coords = 0
        self.kinks = 0

    def run(self, item):
        try:
            return C.grad_check(self.tubes[self.items.index(item)])
        except NonSmoothError as e:   # a documented refusal, not a failure
            return e

    def check(self, item, rep, first):
        if isinstance(rep, NonSmoothError):
            self.refusals += first
            return sha256(str(rep).encode())
        if not rep.max_rel_error < GRAD_TOLERANCE:
            raise CheckFailed(f"{item['tubes']}: max_rel_error {rep.max_rel_error}")
        if first:
            mined = self.tubes[self.items.index(item)]
            self.coords += mined.features.size + 4 * mined.length - rep.skipped_kink_coords
            self.kinks += rep.skipped_kink_coords
        return sha256(json.dumps([rep.max_rel_error, rep.max_abs_analytic,
                                  rep.max_abs_numeric, rep.skipped_kink_coords]).encode())

    def install(self, tracer):
        tracer.wrap(C, "grad_check", "consistency.grad_check")

    def layer_metrics(self, tracer, phase):
        checked = len(tracer.durations("consistency.grad_check"))
        total = tracer.total("consistency.grad_check")
        coords_per_pass = self.coords
        return {
            "consistency.grad_check_s": total / checked,
            "consistency.coords_checked": coords_per_pass,
            "consistency.us_per_coord": 1e6 * total / (coords_per_pass * len(phase["pass_busy"])),
            "consistency.kink_coords_skipped": self.kinks,
            "consistency.nonsmooth_refusals": self.refusals,
            **_self_shares(tracer, ("consistency",)),
        }


CLASSES = {"walkthrough": Walkthrough, "associate-dense": AssociateDense,
           "mine-eval": MineEval, "grad-check": GradCheck}


# ----------------------------------------------------------------- the loop

def run_phase(wl: Workload, seconds: float, tracer: Tracer | None = None,
              expected: list | None = None, log=sys.stderr) -> dict:
    """Closed loop, one client: whole passes over the items until `seconds`
    have gone by (at least one pass).  `expected` holds the digests of the
    first pass ever run; later passes must reproduce them byte for byte."""
    lat: list[float] = []
    ref: list[float] = []
    pass_busy: list[float] = []
    attempted = failed = passes = 0
    first_digests = None
    t_begin = time.perf_counter()
    while passes == 0 or time.perf_counter() - t_begin < seconds:
        first = expected is None
        digests, results, failed_items = [], [], set()
        busy = 0.0
        for i, item in enumerate(wl.items):
            wl.prepare(item)
            ref.append(wl.reference())
            if tracer is not None:
                tracer.op = attempted
                tracer.counting = True
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = wl.run(item)
                else:
                    with tracer.span("bench.op"):
                        result = wl.run(item)
                error = None
            except Exception as e:     # the program raised: a failed op
                result, error = None, e
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.counting = False
            lat.append(dt)
            busy += dt
            attempted += 1
            digest = ""
            if error is None:
                try:
                    digest = wl.check(item, result, first)
                except Exception as e:  # a failed check, whatever its kind
                    error = e
            if error is None and not first and digest != expected[i]:
                error = CheckFailed("output differs from the first pass")
            if error is not None:
                failed_items.add(i)
                print(f"{wl.spec['workload']}: item {i} failed: "
                      f"{type(error).__name__}: {error}", file=log)
            digests.append(digest)
            results.append(None if error is not None else result)
        if tracer is not None:
            tracer.op = None
            tracer.counting = True
        t0 = time.perf_counter()
        try:
            if tracer is None:
                bad, pass_digest = wl.end_pass(results)
            else:
                with tracer.span("bench.end_pass"):
                    bad, pass_digest = wl.end_pass(results)
        except Exception as e:
            print(f"{wl.spec['workload']}: end of pass failed: {type(e).__name__}: {e}",
                  file=log)
            bad, pass_digest = range(len(wl.items)), ""
        busy += time.perf_counter() - t0
        if tracer is not None:
            tracer.counting = False
        failed_items.update(bad)
        digests.append(pass_digest)
        if first:
            expected = digests
        elif digests[-1] != expected[-1]:
            failed_items.update(range(len(wl.items)))
        if first_digests is None:
            first_digests = digests
        failed += len(failed_items)
        passes += 1
        pass_busy.append(busy)
    return {"lat": lat, "ref": ref, "pass_busy": pass_busy, "attempted": attempted, "failed": failed,
            "passes": passes, "clips_per_pass": wl.clips_per_pass,
            "tubes_per_pass": wl.tubes_per_pass, "expected": expected,
            "output_sha256": sha256("".join(first_digests).encode())}
