"""Command-line front end.

Exit codes: 0 on success, 1 on domain validation errors, 2 on unknown
subcommands or malformed input files (argparse also exits 2 on bad flags).
Randomized subcommands require an explicit --seed and are byte-identical
across runs with the same arguments.  Reports echo their semantic
configuration; output paths are never echoed, so rerunning into a different
file yields identical bytes.
"""
from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

from . import __version__
from .association import AssociationConfig, run_association
from .autolabel import (AutolabelConfig, assemble_annotation,
                        find_merge_conflicts, merge_tubes)
from .consistency import (LossWeights, MinedTube, combined_loss, feature_loss,
                          geom_loss, grad_check)
from .decoding import ExposureConfig, simulate_decoding
from .errors import FormatError, ValidationError
from .formats import (SCHEMA_VERSION, f9, load_candidates, load_detections,
                      load_gt, load_gt_collection, load_tubes,
                      load_predictions, save_detections, save_gt, save_labels,
                      save_predictions, save_report, save_tubes)
from .metrics import Prediction, drift_profile, evaluate, select_tube
from .mining import CostWeights, mine_best_tube
from .scenes import SceneConfig, generate_scene


def _report_head(command: str, config: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, "command": command, "config": config}


# ------------------------------------------------------------------ simulate

def _cmd_simulate(args) -> int:
    if not (math.isfinite(args.fps) and args.fps > 0.0):
        raise ValidationError(f"--fps must be a positive finite number, got {args.fps}")
    cfg = SceneConfig(seed=args.seed, frames=args.frames, objects=args.objects,
                      feature_dim=args.feature_dim,
                      appearance_drift=args.appearance_drift,
                      motion_step=args.motion_step,
                      detection_noise=args.detection_noise,
                      confidence_noise=args.confidence_noise,
                      distractor_rate=args.distractor_rate)
    scene = generate_scene(cfg)
    video_id = args.video_id or f"sim-{args.seed}"
    prefix = args.out
    save_detections(f"{prefix}.detections.jsonl", video_id, args.fps, scene.frames)
    save_gt(f"{prefix}.gt.json", video_id, scene.gt)
    if args.labels:
        save_labels(f"{prefix}.labels.json", video_id, scene.identities)
    print(f"{video_id}: {cfg.frames} frames, "
          f"gt [{scene.gt.ts}, {scene.gt.te}] -> {prefix}.detections.jsonl")
    return 0


# ----------------------------------------------------------------- associate

def _cmd_associate(args) -> int:
    if len(args.detections) > 1 and args.out:
        raise ValidationError("use --out-dir when associating several files")
    if not args.out and not args.out_dir:
        raise ValidationError("one of --out or --out-dir is required")
    if args.out_dir:
        Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    sources: dict[str, str] = {}
    results = []
    for path in args.detections:
        meta, frames = load_detections(path)
        video_id = meta["video_id"]
        if video_id in sources:
            raise ValidationError(f"{sources[video_id]} and {path} both hold video_id "
                                  f"'{video_id}'; each would write the same tube file")
        sources[video_id] = path
        tubes = run_association(frames, AssociationConfig(n_q=args.n_q, alpha=args.alpha))
        out_path = args.out or str(Path(args.out_dir) / f"{video_id}.tubes.json")
        save_tubes(out_path, video_id, tubes, include_embeds=args.embed)
        results.append((video_id, out_path))
    for video_id, out_path in sorted(results):
        print(f"{video_id}: {args.n_q} tubes -> {out_path}")
    return 0


# ---------------------------------------------------------------------- mine

def _tubes_of(path: str):
    """The tube file at `path`; one that holds no tube is refused."""
    video_id, tubes = load_tubes(path)
    if not tubes:
        raise FormatError("the tube file holds no tubes", path=path)
    return video_id, tubes


def _cmd_mine(args) -> int:
    video_id, tubes = _tubes_of(args.tubes)
    gt_vid, gt = load_gt(args.gt)
    if gt_vid != video_id:
        raise ValidationError(f"tube file is for '{video_id}' but GT is for '{gt_vid}'")
    weights = CostWeights(w_cls=args.lambda_cls, w_bbox=args.lambda_bbox,
                          w_giou=args.lambda_giou, w_temp=args.lambda_temp)
    best, breakdowns = mine_best_tube(tubes, gt, weights)
    report = _report_head("mine", {
        "tubes": args.tubes, "gt": args.gt,
        "lambda_cls": f9(weights.w_cls), "lambda_bbox": f9(weights.w_bbox),
        "lambda_giou": f9(weights.w_giou), "lambda_temp": f9(weights.w_temp)})
    report["video_id"] = video_id
    report["selected"] = best
    report["costs"] = [{
        "slot_id": tubes[i].slot_id,
        "c_cls": f9(b.c_cls), "c_bbox": f9(b.c_bbox),
        "c_giou": f9(b.c_giou), "c_temp": f9(b.c_temp), "total": f9(b.total),
    } for i, b in enumerate(breakdowns)]
    save_report(args.out, report)
    print(f"{video_id}: selected tube {best} "
          f"(total {f9(breakdowns[best].total)}) -> {args.out}")
    return 0


# -------------------------------------------------------------------- losses

def _mined_tubes(args):
    video_id, tubes = _tubes_of(args.tubes)
    if args.slot is not None:
        tubes = [t for t in tubes if t.slot_id == args.slot]
        if not tubes:
            raise ValidationError(f"no tube with slot_id {args.slot} in {args.tubes}")
    return video_id, tubes


def _cmd_losses(args) -> int:
    video_id, tubes = _mined_tubes(args)
    weights = LossWeights(w_temp=args.lambda_temp, w_feat=args.lambda_feat)
    rows = []
    for tube in tubes:
        mined = MinedTube.from_tube(tube)
        rows.append({"slot_id": tube.slot_id,
                     "feature_loss": f9(feature_loss(mined)),
                     "geom_loss": f9(geom_loss(mined)),
                     "combined": f9(combined_loss(mined, weights))})
    report = _report_head("losses", {
        "tubes": args.tubes, "slot": args.slot,
        "lambda_temp": f9(weights.w_temp), "lambda_feat": f9(weights.w_feat)})
    report["video_id"] = video_id
    report["losses"] = rows
    save_report(args.out, report)
    for row in rows:
        print(f"{video_id} slot {row['slot_id']}: combined {row['combined']}")
    return 0


def _cmd_grad_check(args) -> int:
    video_id, tubes = _mined_tubes(args)
    rows = []
    for tube in tubes:
        rep = grad_check(MinedTube.from_tube(tube), h=args.step)
        rows.append({"slot_id": tube.slot_id,
                     "max_rel_error": f9(rep.max_rel_error),
                     "max_abs_analytic": f9(rep.max_abs_analytic),
                     "max_abs_numeric": f9(rep.max_abs_numeric),
                     "skipped_kink_coords": rep.skipped_kink_coords})
    report = _report_head("grad-check", {
        "tubes": args.tubes, "slot": args.slot, "step": f9(args.step)})
    report["video_id"] = video_id
    report["checks"] = rows
    save_report(args.out, report)
    worst = max(r["max_rel_error"] for r in rows)
    print(f"{video_id}: worst relative error {worst}")
    return 0


# -------------------------------------------------------------------- select

def _cmd_select(args) -> int:
    given = [flag for flag in ("ts", "te", "gt") if getattr(args, flag) is not None]
    if given not in ([], ["ts", "te"], ["gt"]):
        raise ValidationError(f"select takes --ts with --te, or --gt, or neither; "
                              f"got --{' --'.join(given)}")
    video_id, tubes = _tubes_of(args.tubes)
    best = select_tube(tubes)
    tube = tubes[best]
    if args.gt is not None:
        gt_vid, gt = load_gt(args.gt)
        if gt_vid != video_id:
            raise ValidationError(f"tube file is for '{video_id}' but GT is for '{gt_vid}'")
        ts, te = gt.ts, gt.te
    elif given:
        ts, te = args.ts, args.te
    else:
        ts, te = int(tube.t[0]), int(tube.t[-1])
    pred = Prediction.from_tube(tube, ts=ts, te=te)
    save_predictions(args.out, [(video_id, pred)])
    print(f"{video_id}: tube {best}, interval [{ts}, {te}] -> {args.out}")
    return 0


# ---------------------------------------------------------------------- eval

def _cmd_eval(args) -> int:
    preds = dict(load_predictions(args.pred))
    gts = dict(load_gt_collection(args.gt))
    if set(preds) != set(gts):
        only_p = sorted(set(preds) - set(gts))
        only_g = sorted(set(gts) - set(preds))
        raise ValidationError(
            f"prediction/GT video sets differ (pred only: {only_p[:3]}, "
            f"gt only: {only_g[:3]})")
    order = sorted(preds)
    samples = [(preds[v], gts[v]) for v in order]
    taus = tuple(args.tau) if args.tau else (0.3, 0.5)
    report_data = evaluate(samples, thresholds=taus)
    report = _report_head("eval", {
        "pred": args.pred, "gt": args.gt, "tau": [f9(t) for t in taus]})
    report["samples"] = [{
        "video_id": v,
        "t_iou": f9(r.t_iou),
        "v_iou": f9(r.v_iou),
    } for v, r in zip(order, report_data.samples)]
    report["m_t_iou"] = f9(report_data.m_t_iou)
    report["m_v_iou"] = f9(report_data.m_v_iou)
    report["v_iou_at"] = {f"{tau:g}": f9(val)
                          for tau, val in sorted(report_data.v_iou_at.items())}
    save_report(args.out, report)
    if args.drift:
        with open(args.drift, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["part_1", "part_2", "part_3", "part_4", "part_5"])
            for v in order:
                profile = drift_profile(preds[v], gts[v])
                writer.writerow([f9(x) for x in profile])
    print(f"m_tIoU {report['m_t_iou']}  m_vIoU {report['m_v_iou']}  -> {args.out}")
    return 0


# ------------------------------------------------------------------ exposure

def _cmd_exposure(args) -> int:
    cfg = ExposureConfig(sequence_length=args.length,
                         per_step_error=args.eps, trials=args.trials,
                         drift_step=args.drift_step,
                         token_budget=args.token_budget, seed=args.seed)
    if args.length % args.token_budget != 0:
        raise ValidationError(
            f"--length {args.length} is not a multiple of --token-budget "
            f"{args.token_budget}")
    track = [[0.4, 0.4, 0.6, 0.6]] * (args.length // args.token_budget)
    rep = simulate_decoding(cfg, track)
    report = _report_head("exposure", {
        "length": args.length, "eps": f9(args.eps), "trials": args.trials,
        "drift_step": f9(args.drift_step), "token_budget": args.token_budget,
        "seed": args.seed})
    report["analytic"] = f9(rep.analytic_error_free)
    report["linearized"] = f9(rep.linearized_error_free)
    report["empirical"] = f9(rep.empirical_error_free)
    report["profile"] = [f9(x) for x in rep.profile]
    save_report(args.out, report)
    print(f"error-free: analytic {report['analytic']} "
          f"empirical {report['empirical']} -> {args.out}")
    return 0


# ----------------------------------------------------------------- autolabel

def _cmd_autolabel(args) -> int:
    video_id, candidates = load_candidates(args.candidates)
    cfg = AutolabelConfig(appearance_threshold=args.appearance_threshold,
                          coverage_threshold=args.coverage_threshold)
    conflicts = find_merge_conflicts(candidates, cfg)
    for i, j in conflicts:
        print(f"{video_id}: candidates {i} and {j} look alike but overlap "
              "in time; left unmerged", file=sys.stderr)
    annotation = assemble_annotation(candidates, (args.ts, args.te), cfg)
    if annotation is None:
        print(f"{video_id}: no tube covers enough of [{args.ts}, {args.te}]; "
              "nothing written")
        return 0
    save_gt(args.out, video_id, annotation)
    print(f"{video_id}: pseudo annotation [{annotation.ts}, {annotation.te}] "
          f"-> {args.out}")
    return 0


# -------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tubekit",
        description="Detection-tube association, mining, and grounding metrics.")
    parser.add_argument("--version", action="version",
                        version=f"tubekit {__version__} (schema {SCHEMA_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a seeded synthetic scene")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--frames", type=int, default=64)
    p.add_argument("--objects", type=int, default=1)
    p.add_argument("--feature-dim", type=int, default=16)
    p.add_argument("--appearance-drift", type=float, default=0.0)
    p.add_argument("--motion-step", type=float, default=0.01)
    p.add_argument("--detection-noise", type=float, default=0.0)
    p.add_argument("--confidence-noise", type=float, default=0.0)
    p.add_argument("--distractor-rate", type=float, default=0.0)
    p.add_argument("--fps", type=float, default=5.0)
    p.add_argument("--video-id", default=None)
    p.add_argument("--labels", action="store_true",
                   help="also write PREFIX.labels.json with the latent identities")
    p.add_argument("--out", required=True, metavar="PREFIX",
                   help="writes PREFIX.detections.jsonl and PREFIX.gt.json")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("associate", help="fold detections into tubes")
    p.add_argument("detections", nargs="+")
    p.add_argument("--n-q", type=int, default=15)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--embed", action="store_true",
                   help="include per-record embeddings in the tube file")
    p.add_argument("--out", default=None)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_associate)

    p = sub.add_parser("mine", help="pick the tube closest to an annotation")
    p.add_argument("--tubes", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--lambda-cls", type=float, default=1.0)
    p.add_argument("--lambda-bbox", type=float, default=5.0)
    p.add_argument("--lambda-giou", type=float, default=3.0)
    p.add_argument("--lambda-temp", type=float, default=2.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mine)

    p = sub.add_parser("losses", help="temporal consistency losses per tube")
    p.add_argument("--tubes", required=True, help="tube file written with --embed")
    p.add_argument("--slot", type=int, default=None)
    p.add_argument("--lambda-temp", type=float, default=2.0)
    p.add_argument("--lambda-feat", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_losses)

    p = sub.add_parser("grad-check", help="finite-difference check of the loss gradients")
    p.add_argument("--tubes", required=True, help="tube file written with --embed")
    p.add_argument("--slot", type=int, default=None)
    p.add_argument("--step", type=float, default=1e-6)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_grad_check)

    p = sub.add_parser("select", help="pick the most confident tube as the prediction")
    p.add_argument("--tubes", required=True)
    p.add_argument("--ts", type=int, default=None)
    p.add_argument("--te", type=int, default=None)
    p.add_argument("--gt", default=None,
                   help="copy the predicted interval from this GT file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("eval", help="grounding metrics for predictions against GT")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--tau", type=float, action="append", default=None)
    p.add_argument("--drift", default=None,
                   help="also write the five-part drift profile CSV here")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("exposure", help="clean-decode probability and drift profile")
    p.add_argument("--length", type=int, required=True, help="token count")
    p.add_argument("--eps", type=float, required=True, help="per-token error rate")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--drift-step", type=float, default=0.05)
    p.add_argument("--token-budget", type=int, default=4)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_exposure)

    p = sub.add_parser("autolabel", help="assemble a pseudo annotation from fragments")
    p.add_argument("--candidates", required=True)
    p.add_argument("--ts", type=int, required=True)
    p.add_argument("--te", type=int, required=True)
    p.add_argument("--appearance-threshold", type=float, default=0.7)
    p.add_argument("--coverage-threshold", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_autolabel)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
