"""Grounding evaluation end to end: pick a tube, score it against GT.

select_tube keeps the highest mean-confidence tube.  The prediction is
that tube's boxes restricted to a predicted interval, and the metrics
are the usual pair: temporal IoU on the intervals and vIoU, box IoU
summed over shared frames and diluted by the interval union.  A drift
profile slices the GT interval into fifths to show where the boxes
degrade.
"""

from tubekit import (AssociationConfig, Prediction, SceneConfig, drift_profile,
                     evaluate, generate_scene, run_association, select_tube,
                     split_fifths, t_iou, v_iou)


def ground_one(seed, noise):
    scene = generate_scene(SceneConfig(seed=seed, frames=40, objects=2,
                                       feature_dim=16, detection_noise=noise,
                                       distractor_rate=1.0))
    tubes = run_association(scene.frames, AssociationConfig(n_q=4, alpha=0.1))
    pick = select_tube(tubes)
    gt = scene.gt
    pred = Prediction.from_tube(tubes[pick], ts=gt.ts, te=gt.te)
    return pred, gt, pick


def main():
    pred, gt, pick = ground_one(seed=23, noise=0.01)
    print(f"selected tube {pick}, predicted interval [{pred.ts}, {pred.te}]")
    print(f"  t_iou = {t_iou((pred.ts, pred.te), (gt.ts, gt.te)):.4f}")
    print(f"  v_iou = {v_iou(pred, gt):.4f}")
    print()

    fifths = split_fifths(gt.ts, gt.te)
    profile = drift_profile(pred, gt)
    print("drift profile over the GT interval")
    for (s, e), m in zip(fifths, profile):
        print(f"  frames [{s:>3}, {e:>3}]: mean IoU {m:.4f}")
    print()

    # Interval mistakes dilute vIoU even when every shared box is right.
    mid = (gt.ts + gt.te) // 2
    shifted = Prediction(ts=gt.ts, te=gt.te, t0=pred.t0, boxes=pred.boxes)
    half = Prediction(ts=gt.ts, te=mid, t0=pred.t0, boxes=pred.boxes[:mid - pred.t0 + 1])
    print("temporal truncation vs the full interval")
    print(f"  full interval:  v_iou = {v_iou(shifted, gt):.4f}")
    print(f"  first half cut: v_iou = {v_iou(half, gt):.4f}")
    print()

    samples = [ground_one(seed, noise)[:2]
               for seed in (23, 31, 47, 59)
               for noise in (0.0, 0.02)]
    report = evaluate(samples, thresholds=(0.3, 0.5))
    print(f"batch of {len(samples)} clips")
    print(f"  m_tIoU = {report.m_t_iou:.4f}")
    print(f"  m_vIoU = {report.m_v_iou:.4f}")
    for tau, frac in sorted(report.v_iou_at.items()):
        print(f"  vIoU@{tau:.1f} = {frac:.4f}")


if __name__ == "__main__":
    main()
