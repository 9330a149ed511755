# Exposure bias in autoregressive box decoding, measured by simulation.
#
# A decoder that emits box tokens one frame at a time conditions on its
# own past output.  One bad token therefore contaminates every later
# frame.  For a per-token error rate eps and a track of T frames at
# `token_budget` tokens per frame, the chance of a fully clean decode is
# (1 - eps)^(T * budget), which shrinks geometrically in track length.
# The Monte Carlo below decodes a real track and reports where the boxes
# end up, fifth by fifth.

from tubekit import (ExposureConfig, SceneConfig, generate_scene, p_error_free,
                     simulate_decoding)


def gt_track(frames):
    """The GT boxes of a simulated clip, one (x1, y1, x2, y2) row per frame."""
    return generate_scene(SceneConfig(seed=41, frames=frames, motion_step=0.012)).gt.boxes


def main():
    print("analytic chance of an error-free decode, budget 4 tokens/frame")
    print(f"{'frames':>7}  {'eps':>6}  {'exact':>8}  {'linearized':>10}")
    for frames in (10, 50, 100, 200):
        for eps in (0.001, 0.01):
            exact, lin = p_error_free(frames * 4, eps)
            print(f"{frames:>7}  {eps:>6}  {exact:8.4f}  {lin:10.4f}")
    print()
    print("the linearized form 1 - L*eps is only honest when L*eps << 1")
    print()

    boxes = gt_track(frames=64)
    # sequence_length counts tokens, so it must equal frames * budget.
    cfg = ExposureConfig(sequence_length=len(boxes) * 4, per_step_error=0.01,
                         trials=4000, drift_step=0.05, token_budget=4, seed=9)
    report = simulate_decoding(cfg, boxes)
    print(f"simulated decode of a {len(boxes)}-frame track, eps = {cfg.per_step_error}")
    print(f"  analytic  P(clean) = {report.analytic_error_free:.4f}")
    print(f"  empirical P(clean) = {report.empirical_error_free:.4f}  ({cfg.trials} trials)")
    print()
    print("mean IoU against GT per fifth of the track")
    for i, m in enumerate(report.profile):
        print(f"  fifth {i + 1}: {m:.4f}")
    print()

    clean_cfg = ExposureConfig(sequence_length=len(boxes) * 4, per_step_error=0.0,
                               trials=200, token_budget=4, seed=9)
    clean = simulate_decoding(clean_cfg, boxes)
    print(f"control at eps = 0: profile {[round(m, 4) for m in clean.profile]}")


if __name__ == "__main__":
    main()
