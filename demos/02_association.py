# Tube association on a synthetic clip: slow memory vs frame-to-frame.
#
# Each query slot keeps an appearance vector that moves as an exponential
# moving average of whatever it matched.  alpha is the update rate, so
# alpha=1.0 degenerates to matching against the previous frame only while
# a small alpha averages over many past frames.  Which one wins depends
# on how appearance changes: the simulator drifts features as a pure
# accumulated walk, and under a walk the previous frame is already the
# best predictor of the next one, so do not expect the slow memory to
# dominate here.  The run below measures both.

import numpy as np

from tubekit import (AssociationConfig, SceneConfig, generate_scene,
                     identity_switch_rate, run_association)


def switch_stats(seeds, cfg_fn, alpha):
    rates = []
    for seed in seeds:
        scene = generate_scene(cfg_fn(seed))
        tubes = run_association(scene.frames,
                                AssociationConfig(n_q=4, alpha=alpha))
        rates.extend(identity_switch_rate(tubes, scene))
    return float(np.mean(rates))


def main():
    cfg = SceneConfig(seed=3, frames=40, objects=3, feature_dim=16,
                      appearance_drift=0.05, detection_noise=0.01,
                      distractor_rate=1.0)
    scene = generate_scene(cfg)
    print(f"scene: {cfg.frames} frames, {cfg.objects} objects, "
          f"{sum(len(f.detections) for f in scene.frames)} detections total")

    tubes = run_association(scene.frames, AssociationConfig(n_q=4, alpha=0.1))
    print(f"associated {len(tubes)} tubes, each spanning the full clip")
    for tube in tubes:
        print(f"  slot {tube.slot_id}: mean score {tube.mean_score():.3f}, "
              f"{int((tube.det < 0).sum())} gap frames")
    print()

    rates = identity_switch_rate(tubes, scene)
    print("per-slot identity switch rate (fraction of consecutive record")
    print("pairs whose underlying object changed):")
    for tube, r in zip(tubes, rates):
        print(f"  slot {tube.slot_id}: {r:.4f}")
    print()

    # A noiseless scene associates perfectly at any alpha.
    clean = generate_scene(SceneConfig(seed=3, frames=40, objects=3, feature_dim=16))
    clean_tubes = run_association(clean.frames, AssociationConfig(n_q=3, alpha=0.1))
    clean_rates = identity_switch_rate(clean_tubes, clean)
    print(f"noiseless control, switch rates: {clean_rates}")
    print()

    seeds = range(20)

    def noisy(seed):
        return SceneConfig(seed=seed, frames=40, objects=3, feature_dim=16,
                           appearance_drift=0.05, detection_noise=0.02,
                           confidence_noise=0.05, distractor_rate=2.0)

    slow = switch_stats(seeds, noisy, alpha=0.1)
    fast = switch_stats(seeds, noisy, alpha=1.0)
    print(f"mean switch rate over {len(list(seeds))} cluttered clips")
    print(f"  alpha = 0.1 (slow memory):     {slow:.4f}")
    print(f"  alpha = 1.0 (frame-to-frame):  {fast:.4f}")
    print()
    print("with purely accumulated appearance drift the two sit close")
    print("together and frame-to-frame can edge ahead; the slow memory")
    print("pays for its lag on every step of the walk but recovers from")
    print("a single bad match instead of locking onto it.")


if __name__ == "__main__":
    main()
