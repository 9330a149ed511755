# Temporal-consistency losses on a mined tube, with analytic gradients
# verified against central differences.
#
# feature_loss pushes adjacent per-frame embeddings toward each other in
# cosine space; geom_loss is the same adjacent-frame penalty on boxes,
# one minus GIoU plus a center-size L1.  Both come with closed-form
# gradients so a trainer can backpropagate without autodiff.

import numpy as np

from tubekit import (MinedTube, combined_loss, feature_loss, geom_loss,
                     grad_check, loss_gradients)


def smooth_tube(seed, length=6, dim=8):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(length, dim))
    feats[:, 0] += 2.0
    boxes = np.empty((length, 4))   # one [x1, y1, x2, y2] row per frame
    cx, cy = 0.5, 0.5
    for t in range(length):
        cx = float(np.clip(cx + rng.uniform(-0.02, 0.02), 0.3, 0.7))
        cy = float(np.clip(cy + rng.uniform(-0.02, 0.02), 0.3, 0.7))
        w, h = rng.uniform(0.25, 0.35, size=2)
        boxes[t] = [cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2]
    return MinedTube(features=feats, boxes=boxes)


def main():
    tube = smooth_tube(seed=5)
    print(f"mined tube: {tube.length} frames, feature dim {tube.features.shape[1]}")
    print(f"  feature_loss  = {feature_loss(tube):.6f}")
    print(f"  geom_loss     = {geom_loss(tube):.6f}")
    print(f"  combined_loss = {combined_loss(tube):.6f}  (2 * geom + 1 * feat by default)")
    print()

    grads = loss_gradients(tube)
    print(f"gradient shapes: features {grads.d_features.shape}, boxes {grads.d_boxes.shape}")
    print(f"  max |d_features| = {np.abs(grads.d_features).max():.4f}")
    print(f"  max |d_boxes|    = {np.abs(grads.d_boxes).max():.4f}")

    # Cosine terms are scale free, so the feature gradient of each frame
    # is orthogonal to that frame's embedding.
    dots = np.abs(np.sum(grads.d_features * tube.features, axis=1))
    print(f"  max |<d_feature_t, feature_t>| = {dots.max():.3e}  (scale invariance)")
    print()

    report = grad_check(tube)
    print("central-difference check")
    print(f"  step            = {report.step:g}")
    print(f"  max rel error   = {report.max_rel_error:.3e}")
    print(f"  skipped coords  = {report.skipped_kink_coords} (flat GIoU corners)")
    print()

    frozen = MinedTube(features=np.tile(np.array([1.0, 2.0, 0.5]), (5, 1)),
                       boxes=np.tile([0.3, 0.3, 0.6, 0.6], (5, 1)))
    print("a perfectly static tube costs nothing")
    print(f"  feature_loss = {feature_loss(frozen)}")
    print(f"  geom_loss    = {geom_loss(frozen)}")
    g = loss_gradients(frozen)
    print(f"  max |gradient| = {max(np.abs(g.d_features).max(), np.abs(g.d_boxes).max()):.3e}")


if __name__ == "__main__":
    main()
