"""Box geometry walkthrough: corner form, IoU and GIoU, one pair at a time
and row by row.

All boxes live in normalized [0, 1] image coordinates, corner order
(x1, y1, x2, y2).  GIoU extends IoU below zero for disjoint boxes, which
is what makes it usable as a regression signal when there is no overlap.
"""

import numpy as np

from tubekit import Box, giou, iou
from tubekit.geometry import corners, giou_pairs, iou_pairs


def main():
    a = Box(0.2, 0.2, 0.5, 0.5)
    b = Box(0.3, 0.25, 0.62, 0.57)
    print("two overlapping boxes")
    print(f"  a = {a.to_list()}")
    print(f"  b = {b.to_list()}")
    print(f"  iou(a, b)  = {iou(a, b):.6f}")
    print(f"  giou(a, b) = {giou(a, b):.6f}")
    print()

    # Disjoint boxes: IoU saturates at zero but GIoU still orders them
    # by how far apart they sit inside their enclosing hull.
    near = Box(0.52, 0.2, 0.8, 0.5)
    far = Box(0.7, 0.7, 0.95, 0.95)
    print("disjoint boxes, same IoU, different GIoU")
    print(f"  iou(a, near) = {iou(a, near):.6f}   giou(a, near) = {giou(a, near):.6f}")
    print(f"  iou(a, far)  = {iou(a, far):.6f}   giou(a, far)  = {giou(a, far):.6f}")
    print()

    rng = np.random.default_rng(7)

    # GIoU never exceeds IoU and both are symmetric.
    def random_box():
        x = np.sort(rng.uniform(0, 1, size=2))
        y = np.sort(rng.uniform(0, 1, size=2))
        return Box(x[0], y[0], max(x[1], x[0] + 1e-3), max(y[1], y[0] + 1e-3))

    pairs = [(random_box(), random_box()) for _ in range(2000)]
    viol = sum(1 for p, q in pairs if giou(p, q) > iou(p, q) + 1e-15 or giou(p, q) != giou(q, p))
    print(f"giou <= iou and symmetry violations over 2000 random pairs: {viol}")

    # Tubes, GT and predictions keep their boxes as (N, 4) corner arrays, one
    # row per frame; the array kernels give the scalar values bit for bit.
    first = corners([p for p, _ in pairs])
    second = corners([q for _, q in pairs])
    differ = (np.count_nonzero(iou_pairs(first, second) != [iou(p, q) for p, q in pairs])
              + np.count_nonzero(giou_pairs(first, second) != [giou(p, q) for p, q in pairs]))
    print(f"rows where iou_pairs or giou_pairs differ from the scalar functions: {differ}")


if __name__ == "__main__":
    main()
