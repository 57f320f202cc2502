"""Score object-center heatmaps the way the pool scorer handles softmax rows.

Simulates an ensemble of detectors that mostly agree on one object but
disagree about a second, fainter one. Every heatmap cell is treated as a
small present/absent classifier, so the pool-level scoring functions
apply pixel-wise; the image score is the hottest cell.
"""

from __future__ import annotations

import numpy as np

from alsift import detection_heatmaps

rng = np.random.default_rng(5)
members, height, width = 6, 12, 12


def blob(center, strength):
    ys, xs = np.mgrid[0:height, 0:width]
    dist = (ys - center[0]) ** 2 + (xs - center[1]) ** 2
    return strength * np.exp(-dist / 6.0)


maps = np.zeros((members, 1, height, width))
for m in range(members):
    # everyone sees the object at (3, 3); only half see the one at (8, 9)
    maps[m, 0] = blob((3, 3), 0.95)
    if m % 2 == 0:
        maps[m, 0] += blob((8, 9), 0.9)
    maps[m, 0] = np.clip(maps[m, 0] + rng.normal(0, 0.01, (height, width)), 0, 1)


def render(grid):
    shades = " .:-=+*#%@"
    top = grid.max() or 1.0
    for row in grid:
        print("".join(shades[int(v / top * (len(shades) - 1))] for v in row))


for function_id in ("entropy", "mutual_information", "variation_ratios"):
    heat = detection_heatmaps(maps, function_id)
    print("%s (image score %.3f)" % (function_id, heat.max()))
    render(heat[0])
    print()

print("the agreed object at (3, 3) cools down in the disagreement maps;")
print("the contested one at (8, 9) stays hot and drives the image score.")
