"""Generate a synthetic scene and look at what came out.

Builds one 64x64 scene with four materials, prints how well the noise
injection hit its target, and writes the ground-truth abundance planes
plus three raw bands as viewable PGM images.
"""

import argparse
from pathlib import Path

import numpy as np

from pnpunmix import SceneSpec, make_scene, unfold, fold, write_graymap, write_cube
from pnpunmix.synth import PURE_PIXEL_FRACTION

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--out", default="demo_out/scene", help="output directory")
parser.add_argument("--snr-db", type=float, default=10.0)
parser.add_argument("--seed", type=int, default=3)
args = parser.parse_args()

out = Path(args.out)
out.mkdir(parents=True, exist_ok=True)

spec = SceneSpec(rows=64, cols=64, endmembers=4, bands=64,
                 snr_db=args.snr_db, seed=args.seed)
scene = make_scene(spec)

print(f"scene: {spec.rows}x{spec.cols}, {spec.endmembers} materials, "
      f"{spec.bands} bands, seed {spec.seed}")

# every pixel's abundances lie on the unit simplex by construction
a = scene.truth.values
print(f"abundance column sums: min {a.sum(axis=0).min():.12f}, "
      f"max {a.sum(axis=0).max():.12f}")
pure = int((a.max(axis=0) == 1.0).sum())
print(f"pure pixels: {pure} of {spec.pixels} "
      f"({100.0 * pure / spec.pixels:.1f}%, asked for "
      f"{100.0 * PURE_PIXEL_FRACTION:.1f}%)")

# re-measure the injected noise from the two cubes
clean = unfold(scene.clean).values
noisy = unfold(scene.noisy).values
realized = 10.0 * np.log10((clean**2).sum() / ((noisy - clean) ** 2).sum())
print(f"snr: asked {args.snr_db:g} dB, realized {realized:.3f} dB")

# abundance planes as images; fold() lays pixels back on the grid
planes = fold(scene.truth)
for i in range(spec.endmembers):
    write_graymap(out / f"truth_{i}.pgm", planes.values[i])

# a few raw bands, scaled to [0, 1] per band for display
for band in (0, spec.bands // 2, spec.bands - 1):
    plane = scene.noisy.values[band]
    lo, hi = plane.min(), plane.max()
    write_graymap(out / f"band_{band:02d}.pgm", (plane - lo) / max(hi - lo, 1e-12))

write_cube(out / "noisy.raw", scene.noisy)
print(f"wrote maps and cube under {out}")
