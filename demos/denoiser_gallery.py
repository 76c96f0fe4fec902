"""Side-by-side look at the built-in denoisers.

Takes one noisy band image and runs every registered denoiser over a
range of strengths, printing the residual error against the clean band.
A custom denoiser plugged in through register_denoiser shows up in the
sweep automatically.
"""

import argparse
from pathlib import Path

import numpy as np

from pnpunmix import (
    SceneSpec, make_scene, denoise, available_denoisers,
    register_denoiser, write_graymap, HsiCube,
)

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--out", default="demo_out/denoisers")
parser.add_argument("--seed", type=int, default=3)
args = parser.parse_args()

out = Path(args.out)
out.mkdir(parents=True, exist_ok=True)


# a deliberately crude plug-in; registered denoisers get the whole
# (bands, rows, cols) volume and average spatially here
def box_blur(volume, sigma):
    padded = np.pad(volume, ((0, 0), (1, 1), (1, 1)), mode="edge")
    return (padded[:, 1:-1, 1:-1] + padded[:, :-2, 1:-1] + padded[:, 2:, 1:-1]
            + padded[:, 1:-1, :-2] + padded[:, 1:-1, 2:]) / 5.0


register_denoiser("box", box_blur)

scene = make_scene(SceneSpec(rows=64, cols=64, endmembers=4, bands=16,
                             snr_db=10.0, seed=args.seed))
band = 8
noisy_plane = scene.noisy.values[band]
clean_plane = scene.clean.values[band]
noise_rms = float(np.sqrt(np.mean((noisy_plane - clean_plane) ** 2)))
print(f"band {band}: noise rms {noise_rms:.4f}")
print(f"registered denoisers: {', '.join(available_denoisers())}\n")

single = HsiCube(noisy_plane[None])
lo, hi = clean_plane.min(), clean_plane.max()


def to_unit(plane):
    return (plane - lo) / max(hi - lo, 1e-12)


write_graymap(out / "noisy.pgm", np.clip(to_unit(noisy_plane), 0, 1))
write_graymap(out / "clean.pgm", to_unit(clean_plane))

for kind in available_denoisers():
    row = []
    for sigma in (0.5 * noise_rms, noise_rms, 2.0 * noise_rms):
        filtered = denoise(kind, single, sigma).values[0]
        err = float(np.sqrt(np.mean((filtered - clean_plane) ** 2)))
        row.append(f"sigma {sigma:.3f} -> rms {err:.4f}")
        if sigma == noise_rms:
            write_graymap(out / f"{kind}.pgm", np.clip(to_unit(filtered), 0, 1))
    print(f"{kind:10s} {'   '.join(row)}")

print(f"\nwrote filtered band images under {out}")
