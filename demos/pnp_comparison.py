"""Denoiser-in-the-loop unmixing against the plain baseline.

Runs both plug-and-play modes with the non-local means prior on a heavy
noise scene and prints how much of the baseline's abundance error the
prior removes.  The spectral mode filters reconstructed band images
inside the loop; the abundance mode filters the abundance planes
themselves.
"""

import argparse
from pathlib import Path

from pnpunmix import (
    SceneSpec, make_scene, unfold, fold, fcls, unmix, evaluate,
    default_config, write_graymap,
)

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--out", default="demo_out/pnp", help="output directory")
parser.add_argument("--snr-db", type=float, default=5.0)
parser.add_argument("--seed", type=int, default=0)
args = parser.parse_args()

out = Path(args.out)
out.mkdir(parents=True, exist_ok=True)

spec = SceneSpec(rows=64, cols=64, endmembers=4, bands=64,
                 snr_db=args.snr_db, seed=args.seed)
scene = make_scene(spec)
observed = unfold(scene.noisy)
clean = unfold(scene.clean)

print(f"scene {spec.rows}x{spec.cols}, {spec.endmembers} materials, "
      f"{args.snr_db:g} dB, seed {spec.seed}\n")

baseline = fcls(scene.endmembers, observed)
base_report = evaluate(scene.endmembers, observed, baseline,
                       truth=scene.truth, clean=clean)
print(f"{'baseline':14s} rmse {base_report.rmse:.4f}  "
      f"psnr {base_report.psnr:6.3f} dB")

results = {"baseline": baseline}
for mode in ("pro-h", "pro-a"):
    cfg = default_config(mode, "nlm", snr_db=args.snr_db)
    estimate, state = unmix(observed, scene.endmembers, cfg, truth=scene.truth)
    report = evaluate(scene.endmembers, observed, estimate,
                      truth=scene.truth, clean=clean)
    gain = 100.0 * (1.0 - report.rmse / base_report.rmse)
    print(f"{mode + '-nlm':14s} rmse {report.rmse:.4f}  "
          f"psnr {report.psnr:6.3f} dB  "
          f"({gain:.0f}% rmse below baseline, {state.iteration} iterations)")
    # the error trace shows most of the gain lands in the first few rounds
    trail = ", ".join(f"{r.rmse:.4f}" for r in state.iterations[:5])
    print(f"{'':14s} rmse by iteration: {trail}, ...")
    results[mode] = estimate

# one map per material and method for a quick visual diff; constraint
# tolerance lets entries poke a hair past 1.0, so clip before writing
for name, estimate in results.items():
    planes = fold(estimate).values.clip(0.0, 1.0)
    for i in range(spec.endmembers):
        write_graymap(out / f"{name}_{i}.pgm", planes[i])
truth_planes = fold(scene.truth).values
for i in range(spec.endmembers):
    write_graymap(out / f"truth_{i}.pgm", truth_planes[i])

print(f"\nwrote per-method abundance maps under {out}")
