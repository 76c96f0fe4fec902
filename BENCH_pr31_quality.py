"""rmse of the nlm loop at search radius 3 over radius 5, at the shipped presets.

    PYTHONPATH=src python3 BENCH_pr31_quality.py > quality.json

For every scene below, SNR in {5, 10, 20, 30} dB and mode in {pro-h,
pro-a}, ``unmix`` runs ``default_config(mode, "nlm", snr_db=snr,
stop_tol=0)`` (20 iterations) on the scene's noisy cube twice: once with
``denoise.NLM_SEARCH_RADIUS`` set to 5 (11 x 11, the old window) and once
with it set to 3 (7 x 7).  Nothing else differs between the two runs.  The
held-out scenes are the trend scene (``SceneSpec()``, 64 x 64, P=4, 64
bands) at trend seeds 1 and 2 and at other field smoothnesses; the trend
cells are the trend scene at seed 0.  Prints one JSON document: each
cell's rmse at both radii and their ratio, the geometric mean of the
ratios (held-out cells, trend cells, all), and every cell whose ratio is
above 1.  The rmse values are deterministic; nothing is timed.
"""

from __future__ import annotations

import importlib
import json
import math

import numpy as np
from pnpunmix import SceneSpec, default_config, make_scene, rmse, unfold, unmix

denoise_module = importlib.import_module("pnpunmix.denoise")

HELD_OUT = {
    "trend, seed 1": {"seed": 1},
    "trend, seed 2": {"seed": 2},
    "smoothness 2, seed 3": {"field_smoothness": 2.0, "seed": 3},
    "smoothness 2, seed 4": {"field_smoothness": 2.0, "seed": 4},
    "smoothness 6, seed 3": {"field_smoothness": 6.0, "seed": 3},
    "smoothness 12, seed 4": {"field_smoothness": 12.0, "seed": 4},
}
TREND = {"trend, seed 0": {"seed": 0}}
SNRS = (5.0, 10.0, 20.0, 30.0)
MODES = ("pro-h", "pro-a")
RADII = (5, 3)


def cell_rmse(scene, mode: str, snr_db: float, radius: int) -> float:
    cfg = default_config(mode, "nlm", snr_db=snr_db, stop_tol=0.0)
    saved = denoise_module.NLM_SEARCH_RADIUS
    denoise_module.NLM_SEARCH_RADIUS = radius
    try:
        estimate, _ = unmix(unfold(scene.noisy), scene.endmembers, cfg)
    finally:
        denoise_module.NLM_SEARCH_RADIUS = saved
    return rmse(scene.truth, estimate)


def geometric_mean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def main() -> None:
    cells = []
    for group, scenes in (("held-out", HELD_OUT), ("trend", TREND)):
        for name, fields in scenes.items():
            for snr_db in SNRS:
                scene = make_scene(SceneSpec(snr_db=snr_db, **fields))
                for mode in MODES:
                    at = {r: cell_rmse(scene, mode, snr_db, r) for r in RADII}
                    cells.append({
                        "group": group, "scene": name, "snr_db": snr_db, "mode": mode,
                        "rmse_radius_5": at[5], "rmse_radius_3": at[3],
                        "ratio": at[3] / at[5],
                    })
    ratios = {g: [c["ratio"] for c in cells if c["group"] == g] for g in ("held-out", "trend")}
    worse = sorted((c for c in cells if c["ratio"] > 1.0), key=lambda c: -c["ratio"])
    print(json.dumps({
        "numpy": np.__version__,
        "cells": cells,
        "geometric_mean": {
            "held_out_48": geometric_mean(ratios["held-out"]),
            "trend_8": geometric_mean(ratios["trend"]),
            "all_56": geometric_mean(ratios["held-out"] + ratios["trend"]),
        },
        "worse": [{k: c[k] for k in ("scene", "snr_db", "mode", "ratio")} for c in worse],
        "worse_count": f"{len(worse)} of {len(cells)}",
    }, indent=1))


if __name__ == "__main__":
    main()
