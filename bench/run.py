"""pnpunmix benchmark: two closed-loop workloads, each in its own process.

    python3 bench/run.py                    # every workload, seed 0, 45 s each
    python3 bench/run.py --workload proh-nlm --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload cli-proa --trace 1   # per-layer metrics
    python3 bench/run.py --smoke            # tiny scenes, both passes, seconds

One caller runs one operation at a time (a closed loop) for ``--seconds``.
The workloads (see ``worker.WORKLOADS``) each load a different layer:
``proh-nlm`` the denoiser Z-step, and ``cli-proa`` the QP A-step and the
batch CLI with its file I/O and evaluation. Every workload runs in a fresh
child process, so peak memory is its own.

With ``--trace 0`` the end-to-end metrics are printed: ``wall_s`` (median
seconds per operation), ``rmse`` of the final abundances against truth,
``setup_s`` (median over separate set-ups) and ``peak_rss_mb``. Failed
operations over attempted ones give the error rate. With ``--trace 1`` a
separate traced run prints the per-layer metrics of ``spans.LAYER_METRICS``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median

from spans import LAYER_METRICS
from worker import SRC, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 600.0

END_TO_END_UNITS = {"wall_s": "s", "rmse": "fraction", "setup_s": "s", "peak_rss_mb": "MiB"}


class BenchError(RuntimeError):
    pass


def run_worker(name: str, seed: int, seconds: float, trace: int, smoke: bool,
               setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{name} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """Run one workload and return its result in the printed JSON shape."""
    setups = [] if trace else [
        run_worker(name, seed, seconds, trace, smoke, setup_only=True)["setup_s"]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    raw = run_worker(name, seed, seconds, trace, smoke)
    print("env " + json.dumps(raw["env"], sort_keys=True))
    walls = raw["wall_s"]
    rate = raw["failed"] / raw["attempted"]
    print(f"{name}: {raw['attempted']} operations, {raw['failed']} failed, "
          f"error_rate {rate:.3f}; wall_s per operation {walls}")
    if trace:
        layers = raw["layers"]
        values = {key: layers[key] for key in LAYER_METRICS}
        print(f"{name}: traced wall_s {raw['traced_wall_s']}")
        for key, value in values.items():
            print(f"  {key:24s} {value:14.6g} {LAYER_METRICS[key][0]:6s} "
                  f"moves {LAYER_METRICS[key][2]}")
        for line in _shares(values, median(raw["traced_wall_s"]), WORKLOADS[name].cli):
            print(f"  share {line}")
        units = {key: spec[0] for key, spec in LAYER_METRICS.items()}
    else:
        setups.append(raw["setup_s"])
        values = {
            "wall_s": median(walls),
            "rmse": raw["rmse"],
            "setup_s": median(setups),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        for key, value in values.items():
            print(f"  {key:12s} {value:.6g} {END_TO_END_UNITS[key]}")
        print(f"  wall_s is the median of {len(walls)} operations, "
              f"setup_s of {len(setups)} set-ups")
        units = END_TO_END_UNITS
    return {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in values.items()},
    }


def _shares(v: dict, traced_wall: float, cli: bool) -> list[str]:
    """The shares of time that show which layer a workload loads."""
    unmix = v["pnp.unmix_s"]
    lines = [
        f"denoise.busy_s / pnp.unmix_s = {v['denoise.busy_s'] / unmix:.3f}",
        f"qp.a_step_s / pnp.unmix_s = {v['qp.a_step_s'] / unmix:.3f}",
    ]
    if cli:
        # a fresh process costs the in-process call plus the bare import
        wall = traced_wall + v["cli.import_s"]
        own = (v["io.read_s"] + v["io.write_s"] + v["metrics.evaluate_s"]
               + v["model.mix_s"] + v["cli.self_s"] + v["cli.import_s"])
        lines += [
            f"(io + metrics + model + cli self times) / wall = {own / wall:.3f}",
            f"(wall - pnp.unmix_s) / wall, outside unmix = {(wall - unmix) / wall:.3f}",
        ]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pnpunmix benchmark")
    parser.add_argument("--workload", default="all", choices=["all", *sorted(WORKLOADS)])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="16x16 scenes, 2 iterations, one operation per pass, "
                             "both the untraced and the traced pass")
    args = parser.parse_args(argv)
    if not (SRC / "pnpunmix" / "__init__.py").is_file():
        print(f"bench: no pnpunmix sources under {SRC}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    passes = (0, 1) if args.smoke else (args.trace,)
    seconds = 0.0 if args.smoke else args.seconds
    results = {}
    try:
        for name in names:
            for trace in passes:
                results[name, trace] = run_workload(name, args.seed, seconds, trace, args.smoke)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": metric
                        for (name, _), r in results.items()
                        for key, metric in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] or not args.smoke else 1


if __name__ == "__main__":
    sys.exit(main())
