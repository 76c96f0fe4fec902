"""Run one benchmark workload in this process and print its samples as JSON.

``run.py`` starts one of these per workload, so peak memory and CPU time
belong to that workload alone. Set-up (package import, scene generation,
and for the CLI workload writing the input files) is timed from the start
of this process. Operations then run as a closed loop, one at a time,
until ``--seconds`` have passed. Every operation's output is checked; an
operation that raises or fails a check counts as failed and the loop goes
on. With ``--trace 1`` operations alternate between untraced and traced,
and the traced ones yield the per-layer metrics of ``spans.py``.

    python3 bench/worker.py --workload cli-proa --seed 0 --seconds 45 --trace 0
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

from spans import Tracer, median_metrics, op_metrics  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPANS_OUT = ROOT / ".bench_out"
THREADS_ENV = "PNPUNMIX_THREADS"
SUM_TOL = 1e-8
CLI_TIMEOUT_S = 170.0
IMPORT_SAMPLES = 3


@dataclass(frozen=True)
class Workload:
    rows: int
    cols: int
    endmembers: int
    bands: int
    snr_db: float
    mode: str
    denoiser: str
    cli: bool = False


# Two workloads keep each run long (45 s) within the time that all runs
# together may take: on a shared host shorter runs spread past a 25% bound. The A-step is loaded by
# cli-proa at P=5; no workload times it alone at large P.
WORKLOADS = {
    # the paper's default path; the nlm Z-step takes ~98% of the time
    "proh-nlm": Workload(64, 64, 4, 64, 10.0, "pro-h", "nlm"),
    # the batch CLI in a fresh process: the QP A-step takes ~57% of the
    # time, file I/O, evaluation and interpreter start most of the rest
    "cli-proa": Workload(256, 256, 5, 224, 20.0, "pro-a", "gaussian", cli=True),
}

# tiny scenes and two iterations, so every path and check runs in seconds
SMOKE_SIZE = {"rows": 16, "cols": 16, "bands": 32}
SMOKE_MAX_ITER = 2
DEFAULT_MAX_ITER = 20
SCENE_SEED = 0


@dataclass
class Outcome:
    wall_s: float
    digest: str
    rmse: float
    problems: list


def _estimate_problems(values, tol: float) -> list:
    import numpy as np

    problems = []
    if not np.isfinite(values).all():
        return ["estimate is not finite"]
    if values.min() < 0.0:
        problems.append(f"negative abundance {values.min():.3e}")
    worst = float(np.abs(values.sum(axis=0) - 1.0).max())
    if worst > tol:
        problems.append(f"column sums off by {worst:.3e} > {tol:.0e}")
    return problems


def make_inputs(spec, seed: int):
    """The workload's scene, observed through noise drawn from ``seed``.

    The materials and abundance maps come from ``spec`` alone: across
    random material libraries the rmse of one 64x64 scene differs by up to
    10%, more than a regression bound can absorb, so the seed draws only
    the noise. The noise seed is derived as ``make_scene`` derives it, so
    seed 0 gives exactly ``make_scene``'s noisy cube.
    """
    import numpy as np
    import pnpunmix

    scene = pnpunmix.make_scene(spec)
    noise_seed = int(np.random.SeedSequence(seed, spawn_key=(2,)).generate_state(1)[0])
    observed = pnpunmix.add_noise_snr(pnpunmix.unfold(scene.clean), spec.snr_db, noise_seed)
    return scene, observed


class LibraryBench:
    """One operation: ``unmix`` on an in-memory scene, truth given."""

    def __init__(self, workload: Workload, spec, seed: int, max_iter: int | None):
        import pnpunmix

        scene, self.observed = make_inputs(spec, seed)
        self.endmembers = scene.endmembers
        self.truth = scene.truth
        overrides = {"stop_tol": 0.0}
        if max_iter is not None:
            overrides["max_iter"] = max_iter
        self.cfg = pnpunmix.default_config(
            workload.mode, workload.denoiser, snr_db=workload.snr_db, **overrides
        )

    def run(self, index: int, tracer: Tracer | None) -> Outcome:
        import pnpunmix

        with tracer.installed() if tracer else contextlib.nullcontext():
            tic = time.perf_counter()
            estimate, state = pnpunmix.unmix(
                self.observed, self.endmembers, self.cfg, truth=self.truth
            )
            wall = time.perf_counter() - tic
        values = estimate.values
        problems = _estimate_problems(values, SUM_TOL)
        if state.iteration != self.cfg.max_iter:
            problems.append(f"ran {state.iteration} of {self.cfg.max_iter} iterations")
        return Outcome(wall, hashlib.sha256(values.tobytes()).hexdigest(),
                       pnpunmix.rmse(self.truth, estimate), problems)


class CliBench:
    """One operation: ``pnpunmix unmix`` on a scene that set-up wrote to disk.

    Each operation starts a fresh interpreter, as users do. In a traced run
    every operation calls ``pnpunmix.cli.main`` in this process instead, so
    that the spans can be recorded and traced and untraced calls differ by
    the tracing alone.
    """

    def __init__(self, workload: Workload, spec, seed: int, max_iter: int | None,
                 work: Path, in_process: bool):
        import pnpunmix

        scene, observed = make_inputs(spec, seed)
        work.mkdir(parents=True)
        pnpunmix.write_cube(work / "noisy.raw", pnpunmix.fold(observed))
        pnpunmix.write_cube(work / "clean.raw", scene.clean)
        pnpunmix.write_abundances(work / "truth.raw", scene.truth)
        pnpunmix.write_endmembers(work / "endmembers.csv", scene.endmembers)
        self.work = work
        self.in_process = in_process
        self.maps = workload.endmembers
        self.argv = [
            "unmix", "--cube", str(work / "noisy.raw"),
            "--endmembers", str(work / "endmembers.csv"),
            "--truth", str(work / "truth.raw"), "--clean", str(work / "clean.raw"),
            "--mode", workload.mode, "--denoiser", workload.denoiser,
            "--snr-db", repr(workload.snr_db), "--stop-tol", "0",
            "--max-iter", str(max_iter or DEFAULT_MAX_ITER),
        ]

    def run(self, index: int, tracer: Tracer | None) -> Outcome:
        import pnpunmix.cli

        out = self.work / f"out{index}"
        argv = self.argv + ["--out", str(out)]
        try:
            if self.in_process:
                printed = io.StringIO()
                with (tracer.installed() if tracer else contextlib.nullcontext(),
                      contextlib.redirect_stdout(printed)):
                    tic = time.perf_counter()
                    code = pnpunmix.cli.main(argv)
                    wall = time.perf_counter() - tic
                stdout = printed.getvalue()
            else:
                tic = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, "-m", "pnpunmix", *argv], cwd=ROOT,
                    env=child_env(), stdout=subprocess.PIPE, text=True,
                    timeout=CLI_TIMEOUT_S,
                )
                wall = time.perf_counter() - tic
                code, stdout = proc.returncode, proc.stdout
            return self._check(out, code, stdout, wall)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, out: Path, code: int, stdout: str, wall: float) -> Outcome:
        from pnpunmix.io import STORED_ASC_TOL, read_abundances

        if code != 0:
            return Outcome(wall, "", float("nan"), [f"exit code {code}"])
        expected = ["abundances.raw", "abundances.hdr", "reconstruction.raw",
                    "reconstruction.hdr", "metrics.json", "trace.csv"]
        expected += [f"map_{i}.pgm" for i in range(self.maps)]
        missing = [name for name in expected if not (out / name).is_file()]
        if missing:
            return Outcome(wall, "", float("nan"), [f"missing artifacts {missing}"])
        printed = json.loads(stdout.strip().splitlines()[-1])
        written = json.loads((out / "metrics.json").read_text())
        problems = []
        if printed.get("rmse") != written.get("rmse"):
            problems.append("printed rmse differs from metrics.json")
        estimate = read_abundances(out / "abundances.raw")
        # the file stores float32, so sums hold only to the reader's tolerance
        problems += _estimate_problems(estimate.values, STORED_ASC_TOL)
        payload = (out / "abundances.raw").read_bytes()
        return Outcome(wall, hashlib.sha256(payload).hexdigest(),
                       float(printed["rmse"]), problems)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _git_commit():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _import_seconds() -> float:
    """Median wall time of a bare ``python -c "import pnpunmix"``."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        tic = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import pnpunmix"], cwd=ROOT,
                       env=child_env(), check=True, timeout=CLI_TIMEOUT_S)
        samples.append(time.perf_counter() - tic)
    return median(samples)


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def measure(bench, seconds: float, tracer: Tracer | None) -> dict:
    """Closed loop of operations; with a tracer, every other one is traced."""
    walls = {False: [], True: []}
    layers, cpu_per_wall, rmses = [], [], []
    first = None
    attempted = failed = 0
    start = time.perf_counter()
    while attempted < (2 if tracer else 1) or time.perf_counter() - start < seconds:
        traced = tracer is not None and attempted % 2 == 1
        index = attempted
        attempted += 1
        if traced:
            tracer.op = index
        cpu = _cpu_seconds()
        try:
            outcome = bench.run(index, tracer if traced else None)
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            failed += 1
            continue
        cpu = _cpu_seconds() - cpu
        if first is None:
            first = outcome.digest
        elif outcome.digest != first:
            outcome.problems.append("estimate bytes differ from the first operation")
        if traced:
            try:
                layers.append(op_metrics([s for s in tracer.spans if s.op == index]))
            except ValueError as exc:
                outcome.problems.append(f"span accounting: {exc}")
            cpu_per_wall.append(cpu / outcome.wall_s)
        if outcome.problems:
            print(f"operation {index} failed: {'; '.join(outcome.problems)}", file=sys.stderr)
            failed += 1
        walls[traced].append(outcome.wall_s)
        if not math.isnan(outcome.rmse):
            rmses.append(outcome.rmse)
    if not rmses or not walls[False] or (tracer is not None and not layers):
        raise RuntimeError(f"no operation of {attempted} gave a usable result")
    result = {"attempted": attempted, "failed": failed, "wall_s": walls[False],
              "rmse": rmses[0]}
    if tracer is not None:
        result["traced_wall_s"] = walls[True]
        result["layers"] = median_metrics(layers)
        result["layers"]["proc.cpu_per_wall"] = median(cpu_per_wall)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="time set-up, print it and stop")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    max_iter = SMOKE_MAX_ITER if args.smoke else None

    os.environ.pop(THREADS_ENV, None)  # library-default threading, here and in children
    sys.path.insert(0, str(SRC))
    import pnpunmix

    if not Path(pnpunmix.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported pnpunmix from {pnpunmix.__file__}, not {SRC}")
    fields = dict(rows=workload.rows, cols=workload.cols,
                  endmembers=workload.endmembers, bands=workload.bands)
    if args.smoke:
        fields.update(SMOKE_SIZE)
    spec = pnpunmix.SceneSpec(snr_db=workload.snr_db, seed=SCENE_SEED, **fields)
    tracer = Tracer() if args.trace else None
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        with tracer.installed() if tracer else contextlib.nullcontext():
            if workload.cli:
                bench = CliBench(workload, spec, args.seed, max_iter, work,
                                 in_process=bool(tracer))
            else:
                bench = LibraryBench(workload, spec, args.seed, max_iter)
        setup_s = time.perf_counter() - START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = measure(bench, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer is None:
        who = resource.RUSAGE_CHILDREN if workload.cli else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    result["setup_s"] = setup_s
    result["env"] = environment(args.seed)
    if tracer is not None:
        layers = result["layers"]
        layers["synth.make_scene_s"] = sum(
            s.duration for s in tracer.spans if s.name == "synth.make_scene")
        layers["cli.import_s"] = _import_seconds()
        layers["trace.overhead_s"] = median(result["traced_wall_s"]) - median(result["wall_s"])
        SPANS_OUT.mkdir(exist_ok=True)
        tracer.dump(SPANS_OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
