"""In-memory span tracer and the per-layer metrics derived from its spans.

The tracer wraps public functions of the ``pnpunmix`` modules by rebinding
their names in every module that imported them (``pnpunmix.pnp.denoise``,
``pnpunmix.cli.unmix``, ...), so the library itself is untouched and the
wrapped calls return exactly what the originals return. Each span records
its name, start, end, parent span and the operation it belongs to. Spans
stay in memory until :meth:`Tracer.dump` writes them out.

A layer's time is the self time of its spans: a span's duration minus the
durations of its child spans. The self times of all spans therefore add up
to the time of the outermost spans, so no interval is counted twice.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median

# name -> (unit, better, which end-to-end metric it should move, where)
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "pnp.unmix_s": ("s", "lower", "wall_s on every workload"),
    "pnp.iterations": ("count", "lower", "equals max_iter (20) on every workload"),
    "pnp.self_s": ("s", "lower", "wall_s on every workload; small on each"),
    "qp.a_step_s": ("s", "lower", "wall_s on cli-proa, not proh-nlm"),
    "qp.a_step_first_s": ("s", "lower", "wall_s on cli-proa (cold start)"),
    "qp.pixel_solves": ("count", "lower", "wall_s on cli-proa"),
    "qp.us_per_pixel_solve": ("us", "lower", "wall_s on cli-proa"),
    "qp.unconverged": ("count", "lower", "rmse and error_rate on every workload"),
    "qp.converged_ratio": ("ratio", "higher", "rmse and error_rate on every workload"),
    "denoise.calls": ("count", "lower", "wall_s on proh-nlm, not cli-proa"),
    "denoise.planes": ("count", "lower", "wall_s on proh-nlm, not cli-proa"),
    "denoise.busy_s": ("s", "lower", "wall_s on proh-nlm, not cli-proa"),
    "denoise.ms_per_plane": ("ms", "lower", "wall_s on proh-nlm, not cli-proa"),
    "cube.busy_s": ("s", "lower", "wall_s on cli-proa; under 1% elsewhere"),
    "cube.bytes": ("B", "lower", "wall_s on cli-proa (computed from array sizes)"),
    "io.read_s": ("s", "lower", "wall_s on cli-proa only"),
    "io.write_s": ("s", "lower", "wall_s and setup_s on cli-proa only"),
    "io.bytes_read": ("B", "lower", "wall_s on cli-proa only"),
    "io.bytes_written": ("B", "lower", "wall_s and setup_s on cli-proa only"),
    "metrics.evaluate_s": ("s", "lower", "wall_s on cli-proa only"),
    "model.mix_s": ("s", "lower", "wall_s on cli-proa only"),
    "cli.import_s": ("s", "lower", "wall_s on cli-proa and setup_s everywhere"),
    "cli.self_s": ("s", "lower", "wall_s on cli-proa only"),
    "synth.make_scene_s": ("s", "lower", "setup_s on every workload, most on cli-proa"),
    "proc.cpu_per_wall": ("ratio", "lower", "wall_s changes that come from threads"),
    "trace.overhead_s": ("s", "lower", "none; traced minus untraced wall_s"),
}

# public functions wrapped in a traced run: module -> names
TRACED = {
    "pnpunmix.cube": ("fold", "unfold"),
    "pnpunmix.denoise": ("denoise",),
    "pnpunmix.io": ("read_cube", "write_cube", "read_abundances",
                    "write_abundances", "read_endmembers", "write_graymap"),
    "pnpunmix.metrics": ("evaluate",),
    "pnpunmix.model": ("mix",),
    "pnpunmix.pnp": ("unmix",),
    "pnpunmix.cli": ("main",),
    "pnpunmix.synth": ("make_scene",),
}


@dataclass
class Span:
    ident: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _counts(name: str, args, result) -> dict:
    """Work done by one call, computed from its arguments and result."""
    if name in ("cube.fold", "cube.unfold"):
        return {"bytes": args[0].values.nbytes}
    if name == "denoise.denoise":
        return {"planes": args[1].bands}
    if name.startswith("io."):
        return {"bytes": os.stat(args[0]).st_size}
    if name == "pnp.unmix":
        state = result[1]
        return {
            "iterations": state.iteration,
            "pixels": state.a.values.shape[1],
            "a_step": list(state.a_step_seconds),
            "unconverged": sum(state.qp_unconverged),
        }
    return {}


class Tracer:
    """Records spans around the wrapped library calls of one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[Span] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1].ident if self._stack else None
            span = Span(len(self.spans), parent, self.op, name, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.counts = _counts(name, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every traced function in each pnpunmix module holding it."""
        restore = []
        wrappers = {}
        for module_name, names in TRACED.items():
            module = importlib.import_module(module_name)
            layer = module_name.rsplit(".", 1)[1]
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = self.wrap(f"{layer}.{name}", fn)
        for module_name, module in list(sys.modules.items()):
            if module_name != "pnpunmix" and not module_name.startswith("pnpunmix."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    restore.append((module, attr, value))
                    setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, value in restore:
                setattr(module, attr, value)

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.ident, "parent": span.parent, "op": span.op,
                    "name": span.name, "start": span.start, "end": span.end,
                    "counts": span.counts,
                }) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus its children's; raises if spans do not nest."""
    by_id = {span.ident: span for span in spans}
    own = {span.ident: span.duration for span in spans}
    for span in spans:
        if span.parent is None or span.parent not in by_id:
            continue
        parent = by_id[span.parent]
        if span.start < parent.start or span.end > parent.end:
            raise ValueError(f"span {span.name} leaves its parent {parent.name}")
        own[span.parent] -= span.duration
    return own


def op_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one operation's spans.

    Self times make ``qp.a_step_s``, the self times of the spans inside
    ``unmix`` (denoise and cube) and ``pnp.self_s`` add up to ``pnp.unmix_s``
    by construction, provided that spans nest and the A-step time that
    ``unmix`` reports fits in the part of its span no child span covers.
    Both are checked here, so a negative or double-counted layer fails.
    """
    own = self_times(spans)
    by_id = {span.ident: span for span in spans}

    def self_sum(prefix):
        return sum(own[s.ident] for s in spans if s.name.startswith(prefix))

    def outermost_bytes(prefix):
        return sum(s.counts.get("bytes", 0) for s in spans
                   if s.name.startswith(prefix)
                   and (s.parent is None or by_id[s.parent].layer != "io"))

    unmixes = [s for s in spans if s.name == "pnp.unmix"]
    unmix_s = sum(s.duration for s in unmixes)
    a_step_s = sum(t for s in unmixes for t in s.counts["a_step"])
    pnp_self = sum(own[s.ident] for s in unmixes) - a_step_s
    if pnp_self < 0:
        raise ValueError(f"A-step time {a_step_s:.6f} s overlaps the spans inside unmix")

    pixel_solves = sum(s.counts["iterations"] * s.counts["pixels"] for s in unmixes)
    unconverged = sum(s.counts["unconverged"] for s in unmixes)
    denoises = [s for s in spans if s.name == "denoise.denoise"]
    planes = sum(s.counts["planes"] for s in denoises)
    denoise_s = self_sum("denoise.")
    return {
        "pnp.unmix_s": unmix_s,
        "pnp.iterations": sum(s.counts["iterations"] for s in unmixes),
        "pnp.self_s": pnp_self,
        "qp.a_step_s": a_step_s,
        "qp.a_step_first_s": sum(s.counts["a_step"][0] for s in unmixes),
        "qp.pixel_solves": pixel_solves,
        "qp.us_per_pixel_solve": 1e6 * a_step_s / pixel_solves if pixel_solves else 0.0,
        "qp.unconverged": unconverged,
        "qp.converged_ratio": 1.0 - unconverged / pixel_solves if pixel_solves else 0.0,
        "denoise.calls": len(denoises),
        "denoise.planes": planes,
        "denoise.busy_s": denoise_s,
        "denoise.ms_per_plane": 1e3 * denoise_s / planes if planes else 0.0,
        "cube.busy_s": self_sum("cube."),
        "cube.bytes": sum(s.counts["bytes"] for s in spans if s.layer == "cube"),
        "io.read_s": self_sum("io.read_"),
        "io.write_s": self_sum("io.write_"),
        "io.bytes_read": outermost_bytes("io.read_"),
        "io.bytes_written": outermost_bytes("io.write_"),
        "metrics.evaluate_s": self_sum("metrics."),
        "model.mix_s": self_sum("model."),
        "cli.self_s": self_sum("cli."),
    }


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced operations."""
    return {key: median(m[key] for m in per_op) for key in per_op[0]}
