"""Timing around the calls `fsosr.pipeline` makes into each module.

The program is not edited: `patched` swaps the module-level names by which
`fsosr.pipeline` looks up its collaborators for timing wrappers, then restores
them. `run_eval` itself is unmodified and emits one span per wrapped call.

The cores of the host this benchmark was built on switch between a fast and a
slow speed (about 1.7x apart) every few seconds, which moves raw wall times by
20 % between runs. So every episode is bracketed by `calibrate()`, a fixed
kernel that no program change touches, and times are reported in reference
seconds: measured seconds x CAL_REF_S / the mean calibration time measured
beside them. On a fast core the two agree.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from fsosr import pipeline

# the collaborators run_eval and evaluate_episode reach through pipeline's globals
TRACED = (
    "read_dataset",
    "sample_episode",
    "spatial_avg_pool",
    "build_known_prototypes",
    "procam_for_support",
    "init_background",
    "finetune_bank",
    "predict",
    "accuracy",
    "auroc",
    "aggregate",
    "evaluate_episode",
)

CAL_REF_S = 0.001  # calibrate() on a fast core of a 2-vCPU Xeon (Sapphire Rapids) KVM guest
_RNG = np.random.default_rng(0)
# (feature rows, class weight, repetitions) at the standard 8x8x64 and wide 5x5x640 shapes
_CAL_CASES = tuple(
    (m[:-1], m[-1], n) for m, n in ((_RNG.normal(size=(65, 64)), 32), (_RNG.normal(size=(26, 640)), 10))
)


def calibrate() -> float:
    """Seconds taken by a fixed activation-map step (cam, mask, pool) at both
    feature shapes: small numpy calls plus interpreter work, like an episode's."""
    start = time.perf_counter()
    for x, w, n in _CAL_CASES:
        for _ in range(n):
            a = x @ w
            masked = x * np.maximum(a, 0.0)[:, None]
            float(masked.mean(axis=0).sum()) / (float(np.linalg.norm(a)) + 1.0)
    return time.perf_counter() - start


def reference_seconds(seconds: float, cal: float) -> float:
    return seconds * CAL_REF_S / cal


def reference_wall(wall: float, episodes: list[tuple[float, float, float]], workers: int) -> float:
    """A call's wall time less the calibrations its workers ran, in reference
    seconds: scaled by the speed its `(seconds, calibration before, after)`
    episodes saw, weighted by their time."""
    spent = sum(s for s, _, _ in episodes)
    speed = sum(reference_seconds(s, (b + a) / 2) for s, b, a in episodes) / spent
    return (wall - sum(b + a for _, b, a in episodes) / workers) * speed


@contextlib.contextmanager
def patched(replacements: dict):
    """Set attributes on `(owner, name)` keys for the duration of the block."""
    saved = {key: getattr(*key) for key in replacements}
    try:
        for (owner, name), value in replacements.items():
            setattr(owner, name, value)
        yield
    finally:
        for (owner, name), value in saved.items():
            setattr(owner, name, value)


@contextlib.contextmanager
def episode_timer(path: str):
    """The single timer of untraced runs: each `evaluate_episode` call appends
    `index seconds calibration_before calibration_after` to `path`. One
    O_APPEND write per call, so forked pool workers, which inherit the wrapper
    and the descriptor, report too."""
    inner = pipeline.evaluate_episode
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)

    def evaluate_episode(ds, cfg, index, *args, **kwargs):
        before = calibrate()
        start = time.perf_counter()
        record = inner(ds, cfg, index, *args, **kwargs)
        elapsed = time.perf_counter() - start
        os.write(fd, b"%d %.9f %.9f %.9f\n" % (index, elapsed, before, calibrate()))
        return record

    try:
        with patched({(pipeline, "evaluate_episode"): evaluate_episode}):
            yield
    finally:
        os.close(fd)


def read_episode_times(path: str) -> list[tuple[int, float, float, float]]:
    with open(path) as fh:
        rows = [(int(i), float(s), float(b), float(a)) for i, s, b, a in map(str.split, fh)]
    os.remove(path)
    return rows


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top
    episode: int | None
    root: int  # index of the enclosing evaluate_episode span, -1 outside episodes
    child_s: float = 0.0  # time covered by direct children
    cal: float = 0.0  # on evaluate_episode spans: mean calibration before and after

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Spans kept in memory for one process, plus what the wrappers observe in
    arguments and results: mining sizes, fine-tune loss curves."""

    spans: list[Span] = field(default_factory=list)
    episodes: list[tuple[float, float, float]] = field(default_factory=list)  # seconds, calibrations
    mined: list[tuple[int, int, int, int, int]] = field(default_factory=list)  # supports, H, W, d, iterations
    norm_ratios: list[float] = field(default_factory=list)
    loss_curves: list[tuple[float, ...]] = field(default_factory=list)
    bundle_bytes: list[int] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if self._stack:
                parent = self._stack[-1]
                episode, root = self.spans[parent].episode, self.spans[parent].root
            else:
                parent, episode, root = -1, None, -1
            if name == "evaluate_episode":
                episode, root, before = args[2], len(self.spans), calibrate()
            span = Span(name, time.perf_counter(), 0.0, parent, episode, root)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent >= 0:
                    self.spans[parent].child_s += span.duration
                if name == "evaluate_episode":
                    after = calibrate()
                    span.cal = (before + after) / 2
                    self.episodes.append((span.duration, before, after))
            observed = time.perf_counter()
            self._observe(name, args, result)
            if parent >= 0:  # tracer overhead, not the parent's own work
                self.spans[parent].child_s += time.perf_counter() - observed
            return result

        return traced

    def _observe(self, name: str, args, result) -> None:
        if name == "procam_for_support":
            fmap = args[0][0][0]
            self.mined.append(
                (len(args[0]), fmap.height, fmap.width, fmap.channels, args[2].iterations)
            )
            for fg, bg in result:
                self.norm_ratios.append(
                    float(np.linalg.norm(bg.values) / np.linalg.norm(fg.values))
                )
        elif name == "finetune_bank":
            self.loss_curves.append(tuple(result[1].per_epoch_totals))

    @contextlib.contextmanager
    def installed(self):
        replacements = {
            (pipeline, name): self.wrap(name, getattr(pipeline, name)) for name in TRACED
        }
        write = pipeline.ResultsBundle.write
        tracer = self

        def traced_write(bundle, output_dir):
            paths = write(bundle, output_dir)
            tracer.bundle_bytes.append(sum(os.path.getsize(p) for p in paths))
            return paths

        replacements[(pipeline.ResultsBundle, "write")] = self.wrap("bundle_write", traced_write)
        with patched(replacements):
            yield

    def write_spans(self, path) -> None:
        """One JSON list per line: name, start, end, parent line, episode."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.episode]) + "\n")

    def report(self, episodes: int, calls: int) -> dict[str, float]:
        """Per-module metrics: times in reference ms per episode unless named
        otherwise, counts per episode."""
        call_cal = statistics.median((b + a) / 2 for _, b, a in self.episodes)
        self_s: dict[str, float] = {}
        total_s: dict[str, list[float]] = {}
        counts: dict[str, int] = {}
        for span in self.spans:
            cal = self.spans[span.root].cal if span.root >= 0 else call_cal
            own = reference_seconds(span.duration - span.child_s, cal)
            self_s[span.name] = self_s.get(span.name, 0.0) + own
            total_s.setdefault(span.name, []).append(reference_seconds(span.duration, cal))
            counts[span.name] = counts.get(span.name, 0) + 1

        def ms(*names: str) -> float:
            return 1e3 * sum(self_s.get(n, 0.0) for n in names) / episodes

        def per_episode(name: str) -> float:
            return counts.get(name, 0) / episodes

        supports = sum(m[0] for m in self.mined)
        # computed, not counted: each mining iteration's cam is one (H*W, d) @ (d,)
        # product, 2*H*W*d flops; masking and normalisation are left out
        cam_flop = sum(2 * s * h * w * d * it for s, h, w, d, it in self.mined)
        mine_s = sum(total_s.get("procam_for_support", []))
        fine_tuned = len(self.loss_curves)
        return {
            "featmap.pool_ms": ms("spatial_avg_pool"),
            "featmap.pool_calls": per_episode("spatial_avg_pool"),
            "classifier.predict_ms": ms("predict"),
            "classifier.predict_calls": per_episode("predict"),
            "classifier.prototype_ms": ms("build_known_prototypes"),
            "classifier.init_ms": ms("init_background"),
            "procam.mine_ms": ms("procam_for_support"),
            "procam.supports_mined": supports / episodes,
            "procam.mine_us_per_support": 1e6 * mine_s / supports if supports else 0.0,
            "procam.gflop_per_s": cam_flop / mine_s / 1e9 if mine_s else 0.0,
            "procam.bg_fg_norm_ratio": float(np.mean(self.norm_ratios)) if self.norm_ratios else 0.0,
            "finetune.finetune_ms": ms("finetune_bank"),
            "finetune.epochs": (
                sum(len(c) - 1 for c in self.loss_curves) / fine_tuned if fine_tuned else 0.0
            ),
            "finetune.descended_ratio": (
                sum(1 for c in self.loss_curves if c[-1] < c[0]) / fine_tuned if fine_tuned else 0.0
            ),
            "episode.sample_ms": ms("sample_episode"),
            "dataset_io.read_s": statistics.median(total_s["read_dataset"]),
            "metrics.score_ms": ms("accuracy", "auroc", "aggregate"),
            "pipeline.glue_ms": ms("evaluate_episode"),
            "pipeline.bundle_write_ms": 1e3 * sum(total_s.get("bundle_write", [])) / calls,
            "pipeline.bundle_bytes": float(statistics.median(self.bundle_bytes)),
        }
