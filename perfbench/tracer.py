"""In-memory spans around the calls into each dgme layer.

Nothing in the program is instrumented: ``Tracer.installed()`` replaces the
layer functions, at the module attribute where their callers look them up,
with wrappers that record a span, and restores them on exit. Running
``dgme.cli.main`` inside that context therefore calls the same public
functions, in the same order and on the same inputs, as the ``dgme`` command.
``_resample`` is counted inside its callers and ``viz`` is not measured.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("videoio", "synth", "flow", "descriptor", "model", "evaluation", "cli")


def _stem(arg) -> str:
    return Path(arg).stem


# (module[:class], attribute, layer, clip id of the call from its arguments)
TRACED = (
    ("dgme.cli", "load_clip", "videoio", lambda a: _stem(a[0])),
    ("dgme.cli", "read_y8seq", "videoio", lambda a: _stem(a[0])),
    ("dgme.synth", "write_y8seq", "videoio", lambda a: _stem(a[1])),
    ("dgme.synth", "make_corpus", "synth", None),
    ("dgme.synth", "make_clip", "synth", None),
    ("dgme.synth", "degrade_clip", "synth", None),
    ("dgme.descriptor", "farneback_flow", "flow", None),
    ("dgme.descriptor", "cart2polar", "flow", None),
    ("dgme.descriptor", "compute_dgme", "descriptor", None),
    ("dgme.descriptor", "descriptor_from_polar", "descriptor", None),
    ("dgme.descriptor", "write_features_csv", "descriptor", None),
    ("dgme.descriptor", "read_features_csv", "descriptor", None),
    ("dgme.descriptor", "fit_stats", "descriptor", None),
    ("dgme.descriptor", "apply_zscore", "descriptor", None),
    ("dgme.descriptor", "write_stats_json", "descriptor", None),
    ("dgme.descriptor", "read_stats_json", "descriptor", None),
    ("dgme.model", "train", "model", None),
    ("dgme.model", "predict", "model", None),
    ("dgme.model:StubEmbeddingProvider", "embed", "model", lambda a: a[1].clip_id),
    ("dgme.model", "save_model_json", "model", None),
    ("dgme.model", "load_model_json", "model", None),
    ("dgme.model", "write_training_log", "model", None),
    ("dgme.evaluation", "load_schema", "evaluation", None),
    ("dgme.evaluation", "read_annotations_csv", "evaluation", None),
    ("dgme.evaluation", "write_annotations_csv", "evaluation", None),
    ("dgme.evaluation", "remap_labels", "evaluation", None),
    ("dgme.evaluation", "stratified_split", "evaluation", None),
    ("dgme.evaluation", "oversample", "evaluation", None),
    ("dgme.evaluation", "evaluate", "evaluation", None),
    ("dgme.evaluation", "write_metrics_json", "evaluation", None),
    ("dgme.evaluation", "write_confusion_csv", "evaluation", None),
    # the per-clip task of ``dgme extract``: one span per clip
    ("dgme.cli", "_extract_one", "cli", lambda a: _stem(a[0][1])),
)


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "clip", "pixels")

    def __init__(self, name, layer, parent, clip, pixels):
        self.name, self.layer, self.parent = name, layer, parent
        self.clip, self.pixels = clip, pixels
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans (name, layer, start, end, parent, clip id) in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str, clip: str = "", pixels: int = 0):
        parent = self._stack[-1] if self._stack else -1
        if not clip and parent >= 0:
            clip = self.spans[parent].clip
        self.spans.append(Span(name, layer, parent, clip, pixels))
        index = len(self.spans) - 1
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def _wrap(self, fn, name, layer, clip_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # level-0 pixels of a frame pair, for flow throughput
            pixels = args[0].size if name == "flow.farneback_flow" else 0
            with self.span(name, layer, clip_of(args) if clip_of else "", pixels):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for path, attr, layer, clip_of in TRACED:
                owner = _owner(path)
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, f"{layer}.{attr}", layer, clip_of))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # -- summaries -----------------------------------------------------------

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def ms(self, name: str) -> list[float]:
        return [1000.0 * s.seconds for s in self.by_name(name)]

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the part its direct children cover."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.seconds
        return own

    def busy_seconds(self, layer: str) -> float:
        return sum(t for s, t in zip(self.spans, self.self_seconds()) if s.layer == layer)

    def under(self, parent_name: str, layer_not: str = "cli") -> float:
        """Seconds of spans outside ``layer_not`` nested in ``parent_name`` spans."""
        own = self.self_seconds()
        total = 0.0
        for i, s in enumerate(self.spans):
            if s.layer == layer_not:
                continue
            p = s.parent
            while p >= 0 and self.spans[p].name != parent_name:
                p = self.spans[p].parent
            if p >= 0:
                total += own[i]
        return total
