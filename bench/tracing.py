"""Traced runs: spans recorded around calls into each tumorkit module.

Nothing in the package is changed on disk.  For a traced cycle the
tracer replaces functions with timing wrappers at the names the program
actually calls through, and puts the originals back afterwards:

* ``train.py`` and ``cli.py`` bind most helpers with ``from ... import``,
  so those wrappers go on ``tumorkit.train`` and ``tumorkit.cli``;
* ``model.py`` calls kernels through the ``nn.`` module attribute and
  ``preprocess.py`` calls its own module globals, so those wrappers go
  on ``tumorkit.nn`` and ``tumorkit.preprocess``;
* ``Model`` and ``Rng`` methods are wrapped on their classes.

A span holds a layer, a name, start and end, its parent span and the
run id (the cycle index).  Spans stay in memory and are written out
when the run ends.  A span's self time is its duration minus the time
its child spans cover, so the self times of one cycle sum to the
duration of its root span, which is the traced ``run_s``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

from tumorkit import cli, model, nn, preprocess, rng, train

LAYERS = ("bench", "cli", "train", "model", "nn", "augment", "rng", "preprocess",
          "pgm", "checkpoint", "metrics", "report")
CONV_NODES = tuple(f"conv{i}" for i in range(1, 14))
NN_NODES = (CONV_NODES + tuple(f"maxpool{i}" for i in range(1, 5))
            + tuple(f"dense{i}" for i in range(1, 4)) + ("relu", "dropout", "gap"))
AUGMENT_SIZES = (64, 224)
# input sizes of the gated workloads; other sizes show in size_breakdown()
CROP_SIZES = (64,)
# counts that must repeat exactly from one cycle to the next
EXACT = ("nn.conv.gflop", "model.trace_mb", "rng.randoms_draws", "rng.normals_draws",
         "checkpoint.mb", "preprocess.fg_pixels")


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = []
    for node in NN_NODES:
        names += [(f"nn.{node}.fwd_ms", "ms"), (f"nn.{node}.bwd_ms", "ms")]
    names += [("nn.loss_ms", "ms"), ("nn.adam_ms", "ms"), ("nn.conv.gflop", "GFLOP"),
              ("nn.conv.gflop_per_s", "GFLOP/s")]
    names += [("model.forward_s", "s"), ("model.backward_s", "s"),
              ("model.forward_eval_s", "s"), ("model.trace_mb", "MB"),
              ("model.backward_wasted_frac", "fraction")]
    names += [(f"augment.image_ms.{s}", "ms") for s in AUGMENT_SIZES]
    names += [("augment.sample_us", "us")]
    names += [("rng.randoms_draws", "count"), ("rng.normals_draws", "count"),
              ("rng.us_per_draw", "us")]
    names += [(f"preprocess.crop_ms.{s}", "ms") for s in CROP_SIZES]
    names += [("preprocess.morph_ms", "ms"), ("preprocess.component_ms", "ms")]
    names += [("preprocess.resize_ms", "ms"), ("preprocess.zscore_ms", "ms"),
              ("preprocess.fg_pixels", "count")]
    names += [("pgm.read_ms", "ms"), ("checkpoint.load_s", "s"), ("checkpoint.save_s", "s"),
              ("checkpoint.mb", "MB"), ("metrics.evaluate_ms", "ms"),
              ("report.emit_ms", "ms"), ("train.batch_prep_ms", "ms")]
    names += [(f"{layer}.self_s", "s") for layer in LAYERS]
    names += [("trace.run_s", "s"), ("trace.overhead_s", "s")]
    return names


class Span:
    __slots__ = ("layer", "name", "start", "end", "parent", "run", "info")

    def __init__(self, layer, name, start, parent, run, info):
        self.layer, self.name, self.start, self.end = layer, name, start, start
        self.parent, self.run, self.info = parent, run, info

    @property
    def duration(self) -> float:
        return self.end - self.start


def _nbytes(trace) -> int:
    """Bytes of the distinct arrays a forward trace keeps alive."""
    seen = {}
    for _kind, _name, cache in trace:
        for item in cache if isinstance(cache, tuple) else (cache,):
            if hasattr(item, "nbytes"):
                seen[id(item)] = item.nbytes
    return sum(seen.values())


class _Nodes:
    """Labels of a model's nodes in forward order, and which nodes'
    backward work no trainable parameter uses (every node before the
    first trainable conv or dense layer)."""

    def __init__(self, m):
        self.labels, self.wasted = [], []
        pools = 0
        trainable_seen = False
        for spec in m.specs:
            if spec.kind == "softmax":
                break
            if spec.kind in ("conv", "dense"):
                label = spec.name
                trainable_seen = trainable_seen or not m.layer(spec.name).frozen
            elif spec.kind == "maxpool":
                pools += 1
                label = f"maxpool{pools}"
            else:
                label = spec.kind
            self.labels.append(label)
            self.wasted.append(not trainable_seen)


class Tracer:
    """Collects spans for the traced cycles of one run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._run = None
        self._installed = []
        self._walk = []  # per active forward/backward: (labels, wasted, position, step)

    # span bookkeeping -------------------------------------------------
    def _open(self, layer, name, info=None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(layer, name, time.perf_counter(), parent, self._run, info or {}))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def cycle(self, run_id: int):
        """Install the wrappers and record one cycle under a root span."""
        self._run = run_id
        self._install()
        try:
            root = self._open("bench", "cycle")
            try:
                yield
            finally:
                self._close(root)
        finally:
            self._uninstall()
            self._run = None

    # wrappers ---------------------------------------------------------
    def _wrap(self, owner, attr, layer, name, before=None, after=None):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``name`` is a string or a function of the call's arguments;
        ``before`` returns the span's info dict from the arguments and
        ``after`` adds to it from the result, both outside the span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            info = before(args, kwargs) if before else None
            label = name(args, kwargs) if callable(name) else name
            index = tracer._open(layer, label, info)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if after:
                after(tracer.spans[index], args, result)
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def _uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _install(self) -> None:
        w = self._wrap
        w(cli, "main", "cli", lambda a, k: a[0][0])
        w(cli, "run_evaluation", "train", "run_evaluation")
        w(cli, "predict_single", "train", "predict_single")
        w(cli, "emit_report", "report", "emit")
        w(cli, "write_scores_csv", "report", "scores")
        w(train, "run_training", "train", "run_training")
        w(train, "_eval_pass", "train", "eval_pass")
        w(train, "build_model", "model", "build")
        w(train, "init_weights", "model", "init")
        w(train, "read_pgm", "pgm", "read")
        w(train, "crop_and_resize", "preprocess", lambda a, k: f"crop.{a[0].height}")
        w(train, "normalize_zscore", "preprocess", "zscore")
        w(train, "sample_params", "augment", "sample")
        w(train, "augment_image", "augment", lambda a, k: f"image.{a[0].height}")
        w(train, "softmax_ce_loss", "nn", "loss")
        w(train, "adam_step", "nn", "adam")
        w(train, "evaluate_scores", "metrics", "evaluate")
        w(train, "load_checkpoint", "checkpoint", "load",
          before=lambda a, k: {"bytes": Path(a[0]).stat().st_size})
        w(train, "apply_weights", "checkpoint", "apply")
        w(train, "save_checkpoint", "checkpoint", "save",
          after=lambda s, a, r: s.info.update(bytes=Path(a[1]).stat().st_size))
        w(train, "dump_weights", "checkpoint", "dump",
          after=lambda s, a, r: s.info.update(bytes=len(r)))
        w(preprocess, "erode", "preprocess", "morph")
        w(preprocess, "dilate", "preprocess", "morph")
        w(preprocess, "largest_component", "preprocess", lambda a, k: f"component.{a[0].height}",
          before=lambda a, k: {"fg": int(a[0].bits.sum())})
        w(preprocess, "resize_bilinear", "preprocess", "resize")
        w(rng.Rng, "randoms", "rng", "randoms", before=lambda a, k: {"draws": a[1]})
        w(rng.Rng, "normals", "rng", "normals", before=lambda a, k: {"draws": a[1]})
        self._wrap_model()
        for fwd, bwd in (("conv2d_forward", "conv2d_backward"), ("relu", "relu_backward"),
                         ("maxpool2", "maxpool2_backward"), ("global_avg_pool", "gap_backward"),
                         ("dropout", "dropout_backward"), ("dense_forward", "dense_backward")):
            self._wrap_node(fwd, backward=False)
            self._wrap_node(bwd, backward=True)

    def _wrap_model(self) -> None:
        tracer = self

        def forward_info(args, kwargs):
            nodes = _Nodes(args[0])
            tracer._walk.append((nodes.labels, nodes.wasted, 0, 1))
            return {"n": int(args[1].shape[0])}

        def forward_done(span, args, result):
            tracer._walk.pop()
            span.info["trace_bytes"] = _nbytes(result[1])

        def backward_info(args, kwargs):
            nodes = _Nodes(args[0])
            tracer._walk.append((nodes.labels, nodes.wasted, len(args[1]) - 1, -1))
            return {}

        self._wrap(model.Model, "forward_logits", "model",
                   lambda a, k: "forward." + (a[2] if len(a) > 2 else k.get("mode", "eval")),
                   before=forward_info, after=forward_done)
        self._wrap(model.Model, "backward", "model", "backward",
                   before=backward_info, after=lambda s, a, r: tracer._walk.pop())

    def _wrap_node(self, attr: str, backward: bool) -> None:
        """Wrap one nn kernel; the active forward or backward walk names
        the node, since each trace entry runs exactly one kernel."""
        tracer = self
        suffix = "bwd" if backward else "fwd"
        kernel = attr.split("_")[0]

        def info(args, kwargs):
            entry = {"n": int(args[0].shape[0])}
            if tracer._walk:
                labels, wasted, position, step = tracer._walk[-1]
                entry["node"] = labels[position]
                entry["wasted"] = backward and wasted[position]
                tracer._walk[-1] = (labels, wasted, position + step, step)
            else:
                entry["node"] = kernel
            if attr.startswith("conv2d"):
                n, c, h, width = args[0].shape
                flop = 2 * n * h * width * c * args[1].weight.shape[0] * nn.KERNEL * nn.KERNEL
                entry["flop"] = flop * (2 if backward else 1)  # backward computes dx and dw
            return entry

        original = getattr(nn, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            entry = info(args, kwargs)
            index = tracer._open("nn", f"{entry['node']}.{suffix}", entry)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(index)

        setattr(nn, attr, traced)
        self._installed.append((nn, attr, original))

    # analysis ---------------------------------------------------------
    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        return [span.duration - c for span, c in zip(self.spans, covered)]

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as handle:
            for i, s in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "layer": s.layer, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "run": s.run, "info": s.info,
                }) + "\n")


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def cycle_counts(tracer: Tracer, run_id: int) -> dict[str, float]:
    """The exact counts of one traced cycle."""
    spans = [s for s in tracer.spans if s.run == run_id]
    flop = sum(s.info.get("flop", 0) for s in spans if s.layer == "nn")
    trace_bytes = max((s.info["trace_bytes"] for s in spans
                       if s.layer == "model" and s.name.startswith("forward.")), default=0)
    draws = {kind: sum(s.info["draws"] for s in spans if s.layer == "rng" and s.name == kind)
             for kind in ("randoms", "normals")}
    moved = sum(s.info.get("bytes", 0) for s in spans if s.layer == "checkpoint")
    fg = sum(s.info["fg"] for s in spans if s.name.startswith("component."))
    return {
        "nn.conv.gflop": flop / 1e9,
        "model.trace_mb": trace_bytes / 1e6,
        "rng.randoms_draws": draws["randoms"],
        "rng.normals_draws": draws["normals"],
        "checkpoint.mb": moved / 1e6,
        "preprocess.fg_pixels": fg,
    }


def layer_self_seconds(tracer: Tracer) -> dict[int, dict[str, float]]:
    """Self time per layer, per traced cycle."""
    out: dict[int, dict[str, float]] = defaultdict(lambda: dict.fromkeys(LAYERS, 0.0))
    for span, own in zip(tracer.spans, tracer.self_times()):
        out[span.run][span.layer] += own
    return dict(out)


def per_layer_values(tracer: Tracer, epochs: dict[int, list[float]],
                     untraced_run_s: float) -> dict[str, float]:
    """Every per-layer metric from the traced cycles.

    Kernel times are self times per forward or backward pass, summed
    over the calls of one node label (so ``relu`` adds up every relu
    node), taking the median over passes at the largest batch size
    seen.  Other per-call times are medians or means over calls, as
    named in BASELINE.md.  Counts are those of one cycle.
    ``epochs`` maps a cycle index to its EpochStats seconds.
    """
    spans = tracer.spans
    own = tracer.self_times()
    runs = sorted({s.run for s in spans})
    values: dict[str, float] = {}

    def named(layer, name):
        return [i for i, s in enumerate(spans) if s.layer == layer and s.name == name]

    for node in NN_NODES:
        for suffix in ("fwd", "bwd"):
            idx = named("nn", f"{node}.{suffix}")
            top = max((spans[i].info["n"] for i in idx), default=0)
            per_pass: dict[int, float] = defaultdict(float)
            for i in idx:
                if spans[i].info["n"] == top:
                    per_pass[spans[i].parent] += own[i]
            values[f"nn.{node}.{suffix}_ms"] = _median(per_pass.values()) * 1e3
    values["nn.loss_ms"] = _median(spans[i].duration for i in named("nn", "loss")) * 1e3
    values["nn.adam_ms"] = _median(spans[i].duration for i in named("nn", "adam")) * 1e3
    conv = [i for i, s in enumerate(spans) if s.layer == "nn" and "flop" in s.info]
    conv_s = sum(own[i] for i in conv)
    values["nn.conv.gflop_per_s"] = (
        sum(spans[i].info["flop"] for i in conv) / conv_s / 1e9 if conv_s else 0.0
    )

    values["model.forward_s"] = _median(spans[i].duration for i in named("model", "forward.train"))
    backward = named("model", "backward")
    values["model.backward_s"] = _median(spans[i].duration for i in backward)
    per_eval: dict[int, float] = defaultdict(float)
    for i in named("model", "forward.eval"):
        parent = spans[i].parent
        if parent is not None and spans[parent].name == "eval_pass":
            per_eval[parent] += spans[i].duration
    values["model.forward_eval_s"] = _median(per_eval.values())
    backward_set = set(backward)
    wasted = sum(s.duration for s in spans
                 if s.layer == "nn" and s.info.get("wasted") and s.parent in backward_set)
    total_backward = sum(spans[i].duration for i in backward)
    values["model.backward_wasted_frac"] = wasted / total_backward if total_backward else 0.0

    for size in AUGMENT_SIZES:
        values[f"augment.image_ms.{size}"] = _median(
            spans[i].duration for i in named("augment", f"image.{size}")) * 1e3
    values["augment.sample_us"] = _median(spans[i].duration for i in named("augment", "sample")) * 1e6

    draw_spans = [i for i, s in enumerate(spans) if s.layer == "rng"]
    draws = sum(spans[i].info["draws"] for i in draw_spans)
    values["rng.us_per_draw"] = sum(own[i] for i in draw_spans) / draws * 1e6 if draws else 0.0

    crops = [i for i, s in enumerate(spans) if s.name.startswith("crop.")]
    for size in CROP_SIZES:
        values[f"preprocess.crop_ms.{size}"] = _median(
            spans[i].duration for i in named("preprocess", f"crop.{size}")) * 1e3
    morph = sum(spans[i].duration for i in named("preprocess", "morph"))
    values["preprocess.morph_ms"] = morph / len(crops) * 1e3 if crops else 0.0
    components = [i for i, s in enumerate(spans) if s.name.startswith("component.")]
    values["preprocess.component_ms"] = _mean(spans[i].duration for i in components) * 1e3
    values["preprocess.resize_ms"] = _mean(
        spans[i].duration for i in named("preprocess", "resize")) * 1e3
    values["preprocess.zscore_ms"] = _mean(
        spans[i].duration for i in named("preprocess", "zscore")) * 1e3

    values["pgm.read_ms"] = _mean(spans[i].duration for i in named("pgm", "read")) * 1e3
    values["checkpoint.load_s"] = _mean(spans[i].duration for i in named("checkpoint", "load"))
    values["checkpoint.save_s"] = _mean(
        spans[i].duration for i in named("checkpoint", "save") + named("checkpoint", "dump"))
    values["metrics.evaluate_ms"] = _mean(
        spans[i].duration for i in named("metrics", "evaluate")) * 1e3
    values["report.emit_ms"] = _mean(spans[i].duration for i in named("report", "emit")) * 1e3

    # epoch-loop time outside model, nn loss and Adam, per training batch
    prep, batches = [], 0
    inner = {"forward.train", "forward.eval", "backward", "loss", "adam"}
    for i in named("train", "run_training"):
        covered = 0.0
        for j, s in enumerate(spans):
            if s.name in inner and _has_ancestor(spans, j, i):
                covered += s.duration
                batches += s.name == "forward.train"
        prep.append(sum(epochs.get(spans[i].run, [])) - covered)
    values["train.batch_prep_ms"] = sum(prep) / batches * 1e3 if batches else 0.0

    counts = cycle_counts(tracer, runs[-1]) if runs else {}
    values.update(counts)
    per_cycle = layer_self_seconds(tracer)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = _mean(per_cycle[r][layer] for r in runs)
    roots = [s.duration for s in spans if s.parent is None]
    values["trace.run_s"] = _mean(roots)
    values["trace.overhead_s"] = values["trace.run_s"] - untraced_run_s
    return values


def size_breakdown(tracer: Tracer) -> list[str]:
    """Median crop and component time per input size, for the printout."""
    by_name: dict[str, list[float]] = defaultdict(list)
    for s in tracer.spans:
        if s.name.startswith(("crop.", "component.")):
            by_name[s.name].append(s.duration)
    return [f"preprocess {name} median {_median(d) * 1e3:.4f} ms over {len(d)} calls"
            for name, d in sorted(by_name.items())]


def _has_ancestor(spans: list[Span], index: int, ancestor: int) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if parent == ancestor:
            return True
        parent = spans[parent].parent
    return False
