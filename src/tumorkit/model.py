"""Network assembly: layer graphs, weight init, freezing, forward/backward.

A :class:`Model` is an ordered list of :class:`LayerSpec` nodes plus one
table, ``layers``, that maps each conv and dense node's name to its
parameter layer in network order; every walk over the parameters
(``parameters``, ``init_weights``, ``apply_freeze_policy``) reads that
table.  ``build_model`` builds an architecture from one table, the only
record of which (architecture, input size) pairs exist: ``vgg16`` (13
conv layers in five blocks, global average pooling in place of the fifth
max-pool, then a dropout and dense head) and ``vgg_tiny`` (a three-block
miniature with the same layer kinds, small enough to train in seconds).
A block that pools ends conv, max-pool, ReLU, so that ReLU, its traced
mask and its backward cover a quarter of the elements.  The order is
exact: max and ReLU commute, and so do their gradients, which route a
window's gradient to its first argmax where its max is positive and
pass zero (of the incoming gradient's sign) where it is <= 0.

The nodes before the first trainable (not ``frozen``) layer form the
trunk; the rest, up to the softmax, form the head.  ``forward_logits``
runs both but records a trace of per-node caches for the head only, so
trunk activations are freed as soon as the next node has used them;
``forward`` keeps no trace at all.  ``backward`` consumes the trace in
reverse, stops at the first trainable layer, and returns a gradient
table keyed like ``parameters()`` ("conv1.weight", "dense2.bias", ...)
holding only the layers not ``frozen``.  That table is the one place
freezing is decided: the optimizer updates exactly what it names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import ShapeMismatch
from .metrics import CLASSES
from .rng import Rng

FREEZE_NONE = "none"
FREEZE_FEATURES = "freeze_features"
FREEZE_POLICIES = (FREEZE_NONE, FREEZE_FEATURES)
DROPOUT_P = 0.3  # every dropout node's, in both architectures
# Largest vgg_tiny input side: twice the 512x512 slices of the usual MRI
# archives.  One 1024x1024 image already takes 38 MB of conv1 patches.
MAX_TINY_INPUT_SIZE = 1024
# name -> (conv widths by block, whether the last block pools, hidden dense
# widths, the input sides it takes, how an error message names those sides)
_SHAPES = {
    "vgg16": ([[64, 64], [128, 128], [256] * 3, [512] * 3, [512] * 3], False, [256, 256],
              range(224, 225), "224"),
    "vgg_tiny": ([[8], [16], [32]], True, [32], range(8, MAX_TINY_INPUT_SIZE + 1, 8),
                 f"at most {MAX_TINY_INPUT_SIZE} and a positive multiple of 8"),
}
ARCHITECTURES = tuple(_SHAPES)


@dataclass(frozen=True)
class LayerSpec:
    """One node of the network graph.

    ``kind`` is one of conv, relu, maxpool, gap, dense, dropout,
    softmax.  ``name`` is set only for parameterized kinds (conv,
    dense) and keys the layer in ``Model.layers``.
    """

    kind: str
    name: str | None = None


class Model:
    """Sequential network: ``specs`` is the node list and ``layers`` maps
    each conv and dense node's name to its parameters, in network order.

    A layer's ``frozen`` flag is the only record of whether it trains:
    :attr:`trunk_end` and :meth:`backward` read it, and :meth:`backward`
    returns gradients for the layers not frozen and no others.
    """

    def __init__(
        self,
        specs: list[LayerSpec],
        layers: dict[str, nn.ConvLayer | nn.DenseLayer],
        input_size: int,
    ):
        if specs[-1].kind != "softmax":
            raise ValueError("layer list must end with softmax")
        self.specs = specs
        self.layers = layers
        self.input_size = input_size

    def layer(self, name: str) -> nn.ConvLayer | nn.DenseLayer:
        return self.layers[name]

    def parameters(self) -> dict[str, np.ndarray]:
        """Name -> tensor view, in network order (insertion-ordered)."""
        table: dict[str, np.ndarray] = {}
        for name, layer in self.layers.items():
            table[f"{name}.weight"] = layer.weight
            table[f"{name}.bias"] = layer.bias
        return table

    def _check_input(self, batch: np.ndarray) -> None:
        if batch.ndim != 4:
            raise ShapeMismatch(f"batch must be [N, C, H, W], got {batch.shape}")
        n, c, h, w = batch.shape
        if (h, w) != (self.input_size, self.input_size):
            raise ShapeMismatch(
                f"batch is {h}x{w}, model expects {self.input_size}x{self.input_size}"
            )
        if c != 1:
            raise ShapeMismatch(f"batch has {c} channels, model expects 1")

    @property
    def trunk_end(self) -> int:
        """Index of the first node whose layer is trainable.

        The nodes before it are the frozen trunk: their output does not
        change while training.  With every layer frozen the trunk runs
        up to the softmax.
        """
        for i, spec in enumerate(self.specs):
            if spec.name is not None and not self.layers[spec.name].frozen:
                return i
        return len(self.specs) - 1

    def _node(self, spec: LayerSpec, h: np.ndarray, mode: str, rng: Rng | None, traced: bool):
        """Run one node; return (output, the cache its backward needs).

        The cache holds only what the backward reads; a ReLU's sign mask
        and max-pool routing are only worked out for a ``traced`` node.
        """
        kind = spec.kind
        if kind == "conv":
            return nn.conv2d_forward(h, self.layers[spec.name]), h
        if kind == "relu":
            out = nn.relu(h)
            return out, (out > 0 if traced else None)
        if kind == "maxpool":
            return nn.maxpool2(h, routing=traced)
        if kind == "gap":
            return nn.global_avg_pool(h), h.shape[2:]
        if kind == "dropout":
            return nn.dropout(h, DROPOUT_P, mode, rng)
        if kind == "dense":
            return nn.dense_forward(h, self.layers[spec.name]), h
        raise ValueError(f"unknown layer kind {kind!r}")

    def _run(
        self,
        h: np.ndarray,
        specs: list[LayerSpec],
        mode: str,
        rng: Rng | None,
        trace: list[tuple] | None = None,
    ) -> np.ndarray:
        """Run ``specs`` in order on ``h``, appending to ``trace`` if given."""
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        for spec in specs:
            h, cache = self._node(spec, h, mode, rng, trace is not None)
            if trace is not None:
                trace.append((spec.kind, spec.name, cache))
            del cache  # untraced, a node's input is freed as soon as it has run
        return h

    def trunk(self, batch: np.ndarray, mode: str = "eval", rng: Rng | None = None) -> np.ndarray:
        """Output of every node before :attr:`trunk_end`; no trace is kept."""
        self._check_input(batch)
        return self._run(batch, self.specs[: self.trunk_end], mode, rng)

    def head(
        self,
        h: np.ndarray,
        mode: str = "eval",
        rng: Rng | None = None,
        trace: list[tuple] | None = None,
    ) -> np.ndarray:
        """Logits from the nodes from :attr:`trunk_end` up to the softmax,
        run on trunk output ``h``; their caches go to ``trace`` if given."""
        return self._run(h, self.specs[self.trunk_end : -1], mode, rng, trace)

    def forward_logits(
        self, batch: np.ndarray, mode: str = "eval", rng: Rng | None = None
    ) -> tuple[np.ndarray, list[tuple]]:
        """Run every node up to the final softmax; return (logits, trace).

        Train mode engages dropout (drawing masks from ``rng`` in node
        order); eval mode skips it.  The trace holds exactly what
        :meth:`backward` needs: one entry per head node, none for the
        frozen trunk.
        """
        trace: list[tuple] = []
        logits = self.head(self.trunk(batch, mode, rng), mode, rng, trace)
        return logits, trace

    def forward(self, batch: np.ndarray) -> np.ndarray:
        """Eval-mode class probabilities [N, len(CLASSES)], rows summing
        to 1; no trace is kept.  Training goes through :meth:`forward_logits`."""
        return nn.softmax(self.head(self.trunk(batch)))

    def backward(self, trace: list[tuple], dlogits: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of the trainable parameters, keyed like :meth:`parameters`.

        The trace's first entry is the first trainable layer; nothing
        reads its input gradient, so there only dw and db are computed
        and the pass stops.  A layer frozen behind the trunk (by hand;
        no policy does this) is differentiated through but gets no
        entry, so the optimizer leaves it alone.
        """
        grads: dict[str, np.ndarray] = {}
        d = dlogits
        for i in reversed(range(len(trace))):
            kind, name, cache = trace[i]
            if kind == "relu":
                d = nn.relu_backward(cache, d)
            elif kind == "maxpool":
                d = nn.maxpool2_backward(cache, d)
            elif kind == "gap":
                d = nn.gap_backward(d, *cache)
            elif kind == "dropout":
                d = nn.dropout_backward(d, cache, DROPOUT_P)
            else:
                layer = self.layers[name]
                conv = kind == "conv"
                if i == 0:  # nothing reads the first trainable layer's input gradient
                    param_grads = nn.conv2d_param_grads if conv else nn.dense_param_grads
                    dw, db = param_grads(cache, layer, d)
                else:
                    full = nn.conv2d_backward if conv else nn.dense_backward
                    d, dw, db = full(cache, layer, d)
                if not layer.frozen:
                    grads[f"{name}.weight"] = dw
                    grads[f"{name}.bias"] = db
        return grads


def _assemble(
    blocks: list[list[int]],
    last_block_pools: bool,
    head_widths: list[int],
    input_size: int,
) -> Model:
    """Shared builder: conv blocks, GAP, dropout/dense head, softmax."""
    specs: list[LayerSpec] = []
    layers: dict[str, nn.ConvLayer | nn.DenseLayer] = {}
    ch = 1  # grayscale input
    for b, widths in enumerate(blocks):
        for width in widths:
            name = f"conv{len(layers) + 1}"
            layers[name] = nn.ConvLayer(
                weight=np.zeros((width, ch, nn.KERNEL, nn.KERNEL), dtype=np.float32),
                bias=np.zeros(width, dtype=np.float32),
            )
            specs += [LayerSpec("conv", name), LayerSpec("relu")]
            ch = width
        if b < len(blocks) - 1 or last_block_pools:
            specs.insert(-1, LayerSpec("maxpool"))  # before the block's last ReLU
    specs.append(LayerSpec("gap"))
    for i, width in enumerate(head_widths + [len(CLASSES)], 1):
        name = f"dense{i}"
        layers[name] = nn.DenseLayer(
            weight=np.zeros((width, ch), dtype=np.float32),
            bias=np.zeros(width, dtype=np.float32),
        )
        ch = width
        if i <= len(head_widths):
            specs += [LayerSpec("dropout"), LayerSpec("dense", name), LayerSpec("relu")]
    specs += [LayerSpec("dense", name), LayerSpec("softmax")]  # the classifier
    return Model(specs, layers, input_size)


def check_shape(arch: str, input_size: int) -> None:
    """ValueError unless ``arch`` is built in and takes ``input_size`` x ``input_size`` input."""
    if isinstance(input_size, bool) or not isinstance(input_size, int):
        raise ValueError(f"input_size must be an integer, got {input_size}")
    if arch not in ARCHITECTURES:
        raise ValueError(f"architecture must be one of {ARCHITECTURES}")
    *_, sides, sides_text = _SHAPES[arch]
    if input_size not in sides:
        raise ValueError(f"{arch} input_size must be {sides_text}, got {input_size}")


def build_model(arch: str, input_size: int) -> Model:
    """The ``arch`` network with zeroed weights, after :func:`check_shape`."""
    check_shape(arch, input_size)
    blocks, last_block_pools, head_widths, *_ = _SHAPES[arch]
    return _assemble(blocks, last_block_pools, head_widths, input_size)


def build_vgg16() -> Model:
    """224x224 input; 2x2 max-pools between the blocks, GAP in place of the fifth,
    then Dropout(0.3), Dense 256, ReLU, Dropout(0.3), Dense 256, ReLU, Dense 2, Softmax."""
    return build_model("vgg16", 224)


def build_vgg_tiny(input_size: int = 64) -> Model:
    """Blocks 8 / 16 / 32 each followed by a max-pool, then GAP,
    Dropout(0.3), Dense 32, ReLU, Dropout(0.3), Dense 2, Softmax."""
    return build_model("vgg_tiny", input_size)


def apply_freeze_policy(model: Model, policy: str) -> Model:
    """freeze_features pins every conv layer and thaws every dense
    layer; none thaws everything.  Returns the same model."""
    if policy not in FREEZE_POLICIES:
        raise ValueError(f"unknown freeze policy {policy!r}")
    for layer in model.layers.values():
        layer.frozen = policy == FREEZE_FEATURES and isinstance(layer, nn.ConvLayer)
    return model


def he_normal(rng: Rng, shape: tuple[int, ...], fan_in: int, dtype=np.float32) -> np.ndarray:
    """He-normal draw: zero-mean gaussians scaled by sqrt(2 / fan_in)."""
    size = int(np.prod(shape))
    std = math.sqrt(2.0 / fan_in)
    return (rng.normals(size) * std).reshape(shape).astype(dtype)


def init_weights(model: Model, rng: Rng) -> Model:
    """He-normal weights, zero biases, drawn in network order.

    The fan-in is the size of one output unit's weights: C*9 for a conv
    layer, ``in_features`` for a dense one.
    """
    for layer in model.layers.values():
        layer.weight[...] = he_normal(
            rng, layer.weight.shape, layer.weight[0].size, layer.weight.dtype
        )
        layer.bias[...] = 0
    return model
