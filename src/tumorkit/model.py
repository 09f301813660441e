"""Network assembly: layer graphs, weight init, freezing, forward/backward.

A :class:`Model` is an ordered list of :class:`LayerSpec` nodes plus the
instantiated parameter tensors for the conv and dense nodes.  Two
builders are provided: ``build_vgg16`` (13 conv layers in five blocks,
global average pooling in place of the fifth max-pool, then a dropout
and dense head) and ``build_vgg_tiny`` (a three-block miniature with the
same layer kinds, small enough to train in seconds).

The nodes before the first trainable (not ``frozen``) layer form the
trunk; the rest, up to the softmax, form the head.  ``forward_logits``
runs both but records a trace of per-node caches for the head only, so
trunk activations are freed as soon as the next node has used them;
``forward`` keeps no trace at all.  ``backward`` consumes the trace in
reverse, stops at the first trainable layer, and returns a gradient
table keyed like ``parameters()`` ("conv1.weight", "dense2.bias", ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import ShapeMismatch
from .rng import Rng

FREEZE_NONE = "none"
FREEZE_FEATURES = "freeze_features"
FREEZE_POLICIES = (FREEZE_NONE, FREEZE_FEATURES)


@dataclass(frozen=True)
class LayerSpec:
    """One node of the network graph.

    ``kind`` is one of conv, relu, maxpool, gap, dense, dropout,
    softmax.  ``name`` is set only for parameterized kinds (conv,
    dense); ``width`` is the conv output-channel or dense output-feature
    count; ``p`` is the dropout probability.
    """

    kind: str
    name: str | None = None
    width: int | None = None
    p: float | None = None


class Model:
    """Sequential network with named conv/dense parameter tensors."""

    def __init__(
        self,
        specs: list[LayerSpec],
        conv: dict[str, nn.ConvLayer],
        dense: dict[str, nn.DenseLayer],
        input_size: int,
        arch: str = "custom",
    ):
        if specs[-1].kind != "softmax":
            raise ValueError("layer list must end with softmax")
        self.specs = specs
        self.conv = conv
        self.dense = dense
        self.input_size = input_size
        self.arch = arch

    def layer(self, name: str) -> nn.ConvLayer | nn.DenseLayer:
        return self.conv[name] if name in self.conv else self.dense[name]

    def parameters(self) -> dict[str, np.ndarray]:
        """Name -> tensor view, in network order (insertion-ordered)."""
        table: dict[str, np.ndarray] = {}
        for spec in self.specs:
            if spec.kind in ("conv", "dense"):
                layer = self.layer(spec.name)
                table[f"{spec.name}.weight"] = layer.weight
                table[f"{spec.name}.bias"] = layer.bias
        return table

    def frozen_param_names(self) -> frozenset[str]:
        frozen = set()
        for name, layer in list(self.conv.items()) + list(self.dense.items()):
            if layer.frozen:
                frozen.add(f"{name}.weight")
                frozen.add(f"{name}.bias")
        return frozenset(frozen)

    def param_count(self) -> int:
        return sum(p.size for p in self.parameters().values())

    def trainable_param_count(self) -> int:
        frozen = self.frozen_param_names()
        return sum(p.size for n, p in self.parameters().items() if n not in frozen)

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
            if spec.kind in ("conv", "dense") and not self.layer(spec.name).frozen:
                return i
        return len(self.specs) - 1

    def _node(self, spec: LayerSpec, h: np.ndarray, mode: str, rng: Rng | None):
        """Run one node; return (output, the cache its backward needs)."""
        kind = spec.kind
        if kind == "conv":
            return nn.conv2d_forward(h, self.conv[spec.name]), h
        if kind == "relu":
            return nn.relu(h), h
        if kind == "maxpool":
            return nn.maxpool2(h)
        if kind == "gap":
            return nn.global_avg_pool(h), h.shape
        if kind == "dropout":
            out, mask = nn.dropout(h, spec.p, mode, rng)
            return out, (mask, spec.p)
        if kind == "dense":
            return nn.dense_forward(h, self.dense[spec.name]), h
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
            h, cache = self._node(spec, h, mode, rng)
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

    def forward(
        self, batch: np.ndarray, mode: str = "eval", rng: Rng | None = None
    ) -> np.ndarray:
        """Class probabilities [N, num_classes], rows summing to 1; no
        trace is kept."""
        return nn.softmax(self.head(self.trunk(batch, mode, rng), mode, rng))

    def backward(self, trace: list[tuple], dlogits: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of the trainable parameters, keyed like :meth:`parameters`.

        The trace's first entry is the first trainable layer; nothing
        reads its input gradient, so there only dw and db are computed
        and the pass stops.
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
                d = nn.gap_backward(d, cache[2], cache[3])
            elif kind == "dropout":
                d = nn.dropout_backward(d, cache[0], cache[1])
            else:
                layer = self.layer(name)
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


def _conv(in_ch: int, out_ch: int, dtype=np.float32) -> nn.ConvLayer:
    return nn.ConvLayer(
        weight=np.zeros((out_ch, in_ch, nn.KERNEL, nn.KERNEL), dtype=dtype),
        bias=np.zeros(out_ch, dtype=dtype),
    )


def _dense(in_f: int, out_f: int, dtype=np.float32) -> nn.DenseLayer:
    return nn.DenseLayer(
        weight=np.zeros((out_f, in_f), dtype=dtype),
        bias=np.zeros(out_f, dtype=dtype),
    )


def _assemble(
    blocks: list[list[int]],
    last_block_pools: bool,
    head_widths: list[int],
    num_classes: int,
    input_size: int,
    dropout_p: float,
    arch: str,
) -> Model:
    """Shared builder: conv blocks, GAP, dropout/dense head, softmax."""
    specs: list[LayerSpec] = []
    conv: dict[str, nn.ConvLayer] = {}
    dense: dict[str, nn.DenseLayer] = {}
    ch = 1  # grayscale input
    idx = 0
    for b, widths in enumerate(blocks):
        for width in widths:
            idx += 1
            name = f"conv{idx}"
            conv[name] = _conv(ch, width)
            specs.append(LayerSpec("conv", name, width))
            specs.append(LayerSpec("relu"))
            ch = width
        if b < len(blocks) - 1 or last_block_pools:
            specs.append(LayerSpec("maxpool"))
    specs.append(LayerSpec("gap"))
    feat = ch
    didx = 0
    for width in head_widths:
        didx += 1
        name = f"dense{didx}"
        specs.append(LayerSpec("dropout", p=dropout_p))
        dense[name] = _dense(feat, width)
        specs.append(LayerSpec("dense", name, width))
        specs.append(LayerSpec("relu"))
        feat = width
    didx += 1
    name = f"dense{didx}"
    dense[name] = _dense(feat, num_classes)
    specs.append(LayerSpec("dense", name, num_classes))
    specs.append(LayerSpec("softmax"))
    return Model(specs, conv, dense, input_size, arch)


def build_vgg16(num_classes: int = 2) -> Model:
    """Thirteen 3x3 conv layers in blocks 64-64 / 128-128 / 256x3 / 512x3
    / 512x3 with 2x2 max-pools between blocks, global average pooling in
    place of the fifth pool, then Dropout(0.3), Dense 256, ReLU,
    Dropout(0.3), Dense 256, ReLU, Dense ``num_classes``, Softmax."""
    return _assemble(
        blocks=[[64, 64], [128, 128], [256, 256, 256], [512, 512, 512], [512, 512, 512]],
        last_block_pools=False,
        head_widths=[256, 256],
        num_classes=num_classes,
        input_size=224,
        dropout_p=0.3,
        arch="vgg16",
    )


def build_vgg_tiny(input_size: int = 64, num_classes: int = 2) -> Model:
    """Miniature of the same shape family: blocks 8 / 16 / 32 each
    followed by a max-pool, GAP, Dropout(0.3), Dense 32, ReLU,
    Dropout(0.3), Dense ``num_classes``, Softmax."""
    if input_size % 8:
        raise ValueError(f"input_size must be divisible by 8, got {input_size}")
    return _assemble(
        blocks=[[8], [16], [32]],
        last_block_pools=True,
        head_widths=[32],
        num_classes=num_classes,
        input_size=input_size,
        dropout_p=0.3,
        arch="vgg_tiny",
    )


def build_model(arch: str, input_size: int | None = None, num_classes: int = 2) -> Model:
    """Builder dispatch by architecture name."""
    if arch == "vgg16":
        return build_vgg16(num_classes=num_classes)
    if arch == "vgg_tiny":
        return build_vgg_tiny(input_size=input_size or 64, num_classes=num_classes)
    raise ValueError(f"unknown architecture {arch!r}")


def apply_freeze_policy(model: Model, policy: str) -> Model:
    """freeze_features pins every conv layer and thaws every dense
    layer; none thaws everything.  Returns the same model."""
    if policy not in FREEZE_POLICIES:
        raise ValueError(f"unknown freeze policy {policy!r}")
    feature_frozen = policy == FREEZE_FEATURES
    for layer in model.conv.values():
        layer.frozen = feature_frozen
    for layer in model.dense.values():
        layer.frozen = False
    return model


def he_normal(rng: Rng, shape: tuple[int, ...], fan_in: int, dtype=np.float32) -> np.ndarray:
    """He-normal draw: zero-mean gaussians scaled by sqrt(2 / fan_in)."""
    size = int(np.prod(shape))
    std = math.sqrt(2.0 / fan_in)
    return (rng.normals(size) * std).reshape(shape).astype(dtype)


def init_weights(model: Model, rng: Rng) -> Model:
    """He-normal weights, zero biases, drawn in network order."""
    for spec in model.specs:
        if spec.kind == "conv":
            layer = model.conv[spec.name]
            fan_in = layer.in_channels * nn.KERNEL * nn.KERNEL
            layer.weight[...] = he_normal(rng, layer.weight.shape, fan_in, layer.weight.dtype)
            layer.bias[...] = 0
        elif spec.kind == "dense":
            layer = model.dense[spec.name]
            layer.weight[...] = he_normal(
                rng, layer.weight.shape, layer.in_features, layer.weight.dtype
            )
            layer.bias[...] = 0
    return model
