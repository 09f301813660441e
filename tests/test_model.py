"""Network builders, freeze policy, initialization, forward/backward wiring."""

import hashlib
import re

import numpy as np
import pytest

from helpers import max_rel_err
from tumorkit.checkpoint import dump_weights
from tumorkit.errors import ShapeMismatch
from tumorkit.model import (
    FREEZE_FEATURES,
    FREEZE_NONE,
    Model,
    apply_freeze_policy,
    build_model,
    build_vgg16,
    build_vgg_tiny,
    he_normal,
    init_weights,
)
from tumorkit import nn
from tumorkit.nn import AdamState, ConvLayer, adam_step, softmax_ce_loss
from tumorkit.rng import Rng

VGG16_CONV_PARAMS = 14_713_536
VGG16_HEAD_PARAMS = 197_634
TINY_PARAMS = 7_010
# SHA-256 of the vgg_tiny@64 weights init_weights draws from Rng(0); pins
# the draw order (network order) and every layer's He fan-in
TINY_INIT_SHA256 = "39e9fe13a4314bef553366fe97909011bf292d94194ca54e26c2c1de88736004"


def conv_widths(model):
    return [model.layer(s.name).out_channels for s in model.specs if s.kind == "conv"]


def conv_layers(model):
    return [layer for layer in model.layers.values() if isinstance(layer, ConvLayer)]


def param_count(model, trainable_only=False):
    """Elements of ``model.parameters()``, or of its trainable layers' only."""
    return sum(
        tensor.size for name, tensor in model.parameters().items()
        if not (trainable_only and model.layers[name.rsplit(".", 1)[0]].frozen)
    )


def kinds(model):
    return [s.kind for s in model.specs]


def spatial_sizes_at_convs(model):
    size = model.input_size
    sizes = []
    for s in model.specs:
        if s.kind == "conv":
            sizes.append(size)
        elif s.kind == "maxpool":
            size //= 2
    return sizes


class TestVgg16Structure:
    def test_thirteen_convs_in_five_blocks(self):
        m = build_vgg16()
        assert conv_widths(m) == [64, 64, 128, 128, 256, 256, 256, 512, 512, 512, 512, 512, 512]
        assert kinds(m).count("maxpool") == 4  # the fifth pool is replaced
        assert kinds(m).count("gap") == 1
        assert kinds(m).count("dense") == 3
        assert kinds(m).count("dropout") == 2
        assert kinds(m)[-1] == "softmax"

    def test_gap_sits_after_the_last_conv_block(self):
        ks = kinds(build_vgg16())
        gap_at = ks.index("gap")
        assert "conv" not in ks[gap_at:]
        assert ks[gap_at + 1] == "dropout"

    def test_parameter_counts(self):
        m = build_vgg16()
        total = param_count(m)
        conv_total = sum(
            layer.weight.size + layer.bias.size for layer in conv_layers(m)
        )
        assert conv_total == VGG16_CONV_PARAMS
        assert total - conv_total == VGG16_HEAD_PARAMS
        assert total == VGG16_CONV_PARAMS + VGG16_HEAD_PARAMS

    def test_head_widths(self):
        m = build_vgg16()
        d1, d2, d3 = (m.layers[f"dense{i}"] for i in (1, 2, 3))
        assert (d1.in_features, d1.out_features) == (512, 256)
        assert (d2.in_features, d2.out_features) == (256, 256)
        assert (d3.in_features, d3.out_features) == (256, 2)

    def test_spatial_sizes_halve_per_block(self):
        sizes = spatial_sizes_at_convs(build_vgg16())
        assert sizes == [224, 224, 112, 112, 56, 56, 56, 28, 28, 28, 14, 14, 14]

    def test_parameter_table_is_network_ordered(self):
        names = list(build_vgg16().parameters())
        assert names[:4] == ["conv1.weight", "conv1.bias", "conv2.weight", "conv2.bias"]
        assert names[-2:] == ["dense3.weight", "dense3.bias"]
        assert len(names) == 2 * (13 + 3)

    def test_layer_table_follows_the_node_list(self):
        m = build_vgg16()
        assert list(m.layers) == [s.name for s in m.specs if s.kind in ("conv", "dense")]


class TestVggTinyStructure:
    def test_parameter_count_matches_shape_arithmetic(self):
        m = build_vgg_tiny()
        by_hand = (
            (8 * 1 * 9 + 8)
            + (16 * 8 * 9 + 16)
            + (32 * 16 * 9 + 32)
            + (32 * 32 + 32)
            + (2 * 32 + 2)
        )
        assert by_hand == TINY_PARAMS
        assert param_count(m) == TINY_PARAMS

    def test_every_block_pools(self):
        m = build_vgg_tiny()
        assert conv_widths(m) == [8, 16, 32]
        assert kinds(m).count("maxpool") == 3
        assert spatial_sizes_at_convs(m) == [64, 32, 16]

    def test_input_size_must_fit_three_pools(self):
        build_vgg_tiny(input_size=8)  # smallest legal size
        with pytest.raises(ValueError):
            build_vgg_tiny(input_size=65)

    def test_build_model_dispatch(self):
        assert build_model("vgg16", 224).input_size == 224
        assert build_model("vgg_tiny", input_size=32).input_size == 32
        with pytest.raises(ValueError):
            build_model("resnet", 64)

    @pytest.mark.parametrize("arch, size, problem", [
        ("vgg16", 300, "vgg16 input_size must be 224, got 300"),
        ("vgg_tiny", 0, "vgg_tiny input_size must be at most 1024 "
                        "and a positive multiple of 8, got 0"),
        ("vgg_tiny", -8, "positive multiple of 8, got -8"),
        ("vgg_tiny", 2048, "positive multiple of 8, got 2048"),
        ("resnet", 64, "architecture must be one of ('vgg16', 'vgg_tiny')"),
        ("vgg_tiny", 64.0, "input_size must be an integer, got 64.0"),
        ("vgg_tiny", True, "input_size must be an integer, got True"),
    ])
    def test_build_model_rejects_shapes_no_config_takes(self, arch, size, problem):
        with pytest.raises(ValueError, match=re.escape(problem)):
            build_model(arch, size)

    @pytest.mark.parametrize("size", [0, -8, 2048])
    def test_build_vgg_tiny_rejects_sides_no_config_takes(self, size):
        with pytest.raises(ValueError, match=f"positive multiple of 8, got {size}$"):
            build_vgg_tiny(size)


class TestInit:
    def test_he_normal_statistics(self):
        draw = he_normal(Rng(55), (256, 512), fan_in=512, dtype=np.float64)
        want_std = np.sqrt(2.0 / 512)
        assert abs(draw.std() / want_std - 1.0) < 0.1
        assert abs(draw.mean()) < 0.01

    def test_deterministic_from_seed(self):
        a = init_weights(build_vgg_tiny(), Rng(9))
        b = init_weights(build_vgg_tiny(), Rng(9))
        for (name, pa), pb in zip(a.parameters().items(), b.parameters().values()):
            assert pa.tobytes() == pb.tobytes(), name

    def test_different_seeds_differ(self):
        a = init_weights(build_vgg_tiny(), Rng(9))
        b = init_weights(build_vgg_tiny(), Rng(10))
        assert a.layers["conv1"].weight.tobytes() != b.layers["conv1"].weight.tobytes()

    def test_biases_start_at_zero(self):
        m = init_weights(build_vgg_tiny(), Rng(3))
        for layer in m.layers.values():
            assert not layer.bias.any()
            assert layer.weight.any()

    def test_tiny_init_bytes_are_pinned(self):
        blob = dump_weights(init_weights(build_vgg_tiny(), Rng(0)).parameters())
        assert hashlib.sha256(blob).hexdigest() == TINY_INIT_SHA256


class TestFreezePolicy:
    def test_freeze_features_pins_every_conv(self):
        m = apply_freeze_policy(build_vgg16(), FREEZE_FEATURES)
        frozen = [name for name, layer in m.layers.items() if layer.frozen]
        assert frozen == [f"conv{i}" for i in range(1, 14)]
        assert param_count(m, trainable_only=True) == VGG16_HEAD_PARAMS

    def test_none_thaws_everything(self):
        m = apply_freeze_policy(build_vgg16(), FREEZE_FEATURES)
        apply_freeze_policy(m, FREEZE_NONE)
        assert not any(layer.frozen for layer in m.layers.values())
        assert param_count(m, trainable_only=True) == param_count(m)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            apply_freeze_policy(build_vgg_tiny(), "freeze_all")


class TestForward:
    def make_tiny(self, seed=1, size=16):
        return init_weights(build_vgg_tiny(input_size=size), Rng(seed))

    def test_rows_are_probabilities(self):
        m = self.make_tiny()
        g = np.random.default_rng(151)
        x = g.normal(size=(5, 1, 16, 16)).astype(np.float32)
        probs = m.forward(x)
        assert probs.shape == (5, 2)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert (probs >= 0).all()

    def test_identical_inputs_identical_rows(self):
        m = self.make_tiny()
        one = np.random.default_rng(152).normal(size=(1, 1, 16, 16)).astype(np.float32)
        batch = np.concatenate([one, one, one])
        probs = m.forward(batch)
        assert np.array_equal(probs[0], probs[1])
        assert np.array_equal(probs[0], probs[2])

    def test_empty_batch_rejected(self):
        with pytest.raises(ShapeMismatch, match="non-empty"):
            self.make_tiny(size=64).forward(np.zeros((0, 1, 64, 64), np.float32))

    def test_eval_is_batch_order_equivariant(self):
        m = self.make_tiny()
        g = np.random.default_rng(153)
        x = g.normal(size=(4, 1, 16, 16)).astype(np.float32)
        perm = [2, 0, 3, 1]
        a = m.forward(x)[perm]
        b = m.forward(x[perm])
        assert np.allclose(a, b, atol=1e-6)

    def test_eval_forward_is_deterministic(self):
        m = self.make_tiny()
        x = np.random.default_rng(154).normal(size=(2, 1, 16, 16)).astype(np.float32)
        assert np.array_equal(m.forward(x), m.forward(x))

    def test_train_mode_needs_rng_and_uses_it(self):
        m = self.make_tiny()
        x = np.random.default_rng(155).normal(size=(2, 1, 16, 16)).astype(np.float32)
        with pytest.raises(ValueError):
            m.forward_logits(x, mode="train", rng=None)
        a, _ = m.forward_logits(x, mode="train", rng=Rng(4))
        b, _ = m.forward_logits(x, mode="train", rng=Rng(4))
        c, _ = m.forward_logits(x, mode="train", rng=Rng(5))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_input_validation(self):
        m = self.make_tiny()
        with pytest.raises(ShapeMismatch):
            m.forward(np.zeros((1, 1, 8, 8), dtype=np.float32))  # wrong spatial size
        with pytest.raises(ShapeMismatch):
            m.forward(np.zeros((1, 2, 16, 16), dtype=np.float32))  # bad channel count
        with pytest.raises(ShapeMismatch):
            m.forward(np.zeros((16, 16), dtype=np.float32))  # not NCHW


class TestBackward:
    def test_gradient_keys_match_parameters(self):
        m = init_weights(build_vgg_tiny(input_size=8), Rng(6))
        x = np.random.default_rng(161).normal(size=(2, 1, 8, 8)).astype(np.float32)
        logits, trace = m.forward_logits(x)
        targets = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        _, dlogits = softmax_ce_loss(logits, targets)
        grads = m.backward(trace, dlogits)
        assert set(grads) == set(m.parameters())
        for name, grad in grads.items():
            assert grad.shape == m.parameters()[name].shape, name

    def test_directional_derivative_matches_loss_change(self):
        # full-network gradient check along one random unit direction,
        # run in float64 so the finite difference is trustworthy
        m = init_weights(build_vgg_tiny(input_size=8), Rng(61))
        for layer in m.layers.values():
            layer.weight = layer.weight.astype(np.float64)
            layer.bias = layer.bias.astype(np.float64)
        g = np.random.default_rng(162)
        x = g.normal(size=(2, 1, 8, 8))
        targets = np.array([[1.0, 0.0], [0.0, 1.0]])

        def loss():
            logits, trace = m.forward_logits(x)
            value, dlogits = softmax_ce_loss(logits, targets)
            return value, trace, dlogits

        value, trace, dlogits = loss()
        grads = m.backward(trace, dlogits)
        params = m.parameters()
        direction = {k: g.normal(size=v.shape) for k, v in params.items()}
        norm = np.sqrt(sum(float((d * d).sum()) for d in direction.values()))
        direction = {k: d / norm for k, d in direction.items()}
        analytic = sum(float((grads[k] * direction[k]).sum()) for k in params)

        eps = 1e-6
        for k, p in params.items():
            p += eps * direction[k]
        up, _, _ = loss()
        for k, p in params.items():
            p -= 2 * eps * direction[k]
        down, _, _ = loss()
        numeric = (up - down) / (2 * eps)
        assert abs(analytic - numeric) / max(1e-3, abs(numeric)) < 1e-4

    def test_gradients_flow_to_first_conv(self):
        m = init_weights(build_vgg_tiny(input_size=8), Rng(62))
        x = np.random.default_rng(163).normal(size=(1, 1, 8, 8)).astype(np.float32)
        logits, trace = m.forward_logits(x)
        _, dlogits = softmax_ce_loss(logits, np.array([[1.0, 0.0]], dtype=np.float32))
        grads = m.backward(trace, dlogits)
        assert grads["conv1.weight"].any()
        assert grads["dense2.bias"].any()


class TestTrace:
    def test_entries_hold_only_what_backward_reads(self):
        # a 16-image vgg_tiny@64 training step: 1.51 MB; with each ReLU's
        # float input in place of its mask the trace held 4.95 MB, and with
        # each conv's ReLU before its pool 2.20 MB
        m = init_weights(build_vgg_tiny(input_size=64), Rng(8))
        x = np.random.default_rng(171).normal(size=(16, 1, 64, 64)).astype(np.float32)
        _, trace = m.forward_logits(x, "train", Rng(9))
        relus = 0
        for i, (kind, _, mask) in enumerate(trace):
            if kind == "relu":
                # every vgg_tiny block pools, so each ReLU follows a dense
                # node or a pool of a conv's output
                pooled = trace[i - 1][0] == "maxpool"
                before, name, node_input = trace[i - 2] if pooled else trace[i - 1]
                assert pooled == (before == "conv")
                node = nn.conv2d_forward if pooled else nn.dense_forward
                want = node(node_input, m.layers[name])
                if pooled:
                    want = nn.maxpool2(want, routing=False)[0]
                want = want > 0
                assert mask.dtype == np.bool_ and mask.shape == want.shape
                assert np.array_equal(mask, want)
                relus += 1
        assert relus == 4
        arrays = {
            id(a): a.nbytes for _, _, cache in trace
            for a in (cache if isinstance(cache, tuple) else (cache,))
            if isinstance(a, np.ndarray)
        }
        assert sum(arrays.values()) <= 1.6e6


class TestPoolBeforeRelu:
    def test_vgg16_pools_before_the_last_relu_of_each_pooled_block(self):
        ks = kinds(build_vgg16())
        pools = [i for i, kind in enumerate(ks) if kind == "maxpool"]
        assert len(pools) == 4
        assert all(ks[i - 1] == "conv" and ks[i + 1] == "relu" for i in pools)
        assert ks[ks.index("gap") - 2 : ks.index("gap")] == ["conv", "relu"]

    def test_a_training_step_keeps_the_bytes_of_relu_then_pool(self):
        # max and ReLU commute, and so do their gradients: a window whose
        # max is <= 0 passes zero gradient in either order
        m = init_weights(build_vgg_tiny(input_size=64), Rng(12))
        specs = list(m.specs)  # the same layers, each pool after its ReLU
        for i in [i for i, spec in enumerate(specs) if spec.kind == "maxpool"]:
            specs[i], specs[i + 1] = specs[i + 1], specs[i]
        old = Model(specs, m.layers, 64)
        assert [s.kind for s in old.specs[:4]] == ["conv", "relu", "maxpool", "conv"]
        x = np.random.default_rng(172).normal(size=(16, 1, 64, 64)).astype(np.float32)
        targets = np.eye(2, dtype=np.float32)[np.arange(16) % 2]
        steps = []
        for model in (m, old):
            logits, trace = model.forward_logits(x, "train", Rng(13))
            grads = model.backward(trace, softmax_ce_loss(logits, targets)[1])
            steps.append((logits.tobytes(), {k: g.tobytes() for k, g in grads.items()}))
        assert steps[0] == steps[1]


class TestFrozenTrunk:
    """Under freeze_features only the dense head is differentiated."""

    def make(self, policy, seed=63):
        m = init_weights(build_vgg_tiny(input_size=16), Rng(seed))
        return apply_freeze_policy(m, policy)

    def train_step(self, m, seed=71):
        x = np.random.default_rng(164).normal(size=(3, 1, 16, 16)).astype(np.float32)
        targets = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]], dtype=np.float32)
        logits, trace = m.forward_logits(x, "train", Rng(seed))
        _, dlogits = softmax_ce_loss(logits, targets)
        return logits, trace, m.backward(trace, dlogits)

    def test_trunk_ends_at_the_first_trainable_layer(self):
        frozen = self.make(FREEZE_FEATURES)
        assert frozen.specs[frozen.trunk_end].name == "dense1"
        assert self.make(FREEZE_NONE).trunk_end == 0
        for layer in frozen.layers.values():
            layer.frozen = True
        assert frozen.trunk_end == len(frozen.specs) - 1

    def test_trace_covers_only_the_head(self):
        m = self.make(FREEZE_FEATURES)
        _, trace, _ = self.train_step(m)
        assert trace[0][:2] == ("dense", "dense1")
        assert not any(kind == "conv" for kind, _, _ in trace)

    def test_backward_returns_exactly_the_trainable_keys(self):
        m = self.make(FREEZE_FEATURES)
        _, _, grads = self.train_step(m)
        trainable = {
            f"{name}.{part}"
            for name, layer in m.layers.items()
            if not layer.frozen
            for part in ("weight", "bias")
        }
        assert set(grads) == trainable
        assert all(name.startswith("dense") for name in grads)

    def test_layer_frozen_behind_the_trunk_is_left_alone(self):
        # convs train, dense1 is frozen by hand: the trunk is empty, so
        # backward's frozen check alone keeps dense1 out of the update
        m = self.make(FREEZE_NONE)
        m.layers["dense1"].frozen = True
        assert m.trunk_end == 0
        _, _, grads = self.train_step(m)
        assert "dense1.weight" not in grads and "dense1.bias" not in grads
        assert "conv1.weight" in grads and "dense2.weight" in grads
        params = m.parameters()
        before = {name: p.tobytes() for name, p in params.items()}
        state = AdamState(lr=1e-2)
        adam_step(params, grads, state)
        assert params["dense1.weight"].tobytes() == before["dense1.weight"]
        assert params["dense1.bias"].tobytes() == before["dense1.bias"]
        assert params["conv1.weight"].tobytes() != before["conv1.weight"]
        assert "dense1.weight" not in state.m

    def test_head_gradients_match_a_full_backward_bitwise(self):
        frozen_logits, _, frozen_grads = self.train_step(self.make(FREEZE_FEATURES))
        full_logits, _, full_grads = self.train_step(self.make(FREEZE_NONE))
        assert frozen_logits.tobytes() == full_logits.tobytes()
        for name, grad in frozen_grads.items():
            assert grad.dtype == full_grads[name].dtype
            assert grad.tobytes() == full_grads[name].tobytes(), name

    def test_no_conv_backward_runs_under_freeze(self, monkeypatch):
        calls = []
        original = nn.conv2d_backward

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(nn, "conv2d_backward", counting)
        self.train_step(self.make(FREEZE_FEATURES))
        assert calls == []
        self.train_step(self.make(FREEZE_NONE))
        assert len(calls) == 2  # conv2 and conv3; conv1 needs no input gradient

    def test_first_conv_gets_only_parameter_gradients(self, monkeypatch):
        m = self.make(FREEZE_NONE)
        inputs = []
        original = nn.conv2d_param_grads

        def recording(x, layer, dy):
            inputs.append((x, layer, dy))
            return original(x, layer, dy)

        monkeypatch.setattr(nn, "conv2d_param_grads", recording)
        _, _, grads = self.train_step(m)
        # conv2d_backward reaches conv2d_param_grads too, for conv2 and conv3
        (x, layer, dy), = [args for args in inputs if args[1] is m.layers["conv1"]]
        _, dw, db = nn.conv2d_backward(x, layer, dy)
        assert grads["conv1.weight"].tobytes() == dw.tobytes()
        assert grads["conv1.bias"].tobytes() == db.tobytes()

    def test_pool_routing_only_where_a_backward_reads_it(self, monkeypatch):
        asked = []
        original = nn.maxpool2

        def recording(x, routing=True):
            out = original(x, routing=routing)
            asked.append((routing, out[1] is not None))
            return out

        monkeypatch.setattr(nn, "maxpool2", recording)
        self.train_step(self.make(FREEZE_FEATURES))
        assert asked == [(False, False)] * 3  # every pool is in the frozen trunk
        asked.clear()
        self.train_step(self.make(FREEZE_NONE))
        assert asked == [(True, True)] * 3
        asked.clear()
        self.make(FREEZE_NONE).forward(np.zeros((1, 1, 16, 16), dtype=np.float32))
        assert asked == [(False, False)] * 3

    def test_head_on_trunk_equals_forward_logits_bitwise(self):
        m = self.make(FREEZE_FEATURES)
        x = np.random.default_rng(165).normal(size=(7, 1, 16, 16)).astype(np.float32)
        for start in range(0, 7, 3):  # batches of 3, 3 and a short 1
            batch = x[start : start + 3]
            trace = []
            head_logits = m.head(m.trunk(batch), trace=trace)
            want, want_trace = m.forward_logits(batch, "eval")
            assert head_logits.tobytes() == want.tobytes()
            assert [entry[:2] for entry in trace] == [entry[:2] for entry in want_trace]
            assert m.head(m.trunk(batch)).tobytes() == want.tobytes()

    def test_untrained_trunk_output_is_the_input(self):
        m = self.make(FREEZE_NONE)
        x = np.zeros((1, 1, 16, 16), dtype=np.float32)
        assert m.trunk(x) is x
