import dataclasses

import numpy as np
import pytest

from pqprune import nn
from pqprune.pruning import PruningMask


def toy_specs():
    return [
        nn.LayerSpec(5, 4, "relu"),
        nn.LayerSpec(4, 3, "relu"),
        nn.LayerSpec(3, 2, "none"),
    ]


def separable_data(n=32, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2
    X = rng.standard_normal((n, 5)) * 0.3
    X[:, 0] += labels * 6.0
    return nn.Dataset(X, labels)


class TestInit:
    def test_same_seed_bit_identical(self):
        a = nn.init_network(toy_specs(), seed=11)
        b = nn.init_network(toy_specs(), seed=11)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_mlp_weight_count(self):
        params = nn.init_network(nn.mlp_spec(784, 10), seed=0)
        assert params.n_weights == 784 * 128 + 128 * 256 + 256 * 10 == 135_680
        assert params.flat.size == 136_074

    def test_linear_param_count(self):
        params = nn.init_network(nn.linear_spec(784, 10), seed=0)
        assert params.flat.size == 7_850

    def test_biases_zero(self):
        params = nn.init_network(toy_specs(), seed=0)
        assert all(np.all(b == 0) for b in params.biases)

    def test_mismatched_chain_rejected(self):
        with pytest.raises(ValueError):
            nn.init_network([nn.LayerSpec(5, 4, "relu"), nn.LayerSpec(3, 2, "none")], 0)


def start_weights(params, mask):
    """The weights training starts from: with no learning rate and no weight
    decay, `train` returns them unchanged."""
    cfg = nn.TrainConfig(epochs=1, batch_size=8, learning_rate=0.0, weight_decay=0.0)
    return nn.train(params, mask, separable_data(), cfg)


class TestRewind:
    """Each round trains from the initial weights under the round's mask."""

    def test_identity_mask(self):
        params = nn.init_network(toy_specs(), seed=1)
        start = start_weights(params, PruningMask.all_ones(params))
        assert np.array_equal(start.flat, params.flat)

    def test_zeroed_layer(self):
        params = nn.init_network(toy_specs(), seed=1)
        mask = PruningMask.all_ones(params)
        lo = params.weights[0].size
        mask.flat[lo : lo + params.weights[1].size] = False
        start = start_weights(params, mask)
        assert np.all(start.weights[1] == 0.0)
        assert np.array_equal(start.weights[0], params.weights[0])
        assert np.array_equal(start.weights[2], params.weights[2])

    def test_single_entry(self):
        params = nn.init_network(toy_specs(), seed=1)
        mask = PruningMask.all_ones(params)
        mask.flat[0] = False
        start = start_weights(params, mask)
        expected = params.weights[0].copy()
        expected[0, 0] = 0.0
        assert np.array_equal(start.weights[0], expected)

    def test_original_untouched(self):
        params = nn.init_network(toy_specs(), seed=1)
        before = params.flat.copy()
        mask = PruningMask.all_ones(params)
        mask.flat[:] = False
        start_weights(params, mask)
        assert np.array_equal(params.flat, before)


class TestTrain:
    def test_cosine_schedule_endpoints(self):
        assert nn.cosine_lr(0.1, 0, 200) == pytest.approx(0.1)
        assert nn.cosine_lr(0.1, 200, 200) == pytest.approx(0.0, abs=1e-18)

    def test_masked_entries_stay_zero(self):
        params = nn.init_network(toy_specs(), seed=2)
        mask = PruningMask.all_ones(params)
        rng = np.random.default_rng(0)
        mask.flat[rng.random(mask.flat.size) < 0.4] = False
        cfg = nn.TrainConfig(epochs=3, batch_size=8, seed=2)
        out = nn.train(params, mask, separable_data(), cfg)
        assert np.all(nn.flatten_prunable(out)[~mask.flat] == 0.0)

    def test_memorizes_single_batch(self):
        params = nn.init_network(toy_specs(), seed=3)
        mask = PruningMask.all_ones(params)
        cfg = nn.TrainConfig(epochs=200, batch_size=32, weight_decay=0.0, seed=3)
        data = separable_data()
        out = nn.train(params, mask, data, cfg)
        acc, loss = nn.evaluate(out, mask, data)
        assert acc == 1.0
        assert loss < 0.05

    def test_deterministic(self):
        params = nn.init_network(toy_specs(), seed=4)
        mask = PruningMask.all_ones(params)
        cfg = nn.TrainConfig(epochs=4, batch_size=8, seed=4)
        a = nn.train(params, mask, separable_data(), cfg)
        b = nn.train(params, mask, separable_data(), cfg)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_zero_lr_zero_decay_is_identity(self):
        params = nn.init_network(toy_specs(), seed=5)
        mask = PruningMask.all_ones(params)
        cfg = nn.TrainConfig(epochs=2, batch_size=8, learning_rate=0.0, weight_decay=0.0)
        out = nn.train(params, mask, separable_data(), cfg)
        for w, w0 in zip(out.weights, params.weights):
            assert np.array_equal(w, w0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts(self):
        params = nn.init_network(toy_specs(), seed=6)
        for w in params.weights:
            w *= 1e200
        mask = PruningMask.all_ones(params)
        cfg = nn.TrainConfig(epochs=1, batch_size=8)
        with pytest.raises(nn.TrainingDivergedError):
            nn.train(params, mask, separable_data(), cfg)


class TestEvaluate:
    def test_zero_network_predicts_first_class(self):
        params = nn.init_network(toy_specs(), seed=7)
        for w in params.weights:
            w[:] = 0.0
        mask = PruningMask.all_ones(params)
        acc, _ = nn.evaluate(params, mask, separable_data())
        assert acc == 0.5  # balanced labels, everything argmaxes to class 0

    def test_mask_idempotent(self):
        params = nn.init_network(toy_specs(), seed=8)
        mask = PruningMask.all_ones(params)
        mask.flat[: params.weights[0].shape[1]] = False  # row 0 of layer 0
        params.flat[: params.n_weights] *= mask.flat
        ones = PruningMask.all_ones(params)
        data = separable_data()
        assert nn.evaluate(params, mask, data) == nn.evaluate(params, ones, data)

    def test_mask_length_checked(self):
        params = nn.init_network(toy_specs(), seed=9)
        short = PruningMask(np.ones(params.n_weights - 1, dtype=bool))
        cfg = nn.TrainConfig(epochs=1, batch_size=8)
        with pytest.raises(ValueError, match="mask length"):
            nn.evaluate(params, short, separable_data())
        with pytest.raises(ValueError, match="mask length"):
            nn.train(params, short, separable_data(), cfg)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            nn.Dataset(np.zeros((0, 5)), np.zeros(0, dtype=int))


class TestGradients:
    def test_matches_central_differences(self):
        # 5-4-3-2 toy network, 47 parameters total. Seed chosen so no
        # pre-activation sits at the ReLU kink, where a central difference
        # straddles the nondifferentiability.
        params = nn.init_network(toy_specs(), seed=2)
        data = separable_data(n=16, seed=2)
        X, y = data.inputs, data.labels
        _, grad_w, grad_b = nn.loss_and_grads(params, X, y)
        step = 1e-5
        for arrs, grads in ((params.weights, grad_w), (params.biases, grad_b)):
            for arr, grad in zip(arrs, grads):
                flat = arr.reshape(-1)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + step
                    up, _, _ = nn.loss_and_grads(params, X, y)
                    flat[i] = orig - step
                    down, _, _ = nn.loss_and_grads(params, X, y)
                    flat[i] = orig
                    numeric = (up - down) / (2 * step)
                    analytic = grad.reshape(-1)[i]
                    denom = max(abs(numeric), abs(analytic), 1e-8)
                    assert abs(numeric - analytic) / denom < 1e-4


class TestFlatten:
    def test_mlp_length(self):
        params = nn.init_network(nn.mlp_spec(784, 10), seed=0)
        mags = nn.flatten_prunable(params)
        assert mags.size == 135_680 == params.n_weights

    def test_round_trip(self):
        # Layer-major, row-major: each layer's slice reshapes back to |W|.
        params = nn.init_network(toy_specs(), seed=10)
        mags = nn.flatten_prunable(params)
        base = 0
        for w in params.weights:
            layer = mags[base : base + w.size]
            assert np.array_equal(layer.reshape(w.shape), np.abs(w))
            base += w.size
        assert base == mags.size

    def test_signed_weight_magnitude(self):
        params = nn.init_network(toy_specs(), seed=10)
        params.weights[1][2, 3] = -0.7
        mags = nn.flatten_prunable(params)
        cols = params.weights[1].shape[1]
        assert mags[params.weights[0].size + 2 * cols + 3] == pytest.approx(0.7)

    def test_views_write_through_to_flat(self):
        params = nn.init_network(toy_specs(), seed=10)
        pos = params.weights[0].size + params.weights[1].shape[1] + 2  # layer 1, row 1, col 2
        params.weights[1][1, 2] = -3.5
        assert params.flat[pos] == -3.5
        assert nn.flatten_prunable(params)[pos] == 3.5
        params.biases[0][1] = 2.0
        assert params.flat[params.n_weights + 1] == 2.0
