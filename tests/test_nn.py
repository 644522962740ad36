import itertools
import tracemalloc

import numpy as np
import pytest

from pqprune import nn
from pqprune.config import ExperimentConfig
from pqprune.data_io import SyntheticSpec
from pqprune.experiment import run_experiment
from pqprune.pruning import AlgorithmSpec, PruningMask, Scope


def toy_specs():
    return [
        nn.LayerSpec(5, 4),
        nn.LayerSpec(4, 3),
        nn.LayerSpec(3, 2),
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
        params = nn.init_network(nn.model_specs("MLP", 784, 10), seed=0)
        assert params.n_weights == 784 * 128 + 128 * 256 + 256 * 10 == 135_680
        assert params.flat.size == 136_074

    def test_linear_param_count(self):
        params = nn.init_network(nn.model_specs("Linear", 784, 10), seed=0)
        assert params.flat.size == 7_850

    def test_biases_zero(self):
        params = nn.init_network(toy_specs(), seed=0)
        assert all(np.all(b == 0) for b in params.biases)

    def test_mismatched_chain_rejected(self):
        with pytest.raises(ValueError):
            nn.init_network([nn.LayerSpec(5, 4), nn.LayerSpec(3, 2)], 0)

    @pytest.mark.parametrize("sizes", [(0, 3), (3, 0), (-1, 2)])
    def test_nonpositive_layer_size_rejected(self, sizes):
        with pytest.raises(ValueError, match="^layer sizes must be positive$"):
            nn.LayerSpec(*sizes)

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="^empty layer spec$"):
            nn.init_network([], 0)


class TestDataset:
    def test_misaligned_labels_rejected(self):
        with pytest.raises(ValueError, match="^labels must align with inputs$"):
            nn.Dataset(np.zeros((3, 2)), [0, 1])

    def test_negative_class_id_rejected(self):
        with pytest.raises(ValueError, match="^negative class id$"):
            nn.Dataset(np.zeros((2, 2)), [0, -1])


def start_weights(params, mask):
    """The weights training starts from: with no learning rate and no weight
    decay, `train` leaves them unchanged. `params` itself is not trained."""
    cfg = nn.TrainConfig(epochs=1, batch_size=8, learning_rate=0.0, weight_decay=0.0)
    net = nn.NetworkParams(params.specs, params.flat.copy())
    return nn.train(net, mask, separable_data(), cfg, 0)


class TestRewind:
    """Each round trains from the initial weights under the round's mask."""

    def test_identity_mask(self):
        params = nn.init_network(toy_specs(), seed=1)
        start = start_weights(params, PruningMask(np.ones(params.n_weights, dtype=bool)))
        assert np.array_equal(start.flat, params.flat)

    def test_zeroed_layer(self):
        params = nn.init_network(toy_specs(), seed=1)
        mask = PruningMask(np.ones(params.n_weights, dtype=bool))
        lo = params.weights[0].size
        mask.flat[lo : lo + params.weights[1].size] = False
        start = start_weights(params, mask)
        assert np.all(start.weights[1] == 0.0)
        assert np.array_equal(start.weights[0], params.weights[0])
        assert np.array_equal(start.weights[2], params.weights[2])

    def test_single_entry(self):
        params = nn.init_network(toy_specs(), seed=1)
        mask = PruningMask(np.ones(params.n_weights, dtype=bool))
        mask.flat[0] = False
        start = start_weights(params, mask)
        expected = params.weights[0].copy()
        expected[0, 0] = 0.0
        assert np.array_equal(start.weights[0], expected)

    def test_trains_the_network_it_is_given(self):
        params = nn.init_network(toy_specs(), seed=1)
        before = params.flat.copy()
        mask = holed_mask(params, seed=1)
        cfg = nn.TrainConfig(epochs=1, batch_size=8, learning_rate=0.0, weight_decay=0.0)
        out = nn.train(params, mask, separable_data(), cfg, 0)
        assert out is params
        before[: params.n_weights] *= mask.flat
        assert np.array_equal(params.flat, before)
        assert not mask.flat.all() and np.any(params.flat != 0.0)


class TestTrain:
    def test_cosine_schedule_endpoints(self):
        assert nn.cosine_lr(0.1, 0, 200) == pytest.approx(0.1)
        assert nn.cosine_lr(0.1, 200, 200) == pytest.approx(0.0, abs=1e-18)

    def test_masked_entries_stay_zero(self):
        params = nn.init_network(toy_specs(), seed=2)
        mask = PruningMask(np.ones(params.n_weights, dtype=bool))
        rng = np.random.default_rng(0)
        mask.flat[rng.random(mask.flat.size) < 0.4] = False
        cfg = nn.TrainConfig(epochs=3, batch_size=8)
        out = nn.train(params, mask, separable_data(), cfg, 2)
        assert np.all(nn.flatten_prunable(out)[~mask.flat] == 0.0)

    def test_memorizes_single_batch(self):
        params = nn.init_network(toy_specs(), seed=3)
        mask = PruningMask(np.ones(params.n_weights, dtype=bool))
        cfg = nn.TrainConfig(epochs=200, batch_size=32, weight_decay=0.0)
        data = separable_data()
        out = nn.train(params, mask, data, cfg, 3)
        acc, loss = nn.evaluate(out, data)
        assert acc == 1.0
        assert loss < 0.05

    def test_deterministic(self):
        params = nn.init_network(toy_specs(), seed=4)
        mask = PruningMask(np.ones(params.n_weights, dtype=bool))
        cfg = nn.TrainConfig(epochs=4, batch_size=8)
        a = nn.train(nn.NetworkParams(params.specs, params.flat.copy()), mask,
                     separable_data(), cfg, 4)
        b = nn.train(nn.NetworkParams(params.specs, params.flat.copy()), mask,
                     separable_data(), cfg, 4)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_zero_lr_zero_decay_is_identity(self):
        params = nn.init_network(toy_specs(), seed=5)
        mask = PruningMask(np.ones(params.n_weights, dtype=bool))
        cfg = nn.TrainConfig(epochs=2, batch_size=8, learning_rate=0.0, weight_decay=0.0)
        out = nn.train(nn.NetworkParams(params.specs, params.flat.copy()), mask,
                       separable_data(), cfg, 0)
        for w, w0 in zip(out.weights, params.weights):
            assert np.array_equal(w, w0)

    def test_divergence_aborts(self):
        params = nn.init_network(toy_specs(), seed=6)
        for w in params.weights:
            w *= 1e200
        mask = PruningMask(np.ones(params.n_weights, dtype=bool))
        cfg = nn.TrainConfig(epochs=1, batch_size=8)
        with pytest.raises(nn.TrainingDivergedError):
            nn.train(params, mask, separable_data(), cfg, 0)


class TestEvaluate:
    def test_zero_network_predicts_first_class(self):
        params = nn.init_network(toy_specs(), seed=7)
        for w in params.weights:
            w[:] = 0.0
        acc, _ = nn.evaluate(params, separable_data())
        assert acc == 0.5  # balanced labels, everything argmaxes to class 0

    def test_overflow_raises_divergence_without_a_warning(self):
        # The suite runs with warnings as errors, so a numpy overflow warning
        # would fail this test before the divergence could be raised.
        params = nn.init_network(toy_specs(), seed=7)
        params.flat[: params.n_weights] *= 1e300
        with pytest.raises(nn.TrainingDivergedError, match="^non-finite test loss$"):
            nn.evaluate(params, separable_data())

    def test_mask_idempotent(self):
        # `apply_mask` prunes the network it is given: exactly the dropped
        # weights become zero, and applying the mask again changes nothing.
        params = nn.init_network(toy_specs(), seed=8)
        params.flat[params.n_weights :] = np.arange(1, params.flat.size - params.n_weights + 1)
        before = params.flat.copy()
        mask = holed_mask(params, seed=8)
        assert nn.apply_mask(params, mask) is params
        assert np.all(params.flat[: params.n_weights][~mask.flat] == 0.0)
        assert np.array_equal(params.flat[: params.n_weights][mask.flat],
                              before[: params.n_weights][mask.flat])
        assert np.all(before[: params.n_weights] != 0.0)
        assert np.array_equal(params.flat[params.n_weights :], before[params.n_weights :])
        pruned = params.flat.copy()
        assert np.array_equal(nn.apply_mask(params, mask).flat, pruned)

    def test_mask_length_checked(self):
        params = nn.init_network(toy_specs(), seed=9)
        before = params.flat.copy()
        short = PruningMask(np.ones(params.n_weights - 1, dtype=bool))
        cfg = nn.TrainConfig(epochs=1, batch_size=8)
        with pytest.raises(ValueError, match="mask length"):
            nn.apply_mask(params, short)
        with pytest.raises(ValueError, match="mask length"):
            nn.train(params, short, separable_data(), cfg, 0)
        assert np.array_equal(params.flat, before)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            nn.Dataset(np.zeros((0, 5)), np.zeros(0, dtype=int))


def single_pass_evaluate(params, mask, data):
    """`evaluate` as one forward pass over every row at once: the reference
    that the row blocks must match bit for bit."""
    net = nn.apply_mask(nn.NetworkParams(params.specs, params.flat.copy()), mask)
    logits, _ = nn._forward(net, data.inputs)
    shifted = logits - logits.max(axis=1, keepdims=True)
    total = np.exp(shifted).sum(axis=1, keepdims=True)
    rows = np.arange(len(data))
    loss = -float((shifted[rows, data.labels] - np.log(total[:, 0])).mean())
    return float((logits.argmax(axis=1) == data.labels).mean()), loss


def mnist_shaped(n, seed=0):
    """The MLP at the MNIST shape under a random half mask, with biases and
    weights large enough for the logits to differ, and an (n, 784) split."""
    rng = np.random.default_rng(seed)
    params = nn.init_network(nn.model_specs("MLP", 784, 10), seed=seed)
    params.flat *= 8.0
    params.flat[params.n_weights :] = rng.standard_normal(params.flat.size - params.n_weights)
    mask = PruningMask(rng.random(params.n_weights) < 0.5)
    data = nn.Dataset(rng.standard_normal((n, 784)), rng.integers(0, 10, n))
    return params, mask, data


def traced_peak(fn, *args):
    """Bytes that `fn(*args)` holds at its peak beyond what was held before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestEvaluateInBlocks:
    @pytest.mark.parametrize(
        "n", [1, nn.EVAL_ROWS - 1, nn.EVAL_ROWS, 2 * nn.EVAL_ROWS + 7, 2000]
    )
    def test_equals_one_pass_over_every_row(self, n):
        params, mask, data = mnist_shaped(n, seed=n)
        net = nn.apply_mask(nn.NetworkParams(params.specs, params.flat.copy()), mask)
        acc, loss = nn.evaluate(net, data)
        assert (acc, loss) == single_pass_evaluate(params, mask, data)
        assert 0.0 < loss and (n == 1 or 0.0 < acc < 1.0)

    def test_peak_is_one_block(self):
        params, mask, data = mnist_shaped(2000)
        block = nn.EVAL_ROWS * sum(s.out_size for s in params.specs) * 8
        peak = traced_peak(nn.evaluate, nn.apply_mask(params, mask), data)
        # A whole-split forward pass holds 6.3 MB of activations here, and a
        # copy of the network 1.09 MB.
        assert peak <= block + 256 * 1024


def linear_training(features, classes, n, seed=0):
    """A Linear network under a random half mask, and an (n, features) split."""
    rng = np.random.default_rng(seed)
    params = nn.init_network(nn.model_specs("Linear", features, classes), seed=seed)
    mask = PruningMask(rng.random(params.n_weights) < 0.5)
    data = nn.Dataset(rng.standard_normal((n, features)), rng.integers(0, classes, n))
    return params, mask, data


class TestTrainMemory:
    """`train` holds, beside the network it is given, the gradient, the
    velocity and one work vector for the batch and then the update."""

    def test_peak_is_three_parameter_vectors(self):
        params, mask, data = linear_training(2000, 50, 8)
        cfg = nn.TrainConfig(epochs=1, batch_size=4)
        peak = traced_peak(nn.train, params, mask, data, cfg, 0)
        # The 4-row batch (64 kB) fits in the work vector; a copy of the
        # network, a separate batch or a float copy of the mask would each
        # add about a vector.
        assert peak < 3.5 * params.flat.nbytes

    def test_peak_is_two_parameter_vectors_and_one_batch(self):
        params, mask, data = linear_training(2000, 20, 512)
        cfg = nn.TrainConfig(epochs=1, batch_size=256)
        batch = cfg.batch_size * 2000 * 8
        assert batch > 10 * params.flat.nbytes
        peak = traced_peak(nn.train, params, mask, data, cfg, 0)
        # The update fits in the batch-sized work vector. The margin covers
        # the softmax's 40 kB arrays of logits and numpy's 64 kB buffer for
        # casting the boolean mask; a copy of the network (320 kB) and a
        # gathered batch beside the work vector would exceed it.
        assert peak < 2 * params.flat.nbytes + batch + 256 * 1024


class TestGradients:
    def test_matches_central_differences(self):
        # 5-4-3-2 toy network, 47 parameters total. Seed chosen so no
        # pre-activation sits at the ReLU kink, where a central difference
        # straddles the nondifferentiability.
        params = nn.init_network(toy_specs(), seed=2)
        data = separable_data(n=16, seed=2)
        X, y = data.inputs, data.labels
        grads = nn.NetworkParams(params.specs, np.empty_like(params.flat))
        scratch = nn.NetworkParams(params.specs, np.empty_like(params.flat))
        nn.loss_and_grads(params, X, y, grads)
        step = 1e-5
        # `grads` has the layout of `params`, so entry i of each flat vector
        # is the same weight or bias.
        for i in range(params.flat.size):
            orig = params.flat[i]
            params.flat[i] = orig + step
            up = nn.loss_and_grads(params, X, y, scratch)
            params.flat[i] = orig - step
            down = nn.loss_and_grads(params, X, y, scratch)
            params.flat[i] = orig
            numeric = (up - down) / (2 * step)
            analytic = grads.flat[i]
            denom = max(abs(numeric), abs(analytic), 1e-8)
            assert abs(numeric - analytic) / denom < 1e-4


class TestFlatten:
    def test_mlp_length(self):
        params = nn.init_network(nn.model_specs("MLP", 784, 10), seed=0)
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

    def test_params_view_the_given_vector(self):
        flat = np.zeros(5 * 4 + 4 * 3 + 3 * 2 + 4 + 3 + 2)
        params = nn.NetworkParams(toy_specs(), flat)
        params.biases[2][1] = 1.0
        assert flat[-1] == 1.0
        with pytest.raises(ValueError, match="length"):
            nn.NetworkParams(toy_specs(), flat[1:])


# --- reference trainer ------------------------------------------------------
#
# The allocating form of the forward pass, backward pass and SGD step: each
# step concatenates fresh per-layer gradients and builds every update term as
# a new array. `nn.train` updates its buffers in place and must return the
# same bits.


def reference_loss_and_grads(params, X, labels):
    acts = [X]
    a = X
    last = len(params.specs) - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w.T + b
        a = np.maximum(z, 0.0) if l < last else z
        acts.append(a)
    n = a.shape[0]
    shifted = a - a.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    probs = expz / expz.sum(axis=1, keepdims=True)
    logp = shifted - np.log(expz.sum(axis=1, keepdims=True))
    loss = -float(logp[np.arange(n), labels].mean())
    delta = probs.copy()
    delta[np.arange(n), labels] -= 1.0
    delta = delta / n
    grad_w = [None] * len(params.specs)
    grad_b = [None] * len(params.specs)
    for l in reversed(range(len(params.specs))):
        if l < last:
            delta = delta * (acts[l + 1] > 0.0)
        grad_w[l] = delta.T @ acts[l]
        grad_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = delta @ params.weights[l]
    return loss, grad_w, grad_b


def reference_train(params, mask, data, cfg, seed):
    net = nn.NetworkParams(params.specs, params.flat.copy())
    net.flat[: net.n_weights] *= mask.flat
    vel = np.zeros_like(net.flat)
    n = len(data)
    batch = min(cfg.batch_size, n)
    for epoch in range(cfg.epochs):
        lr = nn.cosine_lr(cfg.learning_rate, epoch, cfg.epochs)
        order = np.random.default_rng([seed, epoch]).permutation(n)
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            loss, grad_w, grad_b = reference_loss_and_grads(
                net, data.inputs[idx], data.labels[idx]
            )
            if not np.isfinite(loss):
                raise nn.TrainingDivergedError(f"non-finite loss at epoch {epoch}")
            grad = np.concatenate([*(g.ravel() for g in grad_w), *grad_b])
            grad += cfg.weight_decay * net.flat
            grad[: net.n_weights] *= mask.flat
            vel *= cfg.momentum
            vel += grad
            step = grad + cfg.momentum * vel if cfg.nesterov else vel
            net.flat -= lr * step
    return net


def holed_mask(params, seed):
    """Zeros in every layer, and row 1 of the last layer zeroed entirely."""
    mask = PruningMask(np.ones(params.n_weights, dtype=bool))
    mask.flat[np.random.default_rng(seed).random(mask.flat.size) < 0.3] = False
    w = params.weights[-1]
    lo = params.n_weights - w.size
    mask.flat[lo + w.shape[1] : lo + 2 * w.shape[1]] = False
    return mask


class TestReferenceTrainer:
    @pytest.mark.parametrize(
        "specs, batch_size",
        list(itertools.product([toy_specs(), nn.model_specs("Linear", 5, 2)], [8, 64])),
        ids=["mlp-short_last_batch", "mlp-batch_ge_n", "linear-short_last_batch",
             "linear-batch_ge_n"],
    )
    def test_train_bit_identical(self, specs, batch_size):
        data = separable_data(n=37, seed=1)  # 37 = 4 * 8 + 5
        params = nn.init_network(specs, seed=3)
        mask = holed_mask(params, seed=3)
        for layer in range(len(specs)):
            lo = sum(w.size for w in params.weights[:layer])
            assert not mask.flat[lo : lo + params.weights[layer].size].all()
        settings = itertools.product([True, False], [0.0, 5e-4], [0.0, 0.9])
        for nesterov, weight_decay, momentum in settings:
            cfg = nn.TrainConfig(
                epochs=3, batch_size=batch_size, learning_rate=0.3, momentum=momentum,
                weight_decay=weight_decay, nesterov=nesterov,
            )
            got = nn.train(nn.NetworkParams(params.specs, params.flat.copy()), mask, data,
                           cfg, 5)
            want = reference_train(params, mask, data, cfg, 5)
            assert np.array_equal(got.flat, want.flat), cfg
            assert not np.array_equal(got.flat, params.flat)


class TestLossAndGradsContract:
    def setup_method(self):
        self.params = nn.init_network(toy_specs(), seed=2)
        data = separable_data(n=16, seed=2)
        self.X, self.y = data.inputs, data.labels

    def test_out_holds_the_gradients_in_flat_layout(self):
        # NaN everywhere first, so an entry left unwritten shows.
        grads = nn.NetworkParams(self.params.specs, np.full_like(self.params.flat, np.nan))
        loss = nn.loss_and_grads(self.params, self.X, self.y, grads)
        ref_loss, ref_w, ref_b = reference_loss_and_grads(self.params, self.X, self.y)
        assert loss == ref_loss
        assert np.array_equal(grads.flat, np.concatenate([*(g.ravel() for g in ref_w), *ref_b]))


@pytest.mark.parametrize("scope", list(Scope))
def test_grid_bytes_match_reference_trainer(scope, tmp_path, monkeypatch):
    """A small grid per scope writes the same run.json, iterations.csv and
    summary.csv under `nn.train` as under the reference trainer."""
    cfg = ExperimentConfig(
        scope=scope,
        # 152 training rows: four batches of 32 and a short one of 24.
        dataset=SyntheticSpec(n_samples=190, n_features=8, n_classes=3, seed=4),
        algorithms=[
            AlgorithmSpec(kind, iterations=3) for kind in ("sap", "lottery_ticket", "one_shot")
        ],
        train=nn.TrainConfig(epochs=2, batch_size=32, weight_decay=0.05),
        seeds=[0, 1],
    )
    run_experiment(cfg, out_dir=tmp_path / "shipped")
    monkeypatch.setattr(nn, "train", reference_train)
    run_experiment(cfg, out_dir=tmp_path / "reference")

    def guarded(root):
        names = ("run.json", "iterations.csv", "summary.csv")
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.name in names}

    shipped = guarded(tmp_path / "shipped")
    assert len(shipped) == 2 * 6 + 1
    assert shipped == guarded(tmp_path / "reference")
