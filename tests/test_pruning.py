import dataclasses
import math

import numpy as np
import pytest

from pqprune import nn
from pqprune.data_io import SyntheticSpec, gen_synthetic
from pqprune.pruning import (
    AlgorithmSpec,
    PruningMask,
    SapHyperParams,
    Scope,
    magnitude_prune,
    partition,
    replay_count,
    run_pruning,
    sap_count,
    sap_decision,
)
from pqprune.sparsity import NormPair


def single_row_params(values):
    """One dense layer whose flat weight magnitudes are `values`."""
    spec = [nn.LayerSpec(len(values), 1)]
    return nn.NetworkParams(spec, np.append(np.asarray(values, dtype=float), 0.0))


def tiny_run_setup(seed=0, n=200, features=8):
    train, test = gen_synthetic(
        SyntheticSpec(n_samples=n, n_features=features, n_classes=2, seed=seed)
    )
    specs = [nn.LayerSpec(features, 6), nn.LayerSpec(6, 2)]
    cfg = nn.TrainConfig(epochs=2, batch_size=32, seed=seed)
    return specs, cfg, train, test


def row_slices(blocks):
    """(label, lo, hi) of every group: row r of a block spans the flat
    weights [offset + r * cols, offset + (r + 1) * cols)."""
    return [
        (labels[r], offset + r * cols, offset + (r + 1) * cols)
        for labels, offset, rows, cols in blocks
        for r in range(rows)
    ]


def block_step(blocks, mags, mask, counts):
    """The one-pass step: every block's drops cleared in one mask copy."""
    next_mask = PruningMask(mask.flat.copy())
    for (_, offset, rows, cols), c in zip(blocks, counts):
        end = offset + rows * cols
        keep = mask.flat[offset:end].reshape(rows, cols)
        block = mags[offset:end].reshape(rows, cols)
        next_mask.flat[offset + magnitude_prune(block, keep, c)] = False
    return next_mask


def single_row_prune(values, keep, count):
    values = np.asarray(values, dtype=float).reshape(1, -1)
    return magnitude_prune(values, np.asarray(keep).reshape(1, -1), [count])


class TestPartition:
    def test_global_single_group(self):
        params = nn.init_network(nn.model_specs("MLP", 784, 10), seed=0)
        assert partition(params, Scope.GLOBAL) == [(["global"], 0, 1, 135_680)]

    def test_layer_wise_mlp(self):
        params = nn.init_network(nn.model_specs("MLP", 784, 10), seed=0)
        sizes = [784 * 128, 128 * 256, 256 * 10]
        assert partition(params, Scope.LAYER_WISE) == [
            (["layer0"], 0, 1, sizes[0]),
            (["layer1"], sizes[0], 1, sizes[1]),
            (["layer2"], sizes[0] + sizes[1], 1, sizes[2]),
        ]

    def test_neuron_wise_mlp(self):
        params = nn.init_network(nn.model_specs("MLP", 784, 10), seed=0)
        blocks = partition(params, Scope.NEURON_WISE)
        assert [(offset, rows, cols) for _, offset, rows, cols in blocks] == [
            (0, 128, 784),
            (784 * 128, 256, 128),
            (784 * 128 + 128 * 256, 10, 256),
        ]
        assert sum(len(labels) for labels, *_ in blocks) == 128 + 256 + 10
        assert blocks[1][0] == [f"layer1/neuron{r}" for r in range(256)]

    def test_masked_entries_excluded(self):
        keep = [True, False, True, True]
        assert list(single_row_prune([0.5, 0.1, 0.3, 0.7], keep, 3)) == [2, 0, 3]
        with pytest.raises(ValueError):
            single_row_prune([0.5, 0.1, 0.3, 0.7], keep, 4)  # 3 survivors

    def test_groups_cover_exactly_once(self):
        params = nn.init_network(
            [nn.LayerSpec(12, 3), nn.LayerSpec(3, 1)], seed=1
        )
        labels = {
            Scope.GLOBAL: ["global"],
            Scope.LAYER_WISE: ["layer0", "layer1"],
            Scope.NEURON_WISE: [*(f"layer0/neuron{r}" for r in range(3)), "layer1/neuron0"],
        }
        for scope in Scope:
            slices = row_slices(partition(params, scope))
            assert [label for label, _, _ in slices] == labels[scope]
            covered = np.concatenate([np.arange(lo, hi) for _, lo, hi in slices])
            assert list(covered) == list(range(params.n_weights))
        single = single_row_params([0.3, 0.1])
        assert partition(single, Scope.NEURON_WISE) == [(["layer0/neuron0"], 0, 1, 2)]


def sequential_prune(mags, mask, lo, hi, count):
    """Reference step for one group, the flat weights [lo, hi): a new mask
    with the group's `count` smallest surviving magnitudes cleared, ties to
    the lowest flat index."""
    idx = np.nonzero(mask.flat[lo:hi])[0] + lo
    out = PruningMask(mask.flat.copy())
    order = np.argsort(mags[idx], kind="stable")
    out.flat[idx[order[:count]]] = False
    return out


class TestMagnitudePrune:
    def test_smallest_two(self):
        params = single_row_params([0.5, 0.1, 0.3, 0.7])
        mask = PruningMask.all_ones(params)
        blocks = partition(params, Scope.GLOBAL)
        out = block_step(blocks, nn.flatten_prunable(params), mask, [[2]])
        assert list(out.flat) == [True, False, False, True]
        assert list(mask.flat) == [True, True, True, True]  # input untouched

    def test_already_masked_not_recounted(self):
        keep = [True, False, True, True]
        assert list(single_row_prune([0.5, 0.1, 0.3, 0.7], keep, 1)) == [2]

    def test_tie_breaks_to_lowest_index(self):
        assert list(single_row_prune([0.2, 0.2, 1.0], [True] * 3, 1)) == [0]
        # Across rows, each row breaks its own ties toward its lowest column.
        mags = np.array([[0.2, 0.2, 1.0], [1.0, 0.5, 0.5]])
        assert list(magnitude_prune(mags, np.ones((2, 3), bool), [1, 1])) == [0, 4]

    def test_overlarge_count_rejected(self):
        with pytest.raises(ValueError, match="survivors"):
            single_row_prune([0.2, 0.4], [True, True], 3)
        with pytest.raises(ValueError, match="survivors"):
            single_row_prune([0.2, 0.4], [True, True], -1)

    @pytest.mark.parametrize("scope", list(Scope))
    def test_one_pass_matches_sequential_oracle(self, scope):
        rng = np.random.default_rng(11)
        for trial in range(6):
            params = nn.init_network(nn.model_specs("MLP", 12, 3), seed=trial)
            # Exact ties and zeros alongside the continuous weights, and a
            # row whose magnitudes are all zero.
            params.weights[0][:, :4] = 0.25
            params.weights[1][::3] = 0.0
            params.weights[0][1] = 0.0
            mags = nn.flatten_prunable(params)
            mask = PruningMask.all_ones(params)
            mask.flat[rng.random(mask.flat.size) < 0.3] = False
            # An exhausted row: every weight of it already pruned.
            mask.flat[params.weights[0].shape[1] * 2 : params.weights[0].shape[1] * 3] = False
            blocks = partition(params, scope)
            slices = row_slices(blocks)
            survivors = [int(np.count_nonzero(mask.flat[lo:hi])) for _, lo, hi in slices]
            # 0, in range, or every survivor.
            counts = [int(rng.choice([0, rng.integers(0, d + 1), d])) for d in survivors]
            expected = mask
            for (_, lo, hi), count in zip(slices, counts):
                expected = sequential_prune(mags, expected, lo, hi, count)
            per_block = np.split(np.array(counts), np.cumsum([b[2] for b in blocks])[:-1])
            got = block_step(blocks, mags, mask, per_block)
            np.testing.assert_array_equal(got.flat, expected.flat)
            assert got.ones_count() == mask.ones_count() - sum(counts)


class TestSapCount:
    # At (p, q) = (0.5, 1) and eta = 0 the bound is r = d * (1 - pqi).
    HP = SapHyperParams(norms=NormPair(0.5, 1.0), eta=0.0, gamma=1.0, beta=0.9)

    def test_direct_arithmetic(self):
        assert sap_decision(1000, 0.1, self.HP) == {"pqi": 0.1, "r": 900.0, "c": 100}
        assert sap_decision(1000, 0.1, dataclasses.replace(self.HP, gamma=2.0))["c"] == 200

    def test_beta_cap(self):
        assert sap_decision(1000, 0.95, self.HP)["c"] == 900  # r = 50

    def test_negative_noise_clamped(self):
        # An index just below zero puts r just above d.
        assert sap_decision(10, -1e-15, self.HP)["r"] > 10
        assert sap_decision(10, -1e-15, self.HP)["c"] == 0

    def test_one_hot_chain(self):
        d = 40
        values = np.zeros(d)
        values[17] = 1.0
        hp = SapHyperParams(norms=NormPair(0.5, 1.0), eta=0.0, gamma=1.0, beta=0.9)
        decision = sap_count(values, hp)
        one_hot_max = 1 - d ** (1 / hp.norms.q - 1 / hp.norms.p)
        assert decision["pqi"] == pytest.approx(one_hot_max, abs=1e-12)
        assert decision["r"] == pytest.approx(1.0, abs=1e-9)
        assert decision["c"] == math.floor(d * min(1 - 1 / d, 0.9))

    def test_all_zero_group_raises(self):
        from pqprune.sparsity import UndefinedIndexError

        with pytest.raises(UndefinedIndexError):
            sap_count(np.zeros(3), SapHyperParams())


class TestRunPruning:
    def test_lottery_ticket_floor_recursion(self):
        specs, cfg, train, test = tiny_run_setup()
        alg = AlgorithmSpec(kind="lottery_ticket", iterations=6, ratio=0.2)
        rec = run_pruning(alg, Scope.GLOBAL, specs, cfg, train, test)
        d = rec.iterations[0].d_t
        d0 = d
        for it in rec.iterations:
            assert it.d_t == d
            assert it.percent_remaining == pytest.approx(d / d0)
            d = d - math.floor(0.2 * d)

    def test_mask_monotone_and_bookkeeping(self):
        specs, cfg, train, test = tiny_run_setup()
        alg = AlgorithmSpec(kind="sap", iterations=5)
        rec = run_pruning(alg, Scope.LAYER_WISE, specs, cfg, train, test)
        for a, b in zip(rec.iterations, rec.iterations[1:]):
            assert b.d_t == a.d_t - a.c_total
            assert b.d_t <= a.d_t

    def test_one_shot_matches_lottery_at_first_prune(self):
        specs, cfg, train, test = tiny_run_setup()
        os_rec = run_pruning(
            AlgorithmSpec(kind="one_shot", iterations=3), Scope.GLOBAL, specs, cfg, train, test
        )
        lt_rec = run_pruning(
            AlgorithmSpec(kind="lottery_ticket", iterations=3), Scope.GLOBAL, specs, cfg, train, test
        )
        # Same trained w_0, same prune rule: identical mask after iteration 0.
        assert os_rec.iterations[0].acc_pruned == lt_rec.iterations[0].acc_pruned
        assert os_rec.iterations[0].pqi_pruned == lt_rec.iterations[0].pqi_pruned
        assert os_rec.iterations[1].d_t == lt_rec.iterations[1].d_t

    def test_one_shot_never_retrains(self):
        specs, cfg, train, test = tiny_run_setup()
        rec = run_pruning(
            AlgorithmSpec(kind="one_shot", iterations=3), Scope.GLOBAL, specs, cfg, train, test
        )
        # Pruned metrics of iteration t equal retrained metrics of t+1: both
        # evaluate the same frozen weights under m_{t+1}.
        for a, b in zip(rec.iterations, rec.iterations[1:]):
            assert a.acc_pruned == b.acc_retrained
            assert a.loss_pruned == b.loss_retrained

    def test_one_shot_evaluates_once_per_round(self, monkeypatch):
        specs, cfg, train, test = tiny_run_setup()
        calls = []
        evaluate = nn.evaluate
        monkeypatch.setattr(nn, "evaluate", lambda *a: calls.append(1) or evaluate(*a))
        rec = run_pruning(
            AlgorithmSpec(kind="one_shot", iterations=4), Scope.NEURON_WISE, specs, cfg, train, test
        )
        assert len(calls) == len(rec.iterations) + 1
        # The carried-over retrained index equals last round's pruned index.
        for a, b in zip(rec.iterations, rec.iterations[1:]):
            assert a.pqi_pruned == b.pqi_retrained

    def test_sap_replay_exact(self):
        specs, cfg, train, test = tiny_run_setup()
        hp = SapHyperParams(norms=NormPair(0.5, 1.0), eta=0.5, gamma=1.5, beta=0.9)
        alg = AlgorithmSpec(kind="sap", iterations=4, sap=hp)
        rec = run_pruning(alg, Scope.NEURON_WISE, specs, cfg, train, test)
        for it in rec.iterations:
            for entry in it.groups:
                assert replay_count(entry, hp) == entry["c"]

    def test_sap_eta0_gamma1_prune_ceiling(self):
        specs, cfg, train, test = tiny_run_setup()
        hp = SapHyperParams(norms=NormPair(0.5, 1.0), eta=0.0, gamma=1.0, beta=0.9)
        alg = AlgorithmSpec(kind="sap", iterations=4, sap=hp)
        rec = run_pruning(alg, Scope.GLOBAL, specs, cfg, train, test)
        qp = hp.norms.q * hp.norms.p / (hp.norms.q - hp.norms.p)
        for it in rec.iterations:
            for entry in it.groups:
                ceiling = entry["d"] * (1 - (1 - entry["pqi"]) ** qp) + 1
                assert entry["c"] <= ceiling

    def test_group_exhaustion_is_skipped(self):
        specs, cfg, train, test = tiny_run_setup()
        hp = SapHyperParams(norms=NormPair(0.5, 1.0), eta=50.0, gamma=50.0, beta=1.0)
        alg = AlgorithmSpec(kind="sap", iterations=3, sap=hp)
        rec = run_pruning(alg, Scope.GLOBAL, specs, cfg, train, test)
        assert rec.completed
        assert rec.iterations[-1].d_t == 0
        assert math.isnan(rec.iterations[-1].pqi_retrained)

    def test_diverged_training_is_recorded(self):
        specs, cfg, train, test = tiny_run_setup()
        cfg = dataclasses.replace(cfg, learning_rate=1e6, batch_size=8)
        alg = AlgorithmSpec(kind="sap", iterations=2)
        # The suite runs with warnings as errors: numpy's overflow warnings
        # must not turn a diverged run into a raised one.
        rec = run_pruning(alg, Scope.NEURON_WISE, specs, cfg, train, test)
        assert not rec.completed
        assert rec.events == [
            "iteration 0: training diverged: non-finite loss at epoch 1, batch offset 64"
        ]
        assert rec.iterations == []

    def test_all_zero_row_is_skipped(self, monkeypatch):
        specs, cfg, train, test = tiny_run_setup()
        k, cols = 2, specs[0].in_size
        masks = []
        train_fn = nn.train

        def train_zeroing_row(params, mask, data, train_cfg):
            masks.append(mask.flat.copy())
            model = train_fn(params, mask, data, train_cfg)
            model.weights[0][k] = 0.0
            return model

        monkeypatch.setattr(nn, "train", train_zeroing_row)
        alg = AlgorithmSpec(kind="sap", iterations=1)
        rec = run_pruning(alg, Scope.NEURON_WISE, specs, cfg, train, test)
        label = f"layer0/neuron{k}"
        assert f"iteration 0: group {label} all-zero survivors; skipped" in rec.events
        first, second = rec.iterations
        assert label not in [entry["label"] for entry in first.groups]
        # Round 0 pruned other rows but none of row k's weights.
        after = masks[1]
        assert after[k * cols : (k + 1) * cols].all()
        assert not after.all()
        assert first.c_total == sum(entry["c"] for entry in first.groups)
        assert first.c_total == first.d_t - second.d_t == after.size - after.sum()

    def test_record_row_count(self):
        specs, cfg, train, test = tiny_run_setup()
        alg = AlgorithmSpec(kind="lottery_ticket", iterations=4)
        rec = run_pruning(alg, Scope.GLOBAL, specs, cfg, train, test)
        assert len(rec.iterations) == 5
        assert [it.t for it in rec.iterations] == list(range(5))
