import logging
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
    sap_prune_count,
)
from pqprune.sparsity import NormPair, pq_index_max


def single_row_params(values):
    """One dense layer whose flat weight magnitudes are `values`."""
    values = np.asarray(values, dtype=float)
    spec = [nn.LayerSpec(values.size, 1, "none")]
    return nn.NetworkParams(spec, [values.reshape(1, -1)], [np.zeros(1)])


def tiny_run_setup(seed=0, n=200, features=8):
    train, test = gen_synthetic(
        SyntheticSpec(n_samples=n, n_features=features, n_classes=2, seed=seed)
    )
    specs = [nn.LayerSpec(features, 6, "relu"), nn.LayerSpec(6, 2, "none")]
    cfg = nn.TrainConfig(epochs=2, batch_size=32, seed=seed)
    return specs, cfg, train, test


class TestPartition:
    def test_global_single_group(self):
        params = nn.init_network(nn.mlp_spec(784, 10), seed=0)
        groups = partition(params, PruningMask.all_ones(params), Scope.GLOBAL)
        assert len(groups) == 1
        assert groups[0].survivors == 135_680

    def test_layer_wise_mlp(self):
        params = nn.init_network(nn.mlp_spec(784, 10), seed=0)
        groups = partition(params, PruningMask.all_ones(params), Scope.LAYER_WISE)
        assert [g.survivors for g in groups] == [784 * 128, 128 * 256, 256 * 10]

    def test_neuron_wise_mlp(self):
        params = nn.init_network(nn.mlp_spec(784, 10), seed=0)
        groups = partition(params, PruningMask.all_ones(params), Scope.NEURON_WISE)
        assert len(groups) == 128 + 256 + 10
        layer2 = [g for g in groups if g.label.startswith("layer1/")]
        assert len(layer2) == 256
        assert all(g.survivors == 128 for g in layer2)

    def test_masked_entries_excluded(self):
        params = single_row_params([0.5, 0.1, 0.3, 0.7])
        mask = PruningMask.all_ones(params)
        mask.flat[1] = 0.0
        (group,) = partition(params, mask, Scope.GLOBAL)
        assert group.survivors == 3
        assert list(group.magnitudes) == [0.5, 0.3, 0.7]

    def test_groups_cover_exactly_once(self):
        params = nn.init_network(nn.mlp_spec(12, 3), seed=1)
        mask = PruningMask.all_ones(params)
        for scope in Scope:
            groups = partition(params, mask, scope)
            all_idx = np.concatenate([g.indices for g in groups])
            assert sorted(all_idx) == list(range(mask.index_map.total))


def sequential_prune(group, mask, count):
    """Reference step: a new mask per group with its `count` smallest
    surviving magnitudes zeroed (ties to the lowest flat index, a count
    above the survivors clamped with a warning)."""
    if count > group.survivors:
        logging.getLogger("pqprune.pruning").warning(
            "prune count %d exceeds %d survivors in %s; clamping",
            count, group.survivors, group.label,
        )
        count = group.survivors
    out = mask.copy()
    if count:
        order = np.argsort(group.magnitudes, kind="stable")
        out.flat[group.indices[order[:count]]] = 0.0
    return out


class TestMagnitudePrune:
    def test_smallest_two(self):
        params = single_row_params([0.5, 0.1, 0.3, 0.7])
        mask = PruningMask.all_ones(params)
        (group,) = partition(params, mask, Scope.GLOBAL)
        out = mask.without([magnitude_prune(group, 2)])
        assert list(out.flat) == [1.0, 0.0, 0.0, 1.0]
        assert list(mask.flat) == [1.0, 1.0, 1.0, 1.0]  # input untouched

    def test_already_masked_not_recounted(self):
        params = single_row_params([0.5, 0.1, 0.3, 0.7])
        mask = PruningMask.all_ones(params)
        mask.flat[1] = 0.0
        (group,) = partition(params, mask, Scope.GLOBAL)
        assert list(magnitude_prune(group, 1)) == [2]
        out = mask.without([magnitude_prune(group, 1)])
        assert list(out.flat) == [1.0, 0.0, 0.0, 1.0]

    def test_tie_breaks_to_lowest_index(self):
        params = single_row_params([0.2, 0.2, 1.0])
        mask = PruningMask.all_ones(params)
        (group,) = partition(params, mask, Scope.GLOBAL)
        assert list(magnitude_prune(group, 1)) == [0]
        out = mask.without([magnitude_prune(group, 1)])
        assert list(out.flat) == [0.0, 1.0, 1.0]

    def test_overlarge_count_clamped(self, caplog):
        params = single_row_params([0.2, 0.4])
        mask = PruningMask.all_ones(params)
        (group,) = partition(params, mask, Scope.GLOBAL)
        with caplog.at_level("WARNING"):
            out = mask.without([magnitude_prune(group, 5)])
        assert out.ones_count() == 0
        assert any("clamping" in m for m in caplog.messages)

    @pytest.mark.parametrize("scope", list(Scope))
    def test_one_pass_matches_sequential_oracle(self, scope, caplog):
        rng = np.random.default_rng(11)
        for trial in range(6):
            params = nn.init_network(nn.mlp_spec(12, 3), seed=trial)
            # Exact ties and zeros alongside the continuous weights.
            params.weights[0][:, :4] = 0.25
            params.weights[1][::3] = 0.0
            mask = PruningMask.all_ones(params)
            mask.flat[rng.random(mask.flat.size) < 0.3] = 0.0
            groups = partition(params, mask, scope)
            # 0, in range, or above the survivor count (clamped).
            counts = [
                int(rng.choice([0, rng.integers(0, g.survivors + 1), g.survivors + 3]))
                for g in groups
            ]
            expected = mask
            caplog.clear()
            with caplog.at_level("WARNING"):
                for group, count in zip(groups, counts):
                    expected = sequential_prune(group, expected, count)
                oracle_warnings = len(caplog.messages)
                caplog.clear()
                got = mask.without(magnitude_prune(g, c) for g, c in zip(groups, counts))
                assert len(caplog.messages) == oracle_warnings
            assert oracle_warnings == sum(c > g.survivors for g, c in zip(groups, counts))
            np.testing.assert_array_equal(got.flat, expected.flat)
            assert got.ones_count() == mask.ones_count() - sum(
                min(c, g.survivors) for g, c in zip(groups, counts)
            )


class TestSapCount:
    def test_direct_arithmetic(self):
        assert sap_prune_count(1000, 900.0, 1.0, 0.9) == 100
        assert sap_prune_count(1000, 900.0, 2.0, 0.9) == 200

    def test_beta_cap(self):
        assert sap_prune_count(1000, 50.0, 1.0, 0.9) == 900

    def test_negative_noise_clamped(self):
        assert sap_prune_count(10, 10.0 * (1 + 1e-15), 1.0, 0.9) == 0

    def test_one_hot_chain(self):
        d = 40
        values = np.zeros(d)
        values[17] = 1.0
        params = single_row_params(values)
        (group,) = partition(params, PruningMask.all_ones(params), Scope.GLOBAL)
        hp = SapHyperParams(norms=NormPair(0.5, 1.0), eta=0.0, gamma=1.0, beta=0.9)
        decision = sap_count(group, hp)
        assert decision.index == pytest.approx(pq_index_max(d, hp.norms), abs=1e-12)
        assert decision.bound == pytest.approx(1.0, abs=1e-9)
        assert decision.count == math.floor(d * min(1 - 1 / d, 0.9))

    def test_all_zero_group_raises(self):
        from pqprune.sparsity import UndefinedIndexError

        params = single_row_params([0.0, 0.0, 0.0])
        (group,) = partition(params, PruningMask.all_ones(params), Scope.GLOBAL)
        with pytest.raises(UndefinedIndexError):
            sap_count(group, SapHyperParams())


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

    def test_record_row_count(self):
        specs, cfg, train, test = tiny_run_setup()
        alg = AlgorithmSpec(kind="lottery_ticket", iterations=4)
        rec = run_pruning(alg, Scope.GLOBAL, specs, cfg, train, test)
        assert len(rec.iterations) == 5
        assert [it.t for it in rec.iterations] == list(range(5))
