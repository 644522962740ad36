import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from pqprune import nn, pruning
from pqprune.data_io import SyntheticSpec, gen_synthetic
from pqprune.pruning import (
    AlgorithmSpec,
    PruningMask,
    SapHyperParams,
    Scope,
    _prune_round,
    _surviving_index,
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
    cfg = nn.TrainConfig(epochs=2, batch_size=32, weight_decay=5e-4)
    return specs, cfg, train, test


def row_slices(blocks):
    """(label, lo, hi) of every group: row r of a block spans the flat
    weights [offset + r * cols, offset + (r + 1) * cols)."""
    return [
        (labels[r], offset + r * cols, offset + (r + 1) * cols)
        for labels, offset, rows, cols in blocks
        for r in range(rows)
    ]


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
        assert list(single_row_prune([0.5, 0.1, 0.3, 0.7], keep, 3)) == [0, 2, 3]
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

    def test_unknown_scope_rejected(self):
        with pytest.raises(ValueError, match="^unknown scope 'row_wise'$"):
            partition(single_row_params([0.3, 0.1]), "row_wise")


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
        mask = PruningMask(np.ones(params.n_weights, dtype=bool))
        blocks = partition(params, Scope.GLOBAL)
        flat = mask.flat
        alg = AlgorithmSpec("lottery_ticket", ratio=0.5)
        group_logs, skipped = _prune_round(alg, blocks, nn.flatten_prunable(params), mask)
        assert (group_logs, skipped) == ([{"label": "global", "d": 4, "c": 2}], [])
        assert list(mask.flat) == [True, False, False, True]
        assert mask.flat is flat  # pruned in place

    def test_baseline_count_floors_the_binary_double(self):
        # 90 * 0.7 is 62.99999999999999 in doubles, so the count is 62, not 63.
        params = single_row_params(np.arange(1.0, 91.0))
        mask = PruningMask(np.ones(90, dtype=bool))
        alg, blocks = AlgorithmSpec("lottery_ticket", ratio=0.7), partition(params, Scope.GLOBAL)
        assert _prune_round(alg, blocks, nn.flatten_prunable(params), mask)[0][0]["c"] == 62

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
    def test_one_pass_matches_sequential_oracle(self, scope, monkeypatch):
        rng = np.random.default_rng(11)
        for trial in range(6):
            params = nn.init_network(nn.model_specs("MLP", 12, 3), seed=trial)
            # Exact ties and zeros alongside the continuous weights, and a
            # row whose magnitudes are all zero.
            params.weights[0][:, :4] = 0.25
            params.weights[1][::3] = 0.0
            params.weights[0][1] = 0.0
            mags = nn.flatten_prunable(params)
            mask = PruningMask(np.ones(params.n_weights, dtype=bool))
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
            # SAP's count for each row with survivors, in the order it decides them.
            decided = [(d, c) for d, c in zip(survivors, counts) if d]
            chosen = iter(decided)

            def chosen_count(surv, hp):
                d, c = next(chosen)
                assert surv.size == d
                return {"pqi": 0.5, "r": 0.0, "c": c}

            monkeypatch.setattr(pruning, "sap_count", chosen_count)
            d = np.count_nonzero(mask.flat)
            group_logs, skipped = _prune_round(AlgorithmSpec("sap"), blocks, mags, mask)
            assert next(chosen, None) is None and skipped == []
            assert [entry["c"] for entry in group_logs] == [c for _, c in decided]
            np.testing.assert_array_equal(mask.flat, expected.flat)
            assert np.count_nonzero(mask.flat) == d - sum(counts)


def argsort_prune(mags, keep, counts):
    """`magnitude_prune` as one stable sort along the rows, with dropped
    entries sorted last, each row's positions in magnitude order: the
    reference for the selection."""
    order = np.argsort(np.where(keep, mags, np.inf), axis=1, kind="stable")
    first = np.arange(mags.shape[1]) < np.asarray(counts)[:, None]
    return np.nonzero(first)[0] * mags.shape[1] + order[first]


@pytest.mark.parametrize("density", [1.0, 0.5, 0.1, 0.01])
def test_selection_matches_stable_argsort(density):
    rng = np.random.default_rng(int(density * 100))
    for trial in range(150):
        rows = (1, 3, 17)[trial % 3]
        d = int(rng.integers(1, 2000 // rows + 1))
        # Quarter steps tie often; a fifth of the entries are zero.
        mags = rng.integers(0, 8, (rows, d)) / 4 if trial % 2 else rng.random((rows, d))
        mags[rng.random((rows, d)) < 0.2] = 0.0
        keep = rng.random((rows, d)) < density
        survivors = np.count_nonzero(keep, axis=1)
        # Each row its own count: 0, every survivor, or one in between.
        mixed = [int(rng.choice([0, s, rng.integers(0, s + 1)])) for s in survivors]
        for counts in (np.zeros(rows, int), survivors, rng.integers(0, survivors + 1), mixed):
            got = magnitude_prune(mags, keep, counts)
            np.testing.assert_array_equal(got, np.sort(argsort_prune(mags, keep, counts)))


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
        rec = run_pruning(alg, Scope.GLOBAL, specs, cfg, 0, train, test)
        d = rec.iterations[0].d_t
        d0 = d
        for it in rec.iterations:
            assert it.d_t == d
            assert it.percent_remaining == pytest.approx(d / d0)
            d = d - math.floor(0.2 * d)

    def test_mask_monotone_and_bookkeeping(self):
        specs, cfg, train, test = tiny_run_setup()
        alg = AlgorithmSpec(kind="sap", iterations=5)
        rec = run_pruning(alg, Scope.LAYER_WISE, specs, cfg, 0, train, test)
        for a, b in zip(rec.iterations, rec.iterations[1:]):
            assert b.d_t == a.d_t - a.c_total
            assert b.d_t <= a.d_t

    def test_one_shot_matches_lottery_at_first_prune(self):
        specs, cfg, train, test = tiny_run_setup()
        os_rec = run_pruning(AlgorithmSpec(kind="one_shot", iterations=3), Scope.GLOBAL,
                             specs, cfg, 0, train, test)
        lt_rec = run_pruning(AlgorithmSpec(kind="lottery_ticket", iterations=3), Scope.GLOBAL,
                             specs, cfg, 0, train, test)
        # Same trained w_0, same prune rule: identical mask after iteration 0.
        assert os_rec.iterations[0].acc_pruned == lt_rec.iterations[0].acc_pruned
        assert os_rec.iterations[0].pqi_pruned == lt_rec.iterations[0].pqi_pruned
        assert os_rec.iterations[1].d_t == lt_rec.iterations[1].d_t

    def test_one_shot_never_retrains(self):
        specs, cfg, train, test = tiny_run_setup()
        rec = run_pruning(AlgorithmSpec(kind="one_shot", iterations=3), Scope.GLOBAL,
                          specs, cfg, 0, train, test)
        # Pruned metrics of iteration t equal retrained metrics of t+1: both
        # evaluate the same frozen weights under m_{t+1}.
        for a, b in zip(rec.iterations, rec.iterations[1:]):
            assert a.acc_pruned == b.acc_retrained
            assert a.loss_pruned == b.loss_retrained

    def test_one_shot_evaluates_once_per_round(self, monkeypatch):
        specs, cfg, train, test = tiny_run_setup()
        calls, trained = [], []
        evaluate, train_fn = nn.evaluate, nn.train
        monkeypatch.setattr(nn, "evaluate", lambda *a: calls.append(a[0]) or evaluate(*a))
        monkeypatch.setattr(nn, "train", lambda *a: trained.append(train_fn(*a)) or trained[-1])
        rec = run_pruning(AlgorithmSpec(kind="one_shot", iterations=4), Scope.NEURON_WISE,
                          specs, cfg, 0, train, test)
        # Round 0's retrained metrics, then one call per round that pruned:
        # a round whose counts are all zero keeps its mask and its metrics.
        assert len(calls) == 1 + sum(it.c_total > 0 for it in rec.iterations)
        # Every round evaluates the one network trained at t=0.
        assert len(trained) == 1 and all(model is trained[0] for model in calls)
        assert rec.iterations[-1].c_total == 0
        # The carried-over retrained index equals last round's pruned index.
        for a, b in zip(rec.iterations, rec.iterations[1:]):
            assert a.pqi_pruned == b.pqi_retrained

    @pytest.mark.parametrize(
        "kind, scope, iterations",
        [
            ("sap", Scope.LAYER_WISE, 12),
            ("sap", Scope.NEURON_WISE, 4),
            ("lottery_ticket", Scope.NEURON_WISE, 6),
            # layer1 stops pruning several rounds before layer0 does.
            ("lottery_ticket", Scope.LAYER_WISE, 15),
        ],
    )
    def test_round_that_prunes_nothing_reuses_its_network(
        self, kind, scope, iterations, monkeypatch
    ):
        specs, cfg, train, test = tiny_run_setup()
        trained, evaluations, decisions, rounds, selected_in = [], [], [], [], []
        train_fn, evaluate, count = nn.train, nn.evaluate, pruning.sap_count
        prune_round, prune = pruning._prune_round, pruning.magnitude_prune

        def recording_train(params, mask, data, train_cfg, seed):
            model = train_fn(params, mask, data, train_cfg, seed)
            trained.append((model, PruningMask(mask.flat.copy())))
            return model

        monkeypatch.setattr(nn, "train", recording_train)
        monkeypatch.setattr(nn, "evaluate", lambda *a: evaluations.append(1) or evaluate(*a))
        monkeypatch.setattr(pruning, "sap_count", lambda *a: decisions.append(1) or count(*a))
        monkeypatch.setattr(pruning, "_prune_round",
                            lambda *a: rounds.append(1) or prune_round(*a))
        monkeypatch.setattr(pruning, "magnitude_prune",
                            lambda *a: selected_in.append(len(rounds) - 1) or prune(*a))
        alg = AlgorithmSpec(kind=kind, iterations=iterations)
        rec = run_pruning(alg, scope, specs, cfg, 0, train, test)
        for a, b in zip(rec.iterations, rec.iterations[1:]):
            assert b.d_t == a.d_t - a.c_total
        # Rounds 0..k-1 prune; round k trains under their mask and prunes
        # nothing, and so, with the same network, does every later round.
        pruned = [it.c_total > 0 for it in rec.iterations]
        k = pruned.index(False)
        assert 0 < k < iterations
        assert pruned == [True] * k + [False] * (iterations + 1 - k)
        assert len(trained) == k + 1
        assert len(evaluations) == 2 * k + 1
        # Each pruning round selects in some block; the stalled round in none.
        assert len(rounds) == k + 1
        assert sorted(set(selected_in)) == list(range(k))
        # SAP decides each surviving row once per round up to the first
        # round that prunes nothing; later rounds repeat its decisions.
        rows_with_survivors = sum(
            len(it.groups) + sum(e.startswith(f"iteration {it.t}: ") for e in rec.events)
            for it in rec.iterations[: k + 1]
        )
        assert len(decisions) == (rows_with_survivors if kind == "sap" else 0)
        model, mask = trained[-1]
        acc, loss = evaluate(model, test)
        pqi, gini = _surviving_index(nn.flatten_prunable(model), mask, NormPair(0.5, 1.0))
        for it in rec.iterations[k:]:
            assert it.d_t == np.count_nonzero(mask.flat)
            assert (it.acc_retrained, it.loss_retrained) == (acc, loss)
            assert (it.acc_pruned, it.loss_pruned) == (acc, loss)
            assert (it.pqi_retrained, it.pqi_pruned, it.gini_retrained) == (pqi, pqi, gini)
            assert (it.delta_acc, it.delta_pqi) == (0.0, 0.0)

    @pytest.mark.parametrize("kind", ["sap", "lottery_ticket", "one_shot"])
    def test_retraining_round_lets_the_last_network_go(self, kind, monkeypatch):
        specs, cfg, train, test = tiny_run_setup()
        made = []  # weak references to every network, weight vector and magnitudes made
        trainings = []
        train_fn, init, flatten = nn.train, nn.init_network, nn.flatten_prunable
        initial = init(specs, 0).flat

        def recording_init(layer_specs, seed):
            gc.collect()
            # The last round's network and magnitudes have gone before the
            # initial network is rebuilt.
            assert all(ref() is None for ref in made)
            params = init(layer_specs, seed)
            made.extend([weakref.ref(params), weakref.ref(params.flat)])
            return params

        def checking_train(params, mask, data, train_cfg, seed):
            gc.collect()
            # The network built at the top is trained at t=0 and rebuilt for
            # every later round, never held beside the one being trained.
            alive = [obj for obj in (ref() for ref in made) if obj is not None]
            assert len(alive) == 2 and alive[0] is params and alive[1] is params.flat
            assert np.array_equal(params.flat, initial)
            trainings.append(len(made))
            model = train_fn(params, mask, data, train_cfg, seed)
            assert model is params
            return model

        def recording_flatten(model):
            mags = flatten(model)
            made.append(weakref.ref(mags))
            return mags

        monkeypatch.setattr(nn, "init_network", recording_init)
        monkeypatch.setattr(nn, "train", checking_train)
        monkeypatch.setattr(nn, "flatten_prunable", recording_flatten)
        rec = run_pruning(AlgorithmSpec(kind=kind, iterations=3), Scope.LAYER_WISE,
                          specs, cfg, 0, train, test)
        assert all(it.c_total > 0 for it in rec.iterations)
        assert trainings == ([2] if kind == "one_shot" else [2, 5, 8, 11])

    @pytest.mark.parametrize("kind", ["sap", "lottery_ticket", "one_shot"])
    def test_no_magnitudes_are_held_while_evaluating(self, kind, monkeypatch):
        specs, cfg, train, test = tiny_run_setup()
        taken = []  # weak references to every magnitude vector taken
        evaluations = []  # how many had been taken at each evaluation
        flatten, evaluate = nn.flatten_prunable, nn.evaluate

        def recording_flatten(model):
            mags = flatten(model)
            taken.append(weakref.ref(mags))
            return mags

        def checking_evaluate(net, data):
            gc.collect()
            assert all(ref() is None for ref in taken)
            evaluations.append(len(taken))
            return evaluate(net, data)

        monkeypatch.setattr(nn, "flatten_prunable", recording_flatten)
        monkeypatch.setattr(nn, "evaluate", checking_evaluate)
        rec = run_pruning(AlgorithmSpec(kind=kind, iterations=3), Scope.LAYER_WISE,
                          specs, cfg, 0, train, test)
        assert all(it.c_total > 0 for it in rec.iterations)
        # Each round takes its magnitudes after its retrained evaluation, if
        # it has one, and drops them before its pruned evaluation.
        assert evaluations == ([0, 1, 2, 3, 4] if kind == "one_shot"
                               else [0, 1, 1, 2, 2, 3, 3, 4])

    @pytest.mark.parametrize("kind", ["sap", "lottery_ticket", "one_shot"])
    def test_each_round_is_evaluated_under_its_own_masks(self, kind, monkeypatch):
        specs, cfg, train, test = tiny_run_setup()
        trained, next_masks = [], []
        train_fn, prune_round = nn.train, pruning._prune_round

        def recording_train(*args):
            model = train_fn(*args)
            trained.append(model.flat.copy())
            return model

        def recording_prune_round(alg, blocks, mags, mask):
            decided = prune_round(alg, blocks, mags, mask)
            next_masks.append(PruningMask(mask.flat.copy()))
            return decided

        monkeypatch.setattr(nn, "train", recording_train)
        monkeypatch.setattr(pruning, "_prune_round", recording_prune_round)
        rec = run_pruning(AlgorithmSpec(kind=kind, iterations=3), Scope.LAYER_WISE,
                          specs, cfg, 0, train, test)
        assert all(it.c_total > 0 for it in rec.iterations)
        masks = [PruningMask(np.ones(next_masks[0].flat.size, dtype=bool)), *next_masks]

        def measured(flat, mask):
            return nn.evaluate(nn.apply_mask(nn.NetworkParams(specs, flat.copy()), mask), test)

        for t, it in enumerate(rec.iterations):
            # Round t's network as training left it, once with m_t applied and
            # once with m_{t+1}; one shot's network is the one trained at t=0.
            flat = trained[0 if kind == "one_shot" else t]
            assert (it.acc_retrained, it.loss_retrained) == measured(flat, masks[t])
            assert (it.acc_pruned, it.loss_pruned) == measured(flat, masks[t + 1])
            assert it.d_t == np.count_nonzero(masks[t].flat)
        # m_{t+1} drops weights that m_t keeps, so some round's metrics move.
        assert any(it.loss_pruned != it.loss_retrained for it in rec.iterations)

    def test_stalled_rounds_repeat_the_skipped_groups_under_their_own_t(self, monkeypatch):
        specs, cfg, train, test = tiny_run_setup()
        train_fn, count = nn.train, pruning.sap_count
        decisions = []

        def train_to_zero(params, mask, data, train_cfg, seed):
            model = train_fn(params, mask, data, train_cfg, seed)
            model.flat[: model.n_weights] = 0.0
            return model

        monkeypatch.setattr(nn, "train", train_to_zero)
        monkeypatch.setattr(pruning, "sap_count", lambda *a: decisions.append(1) or count(*a))
        iterations = 3
        rec = run_pruning(AlgorithmSpec(kind="sap", iterations=iterations), Scope.NEURON_WISE,
                          specs, cfg, 0, train, test)
        # Every row is all zero, so round 0 prunes nothing and rounds 1-3
        # repeat it: the same metrics and groups, and the same skipped rows.
        labels = [label for labels, *_ in partition(nn.init_network(specs, 0), Scope.NEURON_WISE)
                  for label in labels]
        assert len(decisions) == len(labels)
        assert rec.completed
        assert rec.events == [
            f"iteration {t}: group {label} all-zero survivors; skipped"
            for t in range(iterations + 1)
            for label in labels
        ]
        assert [it.t for it in rec.iterations] == list(range(iterations + 1))
        first = dataclasses.asdict(rec.iterations[0])
        for it in rec.iterations[1:]:
            assert dataclasses.asdict(it) == {**first, "t": it.t}
        assert first["c_total"] == 0 and first["groups"] == []

    def test_sap_replay_exact(self):
        specs, cfg, train, test = tiny_run_setup()
        hp = SapHyperParams(norms=NormPair(0.5, 1.0), eta=0.5, gamma=1.5, beta=0.9)
        alg = AlgorithmSpec(kind="sap", iterations=4, sap=hp)
        rec = run_pruning(alg, Scope.NEURON_WISE, specs, cfg, 0, train, test)
        for it in rec.iterations:
            for entry in it.groups:
                assert replay_count(entry, hp) == entry["c"]

    def test_sap_eta0_gamma1_prune_ceiling(self):
        specs, cfg, train, test = tiny_run_setup()
        hp = SapHyperParams(norms=NormPair(0.5, 1.0), eta=0.0, gamma=1.0, beta=0.9)
        alg = AlgorithmSpec(kind="sap", iterations=4, sap=hp)
        rec = run_pruning(alg, Scope.GLOBAL, specs, cfg, 0, train, test)
        qp = hp.norms.q * hp.norms.p / (hp.norms.q - hp.norms.p)
        for it in rec.iterations:
            for entry in it.groups:
                ceiling = entry["d"] * (1 - (1 - entry["pqi"]) ** qp) + 1
                assert entry["c"] <= ceiling

    def test_group_exhaustion_is_skipped(self):
        specs, cfg, train, test = tiny_run_setup()
        hp = SapHyperParams(norms=NormPair(0.5, 1.0), eta=50.0, gamma=50.0, beta=1.0)
        alg = AlgorithmSpec(kind="sap", iterations=3, sap=hp)
        rec = run_pruning(alg, Scope.GLOBAL, specs, cfg, 0, train, test)
        assert rec.completed
        assert rec.iterations[-1].d_t == 0
        assert math.isnan(rec.iterations[-1].pqi_retrained)

    def test_diverged_training_is_recorded(self):
        specs, cfg, train, test = tiny_run_setup()
        cfg = dataclasses.replace(cfg, learning_rate=1e6, batch_size=8)
        alg = AlgorithmSpec(kind="sap", iterations=2)
        # The suite runs with warnings as errors: numpy's overflow warnings
        # must not turn a diverged run into a raised one.
        rec = run_pruning(alg, Scope.NEURON_WISE, specs, cfg, 0, train, test)
        assert not rec.completed
        assert rec.events == [
            "iteration 0: training diverged: non-finite loss at epoch 1, batch offset 64"
        ]
        assert rec.iterations == []

    @pytest.mark.parametrize("kind", ["sap", "one_shot"])
    def test_non_finite_test_loss_is_recorded_as_diverged(self, kind, monkeypatch):
        specs, cfg, train, test = tiny_run_setup()
        train_fn = nn.train

        def train_to_huge_weights(params, mask, data, train_cfg, seed):
            # Finite weights whose forward pass overflows on the test split.
            model = train_fn(params, mask, data, train_cfg, seed)
            model.flat[: model.n_weights] *= 1e300
            return model

        monkeypatch.setattr(nn, "train", train_to_huge_weights)
        rec = run_pruning(AlgorithmSpec(kind=kind, iterations=2), Scope.GLOBAL,
                          specs, cfg, 0, train, test)
        assert not rec.completed
        assert rec.events == ["iteration 0: training diverged: non-finite test loss"]
        assert rec.iterations == []

    def test_all_zero_row_is_skipped(self, monkeypatch):
        specs, cfg, train, test = tiny_run_setup()
        k, cols = 2, specs[0].in_size
        masks = []
        train_fn = nn.train

        def train_zeroing_row(params, mask, data, train_cfg, seed):
            masks.append(mask.flat.copy())
            model = train_fn(params, mask, data, train_cfg, seed)
            model.weights[0][k] = 0.0
            return model

        monkeypatch.setattr(nn, "train", train_zeroing_row)
        alg = AlgorithmSpec(kind="sap", iterations=1)
        rec = run_pruning(alg, Scope.NEURON_WISE, specs, cfg, 0, train, test)
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
        rec = run_pruning(alg, Scope.GLOBAL, specs, cfg, 0, train, test)
        assert len(rec.iterations) == 5
        assert [it.t for it in rec.iterations] == list(range(5))
