import fcntl
import math
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pqprune.data_io import (
    IDX_IMAGE_MAGIC,
    IDX_LABEL_MAGIC,
    IdxFormatError,
    SyntheticSpec,
    gen_synthetic,
    load_idx,
    read_run_record,
    write_run_record,
)
from pqprune.nn import Dataset
from pqprune.records import CSV_FIELDS, IterationMetrics, RunRecord


def write_idx(images: np.ndarray, labels: np.ndarray, images_path, labels_path):
    """Write a (n, rows, cols) uint8 stack and labels in IDX format."""
    n, rows, cols = images.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, rows, cols))
        f.write(np.ascontiguousarray(images, dtype=np.uint8).tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, n))
        f.write(np.ascontiguousarray(labels, dtype=np.uint8).tobytes())


def reference_synthetic(spec: SyntheticSpec) -> tuple[Dataset, Dataset]:
    """gen_synthetic with the shuffle as a fancy-index copy, `X[perm]`: the
    reference that the in-place shuffle must match bit for bit."""
    rng = np.random.default_rng(spec.seed)
    counts = [spec.n_samples // spec.n_classes] * spec.n_classes
    for k in range(spec.n_samples % spec.n_classes):
        counts[k] += 1
    labels = np.concatenate([np.full(c, k, dtype=int) for k, c in enumerate(counts)])
    X = rng.standard_normal((spec.n_samples, spec.n_features))
    X[:, 0] += labels * spec.class_separation
    perm = rng.permutation(spec.n_samples)
    X, labels = X[perm], labels[perm]
    n_train = int(round(spec.n_samples * 0.8))
    return (
        Dataset(X[:n_train], labels[:n_train]),
        Dataset(X[n_train:], labels[n_train:]),
    )


def traced_peak(fn):
    """`fn()` and the peak bytes traced by tracemalloc while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSynthetic:
    @pytest.mark.parametrize(
        "spec",
        [
            SyntheticSpec(n_samples=3),
            SyntheticSpec(n_samples=101, n_features=4, n_classes=3, seed=1),
            SyntheticSpec(n_samples=50, n_features=1, n_classes=5, seed=3),
            SyntheticSpec(n_samples=1000, n_features=20, seed=7),
            SyntheticSpec(n_samples=4000, n_features=784, n_classes=10, seed=5),
        ],
        ids=["n3", "101x4x3", "one_feature", "1000x20", "4000x784"],
    )
    def test_equals_the_fancy_index_reference(self, spec):
        for got, want in zip(gen_synthetic(spec), reference_synthetic(spec)):
            assert got.inputs.tobytes() == want.inputs.tobytes()
            assert got.labels.tobytes() == want.labels.tobytes()
            assert got.inputs.shape == want.inputs.shape

    def test_holds_one_copy_of_the_matrix(self):
        spec = SyntheticSpec(n_samples=4000, n_features=784, n_classes=10)
        (train, test), peak = traced_peak(lambda: gen_synthetic(spec))
        nbytes = train.inputs.nbytes + test.inputs.nbytes
        assert peak <= 1.25 * nbytes, f"peak {peak / nbytes:.2f}x the data matrix"

    def test_split_with_an_empty_side_rejected(self):
        with pytest.raises(ValueError, match="n_samples = 2 leaves .* 2 train and 0 test rows"):
            SyntheticSpec(n_samples=2)

    def test_deterministic(self):
        spec = SyntheticSpec(n_samples=100, n_features=5, seed=42)
        a_train, a_test = gen_synthetic(spec)
        b_train, b_test = gen_synthetic(spec)
        assert np.array_equal(a_train.inputs, b_train.inputs)
        assert np.array_equal(a_test.labels, b_test.labels)

    def test_split_and_balance(self):
        spec = SyntheticSpec(n_samples=101, n_features=4, n_classes=3, seed=1)
        train, test = gen_synthetic(spec)
        assert len(train) == 81 and len(test) == 20
        counts = np.bincount(np.concatenate([train.labels, test.labels]), minlength=3)
        assert counts.max() - counts.min() <= 1

    def test_class_separation_places_means(self):
        spec = SyntheticSpec(n_samples=4000, n_features=3, seed=2, class_separation=5.0)
        train, test = gen_synthetic(spec)
        X = np.concatenate([train.inputs, test.inputs])
        y = np.concatenate([train.labels, test.labels])
        m0 = X[y == 0, 0].mean()
        m1 = X[y == 1, 0].mean()
        assert m1 - m0 == pytest.approx(5.0, abs=0.2)

    def test_zero_separation_identical_distributions(self):
        spec = SyntheticSpec(n_samples=4000, n_features=3, seed=2, class_separation=0.0)
        train, test = gen_synthetic(spec)
        X = np.concatenate([train.inputs, test.inputs])
        y = np.concatenate([train.labels, test.labels])
        assert abs(X[y == 0, 0].mean() - X[y == 1, 0].mean()) < 0.2

    def test_too_many_classes(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_samples=3, n_classes=5)


class TestIdx:
    def fixture_pair(self, tmp_path, n=8, rows=5, cols=5):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(n, rows, cols), dtype=np.uint8)
        labels = rng.integers(0, 10, size=n, dtype=np.uint8)
        ip, lp = tmp_path / "img.idx", tmp_path / "lbl.idx"
        write_idx(images, labels, ip, lp)
        return images, labels, ip, lp

    def test_round_trip(self, tmp_path):
        images, labels, ip, lp = self.fixture_pair(tmp_path)
        data = load_idx(ip, lp)
        assert data.inputs.shape == (8, 25)
        assert np.array_equal(data.inputs, images.reshape(8, 25) / 255.0)
        assert np.array_equal(data.labels, labels)

    def test_scaling_holds_one_float_matrix(self, tmp_path):
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, size=(6000, 28, 28), dtype=np.uint8)
        ip, lp = tmp_path / "img.idx", tmp_path / "lbl.idx"
        write_idx(images, np.zeros(6000, dtype=np.uint8), ip, lp)
        data, peak = traced_peak(lambda: load_idx(ip, lp))
        assert np.array_equal(data.inputs, images.reshape(6000, 784) / 255.0)
        nbytes = data.inputs.nbytes
        assert peak <= 1.25 * nbytes, f"peak {peak / nbytes:.2f}x the float matrix"

    def test_label_byte_is_class_id(self, tmp_path):
        images = np.zeros((1, 2, 2), dtype=np.uint8)
        labels = np.array([9], dtype=np.uint8)
        ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx(images, labels, ip, lp)
        assert load_idx(ip, lp).labels[0] == 9

    def test_wrong_magic(self, tmp_path):
        _, _, ip, lp = self.fixture_pair(tmp_path)
        raw = bytearray(ip.read_bytes())
        raw[3] = 0x99
        ip.write_bytes(bytes(raw))
        with pytest.raises(IdxFormatError, match="magic"):
            load_idx(ip, lp)

    def test_truncated_reports_offset(self, tmp_path):
        _, _, ip, lp = self.fixture_pair(tmp_path)
        raw = ip.read_bytes()
        ip.write_bytes(raw[:-10])
        with pytest.raises(IdxFormatError, match=r"byte \d+"):
            load_idx(ip, lp)

    @pytest.mark.parametrize(
        "header",
        [
            # 0xFFFFFFFF images of 0xFFFF x 0xFFFF pixels: more than any file holds.
            struct.pack(">IIII", IDX_IMAGE_MAGIC, 0xFFFFFFFF, 0xFFFF, 0xFFFF),
            # The header ends inside the row count.
            struct.pack(">II", IDX_IMAGE_MAGIC, 8) + b"\x00\x00",
        ],
        ids=["oversized", "truncated_header"],
    )
    def test_bad_header_reports_offset(self, tmp_path, header):
        _, _, ip, lp = self.fixture_pair(tmp_path)
        ip.write_bytes(header)
        with pytest.raises(IdxFormatError, match=r"byte \d+"):
            load_idx(ip, lp)

    def test_count_mismatch(self, tmp_path):
        images, labels, ip, lp = self.fixture_pair(tmp_path)
        write_idx(images[:4], labels[:4], tmp_path / "short.idx", tmp_path / "unused.idx")
        with pytest.raises(IdxFormatError, match="labels for"):
            load_idx(tmp_path / "short.idx", lp)


def make_record(iterations=4, d0=1000):
    rec = RunRecord(config={"algorithm": "sap", "seed": 0, "scope": "global"})
    d = d0
    for t in range(iterations):
        rec.iterations.append(
            IterationMetrics(
                t=t,
                d_t=d,
                percent_remaining=d / d0,
                acc_retrained=0.9 - 0.01 * t,
                loss_retrained=0.1 + 0.01 * t,
                acc_pruned=0.88 - 0.01 * t,
                loss_pruned=0.12,
                pqi_retrained=0.2 + 0.001 * t,
                pqi_pruned=0.19,
                gini_retrained=0.3,
                delta_acc=0.02,
                delta_pqi=0.01,
                c_total=d // 5,
                groups=[{"label": "global", "d": d, "pqi": 0.2, "c": d // 5}],
            )
        )
        d -= d // 5
    return rec


# The bytes of a hand-built record, as the files have always held them: the
# record's fields in order, NaN as JSON's NaN and the CSV's nan, floats in
# the CSV at 9 significant digits.
GOLDEN_RUN_JSON = """\
{
  "config": {
    "algorithm": "sap",
    "sap": {
      "p": 0.5,
      "q": 1.0
    },
    "seed": 3
  },
  "completed": false,
  "events": [
    "iteration 2: training diverged: non-finite loss at epoch 0, batch offset 0"
  ],
  "iterations": [
    {
      "t": 0,
      "d_t": 6,
      "percent_remaining": 1.0,
      "acc_retrained": 0.75,
      "loss_retrained": 0.3333333333333333,
      "acc_pruned": 0.5,
      "loss_pruned": 0.625,
      "pqi_retrained": 0.125,
      "pqi_pruned": NaN,
      "gini_retrained": 0.1,
      "delta_acc": 0.25,
      "delta_pqi": NaN,
      "c_total": 0,
      "groups": []
    },
    {
      "t": 1,
      "d_t": 4,
      "percent_remaining": 0.6666666666666666,
      "acc_retrained": 0.5,
      "loss_retrained": 0.7,
      "acc_pruned": 0.25,
      "loss_pruned": 1.5,
      "pqi_retrained": 0.2,
      "pqi_pruned": 0.3,
      "gini_retrained": 0.4,
      "delta_acc": 0.25,
      "delta_pqi": -0.1,
      "c_total": 1,
      "groups": [
        {
          "label": "global",
          "d": 4,
          "pqi": 0.2,
          "r": 2.5,
          "c": 1
        }
      ]
    }
  ]
}
"""

GOLDEN_ITERATIONS_CSV = """\
t,d_t,percent_remaining,acc_retrained,loss_retrained,acc_pruned,loss_pruned,pqi_retrained,pqi_pruned,gini_retrained,delta_acc,delta_pqi
0,6,1,0.75,0.333333333,0.5,0.625,0.125,nan,0.1,0.25,nan
1,4,0.666666667,0.5,0.7,0.25,1.5,0.2,0.3,0.4,0.25,-0.1
"""


def golden_record():
    rec = RunRecord(
        config={"algorithm": "sap", "sap": {"p": 0.5, "q": 1.0}, "seed": 3},
        completed=False,
        events=["iteration 2: training diverged: non-finite loss at epoch 0, batch offset 0"],
    )
    rec.iterations = [
        IterationMetrics(
            t=0, d_t=6, percent_remaining=1.0, acc_retrained=0.75, loss_retrained=1 / 3,
            acc_pruned=0.5, loss_pruned=0.625, pqi_retrained=0.125, pqi_pruned=math.nan,
            gini_retrained=0.1, delta_acc=0.25, delta_pqi=math.nan,
        ),
        IterationMetrics(
            t=1, d_t=4, percent_remaining=4 / 6, acc_retrained=0.5, loss_retrained=0.7,
            acc_pruned=0.25, loss_pruned=1.5, pqi_retrained=0.2, pqi_pruned=0.3,
            gini_retrained=0.4, delta_acc=0.25, delta_pqi=-0.1, c_total=1,
            groups=[{"label": "global", "d": 4, "pqi": 0.2, "r": 2.5, "c": 1}],
        ),
    ]
    return rec


class TestRunRecordIO:
    def test_round_trip(self, tmp_path):
        rec = make_record()
        write_run_record(rec, tmp_path / "run")
        back = read_run_record(tmp_path / "run")
        assert back == rec

    def test_golden_bytes(self, tmp_path):
        write_run_record(golden_record(), tmp_path)
        assert (tmp_path / "run.json").read_text() == GOLDEN_RUN_JSON
        assert (tmp_path / "iterations.csv").read_text() == GOLDEN_ITERATIONS_CSV

    def test_only_records_are_encoded(self, tmp_path):
        rec = golden_record()
        rec.config["model"] = object()
        with pytest.raises(TypeError, match="object is not JSON serializable"):
            write_run_record(rec, tmp_path)
        assert not (tmp_path / "run.json").exists()

    def test_csv_rows_and_header(self, tmp_path):
        rec = make_record(iterations=6)
        write_run_record(rec, tmp_path / "run")
        lines = (tmp_path / "run" / "iterations.csv").read_text().splitlines()
        assert lines[0] == ",".join(CSV_FIELDS)
        assert len(lines) == 7

    def test_percent_column_matches_counts(self, tmp_path):
        rec = make_record()
        write_run_record(rec, tmp_path / "run")
        lines = (tmp_path / "run" / "iterations.csv").read_text().splitlines()[1:]
        d0 = rec.iterations[0].d_t
        for line in lines:
            parts = line.split(",")
            assert float(parts[2]) == pytest.approx(int(parts[1]) / d0, abs=1e-6)

    def test_byte_deterministic(self, tmp_path):
        rec = make_record()
        write_run_record(rec, tmp_path / "a")
        write_run_record(rec, tmp_path / "b")
        assert (tmp_path / "a" / "run.json").read_bytes() == (
            tmp_path / "b" / "run.json"
        ).read_bytes()
        assert (tmp_path / "a" / "iterations.csv").read_bytes() == (
            tmp_path / "b" / "iterations.csv"
        ).read_bytes()

    def test_lock_excludes_second_writer(self, tmp_path):
        target = tmp_path / "run"
        target.mkdir()
        with open(target / ".lock", "a") as held:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            with pytest.raises(RuntimeError, match="locked"):
                write_run_record(make_record(), target)

    def test_leftover_lock_file_does_not_block(self, tmp_path):
        target = tmp_path / "run"
        target.mkdir()
        (target / ".lock").touch()  # as left by a writer that died
        write_run_record(make_record(), target)
        write_run_record(make_record(iterations=2), target)
        assert read_run_record(target) == make_record(iterations=2)

    def test_failed_write_keeps_previous_record(self, tmp_path, monkeypatch):
        target = tmp_path / "run"
        write_run_record(make_record(), target)
        write_text = Path.write_text

        def write_half_then_fail(path, text, *args, **kwargs):
            write_text(path, text[: len(text) // 2], *args, **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", write_half_then_fail)
        with pytest.raises(OSError, match="disk full"):
            write_run_record(make_record(iterations=2), target)
        monkeypatch.undo()
        assert read_run_record(target) == make_record()
        assert sorted(p.name for p in target.iterdir()) == [".lock", "iterations.csv", "run.json"]

    def test_missing_record_has_path_context(self, tmp_path):
        # A missing run.json is bad input (exit 2); other read errors are not.
        path = tmp_path / "nope" / "run.json"
        with pytest.raises(ValueError, match=re.escape(f"run record {path} does not exist")):
            read_run_record(tmp_path / "nope")
        (tmp_path / "run.json").mkdir()
        with pytest.raises(RuntimeError, match=re.escape(f"cannot read run record at {tmp_path}")):
            read_run_record(tmp_path)
