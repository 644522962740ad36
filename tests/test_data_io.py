import fcntl

import numpy as np
import pytest

from pqprune.data_io import (
    IdxFormatError,
    SyntheticSpec,
    gen_synthetic,
    load_idx,
    read_run_record,
    write_idx,
    write_run_record,
)
from pqprune.records import CSV_FIELDS, IterationMetrics, RunRecord


class TestSynthetic:
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


class TestRunRecordIO:
    def test_round_trip(self, tmp_path):
        rec = make_record()
        write_run_record(rec, tmp_path / "run")
        back = read_run_record(tmp_path / "run")
        assert back == rec

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

    def test_missing_record_has_path_context(self, tmp_path):
        with pytest.raises(RuntimeError, match=str(tmp_path)):
            read_run_record(tmp_path / "nope")
