"""Dataset provisioning (synthetic Gaussians, IDX files) and persistence."""

from __future__ import annotations

import fcntl
import json
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .nn import Dataset
from .records import RunRecord

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Malformed IDX file; the message names the failing byte offset."""


@dataclass(frozen=True)
class SyntheticSpec:
    """Isotropic Gaussian blobs with class means spaced along one axis."""

    n_samples: int = 1000
    n_features: int = 20
    n_classes: int = 2
    class_separation: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1 or self.n_features < 1:
            raise ValueError("n_samples and n_features must be positive")
        if self.n_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.n_classes > self.n_samples:
            raise ValueError("more classes than samples")
        if self.class_separation < 0:
            raise ValueError("class_separation must be >= 0")


def gen_synthetic(spec: SyntheticSpec) -> tuple[Dataset, Dataset]:
    """Deterministic (train, test) split, 80/20, labels balanced within 1.

    Class k is a unit-variance Gaussian centered at k * class_separation
    along the first feature axis.
    """
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


def _read_be32(f, path, what):
    offset = f.tell()
    data = f.read(4)
    if len(data) != 4:
        raise IdxFormatError(f"{path}: truncated reading {what} at byte {offset}")
    return struct.unpack(">I", data)[0], offset


def load_idx(images_path, labels_path) -> Dataset:
    """Parse a big-endian IDX image/label file pair into a flat Dataset.

    Pixels are scaled to [0, 1] and images flattened to rows * cols
    features. Magic numbers, truncation, and image/label count mismatches
    raise IdxFormatError with the byte offset.
    """
    images_path, labels_path = Path(images_path), Path(labels_path)
    with open(images_path, "rb") as f:
        magic, off = _read_be32(f, images_path, "magic")
        if magic != IDX_IMAGE_MAGIC:
            raise IdxFormatError(
                f"{images_path}: bad image magic 0x{magic:08x} at byte {off}"
            )
        count, _ = _read_be32(f, images_path, "count")
        rows, _ = _read_be32(f, images_path, "rows")
        cols, _ = _read_be32(f, images_path, "cols")
        offset = f.tell()
        raw = f.read(count * rows * cols)
        if len(raw) != count * rows * cols:
            raise IdxFormatError(
                f"{images_path}: truncated pixel data at byte {offset + len(raw)}"
            )
        pixels = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)
    with open(labels_path, "rb") as f:
        magic, off = _read_be32(f, labels_path, "magic")
        if magic != IDX_LABEL_MAGIC:
            raise IdxFormatError(
                f"{labels_path}: bad label magic 0x{magic:08x} at byte {off}"
            )
        n_labels, off = _read_be32(f, labels_path, "count")
        if n_labels != count:
            raise IdxFormatError(
                f"{labels_path}: {n_labels} labels for {count} images (count at byte {off})"
            )
        offset = f.tell()
        raw = f.read(n_labels)
        if len(raw) != n_labels:
            raise IdxFormatError(
                f"{labels_path}: truncated label data at byte {offset + len(raw)}"
            )
        labels = np.frombuffer(raw, dtype=np.uint8).astype(int)
    return Dataset(pixels.astype(float) / 255.0, labels)


def write_idx(images: np.ndarray, labels: np.ndarray, images_path, labels_path):
    """Write a (n, rows, cols) uint8 stack and labels in IDX format."""
    n, rows, cols = images.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, rows, cols))
        f.write(np.ascontiguousarray(images, dtype=np.uint8).tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, n))
        f.write(np.ascontiguousarray(labels, dtype=np.uint8).tobytes())


@contextmanager
def _dir_lock(directory: Path):
    """Exclusive flock on `directory/.lock` for the length of the block.

    The kernel drops the lock when its holder exits, so a `.lock` file left
    by a crashed writer blocks nobody. The file is never removed: unlinking
    it would let two writers hold locks on two different files at once.
    """
    with open(directory / ".lock", "a") as f:
        try:
            fcntl.flock(f, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise RuntimeError(
                f"output directory {directory} is locked by another writer"
            ) from None
        yield


def write_run_record(rec: RunRecord, directory) -> None:
    """Write run.json (full record) and iterations.csv to `directory`.

    Output bytes are deterministic for an identical record. Writers hold an
    exclusive flock on the directory's `.lock` file while they write.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with _dir_lock(directory):
        (directory / "run.json").write_text(
            json.dumps(rec.to_dict(), indent=2) + "\n"
        )
        (directory / "iterations.csv").write_text(rec.iterations_csv())


def read_run_record(directory) -> RunRecord:
    """Inverse of write_run_record for the JSON side."""
    path = Path(directory) / "run.json"
    try:
        return RunRecord.from_dict(json.loads(path.read_text()))
    except OSError as exc:
        raise RuntimeError(f"cannot read run record at {path}: {exc}") from exc
