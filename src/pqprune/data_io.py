"""Dataset provisioning (synthetic Gaussians, IDX files) and persistence."""

from __future__ import annotations

import fcntl
import json
import math
import os
import struct
from contextlib import contextmanager, suppress
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
            raise ValueError("n_classes must be >= 2")
        if self.n_classes > self.n_samples:
            raise ValueError("more classes than samples")
        if not 0 < self.n_train < self.n_samples:
            raise ValueError(
                f"n_samples = {self.n_samples} leaves the 80/20 split with "
                f"{self.n_train} train and {self.n_samples - self.n_train} test rows; "
                "both sides must be non-empty"
            )
        if self.class_separation < 0:
            raise ValueError("class_separation must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @property
    def n_train(self) -> int:
        """Rows in the train side of the 80/20 split."""
        return int(round(self.n_samples * 0.8))


def gen_synthetic(spec: SyntheticSpec) -> tuple[Dataset, Dataset]:
    """Deterministic (train, test) split, 80/20, labels balanced within 1.

    Class k is a unit-variance Gaussian centered at k * class_separation
    along the first feature axis. The rows are shuffled in place, so the
    call holds one copy of the data matrix; the two sides are views of it.
    """
    rng = np.random.default_rng(spec.seed)
    counts = [spec.n_samples // spec.n_classes] * spec.n_classes
    for k in range(spec.n_samples % spec.n_classes):
        counts[k] += 1
    labels = np.concatenate([np.full(c, k, dtype=int) for k, c in enumerate(counts)])
    X = rng.standard_normal((spec.n_samples, spec.n_features))
    X[:, 0] += labels * spec.class_separation
    # Generator.permutation(n) is shuffle(arange(n)), and shuffle draws the
    # same values whatever the item size: from one generator state, both
    # shuffles apply the permutation that permutation(n) would return, and
    # the generator ends where it would.
    state = rng.bit_generator.state
    rng.shuffle(X.view(np.dtype((np.void, X.shape[1] * X.itemsize))).ravel())
    rng.bit_generator.state = state
    rng.shuffle(labels)
    n_train = spec.n_train
    return (
        Dataset(X[:n_train], labels[:n_train]),
        Dataset(X[n_train:], labels[n_train:]),
    )


def _read_idx(path: Path, magic: int, what: str) -> tuple[tuple[int, ...], np.ndarray]:
    """Dimension sizes and uint8 payload of the IDX file at `path`.

    The file must start with `magic`, whose low byte is the number of
    dimensions; each size is a big-endian uint32. The size the header
    declares is checked against the file's length before anything is read.
    """
    ndim = magic & 0xFF
    with open(path, "rb") as f:
        header = f.read(4 + 4 * ndim)
        if len(header) >= 4 and header[:4] != struct.pack(">I", magic):
            raise IdxFormatError(
                f"{path}: bad {what} magic 0x{header[:4].hex()} at byte 0"
            )
        if len(header) < 4 + 4 * ndim:
            raise IdxFormatError(f"{path}: truncated {what} header at byte {len(header)}")
        dims = struct.unpack(f">{ndim}I", header[4:])
        size = math.prod(dims)
        end = os.fstat(f.fileno()).st_size
        if end - len(header) < size:
            raise IdxFormatError(
                f"{path}: truncated {what} data at byte {end}; "
                f"the header declares {size} bytes from byte {len(header)}"
            )
        return dims, np.frombuffer(f.read(size), dtype=np.uint8)


def load_idx(images_path, labels_path) -> Dataset:
    """Parse a big-endian IDX image/label file pair into a flat Dataset.

    Pixels are scaled to [0, 1] and images flattened to rows * cols
    features. Magic numbers, truncation, an image file that declares 0
    images, rows or columns, and image/label count mismatches raise
    IdxFormatError with the byte offset.
    """
    images_path, labels_path = Path(images_path), Path(labels_path)
    (count, rows, cols), pixels = _read_idx(images_path, IDX_IMAGE_MAGIC, "image")
    for size, what, field in (
        (count, "images", "count at byte 4"),
        (rows, "rows", "rows at byte 8"),
        (cols, "columns", "cols at byte 12"),
    ):
        if size == 0:
            raise IdxFormatError(f"{images_path}: declares 0 {what} ({field})")
    (n_labels,), labels = _read_idx(labels_path, IDX_LABEL_MAGIC, "label")
    if n_labels != count:
        raise IdxFormatError(
            f"{labels_path}: {n_labels} labels for {count} images (count at byte 4)"
        )
    pixels = pixels.reshape(count, rows * cols).astype(float) / 255.0
    return Dataset(pixels, labels.astype(int))


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


def _write_atomic(path: Path, write) -> None:
    """Call `write(tmp)` on a temporary file beside `path`, then move it onto
    `path` with os.replace. A writer that fails mid-write leaves the previous
    complete file, never a truncated one, and no temporary file. An error
    that names the temporary file is raised again, as the same OSError
    subclass, naming `path`."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    except OSError as exc:
        if exc.filename is None:
            raise
        raise type(exc)(exc.errno, exc.strerror, str(path)) from exc
    finally:
        with suppress(OSError):  # never hides the error above
            tmp.unlink()


def write_text_atomic(path: Path, text: str) -> None:
    """Replace `path` whole with `text` (`_write_atomic`)."""
    _write_atomic(path, lambda tmp: tmp.write_text(text))


def write_run_record(rec: RunRecord, directory) -> None:
    """Write run.json (full record) and iterations.csv to `directory`.

    Output bytes are deterministic for an identical record: run.json holds
    `json.dumps(dataclasses.asdict(rec), indent=2)` and a newline. The record
    is streamed into the temporary file chunk by chunk as it is encoded, so
    the whole text is never held in memory. Writers hold an exclusive flock
    on the directory's `.lock` file while they write, and each file is
    replaced whole (`_write_atomic`). A record that `read_run_record` would
    reject raises TypeError before anything is written.
    """
    # The plain view run.json holds; it shares the record's own dicts.
    view = {**vars(rec), "iterations": [vars(it) for it in rec.iterations]}
    RunRecord.from_dict(view)  # the reader's check, so the writer writes only what it reads
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    def stream(tmp: Path) -> None:
        with open(tmp, "w") as f:
            f.writelines(json.JSONEncoder(indent=2).iterencode(view))
            f.write("\n")

    with _dir_lock(directory):
        _write_atomic(directory / "run.json", stream)
        write_text_atomic(directory / "iterations.csv", rec.iterations_csv())


def read_run_record(directory) -> RunRecord:
    """Inverse of write_run_record for the JSON side. A missing file, or one
    that is not JSON or not a record of the right shape, raises ValueError
    naming the file; any other unreadable file raises RuntimeError."""
    path = Path(directory) / "run.json"
    try:
        return RunRecord.from_dict(json.loads(path.read_text()))
    except (FileNotFoundError, NotADirectoryError) as exc:
        raise ValueError(f"run record {path} does not exist") from exc
    except OSError as exc:
        raise RuntimeError(f"cannot read run record at {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"run record {path} is not valid JSON: {exc}") from exc
    except KeyError as exc:
        raise ValueError(f"run record {path} has no field {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"run record {path} has the wrong shape: {exc}") from exc
