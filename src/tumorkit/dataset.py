"""Dataset discovery, manifests, and the seeded train/val/test split.

A dataset on disk is a root directory with ``yes/`` and ``no/``
subdirectories of PGM files.  A manifest is the flat list of
(path, label) pairs, always kept sorted by path so repeated scans and
downstream splits are deterministic.

The split is always stratified: it shuffles each class with its own
seeded stream and assigns floor(ratio * n) entries to the validation
and test sets; train is the remainder, so it has no ratio of its own.
Flooring favors the training set; with 155 positives and 98 negatives
at 10 % validation and 10 % test this yields 205/24/24.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from .errors import BadConfig, ClassTooSmall, EmptyClass, MissingDir, TumorkitError
from .errors import Unreadable, Unwritable, check_field_types
from .metrics import CLASSES, NO, YES
from .rng import Rng, STREAM_SPLIT, mix_seed

IMAGE_SUFFIX = ".pgm"
MANIFEST_HEADER = ["path", "label"]
MIN_CLASS_SIZE = 3


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    label: str

    def __post_init__(self):
        if self.label not in CLASSES:
            raise ValueError(f"label must be one of {CLASSES}, got {self.label!r}")


@dataclass
class DatasetManifest:
    """Ordered (path, label) list with unique paths."""

    entries: list[ManifestEntry] = field(default_factory=list)

    def __post_init__(self):
        paths = [e.path for e in self.entries]
        if len(set(paths)) != len(paths):
            raise ValueError("manifest paths must be unique")

    def __len__(self) -> int:
        return len(self.entries)

    def count(self, label: str) -> int:
        return sum(1 for e in self.entries if e.label == label)

    def counts(self) -> dict[str, int]:
        return {label: self.count(label) for label in CLASSES}

    def of_class(self, label: str) -> list[ManifestEntry]:
        return [e for e in self.entries if e.label == label]


@dataclass(frozen=True)
class SplitConfig:
    """Validation and test ratios and the shuffle seed; train takes the rest."""

    val_ratio: float = 0.1
    test_ratio: float = 0.1
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        ratios = (self.val_ratio, self.test_ratio)
        if not all(math.isfinite(r) and r > 0 for r in ratios):
            raise BadConfig(f"split ratios must be positive and finite, got {ratios}")
        if sum(ratios) >= 1:
            raise BadConfig(f"val_ratio + test_ratio must be below 1, got {sum(ratios)}")


def scan_dataset(root_dir: str | Path) -> DatasetManifest:
    """Enumerate ``root/yes`` and ``root/no``, sorted by path."""
    root = Path(root_dir)
    if not root.is_dir():
        raise MissingDir(f"dataset root {root} does not exist")
    entries: list[ManifestEntry] = []
    for label in (YES, NO):
        class_dir = root / label
        if not class_dir.is_dir():
            raise MissingDir(f"expected class directory {class_dir}")
        files = sorted(p for p in class_dir.iterdir() if p.suffix == IMAGE_SUFFIX and p.is_file())
        if not files:
            raise EmptyClass(f"no {IMAGE_SUFFIX} files in {class_dir}")
        entries.extend(ManifestEntry(str(p), label) for p in files)
    entries.sort(key=lambda e: e.path)
    return DatasetManifest(entries)


def _floor_split(items: list[ManifestEntry], cfg: SplitConfig, rng: Rng):
    """Shuffle, then carve off floor(ratio * n) for val and test."""
    pool = list(items)
    rng.shuffle(pool)
    n = len(pool)
    n_val = math.floor(cfg.val_ratio * n)
    n_test = math.floor(cfg.test_ratio * n)
    return pool[:n_val], pool[n_val : n_val + n_test], pool[n_val + n_test :]


def stratified_split(
    manifest: DatasetManifest, cfg: SplitConfig
) -> tuple[DatasetManifest, DatasetManifest, DatasetManifest]:
    """Partition into (train, val, test) manifests, each sorted by path.

    Each class is split independently with its own sub-stream.
    """
    val: list[ManifestEntry] = []
    test: list[ManifestEntry] = []
    train: list[ManifestEntry] = []
    for class_index, label in enumerate(CLASSES):
        items = manifest.of_class(label)
        if len(items) < MIN_CLASS_SIZE:
            raise ClassTooSmall(
                f"class {label!r} has {len(items)} entries, needs {MIN_CLASS_SIZE}"
            )
        rng = Rng(mix_seed(cfg.seed, STREAM_SPLIT, class_index))
        v, t, tr = _floor_split(items, cfg, rng)
        val.extend(v)
        test.extend(t)
        train.extend(tr)
    key = lambda e: e.path
    return (
        DatasetManifest(sorted(train, key=key)),
        DatasetManifest(sorted(val, key=key)),
        DatasetManifest(sorted(test, key=key)),
    )


@contextlib.contextmanager
def atomic_write(path: str | Path, mode: str = "wb", **open_args):
    """Open a temporary sibling of ``path`` for writing and move it onto
    ``path`` when the block ends.

    If the block raises, the temporary file is removed and whatever was
    at ``path`` is left as it was, so a reader never sees half a file.
    An ``OSError`` from opening, writing or renaming (say, a directory
    in the way, or a full disk) raises Unwritable naming ``path``.
    It touches no file it did not make, so a writer killed mid-write
    leaves its temporary file behind (see :func:`remove_stale_temporaries`).
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_args) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):  # absent, or in a directory that is not one
            tmp.unlink()
        if isinstance(exc, OSError):
            raise Unwritable(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


# how long a temporary file must have gone unwritten before a dead pid in
# its name is trusted (see remove_stale_temporaries)
STALE_AFTER_S = 600


def _is_live(pid: int) -> bool:
    """Whether ``pid`` names a process this one can see."""
    try:
        os.kill(pid, 0)  # signal 0 only asks whether the process exists
    except (ProcessLookupError, OverflowError):
        return False
    except PermissionError:  # it exists, as another user's process
        pass
    return True


def remove_stale_temporaries(path: str | Path) -> None:
    """Remove each ``.<name>.<pid>.tmp`` sibling of ``path`` that a killed
    :func:`atomic_write` left: its pid names no live process and it has
    not been written for ``STALE_AFTER_S`` seconds.

    A later writer has another pid, so nothing else removes it.  A
    writer in another PID namespace or on another host that shares the
    directory has a pid that means nothing here, so the age is what
    keeps its file: a live writer's file is written to until it is
    renamed, seconds later.  Every other sibling is left alone.
    """
    path = Path(path)
    try:
        names = os.listdir(path.parent)
    except OSError:  # an unreadable directory is reported when the target is opened
        return
    prefix = f".{path.name}."
    old = time.time() - STALE_AFTER_S
    for name in names:
        pid = name[len(prefix) : -len(".tmp")]
        ours = name.startswith(prefix) and name.endswith(".tmp") and pid.isdigit()
        if ours and not _is_live(int(pid)):
            tmp = path.parent / name
            with contextlib.suppress(OSError):  # removed meanwhile, or not ours to remove
                if tmp.stat().st_mtime < old:
                    tmp.unlink()


def write_table(path: str | Path, header: list[str], rows) -> None:
    """Write ``header`` and then each row of ``rows`` to ``path`` as CSV
    (see :func:`atomic_write`)."""
    with atomic_write(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    """Write the manifest as a two-column CSV with a header row."""
    write_table(path, MANIFEST_HEADER, ([e.path, e.label] for e in manifest.entries))


@contextlib.contextmanager
def reading(path: str | Path, what: str, mode: str = "rb", **open_args):
    """The file at ``path`` opened for reading, closed when the block ends.

    A file that cannot be opened or read (missing, a directory, no
    permission, a path holding a NUL byte), or whose text does not
    decode, raises Unreadable naming ``what`` and the path.
    """
    def unreadable(exc: Exception) -> Unreadable:
        return Unreadable(f"cannot read {what} {path}: {getattr(exc, 'strerror', None) or exc}")

    try:
        handle = open(path, mode, **open_args)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise unreadable(exc) from exc
    with handle:
        try:
            yield handle
        except (OSError, UnicodeDecodeError) as exc:
            raise unreadable(exc) from exc


def make_dir(path: str | Path) -> None:
    """Make the directory ``path`` and any missing parents; one that
    cannot be made (a file in its place, no permission) raises
    Unwritable."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise Unwritable(f"cannot make directory {path}: {exc.strerror or exc}") from exc


def read_table(path: str | Path, what: str, header: list[str], parse) -> list:
    """``parse(*fields)`` for each row after the ``header`` row of the CSV
    file at ``path``, which is read whole first (see :func:`reading`).

    A wrong header raises BadConfig naming ``path``; so does a row that
    is not CSV, has other than ``len(header)`` fields, repeats an earlier
    row's first field, or that ``parse`` rejects with ValueError or a
    package error, and then the message begins ``path:line:``.
    """
    with reading(path, what, "r", newline="") as handle:
        reader = csv.reader(io.StringIO(handle.read(), newline=""))
    out = []
    seen = set()
    try:
        found = next(reader, None)
        for fields in reader if found == header else ():  # a wrong header is raised below
            if len(fields) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(fields)}")
            if fields[0] in seen:
                raise ValueError(f"duplicate {header[0]} {fields[0]!r}")
            seen.add(fields[0])
            out.append(parse(*fields))
    except (ValueError, csv.Error, TumorkitError) as exc:
        raise BadConfig(f"{path}:{reader.line_num}: {exc}") from None
    if found != header:
        raise BadConfig(f"{path}: not a {what} CSV; expected the header {','.join(header)}")
    return out


def read_manifest(path: str | Path) -> DatasetManifest:
    """Read a manifest CSV written by :func:`write_manifest`."""
    return DatasetManifest(read_table(path, "manifest", MANIFEST_HEADER, ManifestEntry))
