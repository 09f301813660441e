"""Directory scanning, the seeded floor-rule split, manifest CSV files."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tumorkit
from tumorkit.dataset import (
    DatasetManifest,
    ManifestEntry,
    SplitConfig,
    read_manifest,
    read_table,
    scan_dataset,
    stratified_split,
    write_manifest,
    write_table,
)
from tumorkit.errors import BadConfig, ClassTooSmall, EmptyClass, MissingDir, Unwritable
from tumorkit.metrics import NO, YES
from tumorkit.pgm import GrayImage8, write_pgm


class Unprintable:
    """A cell value whose text form raises, to fail a CSV write midway."""

    def __str__(self):
        raise RuntimeError("unprintable cell")


def make_tree(root, n_yes, n_no):
    """Write a yes/no directory tree of tiny valid PGM files."""
    pixel = write_pgm(GrayImage8(np.array([[50]], dtype=np.uint8)))
    for label, count in ((YES, n_yes), (NO, n_no)):
        d = root / label
        d.mkdir(parents=True)
        for i in range(count):
            (d / f"img_{i:04d}.pgm").write_bytes(pixel)
    return root


def fake_manifest(n_yes, n_no) -> DatasetManifest:
    entries = [ManifestEntry(f"yes/{i:04d}.pgm", YES) for i in range(n_yes)]
    entries += [ManifestEntry(f"no/{i:04d}.pgm", NO) for i in range(n_no)]
    return DatasetManifest(entries)


class TestScan:
    def test_counts_and_order(self, tmp_path):
        manifest = scan_dataset(make_tree(tmp_path, 4, 3))
        assert manifest.counts() == {NO: 3, YES: 4}
        paths = [e.path for e in manifest.entries]
        assert paths == sorted(paths)

    def test_non_image_files_ignored(self, tmp_path):
        make_tree(tmp_path, 2, 2)
        (tmp_path / YES / "notes.txt").write_text("skip me")
        (tmp_path / NO / "thumbs.db").write_bytes(b"\x00")
        (tmp_path / YES / "subdir.pgm").mkdir()  # a directory, not a file
        manifest = scan_dataset(tmp_path)
        assert manifest.counts() == {NO: 2, YES: 2}

    def test_repeated_scans_identical(self, tmp_path):
        make_tree(tmp_path, 3, 3)
        a = scan_dataset(tmp_path)
        b = scan_dataset(tmp_path)
        assert a.entries == b.entries

    def test_missing_root(self, tmp_path):
        with pytest.raises(MissingDir):
            scan_dataset(tmp_path / "nowhere")

    def test_missing_class_dir(self, tmp_path):
        (tmp_path / YES).mkdir()
        pixel = write_pgm(GrayImage8(np.array([[50]], dtype=np.uint8)))
        (tmp_path / YES / "img.pgm").write_bytes(pixel)
        with pytest.raises(MissingDir):
            scan_dataset(tmp_path)  # the no/ directory is absent

    def test_empty_class(self, tmp_path):
        make_tree(tmp_path, 2, 0)
        with pytest.raises(EmptyClass):
            scan_dataset(tmp_path)


class TestSplitConfig:
    def test_defaults(self):
        cfg = SplitConfig()
        assert (cfg.val_ratio, cfg.test_ratio, cfg.seed) == (0.1, 0.1, 0)

    @pytest.mark.parametrize("val, test", [(0.5, 0.5), (0.9, 0.1 + 1e-9)])
    def test_val_and_test_must_leave_room_for_train(self, val, test):
        with pytest.raises(BadConfig, match=r"val_ratio \+ test_ratio must be below 1"):
            SplitConfig(val_ratio=val, test_ratio=test)

    def test_ratios_must_be_positive(self):
        with pytest.raises(BadConfig):
            SplitConfig(val_ratio=-0.05, test_ratio=0.1)
        with pytest.raises(BadConfig):
            SplitConfig(val_ratio=0.1, test_ratio=0.0)

    def test_not_a_number_ratio_rejected(self):
        with pytest.raises(BadConfig, match="positive and finite"):
            SplitConfig(val_ratio=math.nan)
        with pytest.raises(BadConfig, match="positive and finite"):
            SplitConfig(test_ratio=math.inf)

    def test_remainder_goes_to_train(self):
        # val and test may take almost everything
        train, val, test = stratified_split(
            fake_manifest(12, 12), SplitConfig(val_ratio=0.5, test_ratio=0.499999999)
        )
        assert (len(train), len(val), len(test)) == (2, 12, 10)

    @pytest.mark.parametrize(
        "fields, problem",
        [
            (dict(seed="x"), 'seed must be an integer, got "x"'),
            (dict(seed=True), "seed must be an integer, got true"),
            (dict(seed=1.0), "seed must be an integer, got 1.0"),
            (dict(val_ratio="0.1"), 'val_ratio must be a number, got "0.1"'),
        ],
        ids=["str-seed", "bool-seed", "float-seed", "str-ratio"],
    )
    def test_field_of_wrong_type(self, fields, problem):
        with pytest.raises(BadConfig, match=re.escape(problem)):
            SplitConfig(**fields)


class TestStratifiedSplit:
    def test_reference_corpus_sizes(self):
        manifest = fake_manifest(155, 98)
        train, val, test = stratified_split(manifest, SplitConfig(seed=0))
        assert (len(train), len(val), len(test)) == (205, 24, 24)
        assert train.counts() == {YES: 125, NO: 80}
        assert val.counts() == {YES: 15, NO: 9}
        assert test.counts() == {YES: 15, NO: 9}

    def test_is_a_partition(self):
        manifest = fake_manifest(31, 17)
        train, val, test = stratified_split(manifest, SplitConfig(seed=3))
        pieces = [e.path for m in (train, val, test) for e in m.entries]
        assert sorted(pieces) == sorted(e.path for e in manifest.entries)
        assert len(set(pieces)) == len(pieces)

    def test_each_output_is_path_sorted(self):
        manifest = fake_manifest(20, 20)
        for part in stratified_split(manifest, SplitConfig(seed=1)):
            paths = [e.path for e in part.entries]
            assert paths == sorted(paths)

    def test_ten_balanced_items(self):
        # per-class floor: each class of 5 keeps everything in train
        train, val, test = stratified_split(fake_manifest(5, 5), SplitConfig(seed=0))
        assert (len(train), len(val), len(test)) == (10, 0, 0)

    def test_twenty_balanced_items(self):
        train, val, test = stratified_split(fake_manifest(10, 10), SplitConfig(seed=0))
        assert (len(train), len(val), len(test)) == (16, 2, 2)
        assert val.counts() == {YES: 1, NO: 1}

    def test_same_seed_same_split(self):
        manifest = fake_manifest(40, 30)
        a = stratified_split(manifest, SplitConfig(seed=11))
        b = stratified_split(manifest, SplitConfig(seed=11))
        for part_a, part_b in zip(a, b):
            assert part_a.entries == part_b.entries

    def test_different_seed_different_shuffle_same_sizes(self):
        manifest = fake_manifest(40, 30)
        a = stratified_split(manifest, SplitConfig(seed=11))
        b = stratified_split(manifest, SplitConfig(seed=12))
        assert [len(p) for p in a] == [len(p) for p in b]
        assert {e.path for e in a[1].entries} != {e.path for e in b[1].entries}

    def test_class_too_small(self):
        with pytest.raises(ClassTooSmall):
            stratified_split(fake_manifest(2, 10), SplitConfig())
        with pytest.raises(ClassTooSmall):
            stratified_split(fake_manifest(10, 2), SplitConfig())


class TestManifestFiles:
    def test_round_trip(self, tmp_path):
        manifest = fake_manifest(4, 2)
        path = tmp_path / "train.csv"
        write_manifest(manifest, path)
        assert read_manifest(path).entries == manifest.entries

    def test_header_line(self, tmp_path):
        path = tmp_path / "m.csv"
        write_manifest(fake_manifest(1, 1), path)
        assert path.read_text().splitlines()[0] == "path,label"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("file,class\r\na.pgm,yes\r\n")
        with pytest.raises(BadConfig):
            read_manifest(path)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("path,label\r\na.pgm,maybe\r\n")
        with pytest.raises((BadConfig, ValueError)):
            read_manifest(path)

    def test_failed_write_leaves_old_file(self, tmp_path):
        path = tmp_path / "train.csv"
        write_manifest(fake_manifest(2, 2), path)
        before = path.read_bytes()
        broken = DatasetManifest([ManifestEntry("a.pgm", YES), ManifestEntry(Unprintable(), NO)])
        with pytest.raises(RuntimeError, match="unprintable"):
            write_manifest(broken, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["train.csv"]

    def test_target_that_is_a_directory(self, tmp_path):
        path = tmp_path / "train.csv"
        path.mkdir()
        with pytest.raises(Unwritable, match=re.escape(f"cannot write {path}: Is a directory")):
            write_manifest(fake_manifest(2, 2), path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["train.csv"]

    def test_a_kill_mid_write_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "train.csv"
        write_manifest(fake_manifest(2, 2), path)
        before = path.read_bytes()
        writer = (
            "import sys, time\n"
            "from tumorkit.dataset import atomic_write\n"
            "with atomic_write(sys.argv[1], 'w') as handle:\n"
            "    handle.write('path,label\\nhalf')\n"
            "    handle.flush()\n"
            "    print('mid-write', flush=True)\n"
            "    time.sleep(60)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(tumorkit.__file__).parents[1])}
        with subprocess.Popen([sys.executable, "-c", writer, str(path)], env=env,
                              stdout=subprocess.PIPE, text=True) as child:
            try:
                said = child.stdout.readline()
            finally:
                child.kill()
        assert said == "mid-write\n"
        assert path.read_bytes() == before
        # the killed writer's temporary file stays, but is never the output
        left = [p.name for p in tmp_path.iterdir() if p != path]
        assert left == [f".train.csv.{child.pid}.tmp"]
        write_manifest(fake_manifest(3, 3), path)
        assert read_manifest(path).entries == fake_manifest(3, 3).entries

    def test_duplicate_paths_rejected(self):
        with pytest.raises(ValueError):
            DatasetManifest([ManifestEntry("a.pgm", YES), ManifestEntry("a.pgm", NO)])

    def test_entry_label_validated(self):
        with pytest.raises(ValueError):
            ManifestEntry("a.pgm", "unknown")


class TestTables:
    def test_round_trip_keeps_quoted_fields(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [["a,b", 'say "hi"'], ["line\nbreak", ""]]
        write_table(path, ["key", "value"], rows)
        assert read_table(path, "test", ["key", "value"], lambda *f: list(f)) == rows

    def test_a_field_over_the_csv_size_limit_names_its_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("key,value\r\na,1\r\nb," + "9" * 200_000 + "\r\n")
        with pytest.raises(BadConfig, match=re.escape(f"{path}:3: field larger than")):
            read_table(path, "test", ["key", "value"], lambda *f: f)
