"""The one file writer: atomic replacement, raw arrays with sidecars."""

import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

import stochres as sr
from stochres.capacity import gram_matrices
from stochres.errors import IOFailure
from stochres.signals import MODE_EXACT, SignalMatrix, read_binary, write_binary, write_csv


def _signals(seed, rows=4, weights=None):
    gen = np.random.default_rng(seed)
    return SignalMatrix(gen.dirichlet(np.ones(4), size=rows), MODE_EXACT, 2, weights=weights)


def _ensemble(seed):
    gen = np.random.default_rng(seed)
    return sr.TrajectoryEnsemble(gen.integers(0, 8, size=(5, 7)), 3, seed_root=seed,
                                 washout_length=2)


WRITERS = {
    "write_csv": lambda seed, path: write_csv(_signals(seed), path),
    "write_binary": lambda seed, path: write_binary(_signals(seed), path),
    "TrajectoryEnsemble.save": lambda seed, path: _ensemble(seed).save(path),
}


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_replace_keeps_previous_file_and_leaves_no_temp_files(writer, tmp_path,
                                                                      monkeypatch):
    write = WRITERS[writer]
    write(1, tmp_path / "data.out")
    before = _files(tmp_path)

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(IOFailure, match="disk full"):
        write(2, tmp_path / "data.out")
    assert _files(tmp_path) == before


@pytest.mark.parametrize("writer", ["write_binary", "TrajectoryEnsemble.save"])
def test_raw_data_is_replaced_before_its_sidecar(writer, tmp_path, monkeypatch):
    replace = os.replace
    order = []

    def record(src, dst):
        order.append(Path(dst).name)
        replace(src, dst)

    monkeypatch.setattr(os, "replace", record)
    WRITERS[writer](1, tmp_path / "data.out")
    assert order == ["data.out", "data.out.json"]


@pytest.mark.parametrize("change", [-8, -3, 5])
def test_raw_file_of_the_wrong_size_raises_io_failure(change, tmp_path):
    for write, read in ((lambda p: write_binary(_signals(3), p), read_binary),
                        (lambda p: _ensemble(3).save(p), sr.TrajectoryEnsemble.load)):
        path = tmp_path / "data.bin"
        write(path)
        blob = path.read_bytes()
        path.write_bytes(blob[:change] if change < 0 else blob + bytes(change))
        with pytest.raises(IOFailure, match="sidecar"):
            read(path)


def test_sidecars_in_the_earlier_format_still_load(tmp_path):
    # compact json.dumps(sort_keys=True), no trailing newline, no weights key
    data = np.array([[0.25, 0.75], [0.5, 0.5], [1.0, 0.0]])
    (tmp_path / "signals.bin").write_bytes(data.astype("<f8").tobytes())
    (tmp_path / "signals.bin.json").write_text(
        '{"columns": 2, "labels": [0, 1], "mode": "exact-probability", "n": 1, '
        '"rows": 3, "shots": null}')
    sm = read_binary(tmp_path / "signals.bin")
    assert np.array_equal(sm.data, data) and sm.weights is None
    assert sm.mode == MODE_EXACT and sm.n == 1 and sm.shots is None

    samples = np.array([[0, 3, 1], [2, 2, 0]])
    (tmp_path / "shots.bin").write_bytes(samples.astype("<i8").tobytes())
    (tmp_path / "shots.bin.json").write_text(
        '{"S": 2, "T": 3, "dtype": "<i8", "n": 2, "seed": 11, "washout": 4}')
    ens = sr.TrajectoryEnsemble.load(tmp_path / "shots.bin")
    assert np.array_equal(ens.samples, samples)
    assert (ens.n, ens.seed_root, ens.washout_length) == (2, 11, 4)


def test_weighted_signals_survive_a_binary_round_trip(tmp_path):
    sm = _signals(5, rows=3, weights=[0.2, 0.5, 0.3])
    write_binary(sm, tmp_path / "w.bin")
    back = read_binary(tmp_path / "w.bin")
    assert np.array_equal(back.weights, sm.weights)
    assert np.array_equal(back.data, sm.data)
    for a, b in zip(gram_matrices(sm), gram_matrices(back)):
        assert np.array_equal(a, b)
    assert json.loads((tmp_path / "w.bin.json").read_text())["weights"] == [0.2, 0.5, 0.3]


def test_write_csv_refuses_a_weighted_matrix(tmp_path):
    with pytest.raises(ValueError, match="weight"):
        write_csv(_signals(5, rows=3, weights=[0.2, 0.5, 0.3]), tmp_path / "w.csv")
    assert not (tmp_path / "w.csv").exists()


# a file written any other way than through the writer module
_WRITE_CALLS = re.compile(
    r"\.write_text\(|\.write_bytes\(|\.tofile\(|\bos\.replace\(|\bnp\.save"
    r"|\bopen\((?![^)]*[\"']rb?[\"']\))"  # open( without a literal read mode
)


def test_only_the_writer_module_writes_files():
    package = Path(sr.__file__).parent
    offenders = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(package.glob("*.py")) if path.name != "fileio.py"
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if _WRITE_CALLS.search(line)
    ]
    assert offenders == []
