"""Golden SHA-256 digests of seeded artifacts.

Seeded datasets, checkpoints and design outputs are bit-reproducible.  A
digest here may change only together with a CHANGES.md entry that gives the
old digest, the new one and the reason.  Checkpoint bytes depend on the BLAS
thread count, so the CLI chain runs in a subprocess pinned to one thread.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np

import metacell
from metacell.pipeline import dataset_text, generate_dataset

DATASET_2000_SEED_42 = "85a79e01a3bdae38e033fa805f7dc1115ab38aa863851254c3b509705f53734e"

# gen --count 200 --seed 7; train --epochs 30 --seed 3; infer on README's target.
CLI_CHAIN = {
    "data.jsonl": "6bf3e1aeab706b59f75e216c1b0625da31edb0da9be6118adb5d0b5ee9fd98a4",
    "model.ckpt": "9c976bf147a38086c2840730fea68acc1fda2e378377c468801f3f44d93fc146",
    "report.csv": "596a34c9a7c1c8a1bec98f0deeaf7df831296172cf72ac6a865d4e4910c95512",
    "design.bits.txt": "52b4a19c89790281d65e5207a44ee011f84f49492ca5fd40a9223ca4b75ca84d",
    "design.tiles.txt": "28528241e5bab91b90dc0ef89ec267b36f2c7df4bcd03eb69cdf90516f5bb6ea",
    "design.ascii.txt": "16f7b662e793d2c0024bc54ed79666669a466186f40e53d9446dd882c8a80afa",
    "design.pgm": "87e42e4f4fd8e36db7b9a37aa05114304333562a3c32fdc57346387b6567dad1",
    "design.spectra.csv": "c06b6d2ff6fb438fcf84bac74ad75fcc7f5f699a9272f4bac118a2b98204d409",
    "design.verify.json": "2774189547a9ce7f5b50240171dee153984b301c099d4c5d8959c5a1ac21240f",
}

README_TARGET = {"te": [{"freq_ghz": 27.5, "depth_db": -30.0, "bandwidth_ghz": 0.5}],
                 "tm": [{"freq_ghz": 14.0, "depth_db": -22.0, "bandwidth_ghz": 0.2}]}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}, "
            f"Python {sys.version.split()[0]}")


def test_dataset_digest():
    text = dataset_text(generate_dataset(2000, 42), 42)
    got = sha256(text.encode("ascii"))
    assert got == DATASET_2000_SEED_42, f"dataset digest {got} on {environment()}"


def test_cli_chain_digests(tmp_path):
    # The chain runs in tmp_path, so the package directory goes on the path.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(metacell.__file__)))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    (tmp_path / "target.json").write_text(json.dumps(README_TARGET))
    steps = [
        ("gen", "--count", "200", "--seed", "7", "--out", "data.jsonl"),
        ("train", "--dataset", "data.jsonl", "--epochs", "30", "--seed", "3",
         "--model-out", "model.ckpt", "--report-out", "report.csv"),
        ("infer", "--model", "model.ckpt", "--target", "target.json",
         "--out-prefix", "design"),
    ]
    for args in steps:
        result = subprocess.run([sys.executable, "-m", "metacell.cli", *args],
                                cwd=tmp_path, env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
    got = {name: sha256((tmp_path / name).read_bytes()) for name in CLI_CHAIN}
    moved = {name: digest for name, digest in got.items() if digest != CLI_CHAIN[name]}
    assert not moved, f"digests moved on {environment()}: {moved}"
