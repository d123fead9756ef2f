import json
import subprocess
import sys

import numpy as np
import pytest

from metacell import pipeline
from metacell.network import load_checkpoint, save_checkpoint, default_network


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "metacell.cli", *args],
                          capture_output=True, text=True)


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "d.jsonl"
    result = run_cli("gen", "--count", "40", "--seed", "11", "--out", str(path))
    assert result.returncode == 0, result.stderr
    return path


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory, dataset_file):
    d = tmp_path_factory.mktemp("model")
    model = d / "m.ckpt"
    report = d / "r.csv"
    result = run_cli("train", "--dataset", str(dataset_file), "--epochs", "5",
                     "--seed", "0", "--model-out", str(model),
                     "--report-out", str(report))
    assert result.returncode == 0, result.stderr
    return model, report, result.stdout


class TestGen:
    def test_writes_file_and_reports(self, dataset_file):
        lines = dataset_file.read_text().splitlines()
        assert len(lines) == 41
        header = json.loads(lines[0])
        assert header["master_seed"] == 11
        records, _ = pipeline.load_dataset(dataset_file)
        assert len(records) == 40

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run_cli("gen", "--count", "3", "--seed", "0", "--out", str(a)).returncode == 0
        assert run_cli("gen", "--count", "3", "--seed", "0", "--out", str(b)).returncode == 0
        assert a.read_text() == b.read_text()

    def test_zero_count_usage_error(self, tmp_path):
        result = run_cli("gen", "--count", "0", "--seed", "0",
                         "--out", str(tmp_path / "x.jsonl"))
        assert result.returncode == 2

    def test_bad_directory_usage_error(self):
        result = run_cli("gen", "--count", "1", "--seed", "0",
                         "--out", "/nonexistent/dir/x.jsonl")
        assert result.returncode == 2


class TestTrain:
    def test_writes_model_and_report(self, trained_model):
        model, report, stdout = trained_model
        assert model.exists()
        net, state = load_checkpoint(model.read_bytes())
        assert net.input_width == 24
        assert net.output_width == 48
        lines = report.read_text().splitlines()
        assert lines[0] == "epoch,train_mse,test_mse,per_bit_acc"
        assert len(lines) == 6
        assert "per_bit_accuracy=" in stdout

    def test_single_epoch_report(self, dataset_file, tmp_path):
        result = run_cli("train", "--dataset", str(dataset_file), "--epochs", "1",
                         "--seed", "0", "--model-out", str(tmp_path / "m.ckpt"),
                         "--report-out", str(tmp_path / "r.csv"))
        assert result.returncode == 0, result.stderr
        assert len((tmp_path / "r.csv").read_text().splitlines()) == 2

    def test_fixed_seed_identical_checkpoints(self, dataset_file, tmp_path):
        out = []
        for name in ("m1", "m2"):
            result = run_cli("train", "--dataset", str(dataset_file), "--epochs", "3",
                             "--seed", "5", "--model-out", str(tmp_path / f"{name}.ckpt"),
                             "--report-out", str(tmp_path / f"{name}.csv"))
            assert result.returncode == 0, result.stderr
            out.append((tmp_path / f"{name}.ckpt").read_bytes())
        assert out[0] == out[1]

    def test_missing_dataset(self, tmp_path):
        result = run_cli("train", "--dataset", str(tmp_path / "nope.jsonl"),
                         "--model-out", str(tmp_path / "m.ckpt"),
                         "--report-out", str(tmp_path / "r.csv"))
        assert result.returncode == 2


class TestEval:
    def test_trained_model(self, dataset_file, trained_model):
        model, _, _ = trained_model
        result = run_cli("eval", "--model", str(model), "--dataset", str(dataset_file))
        assert result.returncode == 0, result.stderr
        values = dict(line.split("=") for line in result.stdout.splitlines())
        assert set(values) == {"per_bit", "per_slot", "exact_cell", "mse"}
        assert 0.0 <= float(values["per_bit"]) <= 1.0

    def test_width_mismatch(self, tmp_path, dataset_file):
        bad = default_network(hidden=(8,), n_in=23, n_out=48, seed=0)
        path = tmp_path / "bad.ckpt"
        path.write_bytes(save_checkpoint(bad))
        result = run_cli("eval", "--model", str(path), "--dataset", str(dataset_file))
        assert result.returncode == 1
        assert "24" in result.stderr or "width" in result.stderr

    def test_corrupt_model(self, tmp_path, dataset_file):
        path = tmp_path / "corrupt.ckpt"
        path.write_bytes(b"XXXX" + bytes(100))
        result = run_cli("eval", "--model", str(path), "--dataset", str(dataset_file))
        assert result.returncode == 1
        assert "magic" in result.stderr


def malformed_datasets():
    """(id, dataset text) pairs that train must refuse with one error line."""
    header, record = pipeline.dataset_text(pipeline.generate_dataset(1, 0), 0).splitlines()
    doc = json.loads(record)
    no_label = {k: v for k, v in doc.items() if k != "label"}
    stale = dict(json.loads(header), surrogate_version=-1)
    cases = {
        "record_is_list": [header, "[1, 2]"],
        "record_without_label": [header, json.dumps(no_label)],
        "integer_label": [header, json.dumps(dict(doc, label=5))],
        "header_is_list": ["[1]", record],
        "header_only": [header],
        "other_surrogate_version": [json.dumps(stale), record],
        "one_record": [header, record],
    }
    return [pytest.param("\n".join(lines) + "\n", id=name) for name, lines in cases.items()]


class TestDatasetBoundary:
    @pytest.mark.parametrize("text", malformed_datasets())
    def test_train_refuses(self, tmp_path, text):
        data = tmp_path / "d.jsonl"
        data.write_text(text)
        out = tmp_path / "out"
        out.mkdir()
        result = run_cli("train", "--dataset", str(data), "--epochs", "1",
                         "--model-out", str(out / "m.ckpt"),
                         "--report-out", str(out / "r.csv"))
        assert result.returncode == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr
        assert "Traceback" not in result.stderr
        assert list(out.iterdir()) == []


class TestInfer:
    def target_doc(self):
        return {"te": [{"freq_ghz": 27.5, "depth_db": -30.0, "bandwidth_ghz": 0.5}],
                "tm": [{"freq_ghz": 14.0, "depth_db": -22.0, "bandwidth_ghz": 0.2}]}

    def test_writes_all_artifacts(self, trained_model, tmp_path):
        model, _, _ = trained_model
        target = tmp_path / "target.json"
        target.write_text(json.dumps(self.target_doc()))
        prefix = tmp_path / "design"
        result = run_cli("infer", "--model", str(model), "--target", str(target),
                         "--out-prefix", str(prefix))
        assert result.returncode == 0, result.stderr
        bits = (tmp_path / "design.bits.txt").read_text().strip()
        assert len(bits) == 48 and set(bits) <= {"0", "1"}
        tiles = (tmp_path / "design.tiles.txt").read_text().strip().split(",")
        assert len(tiles) == 16
        ascii_art = (tmp_path / "design.ascii.txt").read_bytes()
        assert len(ascii_art.splitlines()) == 32
        assert (tmp_path / "design.pgm").read_bytes().startswith(b"P5\n32 32\n255\n")
        csv_lines = (tmp_path / "design.spectra.csv").read_text().splitlines()
        assert csv_lines[0] == "freq_ghz,te_db,tm_db"
        assert len(csv_lines) == 822
        verify = json.loads((tmp_path / "design.verify.json").read_text())
        assert "overall_fraction" in verify
        assert "overall_match=" in result.stdout

    def test_three_plus_two_notch_target(self, trained_model, tmp_path):
        # dual-polarization request: three TE notches, two TM notches
        doc = {
            "te": [{"freq_ghz": 6.5, "depth_db": -21.5, "bandwidth_ghz": 0.3},
                   {"freq_ghz": 11.5, "depth_db": -22.5, "bandwidth_ghz": 1.0},
                   {"freq_ghz": 24.0, "depth_db": -25.0, "bandwidth_ghz": 0.6}],
            "tm": [{"freq_ghz": 6.5, "depth_db": -12.0, "bandwidth_ghz": 0.2},
                   {"freq_ghz": 11.5, "depth_db": -21.5, "bandwidth_ghz": 1.0}],
        }
        model, _, _ = trained_model
        target = tmp_path / "target.json"
        target.write_text(json.dumps(doc))
        prefix = tmp_path / "multi"
        result = run_cli("infer", "--model", str(model), "--target", str(target),
                         "--out-prefix", str(prefix))
        assert result.returncode == 0, result.stderr
        verify = json.loads((tmp_path / "multi.verify.json").read_text())
        assert len(verify["te"]) == 3
        assert len(verify["tm"]) == 2
        assert "designed cell" in result.stdout

    def test_repeated_identical(self, trained_model, tmp_path):
        model, _, _ = trained_model
        target = tmp_path / "target.json"
        target.write_text(json.dumps(self.target_doc()))
        outs = []
        for name in ("a", "b"):
            prefix = tmp_path / name
            result = run_cli("infer", "--model", str(model), "--target", str(target),
                             "--out-prefix", str(prefix))
            assert result.returncode == 0
            outs.append((tmp_path / f"{name}.bits.txt").read_text())
        assert outs[0] == outs[1]

    def test_malformed_target(self, trained_model, tmp_path):
        model, _, _ = trained_model
        target = tmp_path / "bad.json"
        target.write_text("{not json")
        result = run_cli("infer", "--model", str(model), "--target", str(target),
                         "--out-prefix", str(tmp_path / "x"))
        assert result.returncode == 1

    def test_overfull_target_rejected(self, trained_model, tmp_path):
        model, _, _ = trained_model
        doc = {"te": [{"freq_ghz": 10.0 + i, "depth_db": -20.0, "bandwidth_ghz": 0.3}
                      for i in range(5)], "tm": []}
        target = tmp_path / "full.json"
        target.write_text(json.dumps(doc))
        result = run_cli("infer", "--model", str(model), "--target", str(target),
                         "--out-prefix", str(tmp_path / "x"))
        assert result.returncode == 1


class TestForward:
    def test_tiles_all_zero(self, tmp_path):
        out = tmp_path / "spec.csv"
        result = run_cli("forward", "--tiles", ",".join(["0"] * 16), "--out", str(out))
        assert result.returncode == 0, result.stderr
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        te = np.array([float(r[1]) for r in rows])
        freqs = np.array([float(r[0]) for r in rows])
        assert freqs[te.argmin()] == pytest.approx(6.0, abs=0.05)
        assert te.min() == pytest.approx(-40.0, abs=0.5)
        assert "TE notch" in result.stdout

    def test_bits_equivalent_to_tiles(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("forward", "--tiles", ",".join(["0"] * 16),
                       "--out", str(a)).returncode == 0
        assert run_cli("forward", "--bits", "0" * 48, "--out", str(b)).returncode == 0
        assert a.read_text() == b.read_text()

    def test_csv_to_stdout(self):
        result = run_cli("forward", "--bits", "0" * 48)
        assert result.returncode == 0
        assert result.stdout.startswith("freq_ghz,te_db,tm_db")

    def test_short_bit_string_usage_error(self):
        result = run_cli("forward", "--bits", "0" * 47)
        assert result.returncode == 2

    def test_requires_exactly_one_input(self):
        assert run_cli("forward").returncode == 2
        assert run_cli("forward", "--tiles", "0", "--bits", "0" * 48).returncode == 2


class TestUsage:
    def test_no_subcommand(self):
        assert run_cli().returncode == 2

    def test_unknown_subcommand(self):
        assert run_cli("frobnicate").returncode == 2
