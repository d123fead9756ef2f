"""Command-line interface: gen, train, eval, infer, forward.

Exit codes: 0 success, 1 runtime/model error, 2 usage error.  Output files
are written to a temp file and renamed, so failures never leave partial
artifacts behind.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import pipeline
from .estimator import MetasurfaceDesigner, TrainingDivergedError, design
from .features import target_from_dict, target_of_cell
from .geometry import N_BITS, UnitCell, decode_bits, encode_bits, render
from .network import CheckpointError, load_checkpoint, save_checkpoint
from .surrogate import Polarization, reflection_spectrum, spectra_csv


def _write_atomic(path, data):
    """Write bytes/text via a sibling temp file and atomic rename."""
    directory = os.path.dirname(os.path.abspath(path))
    mode = "wb" if isinstance(data, bytes) else "w"
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, mode) as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _require_readable(parser, path, what):
    if not os.path.isfile(path):
        parser.error(f"{what} {path!r} does not exist")


def _require_writable(parser, path, what):
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        parser.error(f"directory for {what} {path!r} does not exist")
    if not os.access(directory, os.W_OK):
        parser.error(f"directory for {what} {path!r} is not writable")


def _load_model(path):
    with open(path, "rb") as fh:
        return load_checkpoint(fh.read())


def _parse_tiles(parser, text):
    try:
        tiles = tuple(int(t) for t in text.split(","))
        return UnitCell(tiles)
    except ValueError as exc:
        parser.error(f"--tiles must be 16 comma-separated ids in 0-7: {exc}")


def _parse_bits(parser, text):
    if len(text) != N_BITS or set(text) - {"0", "1"}:
        parser.error(f"--bits must be a {N_BITS}-character 0/1 string")
    return decode_bits(np.array([int(c) for c in text], dtype=np.uint8))


def cmd_gen(parser, args):
    if args.count < 1:
        parser.error("--count must be >= 1")
    _require_writable(parser, args.out, "--out")
    started = time.perf_counter()
    records = pipeline.generate_dataset(args.count, args.seed)
    _write_atomic(args.out, pipeline.dataset_text(records, args.seed))
    elapsed = time.perf_counter() - started
    print(f"wrote {len(records)} records to {args.out} in {elapsed:.2f} s")
    return 0


def _report_csv(designer):
    """Per-epoch training MSE, validation MSE and validation per-bit accuracy."""
    lines = ["epoch,train_mse,test_mse,per_bit_acc"]
    series = zip(designer.train_mse_, designer.val_mse_, designer.val_accuracy_)
    for i, (a, b, c) in enumerate(series, start=1):
        lines.append(f"{i},{a:.8f},{b:.8f},{c:.6f}")
    return "\n".join(lines) + "\n"


def cmd_train(parser, args):
    _require_readable(parser, args.dataset, "--dataset")
    _require_writable(parser, args.model_out, "--model-out")
    _require_writable(parser, args.report_out, "--report-out")
    records, _ = pipeline.load_dataset(args.dataset)
    train_set, test_set = pipeline.split(records, ratio=args.split, seed=args.seed)
    if not train_set or not test_set:
        raise ValueError("train and test sets must be non-empty")
    X, Y = pipeline.stack_records(train_set)
    designer = MetasurfaceDesigner(epochs=args.epochs, learning_rate=args.lr,
                                   dropout=args.dropout, seed=args.seed,
                                   patience=args.patience)
    designer.fit(X, Y, validation=pipeline.stack_records(test_set))
    _write_atomic(args.model_out, save_checkpoint(designer.network_))
    _write_atomic(args.report_out, _report_csv(designer))
    metrics = pipeline.evaluate(designer.network_, test_set)
    print(f"trained {len(designer.train_mse_)} epochs in {designer.fit_seconds_:.1f} s "
          f"(best epoch {designer.best_epoch_ + 1})")
    for key in ("per_bit_accuracy", "per_slot_accuracy", "exact_cell_rate", "mse"):
        print(f"{key}={metrics[key]:.6f}")
    return 0


def cmd_eval(parser, args):
    _require_readable(parser, args.dataset, "--dataset")
    _require_readable(parser, args.model, "--model")
    records, _ = pipeline.load_dataset(args.dataset)
    network, _ = _load_model(args.model)
    width = len(records[0].input)
    if network.input_width != width:
        raise ValueError(
            f"model expects {network.input_width}-wide inputs but dataset "
            f"records have {width}")
    metrics = pipeline.evaluate(network, records)
    print(f"per_bit={metrics['per_bit_accuracy']:.6f}")
    print(f"per_slot={metrics['per_slot_accuracy']:.6f}")
    print(f"exact_cell={metrics['exact_cell_rate']:.6f}")
    print(f"mse={metrics['mse']:.8f}")
    return 0


def cmd_infer(parser, args):
    _require_readable(parser, args.model, "--model")
    _require_readable(parser, args.target, "--target")
    _require_writable(parser, args.out_prefix + ".bits.txt", "--out-prefix")
    with open(args.target, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"target document {args.target!r} is not valid JSON: {exc}")
    target = target_from_dict(doc)
    network, _ = _load_model(args.model)
    started = time.perf_counter()
    cell = design(network, target)
    elapsed = time.perf_counter() - started
    bits = "".join(str(int(b)) for b in encode_bits(cell))
    tiles = ",".join(str(t) for t in cell.tiles)
    te = reflection_spectrum(cell, Polarization.TE)
    tm = reflection_spectrum(cell, Polarization.TM)
    report = pipeline.verify_design(cell, target)
    prefix = args.out_prefix
    _write_atomic(prefix + ".bits.txt", bits + "\n")
    _write_atomic(prefix + ".tiles.txt", tiles + "\n")
    _write_atomic(prefix + ".ascii.txt", render(cell, "ascii"))
    _write_atomic(prefix + ".pgm", render(cell, "pgm"))
    _write_atomic(prefix + ".spectra.csv", spectra_csv(te, tm))
    _write_atomic(prefix + ".verify.json", json.dumps(report.to_dict(), indent=2) + "\n")
    print(f"designed cell {tiles} in {elapsed * 1e3:.3f} ms")
    print(f"te_match={report.te_fraction:.3f}")
    print(f"tm_match={report.tm_fraction:.3f}")
    print(f"overall_match={report.overall_fraction:.3f}")
    return 0


def cmd_forward(parser, args):
    if (args.tiles is None) == (args.bits is None):
        parser.error("exactly one of --tiles or --bits is required")
    cell = _parse_tiles(parser, args.tiles) if args.tiles else _parse_bits(parser, args.bits)
    if args.out:
        _require_writable(parser, args.out, "--out")
    te = reflection_spectrum(cell, Polarization.TE)
    tm = reflection_spectrum(cell, Polarization.TM)
    csv = spectra_csv(te, tm)
    if args.out:
        _write_atomic(args.out, csv)
        print(f"wrote spectra to {args.out}")
    else:
        sys.stdout.write(csv)
    target = target_of_cell(cell)
    for pol, feats in (("TE", target.te), ("TM", target.tm)):
        for ft in feats:
            print(f"{pol} notch: freq_ghz={ft.frequency:.3f} depth_db={ft.depth:.2f} "
                  f"bandwidth_ghz={ft.bandwidth:.3f}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="metacell",
        description="Inverse design of notch-coded metasurface unit cells.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a labeled dataset")
    p.add_argument("--count", type=int, required=True, help="number of records")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--out", required=True, help="dataset file to write")
    p.set_defaults(func=cmd_gen)

    defaults = MetasurfaceDesigner().get_params()
    p = sub.add_parser("train", help="train the designer network")
    p.add_argument("--dataset", required=True)
    p.add_argument("--epochs", type=int, default=defaults["epochs"])
    p.add_argument("--lr", type=float, default=defaults["learning_rate"])
    p.add_argument("--dropout", type=float, default=defaults["dropout"])
    p.add_argument("--split", type=float, default=0.7)
    p.add_argument("--seed", type=int, default=defaults["seed"])
    p.add_argument("--patience", type=int, default=defaults["patience"])
    p.add_argument("--model-out", required=True)
    p.add_argument("--report-out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("infer", help="inverse-design a cell from a target document")
    p.add_argument("--model", required=True)
    p.add_argument("--target", required=True, help="JSON file with te/tm notch arrays")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("forward", help="surrogate spectra and features for a cell")
    p.add_argument("--tiles", help="16 comma-separated tile ids in 0-7")
    p.add_argument("--bits", help=f"{N_BITS}-character 0/1 string")
    p.add_argument("--out", help="spectra CSV path (stdout when omitted)")
    p.set_defaults(func=cmd_forward)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except (ValueError, CheckpointError, TrainingDivergedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
