"""Spans around metacell's public functions, recorded from the benchmark's side.

`traced(tracer)` replaces each function named in SPANS with a timing wrapper
wherever metacell's own modules look it up (the defining module, every module
that imported the name, or the class that owns the method), and puts the
originals back when the block ends.  A name that no longer resolves is listed
in `tracer.absent` instead of failing, so a rename shows as an absent span.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time

# Span name -> (module, attribute path) of the function it wraps.
SPANS = {
    "geometry.encode_bits": ("metacell.geometry", "encode_bits"),
    "geometry.decode_bits": ("metacell.geometry", "decode_bits"),
    "surrogate.reflection_spectrum": ("metacell.surrogate", "reflection_spectrum"),
    "surrogate.notch_params": ("metacell.surrogate", "notch_params"),
    "surrogate.lorentzian_sum": ("metacell.surrogate", "lorentzian_sum"),
    "features.extract_notches": ("metacell.features", "extract_notches"),
    "features.target_of_cell": ("metacell.features", "target_of_cell"),
    "features.assemble_input": ("metacell.features", "assemble_input"),
    "pipeline.generate_dataset": ("metacell.pipeline", "generate_dataset"),
    "pipeline.dataset_text": ("metacell.pipeline", "dataset_text"),
    "pipeline.load_dataset": ("metacell.pipeline", "load_dataset"),
    "pipeline.verify_design": ("metacell.pipeline", "verify_design"),
    "network.forward": ("metacell.network", "Network.forward"),
    "network.backward": ("metacell.network", "Network.backward"),
    "network.adam_step": ("metacell.network", "adam_step"),
    "network.save_checkpoint": ("metacell.network", "save_checkpoint"),
    "network.load_checkpoint": ("metacell.network", "load_checkpoint"),
    "estimator.fit": ("metacell.estimator", "MetasurfaceDesigner.fit"),
    "estimator.design": ("metacell.estimator", "MetasurfaceDesigner.design"),
}


def forward_kind(parent, x, train=False, *_, **__):
    """Name a Network.forward call by what it serves: a training step, one
    design row, the per-epoch evaluation inside fit, or another batch."""
    if train:
        return "network.forward_train"
    rows = 1 if getattr(x, "ndim", 2) == 1 else len(x)
    if rows == 1:
        return "network.forward_1row"
    return "network.forward_eval" if parent == "estimator.fit" else "network.forward_batch"


class Tracer:
    """Per-span totals: calls, total seconds and self seconds."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.absent: list[str] = []
        self._open: list[list] = []   # [name, seconds covered by children]

    def call(self, name, fn, args, kwargs):
        frame = [name, 0.0]
        self._open.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self._open.pop()
            if self._open:
                self._open[-1][1] += duration
            entry = self.stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame[1]

    def parent(self):
        return self._open[-1][0] if self._open else None

    def get(self, name):
        """(calls, total s, self s) of a span, or None when it never ran."""
        entry = self.stats.get(name)
        return tuple(entry) if entry else None

    def table(self):
        return {name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.stats.items())}


def _wrapper(tracer, name, fn):
    if name == "network.forward":
        def wrapped(*args, **kwargs):
            kind = forward_kind(tracer.parent(), *args[1:], **kwargs)
            return tracer.call(kind, fn, args, kwargs)
    else:
        def wrapped(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)
    return wrapped


def _resolve(module_name, path):
    """(owner, function) or None when the name no longer resolves."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    fn = getattr(owner, attr, None)
    return None if fn is None else (owner, fn)


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Wrap every span in SPANS for the length of the block."""
    patched = []
    try:
        for name, (module_name, path) in SPANS.items():
            found = _resolve(module_name, path)
            if found is None:
                tracer.absent.append(name)
                continue
            owner, fn = found
            wrapped = _wrapper(tracer, name, fn)
            # A method is looked up on its class; a function on every metacell
            # module that bound its name.
            owners = [owner] if "." in path else [
                m for key, m in list(sys.modules.items())
                if key == "metacell" or key.startswith("metacell.")]
            for o in owners:
                for key, value in list(vars(o).items()):
                    if value is fn:
                        setattr(o, key, wrapped)
                        patched.append((o, key, fn))
        yield tracer
    finally:
        for owner, key, fn in reversed(patched):
            setattr(owner, key, fn)
