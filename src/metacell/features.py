"""Resonance feature extraction and the normalized 24-element network input.

A feature is a (frequency, depth, bandwidth) triple for a reflection notch
at least 10 dB deep.  A design target holds up to 4 such triples per
polarization; normalizing and flattening them gives the 24-wide vector the
network consumes (TE slots first, then TM, each slot f/d/b).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import UnitCell
from .surrogate import (
    F_START_GHZ,
    F_STEP_GHZ,
    F_STOP_GHZ,
    Polarization,
    ReflectionSpectrum,
    reflection_spectrum,
)

QUALIFY_DB = -10.0
MAX_SLOTS_PER_POL = 4
FEATURES_PER_SLOT = 3
INPUT_WIDTH = 2 * MAX_SLOTS_PER_POL * FEATURES_PER_SLOT

FREQ_SPAN_GHZ = F_STOP_GHZ - F_START_GHZ
DEPTH_CAP_DB = 40.0
BANDWIDTH_CAP_GHZ = 2.0


@dataclass(frozen=True)
class NotchFeature:
    frequency: float
    depth: float
    bandwidth: float

    def __post_init__(self):
        if not F_START_GHZ <= self.frequency <= F_STOP_GHZ:
            raise ValueError(
                f"feature frequency {self.frequency} outside [{F_START_GHZ}, {F_STOP_GHZ}] GHz")
        if not self.depth <= QUALIFY_DB:
            raise ValueError(f"feature depth {self.depth} must be <= {QUALIFY_DB} dB")
        if not self.bandwidth > 0:
            raise ValueError("feature bandwidth must be positive")


@dataclass(frozen=True)
class DesignTarget:
    """Requested notches per polarization, each sorted ascending by frequency."""

    te: tuple[NotchFeature, ...] = ()
    tm: tuple[NotchFeature, ...] = ()

    def __post_init__(self):
        for name, feats in (("te", self.te), ("tm", self.tm)):
            feats = tuple(sorted(feats, key=lambda ft: ft.frequency))
            if len(feats) > MAX_SLOTS_PER_POL:
                raise ValueError(
                    f"{name} target holds {len(feats)} notches, max {MAX_SLOTS_PER_POL}")
            object.__setattr__(self, name, feats)

    def features(self, pol: Polarization) -> tuple[NotchFeature, ...]:
        return self.te if pol is Polarization.TE else self.tm


def extract_notches(spectrum: ReflectionSpectrum) -> list[NotchFeature]:
    """Find qualifying notches in a spectrum, sorted ascending by frequency.

    A notch is a local minimum at or below -10 dB; a plateau of equal minima
    reports its leftmost sample once.  Frequency and depth are refined by
    parabolic interpolation over the three samples around an isolated
    minimum; bandwidth is the width of the surrounding contiguous interval
    where the spectrum stays at or below -10 dB, with the crossings located
    by linear interpolation (clipped at the grid boundary).
    """
    y = spectrum.samples
    freqs = spectrum.frequencies()
    n = len(y)
    features = []
    start = 0
    while start < n:
        # Maximal run of equal values [start, end].
        end = start
        while end + 1 < n and y[end + 1] == y[start]:
            end += 1
        value = y[start]
        is_min = (
            value <= QUALIFY_DB
            and (start == 0 or y[start - 1] > value)
            and (end == n - 1 or y[end + 1] > value)
        )
        if is_min:
            freq, depth = freqs[start], value
            if start == end and 0 < start < n - 1:
                freq, depth = _parabolic_minimum(freqs, y, start)
            bandwidth = _crossing_width(freqs, y, start)
            if bandwidth > 0.0:
                # zero width only when the minimum merely touches -10 dB
                features.append(NotchFeature(float(freq), float(depth), float(bandwidth)))
        start = end + 1
    return features


def _parabolic_minimum(freqs, y, i):
    """Sub-grid vertex of the parabola through samples i-1, i, i+1."""
    left, mid, right = y[i - 1], y[i], y[i + 1]
    curvature = left - 2.0 * mid + right
    if curvature <= 0:
        return freqs[i], mid
    offset = 0.5 * (left - right) / curvature
    freq = freqs[i] + offset * F_STEP_GHZ
    depth = mid - 0.125 * (left - right) ** 2 / curvature
    return freq, depth


def _crossing_width(freqs, y, i):
    """Width of the contiguous y <= -10 dB interval containing sample i."""
    lo = i
    while lo > 0 and y[lo - 1] <= QUALIFY_DB:
        lo -= 1
    hi = i
    while hi < len(y) - 1 and y[hi + 1] <= QUALIFY_DB:
        hi += 1
    if lo == 0:
        f_left = freqs[0]
    else:
        f_left = freqs[lo - 1] + F_STEP_GHZ * (QUALIFY_DB - y[lo - 1]) / (y[lo] - y[lo - 1])
    if hi == len(y) - 1:
        f_right = freqs[-1]
    else:
        f_right = freqs[hi] + F_STEP_GHZ * (QUALIFY_DB - y[hi]) / (y[hi + 1] - y[hi])
    return f_right - f_left


def select_deepest(features, max_slots: int = MAX_SLOTS_PER_POL) -> tuple[NotchFeature, ...]:
    """Keep the deepest notches (ties broken by lower frequency), re-sorted ascending."""
    kept = sorted(features, key=lambda ft: (ft.depth, ft.frequency))[:max_slots]
    return tuple(sorted(kept, key=lambda ft: ft.frequency))


def target_of_cell(cell: UnitCell) -> DesignTarget:
    """Extract the cell's surrogate-spectrum features as a design target."""
    return DesignTarget(
        te=select_deepest(extract_notches(reflection_spectrum(cell, Polarization.TE))),
        tm=select_deepest(extract_notches(reflection_spectrum(cell, Polarization.TM))),
    )


def assemble_input(target: DesignTarget) -> np.ndarray:
    """Normalize a target to the 24-element network input.

    Layout is slot-major: TE slots 0..3 then TM slots 0..3, each slot a
    (frequency, depth, bandwidth) triple mapped to [0, 1]; empty slots are
    all-zero triples.
    """
    vec = np.zeros(INPUT_WIDTH)
    for ipol, feats in enumerate((target.te, target.tm)):
        for slot, ft in enumerate(feats):
            base = (ipol * MAX_SLOTS_PER_POL + slot) * FEATURES_PER_SLOT
            vec[base] = (ft.frequency - F_START_GHZ) / FREQ_SPAN_GHZ
            vec[base + 1] = min(-ft.depth, DEPTH_CAP_DB) / DEPTH_CAP_DB
            vec[base + 2] = min(ft.bandwidth, BANDWIDTH_CAP_GHZ) / BANDWIDTH_CAP_GHZ
    return vec


def target_from_dict(doc: dict) -> DesignTarget:
    if not isinstance(doc, dict):
        raise ValueError("target document must be an object with 'te' and 'tm' arrays")
    def fts(entries, name):
        if not isinstance(entries, list):
            raise ValueError(f"target field {name!r} must be an array")
        feats = []
        for entry in entries:
            try:
                feats.append(NotchFeature(
                    frequency=float(entry["freq_ghz"]),
                    depth=float(entry["depth_db"]),
                    bandwidth=float(entry["bandwidth_ghz"]),
                ))
            except (KeyError, TypeError) as exc:
                raise ValueError(f"malformed notch entry in {name!r}: {entry!r}") from exc
        return tuple(feats)
    return DesignTarget(te=fts(doc.get("te", []), "te"), tm=fts(doc.get("tm", []), "tm"))
