"""Inverse design of notch-coded metasurface unit cells.

A unit cell is a 4x4 grid of annular copper tiles (8 shapes, 3 bits each,
48 bits total).  A deterministic Lorentzian surrogate maps cells to TE/TM
reflection spectra; notch features of those spectra feed a from-scratch
dense network that learns the inverse map back to the 48-bit code.
"""

from .estimator import MetasurfaceDesigner, NotFittedError, TrainingDivergedError
from .features import DesignTarget, NotchFeature, assemble_input, extract_notches, target_of_cell
from .geometry import UnitCell, compose, decode_bits, decode_soft, encode_bits, render, tile_pattern
from .network import AdamState, Network, load_checkpoint, mse, save_checkpoint
from .pipeline import evaluate, generate_dataset, split, verify_design
from .surrogate import Polarization, ReflectionSpectrum, notch_params, reflection_spectrum

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "DesignTarget",
    "MetasurfaceDesigner",
    "Network",
    "NotFittedError",
    "NotchFeature",
    "Polarization",
    "ReflectionSpectrum",
    "TrainingDivergedError",
    "UnitCell",
    "assemble_input",
    "compose",
    "decode_bits",
    "decode_soft",
    "encode_bits",
    "evaluate",
    "extract_notches",
    "generate_dataset",
    "load_checkpoint",
    "mse",
    "notch_params",
    "reflection_spectrum",
    "render",
    "save_checkpoint",
    "split",
    "target_of_cell",
    "tile_pattern",
    "verify_design",
]
