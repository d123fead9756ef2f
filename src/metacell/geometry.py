"""Annular tile geometry: 8 canonical tile patterns, 4x4 unit cells, 48-bit codes.

A unit cell is a 4x4 grid of tiles, each tile one of 8 concentric-shell
patterns on an 8x8 binary lattice (1 = copper).  The cell flattens to a
32x32 copper matrix and encodes to 48 bits, three bits per tile slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

N_TILE_IDS = 8
TILE_SIZE = 8
GRID_SIZE = 4
N_SLOTS = GRID_SIZE * GRID_SIZE
MATRIX_SIZE = GRID_SIZE * TILE_SIZE
BITS_PER_SLOT = 3
N_BITS = N_SLOTS * BITS_PER_SLOT

# Concentric square shells on the 8x8 lattice, center outward: 4, 12, 20, 28 cells.
SHELL_SIZES = (4, 12, 20, 28)


def _shell_index() -> np.ndarray:
    """Shell number of each lattice cell: 0 at the 2x2 center, 3 at the rim."""
    half = np.abs(np.arange(TILE_SIZE) - (TILE_SIZE - 1) / 2)
    return (np.maximum(half[:, None], half[None, :]) - 0.5).astype(int)


def _build_patterns() -> tuple[np.ndarray, ...]:
    shell = _shell_index()
    patterns = []
    for tile_id in range(N_TILE_IDS):
        copper = shell == 0
        for s in (1, 2, 3):
            if tile_id >> (s - 1) & 1:
                copper |= shell == s
        pattern = copper.astype(np.uint8)
        pattern.setflags(write=False)
        patterns.append(pattern)
    return tuple(patterns)


_PATTERNS = _build_patterns()


def tile_pattern(tile_id: int) -> np.ndarray:
    """Return the read-only 8x8 binary pattern for a tile id in [0, 7].

    The center shell is always copper; outer shell s is copper iff bit
    (s - 1) of the id is set, so id 0 is the bare center and id 7 is solid.
    """
    if not 0 <= int(tile_id) < N_TILE_IDS:
        raise ValueError(f"tile id must be in [0, {N_TILE_IDS - 1}], got {tile_id}")
    return _PATTERNS[int(tile_id)]


@dataclass(frozen=True)
class UnitCell:
    """A 4x4 arrangement of tile ids, row-major."""

    tiles: tuple[int, ...]

    def __post_init__(self):
        tiles = tuple(int(t) for t in self.tiles)
        if len(tiles) != N_SLOTS:
            raise ValueError(f"unit cell needs {N_SLOTS} tile ids, got {len(tiles)}")
        for t in tiles:
            if not 0 <= t < N_TILE_IDS:
                raise ValueError(f"tile id must be in [0, {N_TILE_IDS - 1}], got {t}")
        object.__setattr__(self, "tiles", tiles)

    @classmethod
    def filled(cls, tile_id: int) -> "UnitCell":
        return cls((int(tile_id),) * N_SLOTS)

    @classmethod
    def random(cls, rng: np.random.Generator) -> "UnitCell":
        return cls(tuple(rng.integers(0, N_TILE_IDS, N_SLOTS)))

    def grid(self) -> np.ndarray:
        return np.array(self.tiles, dtype=np.int64).reshape(GRID_SIZE, GRID_SIZE)

    def transpose(self) -> "UnitCell":
        return UnitCell(tuple(self.grid().T.ravel()))


def compose(cell: UnitCell) -> np.ndarray:
    """Expand a unit cell to its 32x32 binary copper matrix."""
    matrix = np.empty((MATRIX_SIZE, MATRIX_SIZE), dtype=np.uint8)
    for k, tile_id in enumerate(cell.tiles):
        r, c = divmod(k, GRID_SIZE)
        matrix[r * TILE_SIZE:(r + 1) * TILE_SIZE,
               c * TILE_SIZE:(c + 1) * TILE_SIZE] = _PATTERNS[tile_id]
    return matrix


def encode_bits(cell: UnitCell) -> np.ndarray:
    """Encode a unit cell as 48 bits, big-endian 3-bit code per slot."""
    tiles = np.array(cell.tiles, dtype=np.uint8)
    shifts = np.array([2, 1, 0], dtype=np.uint8)
    return ((tiles[:, None] >> shifts) & 1).ravel().astype(np.uint8)


def decode_bits(bits) -> UnitCell:
    """Decode 48 binary values back to a unit cell; inverse of encode_bits."""
    arr = np.asarray(bits)
    if arr.shape != (N_BITS,):
        raise ValueError(f"expected {N_BITS} bits, got shape {arr.shape}")
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError("bit vector entries must be 0 or 1")
    tiles = arr.reshape(N_SLOTS, BITS_PER_SLOT).astype(np.int64) @ np.array([4, 2, 1])
    return UnitCell(tuple(tiles))


def decode_soft(activations) -> np.ndarray:
    """Threshold 48 activations in [0, 1] to bits; exactly 0.5 rounds up to 1."""
    arr = np.asarray(activations, dtype=float)
    if arr.shape != (N_BITS,):
        raise ValueError(f"expected {N_BITS} activations, got shape {arr.shape}")
    if not np.isfinite(arr).all() or arr.min() < 0.0 or arr.max() > 1.0:
        raise ValueError("activations must lie in [0, 1]")
    return (arr >= 0.5).astype(np.uint8)


def render(cell: UnitCell, format: str = "ascii") -> bytes:
    """Render the 32x32 copper matrix.

    ascii: 32 lines of 32 characters, '#' copper / '.' empty.
    pgm: binary PGM (P5, maxval 255), copper black (0), empty white (255).
    """
    matrix = compose(cell)
    if format == "ascii":
        lines = ["".join("#" if v else "." for v in row) for row in matrix]
        return ("\n".join(lines) + "\n").encode("ascii")
    if format == "pgm":
        header = f"P5\n{MATRIX_SIZE} {MATRIX_SIZE}\n255\n".encode("ascii")
        payload = np.where(matrix == 1, 0, 255).astype(np.uint8).tobytes()
        return header + payload
    raise ValueError(f"unknown render format {format!r} (expected 'ascii' or 'pgm')")
