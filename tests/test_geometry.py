import numpy as np
import pytest

from metacell.geometry import (
    SHELL_SIZES,
    UnitCell,
    compose,
    decode_bits,
    decode_soft,
    encode_bits,
    render,
    tile_pattern,
)


class TestTilePattern:
    def test_solid_tile(self):
        assert tile_pattern(7).sum() == 64

    def test_bare_center(self):
        pattern = tile_pattern(0)
        assert pattern.sum() == 4
        assert pattern[3:5, 3:5].all()

    def test_first_shell_count(self):
        # center 4 plus the 12-cell first ring
        assert tile_pattern(1).sum() == 16

    def test_copper_counts_follow_set_bits(self):
        for tile_id in range(8):
            expected = SHELL_SIZES[0] + sum(
                SHELL_SIZES[s] for s in (1, 2, 3) if tile_id >> (s - 1) & 1)
            assert tile_pattern(tile_id).sum() == expected

    def test_counts_increase_with_popcount(self):
        by_popcount = {}
        for tile_id in range(8):
            by_popcount.setdefault(bin(tile_id).count("1"), []).append(
                int(tile_pattern(tile_id).sum()))
        for k in range(3):
            assert max(by_popcount[k]) < min(by_popcount[k + 1])

    def test_rotation_invariance(self):
        for tile_id in range(8):
            pattern = tile_pattern(tile_id)
            assert np.array_equal(pattern, np.rot90(pattern))

    def test_center_always_copper(self):
        for tile_id in range(8):
            assert tile_pattern(tile_id)[3:5, 3:5].all()

    def test_patterns_distinct(self):
        flat = {tile_pattern(t).tobytes() for t in range(8)}
        assert len(flat) == 8

    @pytest.mark.parametrize("bad", [-1, 8, 100])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError):
            tile_pattern(bad)


class TestUnitCell:
    def test_needs_16_slots(self):
        with pytest.raises(ValueError):
            UnitCell((0,) * 15)

    def test_rejects_bad_ids(self):
        with pytest.raises(ValueError):
            UnitCell((8,) + (0,) * 15)

    def test_transpose(self):
        cell = UnitCell(tuple(range(8)) + tuple(range(8)))
        assert np.array_equal(cell.transpose().grid(), cell.grid().T)
        assert cell.transpose().transpose() == cell


class TestCompose:
    def test_all_solid(self):
        assert compose(UnitCell.filled(7)).sum() == 32 * 32

    def test_all_bare(self):
        assert compose(UnitCell.filled(0)).sum() == 16 * 4

    def test_block_placement(self):
        cell = UnitCell((3,) + (0,) * 15)
        matrix = compose(cell)
        assert np.array_equal(matrix[0:8, 0:8], tile_pattern(3))
        assert np.array_equal(matrix[0:8, 8:16], tile_pattern(0))
        assert np.array_equal(matrix[24:32, 24:32], tile_pattern(0))

    def test_block_local(self):
        rng = np.random.default_rng(3)
        base = UnitCell.random(rng)
        changed = list(base.tiles)
        changed[5] = (changed[5] + 1) % 8
        diff = compose(base) != compose(UnitCell(tuple(changed)))
        rows, cols = np.nonzero(diff)
        assert rows.size > 0
        # slot 5 = row 1, col 1 -> block rows 8..15, cols 8..15
        assert rows.min() >= 8 and rows.max() < 16
        assert cols.min() >= 8 and cols.max() < 16


class TestCodec:
    def test_all_zero(self):
        assert encode_bits(UnitCell.filled(0)).sum() == 0

    def test_all_ones(self):
        assert encode_bits(UnitCell.filled(7)).sum() == 48

    def test_positional_encoding(self):
        bits = encode_bits(UnitCell((5,) + (0,) * 15))
        assert list(bits[:3]) == [1, 0, 1]
        assert bits[3:].sum() == 0

    def test_decode_leading_slot(self):
        bits = np.zeros(48, dtype=np.uint8)
        bits[:3] = 1
        assert decode_bits(bits) == UnitCell((7,) + (0,) * 15)

    def test_round_trip_seeded(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            cell = UnitCell.random(rng)
            assert decode_bits(encode_bits(cell)) == cell

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            decode_bits(np.zeros(47, dtype=np.uint8))

    @pytest.mark.parametrize("value", [2, -1, 0.5, np.nan, "1"])
    def test_non_binary(self, value):
        bad = np.zeros(48, dtype=object if isinstance(value, str) else float)
        bad[0] = value
        with pytest.raises(ValueError):
            decode_bits(bad)


class TestDecodeSoft:
    def test_high_activations(self):
        assert decode_soft(np.full(48, 0.99)).sum() == 48

    def test_low_activations(self):
        assert decode_soft(np.full(48, 0.01)).sum() == 0

    def test_tie_rounds_up(self):
        assert decode_soft(np.full(48, 0.5)).sum() == 48

    def test_hard_bits_identity(self):
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, 48)
        assert np.array_equal(decode_soft(bits.astype(float)), bits)

    def test_rejects_out_of_range(self):
        bad = np.full(48, 0.5)
        bad[0] = 1.5
        with pytest.raises(ValueError):
            decode_soft(bad)


class TestRender:
    def test_ascii_solid(self):
        text = render(UnitCell.filled(7), "ascii").decode()
        lines = text.splitlines()
        assert len(lines) == 32
        assert all(line == "#" * 32 for line in lines)

    def test_pgm_header_and_payload(self):
        data = render(UnitCell.filled(0), "pgm")
        header, rest = data.split(b"\n", 1)
        assert header == b"P5"
        dims, rest = rest.split(b"\n", 1)
        assert dims == b"32 32"
        maxval, payload = rest.split(b"\n", 1)
        assert maxval == b"255"
        assert len(payload) == 1024
        # bare-center tile: 4 copper (0) cells per tile, 16 tiles
        arr = np.frombuffer(payload, dtype=np.uint8)
        assert (arr == 0).sum() == 64
        assert (arr == 255).sum() == 1024 - 64

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        cell = UnitCell.random(rng)
        bits = encode_bits(cell)
        assert render(decode_bits(bits), "pgm") == render(cell, "pgm")
        assert render(decode_bits(bits), "ascii") == render(cell, "ascii")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render(UnitCell.filled(0), "svg")
