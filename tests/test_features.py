import numpy as np
import pytest

from metacell.features import (
    DesignTarget,
    NotchFeature,
    assemble_input,
    extract_notches,
    select_deepest,
    target_from_dict,
    target_of_cell,
)
from metacell.geometry import UnitCell
from metacell.surrogate import (
    NotchParams,
    Polarization,
    ReflectionSpectrum,
    frequency_grid,
    lorentzian_sum,
    notch_params,
    reflection_spectrum,
)


def synthetic_spectrum(notches, pol=Polarization.TE):
    return ReflectionSpectrum(pol, lorentzian_sum(frequency_grid(), notches))


class TestExtractNotches:
    def test_single_lorentzian(self):
        # depth*h^2/((f-c)^2+h^2) crosses -10 at |f-c| = h*sqrt(depth/-10 - 1),
        # so a (-20 dB, h=0.3) notch has bandwidth 2*0.3*sqrt(1) = 0.6
        spec = synthetic_spectrum([NotchParams(10.0, -20.0, 0.3)])
        (feat,) = extract_notches(spec)
        assert feat.frequency == pytest.approx(10.0, abs=0.05)
        assert feat.depth == pytest.approx(-20.0, abs=0.2)
        assert feat.bandwidth == pytest.approx(0.6, abs=0.1)

    def test_shallow_spectrum_empty(self):
        spec = ReflectionSpectrum(Polarization.TE, np.full(821, -3.0))
        assert extract_notches(spec) == []

    def test_two_separated_notches_ordered(self):
        cell = UnitCell((0, 0, 5, 5) + (0,) * 12)
        expected = notch_params(cell, Polarization.TE)
        feats = extract_notches(reflection_spectrum(cell, Polarization.TE))
        assert len(feats) == 2
        assert feats[0].frequency < feats[1].frequency
        for feat, notch in zip(feats, expected):
            assert feat.frequency == pytest.approx(notch.center, abs=0.05)

    def test_plateau_reports_leftmost_once(self):
        samples = np.full(821, -3.0)
        samples[100:105] = -15.0
        spec = ReflectionSpectrum(Polarization.TE, samples)
        feats = extract_notches(spec)
        assert len(feats) == 1
        assert feats[0].frequency == pytest.approx(frequency_grid()[100])
        assert feats[0].depth == pytest.approx(-15.0)

    def test_above_threshold_minimum_ignored(self):
        samples = np.full(821, -3.0)
        samples[50] = -9.9
        spec = ReflectionSpectrum(Polarization.TE, samples)
        assert extract_notches(spec) == []

    def test_sweep_recovery(self):
        # 500 random single-notch cases; oracle is the analytic construction
        rng = np.random.default_rng(2024)
        bad = 0
        for _ in range(500):
            center = rng.uniform(6.0, 43.0)
            depth = rng.uniform(-40.0, -12.0)
            halfwidth = rng.uniform(0.2, 1.5)
            spec = synthetic_spectrum([NotchParams(center, depth, halfwidth)])
            feats = extract_notches(spec)
            if len(feats) != 1:
                bad += 1
                continue
            if abs(feats[0].frequency - center) > 0.05 or abs(feats[0].depth - depth) > 0.2:
                bad += 1
        assert bad <= 5

    def test_every_feature_qualifies(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            cell = UnitCell.random(rng)
            for pol in Polarization:
                for feat in extract_notches(reflection_spectrum(cell, pol)):
                    assert feat.depth <= -10.0
                    assert feat.bandwidth > 0.0


class TestSelectDeepest:
    def test_keeps_four_deepest(self):
        feats = [NotchFeature(10.0 + i, -11.0 - i, 0.3) for i in range(6)]
        kept = select_deepest(feats)
        assert len(kept) == 4
        # deepest four are the ones at 12..15 GHz; result re-sorted by frequency
        assert [f.frequency for f in kept] == [12.0, 13.0, 14.0, 15.0]
        assert [f.depth for f in kept] == [-13.0, -14.0, -15.0, -16.0]

    def test_tie_prefers_lower_frequency(self):
        feats = [NotchFeature(30.0, -12.0, 0.3), NotchFeature(10.0, -12.0, 0.3),
                 NotchFeature(20.0, -12.0, 0.3), NotchFeature(25.0, -12.0, 0.3),
                 NotchFeature(15.0, -12.0, 0.3)]
        kept = select_deepest(feats)
        assert [f.frequency for f in kept] == [10.0, 15.0, 20.0, 25.0]


class TestDesignTarget:
    def test_sorts_ascending(self):
        t = DesignTarget(te=(NotchFeature(20.0, -12.0, 0.3), NotchFeature(10.0, -12.0, 0.3)))
        assert [f.frequency for f in t.te] == [10.0, 20.0]

    def test_rejects_overfull(self):
        feats = tuple(NotchFeature(10.0 + i, -12.0, 0.3) for i in range(5))
        with pytest.raises(ValueError):
            DesignTarget(te=feats)

    def test_feature_validation(self):
        with pytest.raises(ValueError):
            NotchFeature(3.0, -12.0, 0.3)
        with pytest.raises(ValueError):
            NotchFeature(10.0, -9.0, 0.3)
        with pytest.raises(ValueError):
            NotchFeature(10.0, -12.0, 0.0)


class TestAssembleInput:
    def test_empty_target(self):
        assert np.array_equal(assemble_input(DesignTarget()), np.zeros(24))

    def test_reference_normalization(self):
        # one TE notch (24.5, -34.5, 0.5); TM (10, -18.5, 0.2), (14.5, -20, 0.4),
        # (33, -14, 0.3)
        target = DesignTarget(
            te=(NotchFeature(24.5, -34.5, 0.5),),
            tm=(NotchFeature(10.0, -18.5, 0.2), NotchFeature(14.5, -20.0, 0.4),
                NotchFeature(33.0, -14.0, 0.3)),
        )
        vec = assemble_input(target)
        assert vec[0:3] == pytest.approx([0.5, 0.8625, 0.25])
        assert np.array_equal(vec[3:12], np.zeros(9))
        assert vec[12:15] == pytest.approx([6 / 41, 0.4625, 0.1], abs=1e-5)
        assert vec[15:18] == pytest.approx([10.5 / 41, 0.5, 0.2], abs=1e-5)
        assert vec[18:21] == pytest.approx([29 / 41, 0.35, 0.15], abs=1e-5)
        assert np.array_equal(vec[21:24], np.zeros(3))

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            vec = assemble_input(target_of_cell(UnitCell.random(rng)))
            assert vec.min() >= 0.0
            assert vec.max() <= 1.0


class TestTargetOfCell:
    def test_uniform_cell(self):
        target = target_of_cell(UnitCell.filled(0))
        assert len(target.te) == 1
        assert target.te[0].frequency == pytest.approx(6.0, abs=0.05)
        assert target.te[0].depth == pytest.approx(-40.0, abs=0.5)

    def test_transpose_duality(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            cell = UnitCell.random(rng)
            assert target_of_cell(cell).te == target_of_cell(cell.transpose()).tm

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        cell = UnitCell.random(rng)
        assert target_of_cell(cell) == target_of_cell(cell)

    def test_truncates_to_four(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            target = target_of_cell(UnitCell.random(rng))
            assert len(target.te) <= 4
            assert len(target.tm) <= 4


class TestTargetDocument:
    def test_round_trip(self):
        doc = {"te": [{"freq_ghz": 27.5, "depth_db": -30.0, "bandwidth_ghz": 0.5}],
               "tm": [{"freq_ghz": 14.0, "depth_db": -22.0, "bandwidth_ghz": 0.2}]}
        assert target_from_dict(doc) == DesignTarget(
            te=(NotchFeature(27.5, -30.0, 0.5),),
            tm=(NotchFeature(14.0, -22.0, 0.2),),
        )

    def test_malformed(self):
        with pytest.raises(ValueError):
            target_from_dict({"te": [{"freq_ghz": 10.0}], "tm": []})
        with pytest.raises(ValueError):
            target_from_dict({"te": "oops", "tm": []})
        with pytest.raises(ValueError):
            target_from_dict([1, 2, 3])
