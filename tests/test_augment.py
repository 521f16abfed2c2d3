"""Tests for the transform family, FIR design, policies and the sweep grid."""

import math

import numpy as np
import pytest

from cardioclr import augment as aug
from cardioclr.errors import ParameterError


def fir_response_db(taps, freq_hz, fs=2000):
    """FFT-of-taps oracle: magnitude response at one frequency, in dB."""
    n = np.arange(len(taps))
    w = 2 * np.pi * freq_hz / fs
    mag = abs(np.sum(taps * np.exp(-1j * w * n)))
    return 20 * np.log10(max(mag, 1e-12))


class ScriptedRng:
    """Duck-typed rng returning scripted uniform draws (for forced branches)."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


class TestNoise:
    def test_zero_width_range_is_identity(self):
        x = np.random.default_rng(0).uniform(-1, 1, 100).astype(np.float32)
        out = aug.add_noise(x, 0.0, 0.0, "u", np.random.default_rng(1))
        np.testing.assert_array_equal(out, x)

    def test_uniform_bounds_and_mean(self):
        # U(-b, b) has mean 0 and variance b^2/3; the sample mean of n draws
        # has std b/sqrt(3n). Assert a 3-sigma band.
        b = 0.01
        n = 10000
        x = np.zeros(n, dtype=np.float64)
        out = aug.add_noise(x, -b, b, "u", np.random.default_rng(3))
        delta = out - x
        assert np.max(np.abs(delta)) <= b
        assert abs(delta.mean()) <= 3 * b / math.sqrt(3 * n)

    def test_gaussian_sigma(self):
        n = 200000
        out = aug.add_noise(np.zeros(n), -0.1, 0.1, "g", np.random.default_rng(4))
        assert abs(out.std() - 0.1) < 0.002

    def test_deterministic_given_seed(self):
        x = np.ones(50, dtype=np.float32)
        a = aug.add_noise(x, -0.1, 0.1, "u", np.random.default_rng(9))
        b = aug.add_noise(x, -0.1, 0.1, "u", np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)


class TestFirDesign:
    def test_lowpass_500_450(self):
        taps = aug.design_fir("lp", 500, 450)
        assert abs(fir_response_db(taps, 200)) <= 1.0
        assert fir_response_db(taps, 750) <= -40.0

    def test_highpass_250_300(self):
        taps = aug.design_fir("hp", 250, 300)
        assert fir_response_db(taps, 100) <= -40.0
        assert abs(fir_response_db(taps, 600)) <= 1.0

    def test_lowpass_unit_dc(self):
        for a, b in [(500, 450), (750, 700), (250, 200)]:
            taps = aug.design_fir("lp", a, b)
            assert abs(taps.sum() - 1.0) < 1e-6

    def test_all_six_grid_variants_meet_spec(self):
        # >= 40 dB attenuation one transition-width beyond the stopband edge,
        # <= 1 dB ripple one transition-width inside the passband.
        cases = [("lp", 500, 450), ("lp", 750, 700), ("lp", 250, 200),
                 ("hp", 500, 550), ("hp", 250, 300), ("hp", 750, 800)]
        for kind, a, b in cases:
            taps = aug.design_fir(kind, a, b)
            width = abs(a - b)
            if kind == "lp":
                pass_edge, stop_edge = min(a, b), max(a, b)
                probe_pass = pass_edge - width
                probe_stop = stop_edge + width
            else:
                stop_edge, pass_edge = min(a, b), max(a, b)
                probe_pass = pass_edge + width
                probe_stop = stop_edge - width
            assert fir_response_db(taps, probe_stop) <= -40.0, (kind, a, b)
            assert abs(fir_response_db(taps, probe_pass)) <= 1.0, (kind, a, b)
            assert len(taps) % 2 == 1
            assert len(taps) == math.ceil(3.3 * 2000 / width) + (math.ceil(3.3 * 2000 / width) + 1) % 2


class TestCutoffFilter:
    def test_zero_in_zero_out(self):
        taps = aug.design_fir("lp", 500, 450)
        out = aug.apply_cutoff_filter(np.zeros(10000, dtype=np.float32), taps)
        assert out.shape == (10000,)
        np.testing.assert_array_equal(out, 0)

    @pytest.mark.parametrize("freq,lo,hi", [(100, 0.89, 1.12), (750, 0.0, 0.01)])
    def test_sine_amplitude_ratio(self, freq, lo, hi):
        fs = 2000
        t = np.arange(10000) / fs
        x = np.sin(2 * np.pi * freq * t).astype(np.float32)
        taps = aug.design_fir("lp", 500, 450)
        y = aug.apply_cutoff_filter(x, taps)
        # FFT oracle: amplitude at the input frequency bin
        k = round(freq * 10000 / fs)
        amp_in = abs(np.fft.rfft(x)[k])
        amp_out = abs(np.fft.rfft(y.astype(np.float64))[k])
        ratio = amp_out / amp_in
        assert lo <= ratio <= hi

    def test_length_preserved_and_aligned(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, 10000).astype(np.float32)
        taps = aug.design_fir("lp", 750, 700)
        y = aug.apply_cutoff_filter(x, taps)
        assert y.shape == x.shape
        # group delay compensated: a low-passed signal stays correlated in place
        x_smooth = aug.apply_cutoff_filter(x, taps)
        corr = np.corrcoef(y, x_smooth)[0, 1]
        assert corr > 0.99

    def test_even_taps_rejected(self):
        with pytest.raises(ParameterError):
            aug.apply_cutoff_filter(np.zeros(100), np.ones(10))


class TestScaleReverseInvert:
    def test_scale_identity(self):
        x = np.array([0.5, -0.25], dtype=np.float32)
        out = aug.scale(x, 1.0, 1.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out, x)

    def test_scale_fixed_factor(self):
        x = np.array([0.1, -0.2], dtype=np.float32)
        out = aug.scale(x, 2.0, 2.0, np.random.default_rng(0))
        np.testing.assert_allclose(out, [0.2, -0.4], rtol=1e-6)

    def test_scale_mean_of_draws(self):
        # mean of U(1.0, 1.5) is 1.25 with std 0.5/sqrt(12); 3-sigma band on
        # the mean of n draws
        n = 4000
        rng = np.random.default_rng(5)
        draws = [float(aug.scale(np.ones(1), 1.0, 1.5, rng)[0]) for _ in range(n)]
        sigma = 0.5 / math.sqrt(12 * n)
        assert abs(np.mean(draws) - 1.25) <= 3 * sigma

    def test_reverse_and_invert(self):
        np.testing.assert_array_equal(aug.reverse(np.array([1.0, 2.0, 3.0])), [3, 2, 1])
        np.testing.assert_array_equal(aug.invert(np.array([1.0, -2.0])), [-1, 2])

    def test_involutions_and_commutation(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            x = rng.uniform(-1, 1, 64).astype(np.float32)
            np.testing.assert_array_equal(aug.reverse(aug.reverse(x)), x)
            np.testing.assert_array_equal(aug.invert(aug.invert(x)), x)
            np.testing.assert_array_equal(
                aug.reverse(aug.invert(x)), aug.invert(aug.reverse(x))
            )


class TestRandomFlip:
    def test_forced_no_op(self):
        x = np.array([1.0, 2.0, 3.0])
        out = aug.random_flip(x, 0.5, ScriptedRng([0.9, 0.9]))
        np.testing.assert_array_equal(out, x)

    def test_forced_both(self):
        x = np.array([1.0, 2.0, 3.0])
        out = aug.random_flip(x, 0.5, ScriptedRng([0.1, 0.1]))
        np.testing.assert_array_equal(out, aug.invert(aug.reverse(x)))

    def test_firing_rates_binomial(self):
        n, p = 10000, 0.5
        x = np.array([1.0, 2.0])
        reversed_count = inverted_count = 0
        rng = np.random.default_rng(8)
        for _ in range(n):
            out = aug.random_flip(x, p, rng)
            sign = 1.0 if abs(out[0]) == out[0] or out[0] > 0 else -1.0
            mag = np.abs(out)
            if mag[0] == 2.0:
                reversed_count += 1
            if out[np.argmax(mag)] < 0:
                inverted_count += 1
        # binomial 3-sigma: 5000 +- 3*sqrt(10000*0.25) = 5000 +- 150
        assert abs(reversed_count - n * p) <= 150
        assert abs(inverted_count - n * p) <= 150


class TestPolicies:
    def test_policy_0vs1(self):
        pol = aug.parse_policy("none|rev")
        x = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        left, right = aug.apply_policy(x, pol, np.random.default_rng(0))
        np.testing.assert_array_equal(left, [1, 2, 3])
        np.testing.assert_array_equal(right, [3, 2, 1])

    def test_policy_1vs1(self):
        pol = aug.parse_policy("inv|scale(2,2)")
        x = np.array([1.0, -1.0], dtype=np.float32)
        left, right = aug.apply_policy(x, pol, np.random.default_rng(0))
        np.testing.assert_array_equal(left, [-1, 1])
        np.testing.assert_allclose(right, [2, -2], rtol=1e-6)

    def test_chain_applies_left_to_right(self):
        # invert first: {1,2} -> {-1,-2}; then reverse -> {-2,-1}
        chain = aug.parse_chain("inv+rev")
        out = aug.apply_chain(np.array([1.0, 2.0]), chain, np.random.default_rng(0))
        np.testing.assert_array_equal(out, [-2, -1])

    def test_case_tags(self):
        assert aug.parse_policy("none|rev").case_tag == "0vs1"
        assert aug.parse_policy("inv|rev").case_tag == "1vs1"
        assert aug.parse_policy("inv|rev+scale(1,2)").case_tag == "1vs2"
        assert aug.parse_policy("inv+flip(0.5)|rev+scale(1,2)").case_tag == "2vs2"

    def test_identical_atoms_representable_but_never_enumerated(self):
        # the 1vs1 sweep never pairs an atom with itself, but such a policy
        # stays parseable (analysis must count e.g. lp|lp per chain)
        pol = aug.parse_policy("rev|rev")
        assert pol.case_tag == "1vs1"
        for enumerated in aug.enumerate_policies("1vs1"):
            assert enumerated.left != enumerated.right

    @pytest.mark.parametrize("text", [
        "lp(400,400)|none", "hp(1000,900)|none",
        "flip(1)|none", "flip(0)|none",
        "scale(2,1)|none", "scale(0,1)|none",
        "noise(u,0.1,-0.1)|none", "noise(x,0,1)|none", "noise(0.1)|none",
        "rev(1)|none", "blur|none", "lp(a,b)|none",
        "rev|inv+rev+scale(1,2)", "inv|rev|none", "none|none", "none",
    ])
    def test_grammar_rejects_malformed_policies(self, text):
        # atoms are checked once, when parsed; the transforms trust them
        with pytest.raises(ParameterError):
            aug.parse_policy(text)

    def test_grammar_round_trip(self):
        texts = [
            "hp(250,300)+flip(0.7)|inv+noise(u,-0.1,0.1)",
            "none|rev",
            "lp(500,450)|flip(0.5)",
            "scale(0.5,2)|noise(g,-0.01,0.01)",
        ]
        for text in texts:
            pol = aug.parse_policy(text)
            assert str(pol) == text
            assert aug.parse_policy(str(pol)) == pol

    def test_policy_determinism(self):
        pol = aug.parse_policy("flip(0.5)|noise(u,-0.1,0.1)+scale(0.5,2)")
        x = np.random.default_rng(1).uniform(-1, 1, 10000).astype(np.float32)
        out1 = aug.apply_policy(x, pol, aug.window_rng(42, 7))
        out2 = aug.apply_policy(x, pol, aug.window_rng(42, 7))
        np.testing.assert_array_equal(out1[0], out2[0])
        np.testing.assert_array_equal(out1[1], out2[1])

    def test_length_and_finiteness_preserved(self):
        x = np.random.default_rng(3).uniform(-1, 1, 10000).astype(np.float32)
        for atom in aug.default_atom_grid():
            out = aug.apply_atom(x, atom, np.random.default_rng(11))
            assert out.shape == x.shape, str(atom)
            assert np.all(np.isfinite(out)), str(atom)
            assert out.dtype == x.dtype, str(atom)


class TestEnumeration:
    def test_grid_has_17_atoms(self):
        grid = aug.default_atom_grid()
        assert len(grid) == 17
        assert len(set(map(str, grid))) == 17

    def test_0vs1_count(self):
        assert len(aug.enumerate_policies("0vs1")) == 17

    def test_1vs1_count(self):
        policies = aug.enumerate_policies("1vs1")
        assert len(policies) == math.comb(17, 2) == 136
        assert len({str(p) for p in policies}) == 136

    @pytest.mark.parametrize("case_tag", ["1vs2", "2vs2", "3vs3"])
    def test_only_0vs1_and_1vs1_are_enumerated(self, case_tag):
        with pytest.raises(ParameterError):
            aug.enumerate_policies(case_tag)
