"""Fixed-point encoding and bit decomposition."""

import numpy as np
import pytest

from repro.core.encoding import (
    FixedPointEncoder,
    bit_matrix,
    bit_means,
    extract_bit,
    mean_from_bit_means,
    required_bits,
)
from repro.exceptions import ConfigurationError, EncodingError


class TestRequiredBits:
    @pytest.mark.parametrize(
        "value,expected",
        [(0, 1), (1, 1), (2, 2), (3, 2), (4, 3), (255, 8), (256, 9), (1023, 10), (1024, 11)],
    )
    def test_values(self, value, expected):
        assert required_bits(value) == expected

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            required_bits(-1)


class TestExtractBit:
    def test_known_pattern(self):
        # 0b1010 = 10
        enc = np.array([10], dtype=np.uint64)
        assert extract_bit(enc, 0)[0] == 0
        assert extract_bit(enc, 1)[0] == 1
        assert extract_bit(enc, 2)[0] == 0
        assert extract_bit(enc, 3)[0] == 1

    def test_vectorized(self):
        enc = np.arange(8, dtype=np.uint64)
        assert extract_bit(enc, 0).tolist() == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_out_of_range_index_raises(self):
        with pytest.raises(ValueError):
            extract_bit(np.array([1], dtype=np.uint64), -1)
        with pytest.raises(ValueError):
            extract_bit(np.array([1], dtype=np.uint64), 63)


class TestBitMatrix:
    def test_reconstructs_values(self):
        values = np.array([0, 1, 5, 255, 170], dtype=np.uint64)
        matrix = bit_matrix(values, 8)
        weights = np.exp2(np.arange(8))
        np.testing.assert_array_equal(matrix @ weights, values.astype(float))

    def test_shape(self):
        assert bit_matrix(np.arange(10, dtype=np.uint64), 5).shape == (10, 5)

    def test_entries_are_binary(self):
        matrix = bit_matrix(np.arange(100, dtype=np.uint64), 7)
        assert set(np.unique(matrix)) <= {0, 1}

    def test_invalid_bits_raise(self):
        with pytest.raises(ValueError):
            bit_matrix(np.array([1], dtype=np.uint64), 0)
        with pytest.raises(ValueError):
            bit_matrix(np.array([1], dtype=np.uint64), 64)


class TestBitMeans:
    def test_linear_decomposition_identity(self):
        """mean(x) == sum_j 2^j * bit_mean_j -- the identity behind Eq. 1."""
        rng = np.random.default_rng(0)
        values = rng.integers(0, 1024, size=1000).astype(np.uint64)
        means = bit_means(values, 10)
        assert mean_from_bit_means(means) == pytest.approx(values.mean())

    def test_constant_input(self):
        means = bit_means(np.full(10, 5, dtype=np.uint64), 4)
        np.testing.assert_array_equal(means, [1.0, 0.0, 1.0, 0.0])

    def test_empty_raises(self):
        with pytest.raises(EncodingError):
            bit_means(np.array([], dtype=np.uint64), 4)


class TestFixedPointEncoderConstruction:
    def test_basic_roundtrip(self):
        enc = FixedPointEncoder(n_bits=8)
        np.testing.assert_array_equal(enc.decode(enc.encode([0.0, 42.0, 255.0])), [0.0, 42.0, 255.0])

    def test_invalid_bits(self):
        with pytest.raises(ConfigurationError):
            FixedPointEncoder(n_bits=0)
        with pytest.raises(ConfigurationError):
            FixedPointEncoder(n_bits=64)

    def test_invalid_scale(self):
        with pytest.raises(ConfigurationError):
            FixedPointEncoder(n_bits=8, scale=0.0)
        with pytest.raises(ConfigurationError):
            FixedPointEncoder(n_bits=8, scale=-1.0)
        with pytest.raises(ConfigurationError):
            FixedPointEncoder(n_bits=8, scale=float("nan"))

    def test_invalid_offset(self):
        with pytest.raises(ConfigurationError):
            FixedPointEncoder(n_bits=8, offset=float("inf"))

    def test_for_range_endpoints(self):
        enc = FixedPointEncoder.for_range(-10.0, 10.0, n_bits=10)
        assert enc.encode([-10.0])[0] == 0
        assert enc.encode([10.0])[0] == 1023
        assert enc.decode_scalar(0) == pytest.approx(-10.0)
        assert enc.decode_scalar(1023) == pytest.approx(10.0)

    def test_for_range_invalid(self):
        with pytest.raises(ConfigurationError):
            FixedPointEncoder.for_range(5.0, 5.0, n_bits=8)
        with pytest.raises(ConfigurationError):
            FixedPointEncoder.for_range(10.0, 0.0, n_bits=8)

    def test_for_integers(self):
        enc = FixedPointEncoder.for_integers(12)
        assert enc.scale == 1.0 and enc.offset == 0.0
        assert enc.max_encoded == 4095

    def test_widened_keeps_grid(self):
        enc = FixedPointEncoder(n_bits=8, scale=0.5, offset=3.0)
        wide = enc.widened(16)
        assert wide.n_bits == 16
        assert wide.scale == enc.scale and wide.offset == enc.offset


class TestFixedPointEncoderClipping:
    def test_clipping_winsorizes(self):
        enc = FixedPointEncoder(n_bits=8, clip=True)
        assert enc.encode([1e9])[0] == 255
        assert enc.encode([-5.0])[0] == 0

    def test_strict_mode_raises(self):
        enc = FixedPointEncoder(n_bits=8, clip=False)
        with pytest.raises(EncodingError):
            enc.encode([300.0])
        with pytest.raises(EncodingError):
            enc.encode([-1.0])

    def test_non_finite_raises(self):
        enc = FixedPointEncoder(n_bits=8)
        with pytest.raises(EncodingError):
            enc.encode([float("nan")])
        with pytest.raises(EncodingError):
            enc.encode([float("inf")])

    def test_finiteness_checked_exactly_when_the_sum_is_not_finite(self):
        # encode() sums before it scans: opposite infinities sum to NaN and
        # are still rejected, while finite values whose sum overflows are
        # encoded.  It never writes into its input.
        enc = FixedPointEncoder(n_bits=8)
        with pytest.raises(EncodingError):
            enc.encode([float("inf"), float("-inf")])
        values = np.array([1.7e308, 1.7e308, -3.0])
        values.flags.writeable = False
        assert enc.encode(values).tolist() == [255, 255, 0]

    @pytest.mark.parametrize(
        "encoder",
        [
            FixedPointEncoder.for_integers(8),
            FixedPointEncoder.for_integers(8, clip=False),
            FixedPointEncoder(n_bits=8, scale=0.5),
            FixedPointEncoder(n_bits=8, offset=-3.0),
            FixedPointEncoder(n_bits=8, offset=-0.0),
        ],
        ids=["unit", "unit-strict", "scaled", "offset", "negative-zero-offset"],
    )
    def test_skipped_subtract_and_divide_are_exact(self, encoder):
        # encode() skips `- 0` and `/ 1`; the full formula must agree on
        # signed zeros, round-half-even ties, and values past either end.
        ties = np.arange(0, 12) + 0.5
        values = np.concatenate(
            [[-0.0, 0.0, 1e-320, -1e-320], ties, -ties, [-7.0, 254.5, 255.5, 300.0, 1e300]]
        )
        values.flags.writeable = False
        quantized = np.rint((values - encoder.offset) / encoder.scale)
        in_range = (quantized >= 0) & (quantized <= encoder.max_encoded)
        if encoder.clip:
            expected = np.clip(quantized, 0, encoder.max_encoded).astype(np.uint64)
            np.testing.assert_array_equal(encoder.encode(values), expected)
        else:
            with pytest.raises(EncodingError, match="outside representable range"):
                encoder.encode(values)
        np.testing.assert_array_equal(
            encoder.encode(values[in_range]), quantized[in_range].astype(np.uint64)
        )


class TestFixedPointEncoderBits:
    def test_bit_index_guard(self, encoder8):
        encoded = encoder8.encode([7.0])
        with pytest.raises(ValueError):
            encoder8.bit(encoded, 8)

    def test_true_bit_means_match_manual(self, encoder8):
        values = np.array([0.0, 1.0, 2.0, 3.0])
        means = encoder8.true_bit_means(values)
        assert means[0] == pytest.approx(0.5)   # values 1, 3
        assert means[1] == pytest.approx(0.5)   # values 2, 3
        assert means[2:].sum() == 0.0

    def test_mean_from_bit_means_roundtrip(self, encoder10, rng):
        values = rng.integers(0, 1024, size=500).astype(float)
        means = encoder10.true_bit_means(values)
        assert encoder10.mean_from_bit_means(means) == pytest.approx(values.mean())

    def test_mean_from_bit_means_wrong_length(self, encoder8):
        with pytest.raises(ValueError):
            encoder8.mean_from_bit_means(np.zeros(4))

    def test_scaled_encoder_mean_roundtrip(self):
        enc = FixedPointEncoder.for_range(100.0, 200.0, n_bits=12)
        rng = np.random.default_rng(1)
        values = rng.uniform(100.0, 200.0, size=2000)
        recovered = enc.mean_from_bit_means(enc.true_bit_means(values))
        # Quantization error bounded by half a grid step.
        assert abs(recovered - values.mean()) <= enc.quantization_error_bound()


class TestFixedPointEncoderIntrospection:
    def test_representable_bounds(self):
        enc = FixedPointEncoder.for_range(-4.0, 4.0, n_bits=8)
        assert enc.representable_min == pytest.approx(-4.0)
        assert enc.representable_max == pytest.approx(4.0)

    def test_quantization_error_bound(self):
        enc = FixedPointEncoder(n_bits=8, scale=0.25)
        assert enc.quantization_error_bound() == 0.125

    def test_encoder_is_hashable_value_object(self):
        a = FixedPointEncoder(n_bits=8)
        b = FixedPointEncoder(n_bits=8)
        assert a == b
