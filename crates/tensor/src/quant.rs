//! Symmetric int8 quantization for memory-bound scans.
//!
//! Corpus-scale retrieval is limited by shard memory traffic, not
//! arithmetic: a 1M-row f32 index streams 4 bytes per component per
//! query. Quantizing sealed rows to int8 cuts that traffic ~4x while an
//! exact f32 rescoring pass keeps final scores bit-identical (see
//! `gnn4ip-eval`'s quantized shard scan, which consumes these
//! primitives).
//!
//! The scheme is *symmetric*: a block of values is calibrated to a
//! single positive `scale` with `zero_point = 0`, each value maps to
//! `round(v / scale)` clamped to `[-127, 127]`, and dequantization is
//! the exact two-op inverse `(q - zero_point) * scale`. Symmetry keeps
//! the integer dot product free of zero-point cross terms, so it is a
//! plain sum of `i8 × i8` products accumulated in `i32` — exact integer
//! arithmetic for any block up to ~133k components (`127² · n < 2³¹`).

/// Calibration header of one quantized block: the `scale`/`zero_point`
/// pair every stored `i8` is interpreted through.
///
/// [`QuantParams::calibrate`] always produces `zero_point = 0`
/// (symmetric quantization); the field exists so the serialized shard
/// header stays honest about the scheme it uses and an asymmetric
/// variant could be added without a format break.
///
/// # Examples
///
/// ```
/// use gnn4ip_tensor::QuantParams;
///
/// let p = QuantParams::calibrate(&[0.5, -1.0, 0.25]);
/// let q = p.quantize(0.5);
/// assert!((p.dequantize(q) - 0.5).abs() <= p.step());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Positive width of one quantization step.
    pub scale: f32,
    /// Integer code of the real value 0.0 (always 0 for symmetric
    /// calibration).
    pub zero_point: i8,
}

impl QuantParams {
    /// Symmetric calibration over one block: `scale = max|v| / 127`,
    /// ignoring non-finite entries. An all-zero (or empty, or all
    /// non-finite) block gets `scale = 1.0`, under which it quantizes
    /// to all zeros and dequantizes back exactly.
    pub fn calibrate(values: &[f32]) -> Self {
        let mut max_abs = 0.0f32;
        for &v in values {
            if v.is_finite() {
                max_abs = max_abs.max(v.abs());
            }
        }
        let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
        Self {
            scale,
            zero_point: 0,
        }
    }

    /// Quantizes one value: `round(v / scale) + zero_point`, clamped to
    /// the symmetric range `[-127, 127]` (the code `-128` is never
    /// produced, keeping negation exact). Non-finite input maps to
    /// `zero_point`, mirroring how the embedding index stores
    /// non-finite rows as zeros.
    pub fn quantize(&self, v: f32) -> i8 {
        if !v.is_finite() {
            return self.zero_point;
        }
        let q = (v / self.scale).round() + f32::from(self.zero_point);
        q.clamp(-127.0, 127.0) as i8
    }

    /// Exact inverse interpretation of a stored code:
    /// `(q - zero_point) * scale`.
    pub fn dequantize(&self, q: i8) -> f32 {
        (i32::from(q) - i32::from(self.zero_point)) as f32 * self.scale
    }

    /// Quantizes a slice, appending the codes to `out`.
    pub fn quantize_into(&self, values: &[f32], out: &mut Vec<i8>) {
        out.reserve(values.len());
        out.extend(values.iter().map(|&v| self.quantize(v)));
    }

    /// Upper bound on the round-trip error `|v - dequantize(quantize(v))|`
    /// for any finite `v` inside the calibrated range: half a
    /// quantization step.
    pub fn step(&self) -> f32 {
        self.scale * 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrate_covers_the_max_component_exactly() {
        let p = QuantParams::calibrate(&[0.3, -0.8, 0.1]);
        assert_eq!(p.zero_point, 0);
        assert_eq!(p.quantize(-0.8), -127);
        assert_eq!(
            p.dequantize(-127).to_bits(),
            (-127.0f32 * p.scale).to_bits()
        );
    }

    #[test]
    fn roundtrip_error_is_within_half_a_step() {
        let vals: Vec<f32> = (0..200).map(|i| (i as f32 * 0.37).sin() * 0.9).collect();
        let p = QuantParams::calibrate(&vals);
        for &v in &vals {
            let err = (v - p.dequantize(p.quantize(v))).abs();
            // a hair of slack for the division/rounding in quantize
            assert!(err <= p.step() * 1.0001, "v={v} err={err}");
        }
    }

    #[test]
    fn degenerate_blocks_quantize_to_zeros() {
        for block in [&[][..], &[0.0, -0.0][..], &[f32::NAN, f32::INFINITY][..]] {
            let p = QuantParams::calibrate(block);
            assert_eq!(p.scale, 1.0);
            for &v in block {
                assert_eq!(p.quantize(v), 0);
                assert_eq!(p.dequantize(p.quantize(v)), 0.0);
            }
        }
    }

    #[test]
    fn quantize_into_matches_scalar_quantize() {
        let vals: Vec<f32> = (0..33).map(|i| i as f32 * 0.11 - 1.7).collect();
        let p = QuantParams::calibrate(&vals);
        let mut out = Vec::new();
        p.quantize_into(&vals, &mut out);
        let scalar: Vec<i8> = vals.iter().map(|&v| p.quantize(v)).collect();
        assert_eq!(out, scalar);
    }
}
