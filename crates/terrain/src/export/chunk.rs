//! Allocation-free output for the text backends: one reused chunk buffer in
//! front of the caller's `dyn Write`, and an exact fixed-point formatter
//! that writes `{:.2}` bytes straight into it.
//!
//! The formatter is a contract, not an approximation: for every `f64` it
//! produces exactly the bytes of `format!("{:.2}", v)`. Finite normal values
//! with `|v| < 1e15` take the fast path — `|v|·100` is computed exactly from
//! the mantissa and exponent in `u128` and rounded half to even, which is how
//! `core::fmt` rounds exact ties. Everything else (subnormals, NaN, ±∞ and
//! `|v| ≥ 1e15`) falls back to `core::fmt` itself.

use std::io::{self, Write};

/// Bytes buffered before a flush to the underlying writer.
const CHUNK: usize = 64 * 1024;

/// Values at or above this magnitude are formatted by `core::fmt`; below it
/// `|v|·100` fits a `u64` exactly.
const FAST_LIMIT: f64 = 1e15;

/// A reusable [`CHUNK`]-byte buffer flushed to the underlying writer as it
/// fills. [`finish`](Self::finish) writes the tail; dropping the writer
/// without it loses whatever is still buffered.
pub(crate) struct ChunkWriter<'w> {
    out: &'w mut dyn Write,
    buf: Vec<u8>,
}

impl<'w> ChunkWriter<'w> {
    pub(crate) fn new(out: &'w mut dyn Write) -> Self {
        ChunkWriter { out, buf: Vec::with_capacity(CHUNK) }
    }

    /// Append `value` exactly as `format!("{:.2}", value)` would.
    #[inline]
    pub(crate) fn fixed2(&mut self, value: f64) -> io::Result<()> {
        // The fast path writes at most 19 bytes (sign, 15 digits, point, 2).
        if self.buf.len() + 32 > CHUNK {
            self.drain()?;
        }
        push_fixed2(&mut self.buf, value);
        Ok(())
    }

    /// Write out everything still buffered.
    pub(crate) fn finish(mut self) -> io::Result<()> {
        self.drain()
    }

    fn drain(&mut self) -> io::Result<()> {
        self.out.write_all(&self.buf)?;
        self.buf.clear();
        Ok(())
    }
}

impl Write for ChunkWriter<'_> {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.write_all(bytes)?;
        Ok(bytes.len())
    }

    #[inline]
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        if self.buf.len() + bytes.len() > CHUNK {
            self.drain()?;
            if bytes.len() > CHUNK {
                return self.out.write_all(bytes);
            }
        }
        self.buf.extend_from_slice(bytes);
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.drain()?;
        self.out.flush()
    }
}

/// Append `value` to `out` exactly as `format!("{:.2}", value)` would.
pub(crate) fn push_fixed2(out: &mut Vec<u8>, value: f64) {
    let bits = value.to_bits();
    let biased_exp = ((bits >> 52) & 0x7ff) as i32;
    let fraction = bits & ((1 << 52) - 1);
    let subnormal = biased_exp == 0 && fraction != 0;
    if subnormal || biased_exp == 0x7ff || value.abs() >= FAST_LIMIT {
        write!(out, "{value:.2}").expect("writing to a Vec<u8> cannot fail");
        return;
    }
    // |value| = mantissa / 2^shift exactly (zero has mantissa 0). Below
    // FAST_LIMIT < 2^50 the exponent leaves shift >= 3, and scaled < 2^60.
    let mantissa = if biased_exp == 0 { 0 } else { fraction | (1 << 52) };
    let shift = (1075 - biased_exp) as u32;
    let scaled = u128::from(mantissa) * 100;
    let hundredths = if shift >= 127 {
        0
    } else {
        let quotient = scaled >> shift;
        let remainder = scaled - (quotient << shift);
        let half = 1u128 << (shift - 1);
        let round_up = remainder > half || (remainder == half && quotient & 1 == 1);
        (quotient + u128::from(round_up)) as u64
    };
    if bits >> 63 == 1 {
        out.push(b'-');
    }
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    let mut whole = hundredths / 100;
    loop {
        start -= 1;
        digits[start] = b'0' + (whole % 10) as u8;
        whole /= 10;
        if whole == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
    let cents = (hundredths % 100) as u8;
    out.extend_from_slice(&[b'.', b'0' + cents / 10, b'0' + cents % 10]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed2(value: f64) -> String {
        let mut out = Vec::new();
        push_fixed2(&mut out, value);
        String::from_utf8(out).unwrap()
    }

    fn assert_matches_core_fmt(value: f64) {
        assert_eq!(fixed2(value), format!("{value:.2}"), "bits {:#018x}", value.to_bits());
    }

    /// SplitMix64: a seeded, dependency-free stream of 64-bit patterns.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn signs_zeros_and_values_that_round_to_zero() {
        assert_eq!(fixed2(0.0), "0.00");
        assert_eq!(fixed2(-0.0), "-0.00");
        assert_eq!(fixed2(-0.001), "-0.00");
        assert_eq!(fixed2(-1.5), "-1.50");
        for value in [0.0, -0.0, -0.001, 0.004_999, -0.005, 0.005, 1.0, -1.0, 99.999] {
            assert_matches_core_fmt(value);
        }
    }

    #[test]
    fn exact_ties_round_half_to_even() {
        assert_eq!(fixed2(0.125), "0.12");
        assert_eq!(fixed2(0.375), "0.38");
        assert_eq!(fixed2(2.5), "2.50");
        // Every k/8 up to 10^4 (both signs): the eighths are the exact ties
        // at two decimals.
        for k in 0..=80_000u32 {
            let value = f64::from(k) / 8.0;
            assert_matches_core_fmt(value);
            assert_matches_core_fmt(-value);
        }
    }

    #[test]
    fn boundaries_and_fallback_values() {
        let limit = FAST_LIMIT;
        let cases = [
            1599.995,
            -1599.995,
            limit,
            -limit,
            f64::from_bits(limit.to_bits() - 1),
            f64::from_bits(limit.to_bits() + 1),
            -f64::from_bits(limit.to_bits() - 1),
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::from_bits((1 << 52) - 1),
            -f64::from_bits(1),
            f64::EPSILON,
            f64::MAX,
            f64::MIN,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            4_503_599_627_370_496.0, // 2^52
            9_007_199_254_740_993.0, // 2^53 + 1 (not representable)
        ];
        for value in cases {
            assert_matches_core_fmt(value);
        }
    }

    #[test]
    fn seeded_sweep_matches_core_fmt() {
        let mut state = 0x5eed_f1ed_u64;
        // Random bit patterns cover every exponent, sign and fallback class.
        for _ in 0..200_000 {
            assert_matches_core_fmt(f64::from_bits(splitmix64(&mut state)));
        }
        // Uniform values in [-200, 2000]: the range SVG pixel coordinates
        // actually take.
        for _ in 0..200_000 {
            let unit = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            assert_matches_core_fmt(-200.0 + 2200.0 * unit);
        }
        // Random mantissas at every exponent of the fast path, from values
        // that round to zero up to just below the fallback limit.
        for _ in 0..200_000 {
            let bits = splitmix64(&mut state);
            let biased_exp = 1015 + (bits >> 52) % 58;
            let value = f64::from_bits((bits & (1 << 63 | ((1 << 52) - 1))) | biased_exp << 52);
            assert_matches_core_fmt(value);
        }
    }

    #[test]
    fn chunk_writer_preserves_bytes_across_flushes() {
        let mut sink = Vec::new();
        let mut expected = Vec::new();
        let mut writer = ChunkWriter::new(&mut sink);
        for i in 0..20_000u32 {
            let value = f64::from(i) * 1.37 - 500.0;
            writer.write_all(b"<p ").unwrap();
            writer.fixed2(value).unwrap();
            write!(writer, " {i}>").unwrap();
            write!(expected, "<p {value:.2} {i}>").unwrap();
        }
        let big = vec![b'x'; CHUNK + 7];
        writer.write_all(&big).unwrap();
        expected.extend_from_slice(&big);
        writer.finish().unwrap();
        assert!(expected.len() > 3 * CHUNK);
        assert_eq!(sink, expected);
    }
}
