//! Allocation-free output for the text backends: one reused chunk buffer in
//! front of the caller's `dyn Write`, and exact number writers that put
//! `core::fmt`'s bytes straight into it.
//!
//! The writers are contracts, not approximations: for every input they
//! produce exactly the bytes `core::fmt` would.
//!
//! - [`ChunkWriter::fixed2`] writes `format!("{:.2}", v)`. Finite normal
//!   values with `|v| < 1e15` take the fast path — `|v|·100` is computed
//!   exactly from the mantissa and exponent in `u128` and rounded half to
//!   even, which is how `core::fmt` rounds exact ties at a fixed precision.
//!   Everything else (subnormals, NaN, ±∞ and `|v| ≥ 1e15`) falls back to
//!   `core::fmt` itself.
//! - [`ChunkWriter::shortest`] writes `format!("{}", v)`: the shortest
//!   decimal that rounds back to `v`, closest to `v` among those, in plain
//!   (never exponent) notation. Every normal `f64` takes the fast path:
//!   integers below 2^53 are written as integers, everything else goes
//!   through Schubfach (Giulietti 2020), a relative of Ryū (Adams, PLDI
//!   2018) that scales by one 126-bit power of ten from an in-tree table and
//!   reads both candidate digit strings off three round-to-odd products.
//!   When the two closest candidates are exactly equidistant from `v`,
//!   `core::fmt` takes the **upper** one (`524288.00048828125` prints as
//!   `524288.0004882813`), where reference Ryū and Schubfach round to even;
//!   this writer follows `core::fmt`. ±0 are written as `0` and `-0`;
//!   subnormals, NaN and ±∞ fall back to `core::fmt`.
//! - [`ChunkWriter::uint`] writes an unsigned integer in decimal.

use std::io::{self, Write};

/// Bytes buffered before a flush to the underlying writer.
const CHUNK: usize = 64 * 1024;

/// Values at or above this magnitude are formatted by `core::fmt`; below it
/// `|v|·100` fits a `u64` exactly.
const FAST_LIMIT: f64 = 1e15;

/// The longest `Display` output of any `f64`: a sign, `0.` and the 324
/// fractional digits the smallest subnormals need.
const MAX_SHORTEST: usize = 327;

/// The longest decimal `u64` (`u64::MAX`).
const MAX_UINT: usize = 20;

const FRACTION_MASK: u64 = (1 << 52) - 1;
const HIDDEN_BIT: u64 = 1 << 52;

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

    /// Append `value` exactly as `format!("{}", value)` would.
    #[inline]
    pub(crate) fn shortest(&mut self, value: f64) -> io::Result<()> {
        if self.buf.len() + MAX_SHORTEST > CHUNK {
            self.drain()?;
        }
        push_shortest(&mut self.buf, value);
        Ok(())
    }

    /// Append `value` in decimal, exactly as `format!("{}", value)` would.
    #[inline]
    pub(crate) fn uint(&mut self, value: u64) -> io::Result<()> {
        if self.buf.len() + MAX_UINT > CHUNK {
            self.drain()?;
        }
        push_uint(&mut self.buf, value);
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
    let fraction = bits & FRACTION_MASK;
    let subnormal = biased_exp == 0 && fraction != 0;
    if subnormal || biased_exp == 0x7ff || value.abs() >= FAST_LIMIT {
        write!(out, "{value:.2}").expect("writing to a Vec<u8> cannot fail");
        return;
    }
    // |value| = mantissa / 2^shift exactly (zero has mantissa 0). Below
    // FAST_LIMIT < 2^50 the exponent leaves shift >= 3, and scaled < 2^60.
    let mantissa = if biased_exp == 0 { 0 } else { fraction | HIDDEN_BIT };
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
    push_uint(out, hundredths / 100);
    let cents = (hundredths % 100) as u8;
    out.extend_from_slice(&[b'.', b'0' + cents / 10, b'0' + cents % 10]);
}

/// `"00" "01" … "99"`: two decimal digits per table lookup.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Write `value`'s decimal digits right-aligned into `buf` (at least
/// [`MAX_UINT`] bytes) and return the index of the first one.
#[inline]
fn digits_into<const N: usize>(buf: &mut [u8; N], value: u64) -> usize {
    let mut start = N;
    // Eight digits per 64-bit division; inside a group the halves and
    // pairs are independent 32-bit steps rather than one long chain.
    let mut value = value;
    while value >= 100_000_000 {
        let group = (value % 100_000_000) as u32;
        value /= 100_000_000;
        start -= 8;
        let (high, low) = (group / 10_000, group % 10_000);
        for (at, pair) in [high / 100, high % 100, low / 100, low % 100].into_iter().enumerate() {
            let pair = pair as usize * 2;
            buf[start + 2 * at..start + 2 * at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
    }
    let mut value = value as u32;
    while value >= 100 {
        let pair = (value % 100) as usize * 2;
        value /= 100;
        start -= 2;
        buf[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if value >= 10 {
        let pair = value as usize * 2;
        start -= 2;
        buf[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        start -= 1;
        buf[start] = b'0' + value as u8;
    }
    start
}

/// Append `value` to `out` in decimal.
#[inline]
pub(crate) fn push_uint(out: &mut Vec<u8>, value: u64) {
    let mut buf = [0u8; MAX_UINT];
    let start = digits_into(&mut buf, value);
    out.extend_from_slice(&buf[start..]);
}

/// Append `value` to `out` exactly as `format!("{}", value)` would.
pub(crate) fn push_shortest(out: &mut Vec<u8>, value: f64) {
    let bits = value.to_bits();
    if bits << 1 == 0 {
        out.extend_from_slice(if bits == 0 { b"0" } else { b"-0" });
        return;
    }
    let biased_exp = ((bits >> 52) & 0x7ff) as i32;
    if biased_exp == 0 || biased_exp == 0x7ff {
        // Subnormals, NaN and ±∞.
        write!(out, "{value}").expect("writing to a Vec<u8> cannot fail");
        return;
    }
    if bits >> 63 == 1 {
        out.push(b'-');
    }
    // |value| = c · 2^q exactly.
    let fraction = bits & FRACTION_MASK;
    let c = fraction | HIDDEN_BIT;
    let q = biased_exp - 1075;
    if (-52..=0).contains(&q) && c.trailing_zeros() >= q.unsigned_abs() {
        // An integer below 2^53: the spacing is at most 1, so no other
        // decimal with as few digits rounds to it.
        push_uint(out, c >> -q);
        return;
    }
    // A power of two has its lower neighbour at half the spacing of its
    // upper one (`core::fmt` treats every normal power of two so).
    let (digits, exp10) = to_decimal(c, q, fraction == 0);
    push_plain_decimal(out, digits, exp10);
}

/// Leading zeros [`push_plain_decimal`] lays out in its stack buffer; more
/// (values below `1e-26`) take a slower path.
const PLAIN_ZEROS: usize = 26;

/// Append `digits · 10^exp10`, without `digits`' trailing zeros, in plain
/// notation, as `core::fmt`'s `{}` lays out a shortest digit string:
/// `0.000ddd`, `dd.ddd` or `ddd000`.
#[inline]
fn push_plain_decimal(out: &mut Vec<u8>, digits: u64, mut exp10: i32) {
    // `0.`, the leading zeros and the digits, right-aligned; prefilled with
    // the zeros, so only the point needs writing.
    let mut buf = [b'0'; 2 + PLAIN_ZEROS + MAX_UINT];
    let start = digits_into(&mut buf, digits);
    let mut end = buf.len();
    while buf[end - 1] == b'0' {
        end -= 1;
        exp10 += 1;
    }
    let len = (end - start) as i32;
    // The number of digits before the decimal point.
    let point = len + exp10;
    if point <= 0 {
        let zeros = point.unsigned_abs() as usize;
        if zeros <= PLAIN_ZEROS {
            buf[start - zeros - 1] = b'.';
            out.extend_from_slice(&buf[start - zeros - 2..end]);
        } else {
            out.extend_from_slice(b"0.");
            out.resize(out.len() + zeros, b'0');
            out.extend_from_slice(&buf[start..end]);
        }
    } else if point < len {
        let split = start + point as usize;
        buf.copy_within(start..split, start - 1);
        buf[split - 1] = b'.';
        out.extend_from_slice(&buf[start - 1..end]);
    } else {
        out.extend_from_slice(&buf[start..end]);
        out.resize(out.len() + (point - len) as usize, b'0');
    }
}

/// Schubfach's shortest decimal for the normal double `c · 2^q` (`c` the
/// significand with its hidden bit): `(d, e)` such that `d · 10^e` rounds to
/// the double, `d` has as few digits as possible and, among those, lies
/// closest to `c · 2^q`, the upper one on an exact tie. `d` may carry
/// trailing zeros. `irregular` marks a power of two, whose rounding interval
/// reaches only half as far down as up.
///
/// Notation follows the Schubfach paper: `cb` is `4c`, `cbl`/`cbr` the
/// interval ends in the same quarter-spacing units, and `vb`, `vbl`, `vbr`
/// their images scaled by `4·10^-k`, rounded to odd so that comparisons
/// against even integers stay exact.
#[inline]
fn to_decimal(c: u64, q: i32, irregular: bool) -> (u64, i32) {
    // Odd significands exclude the interval ends (round half to even on
    // parsing); `out` turns `<=` into `<` below.
    let out = c & 1;
    let cb = c << 2;
    let cbr = cb + 2;
    let (cbl, k) = if irregular {
        (cb - 1, floor_log10_three_quarters_pow2(q))
    } else {
        (cb - 2, floor_log10_pow2(q))
    };
    // 10^-k = g·2^(floor_log2_pow10(-k) - 125) up to g's rounding; h in 2..=5
    // keeps every shifted operand below 2^61.
    let h = (q + floor_log2_pow10(-k) + 2) as u32;
    let g = POW10[(-k - POW10_MIN_EXP) as usize];
    let vb = round_to_odd(g, cb << h);
    let vbl = round_to_odd(g, cbl << h) + out;
    let vbr = round_to_odd(g, cbr << h) - out;

    // s·10^k ≤ v < (s + 1)·10^k. The interval spans at least 10^k and less
    // than 10^(k+1), so at most one multiple of 10^(k+1) lies in it, and if
    // one does it is the shortest.
    let s = vb >> 2;
    if s >= 10 {
        let sp10 = s / 10 * 10;
        let tp10 = sp10 + 10;
        let upin = vbl <= sp10 << 2;
        let wpin = tp10 << 2 <= vbr;
        if upin != wpin {
            return (if upin { sp10 } else { tp10 }, k);
        }
    }
    let t = s + 1;
    let uin = vbl <= s << 2;
    let win = t << 2 <= vbr;
    if uin != win {
        return (if uin { s } else { t }, k);
    }
    // Both lie in the interval: the closer one, and on an exact tie
    // (vb == 4s + 2) the upper one, as `core::fmt` does.
    (if vb < (s << 2) + 2 { s } else { t }, k)
}

/// Schubfach's `r_o'(cp · g · 2^-127)`: the quotient with its lowest bit set
/// when the dropped part is nonzero (round to odd). Like the reference
/// implementation, `g` splits into 63-bit halves and the low 64 bits of
/// `g0 · cp` and the last bit of `g1 · cp` never reach the sticky bit. That
/// is what the paper's proof covers, and it absorbs `g`'s `+ 1`, so that an
/// exactly representable `v · 10^-k` comes out even.
#[inline]
fn round_to_odd(g: u128, cp: u64) -> u64 {
    let g1 = (g >> 63) as u64;
    let g0 = g as u64 & (u64::MAX >> 1);
    let x1 = ((u128::from(g0) * u128::from(cp)) >> 64) as u64;
    let y = u128::from(g1) * u128::from(cp);
    let z = ((y as u64) >> 1) + x1;
    let vbp = (y >> 64) as u64 + (z >> 63);
    vbp | u64::from(z & (u64::MAX >> 1) != 0)
}

/// `⌊log10(2^q)⌋` for `|q| ≤ 5_456_721`.
#[inline]
fn floor_log10_pow2(q: i32) -> i32 {
    ((i64::from(q) * 661_971_961_083) >> 41) as i32
}

/// `⌊log10(3/4 · 2^q)⌋` for `|q| ≤ 5_456_721`.
#[inline]
fn floor_log10_three_quarters_pow2(q: i32) -> i32 {
    ((i64::from(q) * 661_971_961_083 - 274_743_187_321) >> 41) as i32
}

/// `⌊log2(10^e)⌋` for `|e| ≤ 1_838_394`.
#[inline]
fn floor_log2_pow10(e: i32) -> i32 {
    ((i64::from(e) * 913_124_641_741) >> 38) as i32
}

/// The smallest and largest `e` with `10^e` in [`POW10`]: the scalings
/// `10^-k` that normal doubles need (`k` from `-324` at `2^-1022` to `292`
/// at `f64::MAX`).
const POW10_MIN_EXP: i32 = -292;
const POW10_MAX_EXP: i32 = 324;
const POW10_LEN: usize = (POW10_MAX_EXP - POW10_MIN_EXP + 1) as usize;

/// `POW10[e - POW10_MIN_EXP] = ⌊10^e · 2^-r⌋ + 1`, with `r` chosen so that
/// `2^125 ≤ 10^e · 2^-r < 2^126`: a 126-bit over-approximation of every
/// power of ten Schubfach scales by, built at compile time from exact
/// multi-limb arithmetic.
static POW10: [u128; POW10_LEN] = pow10_table();

/// 64-bit limbs, least significant first: enough for `2^831`, which keeps
/// `⌊2^831 / 5^292⌋` above 126 bits, and for `5^324` (753 bits).
const LIMBS: usize = 13;

const fn pow10_table() -> [u128; POW10_LEN] {
    let mut table = [0u128; POW10_LEN];
    // e ≥ 0: 10^e = 5^e · 2^e, and the power of two drops out when the
    // top 126 bits are taken. 5^e is kept exact.
    let mut five_pow = [0u64; LIMBS];
    five_pow[0] = 1;
    let mut e = 0;
    while e <= POW10_MAX_EXP {
        table[(e - POW10_MIN_EXP) as usize] = top_126_bits(&five_pow) + 1;
        // five_pow *= 5
        let mut carry = 0u128;
        let mut i = 0;
        while i < LIMBS {
            let product = five_pow[i] as u128 * 5 + carry;
            five_pow[i] = product as u64;
            carry = product >> 64;
            i += 1;
        }
        e += 1;
    }
    // e < 0: 10^e = 2^e / 5^-e. Dividing 2^831 by 5 again and again keeps
    // ⌊2^831 / 5^n⌋ exact (nested floors of integer divisions compose), and
    // its top 126 bits are ⌊10^-n · 2^-r⌋.
    let mut quotient = [0u64; LIMBS];
    quotient[LIMBS - 1] = 1 << 63;
    let mut n = 1;
    while n <= -POW10_MIN_EXP {
        // quotient /= 5
        let mut remainder = 0u128;
        let mut i = LIMBS;
        while i > 0 {
            i -= 1;
            let dividend = (remainder << 64) | quotient[i] as u128;
            quotient[i] = (dividend / 5) as u64;
            remainder = dividend % 5;
        }
        table[(-n - POW10_MIN_EXP) as usize] = top_126_bits(&quotient) + 1;
        n += 1;
    }
    table
}

/// The 126 most significant bits of a nonzero multi-limb number, shifted
/// left when it is shorter (truncated, never rounded).
const fn top_126_bits(limbs: &[u64; LIMBS]) -> u128 {
    let mut top = LIMBS - 1;
    while limbs[top] == 0 {
        top -= 1;
    }
    // The top limb and the two below it (zeros past the end) as one 192-bit
    // window `hi·2^128 + lo`, of `128 + bits(hi)` bits; keep its top 126.
    let hi = limbs[top] as u128;
    let mid = if top >= 1 { limbs[top - 1] } else { 0 };
    let low = if top >= 2 { limbs[top - 2] } else { 0 };
    let lo = ((mid as u128) << 64) | low as u128;
    let shift = 128 + (64 - limbs[top].leading_zeros()) - 126;
    (hi << (128 - shift)) | (lo >> shift)
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

    fn shortest(value: f64) -> String {
        let mut out = Vec::new();
        push_shortest(&mut out, value);
        String::from_utf8(out).unwrap()
    }

    fn assert_shortest_matches_core_fmt(value: f64) {
        assert_eq!(shortest(value), format!("{value}"), "bits {:#018x}", value.to_bits());
    }

    /// `value` and its two neighbouring doubles, all with both signs.
    fn assert_neighbourhood_matches_core_fmt(value: f64) {
        let bits = value.abs().to_bits();
        for b in [bits.saturating_sub(1), bits, bits.saturating_add(1)] {
            assert_shortest_matches_core_fmt(f64::from_bits(b));
            assert_shortest_matches_core_fmt(-f64::from_bits(b));
        }
    }

    #[test]
    fn shortest_zeros_subnormals_and_non_finite_values() {
        assert_eq!(shortest(0.0), "0");
        assert_eq!(shortest(-0.0), "-0");
        let cases = [
            0.0,
            -0.0,
            f64::from_bits(1),
            f64::from_bits(2),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::from_bits(0x0008_0000_0000_0000),
            f64::from_bits(0x0000_0000_0012_3456),
            f64::MIN_POSITIVE,
            f64::from_bits(f64::MIN_POSITIVE.to_bits() + 1),
            f64::from_bits(f64::MIN_POSITIVE.to_bits() * 2),
            f64::MAX,
            f64::from_bits(f64::MAX.to_bits() - 1),
            f64::EPSILON,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for value in cases {
            assert_shortest_matches_core_fmt(value);
            assert_shortest_matches_core_fmt(-value);
        }
    }

    #[test]
    fn shortest_integers() {
        assert_eq!(shortest(123_456_789_012_345_680.0), "123456789012345680");
        assert_eq!(shortest(9_007_199_254_740_993.0), "9007199254740992");
        for i in 0..100_000u32 {
            assert_shortest_matches_core_fmt(f64::from(i));
            assert_shortest_matches_core_fmt(-f64::from(i));
        }
        // Every double within 64 steps of ±2^53, where the integer fast
        // path ends, and of ±2^52, where the spacing reaches 1.
        for anchor in [2f64.powi(52), 2f64.powi(53)] {
            let bits = anchor.to_bits();
            for b in bits - 64..=bits + 64 {
                assert_shortest_matches_core_fmt(f64::from_bits(b));
                assert_shortest_matches_core_fmt(-f64::from_bits(b));
            }
        }
        // 1e15 to 1e17: integers whose spacing grows past 1, 2 and 16.
        let mut state = 0x1e15_u64;
        for _ in 0..100_000 {
            let unit = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            let value = (1e15 + 99e15 * unit).round();
            assert_neighbourhood_matches_core_fmt(value);
        }
        for value in [1e15, 1e16, 1e17, 123_456_789_012_345_680.0, 99_999_999_999_999_990.0] {
            assert_neighbourhood_matches_core_fmt(value);
        }
    }

    #[test]
    fn shortest_powers_of_ten() {
        assert_eq!(shortest(1e22), "10000000000000000000000");
        assert_eq!(shortest(1e-20), "0.00000000000000000001");
        assert_eq!(shortest(0.1), "0.1");
        for e in -20..=22 {
            let value: f64 = format!("1e{e}").parse().unwrap();
            assert_neighbourhood_matches_core_fmt(value);
            // And the values that print with a single nonzero digit.
            for d in 2..=9 {
                assert_neighbourhood_matches_core_fmt(f64::from(d) * value);
            }
        }
    }

    #[test]
    fn shortest_fast_path_boundaries() {
        // Every power of two (the asymmetric rounding interval) with its
        // neighbours, from the smallest normal to the largest: this spans
        // both ends of the power-of-ten table.
        for exp in -1022..=1023 {
            assert_neighbourhood_matches_core_fmt(2f64.powi(exp));
            assert_neighbourhood_matches_core_fmt(1.5 * 2f64.powi(exp));
        }
        // The edges of the integer fast path: exponents q = -53..=1.
        for q in -53..=1 {
            let lowest = f64::from_bits(((q + 1075) as u64) << 52);
            let highest = f64::from_bits(((q + 1075) as u64) << 52 | FRACTION_MASK);
            assert_neighbourhood_matches_core_fmt(lowest);
            assert_neighbourhood_matches_core_fmt(highest);
        }
        for value in [0.5, 1.5, 4_503_599_627_370_495.5, 0.3, 2.0 / 3.0, 1.0 / 3.0, 5e-324] {
            assert_neighbourhood_matches_core_fmt(value);
        }
    }

    #[test]
    fn shortest_dyadics_and_snapped_levels() {
        // k / 2^j: the layout's halving coordinates (`0.00000762939453125`).
        for j in 0..=30 {
            let scale = 2f64.powi(-j);
            for k in 0..=2_048u32 {
                assert_shortest_matches_core_fmt(f64::from(k) * scale);
            }
            let mut state = 0xd1ad_u64 + j as u64;
            for _ in 0..2_000 {
                let k = splitmix64(&mut state) >> 11;
                assert_shortest_matches_core_fmt(k as f64 * scale);
            }
        }
        // Snapped scalar levels, in both spellings: `lo + i·(hi − lo)/levels`
        // and the simplifier's `min + (max − min)·bucket/(levels − 1)`.
        let ranges = [
            (0.0, 1.0),
            (1.0, 37.0),
            (2.0, 171.0),
            (1.3e-7, 3.2e-3),
            (-4.5, 12.25),
            (0.0, 9_731.0),
        ];
        for (lo, hi) in ranges {
            for levels in 1..=64usize {
                for i in 0..=levels {
                    assert_shortest_matches_core_fmt(lo + i as f64 * (hi - lo) / levels as f64);
                    if levels > 1 {
                        let bucket = i.min(levels - 1) as f64;
                        assert_shortest_matches_core_fmt(
                            lo + (hi - lo) * bucket / (levels - 1) as f64,
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn shortest_ties_round_up_like_core_fmt() {
        // Both candidates of the shortest length are exactly equidistant:
        // `core::fmt` takes the upper one, round-half-even would not.
        // 524288.00048828125 and 562949953421312.25, exactly.
        let ties = [
            (2f64.powi(19) + 2f64.powi(-11), "524288.0004882813"),
            (2f64.powi(49) + 0.25, "562949953421312.3"),
        ];
        for (value, printed) in ties {
            assert_eq!(shortest(value), printed);
            assert_eq!(format!("{value}"), printed);
            assert_shortest_matches_core_fmt(-value);
        }
    }

    /// Random bit patterns (every exponent, sign and fallback class) and
    /// random mantissas at the exponents scene values take.
    fn shortest_sweep(seed: u64, count: usize) {
        let mut state = seed;
        for _ in 0..count / 2 {
            assert_shortest_matches_core_fmt(f64::from_bits(splitmix64(&mut state)));
            let bits = splitmix64(&mut state);
            let biased_exp = 900 + (bits >> 52) % 250;
            let value = f64::from_bits((bits & (1 << 63 | FRACTION_MASK)) | biased_exp << 52);
            assert_shortest_matches_core_fmt(value);
        }
    }

    #[test]
    fn shortest_seeded_sweep_matches_core_fmt() {
        shortest_sweep(0x5107_7e57, 1_000_000);
    }

    /// The long sweep: 20M values, too slow for a debug build.
    #[cfg(not(debug_assertions))]
    #[test]
    fn shortest_long_sweep_matches_core_fmt() {
        shortest_sweep(0x1005_7e57, 20_000_000);
    }

    #[test]
    fn power_of_ten_table_is_normalized() {
        for (i, &g) in POW10.iter().enumerate() {
            assert!(g > 1 << 125 && g <= 1 << 126, "entry {i}: {g:#x}");
        }
        // The exact powers 10^0..=10^38 fit a u128: check the table rows
        // against them, and the log helpers across the whole range.
        for e in 0..=38u32 {
            let exact = 10u128.pow(e);
            let bits = 128 - exact.leading_zeros();
            let beta = if bits <= 126 { exact << (126 - bits) } else { exact >> (bits - 126) };
            assert_eq!(POW10[(e as i32 - POW10_MIN_EXP) as usize], beta + 1, "10^{e}");
            assert_eq!(floor_log2_pow10(e as i32), bits as i32 - 1, "log2 10^{e}");
        }
        for q in -1100..=1100 {
            let exact = f64::from(q) * std::f64::consts::LOG10_2;
            assert_eq!(floor_log10_pow2(q), exact.floor() as i32, "log10 2^{q}");
            let three_quarters = exact + 0.75f64.log10();
            assert_eq!(floor_log10_three_quarters_pow2(q), three_quarters.floor() as i32, "q {q}");
            let log2 = f64::from(q) * std::f64::consts::LOG2_10;
            assert_eq!(floor_log2_pow10(q), log2.floor() as i32, "log2 10^{q}");
        }
    }

    #[test]
    fn uint_matches_core_fmt() {
        let uint = |value: u64| {
            let mut out = Vec::new();
            push_uint(&mut out, value);
            String::from_utf8(out).unwrap()
        };
        assert_eq!(uint(0), "0");
        assert_eq!(uint(u64::MAX), "18446744073709551615");
        for e in 0..=19 {
            let power = 10u64.pow(e);
            for value in [power - 1, power, power + 1] {
                assert_eq!(uint(value), value.to_string());
            }
        }
        let mut state = 0x0u64;
        for _ in 0..100_000 {
            let value = splitmix64(&mut state) >> (splitmix64(&mut state) % 64);
            assert_eq!(uint(value), value.to_string());
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
