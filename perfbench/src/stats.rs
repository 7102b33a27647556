//! Order statistics for latency samples.

/// The median of `values` (mean of the two middle values for an even
/// count), or `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// A tail latency: the value at a whole percentile, with the sample count
/// it was read from.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Tail {
    /// The whole percentile the value sits at.
    pub percentile: u32,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// How many samples the percentile was read from.
    pub samples: usize,
}

/// The highest whole percentile with at least ten samples beyond it, read
/// by nearest rank: with `n` samples that is `p = floor(100 (n - 10) / n)`
/// at rank `ceil(p n / 100)`, which leaves `n - rank >= 10` samples above.
/// `None` below eleven samples, where no percentile has ten beyond it.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n < 11 {
        return None;
    }
    let percentile = (100 * (n - 10) / n) as u32;
    let rank = (percentile as usize * n).div_ceil(100).max(1);
    Some(Tail { percentile, value: sorted[rank - 1], samples: n })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}
