//! Host-time histograms and sample statistics.
//!
//! The traced run records one duration per engine step and per public
//! call. A log-linear histogram keeps that in fixed memory: 16
//! sub-buckets per power of two bound the relative error of a reported
//! percentile to about 3%, and recording allocates nothing, so the
//! traced loop's allocation count equals the untraced one's.

/// Sub-buckets per power of two.
const SUB: u32 = 16;
/// Powers of two covered (1 ns .. 2^40 ns, about 18 minutes).
const OCTAVES: u32 = 40;

/// Log-linear histogram of nanosecond durations.
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Hist {
    pub fn new() -> Self {
        Hist {
            counts: vec![0; (SUB * OCTAVES) as usize],
            n: 0,
        }
    }

    fn bucket(ns: u64) -> usize {
        let v = ns.max(1);
        let octave = 63 - v.leading_zeros();
        if octave < 4 {
            // Below 16 ns every value has its own bucket.
            return v as usize;
        }
        let sub = ((v >> (octave - 4)) & (SUB as u64 - 1)) as u32;
        ((octave.min(OCTAVES - 1)) * SUB + sub) as usize
    }

    /// Lower edge of a bucket, in ns.
    fn lower(b: usize) -> f64 {
        let b = b as u32;
        let octave = b / SUB;
        if octave < 4 {
            return b.min(SUB) as f64;
        }
        let sub = b % SUB;
        ((SUB + sub) as f64) * 2f64.powi(octave as i32 - 4)
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.n += 1;
    }

    /// The `q`-quantile (0..=1), as the midpoint of its bucket; 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return (Self::lower(b) + Self::lower(b + 1)) / 2.0;
            }
        }
        Self::lower(self.counts.len())
    }
}

/// Median of a sample (mean of the middle pair for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    quantile_sorted(&sorted(xs), 0.5)
}

pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile of an ascending sample.
pub fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Nearest-rank percentile of an ascending sample (`q` in 0..=1): the
/// smallest value with at least `q` of the sample at or below it.
pub fn nearest_rank(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}
