//! Medians, quartiles, tail percentiles and the window counter.

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the "exclusive" method), so the spread printed here is
/// the one the driver computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // Position k·(n+1)/4 on a 1-based scale, clamped to the data.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta.clamp(0.0, 1.0)
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median; 0 when there are
/// fewer than two values or the median is 0.
pub fn spread(values: &[f64]) -> f64 {
    let mid = median(values);
    if values.len() < 2 || mid == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / mid.abs()
}

/// The mean of the `k` best samples — the fastest of repeated timings,
/// the busiest of a pass's windows — and how far that stands from the
/// next best sample, as a share of itself.
///
/// Host-clock figures are best-of-N, not medians. The sandbox's
/// neighbours slow memory-heavy code by up to 40 % for a minute at a
/// time (while an arithmetic loop keeps its speed within 1 %), so whole
/// runs of medians differed by 30 %. Interference only ever adds time,
/// and the best samples are the ones least touched by it; averaging a few
/// of them keeps one lucky window from deciding the figure. A value that
/// stands far from the next sample down was an escape from a slow
/// stretch: the comparator calls such a metric unresolved.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Best {
    pub value: f64,
    pub lead: f64,
}

pub fn best(values: &[f64], k: usize, higher_is_better: bool) -> Best {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    let k = k.min(v.len());
    if k == 0 {
        return Best {
            value: 0.0,
            lead: 0.0,
        };
    }
    let value = v[..k].iter().sum::<f64>() / k as f64;
    Best {
        value,
        lead: v.get(k).map_or(0.0, |next| ((value - next) / value).abs()),
    }
}

/// A tail percentile and how it was taken.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample at `percentile`.
    pub value: u64,
    /// The percentile actually reported (≤ the one asked for).
    pub percentile: f64,
    /// Number of samples.
    pub samples: usize,
}

/// The highest percentile not above `want` that still has at least ten
/// samples beyond it (choosing-metrics §1), by nearest rank. With fewer
/// than 22 samples no tail is supported and the median is returned.
pub fn tail(samples: &mut [u64], want: f64) -> Tail {
    samples.sort_unstable();
    let n = samples.len();
    if n == 0 {
        return Tail {
            value: 0,
            percentile: 0.0,
            samples: 0,
        };
    }
    let wanted = ((want * n as f64).ceil() as usize).clamp(1, n) - 1;
    let idx = wanted.min(n.saturating_sub(11)).max((n - 1) / 2);
    Tail {
        value: samples[idx],
        percentile: (idx + 1) as f64 / n as f64,
        samples: n,
    }
}

/// Nearest-rank median of integer samples (sorts in place).
pub fn median_u64(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    match samples.len() {
        0 => 0,
        n => samples[(n - 1) / 2],
    }
}

/// Equal measurement windows laid end to end after a warm-up, in
/// nanoseconds since the pass began.
#[derive(Clone, Copy, Debug)]
pub struct Windows {
    pub warmup_ns: u64,
    pub len_ns: u64,
    pub count: usize,
}

impl Windows {
    /// End of the last window.
    pub fn end_ns(&self) -> u64 {
        self.warmup_ns + self.len_ns * self.count as u64
    }

    /// The window an operation spanning `[start_ns, end_ns]` counts in:
    /// the one that holds both its ends. Operations in the warm-up, past
    /// the last window, or astride a window edge count nowhere — a fast
    /// and a slow system lose the same share of a window that way.
    pub fn index(&self, start_ns: u64, end_ns: u64) -> Option<usize> {
        if start_ns < self.warmup_ns || end_ns >= self.end_ns() {
            return None;
        }
        let w = ((start_ns - self.warmup_ns) / self.len_ns) as usize;
        let w_end = ((end_ns - self.warmup_ns) / self.len_ns) as usize;
        (w == w_end).then_some(w)
    }
}
