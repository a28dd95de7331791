//! Order statistics over samples.

/// Sort a copy of the samples.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle two for an even count); `NaN` when empty.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The smallest sample; `NaN` when empty.  A solve does the same work every
/// time and a busy host can only slow it, so the fastest of many solves
/// spread over a run is the estimate least moved by the host's slow spells.
#[must_use]
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// Nearest-rank percentile `p` in `0..=100`; `NaN` when empty.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile with at least `beyond` samples above it: the value
/// at sorted index `len - beyond - 1`, with the percentile it stands for.
/// With too few samples it falls back to the median and reports 50.
#[must_use]
pub fn tail(samples: &[f64], beyond: usize) -> (f64, f64) {
    let v = sorted(samples);
    if v.len() <= beyond {
        return (median(samples), 50.0);
    }
    let idx = v.len() - beyond - 1;
    let pct = 100.0 * (idx + 1) as f64 / v.len() as f64;
    if pct < 50.0 {
        (median(samples), 50.0)
    } else {
        (v[idx], pct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&s), 50.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(fastest(&[3.0, 1.0, 2.0]), 1.0);
        assert!(fastest(&[]).is_nan());
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(tail(&s, 10), (90.0, 90.0));
        assert_eq!(tail(&s[..15], 10), (8.0, 50.0));
        assert!(median(&[]).is_nan());
    }
}
