//! Order statistics over timing samples.

/// One sample set summarised by nearest-rank percentiles.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub p10: f64,
    pub p25: f64,
    pub p90: f64,
    pub p99: f64,
}

impl Summary {
    /// Summarises `samples`; every statistic is NaN when it is empty.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            median: percentile(&sorted, 0.5),
            p10: percentile(&sorted, 0.1),
            p25: percentile(&sorted, 0.25),
            p90: percentile(&sorted, 0.9),
            p99: percentile(&sorted, 0.99),
        }
    }
}

/// Nearest-rank percentile of an ascending slice (NaN when empty).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `samples` (NaN when empty).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(
            (s.n, s.median, s.p10, s.p25, s.p90),
            (5, 3.0, 1.0, 2.0, 5.0)
        );
        assert!(Summary::of(&[]).median.is_nan());
    }
}
