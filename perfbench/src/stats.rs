//! The benchmark's own arithmetic: percentiles under the "ten samples
//! beyond" rule, medians and means of repeated timings, counters cut at the
//! end of the measured window, and per-commit ratios.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: f64 = 10.0;

/// Samples expected beyond percentile `p` (0–100) among `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> f64 {
    n as f64 * (100.0 - p) / 100.0
}

/// The `p`-th percentile (0–100) of `values` by linear interpolation between
/// order statistics, the rule `dbsm_sim::stats::Samples` uses.
///
/// Returns `None` when fewer than [`MIN_BEYOND`] samples lie beyond `p`: such
/// a percentile is one or two samples and says little about the tail.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    if values.is_empty() || samples_beyond(values.len(), p) < MIN_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let pos = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Median of repeated measurements (mean of the two middle values for an
/// even count).
///
/// # Panics
///
/// Panics on an empty slice: a metric needs at least one measurement.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no measurements");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("measurements are not NaN"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Mean of repeated measurements.
///
/// # Panics
///
/// Panics on an empty slice: a metric needs at least one measurement.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no measurements");
    values.iter().sum::<f64>() / values.len() as f64
}

/// `num / den`, or 0 when `den` is 0: a layer a workload never enters (no
/// commits, no votes) reports zero rather than NaN or infinity.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `num` per commit, guarded against a run with zero commits.
pub fn per_commit(num: f64, commits: u64) -> f64 {
    ratio(num, commits as f64)
}

/// `part` as a percentage of `whole`, guarded against an empty whole.
pub fn pct(part: f64, whole: f64) -> f64 {
    100.0 * ratio(part, whole)
}

/// Value of a monotone counter at time `at`, from samples `(time, value)`
/// in increasing time order: linear interpolation between the two samples
/// around `at`, the first value before the first sample and the last value
/// after the last one.
///
/// The sampler reads counters on a fixed grid, while the measured window
/// ends at the instant the transaction target is reached; interpolating
/// there keeps the drain tail's work out of the window's counts.
pub fn value_at(samples: &[(f64, f64)], at: f64) -> f64 {
    let Some(&(t0, v0)) = samples.first() else { return 0.0 };
    if at <= t0 {
        return v0;
    }
    for pair in samples.windows(2) {
        let ((ta, va), (tb, vb)) = (pair[0], pair[1]);
        if at <= tb {
            let frac = ratio(at - ta, tb - ta);
            return va + (vb - va) * frac;
        }
    }
    samples.last().map_or(0.0, |&(_, v)| v)
}

/// Longest stretch of time, within `[0, until]`, over which a monotone
/// counter sampled as `(time, value)` did not grow, counted in whole quiet
/// sampling intervals: from the sample that starts a quiet run to the
/// sample after which the counter grows again.
pub fn longest_flat(samples: &[(f64, f64)], until: f64) -> f64 {
    let mut longest = 0.0f64;
    let mut flat_since: Option<f64> = None;
    for pair in samples.windows(2) {
        let ((ta, va), (_, vb)) = (pair[0], pair[1]);
        if ta >= until {
            break;
        }
        if vb > va {
            if let Some(start) = flat_since.take() {
                longest = longest.max(ta - start);
            }
        } else if flat_since.is_none() {
            flat_since = Some(ta);
        }
    }
    if let Some(start) = flat_since {
        let end = samples.last().map_or(until, |&(t, _)| t.min(until));
        longest = longest.max(end - start);
    }
    longest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        let small: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(percentile(&small, 99.0), None, "9.99 samples beyond p99");
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!((samples_beyond(1000, 99.0) - 10.0).abs() < 1e-9);
        let p99 = percentile(&enough, 99.0).expect("exactly ten beyond");
        assert!((p99 - 989.01).abs() < 1e-9, "interpolated p99 {p99}");
    }

    #[test]
    fn median_percentile_matches_order_statistics() {
        let v: Vec<f64> = (1..=21).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(11.0));
        assert_eq!(median(&v), 11.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[4.0, 1.0, 3.0, 0.0]), 2.0);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn ratios_guard_against_zero_commits() {
        assert_eq!(per_commit(500.0, 0), 0.0);
        assert_eq!(per_commit(500.0, 4), 125.0);
        assert_eq!(pct(1.0, 0.0), 0.0);
        assert_eq!(pct(1.0, 8.0), 12.5);
    }

    #[test]
    fn counters_are_cut_at_the_window_end() {
        let s = [(0.0, 0.0), (0.1, 10.0), (0.2, 30.0), (0.3, 30.0)];
        assert_eq!(value_at(&s, 0.2), 30.0);
        assert!((value_at(&s, 0.15) - 20.0).abs() < 1e-9);
        assert_eq!(value_at(&s, -1.0), 0.0);
        assert_eq!(value_at(&s, 9.0), 30.0, "past the last sample");
        assert_eq!(value_at(&[], 1.0), 0.0);
    }

    #[test]
    fn longest_flat_stretch_inside_the_window() {
        // Growth, then two quiet intervals from 0.2, then growth, then a
        // flat tail that the window end cuts off at 0.7.
        let s = [
            (0.0, 0.0),
            (0.1, 1.0),
            (0.2, 2.0),
            (0.3, 2.0),
            (0.4, 2.0),
            (0.5, 3.0),
            (0.6, 4.0),
            (0.7, 4.0),
            (0.8, 4.0),
            (0.9, 4.0),
            (1.0, 4.0),
        ];
        assert!((longest_flat(&s, 1.0) - 0.4).abs() < 1e-9, "tail 0.6..1.0");
        assert!((longest_flat(&s, 0.7) - 0.2).abs() < 1e-9, "0.2..0.4 inside");
        assert_eq!(longest_flat(&[(0.0, 0.0), (0.1, 1.0)], 1.0), 0.0);
    }
}
