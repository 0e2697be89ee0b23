//! Order statistics over small sample sets.

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between order
/// statistics. Panics on an empty slice: every caller has at least one chunk.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The estimator for wall timings: the **second-fastest** sample (the
/// fastest of fewer than three). Noise on a shared machine only ever adds
/// time, and on the reference sandbox it is the rule, not the exception —
/// in noisy minutes fewer than one chunk in ten runs undisturbed — so only
/// the fast end of the samples repeats from run to run. Over six sizing
/// runs of `solo_commit` the throughput ranged 4.3 % at the quartile over
/// chunks, 2.0 % at the 5th percentile and 1.5 % at the extreme; the second
/// fastest rather than the fastest, so that no single fluke sets the figure.
pub fn best_time(xs: &[f64]) -> f64 {
    second(xs, f64::total_cmp)
}

/// The same estimator for rates, where noise only ever subtracts.
pub fn best_rate(xs: &[f64]) -> f64 {
    second(xs, |a, b| b.total_cmp(a))
}

fn second(xs: &[f64], order: impl Fn(&f64, &f64) -> std::cmp::Ordering) -> f64 {
    assert!(!xs.is_empty(), "estimate of no samples");
    let mut v = xs.to_vec();
    v.sort_by(order);
    v[usize::from(v.len() >= 3)]
}

pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Geometric mean; every end-to-end metric is the geomean of the four
/// organizations' values, so no organization can hide behind a faster one.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// (the exclusive method) gives them — the acceptance check's definition of
/// spread, so `--repeat` agrees with it digit for digit.
pub fn py_quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
        assert_eq!(best_time(&xs), 2.0);
        assert_eq!(best_rate(&xs), 4.0);
        assert_eq!(best_time(&[7.0, 5.0]), 5.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..9, 20], n=4) == [2.75, 5.5, 8.25]
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 20.0];
        assert_eq!(py_quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2, 10, 5], n=4) == [1.5, 3.0, 7.5]
        assert_eq!(py_quartiles(&[3.0, 1.0, 2.0, 10.0, 5.0]), (1.5, 7.5));
    }
}
