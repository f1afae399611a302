//! Order statistics used by every metric: median, quartiles, and the
//! tail percentile rule.

/// Percentiles the tail rule picks from, highest first.
const TAIL_LADDER: [f64; 6] = [0.99999, 0.9999, 0.999, 0.99, 0.9, 0.5];

/// Samples that must lie beyond a percentile for it to count as the
/// tail.
const TAIL_MIN_BEYOND: f64 = 10.0;

/// Median of `values` (mean of the two middle values when even).
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(q1, median, q3)` by the "exclusive" interpolation of Python's
/// `statistics.quantiles(values, n=4)`, so spreads read the same here
/// as in any script that recomputes them. One sample gives itself
/// three times.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let v = sorted(values);
    if v.len() == 1 {
        return (v[0], v[0], v[0]);
    }
    let n = v.len() as i64;
    let m = n + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), median(&v), cut(3))
}

/// The highest percentile of [`TAIL_LADDER`] with at least ten of `n`
/// samples beyond it; fewer than twenty samples fall back to the
/// median.
fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n as f64 * (1.0 - p) >= TAIL_MIN_BEYOND)
        .unwrap_or(0.5)
}

/// The tail of `values` as `(percentile, value)`: the highest
/// percentile with at least ten samples beyond it, by nearest rank.
/// Panics on an empty slice.
pub fn tail(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "tail of no samples");
    let v = sorted(values);
    let n = v.len();
    let p = tail_percentile(n);
    (p, v[(p * n as f64).ceil() as usize - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (0.99, 990.0));
        let small: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(tail(&small), (0.5, 8.0));
    }
}
