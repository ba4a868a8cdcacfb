//! Order statistics for samples and run summaries.

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nearest-rank percentile `p` (1–100) of `values`.
pub fn percentile(values: &[f64], p: usize) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    v[rank(v.len(), p)]
}

fn rank(n: usize, p: usize) -> usize {
    (p * n).div_ceil(100).clamp(1, n) - 1
}

/// The highest of p99, p95 and p90 with at least ten samples beyond
/// it (p90 when none has): `(value, percentile, samples beyond)`.
pub fn tail(values: &[f64]) -> (f64, usize, usize) {
    let n = values.len();
    if n == 0 {
        return (0.0, 90, 0);
    }
    let beyond = |p: usize| n - 1 - rank(n, p);
    let p = [99, 95, 90].into_iter().find(|&p| beyond(p) >= 10).unwrap_or(90);
    (percentile(values, p), p, beyond(p))
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives
/// them (the default "exclusive" method); needs two or more values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let m = v.len() + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let j = ((i + 1) * m / 4).clamp(1, v.len() - 1);
        let delta = ((i + 1) * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=300).map(f64::from).collect();
        assert_eq!(tail(&v), (285.0, 95, 15));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (990.0, 99, 10));
        let v: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(tail(&v), (135.0, 90, 15));
    }
}
