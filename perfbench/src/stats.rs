//! Small measurement helpers: exact percentiles, medians, and the
//! process counters read from `/proc`.

/// Exact nearest-rank percentile of `sorted` (ascending): the smallest
/// sample with at least `p`% of the samples at or below it.
pub fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank `p` percentile.
pub fn beyond(sorted: &[u64], p: f64) -> usize {
    let v = nearest_rank(sorted, p);
    sorted.len() - sorted.partition_point(|&x| x <= v)
}

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Arithmetic mean of `xs`.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of an empty sample");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&xs, 50.0), 50);
        assert_eq!(nearest_rank(&xs, 99.0), 99);
        assert_eq!(nearest_rank(&xs, 100.0), 100);
        assert_eq!(beyond(&xs, 90.0), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
