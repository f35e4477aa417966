//! Order statistics and host probes (peak RSS, CPU model, calibration).

use std::time::Instant;

/// Median of `values` (sorts in place); `None` when empty.
pub fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    Some(if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    })
}

/// Nearest-rank quantile of `sorted`, the rule `ServeReport` uses for its
/// latency quantiles, so the two agree on the same samples.
///
/// # Panics
/// Panics if `sorted` is empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    sorted[idx]
}

/// Summary of the per-repetition wall times of one run.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarise `samples`. Quartiles follow Python's
    /// `statistics.quantiles(values, n=4)` (exclusive method), the rule
    /// the acceptance check uses; with one sample they equal it.
    ///
    /// # Panics
    /// Panics if `samples` is empty.
    pub fn of(samples: &[f64]) -> Self {
        let mut v = samples.to_vec();
        let median = median(&mut v).expect("at least one sample");
        let quartile = |k: usize| {
            if v.len() == 1 {
                return v[0];
            }
            let pos = k as f64 * (v.len() + 1) as f64 / 4.0;
            let j = (pos.floor() as usize).clamp(1, v.len() - 1);
            let frac = pos - j as f64;
            v[j - 1] + frac * (v[j] - v[j - 1])
        };
        Summary {
            n: v.len(),
            min: v[0],
            q1: quartile(1),
            median,
            q3: quartile(3),
            max: v[v.len() - 1],
        }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// Peak resident set of this process in MiB (`VmHWM`); `None` without
/// procfs.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU model string from `/proc/cpuinfo`, if readable.
pub fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// A fixed integer + memory-streaming loop (xorshift over an 8 MiB
/// buffer, eight passes), timed; the fastest of five, so that a burst of
/// interference does not read as a change of speed. Run before and after
/// the repetitions: when the two readings differ by more than 10 % the
/// host changed speed under the run and its host-time numbers are flagged
/// noisy. The buffer is small so that it never sets the process's peak
/// RSS.
pub fn calibrate() -> f64 {
    let mut buf = vec![1u64; 1 << 20];
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut fastest = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        for _ in 0..8 {
            for v in buf.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *v = v.wrapping_add(x);
            }
        }
        fastest = fastest.min(t0.elapsed().as_secs_f64());
    }
    std::hint::black_box(&buf);
    fastest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&mut []), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.q3), (0.75, 2.25));
        let s = Summary::of(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.0, 7.0, 7.0));
    }

    #[test]
    fn nearest_rank_agrees_with_the_serve_report_rule() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(nearest_rank(&v, 0.5), 3.0);
        assert_eq!(nearest_rank(&v, 0.95), 4.0);
        assert_eq!(nearest_rank(&[5.0], 0.95), 5.0);
    }

    #[test]
    fn host_probes_read_this_process() {
        assert!(nproc() >= 1);
        assert!(calibrate() > 0.0);
        if let Some(rss) = peak_rss_mib() {
            assert!(rss > 1.0);
        }
    }
}
