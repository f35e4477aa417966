//! Small numeric helpers shared by the profiling and evaluation crates.

/// Arithmetic mean. Returns 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Geometric mean. Returns 0 for an empty slice.
///
/// Speedup ratios are summarized with geometric means (the standard for
/// normalized performance numbers) throughout the evaluation harness.
///
/// # Panics
/// Panics if any value is non-positive: geometric means of ratios are only
/// meaningful over positive values, and a zero would silently poison the
/// summary.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "geomean requires positive values, got {x}");
            x.ln()
        })
        .sum();
    (log_sum / xs.len() as f64).exp()
}

/// Population standard deviation. Returns 0 for slices of length < 2.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
    var.sqrt()
}

/// Relative error `|estimate - truth| / |truth|`.
///
/// # Panics
/// Panics if `truth == 0`.
pub fn relative_error(estimate: f64, truth: f64) -> f64 {
    assert!(truth != 0.0, "relative error undefined for zero truth");
    (estimate - truth).abs() / truth.abs()
}

/// Maximum over an `f64` iterator (NaN-free input assumed). `None` if empty.
pub fn fmax(xs: impl IntoIterator<Item = f64>) -> Option<f64> {
    xs.into_iter().fold(None, |acc, x| match acc {
        None => Some(x),
        Some(a) => Some(a.max(x)),
    })
}

/// Minimum over an `f64` iterator (NaN-free input assumed). `None` if empty.
pub fn fmin(xs: impl IntoIterator<Item = f64>) -> Option<f64> {
    xs.into_iter().fold(None, |acc, x| match acc {
        None => Some(x),
        Some(a) => Some(a.min(x)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stddev() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(stddev(&[5.0]), 0.0);
        assert!((stddev(&[2.0, 4.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn relative_error_basic() {
        assert!((relative_error(1.1, 1.0) - 0.1).abs() < 1e-12);
        assert!((relative_error(0.9, 1.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn fmax_fmin() {
        assert_eq!(fmax([1.0, 3.0, 2.0]), Some(3.0));
        assert_eq!(fmin([1.0, 3.0, 2.0]), Some(1.0));
        assert_eq!(fmax(std::iter::empty::<f64>()), None);
    }
}
