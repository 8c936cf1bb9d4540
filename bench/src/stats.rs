//! Order statistics for repeats and latency samples.

/// Median, quartiles and count of the values behind one metric.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Median of the values.
    pub median: f64,
    /// First decile.
    pub d1: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// How many values were summarised.
    pub n: usize,
}

impl Summary {
    /// Summarises `values`; a single value is its own median and quartiles.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "a metric needs at least one value");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Summary {
            median: quantile(&v, 0.5),
            d1: quantile(&v, 0.1),
            q1: quantile(&v, 0.25),
            q3: quantile(&v, 0.75),
            min: v[0],
            max: v[v.len() - 1],
            n: v.len(),
        }
    }

    /// The same summary in another unit.
    pub fn scaled(self, k: f64) -> Summary {
        Summary {
            median: self.median * k,
            d1: self.d1 * k,
            q1: self.q1 * k,
            q3: self.q3 * k,
            min: self.min * k,
            max: self.max * k,
            n: self.n,
        }
    }

    /// A value measured once.
    pub fn single(value: f64) -> Summary {
        Summary::of(&[value])
    }
}

/// Linearly interpolated quantile of sorted values.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// The `q`-quantile of sorted whole-nanosecond samples, or `None` when
/// fewer than ten samples lie beyond it.
///
/// The clock reads whole nanoseconds, so thousands of samples tie on one
/// value; a reading `v` stands for a duration in `[v, v + 1)`, and the
/// quantile is placed inside that bin by its rank among the ties. Without
/// this a median could only ever move in 1 ns steps.
pub fn percentile(sorted: &[u32], q: f64) -> Option<f64> {
    let rank = (sorted.len() as f64 * q) as usize;
    if sorted.len() < rank + 10 {
        return None;
    }
    let v = sorted[rank];
    let first = sorted.partition_point(|&x| x < v);
    let ties = sorted.partition_point(|&x| x <= v) - first;
    Some(v as f64 + (rank - first) as f64 / ties as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_matches_hand_computed_quartiles() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        assert_eq!(s.d1, 1.4);
    }

    #[test]
    fn percentile_interpolates_inside_a_tie_and_needs_ten_beyond() {
        let mut v = vec![10u32; 100];
        v.extend([20; 100]);
        assert_eq!(percentile(&v, 0.25), Some(10.5));
        assert_eq!(percentile(&v, 0.5), Some(20.0));
        assert_eq!(percentile(&v, 0.99), None);
        assert!(percentile(&[1; 2000], 0.99).is_some());
    }
}
