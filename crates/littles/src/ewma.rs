//! Exponentially weighted moving averages.
//!
//! The paper (§5, "Toggling Granularity") proposes smoothing noisy
//! end-to-end estimates with EWMAs before feeding them to a toggling
//! policy: [`Ewma`] is the classic fixed-weight update for regularly
//! spaced samples (e.g. one per kernel tick).

/// Fixed-weight exponentially weighted moving average.
///
/// After each [`update`](Self::update) with sample `x`, the value becomes
/// `(1 − α)·v + α·x`. The first sample initializes the average directly.
///
/// # Examples
///
/// ```
/// use littles::Ewma;
///
/// let mut e = Ewma::new(0.5);
/// e.update(10.0);
/// e.update(20.0);
/// assert_eq!(e.value(), Some(15.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA with weight `alpha`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha ≤ 1`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha out of range: {alpha}");
        Ewma { alpha, value: None }
    }

    /// Folds in a sample and returns the new average.
    pub fn update(&mut self, sample: f64) -> f64 {
        let v = match self.value {
            None => sample,
            Some(v) => v + self.alpha * (sample - v),
        };
        self.value = Some(v);
        v
    }

    /// Current average, `None` before the first sample.
    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_initializes() {
        let mut e = Ewma::new(0.1);
        assert_eq!(e.value(), None);
        assert_eq!(e.update(42.0).to_bits(), 42.0f64.to_bits());
    }

    #[test]
    fn converges_to_constant_input() {
        let mut e = Ewma::new(0.2);
        for _ in 0..200 {
            e.update(7.0);
        }
        assert!((e.value().unwrap() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn alpha_one_tracks_exactly() {
        let mut e = Ewma::new(1.0);
        e.update(3.0);
        e.update(9.0);
        assert_eq!(e.value(), Some(9.0));
    }

    #[test]
    fn smaller_alpha_smooths_more() {
        let mut fast = Ewma::new(0.9);
        let mut slow = Ewma::new(0.1);
        fast.update(0.0);
        slow.update(0.0);
        fast.update(100.0);
        slow.update(100.0);
        assert!(fast.value().unwrap() > slow.value().unwrap());
    }

    #[test]
    #[should_panic(expected = "alpha out of range")]
    fn zero_alpha_rejected() {
        let _ = Ewma::new(0.0);
    }
}
