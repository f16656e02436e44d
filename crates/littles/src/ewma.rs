//! Exponentially weighted moving averages.
//!
//! The paper (§5, "Toggling Granularity") proposes smoothing noisy
//! end-to-end estimates with EWMAs before feeding them to a toggling
//! policy. Two variants are provided:
//!
//! * [`Ewma`] — classic fixed-weight update for regularly spaced samples
//!   (e.g. one per kernel tick).
//! * [`TimeDecayEwma`] — irregular-interval EWMA whose effective weight is
//!   derived from the elapsed time and a time constant, so sparse and dense
//!   sample streams decay identically.


use crate::time::Nanos;

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

    /// The configured weight.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Discards all state, keeping the weight.
    pub fn reset(&mut self) {
        self.value = None;
    }
}

/// Irregular-interval EWMA with exponential time decay.
///
/// The contribution of history decays as `exp(−Δt/τ)` where `τ` is the time
/// constant, so the average is insensitive to the sampling cadence: two
/// quick samples move it no more than one sample carrying the same
/// information over the same span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeDecayEwma {
    tau: Nanos,
    value: Option<f64>,
    last: Nanos,
}

impl TimeDecayEwma {
    /// Creates a decaying EWMA with time constant `tau`.
    ///
    /// # Panics
    ///
    /// Panics if `tau` is zero.
    pub fn new(tau: Nanos) -> Self {
        assert!(!tau.is_zero(), "time constant must be positive");
        TimeDecayEwma {
            tau,
            value: None,
            last: Nanos::ZERO,
        }
    }

    /// Folds in a sample observed at `now` and returns the new average.
    pub fn update(&mut self, now: Nanos, sample: f64) -> f64 {
        let v = match self.value {
            None => sample,
            Some(v) => {
                let dt = now.saturating_sub(self.last);
                let w = (-(dt.as_nanos() as f64) / self.tau.as_nanos() as f64).exp();
                v * w + sample * (1.0 - w)
            }
        };
        self.value = Some(v);
        self.last = now;
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
    fn reset_clears_state() {
        let mut e = Ewma::new(0.5);
        e.update(1.0);
        e.reset();
        assert_eq!(e.value(), None);
    }

    #[test]
    #[should_panic(expected = "alpha out of range")]
    fn zero_alpha_rejected() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn decay_depends_on_elapsed_time() {
        let tau = Nanos::from_millis(1);
        let mut e = TimeDecayEwma::new(tau);
        e.update(Nanos::ZERO, 0.0);
        // After exactly one time constant, the old value retains weight 1/e.
        let v = e.update(Nanos::from_millis(1), 100.0);
        let expected = 100.0 * (1.0 - (-1.0f64).exp());
        assert!((v - expected).abs() < 1e-9);
    }

    #[test]
    fn decay_is_cadence_insensitive() {
        // Same final sample at the same final time: intermediate samples of
        // identical value must not change the result materially.
        let tau = Nanos::from_millis(10);
        let mut sparse = TimeDecayEwma::new(tau);
        sparse.update(Nanos::ZERO, 50.0);
        let a = sparse.update(Nanos::from_millis(10), 50.0);

        let mut dense = TimeDecayEwma::new(tau);
        dense.update(Nanos::ZERO, 50.0);
        for i in 1..10 {
            dense.update(Nanos::from_millis(i), 50.0);
        }
        let b = dense.update(Nanos::from_millis(10), 50.0);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn zero_elapsed_heavily_weights_history() {
        let mut e = TimeDecayEwma::new(Nanos::from_millis(1));
        e.update(Nanos::from_micros(5), 10.0);
        // Zero elapsed time: weight of history is exp(0) = 1, sample ignored.
        let v = e.update(Nanos::from_micros(5), 99.0);
        assert!((v - 10.0).abs() < 1e-12);
    }
}
