//! Request deadlines, budgeted retries and hedging — the proxy's time
//! arithmetic for failure handling.
//!
//! A proxy that survives shard failure needs four cooperating mechanisms,
//! and all of their *timing math* lives here ([`RetryConfig`]'s fields are
//! private to this module, so every proxy timeout provably goes through
//! [`RetryPolicy`]):
//!
//! * **Deadlines** — each upstream attempt gets a fixed per-attempt
//!   deadline; a request that outlives it is failed or retried.
//! * **Budgeted retries** — retries are paid from a token bucket that
//!   accrues per forwarded request (`RetryConfig::budget_per_mille`).
//!   The budget bounds retry amplification: during a full outage the
//!   proxy degrades instead of melting its surviving shards down with a
//!   retry storm.
//! * **Exponential backoff with deterministic jitter** — the `n`-th retry
//!   of a request waits `initial_backoff · 2ⁿ⁻¹` (capped), plus/minus a
//!   jitter derived from a [SplitMix64](https://prng.di.unimi.it/splitmix64.c)
//!   hash of the request id — fully deterministic, so replays are bitwise
//!   while concurrent retries still decorrelate.
//! * **Hedging** — when a request has been outstanding longer than the
//!   composed estimate's P99 view says it should be, a duplicate is sent
//!   to the failover shard and the first response wins. Hedges spend from
//!   the same budget as retries.
//!
//! The per-upstream [`UpstreamBreaker`](crate::UpstreamBreaker), in
//! [`crate::breaker`], closes the loop: timeout and connection-reset
//! events feed the same trip streak as low composed-estimate confidence,
//! and while open, new requests route straight to the failover shard
//! instead of queueing behind a corpse.

use littles::Nanos;

/// Tuning for [`RetryPolicy`].
///
/// Outside this module a config is only ever built with `default()` and
/// handed to the policy; its knobs cannot be read, so no caller can
/// re-derive the backoff ladder by hand:
///
/// ```
/// use batchpolicy::{RetryConfig, RetryPolicy};
/// let _ = RetryPolicy::new(RetryConfig::default());
/// ```
///
/// ```compile_fail,E0616
/// let _ = batchpolicy::RetryConfig::default().initial_backoff;
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RetryConfig {
    /// Per-attempt request deadline: an attempt unanswered for this long
    /// counts as failed (and as a breaker failure signal).
    deadline: Nanos,
    /// Maximum attempts per request, initial send included (1 = never
    /// retry).
    max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    initial_backoff: Nanos,
    /// Backoff cap.
    max_backoff: Nanos,
    /// Retry/hedge budget in tokens per thousand forwarded requests
    /// (e.g. 200 = the proxy will pay for at most ~20% extra attempts).
    budget_per_mille: u32,
    /// Initial token balance, so early failures are retryable before any
    /// budget has accrued.
    budget_burst: u32,
    /// Floor for the hedge delay, keeping estimate noise from hedging
    /// every request.
    min_hedge_delay: Nanos,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            deadline: Nanos::from_millis(2),
            max_attempts: 3,
            initial_backoff: Nanos::from_micros(100),
            max_backoff: Nanos::from_millis(2),
            budget_per_mille: 200,
            budget_burst: 16,
            min_hedge_delay: Nanos::from_micros(300),
        }
    }
}

/// Why the policy granted an extra attempt (for audit counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptKind {
    /// Deadline expired or the connection reset; re-send after backoff.
    Retry,
    /// The P99 view says the outstanding attempt is late; duplicate it.
    Hedge,
}

/// The retry/hedge policy: deadline bookkeeping plus a token-bucket
/// budget shared by retries and hedges.
///
/// Token accounting is integer (millitokens) so replays are exact.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    config: RetryConfig,
    /// Balance in millitokens; one extra attempt costs 1000.
    tokens_m: u64,
    retries: u64,
    hedges: u64,
    budget_denied: u64,
}

impl RetryPolicy {
    /// Builds a policy from its tuning.
    ///
    /// # Panics
    ///
    /// Panics when `max_attempts` is zero, a deadline or backoff is zero,
    /// or the backoff range is inverted.
    pub fn new(config: RetryConfig) -> Self {
        assert!(config.max_attempts >= 1, "max_attempts must be at least 1");
        assert!(!config.deadline.is_zero(), "deadline must be positive");
        assert!(
            !config.initial_backoff.is_zero() && config.initial_backoff <= config.max_backoff,
            "backoff range inverted or zero"
        );
        RetryPolicy {
            tokens_m: config.budget_burst as u64 * 1000,
            config,
            retries: 0,
            hedges: 0,
            budget_denied: 0,
        }
    }

    /// Accounts one forwarded request: the budget accrues
    /// `budget_per_mille` millitokens (capped at the burst ceiling plus
    /// one full attempt, so an idle healthy period cannot bank an
    /// unbounded retry storm).
    pub fn on_request(&mut self) {
        let cap = (self.config.budget_burst as u64 + 1) * 1000;
        self.tokens_m = (self.tokens_m + self.config.budget_per_mille as u64).min(cap);
    }

    /// The deadline for an attempt issued at `now`.
    pub fn attempt_deadline(&self, now: Nanos) -> Nanos {
        now + self.config.deadline
    }

    /// Asks for one more attempt of `kind` for a request currently at
    /// `attempts` total attempts. Grants it when the attempt cap and the
    /// token budget both allow, charging the budget; returns the delay to
    /// wait before re-sending (always zero for hedges — the point of a
    /// hedge is racing the original).
    pub fn request_attempt(&mut self, kind: AttemptKind, attempts: u32, id: u64) -> Option<Nanos> {
        if attempts >= self.config.max_attempts {
            return None;
        }
        if self.tokens_m < 1000 {
            self.budget_denied += 1;
            return None;
        }
        self.tokens_m -= 1000;
        match kind {
            AttemptKind::Retry => {
                self.retries += 1;
                Some(self.backoff_for(attempts, id))
            }
            AttemptKind::Hedge => {
                self.hedges += 1;
                Some(Nanos::ZERO)
            }
        }
    }

    /// The backoff before retry number `attempts` (≥ 1) of request `id`:
    /// exponential base with ±25% deterministic jitter.
    fn backoff_for(&self, attempts: u32, id: u64) -> Nanos {
        let shift = attempts.saturating_sub(1).min(20);
        let base = self
            .config
            .initial_backoff
            .as_nanos()
            .saturating_mul(1u64 << shift)
            .min(self.config.max_backoff.as_nanos());
        // Equal-jitter: keep at least 75% of the base so retries never
        // collapse onto the failure instant, spread the rest by a hash of
        // (request id, attempt) — deterministic, replayable, decorrelated.
        let spread = base / 2;
        let jitter = if spread == 0 {
            0
        } else {
            splitmix64(id ^ ((attempts as u64) << 48)) % (spread + 1)
        };
        Nanos::from_nanos(base - spread / 2 + jitter)
    }

    /// How long an attempt may stay outstanding before it is hedged: the
    /// composed estimate's P99 view when available, floored by
    /// `min_hedge_delay`, capped at *half* the deadline — a later hedge
    /// would leave the duplicate less time than the original has already
    /// wasted, and past the deadline it would be a retry anyway.
    ///
    /// `estimated_mean` should be the mean service latency of the shard
    /// the hedge would go *to* (a healthy baseline for "this should have
    /// finished by now") — the stuck shard's own estimate inflates under
    /// the very fault being hedged against. The P99 view multiplies the
    /// mean by ln(100) ≈ 4.605 — exact for exponential service times, a
    /// serviceable tail proxy for the mixes the shard tier sees. Without
    /// an estimate the policy hedges at half the deadline.
    pub fn hedge_delay(&self, estimated_mean: Option<Nanos>) -> Nanos {
        let half_deadline = Nanos::from_nanos(self.config.deadline.as_nanos() / 2);
        let base = match estimated_mean {
            Some(mean) => Nanos::from_nanos(mean.as_nanos().saturating_mul(4605) / 1000),
            None => half_deadline,
        };
        base.max(self.config.min_hedge_delay).min(half_deadline)
    }

    /// The backoff before reconnect attempt `attempt` (≥ 1) to an
    /// upstream identified by `salt`: the same exponential ladder and
    /// deterministic jitter as request retries, keyed by upstream instead
    /// of request so concurrent reconnects decorrelate. Reconnects are
    /// free — they spend no budget tokens (a reconnect is not load on the
    /// shard's request path).
    pub fn reconnect_backoff(&self, attempt: u32, salt: u64) -> Nanos {
        self.backoff_for(attempt.max(1), salt ^ 0x5EC0_77EC)
    }

    /// Retries granted so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Hedges granted so far.
    pub fn hedges(&self) -> u64 {
        self.hedges
    }

    /// Attempts denied because the token budget was exhausted.
    pub fn budget_denied(&self) -> u64 {
        self.budget_denied
    }
}

/// SplitMix64: the canonical 64-bit finalizer, used here as a stateless
/// deterministic hash for retry jitter (no named RNG stream needed — the
/// draw sequence is a pure function of request identity).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> Nanos {
        Nanos::from_micros(n)
    }

    fn cfg() -> RetryConfig {
        RetryConfig {
            deadline: us(1000),
            max_attempts: 3,
            initial_backoff: us(100),
            max_backoff: us(800),
            budget_per_mille: 500,
            budget_burst: 2,
            min_hedge_delay: us(200),
        }
    }

    #[test]
    fn deadlines_and_backoff_are_deterministic() {
        let a = RetryPolicy::new(cfg());
        let b = RetryPolicy::new(cfg());
        assert_eq!(a.attempt_deadline(us(5)), us(1005));
        for id in 0..64u64 {
            for attempts in 1..3u32 {
                assert_eq!(a.backoff_for(attempts, id), b.backoff_for(attempts, id));
            }
        }
    }

    #[test]
    fn backoff_grows_exponentially_within_jitter_bounds() {
        let p = RetryPolicy::new(cfg());
        for id in 0..256u64 {
            // Retry 1: base 100µs, equal-jitter keeps it in [75µs, 125µs].
            let b1 = p.backoff_for(1, id);
            assert!(b1 >= us(75) && b1 <= us(125), "b1 {b1:?}");
            // Retry 2: base 200µs → [150µs, 250µs].
            let b2 = p.backoff_for(2, id);
            assert!(b2 >= us(150) && b2 <= us(250), "b2 {b2:?}");
            // Far attempts clamp at max_backoff's band.
            let b9 = p.backoff_for(9, id);
            assert!(b9 >= us(600) && b9 <= us(1000), "b9 {b9:?}");
        }
        // Jitter actually spreads: not all ids share one backoff.
        let distinct: std::collections::BTreeSet<u64> =
            (0..256u64).map(|id| p.backoff_for(1, id).as_nanos()).collect();
        assert!(distinct.len() > 50, "only {} distinct backoffs", distinct.len());
    }

    #[test]
    fn budget_bounds_retry_amplification() {
        let mut p = RetryPolicy::new(RetryConfig {
            budget_per_mille: 100, // 10% budget
            budget_burst: 1,
            ..cfg()
        });
        // Burst covers the first retry...
        assert!(p.request_attempt(AttemptKind::Retry, 1, 7).is_some());
        // ...then an outage with no forwarded traffic cannot retry.
        assert!(p.request_attempt(AttemptKind::Retry, 1, 8).is_none());
        assert_eq!(p.budget_denied(), 1);
        // 10 forwarded requests accrue one token.
        for _ in 0..10 {
            p.on_request();
        }
        assert!(p.request_attempt(AttemptKind::Hedge, 1, 9).is_some());
        assert_eq!(p.retries(), 1);
        assert_eq!(p.hedges(), 1);
    }

    #[test]
    fn reconnect_backoff_follows_the_retry_ladder() {
        let p = RetryPolicy::new(cfg());
        assert_eq!(p.reconnect_backoff(1, 3), p.reconnect_backoff(1, 3));
        let b1 = p.reconnect_backoff(1, 3);
        assert!(b1 >= us(75) && b1 <= us(125), "b1 {b1:?}");
        // Attempt 0 is clamped to the first rung, and deep attempts ride
        // the capped exponential band.
        assert_eq!(p.reconnect_backoff(0, 3), b1);
        let b5 = p.reconnect_backoff(5, 3);
        assert!(b5 >= us(600) && b5 <= us(1000), "b5 {b5:?}");
    }

    #[test]
    fn attempt_cap_is_enforced() {
        let mut p = RetryPolicy::new(cfg());
        assert!(p.request_attempt(AttemptKind::Retry, 3, 1).is_none());
        assert!(p.request_attempt(AttemptKind::Retry, 2, 1).is_some());
    }

    #[test]
    fn hedge_delay_tracks_p99_between_floor_and_half_deadline() {
        let p = RetryPolicy::new(cfg());
        // No estimate: half the deadline.
        assert_eq!(p.hedge_delay(None), us(500));
        // Noisy-low estimate: floored (P99 view of 10µs mean = ~46µs).
        assert_eq!(p.hedge_delay(Some(us(10))), us(200));
        // Healthy estimate: the P99 view of the mean (100µs → 460.5µs).
        assert_eq!(p.hedge_delay(Some(us(100))), Nanos::from_nanos(460_500));
        // Estimate beyond the deadline: capped at half — any later and
        // the duplicate has less runway than the original already burned.
        assert_eq!(p.hedge_delay(Some(us(5000))), us(500));
    }
}
