//! The per-connection end-to-end estimator.
//!
//! An endpoint runs one [`E2eEstimator`] per connection (per message
//! unit). Each policy tick it feeds in its current local queue snapshots
//! and whatever the peer has most recently shared; the estimator forms
//! tick-to-tick local windows and exchange-to-exchange remote windows,
//! evaluates the §3.2 decomposition **in both directions**, and returns the
//! larger view — the paper's guard against underestimation, since each
//! direction can only miss delay components, not invent them. One
//! refinement over a raw max: wire-quantized remote terms can invent
//! up to one scaled unit per departure, so the views are compared by
//! their quantization-discounted lower bounds (see
//! `wire_delay_granularity`).

use littles::wire::{WireExchange, WireScale};
use littles::{Ewma, Nanos};

use crate::combine::{combine_delays, DelaySet, EndpointSnapshots, EndpointWindows, QueueWindow};
use crate::validate::{Admission, ExchangeValidator, ValidateConfig, ValidateCtx, ValidateStats};

/// Resolution of a wire-decoded queue window's delay: the peer shares
/// integrals right-shifted by `integral_shift`, so a delay recovered from
/// the wire is only meaningful to within one scaled unit per departure.
fn wire_delay_granularity(scale: WireScale, w: &QueueWindow) -> Nanos {
    Nanos::from_nanos(((1u128 << scale.integral_shift) / w.d_total.max(1) as u128) as u64)
}

/// One end-to-end performance estimate over a measurement window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// When the estimate was formed.
    pub at: Nanos,
    /// Estimated end-to-end latency (request + response legs).
    pub latency: Nanos,
    /// Smoothed latency (EWMA across ticks), if smoothing is enabled.
    pub smoothed_latency: Nanos,
    /// Local receive throughput in items/second (responses per second at a
    /// client when counting messages).
    pub throughput: f64,
    /// Latency evaluated from the local perspective (for diagnostics).
    pub local_view: Nanos,
    /// Latency evaluated from the remote perspective.
    pub remote_view: Nanos,
    /// Confidence in `[0, 1]`: `1.0` when the remote window is fresh,
    /// decaying linearly with the remote window's age toward the
    /// staleness bound, and `0.0` for a local-only fallback estimate.
    pub confidence: f64,
    /// True when the peer's shared state exceeded the staleness bound and
    /// this estimate was formed from the local queues alone.
    pub remote_stale: bool,
    /// The four per-queue delays behind the winning view, so a control
    /// plane can route each component to the knob that causes it (see
    /// [`crate::route::Knob`]). For a stale local-only estimate this is
    /// the local-only set (far-side components zero).
    pub components: DelaySet,
}

/// Per-connection estimator state. Two estimators compare equal when
/// every later update would find them alike.
#[derive(Debug, Clone, PartialEq)]
pub struct E2eEstimator {
    scale: WireScale,
    prev_local: Option<EndpointSnapshots>,
    prev_remote: Option<WireExchange>,
    /// Last remote window, reused across local ticks when exchanges arrive
    /// less often than policy ticks (the paper: estimates "remain accurate
    /// regardless" of exchange frequency).
    cached_remote: Option<EndpointWindows>,
    /// When the cached remote window was last refreshed by a new exchange.
    remote_fresh_at: Option<Nanos>,
    /// Local snapshots captured at the tick that accepted the previous
    /// fresh exchange — the near-side boundary of the span the cached
    /// remote window covers.
    local_at_remote: Option<EndpointSnapshots>,
    /// Local windows spanning the same interval as `cached_remote`. The
    /// remote-perspective evaluation subtracts the *local* deliberate ACK
    /// delay from the *remote* unacked delay; those only cancel when both
    /// are averaged over the same span. Pairing the exchange-to-exchange
    /// remote window with a 500 µs tick window instead breaks the
    /// cancellation whenever requests arrive slower than ticks — the
    /// high-fan-in, low-per-connection-load regime — and was what made
    /// the N = 64 fan-in estimate report the inter-arrival gap (~32×
    /// the measured latency) rather than the latency.
    cached_local_span: Option<EndpointWindows>,
    /// Running sums of every valid local window since creation. Differencing
    /// two checkpoints of this yields Little's-law delays over one long
    /// window — integrals and departures summed *before* dividing — which is
    /// the right way to average an estimate over a measurement range:
    /// per-tick delay ratios are noisy whenever item residences straddle
    /// window boundaries, and averaging the ratios (worse, max-ing noisy
    /// view pairs) rectifies that noise into a positive bias.
    cum_local: EndpointWindows,
    /// Running sums of every accepted remote window since creation.
    cum_remote: EndpointWindows,
    /// Counts fresh remote windows folded in — an epoch for the peer's
    /// shared 3-tuples, so callers can detect a peer that stopped sharing
    /// even while `cached_remote` keeps estimates flowing.
    remote_epoch: u64,
    /// Remote windows older than this are distrusted: confidence decays to
    /// zero across the bound, beyond it estimation falls back to the local
    /// queues alone. `None` trusts the cache forever (the pre-fault
    /// behaviour).
    staleness_bound: Option<Nanos>,
    /// Plausibility validator for incoming exchanges. `None` (the default)
    /// trusts the peer unconditionally — the pre-validation behaviour.
    validator: Option<ExchangeValidator>,
    smoother: Ewma,
    last: Option<Estimate>,
}

impl E2eEstimator {
    /// Creates an estimator. `smoothing_alpha` is the EWMA weight applied
    /// across ticks (1.0 disables smoothing).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < smoothing_alpha ≤ 1`.
    pub fn new(scale: WireScale, smoothing_alpha: f64) -> Self {
        E2eEstimator {
            scale,
            prev_local: None,
            prev_remote: None,
            cached_remote: None,
            remote_fresh_at: None,
            local_at_remote: None,
            cached_local_span: None,
            cum_local: EndpointWindows::default(),
            cum_remote: EndpointWindows::default(),
            remote_epoch: 0,
            staleness_bound: None,
            validator: None,
            smoother: Ewma::new(smoothing_alpha),
            last: None,
        }
    }

    /// Bounds how long a cached remote window stays trustworthy.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn with_staleness_bound(mut self, bound: Nanos) -> Self {
        assert!(!bound.is_zero(), "staleness bound must be positive");
        self.staleness_bound = Some(bound);
        self
    }

    /// Enables peer-state validation: every fresh exchange is checked for
    /// plausibility before it can form a remote window (see
    /// `crate::validate`). Rejected exchanges are discarded (the last
    /// accepted baseline is kept), demote confidence, and are counted in
    /// [`Self::validation_stats`]; an epoch change resynchronizes instead
    /// of computing a cross-generation delta.
    pub fn with_validation(mut self, config: ValidateConfig) -> Self {
        self.validator = Some(ExchangeValidator::new(config));
        self
    }

    /// Validation counters, if validation is enabled.
    pub fn validation_stats(&self) -> Option<ValidateStats> {
        self.validator.as_ref().map(|v| v.stats())
    }

    /// Consecutive rejected exchanges since the last accepted one (zero
    /// when validation is disabled).
    pub fn consecutive_rejects(&self) -> u32 {
        self.validator
            .as_ref()
            .map_or(0, |v| v.consecutive_rejects())
    }

    /// Number of fresh remote windows folded in so far.
    pub fn remote_epoch(&self) -> u64 {
        self.remote_epoch
    }

    /// Running sums of all (local, remote) windows folded in so far.
    /// Checkpoint these and difference two checkpoints with
    /// `QueueWindow::since` to evaluate the decomposition over one long
    /// window — the low-noise way to average latency over a range (see
    /// the field docs on `cum_local`).
    pub fn cumulative_windows(&self) -> (EndpointWindows, EndpointWindows) {
        (self.cum_local, self.cum_remote)
    }

    /// Age of the cached remote window at `now`; `None` before the first
    /// remote window forms.
    #[cfg(test)]
    fn remote_age(&self, now: Nanos) -> Option<Nanos> {
        self.remote_fresh_at.map(|at| now.saturating_sub(at))
    }

    /// Feeds one tick of data: the local snapshots at `now` and the
    /// latest remote exchange (if any new one arrived). Returns an
    /// estimate once both a local and a remote window exist.
    pub fn update(
        &mut self,
        now: Nanos,
        local: EndpointSnapshots,
        remote_latest: Option<WireExchange>,
    ) -> Option<Estimate> {
        self.update_validated(now, local, remote_latest, None)
    }

    /// [`Self::update`] with the locally measured SRTT supplied for the
    /// validator's delay bound. With validation disabled this is identical
    /// to `update`.
    pub fn update_validated(
        &mut self,
        now: Nanos,
        local: EndpointSnapshots,
        remote_latest: Option<WireExchange>,
        srtt: Option<Nanos>,
    ) -> Option<Estimate> {
        // Local tick-to-tick window.
        let local_window = self
            .prev_local
            .as_ref()
            .and_then(|prev| EndpointWindows::between(prev, &local));
        self.prev_local = Some(local);
        if let Some(w) = &local_window {
            self.cum_local.merge(w);
        }

        // Remote exchange-to-exchange window (only when a fresh exchange
        // arrived; duplicates produce an empty window and are skipped).
        // With a validator configured, the fresh exchange must first pass
        // plausibility checks against locally observable signals.
        let remote_window = match (self.prev_remote, remote_latest) {
            (Some(prev), Some(cur)) if prev != cur => {
                let admission = match self.validator.as_mut() {
                    Some(v) => {
                        let ctx = ValidateCtx {
                            srtt,
                            local: local_window,
                        };
                        v.admit(&prev, &cur, self.scale, &ctx)
                    }
                    None => Admission::Accept,
                };
                match admission {
                    Admission::Accept => {
                        self.prev_remote = Some(cur);
                        // The local windows spanning the same interval as
                        // the fresh remote window, for the span-aligned
                        // far-side correction in the remote view.
                        self.cached_local_span = self
                            .local_at_remote
                            .as_ref()
                            .and_then(|prev| EndpointWindows::between(prev, &local));
                        self.local_at_remote = Some(local);
                        EndpointWindows::between_wire(&prev, &cur, self.scale)
                    }
                    Admission::EpochChange => {
                        // Peer restart detected: the new exchange becomes
                        // the delta baseline and the cached window is
                        // dropped — resynchronization, never a wrapping
                        // delta across counter generations.
                        self.prev_remote = Some(cur);
                        self.cached_remote = None;
                        self.remote_fresh_at = None;
                        self.local_at_remote = Some(local);
                        self.cached_local_span = None;
                        None
                    }
                    Admission::Reject(_) => {
                        // Keep the last accepted baseline: the next
                        // plausible exchange forms a (longer) valid
                        // window across the rejected gap, and the aligned
                        // local span (anchored at the last accepted tick)
                        // will cover the same gap.
                        None
                    }
                }
            }
            (None, Some(cur)) => {
                self.prev_remote = Some(cur);
                self.local_at_remote = Some(local);
                None
            }
            _ => None,
        };

        let local_window = local_window?;
        let (remote_window, age) = match remote_window {
            Some(w) => {
                self.cached_remote = Some(w);
                self.remote_fresh_at = Some(now);
                self.remote_epoch += 1;
                self.cum_remote.merge(&w);
                (w, Nanos::ZERO)
            }
            None => {
                let w = self.cached_remote?;
                // `remote_fresh_at` is set whenever the cache is; fall
                // back to zero age rather than panic if that ever drifts.
                let fresh_at = self.remote_fresh_at.unwrap_or(now);
                (w, now.saturating_sub(fresh_at))
            }
        };

        // Confidence decays linearly with the cached window's age; beyond
        // the bound the peer's view is distrusted entirely and the
        // estimate degrades to what the local queues alone can see
        // (missing the far side's unread delay, over-counting its
        // deliberate ACK delay — honest, but marked as such).
        let (local_view, remote_view, remote_stale, components, latency) =
            match self.staleness_bound {
                Some(bound) if age > bound => {
                    let local_set = combine_delays(&local_window, &EndpointWindows::default());
                    let local_only = local_set.latency();
                    (local_only, local_only, true, local_set, local_only)
                }
                _ => {
                    let local_set = combine_delays(&local_window, &remote_window);
                    // Evaluate the remote perspective against local
                    // windows covering the remote window's own span, not
                    // this tick's — see `cached_local_span`.
                    let far_local = self.cached_local_span.unwrap_or(local_window);
                    let remote_set = combine_delays(&remote_window, &far_local);
                    let local_view = local_set.latency();
                    let remote_view = remote_set.latency();
                    // Each view mixes full-resolution local windows with
                    // wire-quantized remote ones, so its value is only
                    // credible to within the quantization granularity of
                    // its remote-sourced terms. Compare lower bounds: a
                    // raw max would rectify the symmetric quantization
                    // noise into a positive bias of up to one scaled unit
                    // per departure, which at low per-connection
                    // throughput (high fan-in) dwarfs the true latency.
                    let local_tol = wire_delay_granularity(self.scale, &remote_window.ackdelay)
                        + wire_delay_granularity(self.scale, &remote_window.unread);
                    let remote_tol = wire_delay_granularity(self.scale, &remote_window.unacked)
                        + wire_delay_granularity(self.scale, &remote_window.unread);
                    let remote_wins = remote_view.saturating_sub(remote_tol)
                        > local_view.saturating_sub(local_tol);
                    // Keep the component set behind the winning view, so
                    // per-knob routing blames the same queues the
                    // headline latency was computed from.
                    let (winner, components) = if remote_wins {
                        (remote_view, remote_set)
                    } else {
                        (local_view, local_set)
                    };
                    (local_view, remote_view, false, components, winner)
                }
            };
        let confidence = self.confidence(age);
        let smoothed = self.smoother.update(latency.as_nanos() as f64);
        let est = Estimate {
            at: now,
            latency,
            smoothed_latency: Nanos::from_nanos(smoothed.round() as u64),
            throughput: local_window.unread.throughput(),
            local_view,
            remote_view,
            confidence,
            remote_stale,
            components,
        };
        self.last = Some(est);
        Some(est)
    }

    /// How far an estimate formed from a remote window `age` old is
    /// trusted: fully when fresh, decaying linearly with age toward the
    /// staleness bound, not at all past it (the local-only fallback).
    /// Consecutive rejected exchanges demote it further (halved per
    /// rejection), so sustained implausible peer state trips the same
    /// circuit breaker a stale peer does.
    fn confidence(&self, age: Nanos) -> f64 {
        let fresh = match self.staleness_bound {
            Some(bound) if age > bound => 0.0,
            Some(bound) => 1.0 - age.as_nanos() as f64 / bound.as_nanos() as f64,
            None => 1.0,
        };
        fresh
            * self
                .validator
                .as_ref()
                .map_or(1.0, |v| v.confidence_factor())
    }

    /// Skips ahead over updates that could only repeat the previous one.
    ///
    /// For a connection nothing is happening to — no `TRACK` since the
    /// previous update, so every integral grows at its held occupancy and
    /// nothing departs — updates `step` apart all see the same integer
    /// local window, and absent a new exchange the same cached remote
    /// window. Once the previous update was fed that window too (`still`
    /// is the length of the window it closed over the unmoved queues, and
    /// equals `step`), each of them returns the previous latency and
    /// throughput, and moves only `prev_local`, the running local sums,
    /// and the time and confidence of the newest estimate. This applies up
    /// to `max` such updates in closed form, at `from + k·step` for
    /// `k = 1, 2, …` where `from` is the previous update's time,
    /// `local(t)` being the snapshots an update at `t` would be fed, and
    /// returns how many. Before the first remote window no update
    /// estimates, so only the sums move and `still` does not matter.
    ///
    /// It applies fewer, possibly none, wherever an update could do
    /// anything else:
    ///
    /// * `remote_latest` is an exchange the estimator has not adopted —
    ///   fresh, or rejected by the validator, which is offered it again
    ///   (and counts and demotes again) on every update;
    /// * the previous update was fed another local window (`still` is not
    ///   `Some(step)`);
    /// * the smoother has not settled on the repeated latency;
    /// * the staleness bound lapses: the skip ends at the last update
    ///   still inside the bound (replay across it, then skip again).
    ///
    /// The estimator is then in the very state the skipped updates would
    /// have left: the newest estimate carries the last skipped update's
    /// time and the confidence [`update`](Self::update) gives an estimate
    /// of its age.
    pub fn skip_static(
        &mut self,
        step: Nanos,
        max: u64,
        remote_latest: Option<WireExchange>,
        still: Option<Nanos>,
        local: impl Fn(Nanos) -> EndpointSnapshots,
    ) -> u64 {
        let Some(prev) = self.prev_local else {
            return 0;
        };
        let from = prev.unacked.time;
        let ticks = self.repeatable_updates(from, step, max, remote_latest, still);
        if ticks == 0 {
            return 0;
        }
        let at = from + step * ticks;
        let end = local(at);
        // The sum of `ticks` adjacent windows is the window across them.
        if let Some(w) = EndpointWindows::between(&prev, &end) {
            self.cum_local.merge(&w);
        }
        self.prev_local = Some(end);
        if self.cached_remote.is_some() {
            let age = at.saturating_sub(self.remote_fresh_at.unwrap_or(at));
            let confidence = self.confidence(age);
            if let Some(last) = &mut self.last {
                last.at = at;
                last.confidence = confidence;
            }
        }
        ticks
    }

    /// How many of up to `max` updates at `from + k·step` would repeat the
    /// one at `from` (see [`skip_static`](Self::skip_static)).
    fn repeatable_updates(
        &self,
        from: Nanos,
        step: Nanos,
        max: u64,
        remote_latest: Option<WireExchange>,
        still: Option<Nanos>,
    ) -> u64 {
        if step.is_zero() || (remote_latest.is_some() && remote_latest != self.prev_remote) {
            return 0;
        }
        let (Some(_), Some(fresh_at)) = (self.cached_remote, self.remote_fresh_at) else {
            // No remote window, no estimates: only the sums move.
            return max;
        };
        if still != Some(step) {
            return 0;
        }
        // The estimate being repeated is the one formed at `from`.
        let Some(last) = self.last.filter(|e| e.at == from) else {
            return 0;
        };
        let at_rest = (last.latency.as_nanos() as f64).to_bits();
        if self.smoother.value().map(f64::to_bits) != Some(at_rest) {
            return 0;
        }
        match self.staleness_bound {
            // An update at `t` is inside the bound while `t − fresh_at ≤ bound`.
            Some(bound) if !last.remote_stale => {
                let inside = fresh_at.saturating_add(bound).saturating_sub(from);
                (inside.as_nanos() / step.as_nanos()).min(max)
            }
            _ => max,
        }
    }

    /// The most recent estimate, if any.
    pub fn last(&self) -> Option<Estimate> {
        self.last
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use littles::{QueueState, Snapshot};

    /// Drives two synthetic endpoints through a steady request/response
    /// pattern and checks the estimator's latency against ground truth.
    ///
    /// Pattern per 100 µs period: the client sends a request that stays
    /// unacked for 40 µs; the server holds it unread for 25 µs and delays
    /// its ACK by 10 µs; the response sits unread at the client for 15 µs.
    /// Ground truth per the decomposition: 40 − 10 + 15 + 25 = 70 µs.
    fn synthetic_run() -> (Vec<EndpointSnapshots>, Vec<WireExchange>) {
        let us = Nanos::from_micros;
        let mut c_unacked = QueueState::new(Nanos::ZERO);
        let mut c_unread = QueueState::new(Nanos::ZERO);
        let c_ackdelay = QueueState::new(Nanos::ZERO);
        let mut s_unacked = QueueState::new(Nanos::ZERO);
        let mut s_unread = QueueState::new(Nanos::ZERO);
        let mut s_ackdelay = QueueState::new(Nanos::ZERO);

        let mut local_snaps = Vec::new();
        let mut remote_exchanges = Vec::new();

        for period in 0..50u64 {
            let t0 = us(period * 100);
            // Request in client's unacked queue for 40 µs.
            c_unacked.track(t0, 1);
            c_unacked.track(t0 + us(40), -1);
            // Server ackdelay 10 µs; unread 25 µs.
            s_ackdelay.track(t0 + us(5), 1);
            s_ackdelay.track(t0 + us(15), -1);
            s_unread.track(t0 + us(5), 1);
            s_unread.track(t0 + us(30), -1);
            // Response: server unacked 20 µs (doesn't enter the formula
            // from the client view), client unread 15 µs.
            s_unacked.track(t0 + us(30), 1);
            s_unacked.track(t0 + us(50), -1);
            c_unread.track(t0 + us(50), 1);
            c_unread.track(t0 + us(65), -1);

            // Tick at the end of each period.
            let tick = t0 + us(100);
            local_snaps.push(EndpointSnapshots {
                unacked: c_unacked.peek(tick),
                unread: c_unread.peek(tick),
                ackdelay: c_ackdelay.peek(tick),
            });
            remote_exchanges.push(WireExchange::pack(
                &s_unacked.peek(tick),
                &s_unread.peek(tick),
                &s_ackdelay.peek(tick),
                WireScale::UNSCALED,
            ));
        }
        (local_snaps, remote_exchanges)
    }

    #[test]
    fn steady_state_estimate_matches_ground_truth() {
        let (locals, remotes) = synthetic_run();
        let mut est = E2eEstimator::new(WireScale::UNSCALED, 1.0);
        let mut last = None;
        for (i, (l, r)) in locals.iter().zip(&remotes).enumerate() {
            let t = Nanos::from_micros((i as u64 + 1) * 100);
            if let Some(e) = est.update(t, *l, Some(*r)) {
                last = Some(e);
            }
        }
        let e = last.expect("estimates produced");
        let expect = Nanos::from_micros(70);
        let err = e.latency.as_nanos().abs_diff(expect.as_nanos());
        assert!(
            err < expect.as_nanos() / 20,
            "estimate {} vs ground truth {expect}",
            e.latency
        );
        // Throughput: one response read per 100 µs = 10k items/s.
        assert!((e.throughput - 10_000.0).abs() / 10_000.0 < 0.05);
    }

    #[test]
    fn needs_two_ticks_and_two_exchanges() {
        let (locals, remotes) = synthetic_run();
        let mut est = E2eEstimator::new(WireScale::UNSCALED, 1.0);
        assert!(est
            .update(Nanos::from_micros(100), locals[0], Some(remotes[0]))
            .is_none());
        assert!(est
            .update(Nanos::from_micros(200), locals[1], Some(remotes[1]))
            .is_some());
    }

    #[test]
    fn stale_remote_reuses_cached_window() {
        let (locals, remotes) = synthetic_run();
        let mut est = E2eEstimator::new(WireScale::UNSCALED, 1.0);
        est.update(Nanos::from_micros(100), locals[0], Some(remotes[0]));
        est.update(Nanos::from_micros(200), locals[1], Some(remotes[1]));
        // Same remote exchange again: estimator should still estimate from
        // the fresh local window and the cached remote window.
        let e = est.update(Nanos::from_micros(300), locals[2], Some(remotes[1]));
        assert!(e.is_some(), "stale exchange must not stall estimation");
    }

    #[test]
    fn confidence_decays_with_remote_age_then_falls_back_to_local() {
        let us = Nanos::from_micros;
        let (locals, remotes) = synthetic_run();
        let mut est = E2eEstimator::new(WireScale::UNSCALED, 1.0).with_staleness_bound(us(250));
        est.update(us(100), locals[0], Some(remotes[0]));
        let fresh = est.update(us(200), locals[1], Some(remotes[1])).unwrap();
        assert!((fresh.confidence - 1.0).abs() < 1e-9);
        assert!(!fresh.remote_stale);
        assert_eq!(est.remote_epoch(), 1);

        // The peer stops sharing: the cached window ages, confidence
        // decays linearly (1 − age/bound), the estimate itself holds.
        let aging = est.update(us(300), locals[2], None).unwrap();
        assert!(
            (aging.confidence - 0.6).abs() < 1e-9,
            "{}",
            aging.confidence
        );
        assert!(!aging.remote_stale);
        assert_eq!(aging.latency, fresh.latency);

        let older = est.update(us(400), locals[3], None).unwrap();
        assert!((older.confidence - 0.2).abs() < 1e-9);

        // Past the bound: local-only fallback. The synthetic pattern's
        // local components are unacked 40 µs + unread 15 µs = 55 µs —
        // below the 70 µs ground truth, as a one-sided view must be.
        let stale = est.update(us(500), locals[4], None).unwrap();
        assert!(stale.remote_stale);
        assert!(stale.confidence.abs() < 1e-9);
        assert!(stale.latency < fresh.latency);
        assert!(stale.latency > Nanos::ZERO);
        assert_eq!(stale.local_view, stale.remote_view);
        assert_eq!(est.remote_age(us(500)), Some(us(300)));
        assert_eq!(est.remote_epoch(), 1, "no fresh window during the gap");

        // The peer resumes sharing: full-confidence estimation returns.
        let back = est.update(us(600), locals[5], Some(remotes[5])).unwrap();
        assert!((back.confidence - 1.0).abs() < 1e-9);
        assert!(!back.remote_stale);
        assert_eq!(est.remote_epoch(), 2);
        let err = back.latency.as_nanos().abs_diff(us(70).as_nanos());
        assert!(
            err < us(70).as_nanos() / 10,
            "recovered to {}",
            back.latency
        );
    }

    #[test]
    fn components_back_the_winning_view() {
        let (locals, remotes) = synthetic_run();
        let mut est = E2eEstimator::new(WireScale::UNSCALED, 1.0);
        let mut last = None;
        for (i, (l, r)) in locals.iter().zip(&remotes).enumerate() {
            let t = Nanos::from_micros((i as u64 + 1) * 100);
            if let Some(e) = est.update(t, *l, Some(*r)) {
                // The component set must evaluate to the headline latency
                // on every tick — it is the same decomposition, exposed.
                assert_eq!(e.components.latency(), e.latency);
                last = Some(e);
            }
        }
        let e = last.expect("estimates produced");
        // In the synthetic pattern the far ACK delay (10 µs) and far
        // unread (25 µs) are distinguishable components.
        let us = Nanos::from_micros;
        assert!(
            e.components
                .ackdelay_far
                .as_nanos()
                .abs_diff(us(10).as_nanos())
                < 2_000
        );
        assert!(
            e.components
                .unread_far
                .as_nanos()
                .abs_diff(us(25).as_nanos())
                < 2_000
        );
    }

    #[test]
    fn stale_fallback_components_have_no_far_side() {
        let us = Nanos::from_micros;
        let (locals, remotes) = synthetic_run();
        let mut est = E2eEstimator::new(WireScale::UNSCALED, 1.0).with_staleness_bound(us(250));
        est.update(us(100), locals[0], Some(remotes[0]));
        est.update(us(200), locals[1], Some(remotes[1]));
        let stale = est.update(us(600), locals[2], None).unwrap();
        assert!(stale.remote_stale);
        assert_eq!(stale.components.ackdelay_far, Nanos::ZERO);
        assert_eq!(stale.components.unread_far, Nanos::ZERO);
        assert_eq!(stale.components.latency(), stale.latency);
    }

    #[test]
    fn no_bound_trusts_the_cache_forever() {
        let us = Nanos::from_micros;
        let (locals, remotes) = synthetic_run();
        let mut est = E2eEstimator::new(WireScale::UNSCALED, 1.0);
        est.update(us(100), locals[0], Some(remotes[0]));
        est.update(us(200), locals[1], Some(remotes[1]));
        // An hour-old cache still yields a confident estimate when no
        // staleness bound was configured (the pre-fault behaviour).
        let e = est
            .update(Nanos::from_secs(3_600), locals[2], None)
            .unwrap();
        assert!((e.confidence - 1.0).abs() < 1e-9);
        assert!(!e.remote_stale);
    }

    #[test]
    fn no_remote_no_estimate() {
        let (locals, _) = synthetic_run();
        let mut est = E2eEstimator::new(WireScale::UNSCALED, 1.0);
        assert!(est
            .update(Nanos::from_micros(100), locals[0], None)
            .is_none());
        assert!(est
            .update(Nanos::from_micros(200), locals[1], None)
            .is_none());
    }

    #[test]
    fn smoothing_damps_a_spike() {
        let (locals, remotes) = synthetic_run();
        let mut raw = E2eEstimator::new(WireScale::UNSCALED, 1.0);
        let mut smooth = E2eEstimator::new(WireScale::UNSCALED, 0.1);
        for (i, (l, r)) in locals.iter().zip(&remotes).enumerate().take(10) {
            let t = Nanos::from_micros((i as u64 + 1) * 100);
            raw.update(t, *l, Some(*r));
            smooth.update(t, *l, Some(*r));
        }
        // Fabricate a spike: a local snapshot whose unacked integral jumps.
        let mut spiky = locals[10];
        spiky.unacked.integral += 50_000_000; // +50 ms·item
        let t = Nanos::from_micros(1_100);
        let raw_e = raw.update(t, spiky, Some(remotes[10])).unwrap();
        let smooth_e = smooth.update(t, spiky, Some(remotes[10])).unwrap();
        assert!(smooth_e.smoothed_latency < raw_e.latency);
    }

    #[test]
    fn validation_rejects_garbled_exchange_and_keeps_estimating() {
        use crate::validate::ValidateConfig;
        let (locals, remotes) = synthetic_run();
        let mut est = E2eEstimator::new(WireScale::UNSCALED, 1.0).with_validation(ValidateConfig);
        est.update(Nanos::from_micros(100), locals[0], Some(remotes[0]));
        let good = est
            .update(Nanos::from_micros(200), locals[1], Some(remotes[1]))
            .unwrap();
        assert!((good.confidence - 1.0).abs() < 1e-9);

        // A flipped high bit in one counter: the exchange must be rejected,
        // but estimation continues from the cached window with demoted
        // confidence.
        let mut garbled = remotes[2];
        garbled.unread.total ^= 0x4000_0000;
        let e = est
            .update(Nanos::from_micros(300), locals[2], Some(garbled))
            .unwrap();
        assert!((e.confidence - 0.5).abs() < 1e-9, "{}", e.confidence);
        assert_eq!(e.latency, good.latency, "cached window keeps the estimate");
        let stats = est.validation_stats().unwrap();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.throughput, 1);
        assert_eq!(est.consecutive_rejects(), 1);

        // The next honest exchange deltas from the last *accepted*
        // baseline, spans the rejected gap, and restores confidence.
        let back = est
            .update(Nanos::from_micros(400), locals[3], Some(remotes[3]))
            .unwrap();
        assert!((back.confidence - 1.0).abs() < 1e-9);
        assert_eq!(est.consecutive_rejects(), 0);
        assert_eq!(est.validation_stats().unwrap().accepted, 2);
    }

    #[test]
    fn epoch_change_resynchronizes_within_one_exchange() {
        use crate::validate::ValidateConfig;
        let us = Nanos::from_micros;
        let (locals, remotes) = synthetic_run();
        let mut est = E2eEstimator::new(WireScale::UNSCALED, 1.0).with_validation(ValidateConfig);
        est.update(us(100), locals[0], Some(remotes[0]));
        est.update(us(200), locals[1], Some(remotes[1])).unwrap();

        // The peer restarts: counters back near zero, under a new epoch.
        // The restarted stream reuses the synthetic pattern from t = 0.
        let restarted: Vec<WireExchange> = remotes.iter().map(|r| r.with_epoch(1)).collect();
        let at_change = est.update(us(300), locals[2], Some(restarted[0]));
        assert!(
            at_change.is_none(),
            "the epoch-change tick resynchronizes instead of estimating"
        );
        let stats = est.validation_stats().unwrap();
        assert_eq!(stats.epoch_changes, 1);
        assert_eq!(stats.rejected, 0, "a restart is not a rejection");

        // One exchange later the estimator is fully resynchronized.
        let e = est.update(us(400), locals[3], Some(restarted[1])).unwrap();
        assert!((e.confidence - 1.0).abs() < 1e-9);
        let err = e.latency.as_nanos().abs_diff(us(70).as_nanos());
        assert!(err < us(70).as_nanos() / 5, "resynced to {}", e.latency);
    }

    #[test]
    fn unvalidated_estimator_is_poisoned_by_untagged_counter_reset() {
        // The blind spot validation closes: without it, a peer whose
        // counters reset (same epoch — e.g. a pre-epoch peer) produces a
        // gigantic wrapping window whose delays collapse toward zero,
        // silently underestimating latency — the dangerous direction for a
        // batching policy.
        let us = Nanos::from_micros;
        let (locals, remotes) = synthetic_run();
        let mut est = E2eEstimator::new(WireScale::UNSCALED, 1.0);
        est.update(us(100), locals[0], Some(remotes[0]));
        let honest = est.update(us(200), locals[1], Some(remotes[1])).unwrap();
        assert!(
            honest.components.unread_far > us(20),
            "honest far unread ≈ 25 µs"
        );

        let (_, restarted) = synthetic_run();
        let poisoned = est.update(us(300), locals[2], Some(restarted[0])).unwrap();
        assert!(
            poisoned.components.unread_far < us(1),
            "wrapping delta collapses the far-side delays: {}",
            poisoned.components.unread_far
        );
        assert!(poisoned.latency < honest.latency, "net underestimation");
        assert!(
            (poisoned.confidence - 1.0).abs() < 1e-9,
            "and reports full confidence"
        );
    }

    /// A connection that goes quiet after `synthetic_run`'s tenth period:
    /// one request stays unacked, nothing else moves. Returns the warmed-up
    /// estimator, the time of its last update and the snapshots any later
    /// tick would read.
    fn gone_quiet(
        mut est: E2eEstimator,
    ) -> (E2eEstimator, Nanos, impl Fn(Nanos) -> EndpointSnapshots) {
        let us = Nanos::from_micros;
        let (locals, remotes) = synthetic_run();
        for i in 0..10 {
            est.update(us((i as u64 + 1) * 100), locals[i], Some(remotes[i]));
        }
        let base = locals[9];
        let local = move |t: Nanos| EndpointSnapshots {
            unacked: base.unacked.advanced(1, t),
            unread: base.unread.advanced(0, t),
            ackdelay: base.ackdelay.advanced(0, t),
        };
        (est, us(1_000), local)
    }

    /// `n` ticks `step` apart after `from`, by `update` alone and with
    /// every stretch that can be skipped skipped, the way a recorder's
    /// flush goes: a tick is stepped, and from then on the queues stand
    /// still across windows of one `step`. The two estimators must end up
    /// in the same state. Returns how many ticks the skips covered.
    fn skip_vs_stepwise(
        est: E2eEstimator,
        from: Nanos,
        local: impl Fn(Nanos) -> EndpointSnapshots,
        remote: Option<WireExchange>,
        n: u64,
    ) -> u64 {
        let step = Nanos::from_micros(100);
        let (mut slow, mut fast) = (est.clone(), est);
        let mut samples = Vec::new();
        let sample_at = |est: &mut E2eEstimator, k: u64| {
            let at = from + step * k;
            let e = est.update(at, local(at), remote);
            e.map(|e| (e.latency, e.throughput.to_bits(), e.remote_stale))
        };
        for k in 1..=n {
            samples.push(sample_at(&mut slow, k));
        }
        // The update at `from` closed a window over moving queues.
        let (mut k, mut skipped, mut still) = (0, 0, None);
        while k < n {
            let m = fast.skip_static(step, n - k, remote, still, &local);
            for j in k..k + m {
                assert_eq!(
                    samples[j as usize],
                    samples[k as usize - 1],
                    "skipped tick {}",
                    j + 1
                );
            }
            k += m;
            skipped += m;
            if k < n {
                k += 1;
                let sample = sample_at(&mut fast, k);
                assert_eq!(sample, samples[k as usize - 1], "tick {k}");
                still = Some(step);
            }
        }
        assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
        skipped
    }

    #[test]
    fn skip_covers_all_but_the_first_tick_of_a_silence() {
        let (_, remotes) = synthetic_run();
        let (est, from, local) = gone_quiet(E2eEstimator::new(WireScale::UNSCALED, 1.0));
        // One tick in, and everything after it is skipped, the last tick
        // included, whether the peer's last exchange is still on offer or
        // not.
        assert_eq!(
            skip_vs_stepwise(est.clone(), from, &local, Some(remotes[9]), 2_500),
            2_499
        );
        assert_eq!(skip_vs_stepwise(est, from, &local, None, 40), 39);
    }

    #[test]
    fn skip_waits_for_a_window_of_one_spacing_unless_nothing_estimates() {
        let us = Nanos::from_micros;
        let (_, remotes) = synthetic_run();
        let (est, from, local) = gone_quiet(E2eEstimator::new(WireScale::UNSCALED, 1.0));
        for still in [None, Some(us(50)), Some(us(200))] {
            let mut fast = est.clone();
            assert_eq!(
                fast.skip_static(us(100), 10, Some(remotes[9]), still, &local),
                0
            );
            assert_eq!(
                format!("{fast:?}"),
                format!("{est:?}"),
                "a refused skip moves nothing"
            );
        }
        // Before the first remote window only the sums move, whatever the
        // windows before were: the skip starts at once.
        let (locals, _) = synthetic_run();
        let mut slow = E2eEstimator::new(WireScale::UNSCALED, 1.0);
        slow.update(from, locals[9], None);
        let mut fast = slow.clone();
        let held = |t: Nanos| EndpointSnapshots {
            unacked: locals[9].unacked.advanced(1, t),
            unread: locals[9].unread.advanced(0, t),
            ackdelay: locals[9].ackdelay.advanced(0, t),
        };
        assert_eq!(fast.skip_static(us(100), 30, None, None, held), 30);
        for k in 1..=30 {
            let at = from + us(100 * k);
            assert!(slow.update(at, held(at), None).is_none());
        }
        assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
    }

    #[test]
    fn skip_stops_at_the_staleness_bound_and_resumes_past_it() {
        let (_, remotes) = synthetic_run();
        let bound = Nanos::from_micros(1_250);
        let est = E2eEstimator::new(WireScale::UNSCALED, 1.0).with_staleness_bound(bound);
        let (est, from, local) = gone_quiet(est);
        // Ticks 1–12 are inside the bound (age ≤ 1 250 µs), 13 is the first
        // stale one and must be a real update; so is 1. The skips restamp
        // the decaying confidence, so the states still compare equal.
        assert_eq!(
            skip_vs_stepwise(est, from, &local, Some(remotes[9]), 30),
            28
        );
    }

    #[test]
    fn skip_refuses_a_pending_reject_and_an_unsettled_smoother() {
        let (_, remotes) = synthetic_run();
        let validated = E2eEstimator::new(WireScale::UNSCALED, 1.0).with_validation(ValidateConfig);
        let (est, from, local) = gone_quiet(validated);
        // A garbled exchange stays on offer: every tick re-rejects it.
        let mut garbled = remotes[10];
        garbled.unread.total ^= 0x4000_0000;
        assert_eq!(
            skip_vs_stepwise(est.clone(), from, &local, Some(garbled), 30),
            0
        );
        let mut replayed = est.clone();
        for k in 1..=30 {
            let at = from + Nanos::from_micros(100 * k);
            replayed.update(at, local(at), Some(garbled));
        }
        assert_eq!(replayed.validation_stats().unwrap().rejected, 30);
        // The same estimator with nothing pending skips.
        assert_eq!(
            skip_vs_stepwise(est, from, &local, Some(remotes[9]), 30),
            29
        );

        // A smoother still converging changes state on every tick.
        let (est, from, local) = gone_quiet(E2eEstimator::new(WireScale::UNSCALED, 0.3));
        assert_eq!(skip_vs_stepwise(est, from, &local, Some(remotes[9]), 12), 0);
    }

    #[test]
    fn default_snapshot_window_is_rejected() {
        let mut est = E2eEstimator::new(WireScale::default(), 0.3);
        let s = EndpointSnapshots {
            unacked: Snapshot::default(),
            unread: Snapshot::default(),
            ackdelay: Snapshot::default(),
        };
        assert!(est.update(Nanos::ZERO, s, None).is_none());
        // Identical snapshot again: zero-length window, still none.
        assert!(est.update(Nanos::ZERO, s, None).is_none());
    }
}
