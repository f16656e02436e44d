//! CPU execution contexts with cost accounting.
//!
//! The paper pins two execution contexts per machine — the application
//! thread (Redis or Lancet) and the network-stack softirq context — to
//! dedicated cores. A [`CpuContext`] models one such pinned core: work items
//! execute serially, each with a caller-supplied cost; a context that is
//! offered more work than one core's worth of time saturates, and the
//! backlog becomes queueing delay.
//!
//! This model is what reproduces the *shape* of the paper's results:
//! per-packet softirq cost × packets/sec approaching 1 core is exactly the
//! saturation knee in Figure 4, and the VM client of Figure 2 is a context
//! whose costs carry a multiplier.

use crate::fault::WindowSchedule;
use littles::Nanos;

/// A serially-executing CPU context (one pinned core).
///
/// # Examples
///
/// ```
/// use simnet::{CpuContext, Nanos};
///
/// let mut cpu = CpuContext::new("softirq");
/// let done1 = cpu.run(Nanos::ZERO, Nanos::from_micros(3));
/// let done2 = cpu.run(Nanos::ZERO, Nanos::from_micros(2));
/// assert_eq!(done1, Nanos::from_micros(3));
/// assert_eq!(done2, Nanos::from_micros(5)); // queued behind the first
/// ```
#[derive(Debug, Clone)]
pub struct CpuContext {
    /// The caller's label ("client-app", "softirq", ...), shown when a host
    /// is printed with `{:?}`.
    #[expect(dead_code, reason = "only the derived Debug reads the label")]
    name: &'static str,
    busy_until: Nanos,
    busy_accum: Nanos,
    /// Multiplier applied to every cost, in parts per 1024 (1024 = 1.0×).
    /// Models virtualization overhead (paper Figure 2: the VM client's
    /// per-request CPU cost is substantially higher).
    cost_multiplier_milli: u64,
    /// Scheduled windows during which the context cannot start work
    /// (GC-pause-like stalls; see `simnet::fault`).
    stalls: Option<WindowSchedule>,
}

impl CpuContext {
    /// Creates an idle context with no cost multiplier.
    pub fn new(name: &'static str) -> Self {
        CpuContext {
            name,
            busy_until: Nanos::ZERO,
            busy_accum: Nanos::ZERO,
            cost_multiplier_milli: 1000,
            stalls: None,
        }
    }

    /// Installs a stall schedule: work that would start inside one of the
    /// windows waits for the window to end (a GC pause / hypervisor
    /// preemption as seen by this pinned core). Stalled waiting time is
    /// not accounted as busy time.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is periodic and its windows cover the whole
    /// period (the context would never run again).
    pub fn set_stall_schedule(&mut self, schedule: WindowSchedule) {
        assert!(
            schedule.period.is_zero() || schedule.duration < schedule.period,
            "stall windows must leave the context some time to run"
        );
        self.stalls = Some(schedule);
    }

    /// Creates a context whose every cost is scaled by `multiplier`
    /// (e.g. `2.5` for a VM whose guest work costs 2.5× bare metal).
    ///
    /// # Panics
    ///
    /// Panics if `multiplier` is not positive and finite.
    pub fn with_multiplier(name: &'static str, multiplier: f64) -> Self {
        assert!(
            multiplier.is_finite() && multiplier > 0.0,
            "bad multiplier {multiplier}"
        );
        CpuContext {
            cost_multiplier_milli: (multiplier * 1000.0).round() as u64,
            ..CpuContext::new(name)
        }
    }

    /// The effective cost of `raw` after the multiplier.
    pub(crate) fn scaled(&self, raw: Nanos) -> Nanos {
        Nanos::from_nanos(raw.as_nanos() * self.cost_multiplier_milli / 1000)
    }

    /// Executes work of cost `raw` (scaled by the multiplier), starting no
    /// earlier than `now` and behind any queued work. Returns the
    /// completion time.
    pub fn run(&mut self, now: Nanos, raw: Nanos) -> Nanos {
        let cost = self.scaled(raw);
        let mut start = self.busy_until.max(now);
        if let Some(stalls) = &self.stalls {
            // At most one step for any valid schedule: window ends are
            // never themselves inside a window when duration < period.
            while let Some(end) = stalls.window_end(start) {
                start = end;
            }
        }
        self.busy_until = start + cost;
        self.busy_accum += cost;
        self.busy_until
    }

    /// Time at which all currently queued work completes.
    pub fn busy_until(&self) -> Nanos {
        self.busy_until
    }

    /// Total busy time accumulated since creation.
    #[cfg(test)]
    fn busy_accum(&self) -> Nanos {
        self.busy_accum
    }

    /// Captures a snapshot for windowed utilization measurement.
    pub fn busy_snapshot(&self, now: Nanos) -> BusySnapshot {
        BusySnapshot {
            at: now,
            busy_accum: self.busy_accum,
        }
    }

    /// Utilization (0..=1+) between a snapshot and `now`.
    ///
    /// Values above 1.0 indicate the context was offered more than a core's
    /// worth of work during the window (the excess is queued backlog).
    pub fn utilization_since(&self, snap: &BusySnapshot, now: Nanos) -> f64 {
        snap.utilization_until(&self.busy_snapshot(now))
    }
}

/// A point-in-time capture of a context's cumulative busy time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusySnapshot {
    /// When the snapshot was taken.
    pub(crate) at: Nanos,
    /// Cumulative busy time at `at`.
    pub(crate) busy_accum: Nanos,
}

impl BusySnapshot {
    /// Utilization (0..=1+) between this snapshot and a `later` one of the
    /// same context: the busy time booked in between over the time in
    /// between.
    pub fn utilization_until(&self, later: &BusySnapshot) -> f64 {
        let dt = later.at.saturating_sub(self.at);
        if dt.is_zero() {
            return 0.0;
        }
        (later.busy_accum.saturating_sub(self.busy_accum)).as_nanos() as f64 / dt.as_nanos() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_context_runs_immediately() {
        let mut c = CpuContext::new("app");
        let done = c.run(Nanos::from_micros(10), Nanos::from_micros(2));
        assert_eq!(done, Nanos::from_micros(12));
    }

    #[test]
    fn work_serializes() {
        let mut c = CpuContext::new("app");
        let d1 = c.run(Nanos::ZERO, Nanos::from_micros(5));
        let d2 = c.run(Nanos::from_micros(1), Nanos::from_micros(5));
        assert_eq!(d1, Nanos::from_micros(5));
        assert_eq!(d2, Nanos::from_micros(10));
    }

    #[test]
    fn multiplier_scales_cost() {
        let mut vm = CpuContext::with_multiplier("vm-app", 2.5);
        let done = vm.run(Nanos::ZERO, Nanos::from_micros(4));
        assert_eq!(done, Nanos::from_micros(10));
    }

    #[test]
    fn utilization_window() {
        let mut c = CpuContext::new("app");
        let snap = c.busy_snapshot(Nanos::ZERO);
        // 4 µs of work offered over a 10 µs window → 40%.
        c.run(Nanos::ZERO, Nanos::from_micros(4));
        let u = c.utilization_since(&snap, Nanos::from_micros(10));
        assert!((u - 0.4).abs() < 1e-9);
    }

    #[test]
    fn oversubscribed_utilization_exceeds_one() {
        let mut c = CpuContext::new("softirq");
        let snap = c.busy_snapshot(Nanos::ZERO);
        for _ in 0..3 {
            c.run(Nanos::ZERO, Nanos::from_micros(5));
        }
        let u = c.utilization_since(&snap, Nanos::from_micros(10));
        assert!((u - 1.5).abs() < 1e-9);
    }

    #[test]
    fn zero_window_utilization_is_zero() {
        let c = CpuContext::new("app");
        let snap = c.busy_snapshot(Nanos::ZERO);
        assert_eq!(
            c.utilization_since(&snap, Nanos::ZERO).to_bits(),
            0.0f64.to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "bad multiplier")]
    fn zero_multiplier_rejected() {
        let _ = CpuContext::with_multiplier("x", 0.0);
    }

    #[test]
    fn stall_window_defers_work_without_accruing_busy_time() {
        let mut c = CpuContext::new("app");
        c.set_stall_schedule(WindowSchedule {
            first_at: Nanos::from_micros(10),
            period: Nanos::from_micros(100),
            duration: Nanos::from_micros(20),
        });
        // Before the window: runs immediately.
        let d = c.run(Nanos::from_micros(2), Nanos::from_micros(3));
        assert_eq!(d, Nanos::from_micros(5));
        // Inside the window: waits until it closes at 30 µs.
        let d = c.run(Nanos::from_micros(12), Nanos::from_micros(4));
        assert_eq!(d, Nanos::from_micros(34));
        // Next period's window stalls too.
        let d = c.run(Nanos::from_micros(115), Nanos::from_micros(1));
        assert_eq!(d, Nanos::from_micros(131));
        // Only real work counts as busy.
        assert_eq!(c.busy_accum(), Nanos::from_micros(8));
    }

    #[test]
    fn backlog_carries_across_a_stall() {
        let mut c = CpuContext::new("app");
        c.set_stall_schedule(WindowSchedule {
            first_at: Nanos::from_micros(5),
            period: Nanos::ZERO,
            duration: Nanos::from_micros(10),
        });
        // Work queued before the stall finishes at 4 µs; the next item
        // would start at 4 µs... except that instant is pre-window, so it
        // runs, while anything landing at 6 µs waits to 15 µs.
        let d1 = c.run(Nanos::ZERO, Nanos::from_micros(4));
        assert_eq!(d1, Nanos::from_micros(4));
        let d2 = c.run(Nanos::from_micros(6), Nanos::from_micros(2));
        assert_eq!(d2, Nanos::from_micros(17));
    }

    #[test]
    #[should_panic(expected = "some time to run")]
    fn total_stall_schedule_rejected() {
        let mut c = CpuContext::new("app");
        c.set_stall_schedule(WindowSchedule {
            first_at: Nanos::ZERO,
            period: Nanos::from_micros(10),
            duration: Nanos::from_micros(10),
        });
    }
}
