//! In-memory span aggregation for the traced event loop.
//!
//! The loop in `adapter.rs` reads the clock twice per event and hands the
//! three instants here. Host time is summed per (arm, role) and for the
//! queue (peek + pop); every [`SPAN_EVERY`]th event is kept whole as a
//! raw span and written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One raw span is kept per this many events.
pub const SPAN_EVERY: u64 = 1024;

/// The `tcpsim::sim::Event` arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    Deliver,
    SoftirqRx,
    Timer,
    NicComplete,
    AppWake,
    AppCall,
    /// `Restart` / `ShardCrash`: fault injection, a handful per run.
    Fault,
}

/// Which tier the event's host belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Client,
    Proxy,
    /// The server of a star or a shard of the tier.
    Server,
    /// The event has no host (fault injection).
    None,
}

const ARMS: [(Arm, &str); 7] = [
    (Arm::Deliver, "deliver"),
    (Arm::SoftirqRx, "softirq_rx"),
    (Arm::Timer, "timer"),
    (Arm::NicComplete, "nic_complete"),
    (Arm::AppWake, "app_wake"),
    (Arm::AppCall, "app_call"),
    (Arm::Fault, "fault"),
];
const ROLES: [(Role, &str); 4] = [
    (Role::Client, "client"),
    (Role::Proxy, "proxy"),
    (Role::Server, "server"),
    (Role::None, "none"),
];

#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    events: u64,
    host_ns: u64,
}

struct Span {
    arm: Arm,
    role: Role,
    sim_ns: u64,
    host_start_ns: u64,
    host_end_ns: u64,
}

/// Aggregates and sampled raw spans of one traced window.
pub struct Tracer {
    origin: Instant,
    buckets: [[Bucket; ROLES.len()]; ARMS.len()],
    queue: Bucket,
    depth_sum: u64,
    depth_samples: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            buckets: Default::default(),
            queue: Bucket::default(),
            depth_sum: 0,
            depth_samples: 0,
            spans: Vec::new(),
        }
    }

    /// Books one event: `start → popped` is queue time, `popped → done`
    /// the arm's.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn book(
        &mut self,
        arm: Arm,
        role: Role,
        sim_ns: u64,
        start: Instant,
        popped: Instant,
        done: Instant,
        queue_len: usize,
    ) {
        self.queue.events += 1;
        self.queue.host_ns += (popped - start).as_nanos() as u64;
        let b = &mut self.buckets[arm as usize][role as usize];
        b.events += 1;
        b.host_ns += (done - popped).as_nanos() as u64;
        if self.queue.events.is_multiple_of(SPAN_EVERY) {
            self.depth_sum += queue_len as u64;
            self.depth_samples += 1;
            self.spans.push(Span {
                arm,
                role,
                sim_ns,
                host_start_ns: (popped - self.origin).as_nanos() as u64,
                host_end_ns: (done - self.origin).as_nanos() as u64,
            });
        }
    }

    /// Events the traced loop handled.
    pub fn events(&self) -> u64 {
        self.queue.events
    }

    fn triple(out: &mut Vec<(String, f64)>, prefix: &str, b: Bucket, window_ns: f64) {
        out.push((format!("{prefix}.events"), b.events as f64));
        out.push((
            format!("{prefix}.ns_per_event"),
            b.host_ns as f64 / b.events.max(1) as f64,
        ));
        out.push((format!("{prefix}.host_share"), b.host_ns as f64 / window_ns));
    }

    /// The per-layer host-time metrics; shares are of `window_s`, the
    /// traced measure window's host time.
    pub fn metrics(&self, window_s: f64) -> Vec<(String, f64)> {
        let window_ns = window_s * 1e9;
        let mut out = Vec::new();
        Self::triple(&mut out, "simnet.queue", self.queue, window_ns);
        out.push((
            "simnet.queue.depth_mean".into(),
            self.depth_sum as f64 / self.depth_samples.max(1) as f64,
        ));
        for (arm, name) in &ARMS[..4] {
            // The transport arms are reported over all roles.
            let total = self.buckets[*arm as usize]
                .iter()
                .fold(Bucket::default(), |a, b| Bucket {
                    events: a.events + b.events,
                    host_ns: a.host_ns + b.host_ns,
                });
            Self::triple(&mut out, &format!("tcpsim.{name}"), total, window_ns);
        }
        for (arm, name) in &ARMS[4..6] {
            for (role, role_name) in &ROLES[..3] {
                let b = self.buckets[*arm as usize][*role as usize];
                Self::triple(&mut out, &format!("apps.{name}.{role_name}"), b, window_ns);
            }
        }
        out
    }

    /// Queue share plus every (arm, role) share, fault events included:
    /// how much of the window the two clock reads per event account for.
    pub fn covered_share(&self, window_s: f64) -> f64 {
        let arms: u64 = self.buckets.iter().flatten().map(|b| b.host_ns).sum();
        (self.queue.host_ns + arms) as f64 / (window_s * 1e9)
    }

    /// The sampled raw spans as a JSON document.
    pub fn spans_json(&self, workload: &str) -> String {
        let mut s = format!(
            "{{\"workload\": \"{workload}\", \"one_span_per_events\": {SPAN_EVERY}, \"host_ns_origin\": \"tracer creation\", \"spans\": [\n"
        );
        for (i, sp) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "{{\"arm\": \"{}\", \"role\": \"{}\", \"sim_ns\": {}, \"host_start_ns\": {}, \"host_end_ns\": {}}}{sep}",
                ARMS[sp.arm as usize].1, ROLES[sp.role as usize].1, sp.sim_ns, sp.host_start_ns, sp.host_end_ns
            );
        }
        s.push_str("]}\n");
        s
    }
}
