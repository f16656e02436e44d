//! Calibrated CPU cost profiles.
//!
//! These profiles translate stack and application activity into simulated
//! CPU time. They are the substitution for the paper's physical testbed
//! (dual Xeon E5-2660 v4 machines): the *relative* weights — per-packet
//! vs. per-request vs. per-transmit costs — are what determine the shape
//! of every figure, and they are chosen so that
//!
//! * the server application thread (the single-threaded Redis analogue) is
//!   the system bottleneck for the Figure 4 workload,
//! * transmit-path work (descriptor + doorbell) is a substantial share of
//!   per-response cost, which is exactly the share Nagle batching
//!   amortizes under load, and
//! * client-side per-response costs are significant enough that a VM
//!   multiplier (Figure 2) can flip the batching outcome.
//!
//! Absolute values are in the right order of magnitude for commodity
//! servers (hundreds of ns per packet, µs-scale syscalls under spectre-era
//! mitigations) but are *not* fitted to the authors' hardware; the paper's
//! absolute kRPS numbers are not reproduction targets, its curve shapes
//! are (see EXPERIMENTS.md).

use littles::Nanos;
use tcpsim::CostConfig;

/// Application-level processing costs (charged by the apps themselves, on
/// top of the stack costs in [`CostConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppCosts {
    /// Server: fixed cost per processing pass (epoll return, dispatch) —
    /// the paper's amortizable per-batch cost β from Figure 1.
    pub(crate) server_batch_base: Nanos,
    /// Server: fixed cost to parse + execute one request (hash, insert).
    pub(crate) server_request_base: Nanos,
    /// Server: additional cost per KiB of request payload (copy, alloc).
    pub(crate) server_request_per_kib: Nanos,
    /// Client: fixed cost to generate one request.
    pub(crate) client_request_base: Nanos,
    /// Client: additional generation cost per KiB of value.
    pub(crate) client_request_per_kib: Nanos,
    /// Client: fixed cost to parse/process one response — the paper's `c`.
    pub(crate) client_response_base: Nanos,
    /// Client: additional processing cost per KiB of response payload.
    pub(crate) client_response_per_kib: Nanos,
    /// Proxy: fixed cost to parse and forward one command or response
    /// (no store access — route, re-frame, write).
    pub(crate) proxy_forward_base: Nanos,
    /// Proxy: additional forwarding cost per KiB of payload.
    pub(crate) proxy_forward_per_kib: Nanos,
}

impl Default for AppCosts {
    fn default() -> Self {
        AppCosts {
            server_batch_base: Nanos::from_nanos(1_000),
            server_request_base: Nanos::from_nanos(1_500),
            server_request_per_kib: Nanos::from_nanos(100),
            client_request_base: Nanos::from_nanos(500),
            client_request_per_kib: Nanos::from_nanos(30),
            client_response_base: Nanos::from_nanos(300),
            client_response_per_kib: Nanos::from_nanos(60),
            proxy_forward_base: Nanos::from_nanos(800),
            proxy_forward_per_kib: Nanos::from_nanos(40),
        }
    }
}

impl AppCosts {
    /// Server cost for a request with `payload` bytes.
    pub(crate) fn server_request(&self, payload: usize) -> Nanos {
        self.server_request_base
            + Nanos::from_nanos(self.server_request_per_kib.as_nanos() * payload as u64 / 1024)
    }

    /// Client cost to generate a request with `payload` bytes.
    pub(crate) fn client_request(&self, payload: usize) -> Nanos {
        self.client_request_base
            + Nanos::from_nanos(self.client_request_per_kib.as_nanos() * payload as u64 / 1024)
    }

    /// Client cost to process a response with `payload` bytes (the `c` of
    /// Figure 1).
    pub(crate) fn client_response(&self, payload: usize) -> Nanos {
        self.client_response_base
            + Nanos::from_nanos(self.client_response_per_kib.as_nanos() * payload as u64 / 1024)
    }

    /// Proxy cost to route one command or response with `payload` bytes.
    pub(crate) fn proxy_forward(&self, payload: usize) -> Nanos {
        self.proxy_forward_base
            + Nanos::from_nanos(self.proxy_forward_per_kib.as_nanos() * payload as u64 / 1024)
    }
}

/// A complete cost profile for one experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostProfile {
    /// Stack costs on the client host.
    pub client_stack: CostConfig,
    /// Stack costs on the server host.
    pub server_stack: CostConfig,
    /// Application costs.
    pub app: AppCosts,
    /// Multiplier applied to the client's *application* CPU context
    /// (1.0 = bare metal; > 1 models virtualization overhead, Figure 2).
    pub client_app_multiplier: f64,
}

impl Default for CostProfile {
    fn default() -> Self {
        Self::calibrated()
    }
}

impl CostProfile {
    /// The calibrated bare-metal profile used by the figure experiments.
    pub fn calibrated() -> Self {
        let client_stack = CostConfig {
            rx_per_delivery: Nanos::from_nanos(2_000),
            rx_per_packet: Nanos::from_nanos(150),
            rx_per_kib: Nanos::from_nanos(40),
            tx_per_segment: Nanos::from_nanos(500),
            tx_per_kib: Nanos::from_nanos(30),
            tx_doorbell: Nanos::from_nanos(500),
            tx_ack: Nanos::from_nanos(400),
            syscall: Nanos::from_nanos(400),
            app_wakeup: Nanos::from_nanos(1_000),
        };
        let server_stack = CostConfig {
            // The per-delivery (post-GRO skb) charge is the share of
            // receive cost that sender-side batching amortizes: under
            // backlog, Nagle + TSO fill 64 KiB trains, cutting deliveries
            // per request by ~6x.
            rx_per_delivery: Nanos::from_nanos(4_000),
            rx_per_packet: Nanos::from_nanos(150),
            rx_per_kib: Nanos::from_nanos(40),
            // Transmit descriptors + doorbell MMIO: the per-response app
            // cost that response batching moves off the app thread.
            tx_per_segment: Nanos::from_nanos(1_500),
            tx_per_kib: Nanos::from_nanos(30),
            tx_doorbell: Nanos::from_nanos(1_500),
            tx_ack: Nanos::from_nanos(600),
            syscall: Nanos::from_nanos(500),
            app_wakeup: Nanos::from_nanos(1_500),
        };
        CostProfile {
            client_stack,
            server_stack,
            app: AppCosts::default(),
            client_app_multiplier: 1.0,
        }
    }

    /// The two-tier shard profile: the shard's per-delivery receive work
    /// dominates (a storage node's deep softirq path), so a hot shard
    /// fed one small delivery per request saturates its receive context
    /// — while upstream batching that coalesces requests into shared
    /// deliveries amortizes almost all of it away. An idle shard has
    /// receive capacity to burn and loses nothing by skipping batching:
    /// the regime where per-upstream batching choices must genuinely
    /// differ per shard. (The application thread cannot rescue the
    /// receive path: its own per-pass overhead self-amortizes under
    /// backlog, per-delivery work does not.)
    pub fn shard_tier() -> Self {
        let mut p = Self::calibrated();
        p.server_stack.rx_per_delivery = Nanos::from_micros(16);
        p.app.server_request_base = Nanos::from_micros(4);
        p.app.server_batch_base = Nanos::from_micros(10);
        p
    }

    /// The Figure 2 VM profile: same hardware, but the client's guest work
    /// costs substantially more CPU (vm-exits, nested paging, virtio).
    pub(crate) fn vm_client() -> Self {
        CostProfile {
            client_app_multiplier: 2.5,
            ..Self::fig2_bare()
        }
    }

    /// The Figure 2 bare-metal profile: a heavier server application (the
    /// fixed 20 kRPS load sits at ~70% of one core) with a pronounced
    /// per-batch cost β, and a real per-response client cost `c` — the
    /// regime where Figure 1's tradeoff plays out at a fixed load.
    pub(crate) fn fig2_bare() -> Self {
        let mut p = Self::calibrated();
        p.app.server_batch_base = Nanos::from_micros(12);
        p.app.server_request_base = Nanos::from_micros(18);
        p.app.client_response_base = Nanos::from_micros(4);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_kib_scaling() {
        let a = AppCosts::default();
        let small = a.server_request(100);
        let large = a.server_request(16 * 1024);
        assert!(large > small);
        assert_eq!(
            (large - small).as_nanos(),
            a.server_request_per_kib.as_nanos() * 16
                - a.server_request_per_kib.as_nanos() * 100 / 1024
        );
    }

    #[test]
    fn vm_profile_only_changes_client_multiplier() {
        // The VM profile is the Figure 2 bare-metal profile plus the
        // client-side multiplier — nothing else may differ (Figure 2b:
        // the server's view is identical).
        let bare = CostProfile::fig2_bare();
        let vm = CostProfile::vm_client();
        assert_eq!(bare.server_stack, vm.server_stack);
        assert_eq!(bare.client_stack, vm.client_stack);
        assert_eq!(bare.app, vm.app);
        assert!(vm.client_app_multiplier > bare.client_app_multiplier);
    }

    #[test]
    fn calibration_invariants() {
        // The properties the figure shapes rely on (see module docs):
        let p = CostProfile::calibrated();
        // 1. Server per-request app cost (16 KiB SET) exceeds the client's,
        //    so the server is the bottleneck.
        let server_req = p.app.server_request(16 * 1024) + p.server_stack.syscall;
        let client_req = p.app.client_request(16 * 1024) + p.client_stack.syscall;
        assert!(server_req > client_req);
        // 2. The server's per-delivery receive cost is a large share of
        //    per-request softirq work — the share sender batching
        //    amortizes (a no-backlog request arrives as ~2 deliveries).
        let per_req_delivery = p.server_stack.rx_per_delivery * 2;
        let per_req_packets = p.server_stack.rx_per_packet * 12;
        assert!(per_req_delivery > per_req_packets);
    }
}
