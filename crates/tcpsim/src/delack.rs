//! Delayed-acknowledgment state machine (RFC 1122 §4.2.3.2).
//!
//! ACKs are delayed hoping to (a) piggyback on reverse-direction data and
//! (b) acknowledge every second full-sized segment with one ACK. The
//! machine answers one question per received data segment: acknowledge
//! *now*, or arm (keep) a timer? The paper treats the set of
//! received-but-unacked messages as a queue (*ackdelay*) whose Little's-law
//! delay enters the end-to-end latency decomposition with a *negative*
//! sign — see `e2e-core`.

use littles::Nanos;

use crate::config::DelAckConfig;

/// Acknowledge immediately once this many full-sized segments are pending
/// an ACK (RFC 1122's "every second segment").
const ACK_EVERY_SEGMENTS: u32 = 2;

/// What the receive path should do about acknowledging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckDecision {
    /// Send an ACK immediately (threshold reached or quick-ack forced).
    SendNow,
    /// Delay: arm the delack timer for the given delay (only returned when
    /// no timer is already pending).
    Arm(Nanos),
    /// Delay: a timer is already pending, nothing to do.
    AlreadyArmed,
}

/// Runtime acknowledgment mode — the delayed-ACK knob of the control
/// plane. Unlike [`DelAckConfig`], which is frozen at socket
/// construction, the mode can be switched while the connection runs
/// (via `TcpSocket::apply`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckMode {
    /// Acknowledge every data segment immediately (`TCP_QUICKACK`-style):
    /// the ackdelay queue stays empty at the cost of more pure-ACK
    /// packets.
    Quick,
    /// Classic delayed ACKs: one ACK per two full segments, bounded by
    /// the given timeout.
    Delayed {
        /// Upper bound on how long a pending ACK may wait.
        timeout: Nanos,
    },
}

/// What the caller must do after a runtime [`AckMode`] switch so that no
/// pending ACK is dropped and no stale timer fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckSwitch {
    /// Nothing pending: the switch is a pure state change.
    Nothing,
    /// A pending delayed ACK must be emitted *now* (and any armed delack
    /// timer cancelled): switching to quick-ack may not silently drop
    /// the acknowledgment the peer is still waiting for.
    Flush,
    /// The pending delayed ACK must be re-armed with the new timeout,
    /// measured from the switch instant — deterministic regardless of
    /// how long the old timer had been running.
    Rearm(Nanos),
}

/// Per-connection delayed-ACK state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelAck {
    config: DelAckConfig,
    /// Runtime acknowledgment mode (initially derived from `config`).
    mode: AckMode,
    /// Full-sized segments received since the last ACK was sent.
    pending_full: u32,
    /// Any segments (of any size) pending acknowledgment?
    pending_any: bool,
    /// Is the delack timer armed (as far as this machine knows)?
    timer_armed: bool,
    /// Statistics: delack timers that actually fired.
    timeout_acks: u64,
    /// Statistics: ACKs that piggybacked on outgoing data.
    piggybacked_acks: u64,
}

impl DelAck {
    /// Creates an idle machine.
    pub fn new(config: DelAckConfig) -> Self {
        let mode = if config.quick {
            AckMode::Quick
        } else {
            AckMode::Delayed {
                timeout: config.timeout,
            }
        };
        DelAck {
            config,
            mode,
            pending_full: 0,
            pending_any: false,
            timer_armed: false,
            timeout_acks: 0,
            piggybacked_acks: 0,
        }
    }

    /// Called for each received in-order data segment. `full_sized` is
    /// true when the segment carries ≥ 1 MSS of payload (TSO
    /// super-segments count their wire packets via `packets`).
    /// `force_quick` requests an immediate ACK (out-of-order data, window
    /// pressure).
    pub fn on_data(&mut self, full_sized: bool, packets: u32, force_quick: bool) -> AckDecision {
        self.pending_any = true;
        if full_sized {
            self.pending_full += packets;
        }
        let quick = matches!(self.mode, AckMode::Quick);
        if force_quick || quick || self.pending_full >= ACK_EVERY_SEGMENTS {
            self.note_ack_sent_inner();
            AckDecision::SendNow
        } else if self.timer_armed {
            AckDecision::AlreadyArmed
        } else {
            self.timer_armed = true;
            AckDecision::Arm(self.timeout())
        }
    }

    /// The effective delack timeout under the current mode.
    fn timeout(&self) -> Nanos {
        match self.mode {
            AckMode::Delayed { timeout } => timeout,
            AckMode::Quick => self.config.timeout,
        }
    }

    /// The current runtime acknowledgment mode.
    pub fn mode(&self) -> AckMode {
        self.mode
    }

    /// Switches the runtime acknowledgment mode. The returned
    /// [`AckSwitch`] tells the socket how to dispose of any pending
    /// delayed ACK: switching to [`AckMode::Quick`] with data awaiting
    /// acknowledgment must flush it immediately (never drop it), and
    /// switching timeouts with a timer armed must re-arm from the switch
    /// instant so the trace is deterministic.
    pub(crate) fn switch_mode(&mut self, mode: AckMode) -> AckSwitch {
        if mode == self.mode {
            return AckSwitch::Nothing;
        }
        self.mode = mode;
        match mode {
            AckMode::Quick => {
                if self.pending_any {
                    self.note_ack_sent_inner();
                    AckSwitch::Flush
                } else {
                    AckSwitch::Nothing
                }
            }
            AckMode::Delayed { timeout } => {
                if self.pending_any {
                    self.timer_armed = true;
                    AckSwitch::Rearm(timeout)
                } else {
                    AckSwitch::Nothing
                }
            }
        }
    }

    /// The delack timer fired. Returns true if an ACK must be sent (it may
    /// have been cleared by a piggyback racing the timer).
    pub fn on_timer(&mut self) -> bool {
        self.timer_armed = false;
        if self.pending_any {
            self.timeout_acks += 1;
            self.note_ack_sent_inner();
            true
        } else {
            false
        }
    }

    /// An ACK is riding an outgoing data segment (piggyback). Returns true
    /// if this cleared a pending delayed ACK (caller should cancel the
    /// timer).
    pub fn on_piggyback(&mut self) -> bool {
        let had = self.pending_any;
        if had {
            self.piggybacked_acks += 1;
        }
        self.note_ack_sent_inner()
    }

    fn note_ack_sent_inner(&mut self) -> bool {
        let timer_was_armed = self.timer_armed;
        self.pending_full = 0;
        self.pending_any = false;
        self.timer_armed = false;
        timer_was_armed
    }

    /// Whether any received data awaits acknowledgment.
    pub fn has_pending(&self) -> bool {
        self.pending_any
    }

    /// Whether the machine believes its timer is armed.
    pub fn timer_armed(&self) -> bool {
        self.timer_armed
    }

    /// ACKs sent because the delack timer expired.
    pub fn timeout_acks(&self) -> u64 {
        self.timeout_acks
    }

    /// ACKs that rode outgoing data.
    pub fn piggybacked_acks(&self) -> u64 {
        self.piggybacked_acks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn da() -> DelAck {
        DelAck::new(DelAckConfig::default())
    }

    #[test]
    fn first_small_segment_arms_timer() {
        let mut d = da();
        assert_eq!(
            d.on_data(false, 1, false),
            AckDecision::Arm(Nanos::from_millis(40))
        );
        assert!(d.has_pending());
        assert!(d.timer_armed());
    }

    #[test]
    fn second_full_segment_acks_immediately() {
        let mut d = da();
        assert!(matches!(d.on_data(true, 1, false), AckDecision::Arm(_)));
        assert_eq!(d.on_data(true, 1, false), AckDecision::SendNow);
        assert!(!d.has_pending());
        assert!(!d.timer_armed());
    }

    #[test]
    fn tso_packets_count_toward_threshold() {
        let mut d = da();
        // One super-segment worth 4 wire packets crosses the threshold.
        assert_eq!(d.on_data(true, 4, false), AckDecision::SendNow);
    }

    #[test]
    fn small_segments_never_hit_threshold() {
        let mut d = da();
        assert!(matches!(d.on_data(false, 1, false), AckDecision::Arm(_)));
        for _ in 0..10 {
            assert_eq!(d.on_data(false, 1, false), AckDecision::AlreadyArmed);
        }
    }

    #[test]
    fn force_quick_overrides_delay() {
        let mut d = da();
        assert_eq!(d.on_data(false, 1, true), AckDecision::SendNow);
    }

    #[test]
    fn timer_fire_sends_pending_ack() {
        let mut d = da();
        d.on_data(false, 1, false);
        assert!(d.on_timer());
        assert_eq!(d.timeout_acks(), 1);
        assert!(!d.has_pending());
    }

    #[test]
    fn timer_fire_without_pending_is_noop() {
        let mut d = da();
        assert!(!d.on_timer());
        assert_eq!(d.timeout_acks(), 0);
    }

    #[test]
    fn piggyback_clears_pending_and_reports_armed_timer() {
        let mut d = da();
        d.on_data(false, 1, false);
        assert!(d.on_piggyback(), "timer was armed, caller must cancel");
        assert!(!d.has_pending());
        assert_eq!(d.piggybacked_acks(), 1);
        // Subsequent timer fire must not send a stale ACK.
        assert!(!d.on_timer());
    }

    #[test]
    fn quick_mode_acks_every_segment_immediately() {
        let mut d = da();
        assert_eq!(d.switch_mode(AckMode::Quick), AckSwitch::Nothing);
        assert_eq!(d.on_data(false, 1, false), AckDecision::SendNow);
        assert_eq!(d.on_data(true, 1, false), AckDecision::SendNow);
        assert!(!d.has_pending());
    }

    #[test]
    fn switch_to_quick_with_pending_flushes() {
        let mut d = da();
        assert!(matches!(d.on_data(false, 1, false), AckDecision::Arm(_)));
        assert_eq!(d.switch_mode(AckMode::Quick), AckSwitch::Flush);
        assert!(!d.has_pending());
        assert!(!d.timer_armed());
        // The stale timer firing later must not emit a spurious ACK.
        assert!(!d.on_timer());
    }

    #[test]
    fn switch_timeout_with_pending_rearms() {
        let mut d = da();
        assert!(matches!(d.on_data(false, 1, false), AckDecision::Arm(_)));
        let t = Nanos::from_millis(5);
        assert_eq!(
            d.switch_mode(AckMode::Delayed { timeout: t }),
            AckSwitch::Rearm(t)
        );
        assert!(d.has_pending());
        assert!(d.timer_armed());
        // New data under the new mode arms with the new timeout.
        let mut d2 = da();
        d2.switch_mode(AckMode::Delayed { timeout: t });
        assert_eq!(d2.on_data(false, 1, false), AckDecision::Arm(t));
    }

    #[test]
    fn switch_without_pending_is_pure_state_change() {
        let mut d = da();
        assert_eq!(d.switch_mode(AckMode::Quick), AckSwitch::Nothing);
        assert_eq!(
            d.switch_mode(AckMode::Delayed {
                timeout: Nanos::from_millis(40)
            }),
            AckSwitch::Nothing
        );
        assert!(matches!(d.on_data(false, 1, false), AckDecision::Arm(_)));
    }

    #[test]
    fn redundant_switch_is_noop() {
        let mut d = da();
        d.on_data(false, 1, false);
        assert_eq!(
            d.switch_mode(AckMode::Delayed {
                timeout: Nanos::from_millis(40)
            }),
            AckSwitch::Nothing,
            "same mode: pending ACK undisturbed"
        );
        assert!(d.has_pending());
    }

    #[test]
    fn quick_config_starts_in_quick_mode() {
        let mut d = DelAck::new(DelAckConfig {
            timeout: Nanos::from_millis(40),
            quick: true,
        });
        assert_eq!(d.mode(), AckMode::Quick);
        assert_eq!(d.on_data(false, 1, false), AckDecision::SendNow);
    }
}
