//! The uniform knob actuation surface.
//!
//! Every runtime-tunable batching mechanism is addressed through one
//! [`KnobSetting`] applied via `TcpSocket::apply` (socket level) or
//! `HostCtx::apply` (simulation level, which also re-runs the transmit
//! path so a changed gate takes effect immediately). Routing all
//! actuation through one path lets the control plane drive any knob
//! uniformly and lets the invariant gates check that no actuation can
//! strand a pending ACK or starve the sender. The socket has no per-knob
//! setter, so `apply` is the only way in.

use crate::delack::AckMode;

/// One runtime setting for one batching knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnobSetting {
    /// The dynamic-Nagle switch: hold sub-MSS tails while data is in
    /// flight (only meaningful under `NagleMode::Dynamic`).
    Nagle(bool),
    /// The delayed-ACK mode: quick-ack vs delayed with a runtime
    /// timeout. Switching with an ACK pending flushes or re-arms it
    /// deterministically (see `crate::delack::AckSwitch`).
    DelAck(AckMode),
    /// The send-side cork/coalesce limit in bytes: a segment may wait
    /// for up to this many bytes to accumulate while earlier data is in
    /// flight. `0` disables the limit. This is the actuator the AIMD
    /// gradual-batching controller drives.
    CorkLimit(u64),
}

impl KnobSetting {
    /// A short stable name for the knob this setting addresses (for
    /// logs and per-knob counters).
    pub fn knob_name(&self) -> &'static str {
        match self {
            KnobSetting::Nagle(_) => "nagle",
            KnobSetting::DelAck(_) => "delack",
            KnobSetting::CorkLimit(_) => "cork",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_names_are_stable() {
        assert_eq!(KnobSetting::Nagle(true).knob_name(), "nagle");
        assert_eq!(KnobSetting::DelAck(AckMode::Quick).knob_name(), "delack");
        assert_eq!(KnobSetting::CorkLimit(0).knob_name(), "cork");
    }
}
