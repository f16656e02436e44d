//! The connection-wide control block.

use crate::config::TcpConfig;
use crate::segment::FlowId;
use crate::seq::SeqNum;

use super::TcpState;

/// What both directions of a connection read and neither owns: a plain
/// record the owner writes. It moves `state` twice at most (the handshake
/// completing writes `Established`, the endpoint crashing `Closed`) and
/// sets `epoch` once, at registration.
#[derive(Debug, Clone)]
pub(super) struct Tcb {
    pub(super) flow: FlowId,
    pub(super) config: TcpConfig,
    pub(super) state: TcpState,
    /// Counter-state generation stamped on outgoing exchanges. Assigned by
    /// the host at registration (a per-host creation counter), so a socket
    /// replacing a crashed one carries a different epoch and the peer's
    /// validator detects the counter reset instead of computing a gigantic
    /// wrapping delta.
    pub(super) epoch: u8,
}

impl Tcb {
    /// Initial send sequence number (fixed: the simulator does not model
    /// ISN randomization attacks). The peer's is not kept: the receive
    /// side's ACK cursor starts one past it.
    pub(super) const ISS: SeqNum = SeqNum::new(1_000);

    /// The sequence number of stream byte `offset` (the SYN took `ISS`).
    pub(super) fn seq(offset: u64) -> SeqNum {
        Self::ISS.advance(1 + offset)
    }
}
