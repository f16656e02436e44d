//! The connection-wide control block.

use crate::config::TcpConfig;
use crate::segment::FlowId;
use crate::seq::SeqNum;

use super::TcpState;

/// What both directions of a connection read and neither owns. The owner
/// reads the fields; only [`transition`](Self::transition) and
/// [`set_epoch`](Self::set_epoch) write them.
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

/// What moves the connection state: the handshake completing, the
/// endpoint crashing, our close, the peer's ACK of our FIN, and the peer's
/// FIN arriving in order.
#[derive(Debug, Clone, Copy)]
pub(super) enum TcbEvent {
    Handshake,
    Crash,
    Close,
    FinAcked,
    PeerFin,
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

    pub(super) fn set_epoch(&mut self, epoch: u8) {
        self.epoch = epoch;
    }

    /// The RFC 793 transitions this stack uses; returns whether `event`
    /// moved the state (an event a state does not expect is ignored).
    pub(super) fn transition(&mut self, event: TcbEvent) -> bool {
        use TcpState::*;
        self.state = match (event, self.state) {
            (TcbEvent::Handshake, _) => Established,
            (TcbEvent::Crash, _) => Closed,
            (TcbEvent::Close, Established) => FinWait1,
            (TcbEvent::Close, CloseWait) => LastAck,
            (TcbEvent::FinAcked, FinWait1) => FinWait2,
            (TcbEvent::FinAcked, LastAck) => Closed,
            (TcbEvent::PeerFin, Established) => CloseWait,
            (TcbEvent::PeerFin, FinWait1 | FinWait2) => Closed,
            _ => return false,
        };
        true
    }
}
