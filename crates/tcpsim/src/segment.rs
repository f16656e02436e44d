//! TCP segments and header options.
//!
//! A [`Segment`] is what travels the simulated link. Payload bytes are
//! carried verbatim (the applications speak a real protocol over the
//! stream). A segment may be a TSO *super-segment* representing several
//! wire packets ([`Segment::wire_packets`]); link serialization and
//! receive-side per-packet costs are charged per wire packet, while
//! transmit-side per-segment costs are charged once — that asymmetry is
//! precisely the benefit of segmentation offload.
//!
//! Options model the header extensions the stack uses: RFC 7323
//! timestamps (for RTT sampling), RFC 2018 selective acknowledgments
//! ([`SackOption`]) and the paper's end-to-end queue-state exchange
//! ([`E2eOption`], §5 "Metadata Exchange": 36 bytes of counters in a TCP
//! option). The exchange and the SACK blocks share one option slot
//! ([`OptionSlot`]): a real header's 40 bytes of option space cannot hold
//! both beside timestamps either, so a segment that must carry SACK blocks
//! defers a due exchange to the next one. Option bytes count toward the
//! wire length so the overhead benchmarks can quantify the exchange's cost.

use crate::payload::Payload;
use littles::wire::{WireExchange, EXCHANGE_WIRE_BYTES};

use crate::queues::Unit;
use crate::seq::SeqNum;

/// Ethernet + IP + TCP fixed header bytes per wire packet (14 + 20 + 20),
/// plus minimal framing overhead.
pub(crate) const HEADER_BYTES: usize = 58;

/// Wire bytes of the timestamps option (10, padded to 12).
pub(crate) const TIMESTAMP_OPTION_BYTES: usize = 12;

/// Wire bytes of the end-to-end exchange option carrying `n` units'
/// counters: kind + length + unit bitmap + epoch tag + 36 bytes per unit,
/// padded to a 4-byte boundary. One unit — the paper's configuration — is
/// 40 bytes. The epoch byte lives in what used to be padding: `4 + 36n` is
/// already a multiple of 4, so tagging costs zero extra wire bytes at any
/// unit count.
pub const fn e2e_option_bytes(units: usize) -> usize {
    (2 + 1 + 1 + EXCHANGE_WIRE_BYTES * units).div_ceil(4) * 4
}

/// Wire bytes of the single-unit exchange option (the paper's 36 bytes of
/// counters plus option framing).
pub const E2E_OPTION_BYTES: usize = e2e_option_bytes(1);

/// Most SACK blocks one option carries beside timestamps (RFC 2018 §3).
pub(crate) const MAX_SACK_BLOCKS: usize = 3;

/// Wire bytes of a SACK option carrying `blocks` blocks: kind + length +
/// 8 bytes per block, padded to a 4-byte boundary.
pub(crate) const fn sack_option_bytes(blocks: usize) -> usize {
    (2 + 8 * blocks).div_ceil(4) * 4
}

/// Wire bytes of the application-hint option: kind + length + one 12-byte
/// queue snapshot, padded to a 4-byte boundary.
pub const HINT_OPTION_BYTES: usize = 16;

/// Identifies one TCP connection (both endpoints use the same id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

/// TCP header flags (the subset the simulator uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags {
    /// Connection request.
    pub(crate) syn: bool,
    /// Acknowledgment field is valid.
    pub(crate) ack: bool,
}

/// RFC 7323 timestamps option.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TimestampOption {
    /// Sender's clock at transmit (ns truncated to 32 bits in simulation).
    pub(crate) tsval: u32,
    /// Echo of the most recent tsval received from the peer.
    pub(crate) tsecr: u32,
}

/// The paper's end-to-end queue-state exchange option.
///
/// The paper exchanges counters in a single unit (36 bytes); this
/// implementation can carry several units side by side so one experiment
/// run can compare the §3.3 bridging strategies. Wire size grows
/// accordingly and is accounted per unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct E2eOption {
    /// Per-unit exchanges, indexed by [`Unit::index`].
    pub(crate) exchanges: [Option<WireExchange>; 3],
    /// Counter-state generation of the sharing endpoint (one tag covers
    /// every unit — they all reset together when the endpoint restarts).
    pub(crate) epoch: u8,
}

impl E2eOption {
    /// An option carrying a single unit's counters (the exchange's own
    /// epoch stamps the option).
    pub fn single(unit: Unit, exchange: WireExchange) -> Self {
        let mut opt = E2eOption {
            epoch: exchange.epoch,
            ..E2eOption::default()
        };
        opt.exchanges[unit.index()] = Some(exchange);
        opt
    }

    /// Number of units carried.
    pub(crate) fn count(&self) -> usize {
        self.exchanges.iter().flatten().count()
    }
}

/// One SACK block: the receiver holds the sequence range `[left, right)`
/// above its cumulative ACK.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct SackBlock {
    /// First sequence number held.
    pub(crate) left: SeqNum,
    /// One past the last sequence number held.
    pub(crate) right: SeqNum,
}

/// The RFC 2018 selective-acknowledgment option: up to
/// `MAX_SACK_BLOCKS` blocks of out-of-order data the receiver holds, the
/// block holding the latest arrival first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SackOption {
    blocks: [SackBlock; MAX_SACK_BLOCKS],
    len: u8,
}

impl SackOption {
    /// Appends a block; false (and nothing changes) once the option is full.
    pub(crate) fn push(&mut self, block: SackBlock) -> bool {
        let Some(slot) = self.blocks.get_mut(usize::from(self.len)) else {
            return false;
        };
        *slot = block;
        self.len += 1;
        true
    }

    /// The blocks carried, in wire order.
    pub(crate) fn blocks(&self) -> &[SackBlock] {
        &self.blocks[..usize::from(self.len)]
    }
}

/// What fills the option slot the end-to-end exchange shares with SACK.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptionSlot {
    /// End-to-end queue-state exchange (attached occasionally; see
    /// [`ExchangeConfig`](crate::config::ExchangeConfig)).
    E2e(E2eOption),
    /// Selective acknowledgment: sent on every segment while the receiver
    /// holds out-of-order data, pre-empting a due exchange.
    Sack(SackOption),
}

/// The cooperative-application hint option (paper §3.3): a userspace-
/// maintained queue state for the single logical request queue, passed to
/// `send` via ancillary data and forwarded to the peer. When present, the
/// peer can estimate end-to-end performance from this one queue alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HintOption {
    /// The application's request-queue snapshot.
    pub(crate) snapshot: littles::wire::WireSnapshot,
}

/// Header options attached to a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Options {
    /// RTT-sampling timestamps.
    pub(crate) timestamps: Option<TimestampOption>,
    /// The end-to-end exchange or SACK blocks, whichever this segment
    /// carries.
    pub slot: Option<OptionSlot>,
    /// Application request-queue hint (client side only).
    pub(crate) hint: Option<HintOption>,
}

impl Options {
    /// The end-to-end exchange, if this segment carries one.
    pub(crate) fn e2e(&self) -> Option<&E2eOption> {
        match &self.slot {
            Some(OptionSlot::E2e(e2e)) => Some(e2e),
            _ => None,
        }
    }

    /// The end-to-end exchange, mutably (fault injection garbles it).
    pub(crate) fn e2e_mut(&mut self) -> Option<&mut E2eOption> {
        match &mut self.slot {
            Some(OptionSlot::E2e(e2e)) => Some(e2e),
            _ => None,
        }
    }

    /// The SACK blocks, if this segment carries any.
    pub fn sack(&self) -> Option<&SackOption> {
        match &self.slot {
            Some(OptionSlot::Sack(sack)) => Some(sack),
            _ => None,
        }
    }

    /// Wire bytes these options occupy in each packet's header.
    pub(crate) fn wire_bytes(&self) -> usize {
        let mut n = 0;
        if self.timestamps.is_some() {
            n += TIMESTAMP_OPTION_BYTES;
        }
        match &self.slot {
            Some(OptionSlot::E2e(e2e)) => n += e2e_option_bytes(e2e.count()),
            Some(OptionSlot::Sack(sack)) => n += sack_option_bytes(sack.blocks().len()),
            None => {}
        }
        if self.hint.is_some() {
            n += HINT_OPTION_BYTES;
        }
        n
    }
}

/// One TCP segment (possibly a TSO super-segment).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// The connection this segment belongs to.
    pub(crate) flow: FlowId,
    /// Sequence number of the first payload byte.
    pub seq: SeqNum,
    /// Cumulative acknowledgment (valid when `flags.ack`).
    pub(crate) ack: SeqNum,
    /// Header flags.
    pub(crate) flags: Flags,
    /// Advertised receive window in bytes.
    pub(crate) window: u32,
    /// Payload carried by this segment.
    pub payload: Payload,
    /// Absolute stream offsets (in bytes, from stream start) at which
    /// application messages *end* within this segment's payload. This is
    /// simulator metadata standing in for the kernel marking send-call
    /// boundaries on skbs (§3.3's system-call approximation); it occupies
    /// no wire bytes.
    pub(crate) boundaries: Vec<u64>,
    /// Header options.
    pub options: Options,
    /// Number of wire packets this segment represents (1 unless TSO
    /// aggregated).
    pub wire_packets: u32,
}

impl Segment {
    /// A bare control segment (SYN or ACK) with no payload.
    pub fn control(flow: FlowId, seq: SeqNum, ack: SeqNum, flags: Flags, window: u32) -> Self {
        Segment {
            flow,
            seq,
            ack,
            flags,
            window,
            payload: Payload::new(),
            boundaries: Vec::new(),
            options: Options::default(),
            wire_packets: 1,
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// True when the segment carries no payload.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// Sequence number one past the last byte this segment occupies
    /// (a SYN consumes one sequence number).
    #[cfg(test)]
    fn end_seq(&self) -> SeqNum {
        // Payload length is bounded by the u32 send-sequence space.
        let consumed = self.payload.len() as u32;
        self.seq + consumed + u32::from(self.flags.syn)
    }

    /// Total bytes on the wire: per-packet headers (with options) plus
    /// payload.
    pub(crate) fn wire_len(&self) -> usize {
        (HEADER_BYTES + self.options.wire_bytes()) * self.wire_packets as usize
            + self.payload.len()
    }

    /// True if this is a pure acknowledgment (no payload, no SYN).
    pub(crate) fn is_pure_ack(&self) -> bool {
        self.is_empty() && self.flags.ack && !self.flags.syn
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_segment(len: usize, wire_packets: u32) -> Segment {
        Segment {
            flow: FlowId(1),
            seq: SeqNum::new(100),
            ack: SeqNum::new(0),
            flags: Flags {
                ack: true,
                ..Flags::default()
            },
            window: 65_535,
            payload: Payload::from(vec![0u8; len]),
            boundaries: Vec::new(),
            options: Options::default(),
            wire_packets,
        }
    }

    #[test]
    fn control_segment_is_empty() {
        let s = Segment::control(
            FlowId(1),
            SeqNum::new(0),
            SeqNum::new(0),
            Flags {
                syn: true,
                ..Flags::default()
            },
            65_535,
        );
        assert!(s.is_empty());
        assert_eq!(s.wire_len(), HEADER_BYTES);
        assert!(!s.is_pure_ack());
    }

    #[test]
    fn end_seq_counts_payload() {
        let s = data_segment(100, 1);
        assert_eq!(s.end_seq(), SeqNum::new(200));
    }

    #[test]
    fn end_seq_counts_syn() {
        let mut s = Segment::control(
            FlowId(1),
            SeqNum::new(5),
            SeqNum::new(0),
            Flags {
                syn: true,
                ..Flags::default()
            },
            0,
        );
        assert_eq!(s.end_seq(), SeqNum::new(6));
        s.flags.syn = false;
        assert_eq!(s.end_seq(), SeqNum::new(5));
    }

    #[test]
    fn tso_super_segment_charges_headers_per_packet() {
        let one = data_segment(1448, 1);
        let tso = data_segment(1448 * 4, 4);
        assert_eq!(tso.wire_len(), one.wire_len() * 4);
    }

    #[test]
    fn options_add_wire_bytes() {
        let mut s = data_segment(10, 1);
        let base = s.wire_len();
        s.options.timestamps = Some(TimestampOption { tsval: 1, tsecr: 2 });
        assert_eq!(s.wire_len(), base + TIMESTAMP_OPTION_BYTES);
        s.options.slot = Some(OptionSlot::E2e(E2eOption::single(Unit::Bytes, WireExchange::default())));
        assert_eq!(
            s.wire_len(),
            base + TIMESTAMP_OPTION_BYTES + E2E_OPTION_BYTES
        );
    }

    #[test]
    fn sack_option_counts_2_plus_8n_padded() {
        assert_eq!([1, 2, 3].map(sack_option_bytes), [12, 20, 28]);
        let mut sack = SackOption::default();
        let block = SackBlock { left: SeqNum::new(10), right: SeqNum::new(20) };
        for _ in 0..MAX_SACK_BLOCKS {
            assert!(sack.push(block));
        }
        assert!(!sack.push(block), "a fourth block does not fit beside timestamps");
        let mut s = data_segment(10, 2);
        let base = s.wire_len();
        s.options.slot = Some(OptionSlot::Sack(sack));
        assert_eq!(s.wire_len(), base + 2 * 28, "charged per wire packet");
        assert_eq!(s.options.sack().map(|o| o.blocks().len()), Some(3));
        assert!(s.options.e2e().is_none());
    }

    #[test]
    fn e2e_option_is_40_bytes() {
        // 2 (kind+len) + 1 (unit bitmap) + 1 (epoch tag) + 36 (counters)
        // = 40 exactly — the epoch byte occupies what used to be padding,
        // so the option costs the same wire bytes it did untagged.
        assert_eq!(E2E_OPTION_BYTES, 40);
        assert_eq!(e2e_option_bytes(3), 112);
    }

    #[test]
    fn pure_ack_detection() {
        let mut s = data_segment(0, 1);
        assert!(s.is_pure_ack());
        s.flags.syn = true;
        assert!(!s.is_pure_ack());
    }
}
