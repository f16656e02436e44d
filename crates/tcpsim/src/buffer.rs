//! Socket send and receive buffers.
//!
//! Buffers work in 64-bit *stream offsets* (bytes since connection start);
//! the socket maps these to wire sequence numbers. This keeps buffer logic
//! free of 32-bit wrap concerns, exactly like the kernel's separation of
//! `skb` byte queues from sequence arithmetic.
//!
//! Both buffers carry *message boundaries* — stream offsets at which an
//! application `send` call (or an explicit hint) ended — so the instrumented
//! queues can count in message units as well as bytes (paper §3.3).
//!
//! Internally both halves store [`Payload`] chunks rather than flat byte
//! deques, and neither copies a byte an application handed it or a peer
//! delivered. `push` keeps the application's buffer itself (the accepted
//! prefix is a sub-view when the buffer is full), and segmenting it into
//! MSS-sized transmissions is O(1) [`Payload::slice`] sub-views. On the
//! receiving side each in-order segment is a view of the sender's buffer,
//! and a view that continues the previous one in the same allocation joins
//! it ([`Payload::try_append`]), so a 16 KiB request that arrives as twelve
//! segments is one ready chunk again. `read` hands the ready views out as
//! they are. The one copy left is a transmission that spans two pushed
//! chunks, which is gathered into a fresh buffer.

use std::collections::{BTreeMap, VecDeque};

use crate::payload::Payload;
use crate::segment::MAX_SACK_BLOCKS;

/// Gathers stream bytes `[from, from + n)` out of a contiguous chunk list
/// (each entry is `(start_offset, bytes)`). A range inside one chunk is an
/// O(1) sub-view; a spanning range concatenates slice-wise (`memcpy`).
// hot-path: runs per emitted segment and per application read
fn gather(chunks: &VecDeque<(u64, Payload)>, from: u64, n: usize) -> Payload {
    if n == 0 {
        return Payload::new();
    }
    let end = from + n as u64;
    // First chunk overlapping `from`: chunks are sorted and contiguous, so
    // binary-search the start offsets.
    let first = chunks.partition_point(|&(start, ref p)| start + p.len() as u64 <= from);
    let (start, p) = &chunks[first];
    let skip = (from - start) as usize;
    if start + p.len() as u64 >= end {
        return p.slice(skip, skip + n);
    }
    let mut out = Vec::with_capacity(n);
    out.extend_from_slice(&p[skip..]);
    for (_, p) in chunks.iter().skip(first + 1) {
        let take = (n - out.len()).min(p.len());
        out.extend_from_slice(&p[..take]);
        if out.len() == n {
            break;
        }
    }
    debug_assert_eq!(out.len(), n, "gather ran past the chunk list");
    out.into()
}

/// The sending half: bytes accepted from the application, split into
/// unacknowledged (`una..nxt`) and unsent (`nxt..end`) regions.
#[derive(Debug, Clone)]
pub struct SendBuffer {
    /// First unacknowledged stream offset.
    una: u64,
    /// Next stream offset to transmit.
    nxt: u64,
    /// End of buffered data.
    end: u64,
    /// Buffered chunks covering `[una, end)` (the front chunk may extend
    /// below `una` until it is fully acknowledged), sorted and contiguous.
    chunks: VecDeque<(u64, Payload)>,
    /// Capacity limit on `end − una`.
    capacity: usize,
    /// Message-end offsets not yet fully acknowledged.
    boundaries: VecDeque<u64>,
}

impl SendBuffer {
    /// Creates an empty buffer with the given byte capacity.
    pub fn new(capacity: usize) -> Self {
        SendBuffer {
            una: 0,
            nxt: 0,
            end: 0,
            chunks: VecDeque::new(),
            capacity,
            boundaries: VecDeque::new(),
        }
    }

    /// Appends as much of `bytes` as capacity allows; returns the number of
    /// bytes accepted. The payload is kept as it is, never copied: all of
    /// it when it fits, else the accepted prefix as a sub-view.
    pub fn push(&mut self, bytes: Payload) -> usize {
        let room = self.capacity.saturating_sub((self.end - self.una) as usize);
        let n = bytes.len().min(room);
        if n > 0 {
            let kept = if n == bytes.len() { bytes } else { bytes.slice(0, n) };
            self.chunks.push_back((self.end, kept));
            self.end += n as u64;
        }
        n
    }

    /// Records that an application message ends at the current write
    /// position. No-op if no data is buffered at all (a zero-length send).
    pub fn mark_boundary(&mut self) {
        if self.boundaries.back() != Some(&self.end) && self.end > self.una {
            self.boundaries.push_back(self.end);
        }
    }

    /// First unacknowledged offset.
    pub(crate) fn una(&self) -> u64 {
        self.una
    }

    /// Next offset to send.
    pub(crate) fn nxt(&self) -> u64 {
        self.nxt
    }

    /// Bytes buffered but not yet transmitted.
    pub fn unsent(&self) -> usize {
        (self.end - self.nxt) as usize
    }

    /// Bytes transmitted but not yet acknowledged.
    pub(crate) fn in_flight(&self) -> usize {
        (self.nxt - self.una) as usize
    }

    /// Total buffered bytes (`sk_wmem_queued` analogue).
    pub(crate) fn buffered(&self) -> usize {
        (self.end - self.una) as usize
    }

    /// Remaining capacity for `push`.
    pub(crate) fn room(&self) -> usize {
        self.capacity.saturating_sub(self.buffered())
    }

    /// Views the next up-to-`max` unsent bytes (without consuming)
    /// together with the message boundaries they contain, and advances
    /// `nxt`. Returns `None` when nothing is unsent or `max == 0`.
    // hot-path: runs per emitted segment; copy-free within one chunk
    pub fn take_chunk(&mut self, max: usize) -> Option<SendChunk> {
        let n = self.unsent().min(max);
        if n == 0 {
            return None;
        }
        let start = self.nxt;
        let bytes = gather(&self.chunks, start, n);
        self.nxt += n as u64;
        let boundaries = self.boundaries_in(start, self.nxt);
        Some(SendChunk {
            offset: start,
            bytes,
            boundaries,
        })
    }

    /// Re-reads already-transmitted bytes `[offset, offset+len)` for
    /// retransmission (they remain buffered until acknowledged).
    ///
    /// # Panics
    ///
    /// Panics if the range is not fully within `[una, nxt)`.
    pub(crate) fn retransmit_chunk(&self, offset: u64, len: usize) -> SendChunk {
        assert!(
            offset >= self.una && offset + len as u64 <= self.nxt,
            "retransmit range [{offset}, +{len}) outside [{}, {})",
            self.una,
            self.nxt
        );
        let bytes = gather(&self.chunks, offset, len);
        let boundaries = self.boundaries_in(offset, offset + len as u64);
        SendChunk {
            offset,
            bytes,
            boundaries,
        }
    }

    /// The message boundaries in `(from, to]`. The deque is sorted (pushed
    /// at `end`, popped on ACK), so a binary search finds the first and
    /// the scan stops past `to`, instead of filtering every boundary not
    /// yet acknowledged.
    // hot-path: runs per emitted segment
    fn boundaries_in(&self, from: u64, to: u64) -> Vec<u64> {
        let first = self.boundaries.partition_point(|&b| b <= from);
        self.boundaries.range(first..).copied().take_while(|&b| b <= to).collect()
    }

    /// Processes a cumulative acknowledgment up to stream offset `upto`.
    /// Returns the freed byte count and the number of whole messages that
    /// became fully acknowledged.
    // hot-path: runs per received ACK; frees whole chunks, never copies
    pub fn on_ack(&mut self, upto: u64) -> AckResult {
        let upto = upto.min(self.end);
        if upto <= self.una {
            return AckResult {
                bytes: 0,
                messages: 0,
            };
        }
        let n = (upto - self.una) as usize;
        // A partially acknowledged front chunk stays whole until its last
        // byte is covered; the stream offsets keep `gather` exact either
        // way, this only delays freeing its memory slightly.
        while self
            .chunks
            .front()
            .is_some_and(|&(start, ref p)| start + p.len() as u64 <= upto)
        {
            self.chunks.pop_front();
        }
        self.una = upto;
        if self.nxt < self.una {
            self.nxt = self.una;
        }
        let mut messages = 0;
        while self.boundaries.front().is_some_and(|&b| b <= upto) {
            self.boundaries.pop_front();
            messages += 1;
        }
        AckResult { bytes: n, messages }
    }

    /// Rewinds the send pointer to the first unacknowledged byte (the RTO:
    /// everything unacked is resent, save what the peer SACKed).
    pub(crate) fn rewind_to_una(&mut self) {
        self.nxt = self.una;
    }

    /// Moves the send pointer forward to `offset` without transmitting:
    /// the RTO resend steps over a range the peer already holds.
    pub(crate) fn skip_to(&mut self, offset: u64) {
        debug_assert!(offset <= self.end, "skip past the buffered data");
        self.nxt = self.nxt.max(offset);
    }
}

/// A chunk of stream data handed to the transmit path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendChunk {
    /// Stream offset of the first byte.
    pub offset: u64,
    /// The payload.
    pub bytes: Payload,
    /// Message-end offsets within `(offset, offset + len]`.
    pub(crate) boundaries: Vec<u64>,
}

/// Result of processing a cumulative ACK.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckResult {
    /// Bytes newly acknowledged.
    pub bytes: usize,
    /// Whole application messages newly acknowledged.
    pub messages: usize,
}

/// The receiving half: in-order reassembly plus an out-of-order store.
#[derive(Debug, Clone)]
pub struct RecvBuffer {
    /// Next expected stream offset (`rcv_nxt` analogue).
    rcv_nxt: u64,
    /// Offset of the first unread byte (`copied_seq` analogue).
    read_pos: u64,
    /// In-order unread chunks from `read_pos` to `rcv_nxt` (views into
    /// the delivered segments; no reassembly copy).
    ready: VecDeque<Payload>,
    /// Total bytes across `ready`.
    ready_len: usize,
    /// Out-of-order segments keyed by start offset.
    ooo: BTreeMap<u64, Payload>,
    /// Start offset of the latest out-of-order arrival; the first SACK
    /// block is the range holding it.
    latest_ooo: u64,
    /// Message-end offsets within in-order data, not yet consumed.
    boundaries: VecDeque<u64>,
    /// Out-of-order message-end offsets waiting for in-order delivery.
    ooo_boundaries: BTreeMap<u64, ()>,
    capacity: usize,
}

/// Result of ingesting one data segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestResult {
    /// Bytes that became in-order available (0 for pure out-of-order).
    pub(crate) in_order_bytes: usize,
    /// Whole messages that became in-order available.
    pub(crate) in_order_messages: usize,
    /// True if the segment was entirely duplicate data.
    pub(crate) duplicate: bool,
    /// True if the segment landed out of order.
    pub(crate) out_of_order: bool,
    /// True if in-order data arrived while out-of-order data was held:
    /// the segment filled all or part of a gap.
    pub(crate) filled_gap: bool,
}

impl RecvBuffer {
    /// Creates an empty receive buffer with the given capacity.
    pub fn new(capacity: usize) -> Self {
        RecvBuffer {
            rcv_nxt: 0,
            read_pos: 0,
            ready: VecDeque::new(),
            ready_len: 0,
            ooo: BTreeMap::new(),
            latest_ooo: 0,
            boundaries: VecDeque::new(),
            ooo_boundaries: BTreeMap::new(),
            capacity,
        }
    }

    /// Next expected offset.
    pub fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }

    /// Offset of the first unread byte.
    pub(crate) fn read_pos(&self) -> u64 {
        self.read_pos
    }

    /// Bytes available for the application to read (`sk_rmem_alloc`
    /// analogue, ignoring out-of-order data).
    pub fn available(&self) -> usize {
        self.ready_len
    }

    /// Whole messages available to read.
    #[cfg(test)]
    fn available_messages(&self) -> usize {
        self.boundaries.len()
    }

    /// Receive window to advertise.
    pub(crate) fn window(&self) -> usize {
        self.capacity.saturating_sub(self.ready_len)
    }

    /// Queues an in-order view, joined onto the last one when it continues
    /// it in the same allocation.
    fn push_ready(&mut self, view: Payload) {
        self.ready_len += view.len();
        if let Some(last) = self.ready.back_mut() {
            if last.try_append(&view) {
                return;
            }
        }
        self.ready.push_back(view);
    }

    /// Ingests a segment at stream offset `offset` carrying `data` and the
    /// message boundaries ending within it. In-order data is retained as a
    /// copy-free view of the segment's payload.
    // hot-path: runs per delivered data segment
    pub fn ingest(&mut self, offset: u64, data: &Payload, boundaries: &[u64]) -> IngestResult {
        let end = offset + data.len() as u64;
        for &b in boundaries {
            debug_assert!(b > offset && b <= end, "boundary {b} outside segment");
            if b > self.rcv_nxt {
                self.ooo_boundaries.insert(b, ());
            }
        }
        if end <= self.rcv_nxt {
            return IngestResult {
                duplicate: true,
                ..IngestResult::default()
            };
        }
        if offset > self.rcv_nxt {
            // Out of order: stash (trimming handled at assembly). A shorter
            // copy at the same offset never replaces what is stored: data
            // reported in a SACK block must stay held.
            let stored = self.ooo.entry(offset).or_default();
            if stored.len() < data.len() {
                *stored = data.clone();
            }
            self.latest_ooo = offset;
            return IngestResult {
                out_of_order: true,
                ..IngestResult::default()
            };
        }
        let rcv_nxt_before = self.rcv_nxt;
        let filled_gap = !self.ooo.is_empty();
        // Overlapping or exactly in order: take the new suffix.
        let skip = (self.rcv_nxt - offset) as usize;
        self.push_ready(data.slice(skip, data.len()));
        self.rcv_nxt = end;
        // Pull in any out-of-order data that is now contiguous.
        while let Some(first) = self.ooo.first_entry() {
            if *first.key() > self.rcv_nxt {
                break;
            }
            let (start, seg) = first.remove_entry();
            let seg_end = start + seg.len() as u64;
            if seg_end <= self.rcv_nxt {
                continue; // fully duplicate
            }
            let skip = (self.rcv_nxt - start) as usize;
            self.push_ready(seg.slice(skip, seg.len()));
            self.rcv_nxt = seg_end;
        }
        // Promote boundaries that are now in order.
        let mut in_order_messages = 0;
        loop {
            match self.ooo_boundaries.first_key_value() {
                Some((&b, _)) if b <= self.rcv_nxt => {
                    self.ooo_boundaries.pop_first();
                    self.boundaries.push_back(b);
                    in_order_messages += 1;
                }
                _ => break,
            }
        }
        IngestResult {
            in_order_bytes: (self.rcv_nxt - rcv_nxt_before) as usize,
            in_order_messages,
            duplicate: false,
            out_of_order: false,
            filled_gap,
        }
    }

    /// The out-of-order store as SACK ranges `[start, end)` (RFC 2018):
    /// stored segments merged where they touch or overlap, the range
    /// holding the latest out-of-order arrival first, then the highest
    /// others, descending. All `None` while nothing is held out of order.
    pub(crate) fn sack_ranges(&self) -> [Option<(u64, u64)>; MAX_SACK_BLOCKS] {
        let mut out = [None; MAX_SACK_BLOCKS];
        if self.ooo.is_empty() {
            return out;
        }
        let mut stored = self.ooo.iter().map(|(&start, p)| (start, start + p.len() as u64));
        let mut merged = stored.next();
        let mut latest = None;
        // The highest ranges not holding the latest arrival, ascending.
        let mut highest = [None; MAX_SACK_BLOCKS];
        let mut close = |range: (u64, u64)| {
            if (range.0..range.1).contains(&self.latest_ooo) {
                latest = Some(range);
            } else {
                highest.rotate_left(1);
                highest[MAX_SACK_BLOCKS - 1] = Some(range);
            }
        };
        for (start, end) in stored {
            match merged {
                Some((s, e)) if start <= e => merged = Some((s, e.max(end))),
                _ => {
                    merged.map(&mut close);
                    merged = Some((start, end));
                }
            }
        }
        merged.map(&mut close);
        let order = latest.into_iter().chain(highest.into_iter().rev().flatten());
        for (slot, range) in out.iter_mut().zip(order) {
            *slot = Some(range);
        }
        out
    }

    /// Reads up to `max` in-order bytes into `out`, as the ready views they
    /// are (the last one split if `max` falls inside it), and returns the
    /// bytes read and the number of whole messages consumed. No byte is
    /// copied.
    // hot-path: runs per application recv
    pub fn read(&mut self, max: usize, out: &mut impl Extend<Payload>) -> (usize, usize) {
        let n = self.ready_len.min(max);
        self.ready_len -= n;
        let mut left = n;
        while left > 0 {
            let Some(front) = self.ready.front_mut() else {
                break;
            };
            if front.len() > left {
                let rest = front.slice(left, front.len());
                out.extend(Some(front.slice(0, left)));
                *front = rest;
                left = 0;
            } else {
                left -= front.len();
                out.extend(self.ready.pop_front());
            }
        }
        debug_assert_eq!(left, 0, "ready_len ran past the ready views");
        self.read_pos += n as u64;
        let mut messages = 0;
        while self.boundaries.front().is_some_and(|&b| b <= self.read_pos) {
            self.boundaries.pop_front();
            messages += 1;
        }
        (n, messages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(bytes: &[u8]) -> Payload {
        Payload::copy_from_slice(bytes)
    }

    /// Reads up to `max` bytes, flattened: the bytes and the messages.
    fn read_flat(r: &mut RecvBuffer, max: usize) -> (Vec<u8>, usize) {
        let mut views: Vec<Payload> = Vec::new();
        let (n, messages) = r.read(max, &mut views);
        let bytes = views.concat();
        assert_eq!(bytes.len(), n);
        (bytes, messages)
    }

    #[test]
    fn send_push_respects_capacity() {
        let mut b = SendBuffer::new(10);
        assert_eq!(b.push(p(b"hello")), 5);
        assert_eq!(b.push(p(b"worldxxx")), 5);
        assert_eq!(b.push(p(b"y")), 0);
        assert_eq!(b.buffered(), 10);
        assert_eq!(b.room(), 0);
    }

    #[test]
    fn send_chunks_advance_nxt() {
        let mut b = SendBuffer::new(100);
        b.push(p(b"abcdefgh"));
        let c1 = b.take_chunk(3).unwrap();
        assert_eq!(&c1.bytes[..], b"abc");
        assert_eq!(c1.offset, 0);
        let c2 = b.take_chunk(100).unwrap();
        assert_eq!(&c2.bytes[..], b"defgh");
        assert_eq!(c2.offset, 3);
        assert!(b.take_chunk(10).is_none());
        assert_eq!(b.in_flight(), 8);
    }

    #[test]
    fn send_chunk_within_one_push_is_a_view() {
        let mut b = SendBuffer::new(100);
        b.push(p(b"abcdefgh"));
        let base = b.take_chunk(3).unwrap();
        let more = b.take_chunk(3).unwrap();
        // Same backing allocation: slicing, not copying.
        assert!(std::ptr::eq(
            base.bytes.as_ref().as_ptr().wrapping_add(3),
            more.bytes.as_ref().as_ptr()
        ));
    }

    #[test]
    fn send_chunk_spanning_pushes_concatenates() {
        let mut b = SendBuffer::new(100);
        b.push(p(b"abc"));
        b.push(p(b"def"));
        b.push(p(b"ghi"));
        let c = b.take_chunk(8).unwrap();
        assert_eq!(&c.bytes[..], b"abcdefgh");
        let rest = b.take_chunk(8).unwrap();
        assert_eq!(&rest.bytes[..], b"i");
    }

    #[test]
    fn send_boundaries_ride_chunks() {
        let mut b = SendBuffer::new(100);
        b.push(p(b"req1"));
        b.mark_boundary();
        b.push(p(b"req2!"));
        b.mark_boundary();
        let c = b.take_chunk(6).unwrap();
        assert_eq!(c.boundaries, vec![4]);
        let c2 = b.take_chunk(10).unwrap();
        assert_eq!(c2.boundaries, vec![9]);
    }

    #[test]
    fn ack_frees_bytes_and_messages() {
        let mut b = SendBuffer::new(100);
        b.push(p(b"req1"));
        b.mark_boundary();
        b.push(p(b"req2"));
        b.mark_boundary();
        b.take_chunk(100);
        let r = b.on_ack(4);
        assert_eq!(
            r,
            AckResult {
                bytes: 4,
                messages: 1
            }
        );
        assert_eq!(b.buffered(), 4);
        // Duplicate ack is a no-op.
        let r2 = b.on_ack(4);
        assert_eq!(r2.bytes, 0);
        let r3 = b.on_ack(8);
        assert_eq!(r3.messages, 1);
        assert_eq!(b.buffered(), 0);
    }

    #[test]
    fn partial_ack_keeps_retransmit_exact() {
        let mut b = SendBuffer::new(100);
        b.push(p(b"abcdef"));
        b.take_chunk(6);
        // Ack into the middle of the (single) chunk: the chunk stays, and
        // both retransmit and further acks stay offset-exact.
        b.on_ack(2);
        let c = b.retransmit_chunk(2, 4);
        assert_eq!(&c.bytes[..], b"cdef");
        let r = b.on_ack(6);
        assert_eq!(r.bytes, 4);
        assert_eq!(b.buffered(), 0);
    }

    #[test]
    fn retransmit_rereads_unacked_range() {
        let mut b = SendBuffer::new(100);
        b.push(p(b"abcdef"));
        b.take_chunk(6);
        let c = b.retransmit_chunk(2, 3);
        assert_eq!(&c.bytes[..], b"cde");
        assert_eq!(c.offset, 2);
    }

    #[test]
    fn rewind_resends_everything_unacked() {
        let mut b = SendBuffer::new(100);
        b.push(p(b"abcdef"));
        b.take_chunk(6);
        b.on_ack(2);
        b.rewind_to_una();
        let c = b.take_chunk(100).unwrap();
        assert_eq!(c.offset, 2);
        assert_eq!(&c.bytes[..], b"cdef");
    }

    #[test]
    #[should_panic(expected = "retransmit range")]
    fn retransmit_outside_window_panics() {
        let b = SendBuffer::new(100);
        let _ = b.retransmit_chunk(0, 1);
    }

    #[test]
    fn recv_in_order_delivery() {
        let mut r = RecvBuffer::new(100);
        let res = r.ingest(0, &Payload::from_static(b"hello"), &[5]);
        assert_eq!(res.in_order_bytes, 5);
        assert_eq!(res.in_order_messages, 1);
        assert_eq!(r.available(), 5);
        let (bytes, msgs) = read_flat(&mut r, 100);
        assert_eq!(&bytes[..], b"hello");
        assert_eq!(msgs, 1);
    }

    #[test]
    fn recv_single_segment_read_is_a_view() {
        let mut r = RecvBuffer::new(100);
        let seg = Payload::from_static(b"hello");
        r.ingest(0, &seg, &[5]);
        let mut views: Vec<Payload> = Vec::new();
        assert_eq!(r.read(100, &mut views), (5, 1));
        assert_eq!(views.len(), 1);
        assert!(std::ptr::eq(seg.as_ref().as_ptr(), views[0].as_ref().as_ptr()));
    }

    #[test]
    fn push_keeps_an_owned_buffer_without_copying() {
        let mut b = SendBuffer::new(100);
        let msg = vec![7u8; 40];
        let at = msg.as_ptr();
        assert_eq!(b.push(msg.into()), 40);
        let c = b.take_chunk(100).unwrap();
        assert!(std::ptr::eq(c.bytes.as_ref().as_ptr(), at));
        assert_eq!(c.bytes.len(), 40);
    }

    #[test]
    fn a_partly_accepted_push_keeps_the_prefix_as_a_view() {
        let mut b = SendBuffer::new(10);
        let msg = Payload::from(b"abcdefghijklmnop".to_vec());
        assert_eq!(b.push(msg.clone()), 10);
        let c = b.take_chunk(100).unwrap();
        assert_eq!(&c.bytes[..], b"abcdefghij");
        assert!(std::ptr::eq(c.bytes.as_ref().as_ptr(), msg.as_ref().as_ptr()));
        // The caller still holds the rejected tail as a view of its own.
        let tail = msg.slice(10, msg.len());
        assert_eq!(&tail[..], b"klmnop");
    }

    #[test]
    fn in_order_views_of_one_allocation_coalesce() {
        let msg = Payload::from((0..=255u8).collect::<Vec<u8>>());
        let mut r = RecvBuffer::new(1024);
        for at in (0..256).step_by(50) {
            let end = (at + 50).min(256);
            r.ingest(at as u64, &msg.slice(at, end), &[]);
        }
        assert_eq!(r.ready.len(), 1, "six adjacent segments are one ready chunk");
        let mut views: Vec<Payload> = Vec::new();
        assert_eq!(r.read(usize::MAX, &mut views), (256, 0));
        assert_eq!(views.len(), 1);
        assert_eq!(views[0], msg);
        assert!(std::ptr::eq(views[0].as_ref().as_ptr(), msg.as_ref().as_ptr()));
    }

    #[test]
    fn views_that_do_not_continue_each_other_never_join() {
        let a = Payload::from(b"abcdefgh".to_vec());
        let twin = Payload::from(b"abcdefgh".to_vec());
        // Different allocations with equal bytes: two chunks.
        let mut r = RecvBuffer::new(100);
        r.ingest(0, &a.slice(0, 4), &[]);
        r.ingest(4, &twin.slice(4, 8), &[]);
        assert_eq!(r.ready.len(), 2);
        // An out-of-order arrival joins nothing while the hole is open;
        // once [0, 4) fills it the two are in stream order and adjacent in
        // `a`, so they are one chunk.
        let mut r = RecvBuffer::new(100);
        r.ingest(4, &a.slice(4, 8), &[]);
        assert_eq!(r.ready.len(), 0);
        r.ingest(0, &a.slice(0, 4), &[]);
        assert_eq!(r.ready.len(), 1);
        // A hole filled from another allocation does not join either side.
        let mut r = RecvBuffer::new(100);
        r.ingest(0, &a.slice(0, 2), &[]);
        r.ingest(4, &a.slice(4, 8), &[]);
        r.ingest(2, &twin.slice(2, 4), &[]);
        assert_eq!(r.ready.len(), 3);
        // A duplicate, and an overlap whose new suffix is of another
        // allocation, add nothing and a separate chunk respectively.
        let mut r = RecvBuffer::new(100);
        r.ingest(0, &a.slice(0, 4), &[]);
        assert!(r.ingest(0, &a.slice(0, 4), &[]).duplicate);
        r.ingest(2, &twin.slice(2, 6), &[]);
        assert_eq!(r.ready.len(), 2);
        assert_eq!(r.available(), 6);
        let (bytes, _) = read_flat(&mut r, 100);
        assert_eq!(&bytes[..], b"abcdef");
    }

    #[test]
    fn read_returns_every_byte_once_in_order_with_its_messages() {
        // Three messages of 700, 300 and 1000 bytes, each its own
        // allocation, cut into 128-byte segments that straddle them, one
        // segment of every four a copy; read back in reads of 1..=333.
        let msgs: Vec<Payload> = [700usize, 300, 1000]
            .iter()
            .enumerate()
            .map(|(i, &len)| (0..len).map(|j| (i * 7 + j) as u8).collect::<Vec<u8>>().into())
            .collect();
        let stream = msgs.concat();
        let ends = [700u64, 1000, 2000];
        let mut send = SendBuffer::new(1 << 20);
        for m in &msgs {
            send.push(m.clone());
            send.mark_boundary();
        }
        let mut r = RecvBuffer::new(1 << 20);
        let mut k = 0;
        while let Some(c) = send.take_chunk(128) {
            let bytes = if k % 4 == 3 { p(&c.bytes) } else { c.bytes };
            r.ingest(c.offset, &bytes, &c.boundaries);
            k += 1;
        }
        let (mut out, mut pos, mut step) = (Vec::new(), 0u64, 1usize);
        while r.available() > 0 {
            let mut views: Vec<Payload> = Vec::new();
            let (n, messages) = r.read(step, &mut views);
            assert_eq!(views.iter().map(|v| v.len()).sum::<usize>(), n);
            let expected = ends.iter().filter(|&&e| e > pos && e <= pos + n as u64).count();
            assert_eq!(messages, expected, "read of {n} bytes at {pos}");
            out.extend(views.concat());
            pos += n as u64;
            step = step * 7 % 333 + 1;
        }
        assert_eq!(out, stream);
        assert_eq!(r.available_messages(), 0);
    }

    #[test]
    fn recv_out_of_order_reassembly() {
        let mut r = RecvBuffer::new(100);
        let res1 = r.ingest(5, &Payload::from_static(b"world"), &[10]);
        assert!(res1.out_of_order);
        assert_eq!(r.available(), 0);
        let res2 = r.ingest(0, &Payload::from_static(b"hello"), &[]);
        assert_eq!(res2.in_order_bytes, 10);
        assert_eq!(res2.in_order_messages, 1);
        let (bytes, _) = read_flat(&mut r, 100);
        assert_eq!(&bytes[..], b"helloworld");
    }

    #[test]
    fn recv_duplicate_detected() {
        let mut r = RecvBuffer::new(100);
        r.ingest(0, &Payload::from_static(b"abc"), &[]);
        let res = r.ingest(0, &Payload::from_static(b"abc"), &[]);
        assert!(res.duplicate);
        assert_eq!(r.available(), 3);
    }

    #[test]
    fn recv_partial_overlap_takes_suffix() {
        let mut r = RecvBuffer::new(100);
        r.ingest(0, &Payload::from_static(b"abc"), &[]);
        let res = r.ingest(1, &Payload::from_static(b"bcdef"), &[]);
        assert!(!res.duplicate);
        assert_eq!(r.rcv_nxt(), 6);
        let (bytes, _) = read_flat(&mut r, 100);
        assert_eq!(&bytes[..], b"abcdef");
    }

    #[test]
    fn recv_partial_read_consumes_messages_lazily() {
        let mut r = RecvBuffer::new(100);
        r.ingest(0, &Payload::from_static(b"req1req2"), &[4, 8]);
        assert_eq!(r.available_messages(), 2);
        let (_, msgs) = read_flat(&mut r, 3);
        assert_eq!(msgs, 0, "message 1 not fully consumed yet");
        let (_, msgs) = read_flat(&mut r, 1);
        assert_eq!(msgs, 1);
        let (_, msgs) = read_flat(&mut r, 100);
        assert_eq!(msgs, 1);
    }

    #[test]
    fn recv_partial_reads_split_chunks_exactly() {
        let mut r = RecvBuffer::new(100);
        r.ingest(0, &Payload::from_static(b"abcdefgh"), &[]);
        let (a, _) = read_flat(&mut r, 3);
        assert_eq!(&a[..], b"abc");
        assert_eq!(r.available(), 5);
        let (b, _) = read_flat(&mut r, 2);
        assert_eq!(&b[..], b"de");
        let (c, _) = read_flat(&mut r, 100);
        assert_eq!(&c[..], b"fgh");
        assert_eq!(r.available(), 0);
    }

    #[test]
    fn recv_window_shrinks_with_unread_data() {
        let mut r = RecvBuffer::new(10);
        r.ingest(0, &Payload::from_static(b"abcde"), &[]);
        assert_eq!(r.window(), 5);
        read_flat(&mut r, 5);
        assert_eq!(r.window(), 10);
    }

    #[test]
    fn sack_ranges_merge_and_lead_with_the_latest_arrival() {
        let mut r = RecvBuffer::new(100);
        assert_eq!(r.sack_ranges(), [None; 3]);
        // Holes at [0, 2), [4, 6), [8, 10), [12, 14); stored: 2..4, 6..8
        // (two touching segments), 10..12 and 14..16.
        for (at, data) in [(6, b"gh"), (2, b"cd"), (10, b"kl"), (7, b"hi"), (14, b"op")] {
            r.ingest(at, &Payload::from_static(data), &[]);
        }
        // The latest arrival (14) leads; then the highest others, descending.
        assert_eq!(r.sack_ranges(), [Some((14, 16)), Some((10, 12)), Some((6, 9))]);
        // A shorter copy at a stored offset leads, but does not shrink it.
        r.ingest(7, &Payload::from_static(b"h"), &[]);
        assert_eq!(r.sack_ranges(), [Some((6, 9)), Some((14, 16)), Some((10, 12))]);
        r.ingest(3, &Payload::from_static(b"d"), &[]);
        assert_eq!(r.sack_ranges(), [Some((2, 4)), Some((14, 16)), Some((10, 12))]);
        // Filling [0, 2) pulls 2..4 in order: the latest arrival is gone,
        // so the highest ranges are reported.
        r.ingest(0, &Payload::from_static(b"ab"), &[]);
        assert_eq!(r.sack_ranges(), [Some((14, 16)), Some((10, 12)), Some((6, 9))]);
        r.ingest(4, &Payload::from_static(b"efghijklmnop"), &[]);
        assert_eq!(r.sack_ranges(), [None; 3]);
    }

    #[test]
    fn ooo_chain_reassembles_fully() {
        let mut r = RecvBuffer::new(100);
        r.ingest(6, &Payload::from_static(b"ghi"), &[9]);
        r.ingest(3, &Payload::from_static(b"def"), &[]);
        let res = r.ingest(0, &Payload::from_static(b"abc"), &[]);
        assert_eq!(res.in_order_bytes, 9);
        assert_eq!(res.in_order_messages, 1);
        let (bytes, msgs) = read_flat(&mut r, 100);
        assert_eq!(&bytes[..], b"abcdefghi");
        assert_eq!(msgs, 1);
    }
}
