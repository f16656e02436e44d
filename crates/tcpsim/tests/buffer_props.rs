//! Property-style tests for the socket buffers and sequence arithmetic.
//!
//! The stream invariant under test: any interleaving of pushes, chunked
//! transmissions, arbitrary segmentations, reorderings, duplications, and
//! partial reads must deliver exactly the pushed byte stream, in order,
//! with message boundaries preserved.
//!
//! Formerly proptest-based; cases are now generated with the workspace's
//! own deterministic [`Pcg32`] so the suite needs no registry dependencies
//! and every run is identical.

use simnet::Pcg32;
use tcpsim::buffer::{RecvBuffer, SendBuffer};
use tcpsim::seq::SeqNum;
use tcpsim::Payload;

fn range(rng: &mut Pcg32, lo: usize, hi: usize) -> usize {
    lo + rng.gen_range((hi - lo) as u64) as usize
}

/// Bytes pushed through a SendBuffer in arbitrary chunk sizes come out of
/// take_chunk in order and complete.
#[test]
fn send_buffer_preserves_stream() {
    let mut rng = Pcg32::new(0x5EED_0001);
    for _ in 0..200 {
        let n_msgs = range(&mut rng, 1, 20);
        let msgs: Vec<Vec<u8>> = (0..n_msgs)
            .map(|_| {
                let len = range(&mut rng, 1, 200);
                (0..len).map(|_| rng.next_u32() as u8).collect()
            })
            .collect();
        let n_chunks = range(&mut rng, 1, 200);
        let chunk_sizes: Vec<usize> = (0..n_chunks).map(|_| range(&mut rng, 1, 300)).collect();

        let mut buf = SendBuffer::new(1 << 20);
        let mut expected = Vec::new();
        for m in &msgs {
            assert_eq!(buf.push(m.into()), m.len());
            buf.mark_boundary();
            expected.extend_from_slice(m);
        }
        let mut out = Vec::new();
        let mut sizes = chunk_sizes.iter().cycle();
        while buf.unsent() > 0 {
            let chunk = buf
                .take_chunk(*sizes.next().expect("cycle"))
                .expect("unsent");
            assert_eq!(chunk.offset as usize, out.len());
            out.extend_from_slice(&chunk.bytes);
        }
        assert_eq!(out, expected);
    }
}

/// Cumulative ACKs free exactly the acked prefix; message accounting
/// matches boundary positions.
#[test]
fn send_buffer_ack_accounting() {
    let mut rng = Pcg32::new(0x5EED_0002);
    for _ in 0..200 {
        let n_msgs = range(&mut rng, 1, 20);
        let msg_lens: Vec<usize> = (0..n_msgs).map(|_| range(&mut rng, 1, 100)).collect();
        let n_steps = range(&mut rng, 1, 40);
        let ack_steps: Vec<usize> = (0..n_steps).map(|_| range(&mut rng, 1, 150)).collect();

        let mut buf = SendBuffer::new(1 << 20);
        let mut ends = Vec::new();
        let mut total = 0usize;
        for len in &msg_lens {
            buf.push(vec![0u8; *len].into());
            buf.mark_boundary();
            total += len;
            ends.push(total as u64);
        }
        buf.take_chunk(total);
        let mut acked = 0u64;
        let mut freed_msgs = 0usize;
        let mut freed_bytes = 0usize;
        for step in ack_steps {
            acked = (acked + step as u64).min(total as u64);
            let res = buf.on_ack(acked);
            freed_bytes += res.bytes;
            freed_msgs += res.messages;
            assert_eq!(freed_bytes as u64, acked);
            let expect_msgs = ends.iter().filter(|&&e| e <= acked).count();
            assert_eq!(freed_msgs, expect_msgs);
            if acked == total as u64 {
                break;
            }
        }
    }
}

/// A RecvBuffer reassembles any permutation of segments (with duplicates)
/// into the original stream, and boundary counts survive.
#[test]
fn recv_buffer_reassembles_any_order() {
    let mut rng = Pcg32::new(0x5EED_0003);
    for _ in 0..200 {
        let data_len = range(&mut rng, 1, 2000);
        let data: Vec<u8> = (0..data_len).map(|_| rng.next_u32() as u8).collect();
        let n_cuts = range(&mut rng, 0, 10);
        let dup_first = rng.gen_bool(0.5);

        // Split [0, len) into segments at the cut points.
        let mut points: Vec<usize> = (0..n_cuts).map(|_| range(&mut rng, 0, data.len())).collect();
        points.push(0);
        points.push(data.len());
        points.sort_unstable();
        points.dedup();
        let mut segments: Vec<(u64, Payload)> = points
            .windows(2)
            .filter(|w| w[1] > w[0])
            .map(|w| (w[0] as u64, Payload::copy_from_slice(&data[w[0]..w[1]])))
            .collect();
        // Fisher–Yates shuffle driven by the same deterministic stream.
        for i in (1..segments.len()).rev() {
            let j = rng.gen_range((i + 1) as u64) as usize;
            segments.swap(i, j);
        }
        if dup_first && !segments.is_empty() {
            segments.push(segments[0].clone());
        }

        let mut rcv = RecvBuffer::new(1 << 20);
        let end = data.len() as u64;
        for (off, seg) in &segments {
            rcv.ingest(*off, seg, &[(*off + seg.len() as u64).min(end)]);
        }
        assert_eq!(rcv.rcv_nxt(), end);

        let mut out = Vec::new();
        let mut msgs = 0usize;
        while rcv.available() > 0 {
            let read_size = range(&mut rng, 1, 500);
            let mut views: Vec<Payload> = Vec::new();
            let (n, m) = rcv.read(read_size, &mut views);
            assert_eq!(views.iter().map(|v| v.len()).sum::<usize>(), n);
            out.extend_from_slice(&views.concat());
            msgs += m;
        }
        assert_eq!(out, data);
        assert!(msgs >= 1, "at least the final boundary is consumed");
    }
}

/// Sequence-number ordering is antisymmetric and consistent with wrapping
/// distance for deltas below 2^31.
#[test]
fn seqnum_ordering_laws() {
    let mut rng = Pcg32::new(0x5EED_0004);
    for _ in 0..1000 {
        let base = rng.next_u32();
        let delta = 1 + rng.gen_range((1u64 << 31) - 2) as u32;
        let a = SeqNum::new(base);
        let b = a + delta;
        assert!(a.before(b));
        assert!(b.after(a));
        assert!(!b.before(a));
        assert!(!a.after(b));
        assert_eq!(b - a, delta);
        assert!(a.in_range(a, b));
        assert!(!b.in_range(a, b));
    }
}
