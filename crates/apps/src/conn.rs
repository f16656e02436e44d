//! One connection seat: the application side of a TCP connection.
//!
//! The load generator, the server and both sides of the proxy do the same
//! things with a socket, and [`Conn`] does them once: it latches wakes (a
//! burst of `Readable` wakes is one processing pass on the application
//! thread, a burst of `Writable` wakes one flush, and only with something
//! to flush), reads into one [`RespStream`], and keeps writes in order
//! under backpressure — what the send buffer rejects waits in a backlog
//! and nothing newer overtakes it. Bytes move as [`Payload`] views both
//! ways: a read hands the socket's views to the parser, a write hands the
//! encoded buffer to the socket, and a rejected tail is a sub-view of it.
//! `Conn::default()` is the teardown: a reset connection's unparsed bytes,
//! unsent bytes and latches die with it (bytes handed to the old socket
//! are indistinguishable from delivered, so nothing is replayed on the
//! next one).
//!
//! A connection that is down — a crashed client before its reconnect, an
//! upstream before its handshake or after a reset — is the `None` of an
//! `Option<SocketId>`: [`Conn::read`] and [`Conn::flush`] clear their
//! latch and move nothing, so a call queued before the connection went
//! away is harmless when it fires (DESIGN.md §9, "One connection seat").

use std::collections::VecDeque;

use littles::Snapshot;
use tcpsim::{HostCtx, Payload, SocketId};

use crate::resp::RespStream;

/// Bits of an `on_call` token that carry the index.
const IDX_BITS: u32 = 32;

/// Packs an application's continuation token: `kind` says what to run,
/// `idx` on what (a socket, a shard, a request).
pub(crate) const fn token(kind: u64, idx: usize) -> u64 {
    (kind << IDX_BITS) | idx as u64
}

/// Unpacks a [`token`] into `(kind, idx)`.
pub(crate) fn untoken(tok: u64) -> (u64, usize) {
    (tok >> IDX_BITS, (tok & ((1 << IDX_BITS) - 1)) as usize)
}

/// The application-side state of one connection.
#[derive(Debug, Default)]
pub(crate) struct Conn {
    /// Bytes read and not yet taken as whole messages.
    pub(crate) parser: RespStream,
    /// A processing pass is queued on the application thread.
    read_queued: bool,
    /// A flush is queued on the application thread.
    flush_queued: bool,
    /// Messages the send buffer has not taken yet, oldest first; the front
    /// one may be the rejected tail of a partly written message.
    backlog: VecDeque<Payload>,
}

impl Conn {
    /// A `Readable` wake: queues `on_call(tok)`, which must start with
    /// [`read`](Self::read), unless a pass is already queued.
    pub(crate) fn on_readable(&mut self, ctx: &mut HostCtx<'_>, tok: u64) {
        if !self.read_queued {
            self.read_queued = true;
            ctx.wake_app_thread(tok);
        }
    }

    /// A `Writable` wake, or the `Connected` of a connection that held
    /// writes through its handshake: queues `on_call(tok)`, which must run
    /// [`flush`](Self::flush), if anything waits and no flush is queued.
    pub(crate) fn on_writable(&mut self, ctx: &mut HostCtx<'_>, tok: u64) {
        if !self.backlog.is_empty() && !self.flush_queued {
            self.flush_queued = true;
            ctx.call_at(ctx.app_free_at(), tok);
        }
    }

    /// The head of a processing pass: moves everything readable into
    /// [`parser`](Self::parser). `false` when the connection is down.
    pub(crate) fn read(&mut self, ctx: &mut HostCtx<'_>, sock: Option<SocketId>) -> bool {
        self.read_queued = false;
        let Some(sock) = sock else {
            return false;
        };
        ctx.recv(sock, usize::MAX, &mut self.parser);
        true
    }

    /// Writes the backlog out, oldest first, as far as the socket takes it.
    pub(crate) fn flush(&mut self, ctx: &mut HostCtx<'_>, sock: Option<SocketId>) {
        self.flush_queued = false;
        let Some(sock) = sock else {
            return;
        };
        while let Some(front) = self.backlog.front_mut() {
            let accepted = ctx.send(sock, front.clone());
            if accepted < front.len() {
                *front = front.slice(accepted, front.len());
                break;
            }
            self.backlog.pop_front();
        }
    }

    /// Writes one message: straight to the socket when nothing older
    /// waits (keeping the tail the send buffer rejects), onto the backlog
    /// otherwise. `hint` is the §3.3 request-queue state at this instant,
    /// so it rides on a direct send only — a flush writes bytes whose
    /// moment has passed.
    pub(crate) fn send(
        &mut self,
        ctx: &mut HostCtx<'_>,
        sock: SocketId,
        wire: impl Into<Payload>,
        hint: Option<Snapshot>,
    ) {
        let wire = wire.into();
        if !self.backlog.is_empty() {
            self.backlog.push_back(wire);
            return;
        }
        let accepted = match hint {
            Some(hint) => ctx.send_with_hint(sock, wire.clone(), hint),
            None => ctx.send(sock, wire.clone()),
        };
        if accepted < wire.len() {
            self.backlog.push_back(wire.slice(accepted, wire.len()));
        }
    }

    /// Keeps one message for a connection that is not up yet; its
    /// `Connected` wake flushes it.
    pub(crate) fn hold(&mut self, wire: impl Into<Payload>) {
        self.backlog.push_back(wire.into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resp::{encode_get, Command};
    use littles::Nanos;
    use simnet::{run, CpuContext, EventQueue, LinkConfig};
    use tcpsim::{App, CostConfig, Host, HostId, NetSim, TcpConfig, WakeReason};

    const READ: u64 = 1;
    const FLUSH: u64 = 2;
    const KICK: u64 = 3;

    /// Two and a half 16 KiB messages fit the send buffer.
    fn small_buffers() -> TcpConfig {
        TcpConfig {
            sndbuf: 40 * 1024,
            rcvbuf: 48 * 1024,
            ..TcpConfig::default()
        }
    }

    /// One end of a connection that does nothing `Conn` does not do: wakes
    /// go to the latches, `READ` parses into `inbox`, `FLUSH` flushes, and
    /// `KICK` (once the connection is up) runs the test's script.
    struct Peer {
        dials: bool,
        kick: fn(&mut Peer, &mut HostCtx<'_>),
        /// Held on start, before the handshake.
        early: Option<Vec<u8>>,
        conn: Conn,
        sock: Option<SocketId>,
        inbox: Vec<Command>,
        /// `on_call`s seen, by token.
        calls: [u32; 4],
        deepest_backlog: usize,
    }

    impl Peer {
        fn new(dials: bool, kick: fn(&mut Peer, &mut HostCtx<'_>)) -> Self {
            Peer {
                dials,
                kick,
                early: None,
                conn: Conn::default(),
                sock: None,
                inbox: Vec::new(),
                calls: [0; 4],
                deepest_backlog: 0,
            }
        }

        fn listener() -> Self {
            Peer::new(false, |_, _| {})
        }
    }

    impl App for Peer {
        fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
            if self.dials {
                ctx.connect(small_buffers());
                if let Some(wire) = self.early.take() {
                    self.conn.hold(wire);
                }
            }
        }

        fn on_wake(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId, reason: WakeReason) {
            match reason {
                WakeReason::Connected => {
                    self.sock = Some(sock);
                    self.conn.on_writable(ctx, FLUSH);
                    ctx.call_at(ctx.app_free_at(), KICK);
                }
                WakeReason::Accepted => self.sock = Some(sock),
                WakeReason::Readable => self.conn.on_readable(ctx, READ),
                WakeReason::Writable => self.conn.on_writable(ctx, FLUSH),
                WakeReason::Reset => {}
            }
        }

        fn on_call(&mut self, ctx: &mut HostCtx<'_>, tok: u64) {
            self.calls[tok as usize] += 1;
            match tok {
                READ => {
                    if self.conn.read(ctx, self.sock) {
                        while let Some(cmd) = self.conn.parser.next_command() {
                            self.inbox.push(cmd);
                        }
                    }
                }
                FLUSH => self.conn.flush(ctx, self.sock),
                KICK => (self.kick)(self, ctx),
                other => panic!("unknown token {other}"),
            }
        }
    }

    fn run_pair(dialer: Peer) -> NetSim<Peer, Peer> {
        let host = |idx| {
            let (app, softirq) = (CpuContext::new("app"), CpuContext::new("softirq"));
            Host::new(
                HostId::from_index(idx),
                app,
                softirq,
                CostConfig::default(),
                small_buffers(),
            )
        };
        let link = LinkConfig::default();
        let mut sim = NetSim::new(dialer, Peer::listener(), host(0), host(1), link, 7);
        let mut queue = EventQueue::new();
        sim.start(&mut queue);
        run(&mut sim, &mut queue, Nanos::from_millis(200));
        sim
    }

    fn message(i: u8) -> (Vec<u8>, Command) {
        let cmd = Command::Set {
            key: vec![b'k', i].into(),
            value: vec![i; 16 * 1024].into(),
            id: None,
        };
        (cmd.to_wire(None), cmd)
    }

    #[test]
    fn backlogged_messages_arrive_whole_and_in_order() {
        let sim = run_pair(Peer::new(true, |p, ctx| {
            let sock = p.sock.expect("kicked once connected");
            for i in 0..20 {
                p.conn.send(ctx, sock, message(i).0, None);
                p.deepest_backlog = p.deepest_backlog.max(p.conn.backlog.len());
            }
        }));
        let sent: Vec<Command> = (0..20).map(|i| message(i).1).collect();
        assert_eq!(sim.server.inbox, sent);
        // Eight times the send buffer went through: most of it waited.
        assert!(
            sim.client().deepest_backlog >= 17,
            "{}",
            sim.client().deepest_backlog
        );
        assert!(sim.client().conn.backlog.is_empty());
        assert!(sim.client().calls[FLUSH as usize] > 1);
    }

    #[test]
    fn a_burst_of_wakes_is_one_call() {
        let sim = run_pair(Peer::new(true, |p, ctx| {
            // Nothing to flush: a writable wake queues nothing.
            p.conn.on_writable(ctx, FLUSH);
            p.conn.hold(encode_get(b"k"));
            for _ in 0..3 {
                p.conn.on_readable(ctx, READ);
                p.conn.on_writable(ctx, FLUSH);
            }
            // Both calls run, clearing their latches; then one more burst.
            if p.calls[KICK as usize] == 1 {
                ctx.call_after(Nanos::from_millis(1), KICK);
            }
        }));
        assert_eq!(sim.client().calls, [0, 2, 2, 2]);
        assert_eq!(sim.server.inbox.len(), 2);
        // The listener's real wakes: one pass per delivered message.
        assert_eq!(sim.server.calls[READ as usize], 2);
    }

    #[test]
    fn writes_held_through_the_handshake_go_out_on_connected() {
        let mut dialer = Peer::new(true, |_, _| {});
        dialer.early = Some(message(1).0);
        let sim = run_pair(dialer);
        assert_eq!(sim.server.inbox, [message(1).1]);
        assert_eq!(sim.client().calls[FLUSH as usize], 1);
    }

    #[test]
    fn a_connection_that_is_down_moves_nothing() {
        let sim = run_pair(Peer::new(true, |p, ctx| {
            p.conn.hold(message(1).0);
            p.conn.on_readable(ctx, READ);
            p.conn.on_writable(ctx, FLUSH);
            assert!(p.conn.read_queued && p.conn.flush_queued);
            // Gone before either call fires.
            p.sock = None;
        }));
        let client = sim.client();
        assert_eq!(client.calls, [0, 1, 1, 1]);
        assert!(!client.conn.read_queued && !client.conn.flush_queued);
        assert_eq!(client.conn.backlog.len(), 1);
        assert_eq!(client.conn.parser.pending_bytes(), 0);
        assert!(sim.server.inbox.is_empty());
    }

    #[test]
    fn default_is_the_teardown() {
        let mut conn = Conn::default();
        conn.hold(message(1).0);
        conn.parser.feed(&b"*2\r\n$3\r\nGET"[..]);
        conn.read_queued = true;
        conn.flush_queued = true;
        conn = Conn::default();
        assert!(conn.backlog.is_empty() && !conn.read_queued && !conn.flush_queued);
        assert_eq!(conn.parser.pending_bytes(), 0);
    }
}
