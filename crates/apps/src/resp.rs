//! A RESP (REdis Serialization Protocol) subset.
//!
//! The evaluation workloads speak the protocol Redis speaks: commands are
//! arrays of bulk strings (`*N\r\n$len\r\n<bytes>\r\n...`), SET replies
//! with the simple string `+OK\r\n`, GET with a bulk string or the null
//! bulk `$-1\r\n`. One array encoder writes every command
//! (`Command::to_wire`; `encode_get` is its untagged shorthand), except
//! the client's SET, which `encode_set_with` writes with its value in
//! place ([`encode_set`] over a given value). One incremental parser,
//! [`RespStream`], reads either direction: it consumes a TCP byte stream
//! fed in arbitrary chunks, exactly as a read loop sees it.
//!
//! Encoders size their buffer exactly and write each byte once. The
//! parser copies nothing: it keeps what it was fed as views and hands keys
//! and values out as sub-views of them ([`Payload::slice`]). The exception
//! is a message that straddles two buffers that do not continue each
//! other, which alone is copied, once (DESIGN.md §11, "Copy-free byte
//! path").

use std::collections::VecDeque;
use std::sync::LazyLock;

use tcpsim::Payload;

/// A client command.
///
/// Commands may carry an optional *request id* as a trailing 8-byte bulk
/// argument (`SET key value id8` / `GET key id8`). The proxy tags
/// retried and hedged upstream commands with the originating request's
/// id so the KV app can deduplicate: a retry racing its original, or a
/// hedge racing its primary, must never double-apply. Client-originated
/// traffic stays untagged and byte-identical to the plain encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `SET key value [id]`.
    Set {
        /// The key.
        key: Payload,
        /// The value.
        value: Payload,
        /// Request id for idempotent dedup (proxy-tagged traffic only).
        id: Option<u64>,
    },
    /// `GET key [id]`.
    Get {
        /// The key.
        key: Payload,
        /// Request id for idempotent dedup (proxy-tagged traffic only).
        id: Option<u64>,
    },
}

impl Command {
    /// The request id, when the command is proxy-tagged.
    #[cfg(test)]
    fn id(&self) -> Option<u64> {
        match self {
            Command::Set { id, .. } | Command::Get { id, .. } => *id,
        }
    }

    /// Key plus value bytes — the size the applications' per-byte CPU
    /// costs are charged on.
    pub(crate) fn payload_len(&self) -> usize {
        match self {
            Command::Set { key, value, .. } => key.len() + value.len(),
            Command::Get { key, .. } => key.len(),
        }
    }

    /// The command on the wire, tagged with `id` when one is given (proxy
    /// → shard traffic that may be retried or hedged) and plain otherwise.
    /// The sender decides the tag: the command's own `id` is what its
    /// previous hop sent and is not forwarded.
    pub(crate) fn to_wire(&self, id: Option<u64>) -> Vec<u8> {
        let id = id.map(u64::to_be_bytes);
        let id = id.as_ref().map(|bytes| &bytes[..]);
        match self {
            Command::Set { key, value, .. } => {
                encode_array(&[Some(b"SET"), Some(key), Some(value), id])
            }
            Command::Get { key, .. } => encode_array(&[Some(b"GET"), Some(key), id]),
        }
    }
}

/// A server reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `+OK\r\n` (successful SET).
    Ok,
    /// A bulk string (GET hit).
    Value(Payload),
    /// The null bulk string (GET miss).
    Nil,
}

impl Response {
    /// Value bytes carried (none for `Ok` and `Nil`) — the size the
    /// applications' per-byte CPU costs are charged on.
    pub(crate) fn payload_len(&self) -> usize {
        match self {
            Response::Value(v) => v.len(),
            Response::Ok | Response::Nil => 0,
        }
    }
}

/// Encodes an untagged SET command.
pub fn encode_set(key: &[u8], value: &[u8]) -> Vec<u8> {
    encode_set_with(key, value.len(), |out| out.copy_from_slice(value))
}

/// Encodes an untagged SET whose `value_len`-byte value `fill` writes in
/// place (it is handed zeroed bytes): the frame and the value are one
/// allocation, and the value is written once.
pub(crate) fn encode_set_with(
    key: &[u8],
    value_len: usize,
    fill: impl FnOnce(&mut [u8]),
) -> Vec<u8> {
    let len = header_len(3) + bulk_len(3) + bulk_len(key.len()) + bulk_len(value_len);
    let mut out = Vec::with_capacity(len);
    push_header(&mut out, b'*', 3);
    push_bulk(&mut out, b"SET");
    push_bulk(&mut out, key);
    push_header(&mut out, b'$', value_len);
    let at = out.len();
    out.resize(at + value_len, 0);
    fill(&mut out[at..]);
    out.extend_from_slice(b"\r\n");
    debug_assert_eq!(out.len(), len);
    out
}

/// Encodes an untagged GET command.
pub(crate) fn encode_get(key: &[u8]) -> Vec<u8> {
    encode_array(&[Some(b"GET"), Some(key)])
}

/// Encodes a response. `+OK` and `$-1` are shared, so replying with one
/// allocates nothing; a value is framed into one buffer.
pub(crate) fn encode_response(resp: &Response) -> Payload {
    static OK: LazyLock<Payload> = LazyLock::new(|| Payload::from_static(b"+OK\r\n"));
    static NIL: LazyLock<Payload> = LazyLock::new(|| Payload::from_static(b"$-1\r\n"));
    match resp {
        Response::Ok => OK.clone(),
        Response::Nil => NIL.clone(),
        Response::Value(v) => {
            let mut out = Vec::with_capacity(bulk_len(v.len()));
            push_bulk(&mut out, v);
            out.into()
        }
    }
}

/// Writes the arguments that are present as one array of bulk strings (an
/// absent one is the request id of an untagged command).
fn encode_array(args: &[Option<&[u8]>]) -> Vec<u8> {
    let present = || args.iter().flatten();
    let len =
        header_len(present().count()) + present().map(|arg| bulk_len(arg.len())).sum::<usize>();
    let mut out = Vec::with_capacity(len);
    push_header(&mut out, b'*', present().count());
    for arg in present() {
        push_bulk(&mut out, arg);
    }
    out
}

fn push_bulk(out: &mut Vec<u8>, data: &[u8]) {
    push_header(out, b'$', data.len());
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
}

/// `*<n>\r\n` opens an array of `n` elements, `$<n>\r\n` a bulk string
/// of `n` bytes. The digits are written straight into `out`.
fn push_header(out: &mut Vec<u8>, kind: u8, n: usize) {
    out.push(kind);
    let at = out.len();
    let mut rest = n;
    loop {
        out.push(b'0' + (rest % 10) as u8);
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out[at..].reverse();
    out.extend_from_slice(b"\r\n");
}

/// Bytes `push_header` writes for `n`.
fn header_len(n: usize) -> usize {
    let digits = n.checked_ilog10().map_or(1, |d| d as usize + 1);
    digits + 3
}

/// Bytes `push_bulk` writes for `len` bytes of data.
fn bulk_len(len: usize) -> usize {
    header_len(len) + len + 2
}

/// Reads one `\r\n`-terminated line at the start of `data`; returns the
/// line (without terminator) and the total bytes consumed.
fn read_line(data: &[u8]) -> Option<(&[u8], usize)> {
    let nl = data.windows(2).position(|w| w == b"\r\n")?;
    Some((&data[..nl], nl + 2))
}

fn parse_usize(data: &[u8]) -> Option<usize> {
    let s = std::str::from_utf8(data).ok()?;
    s.parse().ok()
}

/// Reads a `$len\r\n<bytes>\r\n` bulk string at the start of `data`;
/// returns where its bytes lie (`None` for the `$-1` null bulk) and the
/// bytes consumed.
fn read_bulk(data: &[u8]) -> Option<(Option<(usize, usize)>, usize)> {
    let (header, h) = read_line(data)?;
    if header.first() != Some(&b'$') {
        return None;
    }
    if &header[1..] == b"-1" {
        return Some((None, h));
    }
    let len = parse_usize(&header[1..])?;
    if data.len() < h + len + 2 {
        return None; // incomplete
    }
    Some((Some((h, h + len)), h + len + 2))
}

/// Bytes the message at the start of `data` spans, once every header of
/// it is there (its bulk bytes need not be); `None` before that.
fn frame_len(data: &[u8]) -> Option<usize> {
    let bulk_end = |at: usize| {
        let (header, h) = read_line(data.get(at..)?)?;
        let body = match &header[1..] {
            b"-1" => 0,
            len => parse_usize(len)? + 2,
        };
        Some(at + h + body)
    };
    match data.first()? {
        b'*' => {
            let (header, mut used) = read_line(data)?;
            for _ in 0..parse_usize(&header[1..])? {
                used = bulk_end(used)?;
            }
            Some(used)
        }
        b'$' => bulk_end(0),
        _ => read_line(data).map(|(_, used)| used),
    }
}

/// Parses one command at the start of `buf`: the command, its key and
/// value sub-views of `buf`, and the bytes consumed. `None` when the
/// command is not all there yet.
#[expect(
    clippy::expect_used,
    clippy::panic,
    reason = "documented on `next_command`: simulated peers are trusted, malformed input is a bug"
)]
fn parse_command(buf: &Payload) -> Option<(Command, usize)> {
    let data: &[u8] = buf;
    let (header, mut used) = read_line(data)?;
    assert_eq!(header.first(), Some(&b'*'), "expected array header");
    let nargs = parse_usize(&header[1..]).expect("array length");
    let mut args = [(0, 0); 4];
    assert!(
        (1..=args.len()).contains(&nargs),
        "commands have 1 to 4 arguments, not {nargs}"
    );
    for arg in &mut args[..nargs] {
        let (bulk, n) = read_bulk(&data[used..])?;
        let (start, end) = bulk.expect("commands have no null args");
        *arg = (used + start, used + end);
        used += n;
    }
    let arg = |i: usize| buf.slice(args[i].0, args[i].1);
    let id_arg = |i: usize| {
        let bytes: [u8; 8] = data[args[i].0..args[i].1]
            .try_into()
            .expect("request id is 8 bytes");
        u64::from_be_bytes(bytes)
    };
    let cmd = match &data[args[0].0..args[0].1] {
        b"SET" => {
            assert!(nargs == 3 || nargs == 4, "SET key value [id]");
            Command::Set {
                key: arg(1),
                value: arg(2),
                id: (nargs == 4).then(|| id_arg(3)),
            }
        }
        b"GET" => {
            assert!(nargs == 2 || nargs == 3, "GET key [id]");
            Command::Get {
                key: arg(1),
                id: (nargs == 3).then(|| id_arg(2)),
            }
        }
        other => panic!("unsupported command {:?}", String::from_utf8_lossy(other)),
    };
    Some((cmd, used))
}

/// Parses one response at the start of `buf`: the response, a value as a
/// sub-view of `buf`, and the bytes consumed. `None` when the response is
/// not all there yet.
#[expect(
    clippy::panic,
    reason = "documented on `next_response`: simulated peers are trusted, malformed input is a bug"
)]
fn parse_response(buf: &Payload) -> Option<(Response, usize)> {
    let data: &[u8] = buf;
    match data.first()? {
        b'+' => {
            let (line, used) = read_line(data)?;
            assert_eq!(line, b"+OK", "only +OK simple strings are used");
            Some((Response::Ok, used))
        }
        b'$' => {
            let (bulk, used) = read_bulk(data)?;
            let resp = match bulk {
                Some((start, end)) => Response::Value(buf.slice(start, end)),
                None => Response::Nil,
            };
            Some((resp, used))
        }
        other => panic!("unexpected response type byte {other:#x}"),
    }
}

/// Incremental parser over one direction of one connection's byte stream:
/// [`next_command`](Self::next_command) on the side that serves,
/// `next_response` on the side that asked.
///
/// It keeps what it is fed as views: the unparsed bytes as one
/// [`Payload`], and the reads not yet needed behind it. A message is
/// parsed in place, and the next read is joined onto the unparsed bytes
/// only when the message there is incomplete — in O(1) when the read
/// continues them in the same allocation, as a segmented send does, and
/// otherwise by copying that message, and no more, once.
#[derive(Debug, Default)]
pub struct RespStream {
    /// Unparsed bytes: the front of the stream.
    buf: Payload,
    /// Reads behind `buf`, oldest first; adjacent ones are already joined.
    reads: VecDeque<Payload>,
    /// Bytes across `reads`.
    queued: usize,
}

/// The read side of a connection that carries commands.
pub type CommandParser = RespStream;

impl RespStream {
    /// Creates an empty parser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends stream bytes: a [`Payload`] or an owned `Vec` is kept as
    /// it is, borrowed bytes are copied once.
    pub fn feed(&mut self, data: impl Into<Payload>) {
        let view = data.into();
        self.queued += view.len();
        if let Some(last) = self.reads.back_mut() {
            if last.try_append(&view) {
                return;
            }
        }
        if !view.is_empty() {
            self.reads.push_back(view);
        }
    }

    /// Bytes buffered but not yet parsed into a complete message.
    #[cfg(test)]
    pub(crate) fn pending_bytes(&self) -> usize {
        self.buf.len() + self.queued
    }

    /// Extracts the next complete command, if any; its key and value are
    /// views of the bytes fed, not copies.
    ///
    /// # Panics
    ///
    /// Panics on malformed input (the simulation's peers are trusted; a
    /// production implementation would return an error).
    pub fn next_command(&mut self) -> Option<Command> {
        self.next_with(parse_command)
    }

    /// Extracts the next complete response, if any; a value is a view of
    /// the bytes fed, not a copy.
    ///
    /// # Panics
    ///
    /// Panics on malformed input.
    pub(crate) fn next_response(&mut self) -> Option<Response> {
        self.next_with(parse_response)
    }

    /// Runs `parse` on the unparsed bytes, joining the next read onto them
    /// while the message there is incomplete.
    // hot-path: runs per parsed message on every connection
    fn next_with<T>(&mut self, parse: impl Fn(&Payload) -> Option<(T, usize)>) -> Option<T> {
        loop {
            if let Some((msg, used)) = parse(&self.buf) {
                self.buf = self.buf.slice(used, self.buf.len());
                return Some(msg);
            }
            let next = self.reads.pop_front()?;
            self.queued -= next.len();
            self.join(next);
        }
    }

    /// Joins a read onto the unparsed bytes: in O(1) when it continues
    /// them, else by copying only what the message there still lacks (all
    /// of `next` while that message's length is unknown), so the messages
    /// behind it stay views of `next`.
    fn join(&mut self, next: Payload) {
        if self.buf.try_append(&next) {
            return;
        }
        let lacking =
            frame_len(&self.buf).map_or(next.len(), |len| len.saturating_sub(self.buf.len()));
        // At least one byte, so a join always makes progress (`reads`
        // holds no empty view).
        let take = lacking.clamp(1, next.len());
        self.buf.extend_from_slice(&next[..take]);
        if take < next.len() {
            self.queued += next.len() - take;
            self.reads.push_front(next.slice(take, next.len()));
        }
    }
}

impl Extend<Payload> for RespStream {
    /// Feeds each view: the sink a socket read hands its views to.
    fn extend<I: IntoIterator<Item = Payload>>(&mut self, views: I) {
        for view in views {
            self.feed(view);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_roundtrip() {
        let wire = encode_set(b"key:0001", b"hello");
        let mut p = CommandParser::new();
        p.feed(&wire);
        assert_eq!(
            p.next_command(),
            Some(Command::Set {
                key: Payload::from_static(b"key:0001"),
                value: Payload::from_static(b"hello"),
                id: None,
            })
        );
        assert_eq!(p.next_command(), None);
        assert_eq!(p.pending_bytes(), 0);
    }

    #[test]
    fn get_roundtrip() {
        let mut p = CommandParser::new();
        p.feed(encode_get(b"k"));
        assert_eq!(
            p.next_command(),
            Some(Command::Get {
                key: Payload::from_static(b"k"),
                id: None,
            })
        );
    }

    #[test]
    fn tagged_commands_roundtrip_with_ids() {
        let key = Payload::from_static(b"key:0001");
        let set = Command::Set {
            key: key.clone(),
            value: Payload::from_static(b"hello"),
            id: Some(0xDEAD_BEEF_0000_0042),
        };
        let get = Command::Get { key, id: Some(7) };
        let mut wire = set.to_wire(set.id());
        wire.extend(get.to_wire(get.id()));
        wire.extend(encode_set(b"key:0002", b"plain"));
        let mut p = CommandParser::new();
        p.feed(&wire);
        assert_eq!(p.next_command(), Some(set));
        assert_eq!(p.next_command(), Some(get));
        // Untagged traffic is unchanged and parses with no id.
        let third = p.next_command().expect("plain SET");
        assert_eq!(third.id(), None);
        assert_eq!(p.next_command(), None);
        assert_eq!(p.pending_bytes(), 0);
    }

    // The four encoders `encode_array` replaced, kept as they were: the
    // bytes on the wire are part of every golden digest.
    fn ref_set(key: &[u8], value: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(value.len() + key.len() + 40);
        out.extend_from_slice(b"*3\r\n$3\r\nSET\r\n");
        ref_bulk(&mut out, key);
        ref_bulk(&mut out, value);
        out
    }

    fn ref_get(key: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(key.len() + 24);
        out.extend_from_slice(b"*2\r\n$3\r\nGET\r\n");
        ref_bulk(&mut out, key);
        out
    }

    fn ref_set_with_id(key: &[u8], value: &[u8], id: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(value.len() + key.len() + 56);
        out.extend_from_slice(b"*4\r\n$3\r\nSET\r\n");
        ref_bulk(&mut out, key);
        ref_bulk(&mut out, value);
        ref_bulk(&mut out, &id.to_be_bytes());
        out
    }

    fn ref_get_with_id(key: &[u8], id: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(key.len() + 40);
        out.extend_from_slice(b"*3\r\n$3\r\nGET\r\n");
        ref_bulk(&mut out, key);
        ref_bulk(&mut out, &id.to_be_bytes());
        out
    }

    fn ref_bulk(out: &mut Vec<u8>, data: &[u8]) {
        out.push(b'$');
        out.extend_from_slice(data.len().to_string().as_bytes());
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(data);
        out.extend_from_slice(b"\r\n");
    }

    #[test]
    fn one_encoder_writes_what_the_four_wrote() {
        let sizes = [0usize, 1, 16 * 1024];
        let ids = [None, Some(0), Some(u64::MAX)];
        for key_len in sizes {
            let key: Vec<u8> = (0..key_len).map(|i| b'a' + (i % 26) as u8).collect();
            assert_eq!(encode_get(&key), ref_get(&key));
            for value_len in sizes {
                // "\r\n" inside a value must not confuse the framing.
                let value: Vec<u8> = b"\r\n$9".iter().copied().cycle().take(value_len).collect();
                assert_eq!(encode_set(&key, &value), ref_set(&key, &value));
                for id in ids {
                    let set = Command::Set {
                        key: key.clone().into(),
                        value: value.clone().into(),
                        id,
                    };
                    let get = Command::Get {
                        key: key.clone().into(),
                        id,
                    };
                    let (set_wire, get_wire) = match id {
                        None => (ref_set(&key, &value), ref_get(&key)),
                        Some(id) => (ref_set_with_id(&key, &value, id), ref_get_with_id(&key, id)),
                    };
                    assert_eq!(set.to_wire(id), set_wire);
                    assert_eq!(get.to_wire(id), get_wire);
                    // The tag on the wire is the argument, never the
                    // command's own field.
                    assert_eq!(set.to_wire(None), ref_set(&key, &value));
                    assert_eq!(set.payload_len(), key_len + value_len);
                    assert_eq!(get.payload_len(), key_len);

                    let mut p = RespStream::new();
                    p.feed(&set_wire);
                    p.feed(&get_wire);
                    assert_eq!(p.next_command(), Some(set));
                    assert_eq!(p.next_command(), Some(get));
                    assert_eq!(p.next_command(), None);
                    assert_eq!(p.pending_bytes(), 0);
                }
            }
        }
    }

    #[test]
    fn response_payload_is_the_value() {
        assert_eq!(Response::Ok.payload_len(), 0);
        assert_eq!(Response::Nil.payload_len(), 0);
        assert_eq!(Response::Value(vec![1u8; 300].into()).payload_len(), 300);
    }

    #[test]
    fn partial_feeds_assemble() {
        let wire = encode_set(b"key", &vec![7u8; 1000]);
        let mut p = CommandParser::new();
        // Feed one byte at a time for the header, then the rest in chunks.
        for chunk in wire.chunks(13) {
            assert_eq!(p.next_command(), None, "must not parse early");
            p.feed(chunk);
        }
        let cmd = p.next_command().expect("complete now");
        match cmd {
            Command::Set { value, .. } => assert_eq!(value.len(), 1000),
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn multiple_pipelined_commands() {
        let mut wire = encode_set(b"a", b"1");
        wire.extend(encode_get(b"a"));
        wire.extend(encode_set(b"b", b"2"));
        let mut p = CommandParser::new();
        p.feed(&wire);
        assert!(matches!(p.next_command(), Some(Command::Set { .. })));
        assert!(matches!(p.next_command(), Some(Command::Get { .. })));
        assert!(matches!(p.next_command(), Some(Command::Set { .. })));
        assert_eq!(p.next_command(), None);
    }

    #[test]
    fn response_ok_roundtrip() {
        let mut p = RespStream::new();
        p.feed(encode_response(&Response::Ok));
        assert_eq!(p.next_response(), Some(Response::Ok));
    }

    #[test]
    fn response_value_roundtrip() {
        let v = vec![9u8; 16384];
        let mut p = RespStream::new();
        p.feed(encode_response(&Response::Value(v.clone().into())));
        assert_eq!(p.next_response(), Some(Response::Value(v.into())));
    }

    #[test]
    fn response_nil_roundtrip() {
        let mut p = RespStream::new();
        p.feed(encode_response(&Response::Nil));
        assert_eq!(p.next_response(), Some(Response::Nil));
    }

    #[test]
    fn interleaved_response_stream() {
        let wire = [
            encode_response(&Response::Ok),
            encode_response(&Response::Value(Payload::from_static(b"xy"))),
            encode_response(&Response::Ok),
        ]
        .concat();
        let mut p = RespStream::new();
        // Split mid-bulk.
        p.feed(&wire[..8]);
        assert_eq!(p.next_response(), Some(Response::Ok));
        assert_eq!(p.next_response(), None);
        p.feed(&wire[8..]);
        assert_eq!(
            p.next_response(),
            Some(Response::Value(Payload::from_static(b"xy")))
        );
        assert_eq!(p.next_response(), Some(Response::Ok));
    }

    #[test]
    fn buffer_compaction_preserves_stream() {
        let mut p = CommandParser::new();
        // Push enough traffic to trigger compaction several times.
        for i in 0..200 {
            let key = format!("key:{i:04}");
            p.feed(encode_set(key.as_bytes(), &[0u8; 100]));
            let cmd = p.next_command().expect("complete command");
            match cmd {
                Command::Set { key: k, .. } => assert_eq!(k.as_ref(), key.as_bytes()),
                other => panic!("wrong {other:?}"),
            }
        }
    }

    /// One message of a mixed stream: either direction parses from the
    /// same parser, so the stream interleaves them and the reader calls
    /// the method each position needs.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Msg {
        Cmd(Command),
        Resp(Response),
    }

    impl Msg {
        fn wire(&self) -> Vec<u8> {
            match self {
                Msg::Cmd(cmd) => cmd.to_wire(cmd.id()),
                Msg::Resp(resp) => encode_response(resp).to_vec(),
            }
        }

        /// The key and value views a parsed message carries.
        fn views(&self) -> Vec<&Payload> {
            match self {
                Msg::Cmd(Command::Set { key, value, .. }) => vec![key, value],
                Msg::Cmd(Command::Get { key, .. }) => vec![key],
                Msg::Resp(Response::Value(value)) => vec![value],
                Msg::Resp(Response::Ok | Response::Nil) => vec![],
            }
        }
    }

    /// A seeded mix of tagged and plain SETs and GETs and of all three
    /// responses; values of 0 B to 20 KiB full of framing bytes.
    fn mixed_stream(rng: &mut simnet::Pcg32, n: usize) -> Vec<Msg> {
        let bytes = |rng: &mut simnet::Pcg32, len: usize| -> Payload {
            let pattern = b"\r\n$*-19";
            (0..len)
                .map(|_| pattern[rng.gen_range(pattern.len() as u64) as usize])
                .collect::<Vec<u8>>()
                .into()
        };
        (0..n)
            .map(|_| {
                let key_len = 1 + rng.gen_range(24) as usize;
                let key = bytes(rng, key_len);
                let id = rng.gen_bool(0.5).then(|| rng.next_u64());
                match rng.gen_range(5) {
                    0 | 1 => {
                        let len = match rng.gen_range(3) {
                            0 => rng.gen_range(4) as usize,
                            1 => rng.gen_range(2_000) as usize,
                            _ => 16 * 1024 + rng.gen_range(4_000) as usize,
                        };
                        Msg::Cmd(Command::Set {
                            key,
                            value: bytes(rng, len),
                            id,
                        })
                    }
                    2 => Msg::Cmd(Command::Get { key, id }),
                    3 => Msg::Resp(match rng.gen_range(3) {
                        0 => Response::Ok,
                        1 => Response::Nil,
                        _ => {
                            let len = rng.gen_range(20_000) as usize;
                            Response::Value(bytes(rng, len))
                        }
                    }),
                    _ => Msg::Resp(Response::Ok),
                }
            })
            .collect()
    }

    /// Offsets to cut `msgs`' concatenated wire at: random ones, plus in
    /// every message one between its first header's `\r` and `\n` and
    /// one inside the digits of its last header.
    fn cuts(rng: &mut simnet::Pcg32, msgs: &[Msg]) -> Vec<usize> {
        let mut cuts = Vec::new();
        let mut at = 0;
        for msg in msgs {
            let wire = msg.wire();
            let cr = wire.iter().position(|&b| b == b'\r').expect("a header");
            cuts.push(at + cr + 1);
            // The last header, `$<len>` of the value or key, at `h`; the
            // cut falls after half its digits (after the `$` for one).
            let (h, len) = match msg {
                Msg::Cmd(cmd @ Command::Set { key, value, .. }) => {
                    let nargs = 3 + usize::from(cmd.id().is_some());
                    (
                        header_len(nargs) + bulk_len(3) + bulk_len(key.len()),
                        value.len(),
                    )
                }
                Msg::Cmd(cmd @ Command::Get { key, .. }) => (
                    header_len(2 + usize::from(cmd.id().is_some())) + bulk_len(3),
                    key.len(),
                ),
                Msg::Resp(Response::Value(value)) => (0, value.len()),
                // `$-1` and `+OK`: between the two characters.
                Msg::Resp(Response::Ok | Response::Nil) => (0, 10),
            };
            assert!(matches!(wire[h], b'$' | b'+'), "{msg:?}: no header at {h}");
            let digits = header_len(len) - 3;
            cuts.push(at + h + 1 + digits / 2);
            for _ in 0..rng.gen_range(4) {
                cuts.push(at + rng.gen_range(wire.len() as u64) as usize);
            }
            at += wire.len();
        }
        cuts.push(at);
        cuts.sort_unstable();
        cuts.dedup();
        cuts
    }

    /// Feeds `pieces` one at a time, draining every message that parses
    /// after each, in the kinds `expected` says; every message must stay
    /// unparsed until its last byte is fed.
    fn parse_fed(pieces: Vec<Payload>, expected: &[Msg]) -> Vec<Msg> {
        let mut p = RespStream::new();
        let mut out: Vec<Msg> = Vec::new();
        for piece in pieces {
            p.feed(piece);
            while let Some(kind) = expected.get(out.len()) {
                let next = match kind {
                    Msg::Cmd(_) => p.next_command().map(Msg::Cmd),
                    Msg::Resp(_) => p.next_response().map(Msg::Resp),
                };
                match next {
                    Some(msg) => out.push(msg),
                    None => break,
                }
            }
        }
        assert_eq!(p.pending_bytes(), 0);
        out
    }

    fn within(view: &Payload, source: &[u8]) -> bool {
        let range = source.as_ptr_range();
        view.is_empty() || (range.contains(&view.as_ptr()) && view.as_ptr_range().end <= range.end)
    }

    #[test]
    fn any_feeding_of_a_stream_parses_the_same_and_views_are_not_copies() {
        let mut rng = simnet::Pcg32::new(0x5E70_F1D5);
        let msgs = mixed_stream(&mut rng, 300);
        let wires: Vec<Vec<u8>> = msgs.iter().map(Msg::wire).collect();
        let whole: Vec<u8> = wires.concat();
        let cuts = cuts(&mut rng, &msgs);
        let spans = || {
            cuts.iter()
                .scan(0, |from, &to| Some((std::mem::replace(from, to), to)))
                .filter(|(from, to)| from < to)
        };

        // 1. The whole stream as one copy.
        assert_eq!(parse_fed(vec![Payload::from(&whole)], &msgs), msgs);

        // 2. Cut everywhere, each piece a separate copy: every message
        //    that straddles a cut is joined by copying, and split
        //    headers, split `\r\n`s and split digits still parse.
        let copies: Vec<Payload> = spans()
            .map(|(from, to)| Payload::from(&whole[from..to]))
            .collect();
        assert!(copies.len() > 2 * msgs.len());
        assert_eq!(parse_fed(copies, &msgs), msgs);

        // 3. The same cuts as adjacent views of one allocation: they join
        //    in O(1), and every key and value is a view into it.
        let one = Payload::from(whole.clone());
        let views: Vec<Payload> = spans().map(|(from, to)| one.slice(from, to)).collect();
        let parsed = parse_fed(views, &msgs);
        assert_eq!(parsed, msgs);
        for msg in &parsed {
            assert!(
                msg.views().iter().all(|v| within(v, &one)),
                "{msg:?} was copied"
            );
        }

        // 4. One allocation per message, each cut into adjacent views of
        //    its own: every key and value points into its message's.
        let per_message: Vec<Payload> = wires.iter().cloned().map(Payload::from).collect();
        let mut views = Vec::new();
        for wire in &per_message {
            let mut from = 0;
            while from < wire.len() {
                let to = (from + 1 + rng.gen_range(6_000) as usize).min(wire.len());
                views.push(wire.slice(from, to));
                from = to;
            }
        }
        let parsed = parse_fed(views, &msgs);
        assert_eq!(parsed, msgs);
        for (msg, wire) in parsed.iter().zip(&per_message) {
            assert!(
                msg.views().iter().all(|v| within(v, wire)),
                "{msg:?} was copied"
            );
        }
    }

    #[test]
    fn a_join_copies_only_what_the_straddling_message_lacks() {
        // The first SET arrives as a view of its own buffer less its last
        // 10 bytes; those come at the head of one gathered buffer that
        // also holds two whole messages, as a segment spanning sends is.
        let first = Payload::from(encode_set(b"k1", &[1; 5_000]));
        let rest = [encode_set(b"k2", &[2; 3_000]), encode_get(b"k3")].concat();
        let gathered = Payload::from([&first[first.len() - 10..], &rest[..]].concat());
        let mut p = CommandParser::new();
        p.feed(first.slice(0, first.len() - 10));
        p.feed(gathered.clone());
        assert!(matches!(p.next_command(), Some(Command::Set { .. })));
        // Only the first was copied: the second is still a view of the
        // gathered buffer.
        match p.next_command() {
            Some(Command::Set { key, value, .. }) => {
                assert_eq!((&key[..], value.len()), (&b"k2"[..], 3_000));
                assert!(within(&value, &gathered), "the whole read was copied");
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(matches!(p.next_command(), Some(Command::Get { .. })));
        assert_eq!(p.pending_bytes(), 0);
        // Framing is read from headers alone, before the bytes arrive.
        let set = encode_set(b"key", &[0; 16_384]);
        assert_eq!(frame_len(&set[..40]), Some(set.len()));
        assert_eq!(frame_len(&set[..15]), None);
        assert_eq!(frame_len(b"$-1\r\n+OK"), Some(5));
        assert_eq!(frame_len(b"+OK\r"), None);
    }

    #[test]
    fn wire_sizes_match_redis_framing() {
        // 16 B key + 16 KiB value: the paper's Figure 4a request.
        let wire = encode_set(&[b'k'; 16], &vec![0u8; 16384]);
        // *3\r\n (4) + $3\r\nSET\r\n (9) + $16\r\n key \r\n (5+16+2)
        // + $16384\r\n value \r\n (8+16384+2) = 16430.
        assert_eq!(wire.len(), 16_430);
        assert_eq!(encode_response(&Response::Ok).len(), 5);
    }
}
