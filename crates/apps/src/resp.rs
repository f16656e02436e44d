//! A RESP (REdis Serialization Protocol) subset.
//!
//! The evaluation workloads speak the protocol Redis speaks: commands are
//! arrays of bulk strings (`*N\r\n$len\r\n<bytes>\r\n...`), SET replies
//! with the simple string `+OK\r\n`, GET with a bulk string or the null
//! bulk `$-1\r\n`. One array encoder writes every command
//! ([`Command::to_wire`]; [`encode_set`] / [`encode_get`] are its untagged
//! shorthands) and one incremental parser, [`RespStream`], reads either
//! direction: it consumes a TCP byte stream fed in arbitrary chunks,
//! exactly as a read loop sees it.

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
    pub fn id(&self) -> Option<u64> {
        match self {
            Command::Set { id, .. } | Command::Get { id, .. } => *id,
        }
    }

    /// Key plus value bytes — the size the applications' per-byte CPU
    /// costs are charged on.
    pub fn payload_len(&self) -> usize {
        match self {
            Command::Set { key, value, .. } => key.len() + value.len(),
            Command::Get { key, .. } => key.len(),
        }
    }

    /// The command on the wire, tagged with `id` when one is given (proxy
    /// → shard traffic that may be retried or hedged) and plain otherwise.
    /// The sender decides the tag: the command's own `id` is what its
    /// previous hop sent and is not forwarded.
    pub fn to_wire(&self, id: Option<u64>) -> Vec<u8> {
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
    pub fn payload_len(&self) -> usize {
        match self {
            Response::Value(v) => v.len(),
            Response::Ok | Response::Nil => 0,
        }
    }
}

/// Encodes an untagged SET command.
pub fn encode_set(key: &[u8], value: &[u8]) -> Vec<u8> {
    encode_array(&[Some(b"SET"), Some(key), Some(value)])
}

/// Encodes an untagged GET command.
pub fn encode_get(key: &[u8]) -> Vec<u8> {
    encode_array(&[Some(b"GET"), Some(key)])
}

/// Encodes a response.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Ok => b"+OK\r\n".to_vec(),
        Response::Nil => b"$-1\r\n".to_vec(),
        Response::Value(v) => {
            let mut out = Vec::with_capacity(v.len() + 16);
            push_bulk(&mut out, v);
            out
        }
    }
}

/// Writes the arguments that are present as one array of bulk strings (an
/// absent one is the request id of an untagged command).
fn encode_array(args: &[Option<&[u8]>]) -> Vec<u8> {
    let present = || args.iter().flatten();
    let mut out = Vec::with_capacity(present().map(|arg| arg.len() + 16).sum::<usize>() + 8);
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
/// of `n` bytes.
fn push_header(out: &mut Vec<u8>, kind: u8, n: usize) {
    out.push(kind);
    out.extend_from_slice(n.to_string().as_bytes());
    out.extend_from_slice(b"\r\n");
}

/// Reads one `\r\n`-terminated line starting at `from`; returns the line
/// (without terminator) and the total bytes consumed.
fn read_line(data: &[u8]) -> Option<(&[u8], usize)> {
    let nl = data.windows(2).position(|w| w == b"\r\n")?;
    Some((&data[..nl], nl + 2))
}

fn parse_usize(data: &[u8]) -> Option<usize> {
    let s = std::str::from_utf8(data).ok()?;
    s.parse().ok()
}

/// Reads a `$len\r\n<bytes>\r\n` bulk string; returns the payload and the
/// bytes consumed. A `$-1` null bulk returns `None` payload.
fn read_bulk(data: &[u8]) -> Option<(Option<&[u8]>, usize)> {
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
    Some((Some(&data[h..h + len]), h + len + 2))
}

/// Incremental parser over one direction of one connection's byte stream:
/// [`next_command`](Self::next_command) on the side that serves,
/// [`next_response`](Self::next_response) on the side that asked.
#[derive(Debug, Default)]
pub struct RespStream {
    buf: Vec<u8>,
    /// Bytes of `buf` already parsed.
    pos: usize,
}

/// The read side of a connection that carries commands.
pub type CommandParser = RespStream;
/// The read side of a connection that carries responses.
pub type ResponseParser = RespStream;

impl RespStream {
    /// Creates an empty parser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw stream bytes.
    pub fn feed(&mut self, data: &[u8]) {
        // Compact before growing if most of the buffer is consumed.
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(data);
    }

    /// Bytes buffered but not yet parsed into a complete message.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Extracts the next complete command, if any.
    ///
    /// # Panics
    ///
    /// Panics on malformed input (the simulation's peers are trusted; a
    /// production implementation would return an error).
    pub fn next_command(&mut self) -> Option<Command> {
        let data = &self.buf[self.pos..];
        let (header, mut used) = read_line(data)?;
        assert_eq!(header.first(), Some(&b'*'), "expected array header");
        let nargs = parse_usize(&header[1..]).expect("array length");
        let mut args: Vec<Payload> = Vec::with_capacity(nargs);
        for _ in 0..nargs {
            let (bulk, n) = read_bulk(&data[used..])?;
            args.push(Payload::copy_from_slice(bulk.expect("commands have no null args")));
            used += n;
        }
        self.pos += used;
        let id_arg = |arg: &Payload| {
            let bytes: [u8; 8] = arg.as_ref().try_into().expect("request id is 8 bytes");
            u64::from_be_bytes(bytes)
        };
        match args[0].as_ref() {
            b"SET" => {
                assert!(
                    args.len() == 3 || args.len() == 4,
                    "SET key value [id]"
                );
                Some(Command::Set {
                    key: args[1].clone(),
                    value: args[2].clone(),
                    id: args.get(3).map(id_arg),
                })
            }
            b"GET" => {
                assert!(args.len() == 2 || args.len() == 3, "GET key [id]");
                Some(Command::Get {
                    key: args[1].clone(),
                    id: args.get(2).map(id_arg),
                })
            }
            other => panic!("unsupported command {:?}", String::from_utf8_lossy(other)),
        }
    }

    /// Extracts the next complete response, if any.
    ///
    /// # Panics
    ///
    /// Panics on malformed input.
    pub fn next_response(&mut self) -> Option<Response> {
        let data = &self.buf[self.pos..];
        let (resp, used) = match data.first()? {
            b'+' => {
                let (line, used) = read_line(data)?;
                assert_eq!(line, b"+OK", "only +OK simple strings are used");
                (Response::Ok, used)
            }
            b'$' => {
                let (bulk, used) = read_bulk(data)?;
                let resp = match bulk {
                    Some(v) => Response::Value(Payload::copy_from_slice(v)),
                    None => Response::Nil,
                };
                (resp, used)
            }
            other => panic!("unexpected response type byte {other:#x}"),
        };
        self.pos += used;
        Some(resp)
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
        p.feed(&encode_get(b"k"));
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
                    let get = Command::Get { key: key.clone().into(), id };
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
        let mut p = ResponseParser::new();
        p.feed(&encode_response(&Response::Ok));
        assert_eq!(p.next_response(), Some(Response::Ok));
    }

    #[test]
    fn response_value_roundtrip() {
        let v = vec![9u8; 16384];
        let mut p = ResponseParser::new();
        p.feed(&encode_response(&Response::Value(v.clone().into())));
        assert_eq!(p.next_response(), Some(Response::Value(v.into())));
    }

    #[test]
    fn response_nil_roundtrip() {
        let mut p = ResponseParser::new();
        p.feed(&encode_response(&Response::Nil));
        assert_eq!(p.next_response(), Some(Response::Nil));
    }

    #[test]
    fn interleaved_response_stream() {
        let mut wire = encode_response(&Response::Ok);
        wire.extend(encode_response(&Response::Value(Payload::from_static(b"xy"))));
        wire.extend(encode_response(&Response::Ok));
        let mut p = ResponseParser::new();
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
            p.feed(&encode_set(key.as_bytes(), &[0u8; 100]));
            let cmd = p.next_command().expect("complete command");
            match cmd {
                Command::Set { key: k, .. } => assert_eq!(k.as_ref(), key.as_bytes()),
                other => panic!("wrong {other:?}"),
            }
        }
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
