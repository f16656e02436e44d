//! The in-memory key-value store behind the Redis-like server.

use std::collections::VecDeque;
#[expect(
    clippy::disallowed_types,
    reason = "KvStore's two hash collections are lookup-only, never iterated"
)]
use std::collections::{HashMap, HashSet};

use tcpsim::Payload;

use crate::resp::{Command, Response};

/// How many recently applied request ids the dedup window remembers.
/// Retries and hedges race their originals by at most a few deadlines, so
/// a few thousand requests of memory is orders of magnitude more than the
/// proxy can have outstanding.
const DEDUP_WINDOW: usize = 4096;

/// A trivially simple hash-map KV store.
///
/// A SET keeps its value as the view the parser handed out, so the value
/// is never copied. A key is copied when it is first inserted (16 B): a
/// key view would pin the whole request buffer it arrived in for as long
/// as the key lives, and an overwrite replaces only the value.
///
/// Commands tagged with a request id (a [`Command`]'s `id`) are applied
/// *idempotently*: a SET whose id was already applied is acknowledged
/// without re-executing, so a retry racing its original — or a hedge
/// racing its primary — never double-applies. The window of remembered
/// ids is bounded (`DEDUP_WINDOW`); untagged commands bypass it.
#[derive(Debug, Default)]
#[expect(
    clippy::disallowed_types,
    reason = "`map` and `seen` are lookup-only, never iterated"
)]
pub struct KvStore {
    map: HashMap<Payload, Payload>,
    /// Applied tagged-SET ids, membership set + FIFO eviction order.
    seen: HashSet<u64>,
    seen_order: VecDeque<u64>,
    dedup_hits: u64,
}

impl KvStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a tagged-SET id; true when it was already applied.
    fn already_applied(&mut self, id: u64) -> bool {
        if self.seen.contains(&id) {
            self.dedup_hits += 1;
            return true;
        }
        self.seen.insert(id);
        self.seen_order.push_back(id);
        if self.seen_order.len() > DEDUP_WINDOW {
            #[expect(
                clippy::expect_used,
                reason = "the window was just pushed past DEDUP_WINDOW > 0 entries"
            )]
            let old = self.seen_order.pop_front().expect("non-empty");
            self.seen.remove(&old);
        }
        false
    }

    /// Executes one command, producing its response.
    pub fn execute(&mut self, cmd: Command) -> Response {
        match cmd {
            Command::Set { key, value, id } => {
                if let Some(id) = id {
                    if self.already_applied(id) {
                        // Duplicate delivery of an already-applied write:
                        // acknowledge without mutating.
                        return Response::Ok;
                    }
                }
                match self.map.get_mut(&key) {
                    Some(stored) => *stored = value,
                    None => {
                        self.map.insert(Payload::copy_from_slice(&key), value);
                    }
                }
                Response::Ok
            }
            Command::Get { key, id: _ } => {
                // Reads are naturally idempotent; re-executing a duplicate
                // GET is harmless and keeps the response fresh.
                match self.map.get(&key) {
                    Some(v) => Response::Value(v.clone()),
                    None => Response::Nil,
                }
            }
        }
    }

    /// Number of keys stored.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.map.len()
    }

    /// Duplicate tagged SETs suppressed by the idempotency window.
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_then_get_hits() {
        let mut kv = KvStore::new();
        assert_eq!(
            kv.execute(Command::Set {
                key: Payload::from_static(b"a"),
                value: Payload::from_static(b"1"),
                id: None,
            }),
            Response::Ok
        );
        assert_eq!(
            kv.execute(Command::Get {
                key: Payload::from_static(b"a"),
                id: None,
            }),
            Response::Value(Payload::from_static(b"1"))
        );
    }

    #[test]
    fn get_missing_is_nil() {
        let mut kv = KvStore::new();
        assert_eq!(
            kv.execute(Command::Get {
                key: Payload::from_static(b"nope"),
                id: None,
            }),
            Response::Nil
        );
        assert_eq!(kv.len(), 0, "a missed GET stores nothing");
    }

    #[test]
    fn set_overwrites() {
        let mut kv = KvStore::new();
        for v in [b"1".as_ref(), b"2".as_ref()] {
            kv.execute(Command::Set {
                key: Payload::from_static(b"k"),
                value: Payload::copy_from_slice(v),
                id: None,
            });
        }
        assert_eq!(kv.len(), 1);
        assert_eq!(
            kv.execute(Command::Get {
                key: Payload::from_static(b"k"),
                id: None,
            }),
            Response::Value(Payload::from_static(b"2"))
        );
    }

    #[test]
    fn the_store_owns_its_keys_and_keeps_value_views() {
        let mut kv = KvStore::new();
        let mut set = |wire: &Payload| {
            let (key, value) = (wire.slice(0, 4), wire.slice(4, wire.len()));
            kv.execute(Command::Set {
                key,
                value,
                id: None,
            });
        };
        let first = Payload::from(b"key1first".to_vec());
        set(&first);
        let second = Payload::from(b"key1second".to_vec());
        set(&second);
        let (key, value) = kv.map.get_key_value(&b"key1"[..]).expect("stored");
        // The key is a copy, made on first insert: it points into neither
        // command's buffer, so neither is pinned by it.
        for wire in [&first, &second] {
            let range = wire.as_ref().as_ptr_range();
            assert!(!range.contains(&key.as_ref().as_ptr()));
        }
        // The value is the latest command's view, not a copy.
        assert!(std::ptr::eq(
            value.as_ref().as_ptr(),
            second.as_ref()[4..].as_ptr()
        ));
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn tagged_set_applies_exactly_once() {
        let mut kv = KvStore::new();
        let set = |v: &'static [u8], id| Command::Set {
            key: Payload::from_static(b"k"),
            value: Payload::from_static(v),
            id: Some(id),
        };
        let get = || Command::Get {
            key: Payload::from_static(b"k"),
            id: None,
        };
        assert_eq!(kv.execute(set(b"first", 42)), Response::Ok);
        // A retry or hedge duplicate: acknowledged, never re-applied —
        // even if the duplicate carries different bytes.
        assert_eq!(kv.execute(set(b"dup", 42)), Response::Ok);
        assert_eq!(kv.dedup_hits(), 1);
        assert_eq!(
            kv.execute(get()),
            Response::Value(Payload::from_static(b"first"))
        );
        // A different id is a different request.
        assert_eq!(kv.execute(set(b"second", 43)), Response::Ok);
        assert_eq!(
            kv.execute(get()),
            Response::Value(Payload::from_static(b"second"))
        );
    }

    #[test]
    fn untagged_sets_bypass_the_window_and_duplicate_gets_are_safe() {
        let mut kv = KvStore::new();
        // Each untagged SET applies: the last value wins.
        for v in [b"v1", b"v2", b"v3"] {
            kv.execute(Command::Set {
                key: Payload::from_static(b"k"),
                value: Payload::from_static(v),
                id: None,
            });
        }
        assert_eq!(kv.dedup_hits(), 0);
        // A duplicate GET executes again and answers again.
        for _ in 0..2 {
            assert_eq!(
                kv.execute(Command::Get {
                    key: Payload::from_static(b"k"),
                    id: Some(7),
                }),
                Response::Value(Payload::from_static(b"v3"))
            );
        }
    }

    #[test]
    fn dedup_window_is_bounded() {
        let mut kv = KvStore::new();
        for id in 0..(DEDUP_WINDOW as u64 + 10) {
            kv.execute(Command::Set {
                key: Payload::from_static(b"k"),
                value: Payload::from_static(b"v"),
                id: Some(id),
            });
        }
        assert!(kv.seen.len() <= DEDUP_WINDOW);
        // The oldest ids were evicted: re-sending id 0 applies again.
        kv.execute(Command::Set {
            key: Payload::from_static(b"k"),
            value: Payload::from_static(b"v"),
            id: Some(0),
        });
        assert_eq!(kv.dedup_hits(), 0);
    }
}
