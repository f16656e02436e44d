//! Multi-host topologies: hosts joined by duplex links in an arbitrary
//! graph.
//!
//! A [`Topology`] is a set of hosts (identified by [`HostId`]) and the
//! [`DuplexLink`]s joining pairs of them (identified by [`LinkId`]). The
//! graph is built once, up front, through [`Topology::builder`] or a shape
//! constructor, and only the links carry state — host state and flow
//! routing stay with the protocol layer.
//!
//! Two shapes cover the repo's experiments:
//!
//! * [`Topology::star`] — N client hosts, one server host, N independent
//!   spokes: the fan-in shape of a key-value service (many load
//!   generators, one Redis). Clients occupy hosts `0..n`, the server sits
//!   at host `n`, and link `i` joins client `i` (endpoint *a*) to the
//!   server (endpoint *b*) — so the classic two-host pair is exactly the
//!   `N = 1` special case, and link/direction numbering is unchanged from
//!   the original star-only topology (fault plans replay bit-for-bit).
//! * [`Topology::two_tier`] — N clients, one proxy, K shard servers: the
//!   datacenter shape where a request crosses two links and the
//!   end-to-end estimate composes per leg. Clients occupy `0..n`, the
//!   proxy `n`, the shards `n+1..=n+k`; client spokes keep the star's
//!   link numbering `0..n` and shard links follow at `n..n+k`.
//!
//! All events still flow through one global `(time, seq)`-ordered
//! [`EventQueue`](crate::EventQueue), so adding hosts or links never
//! perturbs the deterministic event order of an existing pair.

use crate::link::{DuplexLink, Link, LinkConfig};

/// A host in the topology, by dense index.
///
/// Mint one, at a true boundary, with [`HostId::from_index`] — the field
/// is private, so index arithmetic cannot silently masquerade as routing:
///
/// ```
/// assert_eq!(simnet::HostId::from_index(3).index(), 3);
/// ```
///
/// ```compile_fail,E0423
/// let _ = simnet::HostId(3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(usize);

impl HostId {
    /// Explicit conversion from a dense index — the only way to mint a
    /// `HostId` outside this module.
    pub const fn from_index(index: usize) -> Self {
        HostId(index)
    }

    /// The dense index back.
    pub const fn index(self) -> usize {
        self.0
    }
}

/// A duplex link in the topology, by dense index.
///
/// Directed quantities (fault lanes, per-direction counters) pair a
/// `LinkId` with an `a_to_b` flag naming the direction from the link's
/// endpoint *a* toward *b* (see [`Topology::two_tier`]). Like
/// [`HostId`], it is minted only through [`LinkId::from_index`]:
///
/// ```
/// assert_eq!(simnet::LinkId::from_index(0).index(), 0);
/// ```
///
/// ```compile_fail,E0423
/// let _ = simnet::LinkId(0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(usize);

impl LinkId {
    /// Explicit conversion from a dense index (see [`HostId::from_index`]).
    pub const fn from_index(index: usize) -> Self {
        LinkId(index)
    }

    /// The dense index back.
    pub const fn index(self) -> usize {
        self.0
    }
}

/// Hosts and the duplex links joining them.
#[derive(Debug, Clone)]
pub struct Topology {
    links: Vec<DuplexLink>,
    /// Per-host adjacency `(peer, link, a_to_b)`, sorted by peer for
    /// binary-search hop lookup on the transmit hot path.
    adj: Vec<Vec<(HostId, LinkId, bool)>>,
}

/// Accumulates links before freezing them into a [`Topology`].
#[derive(Debug)]
pub(crate) struct TopologyBuilder {
    num_hosts: usize,
    links: Vec<(HostId, HostId, LinkConfig)>,
}

impl TopologyBuilder {
    /// Adds a duplex link joining `a` and `b`; the link's `a_to_b`
    /// direction is `a → b`. Links are numbered in insertion order.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range host or a self-link. A second link
    /// joining the same pair is refused by [`build`](Self::build).
    pub(crate) fn link(mut self, a: HostId, b: HostId, config: LinkConfig) -> Self {
        assert!(a.0 < self.num_hosts, "link endpoint {a:?} out of range");
        assert!(b.0 < self.num_hosts, "link endpoint {b:?} out of range");
        assert_ne!(a, b, "self-links are not allowed: {a:?}");
        self.links.push((a, b, config));
        self
    }

    /// Freezes the graph, in O(L log L) over L links.
    ///
    /// # Panics
    ///
    /// Panics when the graph has no links (a topology must connect
    /// something), or when two links join the same pair of hosts (one
    /// pipe per host pair keeps hop lookup unambiguous).
    pub(crate) fn build(self) -> Topology {
        assert!(!self.links.is_empty(), "topology needs at least one link");
        let mut links = Vec::with_capacity(self.links.len());
        let mut adj: Vec<Vec<(HostId, LinkId, bool)>> = vec![Vec::new(); self.num_hosts];
        for (i, (a, b, config)) in self.links.into_iter().enumerate() {
            let id = LinkId(i);
            links.push(DuplexLink::new(config));
            adj[a.0].push((b, id, true));
            adj[b.0].push((a, id, false));
        }
        for (host, list) in adj.iter_mut().enumerate() {
            list.sort_unstable_by_key(|(peer, _, _)| *peer);
            // Sorted by peer, a pair joined twice lists its peer twice in a row.
            for pair in list.windows(2) {
                let (a, b) = (HostId(host), pair[0].0);
                assert_ne!(b, pair[1].0, "duplicate link between {a:?} and {b:?}");
            }
        }
        Topology { links, adj }
    }
}

impl Topology {
    /// Starts building a graph over `num_hosts` hosts.
    ///
    /// # Panics
    ///
    /// Panics when `num_hosts < 2` (a link needs two ends).
    pub(crate) fn builder(num_hosts: usize) -> TopologyBuilder {
        assert!(num_hosts >= 2, "topology needs at least two hosts");
        TopologyBuilder {
            num_hosts,
            links: Vec::new(),
        }
    }

    /// The star: `num_clients` clients (hosts `0..n`, link endpoint *a*)
    /// joined to one server (host `n`, endpoint *b*) by identical spokes,
    /// link `i` serving client `i`.
    ///
    /// # Panics
    ///
    /// Panics when `num_clients` is zero (a star needs at least one
    /// spoke).
    pub fn star(num_clients: usize, config: LinkConfig) -> Topology {
        assert!(num_clients > 0, "star topology needs at least one client");
        let server = HostId(num_clients);
        let mut b = Topology::builder(num_clients + 1);
        for i in 0..num_clients {
            b = b.link(HostId(i), server, config);
        }
        b.build()
    }

    /// The two-tier datacenter: `num_clients` clients (hosts `0..n`)
    /// joined to one proxy (host `n`) by `client_link` spokes numbered
    /// `0..n` exactly as in a star, and the proxy joined to `num_shards`
    /// shard servers (hosts `n+1..=n+k`) by `shard_link` links numbered
    /// `n..n+k`. The proxy is endpoint *a* of every shard link, so
    /// `a_to_b` means "toward the shard" there and "toward the proxy" on
    /// client spokes.
    ///
    /// # Panics
    ///
    /// Panics when `num_clients` or `num_shards` is zero.
    pub fn two_tier(
        num_clients: usize,
        num_shards: usize,
        client_link: LinkConfig,
        shard_link: LinkConfig,
    ) -> Topology {
        assert!(
            num_clients > 0,
            "two-tier topology needs at least one client"
        );
        assert!(num_shards > 0, "two-tier topology needs at least one shard");
        let proxy = HostId(num_clients);
        let mut b = Topology::builder(num_clients + 1 + num_shards);
        for i in 0..num_clients {
            b = b.link(HostId(i), proxy, client_link);
        }
        for j in 0..num_shards {
            b = b.link(proxy, HostId(num_clients + 1 + j), shard_link);
        }
        b.build()
    }

    /// Total hosts in the graph.
    pub fn num_hosts(&self) -> usize {
        self.adj.len()
    }

    /// Total duplex links in the graph.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// The hosts adjacent to `host`, with the link serving each.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range host.
    #[cfg(test)]
    fn neighbors(&self, host: HostId) -> &[(HostId, LinkId, bool)] {
        &self.adj[host.0]
    }

    /// The directed hop a transmission from `from` to `to` enters:
    /// the link id and whether that traversal runs in the link's `a_to_b`
    /// direction. This is the stable index fault plans key their
    /// per-directed-lane state by.
    ///
    /// # Panics
    ///
    /// Panics when the hosts are not adjacent (multi-hop routing is the
    /// protocol layer's job, one link at a time).
    #[expect(
        clippy::panic,
        reason = "routing over a missing link is a topology-construction bug"
    )]
    pub fn hop_index(&self, from: HostId, to: HostId) -> (LinkId, bool) {
        let list = &self.adj[from.0];
        match list.binary_search_by_key(&to, |(peer, _, _)| *peer) {
            Ok(i) => {
                let (_, link, a_to_b) = list[i];
                (link, a_to_b)
            }
            Err(_) => panic!("no link joins {from:?} and {to:?}"),
        }
    }

    /// The directional link a transmission from `from` to `to` enters.
    ///
    /// # Panics
    ///
    /// Panics when the hosts are not adjacent.
    #[cfg(test)]
    fn hop_mut(&mut self, from: HostId, to: HostId) -> &mut Link {
        let (link, a_to_b) = self.hop_index(from, to);
        self.directed_mut(link, a_to_b)
    }

    /// One direction of a link by `(id, a_to_b)` — the pair
    /// [`hop_index`](Self::hop_index) returns.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range link.
    pub fn directed_mut(&mut self, link: LinkId, a_to_b: bool) -> &mut Link {
        let l = &mut self.links[link.0];
        if a_to_b {
            &mut l.a_to_b
        } else {
            &mut l.b_to_a
        }
    }

    /// The duplex link with the given id.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range link.
    pub fn link(&self, id: LinkId) -> &DuplexLink {
        &self.links[id.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use littles::Nanos;

    #[test]
    fn star_indices_follow_the_two_host_convention_at_n1() {
        let t = Topology::star(1, LinkConfig::default());
        assert_eq!(t.num_hosts(), 2);
        assert_eq!(t.num_links(), 1);
        assert_eq!(t.hop_index(HostId(0), HostId(1)), (LinkId(0), true));
        assert_eq!(t.hop_index(HostId(1), HostId(0)), (LinkId(0), false));
    }

    #[test]
    fn star_hops_route_through_the_right_direction() {
        let mut t = Topology::star(3, LinkConfig::default());
        t.hop_mut(HostId(2), HostId(3)).transmit(Nanos::ZERO, 100);
        assert_eq!(t.link(LinkId(2)).a_to_b.packets_sent(), 1);
        assert_eq!(t.link(LinkId(2)).b_to_a.packets_sent(), 0);
        t.hop_mut(HostId(3), HostId(0)).transmit(Nanos::ZERO, 100);
        assert_eq!(t.link(LinkId(0)).b_to_a.packets_sent(), 1);
        // Spokes are independent pipes.
        assert_eq!(t.link(LinkId(1)).a_to_b.packets_sent(), 0);
        assert_eq!(t.link(LinkId(1)).b_to_a.packets_sent(), 0);
    }

    #[test]
    #[should_panic(expected = "no link joins")]
    fn client_to_client_hop_panics() {
        let t = Topology::star(2, LinkConfig::default());
        let _ = t.hop_index(HostId(0), HostId(1));
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn empty_star_panics() {
        let _ = Topology::star(0, LinkConfig::default());
    }

    #[test]
    fn two_tier_keeps_star_spoke_numbering_and_appends_shard_links() {
        let t = Topology::two_tier(4, 2, LinkConfig::default(), LinkConfig::default());
        // 4 clients + proxy + 2 shards.
        assert_eq!(t.num_hosts(), 7);
        assert_eq!(t.num_links(), 6);
        let proxy = HostId(4);
        // Client spokes identical to a 4-client star.
        for i in 0..4 {
            assert_eq!(t.hop_index(HostId(i), proxy), (LinkId(i), true));
        }
        // Shard links follow, proxy as endpoint a.
        assert_eq!(t.hop_index(proxy, HostId(5)), (LinkId(4), true));
        assert_eq!(t.hop_index(HostId(6), proxy), (LinkId(5), false));
    }

    #[test]
    #[should_panic(expected = "no link joins")]
    fn client_to_shard_hop_panics_in_two_tier() {
        let t = Topology::two_tier(2, 2, LinkConfig::default(), LinkConfig::default());
        let _ = t.hop_index(HostId(0), HostId(3));
    }

    #[test]
    fn builder_rejects_duplicate_and_self_links() {
        let r = std::panic::catch_unwind(|| {
            Topology::builder(3)
                .link(HostId(0), HostId(1), LinkConfig::default())
                .link(HostId(1), HostId(0), LinkConfig::default())
                .build()
        });
        assert!(r.is_err(), "reversed duplicate must be rejected");
        let r = std::panic::catch_unwind(|| {
            Topology::builder(2).link(HostId(1), HostId(1), LinkConfig::default())
        });
        assert!(r.is_err(), "self-link must be rejected");
    }

    #[test]
    #[should_panic(expected = "duplicate link between HostId(1) and HostId(3)")]
    fn build_refuses_a_pair_joined_twice() {
        let _ = Topology::builder(4)
            .link(HostId(0), HostId(1), LinkConfig::default())
            .link(HostId(3), HostId(1), LinkConfig::default())
            .link(HostId(2), HostId(1), LinkConfig::default())
            .link(HostId(1), HostId(3), LinkConfig::default())
            .build();
    }

    #[test]
    fn neighbors_are_sorted_by_peer() {
        let t = Topology::two_tier(3, 2, LinkConfig::default(), LinkConfig::default());
        let proxy = HostId(3);
        let peers: Vec<usize> = t.neighbors(proxy).iter().map(|(p, _, _)| p.0).collect();
        let mut sorted = peers.clone();
        sorted.sort_unstable();
        assert_eq!(peers, sorted);
        assert_eq!(peers.len(), 5);
    }

    #[test]
    fn id_index_roundtrip() {
        assert_eq!(HostId::from_index(7).index(), 7);
        assert_eq!(LinkId::from_index(3).index(), 3);
    }
}
