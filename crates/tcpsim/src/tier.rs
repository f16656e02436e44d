//! The two-tier datacenter simulation: clients → proxy → sharded servers.
//!
//! [`TierSim`] instantiates [`Topology::two_tier`] over the same
//! [`SimCore`](crate::sim) machinery that powers the star
//! [`NetSim`](crate::NetSim): N client hosts (ids `0..n`) each hold one
//! spoke link to a single proxy host (id `n`), which in turn holds one
//! link per shard host (ids `n+1..=n+k`). Clients' plain
//! [`HostCtx::connect`](crate::HostCtx::connect) terminates at the proxy;
//! the proxy opens its per-shard upstream connections explicitly with
//! [`HostCtx::connect_to`](crate::HostCtx::connect_to), through the very
//! same TCP stack — every batching mechanism (Nagle, delayed ACKs,
//! corking, TSO) is live on both legs of every request.
//!
//! The event order, RNG splitting, fault machinery, and
//! execution-context convention are identical to the star simulation —
//! the only thing this type adds is app dispatch across three roles
//! instead of two. Restart faults draw from the client tier
//! (hosts `0..n`), matching the star's semantics; stall schedules land on
//! the proxy's application thread, the shared-CPU choke point of the
//! topology. The tier-aware shard faults
//! ([`ShardFaultPlan`](simnet::ShardFaultPlan)) add scheduled shard
//! crashes (both ends of each proxy↔shard connection reset) and
//! slow-shard CPU brownouts on top — composable with the client-tier
//! restart chaos, each class on its own RNG stream.

use simnet::{
    DuplexLink, EventQueue, FaultConfig, FaultPlan, HostId, LinkConfig, LinkId, Store, Topology,
    World,
};

use crate::host::Host;
use crate::segment::Segment;
use crate::sim::{App, AppEvent, Event, SimCore};

/// A complete two-tier simulation: N clients, one proxy, K shards.
pub struct TierSim<C: App, P: App, S: App> {
    /// The client applications (client `i` runs on host `i`).
    pub clients: Vec<C>,
    /// The proxy application (runs on host `num_clients`).
    pub proxy: P,
    /// The shard applications (shard `j` runs on host `num_clients+1+j`).
    pub shards: Vec<S>,
    core: SimCore,
}

impl<C: App, P: App, S: App> TierSim<C, P, S> {
    /// Assembles a two-tier simulation. Client host `i` must carry
    /// `HostId(i)`, the proxy host `HostId(n)`, and shard host `j`
    /// `HostId(n+1+j)`. Every client spoke uses `client_link`, every
    /// proxy→shard link `shard_link`. `fault_config` is layered over
    /// every link, its stall schedules targeting the proxy's application
    /// thread; a fully disabled one (`FaultConfig::default()`) installs
    /// nothing and draws nothing.
    ///
    /// # Panics
    ///
    /// Panics when `clients` or `shards` is empty, the app and host lists
    /// disagree in length, a host id does not match its topology index, or
    /// a shard fault names a shard the tier does not have.
    #[expect(
        clippy::too_many_arguments,
        reason = "one argument per topology part; the callers name each at the call site"
    )]
    pub fn two_tier_with_faults(
        clients: Vec<C>,
        proxy: P,
        shards: Vec<S>,
        client_hosts: Vec<Host>,
        proxy_host: Host,
        shard_hosts: Vec<Host>,
        client_link: LinkConfig,
        shard_link: LinkConfig,
        seed: u64,
        fault_config: FaultConfig,
    ) -> Self {
        assert!(
            !clients.is_empty(),
            "two-tier simulation needs at least one client"
        );
        assert!(
            !shards.is_empty(),
            "two-tier simulation needs at least one shard"
        );
        assert_eq!(clients.len(), client_hosts.len(), "one host per client app");
        assert_eq!(shards.len(), shard_hosts.len(), "one host per shard app");
        let n = clients.len();
        let k = shards.len();
        let proxy_id = HostId::from_index(n);
        let mut hosts = client_hosts;
        hosts.push(proxy_host);
        hosts.extend(shard_hosts);
        // Clients' plain connect() goes to the proxy. The proxy's own
        // entry also points at the proxy — connect_to rejects the
        // self-connection, forcing its upstreams through connect_to —
        // and shards never initiate, so the uniform vector is correct
        // everywhere.
        let default_peers = vec![proxy_id; n + 1 + k];
        let topology = Topology::two_tier(n, k, client_link, shard_link);
        let mut core = SimCore::new(hosts, topology, default_peers, n, seed);
        // Shard `j` runs on host `n+1+j`; telling the core makes the
        // tier-aware shard faults (crash, brownout) resolvable. Star sims
        // leave this unset.
        core.shard_tier = Some((n + 1, k));
        core.install_faults(fault_config, seed, proxy_id);
        TierSim {
            clients,
            proxy,
            shards,
            core,
        }
    }

    /// Invokes every application's `on_start` back-to-front: shards first
    /// (so they are listening), then the proxy (which opens its upstream
    /// connections), then clients in host order. When the fault plan
    /// schedules endpoint restarts or shard crashes, the first events of
    /// both chains are queued here — the two chaos kinds compose, each on
    /// its own RNG stream.
    pub fn start(&mut self, queue: &mut EventQueue<Event>) {
        self.core.schedule_first_restart(queue);
        self.core.schedule_first_shard_crash(queue);
        for (j, shard) in self.shards.iter_mut().enumerate() {
            let id = HostId::from_index(self.clients.len() + 1 + j);
            shard.on_start(&mut self.core.ctx(queue, id));
        }
        let proxy_id = self.proxy_id();
        self.proxy.on_start(&mut self.core.ctx(queue, proxy_id));
        for (i, client) in self.clients.iter_mut().enumerate() {
            client.on_start(&mut self.core.ctx(queue, HostId::from_index(i)));
        }
    }

    /// Number of client hosts.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// Number of shard hosts.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Id of the proxy host.
    fn proxy_id(&self) -> HostId {
        HostId::from_index(self.clients.len())
    }

    /// Index of shard `j`'s host.
    fn shard_index(&self, shard: usize) -> usize {
        assert!(shard < self.shards.len(), "no shard {shard}");
        self.clients.len() + 1 + shard
    }

    /// Access a host by index.
    pub fn host(&self, idx: usize) -> &Host {
        &self.core.hosts[idx]
    }

    /// Mutable access to a host by index.
    pub fn host_mut(&mut self, idx: usize) -> &mut Host {
        &mut self.core.hosts[idx]
    }

    /// The proxy host (both tiers' connections terminate here).
    pub fn proxy_host(&self) -> &Host {
        &self.core.hosts[self.clients.len()]
    }

    /// Shard `j`'s host.
    pub fn shard_host(&self, shard: usize) -> &Host {
        &self.core.hosts[self.shard_index(shard)]
    }

    /// The spoke link serving client `i`.
    pub fn client_link(&self, client: usize) -> &DuplexLink {
        assert!(client < self.clients.len(), "no client {client}");
        self.core.topology.link(LinkId::from_index(client))
    }

    /// The upstream link serving shard `j`.
    pub fn shard_link(&self, shard: usize) -> &DuplexLink {
        assert!(shard < self.shards.len(), "no shard {shard}");
        self.core
            .topology
            .link(LinkId::from_index(self.clients.len() + shard))
    }

    /// The fault plan, if fault injection is active (for audit counters).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.core.faults.as_ref()
    }

    /// The store of segments in flight (see
    /// [`NetSim::segment_store`](crate::NetSim::segment_store)).
    pub fn segment_store(&self) -> &Store<Segment> {
        self.core.actions.segments()
    }
}

impl<C: App, P: App, S: App> World for TierSim<C, P, S> {
    type Event = Event;

    fn handle(&mut self, queue: &mut EventQueue<Event>, event: Event) {
        let Some(app) = self.core.handle_infra(queue, event) else {
            return;
        };
        let n = self.clients.len();
        match app {
            AppEvent::Wake(h, sock, reason) => {
                let mut ctx = self.core.ctx(queue, h);
                match h.index() {
                    i if i < n => self.clients[i].on_wake(&mut ctx, sock, reason),
                    i if i == n => self.proxy.on_wake(&mut ctx, sock, reason),
                    i => self.shards[i - n - 1].on_wake(&mut ctx, sock, reason),
                }
            }
            AppEvent::Call(h, token) => {
                let mut ctx = self.core.ctx(queue, h);
                match h.index() {
                    i if i < n => self.clients[i].on_call(&mut ctx, token),
                    i if i == n => self.proxy.on_call(&mut ctx, token),
                    i => self.shards[i - n - 1].on_call(&mut ctx, token),
                }
            }
        }
    }
}
