//! The traced driver: `NocSim` rebuilt on a benchmark-owned [`Kernel`]
//! whose model wrapper ([`Timed`]) times every dispatch into
//! [`Network`]'s public [`Model::handle`] and buckets it by
//! [`Model::event_kind`].
//!
//! [`TracedSim`] rebuilds the `NocSim` operations the mixed meshes use
//! from public calls only (`plan_open`, `Router::program`,
//! `NaArena::bind_tx`/`enqueue_be`, `Network::add_source`,
//! `SimRng::fork`). The traced run is checked to be the same program by
//! comparing its digest and per-kind dispatch counts with the untraced
//! run's.

use mango_core::{ConnectionId, RouterId};
use mango_net::{
    ConnError, NetEvent, Network, PatternState, Source, SourceKind, SpatialPattern, TemporalSpec,
};
use mango_sim::{Ctx, Kernel, Model, RunOutcome, SimDuration, SimRng, WheelGeometry};
use std::time::Instant;

/// Event kinds `Network` reports (`Model::event_kind_names().len()`).
pub const KINDS: usize = 11;

/// Per-kind dispatch ledger of one traced window.
#[derive(Debug, Clone, Default)]
pub struct KindLedger {
    /// Dispatches per event kind.
    pub count: [u64; KINDS],
    /// Summed bracket time per event kind, ns (timer cost included).
    pub ns: [u64; KINDS],
}

/// Model wrapper: delegates to `Network` and, while `on`, times each
/// dispatch.
#[derive(Debug)]
pub struct Timed {
    pub net: Network,
    pub on: bool,
    pub ledger: KindLedger,
}

impl Model for Timed {
    type Event = NetEvent;

    #[inline]
    fn handle(&mut self, event: NetEvent, ctx: &mut Ctx<NetEvent>) {
        if !self.on {
            self.net.handle(event, ctx);
            return;
        }
        let kind = self.net.event_kind(&event);
        let t0 = Instant::now();
        self.net.handle(event, ctx);
        let dt = t0.elapsed().as_nanos() as u64;
        self.ledger.count[kind] += 1;
        self.ledger.ns[kind] += dt;
    }

    fn quiescent(&self) -> bool {
        self.net.quiescent()
    }

    fn event_kind_names(&self) -> &'static [&'static str] {
        self.net.event_kind_names()
    }

    fn event_kind(&self, event: &NetEvent) -> usize {
        self.net.event_kind(event)
    }
}

/// `NocSim` rebuilt on a benchmark-owned kernel around [`Timed`].
#[derive(Debug)]
pub struct TracedSim {
    kernel: Kernel<Timed>,
    rng: SimRng,
    next_stream: u64,
}

impl TracedSim {
    /// As `NocSim::new`: the wheel geometry comes from the mesh size and
    /// the router timing.
    pub fn new(network: Network, seed: u64) -> Self {
        assert_eq!(network.event_kind_names().len(), KINDS);
        let geometry = WheelGeometry::for_mesh(
            network.grid().len(),
            network.router_timing().min_event_delay().as_ps(),
        );
        TracedSim {
            kernel: Kernel::with_geometry(
                Timed {
                    net: network,
                    on: false,
                    ledger: KindLedger::default(),
                },
                geometry,
            ),
            rng: SimRng::new(seed),
            next_stream: 0,
        }
    }

    /// Starts timing dispatches with an empty ledger.
    pub fn start_timing(&mut self) {
        let m = self.kernel.model_mut();
        m.on = true;
        m.ledger = KindLedger::default();
    }

    /// Stops timing and hands back the ledger.
    pub fn stop_timing(&mut self) -> KindLedger {
        let m = self.kernel.model_mut();
        m.on = false;
        std::mem::take(&mut m.ledger)
    }

    pub fn net(&self) -> &Network {
        &self.kernel.model().net
    }

    pub fn events(&self) -> u64 {
        self.kernel.events_processed()
    }

    pub fn run_for(&mut self, span: SimDuration) -> RunOutcome {
        self.kernel.run_for(span)
    }

    /// As `NocSim::begin_measurement`.
    pub fn begin_measurement(&mut self) {
        let now = self.kernel.now();
        self.net_mut().stats_mut().begin_measurement(now);
    }

    /// As `NocSim::wait_connections_settled`.
    pub fn settle(&mut self) -> Result<(), String> {
        for _ in 0..10_000 {
            if self.net().connections().all_settled() {
                return Ok(());
            }
            match self.kernel.run_for(SimDuration::from_us(1)) {
                RunOutcome::Stalled => return Err("programming traffic stalled".into()),
                RunOutcome::Quiescent if !self.net().connections().all_settled() => {
                    return Err("drained before connections settled".into())
                }
                _ => {}
            }
        }
        Err("connections did not settle within 10 ms".into())
    }

    fn net_mut(&mut self) -> &mut Network {
        &mut self.kernel.model_mut().net
    }

    fn fork_rng(&mut self) -> SimRng {
        let stream = self.next_stream;
        self.next_stream += 1;
        self.rng.fork(stream)
    }

    /// As `NocSim::open_connection`: programs the source router, binds
    /// the NA interface and queues the config packets for an XY
    /// connection.
    pub fn open(&mut self, src: RouterId, dst: RouterId) -> Result<ConnectionId, ConnError> {
        let net = self.net_mut();
        let plan = net.plan_open(src, dst)?;
        let idx = net.grid().index(src);
        net.node_mut(src).router.program(&plan.local_writes);
        net.na_mut().bind_tx(idx, plan.tx_iface, plan.tx_steer);
        let delay = net.inject_delay();
        let mut need_kick = false;
        for packet in plan.config_packets {
            if net.na_mut().enqueue_be(idx, packet) {
                need_kick = true;
            }
        }
        if need_kick {
            self.kernel
                .schedule(delay, NetEvent::NaBeInject { id: src });
        }
        Ok(plan.id)
    }

    /// As `NocSim::add_gs_source` on an open connection.
    pub fn add_gs_source(&mut self, conn: ConnectionId, pattern: TemporalSpec, name: &str) -> u32 {
        let record = self
            .net()
            .connections()
            .get(conn)
            .expect("GS source needs an open connection")
            .clone();
        let kind = SourceKind::Gs {
            conn,
            router: record.src,
            iface: record.tx_iface,
        };
        self.add_source(kind, pattern, name)
    }

    /// As `NocSim::add_traffic_source` with the default emit window.
    pub fn add_traffic_source(
        &mut self,
        src: RouterId,
        spatial: SpatialPattern,
        payload_words: usize,
        pattern: TemporalSpec,
        name: &str,
    ) -> u32 {
        let kind = SourceKind::Be {
            router: src,
            spatial,
            payload_words,
        };
        self.add_source(kind, pattern, name)
    }

    /// As `NocSim`'s source attachment with the default emit window:
    /// start now, no stop, no limit.
    fn add_source(&mut self, kind: SourceKind, pattern: TemporalSpec, name: &str) -> u32 {
        let rng = self.fork_rng();
        let now = self.kernel.now();
        let net = self.net_mut();
        let flow = net.stats_mut().register_flow(name);
        let idx = net.add_source(Source {
            kind,
            pattern,
            state: PatternState::default(),
            flow,
            start: now,
            stop: None,
            limit: None,
            emitted: 0,
            rng,
            done: false,
        });
        self.kernel
            .schedule(SimDuration::ZERO, NetEvent::SourceTick { idx });
        flow
    }
}
