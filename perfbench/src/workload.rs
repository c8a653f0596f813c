//! The four workloads: construction, the timed run, the output digest,
//! the output checks and the simulated-time metrics.
//!
//! All traffic is open-loop in simulated time (CBR or Poisson sources,
//! Poisson connection and app arrivals). Every simulated-time figure
//! here is a pure function of the workload and its seed.

use crate::replay;
use crate::stats::{mean, quantile};
use mango_apps::{graph, PlacerKind, ServingMetrics, ServingSpec};
use mango_core::{ConnectionId, RouterId};
use mango_net::{
    ConnState, FlowKind, FlowMetric, Network, NocSim, ScenarioMetrics, ScenarioSpec, SourceKind,
    SpatialPattern, TelemetryConfig, TemporalSpec, TopologySpec, TrafficSpec,
};
use mango_qos::{AdmissionController, ChurnMetrics, ChurnSpec, ConnRequest};
use mango_sim::{RunOutcome, SimDuration, SimRng};

/// GS connection period of the mixed workloads and their probes.
const MIXED_GS_PERIOD: SimDuration = SimDuration::from_ns(12);
/// Share of link capacity GS may reserve (the repository default).
pub const MAX_GS_FRAC: f64 = 0.875;
/// Connection probes opened under load after a mixed window.
const PROBES: usize = 8;
/// Longest drain after the sources stop, µs.
const DRAIN_STEPS_US: u32 = 50;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Mixed4x4,
    Mixed32x32,
    Churn8x8,
    ServeVopd8x8,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Mixed4x4,
        Workload::Mixed32x32,
        Workload::Churn8x8,
        Workload::ServeVopd8x8,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Mixed4x4 => "mixed_4x4",
            Workload::Mixed32x32 => "mixed_32x32",
            Workload::Churn8x8 => "churn_8x8",
            Workload::ServeVopd8x8 => "serve_vopd_8x8",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Independent replicas a timed run cycles through, sized so one pass
    /// takes 10–20 s of host time: the run time is the mean of their
    /// median run times and the simulated metrics pool them, so both vary
    /// less from seed to seed.
    pub fn replicas(self) -> u64 {
        match self {
            Workload::Mixed4x4 => 16,
            Workload::Mixed32x32 => 2,
            Workload::Churn8x8 => 10,
            Workload::ServeVopd8x8 => 7,
        }
    }

    /// Set-ups a timed run times before each repetition, over the
    /// replicas in turn: many where one set-up is short, so `setup_s` is
    /// a median over enough samples spread across the whole run.
    pub fn setups_per_repetition(self) -> u32 {
        match self {
            Workload::Mixed4x4 => 8,
            Workload::Mixed32x32 => 2,
            Workload::Churn8x8 | Workload::ServeVopd8x8 => 32,
        }
    }

    /// Mesh side and simulated window of a mixed workload.
    pub fn mixed(self) -> Option<(u8, SimDuration)> {
        match self {
            Workload::Mixed4x4 => Some((4, SimDuration::from_us(500))),
            Workload::Mixed32x32 => Some((32, SimDuration::from_us(3))),
            _ => None,
        }
    }
}

/// The seed of the canary run whose digest is recorded.
pub const CANARY_SEED: u64 = 1;

/// The seed of replica `k` of a run seeded `seed`.
pub fn replica_seed(seed: u64, k: u64) -> u64 {
    SimRng::new(seed).fork(k).next_u64()
}

/// The four simulated-time end-to-end metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimMetrics {
    /// Worst observed GS latency over its analytical bound.
    pub gs_bound_ratio_max: f64,
    /// Mean over BE flows of each flow's p99 latency, ns.
    pub be_latency_p99_ns: f64,
    /// Admitted over offered connections (or app instances).
    pub admit_ratio: f64,
    /// p99 open latency, ns: per connection, or per app instance.
    pub conn_setup_p99_ns: f64,
}

/// Everything one run of a workload produced, reduced for comparison.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Seed-determined digest of the outputs.
    pub digest: u64,
    /// Kernel events of the run.
    pub events: u64,
    /// Output checks that failed, by name.
    pub failures: Vec<String>,
    pub sim: SimMetrics,
    /// Every open latency behind `sim.conn_setup_p99_ns`, ns.
    pub setups_ns: Vec<f64>,
    /// Connections (or app instances) offered to admission, and admitted.
    pub offered: u64,
    pub admitted: u64,
}

impl Outcome {
    fn check(&mut self, name: &str, ok: bool) {
        if !ok {
            self.failures.push(name.to_string());
        }
    }
}

/// FNV-1a over a stream of integers.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    pub fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
    pub fn add_f64(&mut self, v: Option<f64>) {
        self.add(v.map_or(u64::MAX, f64::to_bits));
    }
    pub fn value(self) -> u64 {
        self.0
    }
}

// ----------------------------------------------------------------------
// Mixed GS + BE meshes
// ----------------------------------------------------------------------

/// Digest of a mixed window: events and every flow's counters and
/// latency extremes.
pub fn mixed_digest(net: &Network, events: u64) -> u64 {
    let mut d = Digest::new();
    d.add(events);
    for (flow, s) in net.stats().flows() {
        d.add(u64::from(flow));
        d.add(s.injected);
        d.add(s.delivered);
        d.add(s.sequence_errors);
        d.add(s.latency.count());
        d.add(s.latency.max().map_or(0, |t| t.as_ps()));
        d.add(s.latency.quantile(0.99).map_or(0, |t| t.as_ps()));
    }
    d.value()
}

/// The fixed probe pairs of a `side × side` mesh: row `r` to the
/// mirrored row, columns mirrored too.
fn probe_pairs(side: u8) -> Vec<(RouterId, RouterId)> {
    (0..PROBES)
        .map(|i| {
            let a = (i % side as usize) as u8;
            let r = ((i / side as usize) % side as usize) as u8;
            (
                RouterId::new(a, r),
                RouterId::new(side - 1 - a, side - 1 - r),
            )
        })
        .collect()
}

/// Everything after a mixed window, untimed: simulated metrics of the
/// window; then, when `probe`, connection probes opened and closed
/// in-band under the live background and a drain that checks flit
/// conservation (slow on large meshes, so one replica per run does it).
pub fn mixed_finish(sim: &mut NocSim, side: u8, probe: bool) -> Outcome {
    let mut out = Outcome {
        digest: mixed_digest(sim.network(), sim.events_processed()),
        events: sim.events_processed(),
        ..Outcome::default()
    };
    let net = sim.network();
    let mut ctl = AdmissionController::new(
        net.grid().clone(),
        net.router_cfg(),
        net.na_cfg(),
        MAX_GS_FRAC,
    );
    let flows = net.stats().flows();

    // The static connections go through admission as they were opened;
    // their reports bound the observed GS latency.
    let mut held = Vec::new();
    let mut ratio: f64 = 0.0;
    for src in net.sources() {
        let SourceKind::Gs { conn, .. } = src.kind else {
            continue;
        };
        let record = net.connections().get(conn).expect("static connection");
        let req = ConnRequest {
            src: record.src,
            dst: record.dst,
            period: MIXED_GS_PERIOD,
        };
        match ctl.request(&req) {
            Ok(adm) => {
                out.check("static_path_is_admitted_path", adm.dirs == record.dirs);
                let observed = flows[src.flow as usize].1.latency.max();
                match (observed, adm.report.worst_latency_ns()) {
                    (Some(obs), Some(bound)) => ratio = ratio.max(obs.as_ns_f64() / bound),
                    _ => out.check("gs_flow_has_bound_and_samples", false),
                }
                held.push(adm);
            }
            Err(_) => out.check("static_connection_admitted", false),
        }
    }
    let statics = held.len();
    out.check("four_static_connections", statics == 4);
    out.check("gs_within_bound", ratio <= 1.0);
    let be_p99: Vec<f64> = flows
        .iter()
        .filter(|(_, s)| s.name.starts_with("bg-"))
        .filter_map(|(_, s)| s.latency.quantile(0.99).map(|t| t.as_ns_f64()))
        .collect();
    out.sim.gs_bound_ratio_max = ratio;
    out.sim.be_latency_p99_ns = mean(&be_p99);
    // GS streams are in order per connection; BE packets to different
    // destinations may overtake each other, so only GS is checked.
    out.check(
        "gs_in_order",
        flows
            .iter()
            .filter(|(_, s)| s.name == "gs")
            .all(|(_, s)| s.sequence_errors == 0),
    );

    if !probe {
        for adm in &held {
            ctl.release(adm);
        }
        out.check("budgets_clean", ctl.nothing_reserved());
        out.offered = statics as u64;
        out.admitted = statics as u64;
        out.sim.admit_ratio = 1.0;
        return out;
    }

    // Probes: open concurrently, settle, close, settle.
    let issued = sim.now();
    let mut probes: Vec<ConnectionId> = Vec::new();
    let pairs = probe_pairs(side);
    for &(src, dst) in &pairs {
        let req = ConnRequest {
            src,
            dst,
            period: MIXED_GS_PERIOD,
        };
        if let Ok(adm) = ctl.request(&req) {
            match sim.open_connection_along(src, dst, &adm.dirs) {
                Ok(id) => probes.push(id),
                Err(_) => out.check("admitted_probe_opens", false),
            }
            held.push(adm);
        }
    }
    out.check("probes_settle", sim.wait_connections_settled().is_ok());
    let mut setups = Vec::new();
    for &id in &probes {
        let record = sim.network().connections().get(id).expect("probe record");
        match record.opened_at {
            Some(at) => setups.push(at.since(issued).as_ns_f64()),
            None => out.check("probe_opened", false),
        }
    }
    for &id in &probes {
        out.check("probe_closes", sim.close_connection(id).is_ok());
    }
    out.check(
        "probe_teardown_settles",
        sim.wait_connections_settled().is_ok(),
    );
    out.check(
        "probes_closed",
        probes
            .iter()
            .all(|&id| sim.connection_state(id) == Some(ConnState::Closed)),
    );
    for adm in &held {
        ctl.release(adm);
    }
    out.check("budgets_clean", ctl.nothing_reserved());
    out.offered = (statics + pairs.len()) as u64;
    out.admitted = held.len() as u64;
    out.sim.admit_ratio = out.admitted as f64 / out.offered as f64;
    out.sim.conn_setup_p99_ns = quantile(&setups, 0.99);
    out.setups_ns = setups;

    // Drain: silence every source; every injected flit must then be
    // delivered. A stopped source keeps ticking without emitting, so the
    // queue never runs dry: drain in steps instead of to quiescence.
    for (flow, _) in &flows {
        sim.stop_flow(*flow);
    }
    let mut drained = false;
    for _ in 0..DRAIN_STEPS_US {
        if sim.run_for(SimDuration::from_us(1)) != RunOutcome::HorizonReached {
            break;
        }
        if sim.network().stats().in_flight() == 0 {
            drained = true;
            break;
        }
    }
    out.check("flit_conservation", drained);
    out
}

// ----------------------------------------------------------------------
// Connection churn
// ----------------------------------------------------------------------

/// The churn window, µs.
const CHURN_WINDOW_US: u64 = 50;

/// Uniform BE background at `gap_ns` per node, 4-word packets.
fn background(base: ScenarioSpec, gap_ns: u64) -> ScenarioSpec {
    base.traffic(
        TrafficSpec::new(
            SpatialPattern::UniformRandom,
            TemporalSpec::poisson(SimDuration::from_ns(gap_ns)),
        )
        .payload(4)
        .named("bg-"),
    )
}

/// The repro grid's fast-arrival, long-holding point (8×8, BE at
/// 1000 ns, 250 ns request gap, 40 µs holding, 15 ns GS period) run
/// twice as fast: 125 ns gap and 20 µs holding offer the same number of
/// concurrent connections, and a 50 µs window spans the same number of
/// holding times as 100 µs would at the repro point.
pub fn churn_spec(seed: u64) -> ChurnSpec {
    let base = background(
        ScenarioSpec::mesh(8, 8, seed).measure_for(SimDuration::from_us(CHURN_WINDOW_US)),
        1000,
    );
    let holding_mean = SimDuration::from_us(20);
    ChurnSpec {
        base,
        churn_seed: seed ^ 0xC0DE_C0DE,
        arrival_gap: SimDuration::from_ns(125),
        holding_mean,
        holding_min: (holding_mean / 4).max(SimDuration::from_us(3)),
        gs_period: SimDuration::from_ns(15),
        drain_margin: SimDuration::from_us(1),
        max_requests: 1500,
        max_gs_frac: MAX_GS_FRAC,
    }
}

fn scenario_digest(d: &mut Digest, s: &ScenarioMetrics) {
    d.add(s.events);
    for f in &s.flows {
        d.add(f.injected);
        d.add(f.delivered);
        d.add(f.sequence_errors);
        d.add(f.latency_count);
        d.add_f64(f.max_ns);
        d.add_f64(f.p99_ns);
    }
}

/// Checks and metrics shared by the engine workloads' base scenario.
fn scenario_checks(out: &mut Outcome, s: &ScenarioMetrics) {
    out.events = s.events;
    out.check(
        "gs_in_order",
        s.flows
            .iter()
            .filter(|f| f.kind == FlowKind::Gs)
            .all(|f| f.sequence_errors == 0),
    );
    out.check(
        "delivered_le_injected",
        s.flows.iter().all(|f| f.delivered <= f.injected),
    );
    let p99: Vec<f64> = s.be_all().filter_map(|f: &FlowMetric| f.p99_ns).collect();
    out.sim.be_latency_p99_ns = mean(&p99);
}

pub fn churn_outcome(spec: &ChurnSpec, m: &ChurnMetrics) -> Outcome {
    let mut d = Digest::new();
    scenario_digest(&mut d, &m.scenario);
    for v in [m.requests, m.admitted, m.closed, m.prog_packets] {
        d.add(v);
    }
    for &r in &m.rejected_by {
        d.add(r);
    }
    for c in &m.conns {
        d.add(c.rejected.map_or(u64::MAX, |r| r.index() as u64));
        d.add(c.setup.map_or(0, |t| t.as_ps()));
        d.add(c.injected);
        d.add(c.delivered);
        d.add_f64(c.observed_max_ns);
    }
    let mut out = Outcome {
        digest: d.value(),
        ..Outcome::default()
    };
    scenario_checks(&mut out, &m.scenario);
    out.check(
        "offered_eq_admitted_plus_rejected",
        m.requests == m.admitted + m.rejected(),
    );
    out.check("every_admitted_closed", m.closed == m.admitted);
    out.check("zero_bound_violations", m.bound_violations() == 0);
    out.check(
        "closed_streams_conserve_flits",
        m.conns
            .iter()
            .filter(|c| c.closed)
            .all(|c| c.injected == c.delivered),
    );
    let replayed = replay::churn(spec, m);
    out.check("budgets_clean", replayed.budgets_clean);
    out.sim.gs_bound_ratio_max = m.worst_bound_ratio();
    (out.offered, out.admitted) = (m.requests, m.admitted);
    out.sim.admit_ratio = m.admitted as f64 / m.requests.max(1) as f64;
    out.setups_ns = m.setups().map(|t| t.as_ns_f64()).collect();
    out.sim.conn_setup_p99_ns = quantile(&out.setups_ns, 0.99);
    out
}

// ----------------------------------------------------------------------
// Application serving
// ----------------------------------------------------------------------

/// Repro serving job 3 with a shorter lifetime: VOPD instances on an
/// 8×8 mesh placed by `Anneal{iters: 32}`, 500 ns arrival gap, 10 µs
/// holding (the repro point holds 40 µs), BE at 2000 ns. The shorter
/// lifetime turns capacity over four times as often, so a run admits
/// about four times as many instances and its figures vary less with
/// the seed.
pub fn serve_spec(seed: u64) -> ServingSpec {
    let base = background(
        ScenarioSpec::on_topology(TopologySpec::mesh(8, 8), seed)
            .measure_for(SimDuration::from_us(300)),
        2000,
    );
    let holding_mean = SimDuration::from_us(10);
    let mut spec = ServingSpec::new(base, graph::vopd(), PlacerKind::Anneal { iters: 32 });
    spec.arrival_gap = SimDuration::from_ns(500);
    spec.holding_mean = holding_mean;
    spec.holding_min = (holding_mean / 4).max(SimDuration::from_us(3));
    spec.max_apps = 3000;
    spec.max_gs_frac = MAX_GS_FRAC;
    spec
}

pub fn serve_outcome(m: &ServingMetrics) -> Outcome {
    let mut d = Digest::new();
    scenario_digest(&mut d, &m.scenario);
    for v in [
        m.offered,
        m.admitted,
        m.rejected_bound,
        m.rejected_open,
        m.closed,
        m.peak_live,
        m.prog_packets,
        u64::from(m.budgets_clean),
    ] {
        d.add(v);
    }
    for &r in &m.rejected_admission {
        d.add(r);
    }
    for a in &m.apps {
        d.add(a.setup.map_or(0, |t| t.as_ps()));
        d.add(a.injected);
        d.add(a.delivered);
        d.add(a.worst_bound_ratio.to_bits());
    }
    let mut out = Outcome {
        digest: d.value(),
        ..Outcome::default()
    };
    scenario_checks(&mut out, &m.scenario);
    out.check(
        "offered_eq_admitted_plus_rejected",
        m.offered == m.admitted + m.rejected(),
    );
    out.check("every_admitted_closed", m.closed == m.admitted);
    out.check("budgets_clean", m.budgets_clean);
    out.check("zero_bound_violations", m.bound_violations() == 0);
    out.check(
        "closed_apps_conserve_flits",
        m.apps
            .iter()
            .filter(|a| a.closed)
            .all(|a| a.injected == a.delivered),
    );
    out.setups_ns = m
        .apps
        .iter()
        .filter_map(|a| a.setup.map(|t| t.as_ns_f64()))
        .collect();
    out.sim.gs_bound_ratio_max = m.worst_bound_ratio();
    (out.offered, out.admitted) = (m.offered, m.admitted);
    out.sim.admit_ratio = m.admitted as f64 / m.offered.max(1) as f64;
    out.sim.conn_setup_p99_ns = quantile(&out.setups_ns, 0.99);
    out
}

/// The requests a mixed mesh makes of admission: its static
/// connections (in attachment order), then the probes.
pub fn mixed_requests(net: &Network, side: u8) -> Vec<ConnRequest> {
    let statics = net.sources().iter().filter_map(|s| match s.kind {
        SourceKind::Gs { conn, .. } => net.connections().get(conn).map(|r| (r.src, r.dst)),
        SourceKind::Be { .. } => None,
    });
    statics
        .chain(probe_pairs(side))
        .map(|(src, dst)| ConnRequest {
            src,
            dst,
            period: MIXED_GS_PERIOD,
        })
        .collect()
}

// ----------------------------------------------------------------------
// Engine-driven workloads
// ----------------------------------------------------------------------

/// A workload whose event loop runs inside a library engine.
#[derive(Debug, Clone)]
pub enum Engine {
    Churn(ChurnSpec),
    Serve(ServingSpec),
}

/// One engine run's outputs.
#[derive(Debug, Clone)]
pub enum EngineRun {
    Churn(ChurnMetrics),
    Serve(ServingMetrics),
}

impl Engine {
    pub fn new(w: Workload, seed: u64) -> Option<Engine> {
        match w {
            Workload::Churn8x8 => Some(Engine::Churn(churn_spec(seed))),
            Workload::ServeVopd8x8 => Some(Engine::Serve(serve_spec(seed))),
            _ => None,
        }
    }

    pub fn base(&self) -> &ScenarioSpec {
        match self {
            Engine::Churn(s) => &s.base,
            Engine::Serve(s) => &s.base,
        }
    }

    pub fn run(&self) -> EngineRun {
        match self {
            Engine::Churn(s) => EngineRun::Churn(s.run()),
            Engine::Serve(s) => EngineRun::Serve(s.run()),
        }
    }

    /// The same run with the telemetry sink on (flit tracing off); the
    /// report is dropped.
    pub fn run_with_telemetry(&self, cfg: TelemetryConfig) -> EngineRun {
        match self {
            Engine::Churn(s) => EngineRun::Churn(s.run_with_telemetry(cfg).0),
            Engine::Serve(s) => EngineRun::Serve(s.run_with_telemetry(cfg).0),
        }
    }

    pub fn outcome(&self, run: &EngineRun) -> Outcome {
        match (self, run) {
            (Engine::Churn(s), EngineRun::Churn(m)) => churn_outcome(s, m),
            (Engine::Serve(_), EngineRun::Serve(m)) => serve_outcome(m),
            _ => unreachable!("run comes from this engine"),
        }
    }

    pub fn replay(&self, run: &EngineRun) -> replay::Replay {
        match (self, run) {
            (Engine::Churn(s), EngineRun::Churn(m)) => replay::churn(s, m),
            (Engine::Serve(s), EngineRun::Serve(m)) => replay::serve(s, m),
            _ => unreachable!("run comes from this engine"),
        }
    }
}
