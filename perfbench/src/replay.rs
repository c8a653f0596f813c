//! Replays of an engine workload's own request stream through a fresh
//! `AdmissionController` (and, for serving, the placer), timing every
//! call into `mango_qos` and `mango_apps`.
//!
//! The stream comes from the run's outputs: arrival times, endpoints or
//! placement seeds, holding times and open latencies. The engine
//! releases a connection's budgets at the first teardown poll that finds
//! the in-band teardown finished; the replay assumes teardown takes as
//! long as the open did, so decisions near capacity can differ. The
//! replay reports how many decisions agree with the engine's.

use mango_apps::{ServingMetrics, ServingSpec, TaskGraph};
use mango_net::{Grid, NaConfig, ScenarioSpec};
use mango_qos::{Admission, AdmissionController, ChurnMetrics, ChurnSpec, ConnRequest};
use mango_sim::{SimDuration, SimRng, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// The engines poll a closing connection every 100 ns.
const POLL_GAP: SimDuration = SimDuration::from_ns(100);

/// Host cost and outcome of one replay.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Host ns per `AdmissionController::request`.
    pub request_ns: Vec<f64>,
    /// Host ns per `AdmissionController::release`.
    pub release_ns: Vec<f64>,
    /// Requests the controller refused.
    pub rejects: u64,
    /// Admission decisions (per connection or per app) equal to the
    /// engine's.
    pub agree: u64,
    /// Admission decisions made.
    pub decisions: u64,
    /// Host µs per placer call.
    pub place_us: Vec<f64>,
    /// Placements the placer itself scored admissible.
    pub admissible: u64,
    /// Every budget returned exactly after the last release.
    pub budgets_clean: bool,
}

/// A controller and its pending releases, ordered by simulated time.
struct Ledger {
    ctl: AdmissionController,
    pending: BinaryHeap<Reverse<(SimTime, u64)>>,
    held: Vec<Vec<Admission>>,
    out: Replay,
}

impl Ledger {
    fn new(base: &ScenarioSpec, max_gs_frac: f64) -> Self {
        Ledger {
            ctl: AdmissionController::new(
                Grid::from_spec(&base.topology_spec()),
                &base.router_cfg,
                &NaConfig::paper(),
                max_gs_frac,
            ),
            pending: BinaryHeap::new(),
            held: Vec::new(),
            out: Replay::default(),
        }
    }

    fn request(&mut self, req: &ConnRequest) -> Option<Admission> {
        let t = Instant::now();
        let r = black_box(self.ctl.request(black_box(req)));
        self.out.request_ns.push(t.elapsed().as_nanos() as f64);
        if r.is_err() {
            self.out.rejects += 1;
        }
        r.ok()
    }

    fn release(&mut self, adm: &Admission) {
        let t = Instant::now();
        self.ctl.release(black_box(adm));
        self.out.release_ns.push(t.elapsed().as_nanos() as f64);
    }

    /// Releases everything due at or before `now`.
    fn release_due(&mut self, now: SimTime) {
        while let Some(&Reverse((at, idx))) = self.pending.peek() {
            if at > now {
                break;
            }
            self.pending.pop();
            for adm in std::mem::take(&mut self.held[idx as usize]) {
                self.release(&adm);
            }
        }
    }

    /// Holds `adms` until the teardown poll that first sees them closed,
    /// taking teardown to last as long as the open did (`setup`).
    fn hold(&mut self, close_at: SimTime, setup: SimDuration, adms: Vec<Admission>) {
        let polls = setup.as_ps() / POLL_GAP.as_ps() + 1;
        self.pending.push(Reverse((
            close_at + POLL_GAP * polls,
            self.held.len() as u64,
        )));
        self.held.push(adms);
    }

    fn record(&mut self, replayed: bool, engine: bool) {
        self.out.decisions += 1;
        if replayed == engine {
            self.out.agree += 1;
        }
    }

    fn finish(mut self) -> Replay {
        self.release_due(SimTime::MAX);
        self.out.budgets_clean = self.ctl.nothing_reserved();
        self.out
    }
}

/// The latest close an engine allows: the window end less two drain
/// margins (measurement starts at time zero: no warm-up).
fn latest_close(base: &ScenarioSpec, drain: SimDuration) -> SimTime {
    let mango_net::MeasureBound::For(window) = base.measure else {
        panic!("engine workloads run a fixed window");
    };
    SimTime::ZERO + window - drain * 2
}

/// Replays a churn run's connection requests.
pub fn churn(spec: &ChurnSpec, m: &ChurnMetrics) -> Replay {
    let mut l = Ledger::new(&spec.base, spec.max_gs_frac);
    let latest = latest_close(&spec.base, spec.drain_margin);
    for c in &m.conns {
        l.release_due(c.requested_at);
        let req = ConnRequest {
            src: c.src,
            dst: c.dst,
            period: spec.gs_period,
        };
        let adm = l.request(&req);
        l.record(adm.is_some(), c.rejected.is_none());
        if let Some(adm) = adm {
            let setup = c.setup.unwrap_or(SimDuration::ZERO);
            l.hold((c.requested_at + c.holding).min(latest), setup, vec![adm]);
        }
    }
    l.finish()
}

/// Replays a serving run's instances: one placer call per offered
/// instance with the engine's placement seed, then the all-or-nothing
/// commit pass over the graph's inter-node edges.
pub fn serve(spec: &ServingSpec, m: &ServingMetrics) -> Replay {
    let mut l = Ledger::new(&spec.base, spec.max_gs_frac);
    let latest = latest_close(&spec.base, spec.drain_margin);
    // The engine draws placement seeds from fork 2 of its seed.
    let mut seeds = SimRng::new(spec.serve_seed).fork(2);
    for app in &m.apps {
        l.release_due(app.requested_at);
        let seed = seeds.next_u64();
        let t = Instant::now();
        let placement = black_box(spec.placer.place(&spec.graph, &mut l.ctl, seed));
        l.out.place_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        if placement.admissible() {
            l.out.admissible += 1;
        }
        let mut adms = Vec::with_capacity(spec.graph.edges.len());
        let mut ok = true;
        for e in &spec.graph.edges {
            let (src, dst) = (placement.assign[e.from], placement.assign[e.to]);
            if src == dst {
                continue;
            }
            let req = ConnRequest {
                src,
                dst,
                period: TaskGraph::period(e.rate_fps),
            };
            match l.request(&req) {
                Some(adm) => {
                    let within = match (e.bound_ns, adm.report.worst_latency_ns()) {
                        (Some(bound), Some(worst)) => worst <= bound as f64,
                        (Some(_), None) => false,
                        (None, _) => true,
                    };
                    adms.push(adm);
                    if !within {
                        ok = false;
                        break;
                    }
                }
                None => {
                    ok = false;
                    break;
                }
            }
        }
        l.record(ok, app.rejected.is_none());
        if ok {
            let setup = app.setup.unwrap_or(SimDuration::ZERO);
            l.hold((app.requested_at + app.holding).min(latest), setup, adms);
        } else {
            for adm in &adms {
                l.release(adm);
            }
        }
    }
    l.finish()
}

/// Replays a fixed list of requests, all held to the end and then
/// released (the mixed workloads' static connections and probes).
pub fn requests(base: &ScenarioSpec, reqs: &[ConnRequest]) -> Replay {
    let mut l = Ledger::new(base, crate::workload::MAX_GS_FRAC);
    for req in reqs {
        if let Some(adm) = l.request(req) {
            l.hold(SimTime::ZERO, SimDuration::ZERO, vec![adm]);
        }
    }
    l.finish()
}
