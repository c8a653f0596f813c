//! The traced run: a per-layer host-time ledger, timed from the
//! benchmark's own code around calls into each crate's public items.
//!
//! * `mango_sim` / `mango_core` / `mango_net` dispatch: a [`TracedSim`]
//!   times every `Network::handle` call and buckets it by event kind.
//!   The part of the timer's cost that lands inside a reading is
//!   calibrated and subtracted. Kernel self time is the untraced
//!   window's wall time less the summed per-kind self time. Queue
//!   figures come from the untraced program's `KernelProfile`, which
//!   also supplies the per-kind dispatch counts the traced run must
//!   reproduce exactly.
//! * `mango_net` set-up: the traced build times its three phases.
//! * `mango_qos` / `mango_apps`: replays of the workload's own request
//!   stream (see `replay.rs`).
//! * `mango_telemetry`: untraced runs with the sink on versus off.
//!
//! Handle timings are aggregated per kind in memory; the spans (set-up
//! phases, runs, replays) are kept as samples and reduced to medians at
//! the end. The engine workloads (churn, serving) run their event loop
//! inside the library, where no wrapper can reach, so their per-kind and
//! kernel rows read zero.

use crate::ops::{KindLedger, TracedSim, KINDS};
use crate::replay::{self, Replay};
use crate::stats::{median, quantile};
use crate::workload::{mixed_digest, mixed_requests, replica_seed, Digest, Engine, Workload};
use crate::Report;
use mango_core::{RouterConfig, RouterId};
use mango_net::{
    Grid, NaConfig, Network, NocSim, Pattern, ScenarioSpec, SpatialPattern, TelemetryConfig,
};
use mango_sim::SimDuration;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The event kinds the ledger reports, in `Network::event_kind` order.
const LEDGER_KINDS: [&str; 8] = [
    "router",
    "link_flit",
    "unlock",
    "credit",
    "na_gs_inject",
    "na_be_inject",
    "na_gs_consumed",
    "source_tick",
];

/// Fewest rounds of (plain, traced, telemetry) runs.
const MIN_ROUNDS: usize = 2;

fn telemetry_cfg() -> TelemetryConfig {
    TelemetryConfig {
        trace_flits: false,
        ..TelemetryConfig::default()
    }
}

/// Timer cost per bracket, ns: `(inside, outside)` — the part a bracket
/// adds to its own reading and the part it adds around it.
fn calibrate() -> (f64, f64) {
    const M: u32 = 100_000;
    let mut inside = Vec::new();
    let mut outside = Vec::new();
    for _ in 0..9 {
        let start = Instant::now();
        let mut sum = 0u64;
        for i in 0..M {
            let t0 = Instant::now();
            black_box(i);
            sum += t0.elapsed().as_nanos() as u64;
        }
        let total = start.elapsed().as_nanos() as f64;
        inside.push(sum as f64 / f64::from(M));
        outside.push((total - sum as f64) / f64::from(M));
    }
    (median(&inside), median(&outside))
}

/// Seconds of the three set-up phases of one build.
#[derive(Debug, Clone, Copy, Default)]
struct Phases {
    network: f64,
    open_settle: f64,
    sources: f64,
}

/// `mango_bench::mixed_mesh` rebuilt on a [`TracedSim`], step for step,
/// with each phase timed.
fn build_traced_mixed(side: u8, seed: u64) -> (TracedSim, Phases) {
    let t = Instant::now();
    let network = Network::new(
        Grid::new(side, side),
        RouterConfig::paper(),
        NaConfig::paper(),
    );
    let mut sim = TracedSim::new(network, seed);
    let mut p = Phases {
        network: t.elapsed().as_secs_f64(),
        ..Phases::default()
    };
    let w = side - 1;
    for (s, d) in [
        ((0, 0), (w, w)),
        ((w, 0), (0, w)),
        ((1, 1), (w - 1, w - 1)),
        ((w - 1, 1), (1, w - 1)),
    ] {
        let t = Instant::now();
        let c = sim
            .open(RouterId::new(s.0, s.1), RouterId::new(d.0, d.1))
            .expect("fits");
        sim.settle().expect("settles");
        p.open_settle += t.elapsed().as_secs_f64();
        let t = Instant::now();
        sim.add_gs_source(c, Pattern::cbr(SimDuration::from_ns(12)), "gs");
        p.sources += t.elapsed().as_secs_f64();
    }
    let t = Instant::now();
    let nodes: Vec<RouterId> = sim.net().grid().ids().collect();
    for node in nodes {
        sim.add_traffic_source(
            node,
            SpatialPattern::UniformRandom,
            4,
            Pattern::poisson(SimDuration::from_ns(300)),
            &format!("bg-{node}"),
        );
    }
    p.sources += t.elapsed().as_secs_f64();
    (sim, p)
}

/// Digest of the flows alone: telemetry adds sampler events, so the
/// event count differs, but no flow may.
fn flows_digest(net: &Network) -> u64 {
    let mut d = Digest::new();
    for (_, s) in net.stats().flows() {
        d.add(s.injected);
        d.add(s.delivered);
        d.add(s.latency.count());
        d.add(s.latency.max().map_or(0, |t| t.as_ps()));
    }
    d.value()
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Everything a traced run collects before it is reduced to rows.
#[derive(Default)]
struct Ledger {
    events: u64,
    plain: Vec<f64>,
    traced: Vec<f64>,
    telemetry: Vec<f64>,
    phases: Vec<Phases>,
    kinds: KindLedger,
    profile: Option<mango_sim::KernelProfile>,
    replay: Replay,
}

/// The traced run of replica 0 of a run seeded `seed`.
pub fn run(w: Workload, seed: u64, seconds: f64) -> Report {
    let seed = replica_seed(seed, 0);
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let (c_in, c_out) = calibrate();
    let mut report = Report::new(w.name());
    let ledger = match w.mixed() {
        Some((side, window)) => mixed(&mut report, side, window, seed, start, budget),
        None => engine(&mut report, w, seed, start, budget),
    };
    rows(&mut report, &ledger, c_in, c_out);
    report
}

fn mixed(
    report: &mut Report,
    side: u8,
    window: SimDuration,
    seed: u64,
    start: Instant,
    budget: Duration,
) -> Ledger {
    // Reference: the untraced program, kernel profiler on for the window.
    let mut sim = mango_bench::mixed_mesh(side, side, seed);
    sim.begin_measurement();
    sim.enable_kernel_profiling();
    let before = sim.events_processed();
    sim.run_for(window);
    let mut l = Ledger {
        events: sim.events_processed() - before,
        profile: sim.kernel_profile().cloned(),
        ..Ledger::default()
    };
    let reference = mixed_digest(sim.network(), sim.events_processed());
    let flows = flows_digest(sim.network());
    let reqs = mixed_requests(sim.network(), side);
    drop(sim);
    let profile_counts: Vec<u64> = l
        .profile
        .as_ref()
        .expect("profiling was on")
        .kind_counts()
        .map(|(_, c)| c)
        .collect();

    let mut rounds = Vec::new();
    while another_round(&rounds, start, budget) {
        let round = Instant::now();
        let mut sim = mango_bench::mixed_mesh(side, side, seed);
        sim.begin_measurement();
        let t = Instant::now();
        sim.run_for(window);
        l.plain.push(secs(t));
        let same = mixed_digest(sim.network(), sim.events_processed()) == reference;
        report.attempt(
            "untraced run",
            &failure(same, "digest differs from the reference"),
        );
        drop(sim);

        let (mut sim, phases) = build_traced_mixed(side, seed);
        l.phases.push(phases);
        sim.begin_measurement();
        sim.start_timing();
        let t = Instant::now();
        sim.run_for(window);
        l.traced.push(secs(t));
        let kinds = sim.stop_timing();
        let mut failures = failure(
            mixed_digest(sim.net(), sim.events()) == reference,
            "traced digest differs from the untraced one",
        );
        failures.extend(failure(
            kinds.count[..] == profile_counts[..],
            "traced kind counts differ from KernelProfile::kind_counts",
        ));
        report.attempt("traced run", &failures);
        for k in 0..KINDS {
            l.kinds.count[k] += kinds.count[k];
            l.kinds.ns[k] += kinds.ns[k];
        }
        drop(sim);

        let mut sim = mango_bench::mixed_mesh(side, side, seed);
        sim.enable_telemetry(telemetry_cfg());
        sim.begin_measurement();
        let t = Instant::now();
        sim.run_for(window);
        l.telemetry.push(secs(t));
        report.attempt(
            "telemetry run",
            &failure(
                flows_digest(sim.network()) == flows,
                "telemetry changed a flow",
            ),
        );
        rounds.push(secs(round));
    }
    l.replay = replay::requests(&ScenarioSpec::mesh(side, side, seed), &reqs);
    report.notes.push(format!(
        "mixed_{side}x{side} replica-0 seed {seed}: {} rounds, {} events per window, digest {reference:016x}",
        l.plain.len(),
        l.events
    ));
    l
}

fn engine(report: &mut Report, w: Workload, seed: u64, start: Instant, budget: Duration) -> Ledger {
    let engine = Engine::new(w, seed).expect("engine workload");
    let mut l = Ledger::default();
    let mut reference = None;
    let mut rounds = Vec::new();
    while another_round(&rounds, start, budget) {
        let round = Instant::now();
        let t = Instant::now();
        let run = black_box(engine.run());
        l.plain.push(secs(t));
        let out = engine.outcome(&run);
        let reference = reference.get_or_insert_with(|| {
            l.events = out.events;
            l.replay = engine.replay(&run);
            out.clone()
        });
        let mut failures = out.failures.clone();
        failures.extend(failure(
            out.digest == reference.digest,
            "digest differs from the first run",
        ));
        report.attempt("untraced run", &failures);

        let t = Instant::now();
        let run = black_box(engine.run_with_telemetry(telemetry_cfg()));
        l.telemetry.push(secs(t));
        let tele = engine.outcome(&run);
        report.attempt(
            "telemetry run",
            &failure(
                tele.sim == reference.sim,
                "telemetry changed a simulated metric",
            ),
        );

        l.phases.push(engine_phases(engine.base()));
        rounds.push(secs(round));
    }
    let reference = reference.expect("at least one round");
    report.notes.push(format!(
        "{} replica-0 seed {seed}: {} rounds, {} events per run, digest {:016x}, \
         replay agrees with the engine on {}/{} admission decisions",
        w.name(),
        l.plain.len(),
        l.events,
        reference.digest,
        l.replay.agree,
        l.replay.decisions
    ));
    l
}

/// The set-up an engine's base scenario makes, by phase: the network,
/// then one background source per node (no static connections).
fn engine_phases(base: &ScenarioSpec) -> Phases {
    let t = Instant::now();
    let mut sim = NocSim::new(
        Network::new(
            Grid::from_spec(&base.topology_spec()),
            base.router_cfg.clone(),
            NaConfig::paper(),
        ),
        base.seed,
    );
    let network = secs(t);
    let t = Instant::now();
    let nodes: Vec<RouterId> = sim.network().grid().ids().collect();
    for spec in &base.traffic {
        for &node in &nodes {
            sim.add_traffic_source(
                node,
                spec.spatial.clone(),
                spec.payload_words,
                spec.temporal,
                format!("{}{node}", spec.name_prefix),
                spec.window,
            );
        }
    }
    Phases {
        network,
        open_settle: 0.0,
        sources: secs(t),
    }
}

/// True while another round is due: the first `MIN_ROUNDS`, then any
/// that the median round so far says will end within the budget.
fn another_round(done: &[f64], start: Instant, budget: Duration) -> bool {
    done.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() + median(done) <= budget.as_secs_f64()
}

fn failure(ok: bool, what: &str) -> Vec<String> {
    if ok {
        Vec::new()
    } else {
        vec![what.to_string()]
    }
}

/// Reduces the ledger to the per-layer rows.
fn rows(report: &mut Report, l: &Ledger, c_in: f64, c_out: f64) {
    let run_s = median(&l.plain);
    let per_event = |total_ns: f64, n: u64| if n == 0 { 0.0 } else { total_ns / n as f64 };

    // mango_sim: the kernel. Per-kind self time per window comes from the
    // traced runs; the kernel keeps what the untraced window spent beyond
    // it (the pop and the loop; pushes happen inside `handle`).
    let rounds = l.traced.len().max(1) as f64;
    let self_ns: Vec<f64> = (0..KINDS)
        .map(|k| (l.kinds.ns[k] as f64 - l.kinds.count[k] as f64 * c_in).max(0.0) / rounds)
        .collect();
    let run_ns = run_s * 1e9;
    let kernel_self = (run_ns - self_ns.iter().sum::<f64>()).max(0.0);
    report.metric("sim.events", l.events as f64, "count");
    report.metric("sim.ns_per_event", per_event(run_ns, l.events), "ns");
    report.metric(
        "kernel.self_ns_per_event",
        if l.traced.is_empty() {
            0.0
        } else {
            per_event(kernel_self, l.events)
        },
        "ns",
    );
    let p = l.profile.as_ref();
    report.metric(
        "kernel.queue_len_mean",
        p.map_or(0.0, |p| p.queue_len_mean()),
        "count",
    );
    report.metric(
        "kernel.queue_len_max",
        p.map_or(0.0, |p| p.queue_len_max() as f64),
        "count",
    );
    report.metric(
        "kernel.occupied_buckets_mean",
        p.map_or(0.0, |p| p.occupied_buckets_mean()),
        "count",
    );

    // mango_core / mango_net: dispatch by event kind, as shares of the
    // untraced window.
    for (k, name) in LEDGER_KINDS.iter().enumerate() {
        let count = l.kinds.count[k] as f64 / rounds;
        report.metric(&format!("{name}.events"), count, "count");
        report.metric(
            &format!("{name}.ns"),
            if count > 0.0 { self_ns[k] / count } else { 0.0 },
            "ns",
        );
        report.metric(
            &format!("{name}.share"),
            if run_ns > 0.0 {
                self_ns[k] / run_ns
            } else {
                0.0
            },
            "ratio",
        );
    }

    // mango_net: set-up phases.
    let phase = |f: fn(&Phases) -> f64| median(&l.phases.iter().map(f).collect::<Vec<_>>());
    report.metric("setup.network_s", phase(|p| p.network), "s");
    report.metric("setup.open_settle_s", phase(|p| p.open_settle), "s");
    report.metric("setup.sources_s", phase(|p| p.sources), "s");

    // mango_qos: admission.
    let r = &l.replay;
    let requests = r.request_ns.len();
    report.metric("admission.requests", requests as f64, "count");
    report.metric(
        "admission.request_ns_p50",
        quantile(&r.request_ns, 0.5),
        "ns",
    );
    report.metric(
        "admission.request_ns_p99",
        quantile(&r.request_ns, 0.99),
        "ns",
    );
    report.metric("admission.release_ns", median(&r.release_ns), "ns");
    report.metric(
        "admission.reject_frac",
        r.rejects as f64 / requests.max(1) as f64,
        "ratio",
    );

    // mango_apps: placement and the serving engine's non-event share.
    let calls = r.place_us.len();
    report.metric("place.calls", calls as f64, "count");
    report.metric("place.us_p50", quantile(&r.place_us, 0.5), "us");
    report.metric("place.us_p99", quantile(&r.place_us, 0.99), "us");
    report.metric(
        "place.admissible_frac",
        r.admissible as f64 / calls.max(1) as f64,
        "ratio",
    );
    let nonevent_ns = r.place_us.iter().sum::<f64>() * 1e3
        + r.request_ns.iter().sum::<f64>()
        + r.release_ns.iter().sum::<f64>();
    report.metric(
        "serve.nonevent_frac",
        if run_s > 0.0 {
            nonevent_ns / (run_s * 1e9)
        } else {
            0.0
        },
        "ratio",
    );

    // mango_telemetry, and the trace itself.
    report.metric(
        "telemetry.on_overhead_frac",
        median(&l.telemetry) / run_s - 1.0,
        "ratio",
    );
    report.metric(
        "trace.overhead_frac",
        if l.traced.is_empty() {
            0.0
        } else {
            median(&l.traced) / run_s - 1.0
        },
        "ratio",
    );
    report.metric("trace.timer_ns_per_event", c_in + c_out, "ns");
}
