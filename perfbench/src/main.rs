//! The repository benchmark.
//!
//! `mango_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0` it repeats the workload (set-up, then the timed run)
//! for about `--seconds` of host time, single-threaded, checks every
//! repetition's outputs, and reports the eight end-to-end metrics. With
//! `--trace 1` it runs the per-layer ledger instead (see `ledger.rs`).
//! Both print one row per metric, `row <workload> <metric> <value>
//! <unit>`, and end with one JSON object on the last line of standard
//! output. See `README.md` for the workloads and the metrics.

mod ledger;
mod ops;
mod reference;
mod replay;
mod stats;
mod workload;

use stats::{mean, median, quantile};
use std::hint::black_box;
use std::time::{Duration, Instant};
use workload::{Engine, Outcome, Workload};

/// Canary digests, one per workload: the check that a later commit still
/// produces the same outputs, not just self-consistent ones.
const EXPECTED: &str = include_str!("../expected_digests.txt");

/// One named metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one invocation measured and checked.
pub struct Report {
    pub workload: &'static str,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str) -> Self {
        Report {
            workload,
            attempted: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Counts one checked run; `failures` are the checks it failed.
    pub fn attempt(&mut self, what: &str, failures: &[String]) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failures
                .push(format!("{what}: {}", failures.join(", ")));
        }
    }

    fn print(&self) {
        for n in &self.notes {
            println!("# {n}");
        }
        for f in &self.failures {
            println!("FAIL {f}");
            eprintln!("FAIL {} {f}", self.workload);
        }
        for m in &self.metrics {
            println!(
                "row\t{}\t{}\t{}\t{}",
                self.workload, m.name, m.value, m.unit
            );
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        );
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The recorded canary digest of `w`, if any.
fn expected_digest(w: Workload) -> Option<u64> {
    EXPECTED.lines().find_map(|line| {
        let (name, digest) = line.split_once(' ')?;
        (name == w.name())
            .then(|| u64::from_str_radix(digest.trim(), 16).ok())
            .flatten()
    })
}

/// Host peak resident memory of this process, MB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Times one set-up of replica `seed`, from nothing to ready-to-run.
fn setup_secs(w: Workload, seed: u64) -> f64 {
    let engine = Engine::new(w, seed);
    let t = Instant::now();
    match (&engine, w.mixed()) {
        (Some(e), _) => drop(black_box(e.base().prepare())),
        (None, Some((side, _))) => drop(black_box(mango_bench::mixed_mesh(side, side, seed))),
        (None, None) => unreachable!("a workload is engine-driven or a mixed mesh"),
    }
    t.elapsed().as_secs_f64()
}

/// One timed repetition: run seconds, the digest, and the full outcome
/// when `full`; a full mixed repetition also probes and drains when
/// `probe`. Engine runs include the engine's own set-up.
fn repetition(w: Workload, seed: u64, full: bool, probe: bool) -> (f64, u64, Option<Outcome>) {
    if let Some((side, window)) = w.mixed() {
        let mut sim = mango_bench::mixed_mesh(side, side, seed);
        sim.begin_measurement();
        let t = Instant::now();
        let outcome = sim.run_for(window);
        let run = t.elapsed().as_secs_f64();
        let mut out = if full {
            workload::mixed_finish(&mut sim, side, probe)
        } else {
            Outcome {
                digest: workload::mixed_digest(sim.network(), sim.events_processed()),
                ..Outcome::default()
            }
        };
        if outcome != mango_sim::RunOutcome::HorizonReached {
            out.failures.push(format!("window ended {outcome:?}"));
        }
        (run, out.digest, Some(out).filter(|_| full))
    } else {
        let engine = Engine::new(w, seed).expect("engine workload");
        let t = Instant::now();
        let run = black_box(engine.run());
        let secs = t.elapsed().as_secs_f64();
        let out = engine.outcome(&run);
        (secs, out.digest, Some(out))
    }
}

/// The digest of the canary: the workload at [`workload::CANARY_SEED`],
/// its window (mixed meshes) or whole run (engines).
fn canary_digest(w: Workload) -> u64 {
    let (_, digest, _) = repetition(w, workload::CANARY_SEED, false, false);
    digest
}

/// The median of each replica's values; `replicas[i]` is the replica of
/// `values[i]`. Replicas differ in work, so a run time is the mean of
/// these, not a median over all repetitions, which would count their
/// sizes as noise.
fn replica_medians(replicas: &[usize], values: &[f64], count: usize) -> Vec<f64> {
    let mut per_replica = vec![Vec::new(); count];
    for (&k, &v) in replicas.iter().zip(values) {
        per_replica[k].push(v);
    }
    per_replica.iter().map(|v| median(v)).collect()
}

/// Reference timings in each batch around a repetition.
const REFERENCE_TIMINGS: usize = 8;
/// Host times are reported as on a host where one reference timing takes
/// this long, s.
const REFERENCE_NOMINAL_S: f64 = 1e-3;

/// The end-to-end run: the canary, which also warms the allocator and
/// the caches; then repetitions, cycling over the workload's replicas,
/// until `seconds` are spent.
///
/// Other tenants of a shared host slow every program on it by up to 1.8x
/// for seconds to minutes at a time, so raw host seconds vary more from
/// run to run than a change worth detecting. Each repetition (its batch
/// of set-ups, then its run) therefore lies between two batches of
/// [`reference`] timings, and its host times are scaled by the nominal
/// reference time over the median of those timings: they read as on a
/// host running at the nominal speed. The reference kernel is the
/// benchmark's own code, so only the host's speed moves it.
fn timed(w: Workload, seed: u64, seconds: f64) -> Report {
    let mut report = Report::new(w.name());
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let canary = canary_digest(w);
    let failures = match expected_digest(w) {
        Some(expected) if expected != canary => vec![format!(
            "canary digest {canary:016x}, recorded {expected:016x}"
        )],
        Some(_) => Vec::new(),
        None => vec![format!("no recorded canary digest (got {canary:016x})")],
    };
    report.attempt("canary", &failures);
    let seeds: Vec<u64> = (0..w.replicas())
        .map(|k| workload::replica_seed(seed, k))
        .collect();
    let reference_batch =
        || -> Vec<f64> { (0..REFERENCE_TIMINGS).map(|_| reference::time()).collect() };
    // Per repetition: the reference timings before it, its set-up seconds,
    // its replica and its run seconds; one more reference batch follows
    // the last repetition.
    let mut references = Vec::new();
    let mut setups: Vec<Vec<f64>> = Vec::new();
    let mut setup_count = 0;
    let mut replicas = Vec::new();
    let mut runs = Vec::new();
    let mut rep_secs = Vec::new();
    let mut firsts: Vec<Outcome> = Vec::new();
    loop {
        let k = runs.len() % seeds.len();
        let t = Instant::now();
        references.push(reference_batch());
        // A batch of set-ups in every repetition, so set-up samples span
        // the whole run as the run samples do.
        let batch: Vec<f64> = (0..w.setups_per_repetition())
            .map(|_| {
                setup_count += 1;
                setup_secs(w, seeds[setup_count % seeds.len()])
            })
            .collect();
        setups.push(batch);
        let full = firsts.len() == k;
        let (run, digest, full) = repetition(w, seeds[k], full, k == 0);
        rep_secs.push(t.elapsed().as_secs_f64());
        replicas.push(k);
        runs.push(run);
        let mut failures = Vec::new();
        match full {
            Some(out) if firsts.len() == k => {
                failures.clone_from(&out.failures);
                firsts.push(out);
            }
            _ if digest != firsts[k].digest => failures.push(format!(
                "replica {k} digest {digest:016x} differs from its first run's {:016x}",
                firsts[k].digest
            )),
            _ => {}
        }
        report.attempt(&format!("repetition {}", runs.len()), &failures);
        let next = start.elapsed() + Duration::from_secs_f64(median(&rep_secs));
        // One pass over the replicas, then at least one repeat.
        if runs.len() > seeds.len() && next > budget {
            break;
        }
    }
    references.push(reference_batch());

    // The scale of each repetition's host times: nominal over measured
    // reference time, from the batches before and after it.
    let scales: Vec<f64> = references
        .windows(2)
        .map(|pair| REFERENCE_NOMINAL_S / median(&pair.concat()))
        .collect();
    let scaled_runs: Vec<f64> = runs.iter().zip(&scales).map(|(r, s)| r * s).collect();
    let scaled_setups: Vec<f64> = setups
        .iter()
        .zip(&scales)
        .flat_map(|(batch, scale)| batch.iter().map(move |s| s * scale))
        .collect();

    let attempted = report.attempted as f64;
    let passed = attempted - report.failures.len() as f64;
    let digests: Vec<String> = firsts
        .iter()
        .map(|o| format!("{:016x} ({} events)", o.digest, o.events))
        .collect();
    report.notes.push(format!(
        "{} seed {seed}: {} repetitions over {} replicas: {}; canary {canary:016x}",
        w.name(),
        runs.len(),
        seeds.len(),
        digests.join(", ")
    ));
    let listed = |v: &[f64]| {
        v.iter()
            .map(|r| format!("{r:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    report.notes.push(format!("run seconds: {}", listed(&runs)));
    let slowdowns: Vec<f64> = scales.iter().map(|s| 1.0 / s).collect();
    report.notes.push(format!(
        "reference time over nominal, per repetition: {}",
        listed(&slowdowns)
    ));
    let raw_setups: Vec<f64> = setups.concat();
    report.notes.push(format!(
        "unscaled: run {:.4} s, setup {:.4e} s",
        mean(&replica_medians(&replicas, &runs, seeds.len())),
        median(&raw_setups)
    ));
    let sim = |f: fn(&Outcome) -> f64| mean(&firsts.iter().map(f).collect::<Vec<_>>());
    let worst = firsts
        .iter()
        .map(|o| o.sim.gs_bound_ratio_max)
        .fold(0.0, f64::max);
    report.metric(
        "run_s",
        mean(&replica_medians(&replicas, &scaled_runs, seeds.len())),
        "s",
    );
    report.metric("setup_s", median(&scaled_setups), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("gs_bound_ratio_max", worst, "ratio");
    report.metric("be_latency_p99_ns", sim(|o| o.sim.be_latency_p99_ns), "ns");
    let pooled = |f: fn(&Outcome) -> u64| firsts.iter().map(f).sum::<u64>() as f64;
    report.metric(
        "admit_ratio",
        pooled(|o| o.admitted) / pooled(|o| o.offered),
        "ratio",
    );
    let opens: Vec<f64> = firsts.iter().flat_map(|o| o.setups_ns.clone()).collect();
    report.metric("conn_setup_p99_ns", quantile(&opens, 0.99), "ns");
    report.metric("check_pass_frac", passed / attempted, "ratio");
    report
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: mango_perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let report = if args.trace {
        ledger::run(args.workload, args.seed, args.seconds)
    } else {
        timed(args.workload, args.seed, args.seconds)
    };
    report.print();
}
