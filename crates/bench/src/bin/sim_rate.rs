//! Simulator throughput probe: runs the `network_sim` benchmark scenario
//! (mixed GS + BE, four crossing connections plus uniform BE background)
//! and reports raw events/second, the number the simulator-performance
//! roadmap track is measured in.
//!
//! Usage:
//! `sim_rate [simulated_us] [repeats] [--mesh N] [--buckets B] [--width-log2 W] [--json] [--profile] [--telemetry]`
//! (defaults: 50 µs × 5 on a 4×4 mesh). `--mesh N` runs the same mixed
//! workload on an N×N mesh — the mesh-scaling probe. `--buckets` /
//! `--width-log2` override the event-wheel geometry (default: the
//! per-scenario heuristic) for wheel-geometry validation sweeps; results
//! are geometry-independent, only the rate moves. `--json` emits one
//! machine-readable object on stdout so CI can record the rate without
//! scraping logs; it includes the process's peak resident memory
//! (`peak_rss_mb`, from Linux `VmHWM`; `null` elsewhere). `--profile`
//! turns on kernel self-profiling and prints
//! per-event-kind dispatch counts plus wheel-occupancy statistics after
//! the last run (profiling adds a little per-dispatch work, so rates
//! measured with it are not comparable to unprofiled ones).
//! `--telemetry` activates the telemetry sink (metrics + epoch samplers,
//! flit tracing off) — the sampler-overhead probe: compare its rate to a
//! plain run of the same workload. `--region-block` turns on
//! region-blocked event scheduling (results are byte-identical either
//! way; this probes the scan-grouping overhead and reports per-region
//! dispatch counts). On meshes other than 4×4 a 4×4 reference is timed
//! in the same invocation, and the per-event cost ratio against it is
//! reported (`ratio_vs_4x4` — the cache-bounded-scaling headline).
//!
//! Arguments it cannot use (an unparseable value, a mesh below 4×4, zero
//! repeats, an illegal wheel geometry) print the reason and the usage
//! line and exit with status 2.

use mango::net::TelemetryConfig;
use mango::sim::{SimDuration, WheelGeometry};
use mango_bench::mixed_mesh_geom;
use std::time::Instant;

struct RunConfig {
    mesh: u8,
    sim_us: u64,
    repeats: u64,
    geometry: Option<WheelGeometry>,
    profile: bool,
    telemetry: bool,
    region_block: bool,
}

struct RunResult {
    best: f64,
    runs: Vec<String>,
    profile: Option<mango::sim::KernelProfile>,
    regions: Vec<u64>,
}

/// Times `repeats` fresh runs of the mixed workload; returns the best
/// rate, per-run records, and the last run's profile/region census.
fn measure(cfg: &RunConfig, quiet: bool) -> RunResult {
    let mut best = f64::MIN;
    let mut runs = Vec::new();
    let mut last_profile = None;
    let mut regions = Vec::new();
    for run in 0..cfg.repeats {
        let mut sim = mixed_mesh_geom(cfg.mesh, cfg.mesh, 99, cfg.geometry);
        if cfg.profile {
            sim.enable_kernel_profiling();
        }
        if cfg.telemetry {
            sim.enable_telemetry(TelemetryConfig {
                trace_flits: false,
                ..Default::default()
            });
        }
        if cfg.region_block {
            sim.enable_region_blocking();
        }
        let setup_events = sim.events_processed();
        let start = Instant::now();
        sim.run_for(SimDuration::from_us(cfg.sim_us));
        let wall = start.elapsed().as_secs_f64();
        let events = sim.events_processed() - setup_events;
        let rate = events as f64 / wall;
        best = best.max(rate);
        runs.push(format!(
            "{{\"events\":{events},\"wall_ms\":{:.3},\"events_per_sec\":{:.0}}}",
            wall * 1e3,
            rate
        ));
        if !quiet {
            println!(
                "  run {run}: {events} events in {:.1} ms  ->  {:.2} Mevents/s",
                wall * 1e3,
                rate / 1e6
            );
        }
        if cfg.profile {
            last_profile = sim.kernel_profile().cloned();
        }
        if cfg.region_block {
            regions = sim.region_dispatch_counts().to_vec();
        }
    }
    RunResult {
        best,
        runs,
        profile: last_profile,
        regions,
    }
}

/// Peak resident memory of this process in MB, read from Linux's
/// `/proc/self/status` `VmHWM` line; `None` where that is unavailable.
/// It covers the whole invocation, so the 4×4 reference run is
/// included, though on larger meshes the probed mesh dominates.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse::<f64>()
        .ok()?;
    Some(kb / 1024.0)
}

fn main() {
    let mut json = false;
    let mut profile = false;
    let mut telemetry = false;
    let mut region_block = false;
    let mut mesh: u8 = 4;
    let mut buckets: Option<usize> = None;
    let mut width_log2: Option<u32> = None;
    let mut positional: Vec<u64> = Vec::new();
    let mut args = std::env::args().skip(1);
    /// Prints why the arguments were refused and the usage line, then
    /// exits with status 2.
    fn usage(reason: &str) -> ! {
        eprintln!("sim_rate: {reason}");
        eprintln!(
            "usage: sim_rate [simulated_us] [repeats] [--mesh N] \
             [--buckets B] [--width-log2 W] [--json] [--profile] [--telemetry] \
             [--region-block]"
        );
        std::process::exit(2);
    }
    fn flag_val<T: std::str::FromStr>(flag: &str, args: &mut impl Iterator<Item = String>) -> T {
        match args.next().and_then(|v| v.parse().ok()) {
            Some(v) => v,
            None => usage(&format!("{flag} needs an in-range non-negative integer")),
        }
    }
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = true,
            "--profile" => profile = true,
            "--telemetry" => telemetry = true,
            "--region-block" => region_block = true,
            "--mesh" => mesh = flag_val("--mesh", &mut args),
            "--buckets" => buckets = Some(flag_val("--buckets", &mut args)),
            "--width-log2" => width_log2 = Some(flag_val("--width-log2", &mut args)),
            _ => positional.push(
                a.parse()
                    .unwrap_or_else(|_| usage(&format!("unexpected argument {a:?}"))),
            ),
        }
    }
    if positional.len() > 2 {
        usage("at most two positional arguments");
    }
    if mesh < 4 {
        usage(&format!("--mesh must be at least 4, got {mesh}"));
    }
    let sim_us = positional.first().copied().unwrap_or(50);
    let repeats = positional.get(1).copied().unwrap_or(5);
    if repeats == 0 {
        usage("repeats must be at least 1");
    }
    let geometry = (buckets.is_some() || width_log2.is_some()).then(|| WheelGeometry {
        num_buckets: buckets.unwrap_or(WheelGeometry::DEFAULT.num_buckets),
        width_log2: width_log2.unwrap_or(WheelGeometry::DEFAULT.width_log2),
    });
    if let Some(Err(msg)) = geometry.map(WheelGeometry::check) {
        usage(&msg);
    }

    let geom = geometry.unwrap_or_else(|| {
        WheelGeometry::for_mesh(
            mesh as usize * mesh as usize,
            mango::hw::RouterTiming::paper_typical()
                .min_event_delay()
                .as_ps(),
        )
    });
    if !json {
        println!(
            "mixed {mesh}x{mesh} mesh, {sim_us} us simulated, {repeats} runs, \
             wheel {}x{} ps{}",
            geom.num_buckets,
            geom.width_ps(),
            if region_block { ", region-blocked" } else { "" }
        );
    }
    let cfg = RunConfig {
        mesh,
        sim_us,
        repeats,
        geometry,
        profile,
        telemetry,
        region_block,
    };
    let result = measure(&cfg, json);
    let best = result.best;
    let per_event_ns = 1e9 / best;
    // The scaling headline: per-event cost relative to a 4x4 run of the
    // same workload, timed in this invocation so both sides see the same
    // machine state. 1.0 on the 4x4 itself.
    let ratio_vs_4x4 = if mesh == 4 {
        1.0
    } else {
        let ref_cfg = RunConfig {
            mesh: 4,
            geometry: None,
            ..cfg
        };
        let ref_best = measure(&ref_cfg, true).best;
        (1e9 / best) / (1e9 / ref_best)
    };
    if let Some(p) = &result.profile {
        let total = p.samples().max(1);
        println!("kernel profile ({} dispatches):", p.samples());
        for (name, count) in p.kind_counts() {
            if count > 0 {
                println!(
                    "  {name:<16} {count:>10}  ({:5.1}%)",
                    count as f64 * 100.0 / total as f64
                );
            }
        }
        println!(
            "  queue length     mean {:.1}  max {}",
            p.queue_len_mean(),
            p.queue_len_max()
        );
        println!(
            "  occupied buckets mean {:.1}  max {}",
            p.occupied_buckets_mean(),
            p.occupied_buckets_max()
        );
    }
    if json {
        let regions = result
            .regions
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(",");
        println!(
            "{{\"scenario\":\"mixed_{mesh}x{mesh}\",\"mesh\":{mesh},\"sim_us\":{sim_us},\
             \"repeats\":{repeats},\"wheel_buckets\":{},\"wheel_width_ps\":{},\
             \"region_block\":{region_block},\"region_dispatch\":[{regions}],\
             \"runs\":[{}],\"best_events_per_sec\":{:.0},\"best_mevents_per_sec\":{:.2},\
             \"per_event_ns\":{:.1},\"ratio_vs_4x4\":{:.3},\"peak_rss_mb\":{}}}",
            geom.num_buckets,
            geom.width_ps(),
            result.runs.join(","),
            best,
            best / 1e6,
            per_event_ns,
            ratio_vs_4x4,
            peak_rss_mb().map_or("null".to_string(), |mb| format!("{mb:.1}"))
        );
    } else {
        if region_block && !result.regions.is_empty() {
            let total: u64 = result.regions.iter().sum();
            println!(
                "region dispatch ({} regions, last run):",
                result.regions.len()
            );
            for (r, c) in result.regions.iter().enumerate() {
                println!(
                    "  region {r:<3} {c:>10}  ({:5.1}%)",
                    *c as f64 * 100.0 / total.max(1) as f64
                );
            }
        }
        println!(
            "best: {:.2} Mevents/s  ({per_event_ns:.0} ns/event, {ratio_vs_4x4:.2}x vs 4x4)",
            best / 1e6
        );
    }
}
