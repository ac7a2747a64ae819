//! The `loki` CLI: one binary for the whole evaluation harness.
//!
//! ```text
//! loki list   [--json]                                  # registered scenarios
//! loki run    <scenario> [key=value …] [--json] [--jobs N]
//! loki sweep  <scenario> [axis=v1,v2,…] [key=value …] [--json] [--csv] [--jobs N] [--serial]
//! ```
//!
//! `run` executes one scenario: an analytic kind computes its table, and a
//! simulator-driven kind runs its labelled point set and adds its headlines.
//! `sweep` crosses the same point set with a grid over the [`Sweep::AXES`] and
//! fans the points out across cores, reporting cross-seed mean/stddev per axis
//! point (with a `--csv` emitter for figure plotting). Both print through one
//! renderer, so every column and JSON key is a metric name.
//! Unknown keys and unparsable values exit with a clear error (exit code 2)
//! instead of being silently ignored, and so does a config some point cannot
//! run: every point's workload is checked before the first one runs, and a run
//! the engine cannot start prints its [`loki_sim::EngineError`]. Performance
//! is measured by the reference benchmark, not by this CLI: see
//! `benchmark/README.md`.

use loki_bench::figures::{self, ScenarioReport};
use loki_bench::report::{self, Json};
use loki_bench::runner::Runner;
use loki_bench::scenario::{self, PointResult, RunPoint, Scenario};
use loki_bench::sweep::Sweep;
use std::fmt::Write as _;

const USAGE: &str = "loki — the Loki evaluation harness

USAGE:
  loki list   [--json]                                 list registered scenarios
  loki run    <scenario> [key=value ...] [--json] [--jobs N] [--trace PATH] [--timeline PATH]
  loki sweep  <scenario> [axis=v1,v2,...] [key=value ...] [--json] [--csv] [--jobs N] [--serial]
  loki help

Config keys: cluster, slo, duration, peak, base, seed, bucket, drain,
jobs (engine lane threads for multi-pipeline scenarios; bit-identical),
links (uniform, two-tier, edge-split), elastic (fixed, static-peak,
static-mean, autoscale), classes (uniform, mixed), spot (true/false),
revoke (spot revocations per worker-hour), stockout (probability),
provisioner (reactive, forecast), route (accuracy, link-aware),
trace (sample every Nth root query; 0 = off), timeline (cluster event
journal + windowed histogram deltas, true/false).
Reports carry simulated values and counts only, so each is a pure function
of scenario and config; jobs= changes only host speed, which the reference
benchmark measures (benchmark/README.md).

`run --trace PATH` executes the scenario's canonical point with tracing on
(trace=100 unless overridden) and writes Chrome trace-event JSON to PATH —
load it in Perfetto (ui.perfetto.dev) or chrome://tracing.
`run --timeline PATH` executes the canonical point with timeline=true and
writes the windowed time-series export: JSON (interval rows interleaved with
journal events, plus the SLO burn analysis) to PATH and the flat per-interval
CSV next to it (.json swapped for .csv). Timeline files record simulated time
only and are byte-identical for every jobs= value.
Sweep axes (comma-separated lists): controllers, slo, peak, cluster, links,
route, elastic, spot, revoke, stockout, provisioner, seed.
A simulator-driven scenario runs a labelled point set: the three systems of a
comparison (on both pipelines for capacity_table), Figure 8's five SLOs,
Figure 7's four drop policies, the three elastic modes, the three spot fleets,
or one point. `run` executes it and adds
the scenario's headline values; `sweep` crosses it with the axes given, seed
innermost, except that an axis over a setting the set varies replaces it
(controllers on comparisons and capacity_table, slo on fig8_slo_sweep, elastic
on elastic_diurnal, elastic/spot/revoke/stockout/provisioner on spot_diurnal).
Every table column and JSON point key is a metric name (EXPERIMENTS.md lists
them). Multi-seed sweeps report cross-seed mean/stddev per axis point; --csv
emits one flat CSV (stat=point|mean|stddev) ready for plotting.
See EXPERIMENTS.md for the invocation reproducing each paper figure.";

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("run `loki help` for usage");
    std::process::exit(2);
}

/// The value of `outcome`, or exit 2 printing its error on one line.
fn or_exit<T, E: std::fmt::Display>(outcome: Result<T, E>) -> T {
    outcome.unwrap_or_else(|error| {
        eprintln!("error: {error}");
        std::process::exit(2);
    })
}

/// Exit 2 naming the key of the first point whose workload cannot be built.
fn check_points(points: &[RunPoint]) {
    or_exit(points.iter().try_for_each(RunPoint::check_workload));
}

/// The scenario's canonical point, checked and executed once on this thread.
fn execute_canonical(sc: &Scenario, cfg: &loki_bench::ExperimentConfig) -> PointResult {
    let point = scenario::scenario_point(sc, cfg);
    check_points(std::slice::from_ref(&point));
    or_exit(point.execute())
}

/// Flags of `list`, `run` and `sweep`.
struct Flags {
    json: bool,
    csv: bool,
    jobs: Option<usize>,
    serial: bool,
    /// Output path for Chrome trace-event JSON (`run` only).
    trace: Option<String>,
    /// Output path for the windowed timeline export (`run` only).
    timeline: Option<String>,
    /// Remaining `key=value` operands.
    kv: Vec<String>,
}

/// Parse the flags of `command`, rejecting those it does not take.
fn parse_flags(command: &str, args: &[String]) -> Flags {
    let mut flags = Flags {
        json: false,
        csv: false,
        jobs: None,
        serial: false,
        trace: None,
        timeline: None,
        kv: Vec::new(),
    };
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => flags.json = true,
            "--csv" => flags.csv = true,
            "--serial" => flags.serial = true,
            "--jobs" => {
                let Some(value) = iter.next() else {
                    fail("--jobs requires a value");
                };
                match value.parse::<usize>() {
                    Ok(n) if n >= 1 => flags.jobs = Some(n),
                    _ => fail(&format!("invalid --jobs value {value:?}")),
                }
            }
            "--trace" => {
                let Some(value) = iter.next() else {
                    fail("--trace requires an output path");
                };
                flags.trace = Some(value.clone());
            }
            "--timeline" => {
                let Some(value) = iter.next() else {
                    fail("--timeline requires an output path");
                };
                flags.timeline = Some(value.clone());
            }
            other if other.starts_with("--") => fail(&format!("unknown flag {other:?}")),
            other => flags.kv.push(other.to_string()),
        }
    }
    if flags.csv && command != "sweep" {
        fail("--csv is only available for sweep");
    }
    if flags.trace.is_some() && command != "run" {
        fail("--trace is only available for run");
    }
    if flags.timeline.is_some() && command != "run" {
        fail("--timeline is only available for run");
    }
    flags
}

fn runner_from_flags(flags: &Flags) -> Runner {
    if flags.serial {
        Runner::serial()
    } else if let Some(jobs) = flags.jobs {
        Runner::with_jobs(jobs)
    } else {
        Runner::auto()
    }
}

fn lookup_scenario(name: &str) -> &'static Scenario {
    scenario::find(name).unwrap_or_else(|| {
        fail(&format!(
            "unknown scenario {name:?}; `loki list` shows the registry"
        ))
    })
}

fn cmd_list(args: &[String]) {
    let flags = parse_flags("list", args);
    if !flags.kv.is_empty() {
        fail(&format!("list takes no operands, got {:?}", flags.kv));
    }
    if flags.json {
        let rows = scenario::REGISTRY
            .iter()
            .map(|sc| {
                let cfg = sc.config();
                // The default sweep grid: what `loki sweep <name>` enumerates
                // before any axis is widened — scripts drive sweeps from this.
                let axes = Sweep::for_scenario(sc, cfg.clone()).axes_json();
                let mut obj = Json::object();
                obj.push("name", sc.name.into())
                    .push("title", sc.title.into())
                    .push("kind", format!("{:?}", sc.kind).into())
                    .push("pipeline", sc.pipeline.name().into())
                    .push("trace", sc.trace.name().into())
                    .push("axes", axes)
                    .push("config", figures::config_json(&cfg));
                obj
            })
            .collect();
        let mut out = Json::object();
        out.push("scenarios", Json::Arr(rows));
        print!("{}", out.render());
        return;
    }
    let mut out = String::new();
    let _ = writeln!(out, "{:<22} {:<20} title", "scenario", "kind");
    for sc in scenario::REGISTRY {
        let _ = writeln!(
            out,
            "{:<22} {:<20} {}",
            sc.name,
            format!("{:?}", sc.kind),
            sc.title
        );
    }
    print!("{out}");
}

fn cmd_run(args: &[String]) {
    let flags = parse_flags("run", args);
    let Some((name, overrides)) = flags.kv.split_first() else {
        fail("run requires a scenario name");
    };
    let sc = lookup_scenario(name);
    let mut cfg = sc.config();
    if let Err(message) = cfg.apply_overrides(overrides.iter().map(String::as_str)) {
        fail(&message);
    }
    if flags.trace.is_some() && flags.timeline.is_some() {
        fail("--trace and --timeline are mutually exclusive");
    }
    if let Some(path) = &flags.trace {
        cmd_run_traced(sc, cfg, path, &flags);
        return;
    }
    if let Some(path) = &flags.timeline {
        cmd_run_timeline(sc, cfg, path, &flags);
        return;
    }
    check_points(&Sweep::for_scenario(sc, cfg.clone()).points());
    let runner = runner_from_flags(&flags);
    let report = or_exit(figures::run_scenario(sc, &cfg, &runner));
    emit(&report, flags.json);
}

/// `run --trace PATH`: execute the scenario's canonical point once with query
/// tracing enabled and write the Chrome trace-event JSON to `path`. Skips the
/// kind's point set and report — the trace is the deliverable, not the figure.
fn cmd_run_traced(sc: &Scenario, mut cfg: loki_bench::ExperimentConfig, path: &str, flags: &Flags) {
    if cfg.trace_sample == 0 {
        cfg.trace_sample = 100;
    }
    let point = execute_canonical(sc, &cfg);
    let Some(trace) = &point.result.trace else {
        fail("run produced no trace (simulation recorded zero sampled roots)");
    };
    if let Err(err) = std::fs::write(path, trace.to_chrome_json()) {
        fail(&format!("cannot write trace to {path:?}: {err}"));
    }
    let s = &point.result.summary;
    if flags.json {
        let mut obj = Json::object();
        obj.push("scenario", sc.name.into())
            .push("trace_path", path.into())
            .push("trace_sample", cfg.trace_sample.into())
            .push("roots", Json::UInt(trace.roots.len() as u64))
            .push("spans", Json::UInt(trace.num_spans() as u64))
            .push("p50_ms", s.p50_ms.into())
            .push("p99_ms", s.p99_ms.into());
        print!("{}", obj.render());
    } else {
        println!(
            "traced {}: {} sampled roots, {} spans (every {}th arrival) -> {}",
            sc.name,
            trace.roots.len(),
            trace.num_spans(),
            cfg.trace_sample,
            path
        );
        println!(
            "latency_ms p50 {:.1}  p90 {:.1}  p99 {:.1}  p999 {:.1}",
            s.p50_ms, s.p90_ms, s.p99_ms, s.p999_ms
        );
        println!("open in Perfetto (ui.perfetto.dev) or chrome://tracing");
    }
}

/// Sibling CSV path of a `--timeline` JSON path: swap a `.json` suffix for
/// `.csv`, else append `.csv`.
fn timeline_csv_path(path: &str) -> String {
    match path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.csv"),
        None => format!("{path}.csv"),
    }
}

/// `run --timeline PATH`: execute the scenario's canonical point once with the
/// timeline channel on and write the windowed time-series export — JSON at
/// PATH (interval rows interleaved with journal events + the burn analysis)
/// and the flat per-interval CSV next to it. Skips the kind's point set and
/// report: the timeline is the deliverable, not the figure.
fn cmd_run_timeline(
    sc: &Scenario,
    mut cfg: loki_bench::ExperimentConfig,
    path: &str,
    flags: &Flags,
) {
    cfg.timeline = true;
    let point = execute_canonical(sc, &cfg);
    let json = loki_bench::timeline::timeline_json(sc.name, &point);
    if let Err(err) = std::fs::write(path, &json) {
        fail(&format!("cannot write timeline to {path:?}: {err}"));
    }
    let csv_path = timeline_csv_path(path);
    let csv = loki_bench::timeline::timeline_csv(&point);
    if let Err(err) = std::fs::write(&csv_path, &csv) {
        fail(&format!("cannot write timeline to {csv_path:?}: {err}"));
    }
    let events = point.result.journal.as_ref().map_or(0, |j| j.len());
    let intervals = point.result.intervals.len();
    let lanes = point.per_pipeline.len().max(1);
    if flags.json {
        let mut obj = Json::object();
        obj.push("scenario", sc.name.into())
            .push("timeline_path", path.into())
            .push("timeline_csv_path", csv_path.as_str().into())
            .push("intervals", Json::UInt(intervals as u64))
            .push("lanes", Json::UInt(lanes as u64))
            .push("journal_events", Json::UInt(events as u64));
        if let Some(burn) = &point.burn {
            obj.push("burn_episodes", Json::UInt(burn.episodes.len() as u64))
                .push("budget_consumed", burn.budget_consumed.into())
                .push("worst_burn_rate", burn.worst_burn_rate.into());
        }
        print!("{}", obj.render());
    } else {
        println!(
            "timeline {}: {} intervals x {} lane(s), {} journal events -> {} (+ {})",
            sc.name, intervals, lanes, events, path, csv_path
        );
        if let Some(burn) = &point.burn {
            println!(
                "slo budget: {:.1}% consumed, worst burn rate {:.2}x, {} episode(s)",
                burn.budget_consumed * 100.0,
                burn.worst_burn_rate,
                burn.episodes.len()
            );
            for ep in &burn.episodes {
                println!(
                    "  [{:.0}s..{:.0}s] {}: peak {:.1}x, {} bad queries ({:.1}% of budget) — {}",
                    ep.start_s,
                    ep.end_s,
                    ep.cause.name(),
                    ep.peak_burn_rate,
                    ep.bad_queries,
                    ep.budget_consumed_pct,
                    ep.evidence
                );
            }
        }
    }
}

fn cmd_sweep(args: &[String]) {
    let flags = parse_flags("sweep", args);
    if flags.json && flags.csv {
        fail("--json and --csv are mutually exclusive");
    }
    let Some((name, operands)) = flags.kv.split_first() else {
        fail("sweep requires a scenario name");
    };
    let sc = lookup_scenario(name);
    let mut cfg = sc.config();
    let mut axes: Vec<(String, String)> = Vec::new();
    for arg in operands {
        let Some((key, value)) = arg.split_once('=') else {
            fail(&format!("expected key=value, got {arg:?}"));
        };
        match key {
            // Axis keys accept comma-separated lists and are applied to the grid.
            _ if Sweep::is_axis(key) => axes.push((key.to_string(), value.to_string())),
            // Everything else is a base-config override.
            _ => {
                if let Err(message) = cfg.set(key, value) {
                    fail(&message);
                }
            }
        }
    }
    let mut sweep = Sweep::for_scenario(sc, cfg.clone());
    for (axis, values) in &axes {
        if let Err(message) = sweep.set_axis(axis, values) {
            fail(&message);
        }
    }
    if sweep.is_empty() {
        fail("sweep grid is empty");
    }
    let points = sweep.points();
    check_points(&points);
    let runner = runner_from_flags(&flags);
    eprintln!(
        "sweep {}: {} points across {} worker thread(s)",
        sc.name,
        sweep.len(),
        runner.jobs.min(sweep.len())
    );
    let results = or_exit(runner.run(points.clone()));
    if flags.csv {
        print!("{}", report::sweep_csv(sc.name, &points, &results));
        return;
    }
    emit(
        &figures::render(sc, &cfg, &points, &results, &[]),
        flags.json,
    );
}

fn emit(report: &ScenarioReport, json: bool) {
    if json {
        print!("{}", report.json.render());
    } else {
        print!("{}", report.text);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        None => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
        Some((command, rest)) => match command.as_str() {
            "list" => cmd_list(rest),
            "run" => cmd_run(rest),
            "sweep" => cmd_sweep(rest),
            "help" | "--help" | "-h" => println!("{USAGE}"),
            other => fail(&format!("unknown command {other:?}")),
        },
    }
}
