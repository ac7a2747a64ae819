//! One rep per child process.
//!
//! The parent starts this same executable with `child …` arguments, one
//! process per rep and one at a time. The child runs the rep, checks it, and
//! prints its results as `key value` lines; its peak memory is then the rep's
//! alone, and a panic (which aborts in release builds) or a hang kills only
//! that rep, which the parent counts as failed.

use crate::host;
use crate::stats;
use crate::workloads::{self, RepConfig, RepOutput, Workload};
use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A rep that outlives this is killed and counted as failed. Every rep takes
/// a few seconds at most; a hung one must not hold up the whole benchmark.
const CHILD_TIMEOUT: Duration = Duration::from_secs(90);

/// Why the parent ran a rep (only `Timed` reps enter the end-to-end medians).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The discarded first round.
    Warmup,
    /// An end-to-end measurement.
    Timed,
    /// The `jobs=1` rep of a multi-lane workload, checked against the others.
    Identity,
    /// The traced rep that gives the per-layer numbers.
    Traced,
    /// One side of an observation on/off pair.
    Overhead,
}

/// What the parent learned from one child.
#[derive(Debug, Clone)]
pub struct RepResult {
    pub config: RepConfig,
    pub role: Role,
    /// Root arrivals the rep generated (0 if it died before saying).
    pub arrivals: u64,
    pub values: BTreeMap<String, f64>,
    pub fingerprint: Option<String>,
    /// Failed checks and errors; a rep is good only when this is empty.
    pub problems: Vec<String>,
}

impl RepResult {
    pub fn ok(&self) -> bool {
        self.problems.is_empty() && self.fingerprint.is_some()
    }

    pub fn get(&self, key: &str) -> Option<f64> {
        self.values.get(key).copied()
    }

    fn new(config: RepConfig, role: Role) -> RepResult {
        RepResult {
            config,
            role,
            arrivals: 0,
            values: BTreeMap::new(),
            fingerprint: None,
            problems: Vec::new(),
        }
    }

    /// Parse a child's standard output.
    pub fn parse(config: RepConfig, role: Role, stdout: &str) -> RepResult {
        let mut rep = RepResult::new(config, role);
        let mut done = false;
        for line in stdout.lines() {
            let (key, value) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "arrivals" => rep.arrivals = value.parse().unwrap_or(0),
                "fingerprint" => rep.fingerprint = Some(value.to_string()),
                "problem" => rep.problems.push(value.to_string()),
                "done" => done = true,
                _ => match value.parse::<f64>() {
                    Ok(v) => {
                        rep.values.insert(key.to_string(), v);
                    }
                    Err(_) => rep.problems.push(format!("unparsable line {line:?}")),
                },
            }
        }
        if !done {
            rep.problems.push("child stopped before finishing".into());
        }
        rep
    }
}

fn flag(on: bool) -> &'static str {
    if on {
        "1"
    } else {
        "0"
    }
}

/// The child's command line for a rep.
fn child_args(cfg: &RepConfig, spans: Option<&Path>) -> Vec<String> {
    let mut args = vec![
        "child".to_string(),
        "--workload".into(),
        cfg.workload.name().into(),
        "--seed".into(),
        cfg.seed.to_string(),
        "--duration".into(),
        cfg.duration_s.to_string(),
        "--jobs".into(),
        cfg.jobs.to_string(),
        "--histograms".into(),
        flag(cfg.histograms).into(),
        "--timeline".into(),
        flag(cfg.timeline).into(),
    ];
    if let Some(path) = spans {
        args.push("--spans".into());
        args.push(path.display().to_string());
    }
    args
}

/// Run one rep in a child process and wait for it.
pub fn spawn_rep(cfg: &RepConfig, role: Role, spans: Option<&Path>) -> RepResult {
    let fail = |problem: String| RepResult {
        problems: vec![problem],
        ..RepResult::new(cfg.clone(), role)
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return fail(format!("cannot locate the benchmark executable: {e}")),
    };
    let mut child = match Command::new(exe)
        .args(child_args(cfg, spans))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
    {
        Ok(child) => child,
        Err(e) => return fail(format!("cannot start a child: {e}")),
    };
    let mut stdout = child.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if started.elapsed() > CHILD_TIMEOUT => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("killed after {} s", CHILD_TIMEOUT.as_secs()));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(2)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("cannot wait for the child: {e}"));
            }
        }
    };
    let text = reader.join().unwrap_or_default();
    let mut rep = RepResult::parse(cfg.clone(), role, &text);
    match status {
        Ok(status) if status.success() => {}
        Ok(status) => rep.problems.push(format!("child exited with {status}")),
        Err(problem) => rep.problems.push(problem),
    }
    rep
}

/// Entry point of `child …`: parse the rep, run it, print the report.
pub fn child_main(args: &[String]) -> i32 {
    let (cfg, spans) = match parse_child_args(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("child: {e}");
            return 2;
        }
    };
    let out = workloads::run_rep(&cfg, |arrivals| {
        println!("arrivals {arrivals}");
        let _ = std::io::stdout().flush();
    });
    let out = match out {
        Ok(out) => out,
        Err(e) => {
            println!("problem engine error: {e}");
            println!("done");
            return 1;
        }
    };
    for problem in workloads::check(&out) {
        println!("problem {problem}");
    }
    println!("fingerprint {}", workloads::fingerprint(&out));
    for (key, value) in rep_metrics(&cfg, &out) {
        println!("{key} {value}");
    }
    if let Some(path) = spans {
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, out.spans.to_chrome_json()));
        if let Err(e) = written {
            println!("problem cannot write {}: {e}", path.display());
        }
    }
    println!("done");
    0
}

fn parse_child_args(args: &[String]) -> Result<(RepConfig, Option<PathBuf>), String> {
    let opts = crate::parse_options(
        args,
        &[
            "--workload",
            "--seed",
            "--duration",
            "--jobs",
            "--histograms",
            "--timeline",
            "--spans",
        ],
    )?;
    let name: String = crate::parse_value(&opts, "--workload", None)?;
    let workload = Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let mut cfg = RepConfig::new(workload, crate::parse_value(&opts, "--seed", None)?);
    cfg.duration_s = crate::parse_value(&opts, "--duration", Some(cfg.duration_s))?;
    cfg.jobs = crate::parse_value(&opts, "--jobs", Some(cfg.jobs))?.max(1);
    let switch = |key, default: bool| -> Result<bool, String> {
        Ok(crate::parse_value::<u8>(&opts, key, Some(u8::from(default)))? != 0)
    };
    cfg.histograms = switch("--histograms", cfg.histograms)?;
    cfg.timeline = switch("--timeline", cfg.timeline)?;
    let spans = opts.get("--spans").map(PathBuf::from);
    cfg.traced = spans.is_some();
    Ok((cfg, spans))
}

/// The numbers one rep reports: the end-to-end metrics, the per-layer counts
/// the run results carry, and (when traced) the per-layer numbers from spans.
fn rep_metrics(cfg: &RepConfig, out: &RepOutput) -> Vec<(&'static str, f64)> {
    let s = &out.summary;
    let arrivals = out.arrivals as f64;
    let run_s = out.spans.dur_s(out.run_span);
    let events = s.events_processed as f64;
    let mut m = vec![
        ("setup_s", out.spans.dur_s(out.setup_span)),
        ("run_s", run_s),
        ("arrivals_per_s", arrivals / run_s),
        ("peak_rss_mb", host::peak_rss_mib()),
        ("sim_slo_attainment", s.total_on_time as f64 / arrivals),
        ("sim_accuracy", s.system_accuracy),
        ("sim_p50_ms", s.p50_ms),
        ("sim_p999_ms", s.p999_ms),
        ("sim_drop_rate", s.total_dropped as f64 / arrivals),
        ("sim.dropped", s.total_dropped as f64),
        ("sim.dropped_reclaimed", s.total_dropped_reclaimed as f64),
        ("sim.dropped_revoked", s.total_dropped_revoked as f64),
        ("engine.events", events),
        ("engine.events_per_arrival", events / arrivals),
        ("engine.cpu_per_wall", out.cpu_s / run_s),
        ("arbiter.rebalances", out.rebalances as f64),
        ("arbiter.migrations", out.migrations as f64),
        ("journal.events", out.journal_events as f64),
    ];
    // Lane-level shares exist only where lanes run side by side; 0 marks a
    // single-lane workload, which bypasses the barrier layer.
    let (lane_critical, barrier_wait) = if out.lanes.is_empty() {
        (0.0, 0.0)
    } else {
        let critical = out.lanes.iter().map(|l| l.wall_s).fold(0.0, f64::max);
        let wait: f64 = out.lanes.iter().map(|l| l.barrier_wait_s).sum();
        let busy: f64 = out.lanes.iter().map(|l| l.wall_s).sum();
        (critical / run_s, wait / (wait + busy))
    };
    m.push(("engine.lane_critical_share", lane_critical));
    m.push(("engine.barrier_wait_share", barrier_wait));
    let cost = out.cost.as_ref();
    if let Some(c) = cost {
        m.push(("sim_cost_per_1k_usd", c.cost_per_1k_queries));
    }
    let per_class = |f: fn(&loki_sim::ClassCost) -> u64| -> f64 {
        cost.map_or(0, |c| c.per_class.iter().map(f).sum::<u64>()) as f64
    };
    m.push((
        "market.revocations",
        cost.map_or(0, |c| c.revocations) as f64,
    ));
    m.push(("market.stockouts", cost.map_or(0, |c| c.stockouts) as f64));
    m.push(("elastic.provisioned", per_class(|c| c.provisioned)));
    m.push(("elastic.retired", per_class(|c| c.retired)));
    if cfg.traced {
        m.extend(span_metrics(cfg, out, events));
    }
    m
}

/// Per-layer numbers derived from a traced rep's spans.
fn span_metrics(cfg: &RepConfig, out: &RepOutput, events: f64) -> Vec<(&'static str, f64)> {
    let log = &out.spans;
    let seconds = |name: &str| log.named(name).map(|s| s.dur_ns()).sum::<u64>() as f64 * 1e-9;
    let calls = |name: &str| log.named(name).count() as f64;
    let items = |name: &str| log.named(name).map(|s| u64::from(s.items)).sum::<u64>() as f64;
    let p99_ms = |name: &str| {
        let d: Vec<f64> = log.named(name).map(|s| s.dur_ns() as f64 * 1e-6).collect();
        if d.is_empty() {
            0.0
        } else {
            stats::nearest_rank(&d, 0.99)
        }
    };
    let engine_self_s = log.self_ns()[out.run_span] as f64 * 1e-9;
    let routing_calls = calls("controller.routing");
    // Each rebalance tick after the initial partition is an epoch barrier at
    // which the lanes' worker threads are started anew.
    let epochs = if cfg.workload.is_multi_lane() && cfg.jobs > 1 {
        (calls("arbiter.partition") - 1.0).max(0.0)
    } else {
        0.0
    };
    vec![
        ("workload.trace_s", seconds("workload.trace")),
        ("workload.arrivals_s", seconds("workload.arrivals")),
        ("engine.new_s", seconds("engine.new")),
        ("engine.self_s", engine_self_s),
        ("engine.ns_per_event", engine_self_s * 1e9 / events),
        ("par.epochs", epochs),
        ("controller.plan_calls", calls("controller.plan")),
        ("controller.plan_s", seconds("controller.plan")),
        ("controller.plan_p99_ms", p99_ms("controller.plan")),
        ("controller.plan_installs", items("controller.plan")),
        ("controller.routing_calls", routing_calls),
        ("controller.routing_s", seconds("controller.routing")),
        ("controller.routing_p99_ms", p99_ms("controller.routing")),
        ("controller.routing_installs", items("controller.routing")),
        (
            "controller.routing_cache_hit_ratio",
            (routing_calls - items("controller.routing")) / routing_calls.max(1.0),
        ),
        ("arbiter.calls", calls("arbiter.partition")),
        ("arbiter.s", seconds("arbiter.partition")),
        ("provisioner.calls", calls("provisioner.decide")),
        ("provisioner.s", seconds("provisioner.decide")),
        ("provisioner.actions", items("provisioner.decide")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_arguments_round_trip() {
        let cfg = RepConfig {
            jobs: 1,
            histograms: false,
            duration_s: 30,
            ..RepConfig::new(Workload::Zipf16Shared, 43)
        };
        let args = child_args(&cfg, Some(Path::new("out/x.json")));
        assert_eq!(args[0], "child");
        let (parsed, spans) = parse_child_args(&args[1..]).expect("parses");
        assert_eq!(spans.as_deref(), Some(Path::new("out/x.json")));
        assert_eq!(
            parsed,
            RepConfig {
                traced: true,
                ..cfg
            }
        );
        assert!(parse_child_args(&["--seed".into()]).is_err());
        assert!(parse_child_args(&["--workload".into(), "nope".into()]).is_err());
    }

    #[test]
    fn reports_parse_and_flag_incomplete_children() {
        let cfg = RepConfig::new(Workload::SteadyUniform, 1);
        let good = RepResult::parse(
            cfg.clone(),
            Role::Timed,
            "arrivals 10\nfingerprint ab\nrun_s 1.5\ndone\n",
        );
        assert!(good.ok());
        assert_eq!(good.arrivals, 10);
        assert_eq!(good.get("run_s"), Some(1.5));
        // A child that died after announcing its arrivals.
        let crashed = RepResult::parse(cfg, Role::Timed, "arrivals 10\n");
        assert!(!crashed.ok());
        assert_eq!(crashed.arrivals, 10);
    }
}
