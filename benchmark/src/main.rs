//! The reference benchmark of the Loki simulator.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- all --seed 42
//! cargo run --release --manifest-path benchmark/Cargo.toml -- calibrate --sets 5
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload steady_uniform --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every rep runs in a child process of its own (see `child`), one at a time.
//! `README.md` describes the workloads, the metrics and their bounds.

mod child;
mod host;
mod micro;
mod report;
mod spans;
mod stats;
mod workloads;

use child::{spawn_rep, RepResult, Role};
use report::{json_num, json_object, json_str, Accounting, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workloads::{RepConfig, Workload};

const USAGE: &str = "\
usage:
  loki_benchmark all [--seed N]
      every workload end to end, then traced; prints every metric and writes
      out/results.json and out/spans_<workload>.json
  loki_benchmark calibrate [--sets N] [--seed N]
      the end-to-end phase N times; prints and writes the set-to-set spread
      of every metric to out/calibration.json
  loki_benchmark --workload NAME --seed N --seconds S --trace 0|1
      one workload measured for about S seconds (end to end with --trace 0,
      per layer with --trace 1); the last output line is a JSON result
workloads: steady_uniform, diurnal_hetnet, zipf16_shared, spot_timeline";

/// Where results and span files go: `out/` next to this package's manifest.
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn spans_path(w: Workload) -> PathBuf {
    out_dir().join(format!("spans_{}.json", w.name()))
}

/// Observation on/off pairs per overhead metric (fewer when a time budget
/// runs out first).
const PAIRS: usize = 7;
/// Traced reps per workload (see [`traced_phase`]).
const TRACED_REPS: usize = 3;
/// Fewest timed reps a run reports on, however short `--seconds`.
const MIN_TIMED_REPS: usize = 3;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("child") => child::child_main(&args[1..]),
        Some("all") => run_command(cmd_all(&args[1..])),
        Some("calibrate") => run_command(cmd_calibrate(&args[1..])),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            0
        }
        Some(a) if a.starts_with("--") => run_command(cmd_workload(&args)),
        _ => run_command(Err(format!("expected a command\n{USAGE}"))),
    };
    std::process::exit(code);
}

fn run_command(result: Result<bool, String>) -> i32 {
    match result {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("loki_benchmark: {e}");
            2
        }
    }
}

/// Parse `--key value` pairs, accepting only `allowed` keys.
fn parse_options(args: &[String], allowed: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    for pair in args.chunks(2) {
        let [key, value] = pair else {
            return Err(format!("missing value after {}", pair[0]));
        };
        if !allowed.contains(&key.as_str()) {
            return Err(format!("unknown argument {key}\n{USAGE}"));
        }
        out.insert(key.clone(), value.clone());
    }
    Ok(out)
}

/// The parsed value of an option, or `default` when it is absent.
fn parse_value<T: std::str::FromStr>(
    opts: &BTreeMap<String, String>,
    key: &str,
    default: Option<T>,
) -> Result<T, String> {
    match opts.get(key) {
        Some(v) => v.parse().map_err(|_| format!("bad value for {key}: {v:?}")),
        None => default.ok_or_else(|| format!("{key} is required")),
    }
}

/// The end-to-end phase: one discarded warm-up round, then the workloads in
/// turn until each has its rep count (so slow and fast moments of the host
/// spread over all of them), then the `jobs=1` identity reps.
fn end_to_end_phase(seed: u64) -> Vec<Vec<RepResult>> {
    let mut reps: Vec<Vec<RepResult>> = Workload::ALL
        .iter()
        .map(|&w| vec![spawn_rep(&RepConfig::new(w, seed), Role::Warmup, None)])
        .collect();
    let rounds = Workload::ALL.iter().map(|w| w.reps()).max().unwrap_or(0);
    for round in 0..rounds {
        for (i, &w) in Workload::ALL.iter().enumerate() {
            if round < w.reps() {
                reps[i].push(spawn_rep(&RepConfig::new(w, seed), Role::Timed, None));
            }
        }
    }
    for (i, &w) in Workload::ALL.iter().enumerate() {
        if w.jobs() > 1 {
            reps[i].push(identity_rep(w, seed));
        }
    }
    reps
}

fn identity_rep(w: Workload, seed: u64) -> RepResult {
    let cfg = RepConfig {
        jobs: 1,
        ..RepConfig::new(w, seed)
    };
    spawn_rep(&cfg, Role::Identity, None)
}

/// The fastest good traced rep of a workload: its run time and its
/// per-layer numbers.
struct Traced {
    run_s: f64,
    layers: BTreeMap<&'static str, f64>,
}

/// [`TRACED_REPS`] traced reps of `w`, appended to `reps`. The per-layer
/// numbers come from the fastest good one (the one the host disturbed
/// least), whose spans become `out/spans_<workload>.json`.
fn traced_phase(w: Workload, seed: u64, reps: &mut Vec<RepResult>) -> Result<Traced, String> {
    let cfg = RepConfig {
        traced: true,
        ..RepConfig::new(w, seed)
    };
    let mut fastest: Option<(Traced, PathBuf)> = None;
    let mut paths = Vec::new();
    for k in 0..TRACED_REPS {
        let path = out_dir().join(format!("spans_{}.{k}.json", w.name()));
        let rep = spawn_rep(&cfg, Role::Traced, Some(&path));
        if let Some(run_s) = rep.get("run_s").filter(|_| rep.ok()) {
            if fastest.as_ref().is_none_or(|(f, _)| run_s < f.run_s) {
                let layers = per_layer_of(&rep);
                fastest = Some((Traced { run_s, layers }, path.clone()));
            }
        }
        paths.push(path);
        reps.push(rep);
    }
    let (traced, chosen) = fastest.ok_or_else(|| format!("{}: no good traced rep", w.name()))?;
    for path in paths.iter().filter(|p| **p != chosen) {
        let _ = std::fs::remove_file(path);
    }
    std::fs::rename(&chosen, spans_path(w))
        .map_err(|e| format!("cannot move {}: {e}", chosen.display()))?;
    Ok(traced)
}

/// An observation switch measured by on/off pairs.
#[derive(Debug, Clone, Copy)]
enum Knob {
    Histograms,
    Timeline,
}

impl Knob {
    fn metric(self) -> &'static str {
        match self {
            Knob::Histograms => "observe.hist_overhead_pct",
            Knob::Timeline => "observe.timeline_overhead_pct",
        }
    }
}

/// One on/off pair of `knob` on `w`, `on_first` alternating the order from
/// pair to pair; the `(on, off)` run times when both reps were good.
fn run_pair(
    w: Workload,
    seed: u64,
    knob: Knob,
    on_first: bool,
    reps: &mut Vec<RepResult>,
) -> Option<(f64, f64)> {
    let mut times = [None, None];
    for on in [on_first, !on_first] {
        let mut cfg = RepConfig::new(w, seed);
        match knob {
            Knob::Histograms => cfg.histograms = on,
            Knob::Timeline => cfg.timeline = on,
        }
        let rep = spawn_rep(&cfg, Role::Overhead, None);
        times[usize::from(!on)] = rep.get("run_s").filter(|_| rep.ok());
        reps.push(rep);
    }
    Some((times[0]?, times[1]?))
}

/// The cost of turning a knob on, as a percentage of the run time with it
/// off, from the best rep of each side (see `report::Reduce::Best`).
fn overhead_pct(pairs: &[(f64, f64)]) -> f64 {
    let on = pairs.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
    let off = pairs.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
    percent_over(on, off)
}

/// How much longer `time` is than `baseline`, in percent.
fn percent_over(time: f64, baseline: f64) -> f64 {
    (time - baseline) / baseline * 100.0
}

/// The microbenchmarks, keyed by metric name, and any determinism problem.
fn microbenchmarks() -> (BTreeMap<&'static str, f64>, Vec<String>) {
    let milp = micro::milp();
    let values = BTreeMap::from([
        (
            "calendar.push_pop_ns.uniform",
            micro::calendar_push_pop_ns(&micro::hop_mix(false)),
        ),
        (
            "calendar.push_pop_ns.two_tier",
            micro::calendar_push_pop_ns(&micro::hop_mix(true)),
        ),
        ("routing.alias_sample_ns", micro::alias_sample_ns()),
        ("routing.plan_emit_us", micro::plan_emit_us()),
        ("slab.insert_remove_ns", micro::slab_insert_remove_ns()),
        ("trace.hist_record_ns", micro::hist_record_ns()),
        ("milp.solve_s", milp.solve_s),
        ("milp.nodes", milp.nodes as f64),
        ("milp.simplex_iters", milp.simplex_iters as f64),
        (
            "milp.us_per_simplex_iter",
            milp.solve_s * 1e6 / milp.simplex_iters as f64,
        ),
    ]);
    (values, milp.problems)
}

/// The per-layer metrics a traced rep reported.
fn per_layer_of(rep: &RepResult) -> BTreeMap<&'static str, f64> {
    PER_LAYER
        .iter()
        .filter_map(|d| rep.get(d.name).map(|v| (d.name, v)))
        .collect()
}

/// Print every bad rep's problems; true when there were none.
fn report_problems(workload: Workload, reps: &[RepResult]) -> bool {
    let mut clean = true;
    for rep in reps.iter().filter(|r| !r.ok()) {
        clean = false;
        for problem in &rep.problems {
            println!("FAILED {} {:?} rep: {problem}", workload.name(), rep.role);
        }
    }
    clean
}

fn host_json(host: &[(&'static str, String)]) -> String {
    json_object(host.iter().map(|(k, v)| (*k, json_str(v))))
}

fn write_out(name: &str, text: &str) -> Result<PathBuf, String> {
    let path = out_dir().join(name);
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// `all`: the end-to-end phase, then the traced reps of every workload, the
/// observation on/off pairs on the workload each observer loads most, and
/// the microbenchmarks.
fn cmd_all(args: &[String]) -> Result<bool, String> {
    let opts = parse_options(args, &["--seed"])?;
    let seed: u64 = parse_value(&opts, "--seed", Some(42))?;
    let started = Instant::now();
    let host = host::describe();
    println!("loki benchmark, seed {seed}");
    for (k, v) in &host {
        println!("  {k}: {v}");
    }

    eprintln!("end-to-end phase …");
    let mut reps = end_to_end_phase(seed);
    eprintln!("traced phase …");
    let mut problems: Vec<String> = Vec::new();
    let mut layers: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut traced_run_s: Vec<Option<f64>> = Vec::new();
    for (i, &w) in Workload::ALL.iter().enumerate() {
        match traced_phase(w, seed, &mut reps[i]) {
            Ok(traced) => {
                layers.push(traced.layers);
                traced_run_s.push(Some(traced.run_s));
            }
            Err(problem) => {
                problems.push(problem);
                layers.push(BTreeMap::new());
                traced_run_s.push(None);
            }
        }
    }
    for (w, knob) in [
        (Workload::SteadyUniform, Knob::Histograms),
        (Workload::SpotTimeline, Knob::Timeline),
    ] {
        let i = Workload::ALL.iter().position(|&x| x == w).expect("listed");
        let pairs: Vec<(f64, f64)> = (0..PAIRS)
            .filter_map(|p| run_pair(w, seed, knob, p % 2 == 0, &mut reps[i]))
            .collect();
        layers[i].insert(knob.metric(), overhead_pct(&pairs));
    }
    let (micro, micro_problems) = microbenchmarks();
    problems.extend(micro_problems);

    let mut correct = problems.is_empty();
    let mut workload_json = Vec::new();
    for (i, &w) in Workload::ALL.iter().enumerate() {
        report::gate(&mut reps[i]);
        let accounting = Accounting::of(&reps[i]);
        let e2e = report::end_to_end(&reps[i]);
        let run_s = report::def("run_s").and_then(|d| Some(d.value(e2e.get(d.name)?)));
        if let (Some(traced), Some(untraced)) = (traced_run_s[i], run_s) {
            layers[i].insert("bench.trace_overhead_pct", percent_over(traced, untraced));
        }
        report::print_end_to_end(w.name(), &e2e, &accounting);
        report::print_per_layer(
            &format!("{}: per layer (fastest traced rep)", w.name()),
            &layers[i],
        );
        correct &= report_problems(w, &reps[i]);
        workload_json.push((
            w.name(),
            json_object([
                ("ops", accounting.ops.to_string()),
                ("ops_failed", accounting.ops_failed().to_string()),
                ("failed_reps", accounting.failed_reps.to_string()),
                (
                    "end_to_end",
                    json_object(e2e.iter().map(|(name, s)| {
                        let def = report::def(name).expect("metric is in the table");
                        (*name, report::summary_json(def, s))
                    })),
                ),
                ("per_layer", layer_json(&layers[i])),
            ]),
        ));
    }
    report::print_per_layer("microbenchmarks (workload-independent)", &micro);
    for problem in &problems {
        println!("FAILED {problem}");
    }
    let wall_s = started.elapsed().as_secs_f64();
    let results = json_object([
        ("seed", seed.to_string()),
        ("host", host_json(&host)),
        ("correct", correct.to_string()),
        ("wall_s", json_num(wall_s)),
        ("workloads", json_object(workload_json)),
        ("microbenchmarks", layer_json(&micro)),
    ]);
    let path = write_out("results.json", &(results + "\n"))?;
    println!(
        "\n{} in {wall_s:.1} s; results in {}; spans in {}",
        if correct {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        },
        path.display(),
        out_dir().display()
    );
    Ok(correct)
}

fn layer_json(values: &BTreeMap<&'static str, f64>) -> String {
    json_object(values.iter().map(|(name, v)| {
        let unit = report::def(name).map_or("", |d| d.unit);
        (
            *name,
            json_object([("unit", json_str(unit)), ("value", json_num(*v))]),
        )
    }))
}

/// `calibrate`: the end-to-end phase `--sets` times, and each metric's
/// set-to-set spread with the bound it implies.
fn cmd_calibrate(args: &[String]) -> Result<bool, String> {
    let opts = parse_options(args, &["--sets", "--seed"])?;
    let sets: usize = parse_value(&opts, "--sets", Some(5))?;
    let seed: u64 = parse_value(&opts, "--seed", Some(42))?;
    // Each set's reported value of every metric × workload.
    let mut set_values: BTreeMap<(usize, &'static str), Vec<f64>> = BTreeMap::new();
    let mut correct = true;
    for set in 0..sets {
        eprintln!("calibration set {}/{sets} …", set + 1);
        for (i, mut reps) in end_to_end_phase(seed).into_iter().enumerate() {
            report::gate(&mut reps);
            correct &= report_problems(Workload::ALL[i], &reps);
            for (name, s) in report::end_to_end(&reps) {
                let def = report::def(name).expect("metric is in the table");
                set_values.entry((i, name)).or_default().push(def.value(&s));
            }
        }
    }
    let host = host::describe();
    println!("host:");
    for (k, v) in &host {
        println!("  {k}: {v}");
    }
    println!(
        "\n{:<16} {:<20} {:>14} {:>10} {:>10}  value of each set",
        "workload", "metric", "median", "widest_gap", "bound"
    );
    let mut rows: Vec<(String, String)> = Vec::new();
    for ((i, name), values) in &set_values {
        let def = report::def(name).expect("metric is in the table");
        let median = stats::median(values);
        let (lo, hi) = values
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        let gap = (hi - lo) / median.abs();
        let bound = bound_for(def, gap, median);
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
        let workload = Workload::ALL[*i].name();
        println!(
            "{workload:<16} {name:<20} {median:>14.6} {gap:>10.4} {bound:>10.4}  {}",
            shown.join(" ")
        );
        let json_values: Vec<String> = values.iter().map(|v| json_num(*v)).collect();
        rows.push((
            format!("{workload}/{name}"),
            json_object([
                ("unit", json_str(def.unit)),
                ("median", json_num(median)),
                ("widest_gap", json_num(gap)),
                ("bound", json_num(bound)),
                ("set_values", format!("[{}]", json_values.join(", "))),
            ]),
        ));
    }
    let path = write_out(
        "calibration.json",
        &(json_object([
            ("seed", seed.to_string()),
            ("sets", sets.to_string()),
            ("host", host_json(&host)),
            ("correct", correct.to_string()),
            ("metrics", json_object(rows)),
        ]) + "\n"),
    )?;
    println!("\nwritten to {}", path.display());
    Ok(correct)
}

/// The regression bound a calibration implies for a metric, as a share of
/// its median: host timings get 1.5× the widest gap between sets but never
/// less than 10%; memory 5%; simulated fractions 0.001 absolute; simulated
/// milliseconds and dollars 1%.
fn bound_for(def: &report::MetricDef, widest_gap: f64, median: f64) -> f64 {
    match (def.name, def.unit) {
        ("peak_rss_mb", _) => 0.05,
        (name, "ratio") if name.starts_with("sim_") => 0.001 / median.abs(),
        (name, _) if name.starts_with("sim_") => 0.01,
        _ => (1.5 * widest_gap).max(0.10),
    }
}

/// `--workload …`: one workload for about `--seconds`, ending in one JSON
/// line. With `--trace 0` it reports the gated end-to-end metrics (over the
/// timed reps after a warm-up); with `--trace 1`, every per-layer
/// metric (the traced reps, the microbenchmarks, and observation on/off pairs
/// while the time lasts).
fn cmd_workload(args: &[String]) -> Result<bool, String> {
    let opts = parse_options(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    let name: String = parse_value(&opts, "--workload", None)?;
    let w = Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed: u64 = parse_value(&opts, "--seed", None)?;
    let seconds: f64 = parse_value(&opts, "--seconds", None)?;
    let trace: u8 = parse_value(&opts, "--trace", None)?;
    if !(seconds.is_finite() && seconds > 0.0) || trace > 1 {
        return Err(format!(
            "bad --seconds {seconds} or --trace {trace}\n{USAGE}"
        ));
    }
    let budget = Duration::from_secs_f64(seconds);
    let cfg = RepConfig::new(w, seed);
    let mut reps: Vec<RepResult> = Vec::new();
    let mut problems: Vec<String> = Vec::new();
    let mut metrics: Vec<(&'static str, &'static str, f64)> = Vec::new();
    if trace == 0 {
        reps.push(spawn_rep(&cfg, Role::Warmup, None));
        let deadline = Instant::now() + budget;
        let mut timed = 0;
        while timed < MIN_TIMED_REPS || Instant::now() < deadline {
            reps.push(spawn_rep(&cfg, Role::Timed, None));
            timed += 1;
        }
        if w.jobs() > 1 {
            reps.push(identity_rep(w, seed));
        }
        report::gate(&mut reps);
        let e2e = report::end_to_end(&reps);
        report::print_end_to_end(w.name(), &e2e, &Accounting::of(&reps));
        for def in END_TO_END.iter().filter(|d| d.gated) {
            let value = e2e.get(def.name).map_or(f64::NAN, |s| def.value(s));
            metrics.push((def.name, def.unit, value));
        }
    } else {
        let deadline = Instant::now() + budget;
        let traced = traced_phase(w, seed, &mut reps);
        let (micro, micro_problems) = microbenchmarks();
        problems.extend(micro_problems);
        let mut pairs: [Vec<(f64, f64)>; 2] = [Vec::new(), Vec::new()];
        for p in 0..PAIRS {
            if p > 0 && Instant::now() >= deadline {
                break;
            }
            for (k, knob) in [Knob::Histograms, Knob::Timeline].into_iter().enumerate() {
                pairs[k].extend(run_pair(w, seed, knob, p % 2 == 0, &mut reps));
            }
        }
        report::gate(&mut reps);
        let mut layers = BTreeMap::new();
        match traced {
            Ok(traced) => {
                // The reps of each pair that ran the workload as defined are
                // the untraced baseline.
                let untraced = reps
                    .iter()
                    .filter(|r| r.role == Role::Overhead && r.config == cfg && r.ok())
                    .filter_map(|r| r.get("run_s"))
                    .fold(f64::INFINITY, f64::min);
                layers = traced.layers;
                layers.insert(
                    "bench.trace_overhead_pct",
                    percent_over(traced.run_s, untraced),
                );
            }
            Err(problem) => problems.push(problem),
        }
        layers.extend(micro);
        for (k, knob) in [Knob::Histograms, Knob::Timeline].into_iter().enumerate() {
            layers.insert(knob.metric(), overhead_pct(&pairs[k]));
        }
        report::print_per_layer(&format!("{}: per layer", w.name()), &layers);
        for def in PER_LAYER.iter() {
            let value = layers.get(def.name).copied().unwrap_or(f64::NAN);
            metrics.push((def.name, def.unit, value));
        }
    }
    let accounting = Accounting::of(&reps);
    let clean = report_problems(w, &reps);
    for problem in &problems {
        println!("FAILED {}: {problem}", w.name());
    }
    let complete = metrics.iter().all(|(_, _, v)| v.is_finite());
    if !complete {
        println!("FAILED {}: a metric could not be measured", w.name());
    }
    let correct = clean && problems.is_empty() && complete;
    let metrics_json = json_object(metrics.iter().map(|(name, unit, value)| {
        (
            *name,
            json_object([("value", json_num(*value)), ("unit", json_str(unit))]),
        )
    }));
    println!(
        "{}",
        json_object([
            ("correct", correct.to_string()),
            ("attempted", accounting.ops.to_string()),
            ("failed", accounting.failed_rep_ops.to_string()),
            ("metrics", metrics_json),
        ])
    );
    Ok(correct)
}
