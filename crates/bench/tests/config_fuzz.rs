//! Seeded config fuzzer for the `loki` binary.
//!
//! Each draw runs `loki run <scenario>` with 1–5 random `key=value` pairs from
//! [`ExperimentConfig::KEYS`] on top of a short bounded workload: duration at
//! most 5 s, rates at most 400 QPS, at most 20 workers, `jobs` 1 or 2. The
//! values include 0 and the four classes of config the binary once aborted
//! on or ran to a meaningless report instead of rejecting:
//!
//! * `links=edge-split` on a scenario that serves the two-task social
//!   pipeline (the profile names edge (0, 2));
//! * `duration=0`;
//! * a negative or non-finite `peak`, or, on a diurnal or bursty trace, a
//!   negative or non-finite `base` or one above `peak`;
//! * `bucket=0` (the comparison series once printed `NaN` demand).
//!
//! Every run must exit 0 or 2, never with a panic; every draw in an abort
//! class must exit 2 with a one-line error; and each class must be drawn.
//! `milp_probe` and `ablation_allocator` are not drawn: their MILP solves stop
//! at an 800 ms wall clock each, so one run takes seconds whatever the config.

use loki_bench::scenario::{PipelineSpec, Scenario, ScenarioKind, REGISTRY};
use loki_bench::sweep::Sweep;
use loki_bench::{ExperimentConfig, LinkProfile};
use loki_workload::TraceSpec;
use std::process::Command;

/// Draws per run of the test.
const DRAWS: usize = 120;
/// Seeds the draws.
const SEED: u64 = 0x10c1_f022;

/// The values a key may draw.
fn values(key: &str) -> &'static [&'static str] {
    match key {
        "cluster" => &["0", "1", "4", "20"],
        "slo" => &["0", "100", "250"],
        "duration" => &["0", "1", "5"],
        "peak" => &["0", "100", "400", "-5", "nan"],
        "base" => &["0", "50", "400", "-1", "inf"],
        "seed" => &["0", "7"],
        "bucket" => &["0", "1", "60"],
        "drain" => &["0", "2"],
        "jobs" => &["1", "2"],
        "links" => &["uniform", "two-tier", "edge-split"],
        "elastic" => &["fixed", "static-peak", "static-mean", "autoscale"],
        "classes" => &["uniform", "mixed"],
        "spot" => &["true", "false"],
        "revoke" => &["0", "30"],
        "stockout" => &["0", "0.5", "1"],
        "provisioner" => &["reactive", "forecast"],
        "route" => &["accuracy", "link-aware"],
        "trace" => &["0", "3"],
        "timeline" => &["true", "false"],
        other => panic!("no values for config key {other:?}"),
    }
}

/// SplitMix64: a small seeded generator, so a draw depends only on `SEED`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// The classes of config the binary once aborted on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Abort {
    EdgeSplitOnSocial,
    ZeroDuration,
    BadRates,
    ZeroBucket,
}

const CLASSES: [Abort; 4] = [
    Abort::EdgeSplitOnSocial,
    Abort::ZeroDuration,
    Abort::BadRates,
    Abort::ZeroBucket,
];

/// Whether a scenario kind runs the simulator (the others compute their
/// tables from the planner alone and never read the link profile).
fn simulated(kind: ScenarioKind) -> bool {
    !matches!(
        kind,
        ScenarioKind::PhaseDiagram
            | ScenarioKind::TradeoffTable
            | ScenarioKind::AllocatorAblation
            | ScenarioKind::MultFactorAblation
            | ScenarioKind::MilpProbe
    )
}

/// The abort classes a scenario's config falls in.
fn aborts(sc: &Scenario, cfg: &ExperimentConfig) -> Vec<Abort> {
    let served: Vec<(PipelineSpec, TraceSpec)> = Sweep::for_scenario(sc, cfg.clone())
        .points()
        .iter()
        .flat_map(|p| match &p.multi {
            Some(multi) => multi.lanes.iter().map(|l| (l.pipeline, l.trace)).collect(),
            None => vec![(p.pipeline, p.trace)],
        })
        .collect();
    let mut out = Vec::new();
    let social = served.iter().any(|(p, _)| *p == PipelineSpec::Social);
    if cfg.links == LinkProfile::EdgeSplit && social && simulated(sc.kind) {
        out.push(Abort::EdgeSplitOnSocial);
    }
    if cfg.duration_s == 0 {
        out.push(Abort::ZeroDuration);
    }
    let rate = |qps: f64| qps.is_finite() && qps >= 0.0;
    let spans_base = served.iter().any(|(_, t)| *t != TraceSpec::Constant);
    let base_ok = rate(cfg.base_qps) && cfg.base_qps <= cfg.peak_qps;
    if !rate(cfg.peak_qps) || (spans_base && !base_ok) {
        out.push(Abort::BadRates);
    }
    if cfg.bucket_s == 0 {
        out.push(Abort::ZeroBucket);
    }
    out
}

/// One draw: a scenario and its `key=value` arguments, the bounded workload
/// first so a drawn key overrides it.
fn draw(rng: &mut Rng, scenarios: &[&'static Scenario]) -> (&'static Scenario, Vec<String>) {
    let sc = rng.pick(scenarios);
    let mut args = vec![
        format!("duration={}", 1 + rng.below(5)),
        format!("peak={}", rng.pick(&[100, 200, 400])),
        format!("base={}", rng.pick(&[0, 50, 100])),
        format!("cluster={}", rng.pick(&[4, 8, 20])),
    ];
    let mut keys: Vec<&str> = ExperimentConfig::KEYS.to_vec();
    for _ in 0..1 + rng.below(5) {
        let key = keys.swap_remove(rng.below(keys.len()));
        args.push(format!("{key}={}", rng.pick(values(key))));
    }
    (sc, args)
}

#[test]
fn every_drawn_config_exits_0_or_2_and_every_abort_class_exits_2() {
    let scenarios: Vec<&'static Scenario> = REGISTRY
        .iter()
        .filter(|sc| !matches!(sc.name, "milp_probe" | "ablation_allocator"))
        .collect();
    let mut rng = Rng(SEED);
    let draws: Vec<_> = (0..DRAWS).map(|_| draw(&mut rng, &scenarios)).collect();
    let mut drawn = [0usize; CLASSES.len()];
    for (i, (sc, args)) in draws.iter().enumerate() {
        let mut cfg = sc.config();
        cfg.apply_overrides(args.iter().map(String::as_str))
            .unwrap_or_else(|e| panic!("draw {i}: {args:?} does not parse: {e}"));
        let classes = aborts(sc, &cfg);
        let out = Command::new(env!("CARGO_BIN_EXE_loki"))
            .arg("run")
            .arg(sc.name)
            .args(args)
            .output()
            .expect("the loki binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let what = format!("draw {i}: loki run {} {}", sc.name, args.join(" "));
        let code = out.status.code();
        assert!(
            matches!(code, Some(0 | 2)),
            "{what} exited {code:?}:\n{stderr}"
        );
        if !classes.is_empty() {
            assert_eq!(code, Some(2), "{what} ({classes:?}) must exit 2");
            let mut lines = stderr.lines();
            let first = lines.next().unwrap_or_default();
            assert!(
                first.starts_with("error: ") && lines.next().is_none(),
                "{what} ({classes:?}) must print one error line:\n{stderr}"
            );
        }
        for class in classes {
            drawn[CLASSES.iter().position(|&c| c == class).unwrap()] += 1;
        }
    }
    assert!(
        drawn.iter().all(|&n| n > 0),
        "each abort class is drawn: {:?}",
        CLASSES.iter().zip(drawn).collect::<Vec<_>>()
    );
}
