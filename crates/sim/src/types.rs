//! Shared simulator types: time, queries, plans, observations, and the controller
//! interface implemented by Loki and the baseline systems.

use loki_pipeline::{BatchSize, VariantId};
use loki_workload::DemandHistory;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Simulated time in microseconds since the start of the run.
pub type SimTime = u64;

/// Convert seconds to simulated microseconds.
///
/// `+ 0.5` then truncate is round-half-up, identical to `round()` for the
/// non-negative times used throughout, and compiles to a bare `cvttsd2si`
/// instead of a libm call on baseline x86-64 — this sits on the hot path.
#[inline]
pub fn secs_to_us(s: f64) -> SimTime {
    debug_assert!(s >= 0.0);
    (s * 1_000_000.0 + 0.5) as SimTime
}

/// Convert milliseconds to simulated microseconds (see [`secs_to_us`] for the
/// rounding rationale).
#[inline]
pub fn ms_to_us(ms: f64) -> SimTime {
    debug_assert!(ms >= 0.0);
    (ms * 1_000.0 + 0.5) as SimTime
}

/// Convert simulated microseconds to seconds.
pub fn us_to_secs(us: SimTime) -> f64 {
    us as f64 / 1_000_000.0
}

/// Convert simulated microseconds to milliseconds.
#[inline]
pub fn us_to_ms(us: SimTime) -> f64 {
    us as f64 * 1e-3
}

/// The per-link network-delay model of the simulated cluster (Section 6.1 runs
/// everything on one homogeneous testbed; heterogeneous interconnects — PCIe
/// between co-located stages, datacenter network between racks — need per-link
/// delays).
///
/// A *hop* is one network traversal of a query: frontend → first-task worker, or
/// an upstream worker → a downstream worker. The engine compiles the model into
/// dense microsecond tables ([`LinkDelayModel::compile`]) so the dispatch path
/// pays one array index per hop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum LinkDelayModel {
    /// Every hop takes [`SimConfig::network_delay_ms`]: the historical
    /// single-constant model.
    #[default]
    Uniform,
    /// Per-pipeline-edge delays: a hop carrying a query from a worker of task
    /// `from` into task `to` takes the delay listed for `(from, to)`;
    /// unlisted edges take `default_ms` and frontend → root-task hops take
    /// `frontend_ms`. Every listed edge must reference tasks that exist in the
    /// pipeline the simulation runs — [`LinkDelayModel::compile`] rejects
    /// out-of-range edges loudly.
    PerEdge {
        /// Frontend → first-task hop delay (ms).
        frontend_ms: f64,
        /// Delay of pipeline edges not listed in `edges` (ms).
        default_ms: f64,
        /// `((from_task, to_task), delay_ms)` overrides.
        edges: Vec<((usize, usize), f64)>,
    },
    /// Per-worker-class delays: workers are striped round-robin over `classes`
    /// interconnect classes (worker `w` belongs to class `w % classes`), and a
    /// hop from a worker of class `a` to one of class `b` takes
    /// `delay_ms[a * classes + b]`. Frontend hops into class `b` take
    /// `frontend_ms[b]`.
    PerWorkerClass {
        /// Number of interconnect classes.
        classes: usize,
        /// Row-major `classes x classes` delay matrix (ms).
        delay_ms: Vec<f64>,
        /// Frontend → class delay vector (ms), `classes` long.
        frontend_ms: Vec<f64>,
    },
}

impl LinkDelayModel {
    /// Check internal consistency (matrix shapes, non-negative finite delays).
    pub fn validate(&self) -> Result<(), String> {
        let ok = |v: f64| v.is_finite() && v >= 0.0;
        match self {
            LinkDelayModel::Uniform => Ok(()),
            LinkDelayModel::PerEdge {
                frontend_ms,
                default_ms,
                edges,
            } => {
                if !ok(*frontend_ms) || !ok(*default_ms) {
                    return Err("per-edge frontend/default delays must be finite and >= 0".into());
                }
                for ((from, to), ms) in edges {
                    if !ok(*ms) {
                        return Err(format!("edge ({from}, {to}) delay must be finite and >= 0"));
                    }
                }
                Ok(())
            }
            LinkDelayModel::PerWorkerClass {
                classes,
                delay_ms,
                frontend_ms,
            } => {
                if *classes == 0 {
                    return Err("per-class model needs at least one class".into());
                }
                if delay_ms.len() != classes * classes {
                    return Err(format!(
                        "delay matrix must be {classes}x{classes} (got {} entries)",
                        delay_ms.len()
                    ));
                }
                if frontend_ms.len() != *classes {
                    return Err(format!(
                        "frontend delay vector must have {classes} entries (got {})",
                        frontend_ms.len()
                    ));
                }
                if delay_ms.iter().chain(frontend_ms).any(|v| !ok(*v)) {
                    return Err("per-class delays must be finite and >= 0".into());
                }
                Ok(())
            }
        }
    }

    /// The worst-case single-hop delay (ms). Controllers budget the SLO with
    /// this so latency decomposition stays safe on the slowest link;
    /// `uniform_ms` is the [`SimConfig::network_delay_ms`] the `Uniform` model
    /// resolves to.
    pub fn max_hop_ms(&self, uniform_ms: f64) -> f64 {
        match self {
            LinkDelayModel::Uniform => uniform_ms,
            LinkDelayModel::PerEdge {
                frontend_ms,
                default_ms,
                edges,
            } => edges
                .iter()
                .map(|(_, ms)| *ms)
                .fold(frontend_ms.max(*default_ms), f64::max),
            LinkDelayModel::PerWorkerClass {
                delay_ms,
                frontend_ms,
                ..
            } => delay_ms
                .iter()
                .chain(frontend_ms)
                .fold(0.0f64, |a, &b| a.max(b)),
        }
    }

    /// The `(min, max)` single-hop delay range (ms) over every hop this model
    /// can produce, frontend hops included; `uniform_ms` is what the `Uniform`
    /// model resolves to. The engine sizes the calendar-queue wheel from this
    /// range (see [`crate::calendar::CalendarGeometry`]).
    pub fn hop_range_ms(&self, uniform_ms: f64) -> (f64, f64) {
        let max = self.max_hop_ms(uniform_ms);
        let min = match self {
            LinkDelayModel::Uniform => uniform_ms,
            LinkDelayModel::PerEdge {
                frontend_ms,
                default_ms,
                edges,
            } => edges
                .iter()
                .map(|(_, ms)| *ms)
                .fold(frontend_ms.min(*default_ms), f64::min),
            LinkDelayModel::PerWorkerClass {
                delay_ms,
                frontend_ms,
                ..
            } => delay_ms
                .iter()
                .chain(frontend_ms)
                .fold(f64::INFINITY, |a, &b| a.min(b)),
        };
        (min.min(max), max)
    }

    /// Derive the per-hop latency-budget tables a controller should plan
    /// with, in milliseconds. Exact for `Uniform` and `PerEdge`; for
    /// `PerWorkerClass` the worker placement is not known at planning time,
    /// so every entry is the conservative worst case over classes (which
    /// still beats collapsing the whole model to one scalar worst hop:
    /// `PerEdge`'s cheap edges stop being taxed for the expensive ones).
    pub fn hop_budgets(&self, uniform_ms: f64, num_tasks: usize) -> HopBudgets {
        match self {
            LinkDelayModel::Uniform => HopBudgets::uniform(uniform_ms, num_tasks),
            LinkDelayModel::PerEdge {
                frontend_ms,
                default_ms,
                edges,
            } => {
                let mut edge_ms = vec![*default_ms; num_tasks * num_tasks];
                for ((from, to), ms) in edges {
                    if *from < num_tasks && *to < num_tasks {
                        edge_ms[from * num_tasks + to] = *ms;
                    }
                }
                HopBudgets {
                    frontend_ms: *frontend_ms,
                    num_tasks,
                    edge_ms,
                }
            }
            LinkDelayModel::PerWorkerClass {
                delay_ms,
                frontend_ms,
                ..
            } => {
                let worst_edge = delay_ms.iter().fold(0.0f64, |a, &b| a.max(b));
                let worst_frontend = frontend_ms.iter().fold(0.0f64, |a, &b| a.max(b));
                HopBudgets {
                    frontend_ms: worst_frontend,
                    num_tasks,
                    edge_ms: vec![worst_edge; num_tasks * num_tasks],
                }
            }
        }
    }

    /// Planning-time estimate of the frontend → `dst` hop delay (ms),
    /// mirroring [`CompiledLinkDelays::frontend_us`] (including the
    /// round-robin class striping rule). Used by link-aware candidate
    /// ordering in the Load Balancer.
    pub fn frontend_worker_hop_ms(&self, dst: WorkerId, uniform_ms: f64) -> f64 {
        match self {
            LinkDelayModel::Uniform => uniform_ms,
            LinkDelayModel::PerEdge { frontend_ms, .. } => *frontend_ms,
            LinkDelayModel::PerWorkerClass {
                classes,
                frontend_ms,
                ..
            } => frontend_ms[dst.index() % classes],
        }
    }

    /// Planning-time estimate of the `src` (hosting `src_task`) → `dst`
    /// (hosting `dst_task`) hop delay (ms), mirroring
    /// [`CompiledLinkDelays::hop_us`]. Used by link-aware candidate ordering.
    pub fn worker_hop_ms(
        &self,
        src: WorkerId,
        src_task: usize,
        dst: WorkerId,
        dst_task: usize,
        uniform_ms: f64,
    ) -> f64 {
        match self {
            LinkDelayModel::Uniform => uniform_ms,
            LinkDelayModel::PerEdge {
                default_ms, edges, ..
            } => {
                let _ = (src, dst);
                edges
                    .iter()
                    .find(|((f, t), _)| *f == src_task && *t == dst_task)
                    .map(|(_, ms)| *ms)
                    .unwrap_or(*default_ms)
            }
            LinkDelayModel::PerWorkerClass {
                classes, delay_ms, ..
            } => {
                let _ = (src_task, dst_task);
                delay_ms[(src.index() % classes) * classes + (dst.index() % classes)]
            }
        }
    }

    /// Compile into dense per-hop microsecond tables for the engine's dispatch
    /// path. Panics when [`LinkDelayModel::validate`] fails — the engine calls
    /// this once at construction, where a bad model is a configuration error.
    pub fn compile(
        &self,
        uniform_ms: f64,
        cluster_size: usize,
        num_tasks: usize,
    ) -> CompiledLinkDelays {
        self.validate().expect("link-delay model must be valid");
        match self {
            LinkDelayModel::Uniform => CompiledLinkDelays::Uniform {
                hop_us: ms_to_us(uniform_ms),
            },
            LinkDelayModel::PerEdge {
                frontend_ms,
                default_ms,
                edges,
            } => {
                let mut edge_us = vec![ms_to_us(*default_ms); num_tasks * num_tasks];
                for ((from, to), ms) in edges {
                    // Out-of-range edges must fail loudly: silently skipping
                    // them would leave the simulated network charging
                    // `default_ms` while `max_hop_ms` (planner budgeting)
                    // still counts the listed delay — a quiet disagreement
                    // between controller and data plane.
                    assert!(
                        *from < num_tasks && *to < num_tasks,
                        "per-edge link delay references edge ({from}, {to}) \
                         outside a {num_tasks}-task pipeline"
                    );
                    edge_us[from * num_tasks + to] = ms_to_us(*ms);
                }
                CompiledLinkDelays::PerEdge {
                    frontend_us: ms_to_us(*frontend_ms),
                    num_tasks,
                    edge_us,
                }
            }
            LinkDelayModel::PerWorkerClass {
                classes,
                delay_ms,
                frontend_ms,
            } => CompiledLinkDelays::PerClass {
                classes: *classes,
                class_of: (0..cluster_size).map(|w| (w % classes) as u32).collect(),
                hop_us: delay_ms.iter().map(|&ms| ms_to_us(ms)).collect(),
                frontend_us: frontend_ms.iter().map(|&ms| ms_to_us(ms)).collect(),
            },
        }
    }
}

/// Dense microsecond form of a [`LinkDelayModel`], one array index per hop.
#[derive(Debug, Clone)]
pub enum CompiledLinkDelays {
    /// One constant for every hop.
    Uniform {
        /// The hop delay in µs.
        hop_us: SimTime,
    },
    /// Per-pipeline-edge delays, `edge_us[from * num_tasks + to]`.
    PerEdge {
        /// Frontend hop delay in µs.
        frontend_us: SimTime,
        /// Row length of `edge_us`.
        num_tasks: usize,
        /// Dense `(from, to)` → µs table.
        edge_us: Vec<SimTime>,
    },
    /// Per-worker-class delays, `hop_us[class(src) * classes + class(dst)]`.
    PerClass {
        /// Number of interconnect classes.
        classes: usize,
        /// Worker index → class.
        class_of: Vec<u32>,
        /// Dense class-pair → µs matrix.
        hop_us: Vec<SimTime>,
        /// Frontend → class delays in µs.
        frontend_us: Vec<SimTime>,
    },
}

impl CompiledLinkDelays {
    /// Interconnect class of a worker under the per-class model. The dense
    /// `class_of` table covers the fleet size at compile time; workers
    /// provisioned past it (elastic fleets grow, and retired slots are never
    /// reused) fall back to the striping rule the table caches.
    #[inline]
    fn striped_class(class_of: &[u32], classes: usize, w: WorkerId) -> usize {
        class_of
            .get(w.index())
            .map(|&c| c as usize)
            .unwrap_or(w.index() % classes)
    }

    /// Delay of a frontend → `dst` hop, in µs.
    #[inline]
    pub fn frontend_us(&self, dst: WorkerId) -> SimTime {
        match self {
            CompiledLinkDelays::Uniform { hop_us } => *hop_us,
            CompiledLinkDelays::PerEdge { frontend_us, .. } => *frontend_us,
            CompiledLinkDelays::PerClass {
                classes,
                class_of,
                frontend_us,
                ..
            } => frontend_us[Self::striped_class(class_of, *classes, dst)],
        }
    }

    /// Delay of a hop from a worker of `src_task` to a downstream worker of
    /// `dst_task`, in µs.
    #[inline]
    pub fn hop_us(
        &self,
        src: WorkerId,
        src_task: usize,
        dst: WorkerId,
        dst_task: usize,
    ) -> SimTime {
        match self {
            CompiledLinkDelays::Uniform { hop_us } => *hop_us,
            CompiledLinkDelays::PerEdge {
                num_tasks, edge_us, ..
            } => {
                let _ = (src, dst);
                edge_us[src_task * num_tasks + dst_task]
            }
            CompiledLinkDelays::PerClass {
                classes,
                class_of,
                hop_us,
                ..
            } => {
                let _ = (src_task, dst_task);
                hop_us[Self::striped_class(class_of, *classes, src) * classes
                    + Self::striped_class(class_of, *classes, dst)]
            }
        }
    }
}

/// Per-hop latency budgets a controller plans the SLO decomposition with, in
/// milliseconds: one frontend-hop budget plus a dense per-pipeline-edge table.
/// Derived from the run's [`LinkDelayModel`] by [`LinkDelayModel::hop_budgets`]
/// (or [`HopBudgets::uniform`] for the historical single-scalar behaviour).
///
/// Replaces the scalar `effective_comm_ms` the planners used to budget every
/// hop with: a path through cheap PCIe edges is no longer taxed as if every
/// hop crossed the slowest network link.
#[derive(Debug, Clone, PartialEq)]
pub struct HopBudgets {
    /// Budget of a frontend → root-task hop (also charged for the final
    /// aggregation hop back to the frontend).
    frontend_ms: f64,
    /// Row length of `edge_ms`.
    num_tasks: usize,
    /// Dense `(parent_task, child_task)` → ms budget table.
    edge_ms: Vec<f64>,
}

impl HopBudgets {
    /// Budgets where every hop (frontend and edges) costs `hop_ms`: exactly
    /// the historical scalar model.
    pub fn uniform(hop_ms: f64, num_tasks: usize) -> HopBudgets {
        HopBudgets {
            frontend_ms: hop_ms,
            num_tasks,
            edge_ms: vec![hop_ms; num_tasks * num_tasks],
        }
    }

    /// Number of tasks the edge table covers.
    pub fn num_tasks(&self) -> usize {
        self.num_tasks
    }

    /// Budget of a frontend hop (ms).
    #[inline]
    pub fn frontend_ms(&self) -> f64 {
        self.frontend_ms
    }

    /// Budget of the `parent → child` pipeline edge (ms); out-of-range edges
    /// fall back to the worst edge budget (conservative).
    #[inline]
    pub fn edge_ms(&self, parent: usize, child: usize) -> f64 {
        self.edge_ms
            .get(parent * self.num_tasks + child)
            .copied()
            .unwrap_or_else(|| self.worst_edge_ms())
    }

    /// The largest per-edge budget (ms); 0 for a task-less pipeline.
    pub fn worst_edge_ms(&self) -> f64 {
        self.edge_ms.iter().fold(0.0f64, |a, &b| a.max(b))
    }

    /// The largest single-hop budget, frontend included (ms). Collapsing the
    /// budgets through this reproduces the legacy scalar `effective_comm_ms`.
    pub fn worst_hop_ms(&self) -> f64 {
        self.frontend_ms.max(self.worst_edge_ms())
    }

    /// Total communication budget of a root-to-sink path visiting `tasks` in
    /// order (ms): the frontend hop in, every traversed edge, and the final
    /// aggregation hop back out. Under uniform budgets `c` this is exactly
    /// the legacy `c * (len + 1)`.
    pub fn path_comm_ms(&self, tasks: &[usize]) -> f64 {
        let mut total = 2.0 * self.frontend_ms;
        for pair in tasks.windows(2) {
            total += self.edge_ms(pair[0], pair[1]);
        }
        total
    }

    /// Worst-case communication budget of *any* path of `len` tasks (ms):
    /// the legacy length-based decomposition, kept for planners that bound
    /// paths by length before enumerating them. Equals `path_comm_ms` for
    /// every path under uniform budgets.
    pub fn worst_path_comm_ms(&self, len: usize) -> f64 {
        2.0 * self.frontend_ms + self.worst_edge_ms() * len.saturating_sub(1) as f64
    }
}

/// How the Load Balancer orders equally attractive worker candidates when
/// spreading demand (`route=` in the bench harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum RouteMode {
    /// Accuracy-first ordering (ties broken by worker id): the historical
    /// behaviour, bit-identical to every pre-`route=` run.
    #[default]
    Accuracy,
    /// Accuracy-first, but ties (replicas of the same variant) are ordered by
    /// the actual upstream-hop delay from the run's [`LinkDelayModel`], so
    /// demand prefers network-local replicas on heterogeneous interconnects.
    LinkAware,
}

impl RouteMode {
    /// Short label used by the bench harness (`route=` values).
    pub fn label(&self) -> &'static str {
        match self {
            RouteMode::Accuracy => "accuracy",
            RouteMode::LinkAware => "link-aware",
        }
    }

    /// Parse a `route=` value.
    pub fn parse(s: &str) -> Option<RouteMode> {
        match s {
            "accuracy" => Some(RouteMode::Accuracy),
            "link-aware" | "linkaware" | "link_aware" => Some(RouteMode::LinkAware),
            _ => None,
        }
    }
}

/// Identifier of a worker (GPU) in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct WorkerId(pub usize);

impl WorkerId {
    /// The underlying index into the cluster's worker array.
    pub fn index(&self) -> usize {
        self.0
    }
}

impl std::fmt::Display for WorkerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// The runtime early-dropping policy executed by the data plane (Section 5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum DropPolicy {
    /// Never drop; requests that finish past their SLO simply count as violations.
    NoEarlyDropping,
    /// Drop a query at the last task when its remaining time budget is smaller than
    /// the expected processing time there.
    LastTask,
    /// Drop a query at any task where it exceeded that task's latency budget.
    PerTask,
    /// Loki's mechanism: when a query exceeds a task's latency budget, try to reroute
    /// it to a faster downstream worker from the backup table; drop it only if no
    /// rescue worker exists.
    #[default]
    OpportunisticRerouting,
}

impl DropPolicy {
    /// All policies, in the order the paper's ablation (Figure 7) presents them.
    pub fn all() -> [DropPolicy; 4] {
        [
            DropPolicy::NoEarlyDropping,
            DropPolicy::LastTask,
            DropPolicy::PerTask,
            DropPolicy::OpportunisticRerouting,
        ]
    }

    /// Short human-readable label used by the bench harness.
    pub fn label(&self) -> &'static str {
        match self {
            DropPolicy::NoEarlyDropping => "no-early-dropping",
            DropPolicy::LastTask => "last-task-dropping",
            DropPolicy::PerTask => "per-task-dropping",
            DropPolicy::OpportunisticRerouting => "opportunistic-rerouting",
        }
    }
}

/// One group of identical model-variant instances requested by an allocation plan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstanceSpec {
    /// Which model variant to host.
    pub variant: VariantId,
    /// Maximum batch size the instances may form (the paper's `y(i,k)`).
    pub max_batch: BatchSize,
    /// Number of replicas (the paper's `x(i,k)`).
    pub count: usize,
}

/// A resource-allocation plan: the output of a controller's `plan` step, corresponding
/// to the paper's Resource Manager output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct AllocationPlan {
    /// Desired instances per variant. Variants not listed get zero instances.
    pub instances: Vec<InstanceSpec>,
    /// Per-variant latency budgets in milliseconds (execution + queueing at that task),
    /// used by the runtime drop policies.
    pub latency_budgets_ms: HashMap<VariantId, f64>,
    /// The drop policy the data plane should apply.
    pub drop_policy: DropPolicy,
}

impl AllocationPlan {
    /// Total number of workers the plan uses.
    pub fn total_workers(&self) -> usize {
        self.instances.iter().map(|i| i.count).sum()
    }

    /// The instances hosting a given task.
    pub fn instances_for_task(&self, task: usize) -> impl Iterator<Item = &InstanceSpec> {
        self.instances
            .iter()
            .filter(move |i| i.variant.task == task)
    }

    /// Aggregate throughput capacity (QPS) provisioned for a task, according to the
    /// profiled throughput of each instance.
    pub fn task_capacity_qps(&self, graph: &loki_pipeline::PipelineGraph, task: usize) -> f64 {
        self.instances_for_task(task)
            .map(|i| i.count as f64 * graph.variant(i.variant).throughput_qps(i.max_batch))
            .sum()
    }
}

/// A worker with leftover capacity, advertised in the backup tables used by
/// opportunistic rerouting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BackupWorker {
    /// The worker that still has spare capacity.
    pub worker: WorkerId,
    /// Its profiled batch execution time in milliseconds (at its configured batch).
    pub exec_time_ms: f64,
    /// The single-model accuracy of the variant it hosts.
    pub accuracy: f64,
}

/// A routing plan: the output of a controller's `routing` step, corresponding to the
/// paper's Load Balancer output (per-worker routing tables plus backup tables).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct RoutingPlan {
    /// Distribution over first-task workers used by the frontend. Weights need not sum
    /// to one; they are normalized by the engine.
    pub frontend: Vec<(WorkerId, f64)>,
    /// Per-(upstream worker, downstream task) distribution over downstream workers.
    pub downstream: HashMap<(WorkerId, usize), Vec<(WorkerId, f64)>>,
    /// Fallback per-task distribution used when an upstream worker has no specific
    /// table (e.g. right after a reallocation).
    pub downstream_default: HashMap<usize, Vec<(WorkerId, f64)>>,
    /// Backup (leftover-capacity) workers per task, used by opportunistic rerouting.
    pub backup: HashMap<usize, Vec<BackupWorker>>,
}

/// A snapshot of one worker as seen by the control plane.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerView {
    /// The worker id.
    pub id: WorkerId,
    /// The variant currently hosted (None if the worker is powered down / unassigned).
    pub variant: Option<VariantId>,
    /// Configured maximum batch size.
    pub max_batch: BatchSize,
    /// Queue length at observation time.
    pub queue_len: usize,
    /// Whether the worker is still loading its model (swap in progress).
    pub swapping: bool,
}

/// Everything a controller may observe when making decisions. Controllers never see
/// the future trace — only measurements the real system could have collected.
#[derive(Debug, Clone)]
pub struct ObservedState<'a> {
    /// Current simulated time in seconds.
    pub now_s: f64,
    /// Total number of workers in the cluster (the paper's `S`).
    pub cluster_size: usize,
    /// Current worker assignments (borrowed from the engine's reusable
    /// snapshot buffer — controllers observe, they don't own).
    pub workers: &'a [WorkerView],
    /// Demand history observed at the frontend (root arrivals per second).
    pub demand: &'a DemandHistory,
    /// A hint about the initial demand, available only at the very first control tick
    /// (stands in for the warm-up knowledge a production deployment would have).
    pub initial_demand_hint: Option<f64>,
    /// Observed multiplicative factors aggregated from worker heartbeats:
    /// (variant, downstream task) -> average number of intermediate queries generated
    /// per processed query.
    pub observed_fanout: &'a HashMap<(VariantId, usize), f64>,
    /// Observed arrival rate (QPS) at each task over the last observation window,
    /// including intermediate queries. Pipeline-agnostic controllers (Proteus) use
    /// this instead of the pipeline structure.
    pub per_task_arrival_qps: &'a HashMap<usize, f64>,
}

/// A serving controller: the control plane plugged into the simulator.
///
/// The engine calls [`Controller::plan`] every [`SimConfig::control_interval_s`]
/// (the Resource Manager cadence; 10 s in the paper) and [`Controller::routing`]
/// right after every plan application as well as every
/// [`SimConfig::routing_interval_s`] in between (the Load Balancer cadence).
///
/// `Send` is a supertrait: in a sharded multi-pipeline run each lane's
/// controller moves to that lane's worker thread between rebalance epochs
/// (see `crate::shard`). Controllers are plain owned state, so this costs
/// implementations nothing.
pub trait Controller: Send {
    /// Name used in metrics and harness output.
    fn name(&self) -> &str;

    /// The resource-allocation cadence this controller assumes, in seconds.
    /// The engine does not call this: it schedules [`Controller::plan`] every
    /// [`SimConfig::control_interval_s`].
    fn control_interval_s(&self) -> f64 {
        10.0
    }

    /// The routing-refresh cadence this controller assumes, in seconds. The
    /// engine does not call this: it schedules [`Controller::routing`] every
    /// [`SimConfig::routing_interval_s`].
    fn routing_interval_s(&self) -> f64 {
        1.0
    }

    /// Produce a new allocation plan, or `None` to keep the current one.
    fn plan(&mut self, observed: &ObservedState<'_>) -> Option<AllocationPlan>;

    /// Produce new routing tables for the current worker assignments in the
    /// engine's native compiled form (see [`crate::routing::CompiledPlan`]
    /// for the compile-once contract), or `None` to keep the current ones.
    /// Controllers that still build a legacy [`RoutingPlan`] can lower it
    /// with [`crate::routing::CompiledPlan::from_routing_plan`].
    fn routing(&mut self, observed: &ObservedState<'_>) -> Option<crate::routing::CompiledPlan>;
}

/// An in-flight query (either a client query at the first task or an intermediate
/// query at a downstream task).
///
/// Deliberately slim: this struct is copied on every hop through the data plane
/// (network FIFO → worker queue → in-flight batch → completion scratch), so it
/// carries only the fields the engine actually reads. The root request's packed
/// slab reference (`root`) links back to shared per-request state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// Packed slab reference ([`crate::slab::SlotRef::pack`]) of the root
    /// client request this query descends from.
    pub root: u64,
    /// The pipeline task this query is destined for.
    pub task: usize,
    /// Product of the accuracies of the variants that have processed this query's
    /// lineage so far (becomes the path accuracy `Â(p)` once the query reaches a sink).
    pub path_accuracy: f64,
    /// Absolute deadline (root arrival + SLO).
    pub deadline_us: SimTime,
    /// When this query was enqueued at its current worker.
    pub enqueued_us: SimTime,
}

/// Global configuration of a simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of workers (GPUs) in the cluster.
    pub cluster_size: usize,
    /// One-way network delay between any pair of servers, in milliseconds.
    /// This is the hop delay of the [`LinkDelayModel::Uniform`] model; the
    /// other models carry their own delays and ignore it.
    pub network_delay_ms: f64,
    /// Per-link delay model (uniform by default; see [`LinkDelayModel`]).
    pub link_delays: LinkDelayModel,
    /// Calendar-queue wheel geometry. `Auto` (the default) sizes the wheel
    /// from `link_delays`' hop range so sub-millisecond and WAN-scale hops
    /// both stay on the O(1) bucket path; `Fixed` pins an explicit bucket
    /// width and count. Geometry never changes event *ordering* (the queue's
    /// contract is geometry-independent), only its constant factors.
    pub calendar: crate::calendar::CalendarGeometry,
    /// Time to load a different model variant onto a worker, in milliseconds.
    pub model_swap_ms: f64,
    /// Interval between Resource-Manager invocations, in seconds.
    pub control_interval_s: f64,
    /// Interval between Load-Balancer refreshes, in seconds.
    pub routing_interval_s: f64,
    /// Metrics reporting interval, in seconds.
    pub metrics_interval_s: f64,
    /// Seed for all stochastic choices (routing sampling, fan-out rounding).
    pub seed: u64,
    /// Initial demand hint passed to the controller at the first control tick (QPS).
    pub initial_demand_hint: Option<f64>,
    /// How long the simulation keeps running after the last arrival to let in-flight
    /// queries drain, in seconds. Queries still unfinished afterwards count as dropped.
    pub drain_s: f64,
    /// Elastic-fleet configuration (see [`crate::elastic::ElasticSimConfig`]).
    /// `None` (the default) keeps the historical fixed fleet of `cluster_size`
    /// workers, bit-identical to the pre-elastic engine; `Some` makes the
    /// fleet a dynamic, heterogeneous, billed resource built from the catalog
    /// (and `cluster_size` is ignored in favour of the initial fleet).
    pub elastic: Option<crate::elastic::ElasticSimConfig>,
    /// Observability configuration: latency histograms (on by default),
    /// sampled query tracing, and the timeline layer (both off by
    /// default). Observation-only — no setting here changes simulated
    /// results (see [`crate::trace`]).
    pub observe: crate::trace::ObserveConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            cluster_size: 20,
            network_delay_ms: 2.0,
            link_delays: LinkDelayModel::Uniform,
            calendar: crate::calendar::CalendarGeometry::Auto,
            model_swap_ms: 500.0,
            control_interval_s: 10.0,
            routing_interval_s: 1.0,
            metrics_interval_s: 1.0,
            seed: 42,
            initial_demand_hint: None,
            drain_s: 30.0,
            elastic: None,
            observe: crate::trace::ObserveConfig::default(),
        }
    }
}

/// Boxed controllers forward to their contents, so generic simulations (e.g.
/// [`crate::MultiSimulation`]) accept both concrete controller types and
/// `Box<dyn Controller>` trait objects.
impl<C: Controller + ?Sized> Controller for Box<C> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn control_interval_s(&self) -> f64 {
        (**self).control_interval_s()
    }

    fn routing_interval_s(&self) -> f64 {
        (**self).routing_interval_s()
    }

    fn plan(&mut self, observed: &ObservedState<'_>) -> Option<AllocationPlan> {
        (**self).plan(observed)
    }

    fn routing(&mut self, observed: &ObservedState<'_>) -> Option<crate::routing::CompiledPlan> {
        (**self).routing(observed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loki_pipeline::zoo;

    #[test]
    fn time_conversions_roundtrip() {
        assert_eq!(secs_to_us(1.5), 1_500_000);
        assert_eq!(ms_to_us(2.5), 2_500);
        assert!((us_to_secs(secs_to_us(3.25)) - 3.25).abs() < 1e-9);
        assert!((us_to_ms(ms_to_us(0.75)) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn drop_policy_labels_are_unique() {
        let labels: Vec<_> = DropPolicy::all().iter().map(|p| p.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
        assert_eq!(DropPolicy::default(), DropPolicy::OpportunisticRerouting);
    }

    #[test]
    fn allocation_plan_aggregates() {
        let g = zoo::tiny_pipeline(100.0);
        let plan = AllocationPlan {
            instances: vec![
                InstanceSpec {
                    variant: VariantId::new(0, 1),
                    max_batch: 4,
                    count: 3,
                },
                InstanceSpec {
                    variant: VariantId::new(1, 0),
                    max_batch: 8,
                    count: 2,
                },
            ],
            latency_budgets_ms: HashMap::new(),
            drop_policy: DropPolicy::PerTask,
        };
        assert_eq!(plan.total_workers(), 5);
        assert_eq!(plan.instances_for_task(0).count(), 1);
        assert_eq!(plan.instances_for_task(1).count(), 1);
        let cap0 = plan.task_capacity_qps(&g, 0);
        let expected = 3.0 * g.variant(VariantId::new(0, 1)).throughput_qps(4);
        assert!((cap0 - expected).abs() < 1e-9);
    }

    #[test]
    fn link_delay_model_validates_and_compiles() {
        assert!(LinkDelayModel::Uniform.validate().is_ok());
        assert_eq!(LinkDelayModel::Uniform.max_hop_ms(2.0), 2.0);

        let per_edge = LinkDelayModel::PerEdge {
            frontend_ms: 1.0,
            default_ms: 2.0,
            edges: vec![((0, 1), 5.0)],
        };
        assert!(per_edge.validate().is_ok());
        assert_eq!(per_edge.max_hop_ms(2.0), 5.0);
        let compiled = per_edge.compile(2.0, 4, 2);
        assert_eq!(compiled.frontend_us(WorkerId(3)), 1_000);
        assert_eq!(compiled.hop_us(WorkerId(0), 0, WorkerId(1), 1), 5_000);
        assert_eq!(compiled.hop_us(WorkerId(1), 1, WorkerId(0), 0), 2_000);

        let per_class = LinkDelayModel::PerWorkerClass {
            classes: 2,
            delay_ms: vec![0.2, 5.0, 4.0, 0.3],
            frontend_ms: vec![1.0, 2.5],
        };
        assert!(per_class.validate().is_ok());
        assert_eq!(per_class.max_hop_ms(2.0), 5.0);
        let compiled = per_class.compile(2.0, 4, 2);
        // Workers are striped: 0 and 2 are class 0, 1 and 3 are class 1.
        assert_eq!(compiled.frontend_us(WorkerId(2)), 1_000);
        assert_eq!(compiled.frontend_us(WorkerId(3)), 2_500);
        assert_eq!(compiled.hop_us(WorkerId(0), 0, WorkerId(2), 1), 200);
        assert_eq!(compiled.hop_us(WorkerId(0), 0, WorkerId(1), 1), 5_000);
        assert_eq!(compiled.hop_us(WorkerId(1), 0, WorkerId(2), 1), 4_000);
        assert_eq!(compiled.hop_us(WorkerId(3), 0, WorkerId(1), 1), 300);

        // Malformed models are rejected.
        assert!(LinkDelayModel::PerWorkerClass {
            classes: 2,
            delay_ms: vec![1.0; 3],
            frontend_ms: vec![1.0; 2],
        }
        .validate()
        .is_err());
        assert!(LinkDelayModel::PerWorkerClass {
            classes: 0,
            delay_ms: vec![],
            frontend_ms: vec![],
        }
        .validate()
        .is_err());
        assert!(LinkDelayModel::PerEdge {
            frontend_ms: f64::NAN,
            default_ms: 1.0,
            edges: vec![],
        }
        .validate()
        .is_err());
    }

    #[test]
    fn hop_range_spans_every_hop_class() {
        assert_eq!(LinkDelayModel::Uniform.hop_range_ms(2.0), (2.0, 2.0));
        let per_edge = LinkDelayModel::PerEdge {
            frontend_ms: 1.0,
            default_ms: 2.0,
            edges: vec![((0, 1), 100.0), ((1, 0), 0.005)],
        };
        assert_eq!(per_edge.hop_range_ms(2.0), (0.005, 100.0));
        let per_class = LinkDelayModel::PerWorkerClass {
            classes: 2,
            delay_ms: vec![0.2, 5.0, 5.0, 0.2],
            frontend_ms: vec![1.0, 2.5],
        };
        assert_eq!(per_class.hop_range_ms(2.0), (0.2, 5.0));
    }

    #[test]
    #[should_panic(expected = "outside a 2-task pipeline")]
    fn per_edge_compile_rejects_out_of_range_edges() {
        // A typo'd edge must fail loudly, not silently fall back to the
        // default delay while the planner budgets with the listed one.
        LinkDelayModel::PerEdge {
            frontend_ms: 1.0,
            default_ms: 2.0,
            edges: vec![((2, 3), 50.0)],
        }
        .compile(2.0, 4, 2);
    }

    #[test]
    fn sim_config_default_matches_paper_setup() {
        let c = SimConfig::default();
        assert_eq!(c.cluster_size, 20);
        assert!((c.control_interval_s - 10.0).abs() < 1e-12);
        assert!(c.routing_interval_s <= c.control_interval_s);
    }
}
