//! The pipeline graph: a directed rooted tree of ML tasks.
//!
//! Each vertex is a *task* served by one of several model variants; each edge `(i, j)`
//! carries intermediate queries from task `i` to task `j` and has a *branch ratio*: the
//! fraction of task `i`'s outgoing intermediate queries that are routed to child `j`
//! (e.g. the traffic-analysis detector sends detected cars to car classification and
//! detected persons to facial recognition).
//!
//! The paper restricts pipelines to directed rooted trees — no task receives input from
//! more than one upstream task — and [`PipelineGraph::validate`] enforces exactly that.

use crate::variant::{BatchSize, ModelVariant, VariantId, DEFAULT_BATCH_SIZES};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Identifier of a task within a [`PipelineGraph`] (the paper's `t_i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TaskId(pub usize);

impl TaskId {
    /// The underlying index.
    pub fn index(&self) -> usize {
        self.0
    }
}

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// An edge from a task to one of its children.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// The downstream task.
    pub child: TaskId,
    /// Fraction of the parent's outgoing intermediate queries routed to this child.
    pub branch_ratio: f64,
}

/// A single ML task in the pipeline, together with its available model variants.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Task {
    /// Human-readable task name, e.g. `"object_detection"`.
    pub name: String,
    /// The model variants available for this task (the paper's `V_i`), expected to be
    /// non-empty. Order is arbitrary; use [`Task::variants_by_accuracy_desc`] for the
    /// accuracy-sorted view used by the routing algorithm.
    pub variants: Vec<ModelVariant>,
    /// Outgoing edges to child tasks.
    pub children: Vec<Edge>,
}

impl Task {
    /// Index of the most accurate variant (`v_i^max` in the paper).
    pub fn most_accurate_variant(&self) -> usize {
        self.variants
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.accuracy.partial_cmp(&b.1.accuracy).unwrap())
            .map(|(i, _)| i)
            .expect("task has no variants")
    }

    /// Index of the least accurate variant.
    pub fn least_accurate_variant(&self) -> usize {
        self.variants
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.accuracy.partial_cmp(&b.1.accuracy).unwrap())
            .map(|(i, _)| i)
            .expect("task has no variants")
    }

    /// Variant indices sorted by accuracy, most accurate first.
    pub fn variants_by_accuracy_desc(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.variants.len()).collect();
        idx.sort_by(|&a, &b| {
            self.variants[b]
                .accuracy
                .partial_cmp(&self.variants[a].accuracy)
                .unwrap()
        });
        idx
    }

    /// True if this task has no children (it is a sink).
    pub fn is_sink(&self) -> bool {
        self.children.is_empty()
    }
}

/// Errors produced by [`PipelineGraph::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// The graph contains no tasks.
    Empty,
    /// A task has no model variants.
    TaskWithoutVariants(TaskId),
    /// A task is referenced as a child of more than one parent, or the root has a
    /// parent — the graph is not a rooted tree.
    NotATree(TaskId),
    /// A branch ratio is non-positive or not finite.
    InvalidBranchRatio(TaskId, TaskId),
    /// An edge references a task that does not exist.
    DanglingEdge(TaskId, usize),
    /// The graph is disconnected: some task is unreachable from the root.
    Unreachable(TaskId),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::Empty => write!(f, "pipeline graph has no tasks"),
            GraphError::TaskWithoutVariants(t) => write!(f, "task {t} has no model variants"),
            GraphError::NotATree(t) => write!(f, "task {t} violates the rooted-tree property"),
            GraphError::InvalidBranchRatio(a, b) => {
                write!(f, "edge {a} -> {b} has an invalid branch ratio")
            }
            GraphError::DanglingEdge(t, i) => write!(f, "task {t} edge #{i} points nowhere"),
            GraphError::Unreachable(t) => write!(f, "task {t} is unreachable from the root"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A directed rooted tree of inference tasks (the paper's pipeline graph).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineGraph {
    name: String,
    tasks: Vec<Task>,
    /// End-to-end latency SLO of the pipeline in milliseconds.
    slo_ms: f64,
    /// Allowed batch sizes `B`.
    batch_sizes: Vec<BatchSize>,
    /// Structure derived from `tasks`, built on first use.
    derived: Derived,
}

/// Structure derived from a graph's tasks and edges. Planners query it inside
/// their candidate loops, so each part is built once, on its first query, and
/// then returned by reference. The parts are built separately: a query builds
/// only what it reads, so [`PipelineGraph::validate`] (which reads the
/// topological order) never enumerates the paths of a malformed graph.
/// [`PipelineGraph::add_task`] and [`PipelineGraph::add_edge`] clear all three.
#[derive(Debug, Clone, Default)]
struct Derived {
    order: OnceLock<Vec<TaskId>>,
    paths: OnceLock<Vec<TaskPath>>,
    accuracy_order: OnceLock<Vec<Vec<usize>>>,
}

impl PipelineGraph {
    /// Create an empty pipeline with the given name and latency SLO (milliseconds).
    pub fn new(name: impl Into<String>, slo_ms: f64) -> Self {
        Self {
            name: name.into(),
            tasks: Vec::new(),
            slo_ms,
            batch_sizes: DEFAULT_BATCH_SIZES.to_vec(),
            derived: Derived::default(),
        }
    }

    /// The pipeline name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The end-to-end latency SLO in milliseconds.
    pub fn slo_ms(&self) -> f64 {
        self.slo_ms
    }

    /// The allowed batch sizes `B`.
    pub fn batch_sizes(&self) -> &[BatchSize] {
        &self.batch_sizes
    }

    /// Override the allowed batch sizes.
    pub fn set_batch_sizes(&mut self, sizes: Vec<BatchSize>) {
        assert!(!sizes.is_empty(), "at least one batch size is required");
        self.batch_sizes = sizes;
    }

    /// Add a task with its variants; returns the new task's id. The first task added
    /// is the root (source) of the pipeline.
    pub fn add_task(&mut self, name: impl Into<String>, variants: Vec<ModelVariant>) -> TaskId {
        self.derived = Derived::default();
        self.tasks.push(Task {
            name: name.into(),
            variants,
            children: Vec::new(),
        });
        TaskId(self.tasks.len() - 1)
    }

    /// Add a directed edge from `parent` to `child` carrying `branch_ratio` of the
    /// parent's outgoing intermediate queries.
    pub fn add_edge(&mut self, parent: TaskId, child: TaskId, branch_ratio: f64) {
        self.derived = Derived::default();
        self.tasks[parent.0].children.push(Edge {
            child,
            branch_ratio,
        });
    }

    /// The root (source) task.
    pub fn root(&self) -> TaskId {
        TaskId(0)
    }

    /// Number of tasks.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Total number of model variants across all tasks.
    pub fn num_variants(&self) -> usize {
        self.tasks.iter().map(|t| t.variants.len()).sum()
    }

    /// Access a task.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.0]
    }

    /// Access a variant by id.
    pub fn variant(&self, id: VariantId) -> &ModelVariant {
        &self.tasks[id.task].variants[id.variant]
    }

    /// Iterate over all tasks with their ids.
    pub fn tasks(&self) -> impl Iterator<Item = (TaskId, &Task)> {
        self.tasks.iter().enumerate().map(|(i, t)| (TaskId(i), t))
    }

    /// Iterate over all variant ids in the graph.
    pub fn variant_ids(&self) -> Vec<VariantId> {
        let mut out = Vec::new();
        for (i, t) in self.tasks.iter().enumerate() {
            for k in 0..t.variants.len() {
                out.push(VariantId::new(i, k));
            }
        }
        out
    }

    /// Ids of sink tasks (leaves of the tree).
    pub fn sinks(&self) -> Vec<TaskId> {
        self.tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_sink())
            .map(|(i, _)| TaskId(i))
            .collect()
    }

    /// Tasks in topological (parent-before-child) order starting from the root,
    /// as visited depth-first with each task's children in insertion order.
    /// Tasks unreachable from the root are left out.
    ///
    /// Built on the first call after the graph's last `add_task`/`add_edge`,
    /// then returned from the cache.
    pub fn topological_order(&self) -> &[TaskId] {
        self.derived.order.get_or_init(|| {
            let mut order = Vec::with_capacity(self.tasks.len());
            let mut stack = vec![self.root()];
            let mut seen = vec![false; self.tasks.len()];
            while let Some(t) = stack.pop() {
                if seen[t.0] {
                    continue;
                }
                seen[t.0] = true;
                order.push(t);
                // push children in reverse so the first child is visited first
                for e in self.tasks[t.0].children.iter().rev() {
                    stack.push(e.child);
                }
            }
            order
        })
    }

    /// All root-to-sink *task* paths (each entry is a sequence of task ids together
    /// with the product of branch ratios along the way), depth-first with each
    /// task's children in insertion order. The graph must be a valid rooted tree
    /// (see [`PipelineGraph::validate`]).
    ///
    /// Built on the first call after the graph's last `add_task`/`add_edge`,
    /// then returned from the cache.
    pub fn task_paths(&self) -> &[TaskPath] {
        self.derived.paths.get_or_init(|| {
            let mut out = Vec::new();
            let mut current = Vec::new();
            self.dfs_paths(self.root(), 1.0, &mut current, &mut out);
            out
        })
    }

    /// Variant indices of `task` sorted by accuracy, most accurate first: the
    /// order of [`Task::variants_by_accuracy_desc`].
    ///
    /// Built for every task on the first call after the graph's last
    /// `add_task`/`add_edge`, then returned from the cache.
    pub fn accuracy_order(&self, task: TaskId) -> &[usize] {
        &self.derived.accuracy_order.get_or_init(|| {
            self.tasks
                .iter()
                .map(Task::variants_by_accuracy_desc)
                .collect()
        })[task.0]
    }

    fn dfs_paths(
        &self,
        node: TaskId,
        ratio: f64,
        current: &mut Vec<TaskId>,
        out: &mut Vec<TaskPath>,
    ) {
        current.push(node);
        let task = &self.tasks[node.0];
        if task.is_sink() {
            out.push(TaskPath {
                tasks: current.clone(),
                branch_ratio: ratio,
            });
        } else {
            for e in &task.children {
                self.dfs_paths(e.child, ratio * e.branch_ratio, current, out);
            }
        }
        current.pop();
    }

    /// The branch ratio of the edge `parent -> child`, if that edge exists.
    pub fn branch_ratio(&self, parent: TaskId, child: TaskId) -> Option<f64> {
        self.tasks[parent.0]
            .children
            .iter()
            .find(|e| e.child == child)
            .map(|e| e.branch_ratio)
    }

    /// End-to-end pipeline accuracy when every task uses its most accurate variant:
    /// the average over task paths of the product of per-task accuracies.
    pub fn max_accuracy(&self) -> f64 {
        let paths = self.task_paths();
        let total: f64 = paths
            .iter()
            .map(|p| {
                p.tasks
                    .iter()
                    .map(|&t| {
                        let task = self.task(t);
                        task.variants[task.most_accurate_variant()].accuracy
                    })
                    .product::<f64>()
            })
            .sum();
        total / paths.len() as f64
    }

    /// End-to-end pipeline accuracy when every task uses its *least* accurate variant.
    pub fn min_accuracy(&self) -> f64 {
        let paths = self.task_paths();
        let total: f64 = paths
            .iter()
            .map(|p| {
                p.tasks
                    .iter()
                    .map(|&t| {
                        let task = self.task(t);
                        task.variants[task.least_accurate_variant()].accuracy
                    })
                    .product::<f64>()
            })
            .sum();
        total / paths.len() as f64
    }

    /// Validate the rooted-tree structure and the per-task data.
    pub fn validate(&self) -> Result<(), GraphError> {
        if self.tasks.is_empty() {
            return Err(GraphError::Empty);
        }
        let n = self.tasks.len();
        let mut indegree = vec![0usize; n];
        for (i, t) in self.tasks.iter().enumerate() {
            if t.variants.is_empty() {
                return Err(GraphError::TaskWithoutVariants(TaskId(i)));
            }
        }
        for (i, t) in self.tasks.iter().enumerate() {
            for (ei, e) in t.children.iter().enumerate() {
                if e.child.0 >= n {
                    return Err(GraphError::DanglingEdge(TaskId(i), ei));
                }
                if e.branch_ratio <= 0.0 || !e.branch_ratio.is_finite() {
                    return Err(GraphError::InvalidBranchRatio(TaskId(i), e.child));
                }
                indegree[e.child.0] += 1;
            }
        }
        // Rooted tree: root has indegree 0, every other vertex exactly 1.
        if indegree[0] != 0 {
            return Err(GraphError::NotATree(TaskId(0)));
        }
        for (i, &d) in indegree.iter().enumerate().skip(1) {
            if d != 1 {
                return Err(GraphError::NotATree(TaskId(i)));
            }
        }
        // Connectivity.
        let reach = self.topological_order();
        if reach.len() != n {
            let missing = (0..n).find(|i| !reach.iter().any(|t| t.0 == *i)).unwrap();
            return Err(GraphError::Unreachable(TaskId(missing)));
        }
        Ok(())
    }
}

/// A root-to-sink path through the *task* tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskPath {
    /// Task ids from root to sink, inclusive.
    pub tasks: Vec<TaskId>,
    /// Product of the branch ratios along the path (fraction of the root's fan-out
    /// that flows down this path, before multiplicative factors).
    pub branch_ratio: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variant::LatencyProfile;

    fn mk_variant(name: &str, acc: f64) -> ModelVariant {
        ModelVariant::new(name, "fam", acc, LatencyProfile::new(2.0, 2.0), 1.0)
    }

    fn two_branch_graph() -> PipelineGraph {
        let mut g = PipelineGraph::new("traffic", 250.0);
        let det = g.add_task("det", vec![mk_variant("d1", 0.8), mk_variant("d2", 1.0)]);
        let car = g.add_task("car", vec![mk_variant("c1", 0.9), mk_variant("c2", 1.0)]);
        let face = g.add_task("face", vec![mk_variant("f1", 1.0)]);
        g.add_edge(det, car, 0.7);
        g.add_edge(det, face, 0.3);
        g
    }

    #[test]
    fn structure_queries() {
        let g = two_branch_graph();
        assert_eq!(g.num_tasks(), 3);
        assert_eq!(g.num_variants(), 5);
        assert_eq!(g.root(), TaskId(0));
        assert_eq!(g.sinks(), vec![TaskId(1), TaskId(2)]);
        assert_eq!(g.branch_ratio(TaskId(0), TaskId(1)), Some(0.7));
        assert_eq!(g.branch_ratio(TaskId(1), TaskId(2)), None);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn topological_order_starts_at_root() {
        let g = two_branch_graph();
        let order = g.topological_order();
        assert_eq!(order[0], TaskId(0));
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn task_paths_enumerated_with_ratios() {
        let g = two_branch_graph();
        let paths = g.task_paths();
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].tasks, vec![TaskId(0), TaskId(1)]);
        assert!((paths[0].branch_ratio - 0.7).abs() < 1e-12);
        assert_eq!(paths[1].tasks, vec![TaskId(0), TaskId(2)]);
        assert!((paths[1].branch_ratio - 0.3).abs() < 1e-12);
    }

    #[test]
    fn accuracy_bounds() {
        let g = two_branch_graph();
        // max accuracy: path det(1.0)->car(1.0) = 1.0, det(1.0)->face(1.0) = 1.0, avg 1.0
        assert!((g.max_accuracy() - 1.0).abs() < 1e-12);
        // min accuracy: det 0.8, car 0.9, face 1.0 -> avg of 0.72 and 0.8 = 0.76
        assert!((g.min_accuracy() - 0.76).abs() < 1e-12);
        assert!(g.min_accuracy() <= g.max_accuracy());
    }

    #[test]
    fn most_and_least_accurate_variant() {
        let g = two_branch_graph();
        let det = g.task(TaskId(0));
        assert_eq!(det.most_accurate_variant(), 1);
        assert_eq!(det.least_accurate_variant(), 0);
        assert_eq!(det.variants_by_accuracy_desc(), vec![1, 0]);
    }

    #[test]
    fn validation_catches_non_tree() {
        let mut g = two_branch_graph();
        // second parent for "car"
        g.add_edge(TaskId(2), TaskId(1), 1.0);
        assert_eq!(g.validate(), Err(GraphError::NotATree(TaskId(1))));
    }

    #[test]
    fn validation_catches_bad_ratio_and_missing_variants() {
        let mut g = PipelineGraph::new("bad", 100.0);
        let a = g.add_task("a", vec![mk_variant("x", 1.0)]);
        let b = g.add_task("b", vec![]);
        g.add_edge(a, b, 0.0);
        // The first error encountered is the missing variants of task b.
        assert_eq!(
            g.validate(),
            Err(GraphError::TaskWithoutVariants(TaskId(1)))
        );

        let mut g2 = PipelineGraph::new("bad2", 100.0);
        let a = g2.add_task("a", vec![mk_variant("x", 1.0)]);
        let b = g2.add_task("b", vec![mk_variant("y", 1.0)]);
        g2.add_edge(a, b, -1.0);
        assert_eq!(
            g2.validate(),
            Err(GraphError::InvalidBranchRatio(TaskId(0), TaskId(1)))
        );
    }

    #[test]
    fn validation_catches_empty_and_unreachable() {
        let g = PipelineGraph::new("empty", 100.0);
        assert_eq!(g.validate(), Err(GraphError::Empty));

        let mut g2 = PipelineGraph::new("disc", 100.0);
        g2.add_task("a", vec![mk_variant("x", 1.0)]);
        g2.add_task("b", vec![mk_variant("y", 1.0)]);
        // no edge a->b: b has indegree 0, so the tree property fails for it.
        assert_eq!(g2.validate(), Err(GraphError::NotATree(TaskId(1))));
    }

    #[test]
    fn derived_structure_follows_edits() {
        let mut g = two_branch_graph();
        assert_eq!(g.task_paths().len(), 2);
        assert_eq!(g.topological_order().len(), 3);
        assert_eq!(g.accuracy_order(TaskId(1)), &[1, 0]);
        // A new sink under "car" splits its path in two.
        let tail = g.add_task("tail", vec![mk_variant("t1", 0.5), mk_variant("t2", 0.9)]);
        g.add_edge(TaskId(1), tail, 0.5);
        assert_eq!(
            g.topological_order(),
            &[TaskId(0), TaskId(1), tail, TaskId(2)]
        );
        let paths = g.task_paths();
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].tasks, vec![TaskId(0), TaskId(1), tail]);
        assert!((paths[0].branch_ratio - 0.35).abs() < 1e-12);
        assert_eq!(g.accuracy_order(tail), &[1, 0]);
        // A clone carries the same structure.
        let copy = g.clone();
        assert_eq!(copy.task_paths(), g.task_paths());
    }

    #[test]
    fn validation_rejects_a_cycle_off_the_root() {
        // b and c feed each other, so every non-root task has one parent, but
        // neither is reachable from the root.
        let mut g = PipelineGraph::new("cycle", 100.0);
        g.add_task("a", vec![mk_variant("x", 1.0)]);
        let b = g.add_task("b", vec![mk_variant("y", 1.0)]);
        let c = g.add_task("c", vec![mk_variant("z", 1.0)]);
        g.add_edge(b, c, 1.0);
        g.add_edge(c, b, 1.0);
        assert_eq!(g.validate(), Err(GraphError::Unreachable(b)));
    }

    #[test]
    fn single_task_pipeline_is_valid() {
        let mut g = PipelineGraph::new("single", 50.0);
        g.add_task("only", vec![mk_variant("m", 1.0)]);
        assert!(g.validate().is_ok());
        assert_eq!(g.task_paths().len(), 1);
        assert_eq!(g.sinks(), vec![TaskId(0)]);
    }
}
