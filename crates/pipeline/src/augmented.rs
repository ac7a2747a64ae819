//! The augmented graph: the per-variant expansion of a pipeline graph.
//!
//! Following Section 4.1 of the paper, every task vertex `i` of the pipeline graph is
//! expanded into one vertex per model variant `(i, k)`, and an edge `(i, k) -> (j, k')`
//! exists whenever `(i, j)` is an edge of the pipeline graph. A *path* is a root-to-sink
//! walk through the augmented graph, i.e. one concrete choice of model variant for each
//! task along one root-to-sink task path.
//!
//! The augmented graph is what the resource-allocation MILP reasons about: it provides
//!
//! * `P` — the set of all root-to-sink paths ([`AugmentedGraph::paths`]),
//! * `Â(p)` — per-path end-to-end accuracy ([`VariantPath::accuracy`]), computed as the
//!   product of the normalized accuracies along the path (a multiplicative composition:
//!   a downstream model can only be as good as what it is fed),
//! * `m(p, i, k)` — the number of requests reaching vertex `(i, k)` per request that
//!   enters path `p` (Equation 1), via [`AugmentedGraph::arrival_multiplier`].

use crate::graph::{PipelineGraph, TaskPath};
use crate::variant::VariantId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Index of a path in [`AugmentedGraph::paths`].
pub type PathId = usize;

/// One root-to-sink path through the augmented graph: a choice of model variant for
/// each task along a root-to-sink task path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariantPath {
    /// Index of the underlying task path in [`PipelineGraph::task_paths`].
    pub task_path: usize,
    /// The variant chosen at each task along the path (root first).
    pub vertices: Vec<VariantId>,
    /// End-to-end accuracy `Â(p)`: product of the variant accuracies along the path.
    pub accuracy: f64,
    /// Product of the branch ratios of the edges along the path.
    pub branch_ratio: f64,
    /// `m(p, i, k)` for every position on the path: `arrival_multipliers[j]` is the
    /// number of requests reaching the `j`-th vertex per request entering the path.
    pub arrival_multipliers: Vec<f64>,
}

impl VariantPath {
    /// Number of tasks on the path.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// True if the path is empty (never the case for a validated pipeline).
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// The position of a variant on this path, if present.
    pub fn position_of(&self, v: VariantId) -> Option<usize> {
        self.vertices.iter().position(|&x| x == v)
    }

    /// True if the path goes through the given variant.
    pub fn contains(&self, v: VariantId) -> bool {
        self.position_of(v).is_some()
    }
}

/// The augmented graph of a pipeline: all root-to-sink variant paths plus the lookup
/// structures the resource manager and load balancer need.
#[derive(Debug, Clone)]
pub struct AugmentedGraph {
    paths: Vec<VariantPath>,
    /// Paths grouped by the task path they materialize.
    paths_by_task_path: Vec<Vec<PathId>>,
    /// For every variant, the paths that contain it.
    paths_by_variant: HashMap<VariantId, Vec<PathId>>,
    num_task_paths: usize,
}

impl AugmentedGraph {
    /// Build the augmented graph for a pipeline. The pipeline must be a valid rooted
    /// tree (see [`PipelineGraph::validate`]).
    pub fn new(graph: &PipelineGraph) -> Self {
        let task_paths = graph.task_paths();
        let mut paths = Vec::new();
        let mut paths_by_task_path = vec![Vec::new(); task_paths.len()];
        let mut paths_by_variant: HashMap<VariantId, Vec<PathId>> = HashMap::new();

        for (tp_idx, tp) in task_paths.iter().enumerate() {
            let mut current: Vec<VariantId> = Vec::with_capacity(tp.tasks.len());
            Self::expand(
                graph,
                tp,
                tp_idx,
                0,
                &mut current,
                &mut paths,
                &mut paths_by_task_path,
                &mut paths_by_variant,
            );
        }

        Self {
            paths,
            paths_by_task_path,
            paths_by_variant,
            num_task_paths: task_paths.len(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn expand(
        graph: &PipelineGraph,
        tp: &TaskPath,
        tp_idx: usize,
        depth: usize,
        current: &mut Vec<VariantId>,
        paths: &mut Vec<VariantPath>,
        paths_by_task_path: &mut [Vec<PathId>],
        paths_by_variant: &mut HashMap<VariantId, Vec<PathId>>,
    ) {
        if depth == tp.tasks.len() {
            let id = paths.len();
            // accuracy and arrival multipliers
            let mut accuracy = 1.0;
            let mut multipliers = Vec::with_capacity(current.len());
            let mut running = 1.0;
            for (j, &v) in current.iter().enumerate() {
                multipliers.push(running);
                let variant = graph.variant(v);
                accuracy *= variant.accuracy;
                if j + 1 < current.len() {
                    let ratio = graph
                        .branch_ratio(tp.tasks[j], tp.tasks[j + 1])
                        .expect("consecutive tasks on a task path are connected");
                    running *= variant.mult_factor * ratio;
                }
            }
            let path = VariantPath {
                task_path: tp_idx,
                vertices: current.clone(),
                accuracy,
                branch_ratio: tp.branch_ratio,
                arrival_multipliers: multipliers,
            };
            for &v in current.iter() {
                paths_by_variant.entry(v).or_default().push(id);
            }
            paths_by_task_path[tp_idx].push(id);
            paths.push(path);
            return;
        }
        let task_id = tp.tasks[depth];
        let task = graph.task(task_id);
        for k in 0..task.variants.len() {
            current.push(VariantId::new(task_id.index(), k));
            Self::expand(
                graph,
                tp,
                tp_idx,
                depth + 1,
                current,
                paths,
                paths_by_task_path,
                paths_by_variant,
            );
            current.pop();
        }
    }

    /// All root-to-sink variant paths (`P` in the paper).
    pub fn paths(&self) -> &[VariantPath] {
        &self.paths
    }

    /// Number of paths.
    pub fn num_paths(&self) -> usize {
        self.paths.len()
    }

    /// Number of root-to-sink paths in the underlying *task* tree.
    pub fn num_task_paths(&self) -> usize {
        self.num_task_paths
    }

    /// A specific path.
    pub fn path(&self, id: PathId) -> &VariantPath {
        &self.paths[id]
    }

    /// The paths that materialize a given task path.
    pub fn paths_for_task_path(&self, tp: usize) -> &[PathId] {
        &self.paths_by_task_path[tp]
    }

    /// The paths that contain a given variant (`P_{i,k}` in the paper).
    pub fn paths_through(&self, v: VariantId) -> &[PathId] {
        self.paths_by_variant
            .get(&v)
            .map(|p| p.as_slice())
            .unwrap_or(&[])
    }

    /// `m(p, i, k)`: the number of requests derived from a single request entering path
    /// `p` that reach variant `v` (Equation 1). Returns `None` if the path does not go
    /// through `v`.
    pub fn arrival_multiplier(&self, p: PathId, v: VariantId) -> Option<f64> {
        let path = &self.paths[p];
        path.position_of(v).map(|j| path.arrival_multipliers[j])
    }

    /// System accuracy for a per-path traffic split `c(p)`: the average over task paths
    /// of `Σ_p c(p) · Â(p)`, where within each task path the ratios are expected to sum
    /// to one. This is the objective of the accuracy-scaling MILP (Equation 12),
    /// averaged over task paths so that a multi-sink pipeline still reports a value in
    /// `(0, 1]`.
    pub fn system_accuracy(&self, ratios: &[f64]) -> f64 {
        assert_eq!(
            ratios.len(),
            self.paths.len(),
            "one ratio per path expected"
        );
        let mut total = 0.0;
        for (tp, ids) in self.paths_by_task_path.iter().enumerate() {
            let _ = tp;
            let mut acc = 0.0;
            for &p in ids {
                acc += ratios[p] * self.paths[p].accuracy;
            }
            total += acc;
        }
        total / self.num_task_paths as f64
    }

    /// End-to-end pipeline accuracy for a single variant choice per task (the
    /// `choices[i]` is the variant index used by task `i`). Used by the greedy
    /// allocator and for Figure 1.
    pub fn accuracy_for_choice(&self, graph: &PipelineGraph, choices: &[usize]) -> f64 {
        let task_paths = graph.task_paths();
        let mut total = 0.0;
        for tp in task_paths {
            let mut acc = 1.0;
            for &t in &tp.tasks {
                acc *= graph.task(t).variants[choices[t.index()]].accuracy;
            }
            total += acc;
        }
        total / task_paths.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::PipelineGraph;
    use crate::variant::{LatencyProfile, ModelVariant};

    fn mk_variant(name: &str, acc: f64, mult: f64) -> ModelVariant {
        ModelVariant::new(name, "fam", acc, LatencyProfile::new(2.0, 2.0), mult)
    }

    /// det (2 variants, mult 2.0/1.5) -> car (2 variants) [ratio 0.7]
    ///                                -> face (1 variant)  [ratio 0.3]
    fn graph() -> PipelineGraph {
        let mut g = PipelineGraph::new("traffic", 250.0);
        let det = g.add_task(
            "det",
            vec![mk_variant("d_lo", 0.8, 1.5), mk_variant("d_hi", 1.0, 2.0)],
        );
        let car = g.add_task(
            "car",
            vec![mk_variant("c_lo", 0.9, 1.0), mk_variant("c_hi", 1.0, 1.0)],
        );
        let face = g.add_task("face", vec![mk_variant("f", 0.95, 1.0)]);
        g.add_edge(det, car, 0.7);
        g.add_edge(det, face, 0.3);
        g
    }

    #[test]
    fn path_enumeration_counts() {
        let g = graph();
        let a = AugmentedGraph::new(&g);
        // task path det->car has 2*2 = 4 variant paths, det->face has 2*1 = 2.
        assert_eq!(a.num_paths(), 6);
        assert_eq!(a.num_task_paths(), 2);
        assert_eq!(a.paths_for_task_path(0).len(), 4);
        assert_eq!(a.paths_for_task_path(1).len(), 2);
    }

    #[test]
    fn path_accuracy_is_product() {
        let g = graph();
        let a = AugmentedGraph::new(&g);
        // find the path det=d_hi -> car=c_lo
        let p = a
            .paths()
            .iter()
            .find(|p| p.vertices == vec![VariantId::new(0, 1), VariantId::new(1, 0)])
            .unwrap();
        assert!((p.accuracy - 1.0 * 0.9).abs() < 1e-12);
    }

    #[test]
    fn arrival_multiplier_accounts_for_mult_factor_and_branch_ratio() {
        let g = graph();
        let a = AugmentedGraph::new(&g);
        // path det=d_hi (mult 2.0) -> car=c_hi via ratio 0.7: m at car = 2.0 * 0.7 = 1.4
        let det_hi = VariantId::new(0, 1);
        let car_hi = VariantId::new(1, 1);
        let pid = a
            .paths()
            .iter()
            .position(|p| p.vertices == vec![det_hi, car_hi])
            .unwrap();
        assert!((a.arrival_multiplier(pid, det_hi).unwrap() - 1.0).abs() < 1e-12);
        assert!((a.arrival_multiplier(pid, car_hi).unwrap() - 1.4).abs() < 1e-12);
        // variant not on path
        assert!(a.arrival_multiplier(pid, VariantId::new(2, 0)).is_none());
    }

    #[test]
    fn paths_through_variant() {
        let g = graph();
        let a = AugmentedGraph::new(&g);
        // det d_hi appears in 2 (car variants) + 1 (face) = 3 paths
        assert_eq!(a.paths_through(VariantId::new(0, 1)).len(), 3);
        // car c_lo appears only in the det-variant cross product: 2 paths
        assert_eq!(a.paths_through(VariantId::new(1, 0)).len(), 2);
        // face variant appears in 2 paths (one per det variant)
        assert_eq!(a.paths_through(VariantId::new(2, 0)).len(), 2);
        // unknown variant
        assert!(a.paths_through(VariantId::new(9, 9)).is_empty());
    }

    #[test]
    fn system_accuracy_averages_task_paths() {
        let g = graph();
        let a = AugmentedGraph::new(&g);
        // route everything through the most accurate variants
        let mut ratios = vec![0.0; a.num_paths()];
        let best_car_path = a
            .paths()
            .iter()
            .position(|p| p.vertices == vec![VariantId::new(0, 1), VariantId::new(1, 1)])
            .unwrap();
        let best_face_path = a
            .paths()
            .iter()
            .position(|p| p.vertices == vec![VariantId::new(0, 1), VariantId::new(2, 0)])
            .unwrap();
        ratios[best_car_path] = 1.0;
        ratios[best_face_path] = 1.0;
        // accuracy = avg(1.0*1.0, 1.0*0.95) = 0.975
        assert!((a.system_accuracy(&ratios) - 0.975).abs() < 1e-12);
    }

    #[test]
    fn accuracy_for_choice_matches_graph_bounds() {
        let g = graph();
        let a = AugmentedGraph::new(&g);
        let best = a.accuracy_for_choice(&g, &[1, 1, 0]);
        assert!((best - g.max_accuracy()).abs() < 1e-12);
        let worst = a.accuracy_for_choice(&g, &[0, 0, 0]);
        assert!((worst - g.min_accuracy()).abs() < 1e-12);
    }

    #[test]
    fn chain_pipeline_paths() {
        let mut g = PipelineGraph::new("chain", 100.0);
        let a_task = g.add_task(
            "a",
            vec![mk_variant("a1", 1.0, 1.2), mk_variant("a2", 0.9, 1.0)],
        );
        let b_task = g.add_task("b", vec![mk_variant("b1", 1.0, 1.0)]);
        g.add_edge(a_task, b_task, 1.0);
        let aug = AugmentedGraph::new(&g);
        assert_eq!(aug.num_paths(), 2);
        // multiplier at b for the a1 path is 1.2
        let p = aug
            .paths()
            .iter()
            .position(|p| p.vertices[0] == VariantId::new(0, 0))
            .unwrap();
        assert!((aug.arrival_multiplier(p, VariantId::new(1, 0)).unwrap() - 1.2).abs() < 1e-12);
    }
}
