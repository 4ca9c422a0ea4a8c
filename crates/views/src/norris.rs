//! Empirical companions to Norris' theorem (paper, Theorem 3):
//! depth-`n` views determine depth-∞ views.

use anonet_graph::{Label, LabeledGraph};

use crate::refinement::{Refinement, ViewMode};

/// The outcome of checking Norris' bound on one graph.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NorrisReport {
    /// Number of nodes `n`.
    pub nodes: usize,
    /// Number of distinct depth-∞ views (`|V_∞|`).
    pub classes: usize,
    /// Rounds of refinement until the view partition stabilized — the
    /// smallest `d` such that depth-`(d+1)` views determine all views.
    pub stabilization_depth: usize,
    /// Norris' bound in refinement form: stabilization within `n - 1`
    /// rounds (so `L_n` determines `L_∞`).
    pub bound: usize,
}

impl NorrisReport {
    /// `true` iff the bound holds (it always does; the experiments verify
    /// this and measure the slack).
    pub fn holds(&self) -> bool {
        self.stabilization_depth <= self.bound
    }

    /// How far below the bound the graph stabilized.
    pub fn slack(&self) -> usize {
        self.bound.saturating_sub(self.stabilization_depth)
    }
}

/// Runs refinement and reports stabilization depth against Norris' bound.
pub fn norris_report<L: Label>(g: &LabeledGraph<L>, mode: ViewMode) -> NorrisReport {
    let r = Refinement::compute(g, mode);
    NorrisReport {
        nodes: g.node_count(),
        classes: r.class_count(),
        stabilization_depth: r.stabilization_depth(),
        bound: g.node_count().saturating_sub(1),
    }
}

/// The smallest depth `d` such that the depth-`d` view partition already
/// equals the stable partition. (`stabilization_depth + 1` in view terms:
/// refinement round `k` corresponds to views of depth `k + 1`.)
pub fn sufficient_view_depth<L: Label>(g: &LabeledGraph<L>, mode: ViewMode) -> usize {
    Refinement::compute(g, mode).stabilization_depth() + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_graph::generators;

    #[test]
    fn bound_holds_on_standard_families() {
        let graphs: Vec<LabeledGraph<u32>> = vec![
            generators::path(10).unwrap().with_uniform_label(0u32),
            generators::cycle(9).unwrap().with_uniform_label(0u32),
            generators::petersen().with_uniform_label(0u32),
            generators::hypercube(3).unwrap().with_uniform_label(0u32),
            generators::cycle(6).unwrap().with_labels(vec![1, 2, 3, 1, 2, 3]).unwrap(),
        ];
        for g in graphs {
            for mode in [ViewMode::Portless, ViewMode::PortAware] {
                let report = norris_report(&g, mode);
                assert!(report.holds(), "Norris bound violated: {report:?}");
            }
        }
    }

    #[test]
    fn path_is_the_slow_case() {
        // Uniform paths are the classic near-tight case: distinguishing
        // the middle of P_n takes about n/2 rounds.
        let g = generators::path(12).unwrap().with_uniform_label(0u32);
        let report = norris_report(&g, ViewMode::Portless);
        assert!(report.stabilization_depth >= 5, "got {report:?}");
        assert!(report.holds());
    }

    #[test]
    fn colored_graphs_stabilize_fast() {
        let g = generators::cycle(12)
            .unwrap()
            .with_labels((0..12).map(|i| (i % 3) as u32).collect())
            .unwrap();
        let report = norris_report(&g, ViewMode::Portless);
        // Coloring already separates everything separable; no rounds of
        // refinement can split further.
        assert_eq!(report.classes, 3);
        assert_eq!(report.stabilization_depth, 0);
        assert_eq!(report.slack(), 11);
    }

    #[test]
    fn sufficient_view_depth_matches() {
        let g = generators::path(8).unwrap().with_uniform_label(0u32);
        let d = sufficient_view_depth(&g, ViewMode::Portless);
        let r = Refinement::compute(&g, ViewMode::Portless);
        assert_eq!(d, r.stabilization_depth() + 1);
        assert!(d <= 8);
    }
}
