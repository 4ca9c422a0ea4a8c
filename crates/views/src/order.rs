//! The canonical total order on nodes with distinct views
//! (paper, Section 2.1) and the `s(G_*)` encoding (Section 3.1).

use anonet_graph::{canonical, Label, LabeledGraph, NodeId};

use crate::error::ViewError;
use crate::refinement::{Refinement, ViewMode};
use crate::Result;

/// Computes the canonical total order on the nodes of a graph whose views
/// are all distinct (a prime 2-hop colored graph).
///
/// A [`ViewQuotient`](crate::ViewQuotient) needs no call: its numbering
/// already is this order (node `c` is stable class `c`), so its
/// [`encoding`](crate::ViewQuotient::encoding) is `s(G_*)`. This function
/// serves prime graphs that were not built by [`quotient`](crate::quotient),
/// such as leader election's input and the reference [`update_graph_cmp`].
///
/// The paper orders `V_∞` by comparing canonical representations of the
/// depth-∞ view trees level by level. We use the equivalent
/// isomorphism-invariant order given by the stable refinement classes:
/// on a discrete partition the class ids are a permutation of `0..n`, and
/// node `u` precedes node `v` iff its id is smaller. That is the
/// lexicographic order of the per-round histories
/// `(class₀(u), class₁(u), …)`: round-`(k+1)` ids are dense ranks of keys
/// whose first component is the round-`k` id, so the first round at which
/// two histories differ already orders the stable ids the same way.
/// Because class ids are derived from views alone, every node of an
/// anonymous network computes the **same** order — the property all of
/// Section 2.2's machinery needs. (Any fixed view-derived total order
/// satisfies the paper's proofs; the literal tree order and this one agree
/// on what matters: both are invariant and total.)
///
/// # Errors
///
/// Returns [`ViewError::NotDiscrete`] if two nodes share a view — only
/// prime graphs have a canonical node order.
pub fn canonical_order<L: Label>(g: &LabeledGraph<L>, mode: ViewMode) -> Result<Vec<NodeId>> {
    let r = Refinement::compute(g, mode);
    if !r.is_discrete() {
        return Err(ViewError::NotDiscrete { nodes: g.node_count(), classes: r.class_count() });
    }
    let mut order = vec![NodeId::new(0); g.node_count()];
    for (v, &c) in r.classes().iter().enumerate() {
        order[c as usize] = NodeId::new(v);
    }
    Ok(order)
}

/// The canonical bitstring encoding `s(G)` of a prime labeled graph:
/// [`canonical_order`] followed by
/// [`encode_with_order`](anonet_graph::canonical::encode_with_order).
///
/// `Update-Graph` compares finite view graphs by `(|V_*|, s(G_*))`; this
/// function provides the `s(·)` part.
///
/// # Errors
///
/// Returns [`ViewError::NotDiscrete`] if the graph has repeated views.
pub fn canonical_encoding<L: Label>(g: &LabeledGraph<L>, mode: ViewMode) -> Result<Vec<u8>> {
    let order = canonical_order(g, mode)?;
    Ok(canonical::encode_with_order(g, &order))
}

/// Compares two prime labeled graphs in the `Update-Graph` total order:
/// first by node count, then by canonical encoding.
///
/// # Errors
///
/// Returns [`ViewError::NotDiscrete`] if either graph has repeated views.
pub fn update_graph_cmp<L: Label>(
    a: &LabeledGraph<L>,
    b: &LabeledGraph<L>,
    mode: ViewMode,
) -> Result<std::cmp::Ordering> {
    let by_size = a.node_count().cmp(&b.node_count());
    if by_size != std::cmp::Ordering::Equal {
        return Ok(by_size);
    }
    Ok(canonical_encoding(a, mode)?.cmp(&canonical_encoding(b, mode)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refinement::round_history;
    use anonet_graph::{coloring, generators, Graph};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn colored_cycle(n: usize) -> LabeledGraph<u32> {
        let labels: Vec<u32> = (0..n).map(|i| (i % 3) as u32 + 1).collect();
        generators::cycle(n).unwrap().with_labels(labels).unwrap()
    }

    #[test]
    fn order_requires_distinct_views() {
        let g = colored_cycle(6); // views repeat with multiplicity 2
        assert!(matches!(
            canonical_order(&g, ViewMode::Portless),
            Err(ViewError::NotDiscrete { nodes: 6, classes: 3 })
        ));
    }

    #[test]
    fn order_is_total_on_prime_graphs() {
        let g = colored_cycle(3);
        let order = canonical_order(&g, ViewMode::PortAware).unwrap();
        assert_eq!(order.len(), 3);
        let mut sorted = order.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 3);
    }

    #[test]
    fn order_is_isomorphism_invariant() {
        // Rotating the labels of C3 renames nodes; the canonical order
        // must follow the renaming, i.e. the sequence of labels along the
        // canonical order must be identical for both presentations.
        let a = generators::cycle(3).unwrap().with_labels(vec![1u32, 2, 3]).unwrap();
        let b = generators::cycle(3).unwrap().with_labels(vec![2u32, 3, 1]).unwrap();
        let oa = canonical_order(&a, ViewMode::PortAware).unwrap();
        let ob = canonical_order(&b, ViewMode::PortAware).unwrap();
        let la: Vec<u32> = oa.iter().map(|&v| *a.label(v)).collect();
        let lb: Vec<u32> = ob.iter().map(|&v| *b.label(v)).collect();
        assert_eq!(la, lb);
    }

    #[test]
    fn canonical_encoding_is_presentation_independent() {
        let a = generators::cycle(3).unwrap().with_labels(vec![1u32, 2, 3]).unwrap();
        let b = generators::cycle(3).unwrap().with_labels(vec![3u32, 1, 2]).unwrap();
        assert_eq!(
            canonical_encoding(&a, ViewMode::PortAware).unwrap(),
            canonical_encoding(&b, ViewMode::PortAware).unwrap()
        );
    }

    #[test]
    fn canonical_encoding_separates_different_graphs() {
        let a = generators::cycle(3).unwrap().with_labels(vec![1u32, 2, 3]).unwrap();
        let b = generators::path(3).unwrap().with_labels(vec![1u32, 2, 3]).unwrap();
        assert_ne!(
            canonical_encoding(&a, ViewMode::PortAware).unwrap(),
            canonical_encoding(&b, ViewMode::PortAware).unwrap()
        );
    }

    #[test]
    fn update_graph_cmp_orders_by_size_first() {
        let small = colored_cycle(3);
        let big = generators::cycle(4).unwrap().with_labels(vec![1u32, 2, 3, 4]).unwrap();
        assert_eq!(
            update_graph_cmp(&small, &big, ViewMode::PortAware).unwrap(),
            std::cmp::Ordering::Less
        );
        assert_eq!(
            update_graph_cmp(&small, &small, ViewMode::PortAware).unwrap(),
            std::cmp::Ordering::Equal
        );
    }

    /// The order the per-round class histories give: sort nodes by
    /// `(class₀(v), class₁(v), …)` lexicographically.
    fn history_order<L: Label>(g: &LabeledGraph<L>, mode: ViewMode) -> Vec<NodeId> {
        let history = round_history(g, mode);
        let mut nodes: Vec<NodeId> = g.graph().nodes().collect();
        nodes.sort_by_key(|v| history.iter().map(|round| round[v.index()]).collect::<Vec<u32>>());
        nodes
    }

    #[test]
    fn stable_id_order_equals_history_order() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x0D3E);
        let mut discrete = 0usize;
        for n in 3..40usize {
            let mut graphs: Vec<Graph> = vec![
                generators::cycle(n).unwrap(),
                generators::path(n).unwrap(),
                generators::random_tree(n, &mut rng).unwrap(),
            ];
            for _ in 0..3 {
                graphs.push(generators::gnp_connected(n, 0.2, &mut rng).unwrap());
            }
            for graph in graphs {
                // Greedy 2-hop colorings (mostly symmetric, some prime)
                // and ID-like labels (always prime).
                let colored = coloring::greedy_two_hop_coloring(&graph);
                let ids = graph.with_labels((0..n as u32).rev().collect()).unwrap();
                for mode in [ViewMode::Portless, ViewMode::PortAware] {
                    for labeled in [&colored, &ids] {
                        match canonical_order(labeled, mode) {
                            Ok(order) => {
                                discrete += 1;
                                assert_eq!(order, history_order(labeled, mode), "n={n} {mode:?}");
                            }
                            Err(ViewError::NotDiscrete { .. }) => {
                                assert!(!Refinement::compute(labeled, mode).is_discrete());
                            }
                            Err(e) => panic!("unexpected error {e}"),
                        }
                    }
                }
            }
        }
        // Every ID-labeled instance is discrete, so the check is never
        // vacuous.
        assert!(discrete >= 37 * 6 * 2, "only {discrete} discrete instances");
    }
}
