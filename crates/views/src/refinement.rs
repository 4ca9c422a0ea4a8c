//! Color refinement: the linear-time equivalent of view equality.
//!
//! Classic fact (implicit in the paper's use of Norris [39]): two nodes
//! have equal depth-`(k+1)` local views iff `k` rounds of color refinement
//! place them in the same class. Refinement partitions only ever get
//! finer, so they stabilize after at most `n - 1` rounds — the
//! finite-depth phenomenon that Section 3 of the paper exploits.
//!
//! [`Refinement`] runs the rounds to stability and keeps only the stable
//! partition and the round count: `O(n)` memory at any depth. That is all
//! the paper consumes. Quotients, Norris reports and leader election read
//! the stable partition, and the canonical order of Section 2.1 is the
//! stable class ids themselves: round-`(k+1)` ids are dense ranks of keys
//! whose first component is the round-`k` id, so a strict order between
//! two nodes at any round persists to the stable round (see
//! [`canonical_order`](crate::canonical_order)).

use std::collections::BTreeMap;

use anonet_graph::{Label, LabeledGraph, NodeId, Port};

/// Which notion of view equivalence to compute.
///
/// See the crate docs for the full discussion; in short:
/// [`ViewMode::Portless`] is the paper's literal definition, while
/// [`ViewMode::PortAware`] additionally distinguishes port structure and
/// is what lifting arbitrary port-sensitive algorithms requires.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ViewMode {
    /// Views record node labels only (paper, Section 1.1). This is the
    /// paper-exact notion and the default: the derandomization machinery
    /// pairs it with *port-oblivious* algorithms, which by the paper's
    /// Section 1.3 remark lose no power on 2-hop colored graphs.
    #[default]
    Portless,
    /// Views additionally record, for each port `p`, the port through
    /// which the neighbor reached via `p` sees this node. Strictly finer
    /// than [`ViewMode::Portless`] (port numberings can break symmetry);
    /// used by the experiments that study the effect of ports.
    PortAware,
}

/// The canonical round-0 partition: dense class ids assigned by sorted
/// label encodings.
fn initial_label_classes<L: Label>(g: &LabeledGraph<L>) -> Vec<u32> {
    let keys0: Vec<Vec<u8>> = g.graph().nodes().map(|v| g.label(v).encoded()).collect();
    assign_dense_classes(&keys0)
}

/// One refinement round: each node's key is its previous class and its
/// neighbors' previous classes — sorted into a multiset under
/// [`ViewMode::Portless`], in port order with reverse ports under
/// [`ViewMode::PortAware`] — and the new classes are the keys' dense
/// ranks.
fn refine_round<L: Label>(g: &LabeledGraph<L>, prev: &[u32], mode: ViewMode) -> Vec<u32> {
    let graph = g.graph();
    let keys: Vec<(u32, Vec<(u32, u32)>)> = graph
        .nodes()
        .map(|v| {
            let mut nbrs: Vec<(u32, u32)> = graph
                .neighbors(v)
                .iter()
                .enumerate()
                .map(|(p, &u)| {
                    let rev = match mode {
                        ViewMode::Portless => 0,
                        ViewMode::PortAware => graph.reverse_port(v, Port::new(p)).index() as u32,
                    };
                    (prev[u.index()], rev)
                })
                .collect();
            if mode == ViewMode::Portless {
                // Neighbor multiset, not port vector.
                nbrs.sort_unstable();
            }
            (prev[v.index()], nbrs)
        })
        .collect();
    assign_dense_classes(&keys)
}

/// Sorts keys and assigns dense canonical ids by sorted order.
fn assign_dense_classes<K: Ord>(keys: &[K]) -> Vec<u32> {
    let mut sorted: Vec<&K> = keys.iter().collect();
    sorted.sort();
    sorted.dedup();
    let index: BTreeMap<&K, u32> =
        sorted.into_iter().enumerate().map(|(i, k)| (k, i as u32)).collect();
    keys.iter().map(|k| index[k]).collect()
}

/// Number of classes of a dense partition (ids are exactly `0..count`).
fn dense_count(classes: &[u32]) -> usize {
    classes.iter().max().map_or(0, |&m| m as usize + 1)
}

/// The result of running color refinement to stability.
///
/// Class identifiers are *canonical*: they are assigned by sorting the
/// refinement keys, so isomorphic labeled graphs receive identical class
/// structures — which is what lets every node of an anonymous network
/// compute the same quotient independently.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Refinement {
    /// Stable class of each node, dense in `0..class_count()`.
    classes: Vec<u32>,
    depth: usize,
    mode: ViewMode,
}

impl Refinement {
    /// Runs refinement on `g` until the partition stabilizes.
    ///
    /// Round 0 is labels only, so that `k` rounds match equality of
    /// depth-`(k+1)` views exactly. (Degrees are picked up at round 1 as
    /// the neighbor-multiset size; the paper's convention that labels
    /// include degrees makes the two initial partitions coincide on its
    /// instances anyway.)
    pub fn compute<L: Label>(g: &LabeledGraph<L>, mode: ViewMode) -> Self {
        let n = g.node_count();
        let mut classes = initial_label_classes(g);
        let mut count = dense_count(&classes);
        let mut depth = 0usize;
        loop {
            let next = refine_round(g, &classes, mode);
            let next_count = dense_count(&next);
            // Refinement only splits classes, so equal counts ⇒ equal
            // partitions ⇒ stable.
            if next_count == count {
                break;
            }
            classes = next;
            count = next_count;
            depth += 1;
            if depth > n {
                unreachable!("refinement must stabilize within n rounds");
            }
        }
        Refinement { classes, depth, mode }
    }

    /// The stable classes, indexed by node.
    pub fn classes(&self) -> &[u32] {
        &self.classes
    }

    /// Number of stable classes (`|V_∞|` — the size of the paper's
    /// infinite view graph).
    pub fn class_count(&self) -> usize {
        dense_count(&self.classes)
    }

    /// Number of refinement rounds until stability.
    ///
    /// Norris' theorem (paper, Theorem 3) corresponds to the bound
    /// `stabilization_depth() ≤ n - 1`.
    pub fn stabilization_depth(&self) -> usize {
        self.depth
    }

    /// `true` iff every node is alone in its class — i.e. all depth-∞
    /// views are distinct (Lemma 4: the graph is prime).
    pub fn is_discrete(&self) -> bool {
        self.class_count() == self.classes.len()
    }

    /// The mode this refinement was computed under.
    pub fn mode(&self) -> ViewMode {
        self.mode
    }

    /// The stable partition as explicit groups of nodes, ordered by
    /// canonical class id.
    pub fn partition(&self) -> Vec<Vec<NodeId>> {
        let mut groups: Vec<Vec<NodeId>> = vec![Vec::new(); self.class_count()];
        for (v, &c) in self.classes.iter().enumerate() {
            groups[c as usize].push(NodeId::new(v));
        }
        groups
    }
}

/// Test reference: the classes after every round, `0..=depth`, replayed
/// with the same round function [`Refinement::compute`] uses. The last
/// entry is the stable partition.
#[cfg(test)]
pub(crate) fn round_history<L: Label>(g: &LabeledGraph<L>, mode: ViewMode) -> Vec<Vec<u32>> {
    let depth = Refinement::compute(g, mode).stabilization_depth();
    let mut history = vec![initial_label_classes(g)];
    for _ in 0..depth {
        let next = refine_round(g, &history[history.len() - 1], mode);
        history.push(next);
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view_tree::ViewTree;
    use anonet_graph::{generators, Graph};

    fn fig1_c6() -> LabeledGraph<u32> {
        generators::cycle(6).unwrap().with_labels(vec![1u32, 2, 3, 1, 2, 3]).unwrap()
    }

    #[test]
    fn colored_c6_has_three_classes() {
        let r = Refinement::compute(&fig1_c6(), ViewMode::Portless);
        assert_eq!(r.class_count(), 3);
        let c = r.classes();
        assert_eq!(c[0], c[3]);
        assert_eq!(c[1], c[4]);
        assert_eq!(c[2], c[5]);
        assert_ne!(c[0], c[1]);
    }

    #[test]
    fn uniform_cycle_is_one_class() {
        let g = generators::cycle(7).unwrap().with_uniform_label(0u8);
        let r = Refinement::compute(&g, ViewMode::Portless);
        assert_eq!(r.class_count(), 1);
        assert!(!r.is_discrete());
    }

    #[test]
    fn port_numberings_can_break_symmetry() {
        // The cycle generator wires port 0 toward the successor for every
        // node except the last, whose ports are swapped — a genuinely
        // asymmetric port numbering. Portless views cannot see it; the
        // port-aware refinement splits the single class.
        let g = generators::cycle(7).unwrap().with_uniform_label(0u8);
        let portless = Refinement::compute(&g, ViewMode::Portless);
        let aware = Refinement::compute(&g, ViewMode::PortAware);
        assert_eq!(portless.class_count(), 1);
        assert!(aware.class_count() > 1);
    }

    #[test]
    fn path_refinement_is_discrete_up_to_mirror() {
        // P5 with uniform labels: refinement distinguishes by distance to
        // the ends, but the mirror symmetry survives: classes {0,4},{1,3},{2}.
        let g = generators::path(5).unwrap().with_uniform_label(0u8);
        let r = Refinement::compute(&g, ViewMode::Portless);
        assert_eq!(r.class_count(), 3);
        let c = r.classes();
        assert_eq!(c[0], c[4]);
        assert_eq!(c[1], c[3]);
        assert_ne!(c[0], c[1]);
        assert_ne!(c[1], c[2]);
    }

    #[test]
    fn refinement_matches_explicit_views() {
        // The round-k classes must equal depth-(k+1) view equality, node
        // pair by node pair — the standard refinement/view correspondence.
        let graphs = vec![
            fig1_c6(),
            generators::path(6).unwrap().with_uniform_label(0u32),
            generators::petersen().with_degree_labels(),
            Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 1)])
                .unwrap()
                .with_uniform_label(0u32),
        ];
        for g in graphs {
            let history = round_history(&g, ViewMode::Portless);
            let n = g.node_count();
            for (k, classes) in history.iter().enumerate() {
                let views: Vec<ViewTree<u32>> = (0..n)
                    .map(|v| ViewTree::build(&g, NodeId::new(v), k + 1).unwrap().canonicalize())
                    .collect();
                for u in 0..n {
                    for v in 0..n {
                        let by_view = views[u].encoded() == views[v].encoded();
                        let by_ref = classes[u] == classes[v];
                        assert_eq!(by_view, by_ref, "mismatch at depth {k} for nodes {u},{v}");
                    }
                }
            }
        }
    }

    #[test]
    fn stabilization_within_n_minus_one() {
        let graphs: Vec<LabeledGraph<u32>> = vec![
            generators::path(9).unwrap().with_uniform_label(0u32),
            generators::cycle(8).unwrap().with_uniform_label(0u32),
            generators::petersen().with_uniform_label(0u32),
            fig1_c6(),
        ];
        for g in graphs {
            for mode in [ViewMode::Portless, ViewMode::PortAware] {
                let r = Refinement::compute(&g, mode);
                assert!(
                    r.stabilization_depth() <= g.node_count().saturating_sub(1),
                    "depth {} exceeds n-1",
                    r.stabilization_depth()
                );
            }
        }
    }

    #[test]
    fn port_aware_is_at_least_as_fine() {
        for g in [fig1_c6(), generators::petersen().with_uniform_label(0u32)] {
            let portless = Refinement::compute(&g, ViewMode::Portless);
            let aware = Refinement::compute(&g, ViewMode::PortAware);
            assert!(aware.class_count() >= portless.class_count());
            // Same port-aware class ⇒ same portless class.
            let n = g.node_count();
            for u in 0..n {
                for v in 0..n {
                    if aware.classes()[u] == aware.classes()[v] {
                        assert_eq!(portless.classes()[u], portless.classes()[v]);
                    }
                }
            }
        }
    }

    #[test]
    fn ids_give_distinct_classes_exactly_when_discrete() {
        let ids = generators::petersen().with_labels((0..10u32).collect()).unwrap();
        let r = Refinement::compute(&ids, ViewMode::Portless);
        assert!(r.is_discrete());
        let mut classes = r.classes().to_vec();
        classes.sort_unstable();
        assert_eq!(classes, (0..10u32).collect::<Vec<_>>());
    }

    #[test]
    fn canonical_ids_are_isomorphism_invariant() {
        // The same colored cycle presented with rotated node names must
        // yield the same multiset of (class id, label) pairs.
        let a = fig1_c6();
        let rot = generators::cycle(6).unwrap().with_labels(vec![3u32, 1, 2, 3, 1, 2]).unwrap();
        let ra = Refinement::compute(&a, ViewMode::Portless);
        let rb = Refinement::compute(&rot, ViewMode::Portless);
        let mut pa: Vec<(u32, u32)> =
            (0..6).map(|v| (ra.classes()[v], *a.label(NodeId::new(v)))).collect();
        let mut pb: Vec<(u32, u32)> =
            (0..6).map(|v| (rb.classes()[v], *rot.label(NodeId::new(v)))).collect();
        pa.sort();
        pb.sort();
        assert_eq!(pa, pb);
    }

    #[test]
    fn partition_groups_match_classes() {
        let g = generators::path(5).unwrap().with_uniform_label(0u8);
        let r = Refinement::compute(&g, ViewMode::Portless);
        let groups = r.partition();
        assert_eq!(groups.len(), 3);
        assert_eq!(groups.iter().map(Vec::len).sum::<usize>(), 5);
        // Mirror pairs share a group.
        let find = |v: usize| groups.iter().position(|grp| grp.contains(&NodeId::new(v))).unwrap();
        assert_eq!(find(0), find(4));
        assert_eq!(find(1), find(3));
        assert_ne!(find(0), find(2));
    }

    fn test_graphs() -> Vec<LabeledGraph<u32>> {
        vec![
            fig1_c6(),
            generators::path(9).unwrap().with_uniform_label(0u32),
            generators::cycle(8).unwrap().with_uniform_label(0u32),
            generators::petersen().with_uniform_label(0u32),
            generators::petersen().with_labels((0..10u32).collect()).unwrap(),
            generators::grid(3, 4, false).unwrap().with_uniform_label(0u32),
            generators::hypercube(3).unwrap().with_uniform_label(0u32),
            Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 1)])
                .unwrap()
                .with_uniform_label(0u32),
        ]
    }

    #[test]
    fn round_history_ends_in_the_stable_partition() {
        for g in test_graphs() {
            for mode in [ViewMode::Portless, ViewMode::PortAware] {
                let r = Refinement::compute(&g, mode);
                let history = round_history(&g, mode);
                assert_eq!(history.len(), r.stabilization_depth() + 1, "{mode:?}");
                assert_eq!(history.last().map(Vec::as_slice), Some(r.classes()), "{mode:?}");
                // Every round strictly splits the one before it.
                for w in history.windows(2) {
                    assert!(dense_count(&w[1]) > dense_count(&w[0]), "{mode:?}");
                }
            }
        }
    }
}
