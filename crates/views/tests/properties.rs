//! Property-based tests for the views machinery on random graphs.

use anonet_graph::generators::Family;
use anonet_graph::{coloring, generators, iso, lift, Graph, NodeId};
use anonet_views::{
    canonical_encoding, canonical_order, quotient, FoldedView, Refinement, ViewMode, ViewTree,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn random_graph(seed: u64, n: usize, flavor: u8) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    match flavor % 3 {
        0 => generators::gnp_connected(n, 0.35, &mut rng).expect("valid"),
        1 => generators::random_tree(n, &mut rng).expect("valid"),
        _ => generators::cycle(n.max(3)).expect("valid"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Folded views built directly equal folded views of explicit trees,
    /// and unfold back to the canonical tree.
    #[test]
    fn folded_views_roundtrip(seed in 0u64..5000, n in 2usize..10, flavor in 0u8..3, d in 1usize..5) {
        let g = random_graph(seed, n, flavor).with_degree_labels();
        for v in g.graph().nodes() {
            let direct = FoldedView::build(&g, v, d).expect("valid depth");
            let tree = ViewTree::build(&g, v, d).expect("small enough");
            prop_assert_eq!(&direct, &FoldedView::from_view_tree(&tree));
            prop_assert!(direct.unfold().view_eq(&tree));
            prop_assert_eq!(direct.unfolded_size(), tree.size() as u128);
        }
    }

    /// Folded-view equality is exactly view equality (refinement classes).
    #[test]
    fn folded_equality_matches_refinement(seed in 0u64..5000, n in 2usize..10, flavor in 0u8..3) {
        let g = random_graph(seed, n, flavor).with_uniform_label(0u32);
        let n = g.node_count();
        let d = n + 1; // deep enough to separate everything separable
        let views: Vec<FoldedView<u32>> = g
            .graph()
            .nodes()
            .map(|v| FoldedView::build(&g, v, d).expect("valid"))
            .collect();
        let r = Refinement::compute(&g, ViewMode::Portless);
        for u in 0..n {
            for v in 0..n {
                prop_assert_eq!(
                    views[u] == views[v],
                    r.classes()[u] == r.classes()[v],
                    "nodes {} vs {}", u, v
                );
            }
        }
    }

    /// Closed-view quotient reconstruction agrees with the direct quotient
    /// on greedily colored random graphs.
    #[test]
    fn closed_reconstruction_matches_quotient(seed in 0u64..3000, n in 2usize..8, flavor in 0u8..3) {
        let g = random_graph(seed, n, flavor);
        let colored = coloring::greedy_two_hop_coloring(&g);
        let nn = g.node_count();
        let direct = quotient(&colored, ViewMode::Portless).expect("2-hop colored");
        let folded = FoldedView::build_closed(&colored, NodeId::new(0), 2 * nn + 2)
            .expect("valid");
        let (reconstructed, own) = folded.quotient_at_level(nn).expect("reconstructible");
        prop_assert!(iso::are_isomorphic(&reconstructed, direct.graph()));
        prop_assert_eq!(reconstructed.label(own), colored.label(NodeId::new(0)));
    }

    /// The canonical order of a prime graph is invariant under relabeling
    /// of node identifiers (tested via lifts' fibers: the quotient of any
    /// lift presentation is the same canonical object).
    #[test]
    fn canonical_order_is_presentation_invariant(seed in 0u64..3000, m in 2usize..4) {
        let base = generators::cycle(5).expect("valid");
        let colored = coloring::greedy_two_hop_coloring(&base);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let Ok(l) = lift::random_connected_lift(&base, m, 100, &mut rng) else {
            return Ok(()); // unlucky voltages; skip
        };
        let product = l.lift_labels(colored.labels()).expect("labels fit");
        let q = quotient(&product, ViewMode::Portless).expect("2-hop colored");
        let order = canonical_order(q.graph(), ViewMode::Portless).expect("prime");
        // The sequence of labels along the canonical order must equal the
        // base's canonical label sequence.
        let base_order = canonical_order(&colored, ViewMode::Portless).expect("prime");
        let got: Vec<u32> = order.iter().map(|&c| *q.graph().label(c)).collect();
        let expect: Vec<u32> = base_order.iter().map(|&v| *colored.label(v)).collect();
        prop_assert_eq!(got, expect);
    }

    /// Quotienting twice is idempotent on colored random graphs.
    #[test]
    fn quotient_is_idempotent(seed in 0u64..5000, n in 2usize..10, flavor in 0u8..3) {
        let g = random_graph(seed, n, flavor);
        let colored = coloring::greedy_two_hop_coloring(&g);
        let q = quotient(&colored, ViewMode::Portless).expect("2-hop colored");
        let qq = quotient(q.graph(), ViewMode::Portless).expect("still 2-hop colored");
        prop_assert!(qq.is_trivial());
        prop_assert!(iso::are_isomorphic(qq.graph(), q.graph()));
    }
}

/// The invariant callers rely on instead of refining a quotient again:
/// a quotient's numbering is its canonical order, so its encoding is
/// `s(G_*)`. Swept over every generator family, each as a greedy 2-hop
/// coloring plus connected 2- and 3-lifts of it, in both view modes.
#[test]
fn quotient_numbering_is_the_canonical_order() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0C0D);
    let (mut checked, mut nontrivial) = (0usize, 0usize);
    for family in Family::ALL {
        for n in 3..40usize {
            let colored = coloring::greedy_two_hop_coloring(&family.sample(n, &mut rng).unwrap());
            let mut instances = vec![colored.clone()];
            for m in [2usize, 3] {
                // Lifts of trees are never connected; skip those.
                if let Ok(l) = lift::random_connected_lift(colored.graph(), m, 50, &mut rng) {
                    instances.push(l.lift_labels(colored.labels()).unwrap());
                }
            }
            for g in &instances {
                for mode in [ViewMode::Portless, ViewMode::PortAware] {
                    let q = quotient(g, mode).expect("2-hop colored");
                    let identity: Vec<NodeId> = q.graph().graph().nodes().collect();
                    let order = canonical_order(q.graph(), mode).expect("quotients are prime");
                    assert_eq!(order, identity, "{family:?} n={n} {mode:?}");
                    assert_eq!(q.encoding(), canonical_encoding(q.graph(), mode).unwrap());
                    checked += 1;
                    nontrivial += usize::from(!q.is_trivial());
                }
            }
        }
    }
    assert!(checked >= 14 * 37 * 2, "only {checked} quotients checked");
    assert!(nontrivial >= 1000, "only {nontrivial} non-trivial quotients");
}
