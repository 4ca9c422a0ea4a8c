//! Leader election and the prime / non-prime dichotomy.
//!
//! Leader election is the canonical problem **outside** GRAN: Angluin's
//! lifting argument (paper, Sections 1 and 1.3) shows no Las-Vegas
//! anonymous algorithm can elect a leader on all graphs, because on a
//! non-trivial product two nodes of the same fiber behave identically in
//! some execution. With a 2-hop coloring the situation splits cleanly:
//!
//! * if the colored graph is **prime** (all views distinct, Lemma 4),
//!   every node can deterministically identify itself within the common
//!   canonical view order — the unique minimum becomes the leader;
//! * if it is **not prime**, two nodes share all views and *no* anonymous
//!   algorithm, randomized or not, can separate them — ever. Leader
//!   election on that instance is impossible, and this module returns the
//!   duplicate-view witness instead of an answer.
//!
//! [`elect_leader`] is the simulator-side ("white-box") formulation: it
//! computes, for each node, a value that is a function of that node's view
//! only — exactly what the paper's machinery guarantees a deterministic
//! anonymous algorithm can compute (Theorem 1 makes the message-level
//! realization explicit; `anonet-core` implements it). The companion
//! experiment E11 exercises the dichotomy.

use anonet_graph::{Label, LabeledGraph, NodeId};
use anonet_views::{canonical_order, quotient, ViewMode};

use crate::error::AlgorithmError;
use crate::Result;

/// The outcome of leader election on a labeled graph.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LeaderOutcome {
    /// The elected leader.
    pub leader: NodeId,
    /// Per-node outputs (`true` iff leader) — what each node would emit.
    pub outputs: Vec<bool>,
}

/// Elects a leader on a prime labeled graph: the minimum of the canonical
/// view order. Every node can compute "am I the minimum view?" from its
/// own view alone, so this is anonymous-computable.
///
/// # Errors
///
/// [`AlgorithmError::NotPrime`] with a duplicate-view witness when two
/// nodes share a view (election impossible on this instance), or a views
/// error if the graph's quotient is degenerate.
pub fn elect_leader<L: Label>(g: &LabeledGraph<L>) -> Result<LeaderOutcome> {
    match canonical_order(g, ViewMode::Portless) {
        Ok(order) => {
            let leader = order[0];
            let mut outputs = vec![false; g.node_count()];
            // anonet-lint: allow(anonymity, reason = "global-observer convenience API; the node-local algorithm is the oblivious simulation above")
            outputs[leader.index()] = true;
            Ok(LeaderOutcome { leader, outputs })
        }
        Err(anonet_views::ViewError::NotDiscrete { .. }) => {
            let witness = duplicate_views(g)?;
            Err(AlgorithmError::NotPrime { duplicate_views: witness })
        }
        Err(e) => Err(e.into()),
    }
}

/// Finds two distinct nodes with identical depth-∞ views, certifying that
/// leader election (and ID assignment) is impossible on this instance.
///
/// # Errors
///
/// Returns [`AlgorithmError::NotPrime`]'s *absence*: if the graph is
/// actually prime this returns a views error... it does not; it returns
/// `Ok` only when a duplicate exists, and an internal invariant violation
/// otherwise — callers reach this only after observing non-discreteness.
fn duplicate_views<L: Label>(g: &LabeledGraph<L>) -> Result<(usize, usize)> {
    let r = anonet_views::Refinement::compute(g, ViewMode::Portless);
    let classes = r.classes();
    for u in 0..classes.len() {
        for v in (u + 1)..classes.len() {
            if classes[u] == classes[v] {
                return Ok((u, v));
            }
        }
    }
    unreachable!("caller observed a non-discrete refinement");
}

/// `true` iff leader election is solvable on this labeled instance, i.e.
/// the graph is prime. (On 2-hop colored instances this is decidable by a
/// deterministic anonymous algorithm; on arbitrary instances it is the
/// GRAN-excluded case.)
pub fn leader_election_solvable<L: Label>(g: &LabeledGraph<L>) -> bool {
    quotient(g, ViewMode::Portless).map(|q| q.is_trivial()).unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_graph::generators;

    #[test]
    fn elects_on_prime_graphs() {
        // All-distinct colors ⇒ prime.
        let g = generators::cycle(5).unwrap().with_labels((0..5u32).collect()).unwrap();
        let outcome = elect_leader(&g).unwrap();
        assert_eq!(outcome.outputs.iter().filter(|&&b| b).count(), 1);
        assert!(outcome.outputs[outcome.leader.index()]);
        assert!(leader_election_solvable(&g));
    }

    #[test]
    fn leader_is_presentation_invariant() {
        // Rotating the presentation must elect the "same" node (same label,
        // since labels here are unique).
        let a = generators::cycle(4).unwrap().with_labels(vec![10u32, 20, 30, 40]).unwrap();
        let b = generators::cycle(4).unwrap().with_labels(vec![30u32, 40, 10, 20]).unwrap();
        let la = *a.label(elect_leader(&a).unwrap().leader);
        let lb = *b.label(elect_leader(&b).unwrap().leader);
        assert_eq!(la, lb);
    }

    #[test]
    fn fails_with_witness_on_products() {
        // Colored C6 = product of C3: fibers share views.
        let g = generators::cycle(6).unwrap().with_labels(vec![1u32, 2, 3, 1, 2, 3]).unwrap();
        let err = elect_leader(&g).unwrap_err();
        let AlgorithmError::NotPrime { duplicate_views: (u, v) } = err else {
            panic!("expected NotPrime, got {err:?}");
        };
        // The witness pair really does share a color (views agree ⇒ labels agree).
        assert_eq!(g.label(NodeId::new(u)), g.label(NodeId::new(v)));
        assert!(!leader_election_solvable(&g));
    }

    #[test]
    fn uniform_graphs_are_hopeless() {
        let g = generators::cycle(4).unwrap().with_uniform_label(0u8);
        assert!(!leader_election_solvable(&g));
    }

    #[test]
    fn prime_but_colorful_graphs_work_even_with_repeated_labels() {
        // P5 colored 1,2,3,1,2 is prime (ends break symmetry) though
        // colors repeat.
        let g = generators::path(5).unwrap().with_labels(vec![1u32, 2, 3, 1, 2]).unwrap();
        let outcome = elect_leader(&g).unwrap();
        assert_eq!(outcome.outputs.iter().filter(|&&b| b).count(), 1);
    }
}
