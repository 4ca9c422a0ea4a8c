//! Canonical successful-assignment search (paper, Section 2.2).
//!
//! All nodes must select the **same** simulation of `A_R` on the quotient
//! `J`. The paper achieves this by totally ordering bit assignments
//! (length first, then lexicographically in the canonical node order) and
//! picking the minimal successful one. [`SearchStrategy::Exhaustive`]
//! implements exactly that; [`SearchStrategy::Seeded`] is an
//! engineering-grade alternative that replays deterministic pseudorandom
//! tapes derived from the quotient's canonical encoding — still a
//! function of the view alone, hence still agreed upon by all nodes, but
//! scaling to quotients far beyond the exhaustive search's reach. (Its
//! caveat: a Las-Vegas guarantee quantifies over random tapes, and a fixed
//! pseudorandom family could in principle miss every terminating tape; in
//! practice the first seed almost always succeeds.)

use anonet_graph::{BitString, Label, LabeledGraph, NodeId};
use anonet_runtime::{
    run, Algorithm, BitAssignment, ExecConfig, Execution, Oblivious, ObliviousAlgorithm,
    RandomSource, Status, TapeSource,
};

use crate::error::CoreError;
use crate::Result;

/// How to pick the canonical successful simulation on the quotient.
#[derive(Clone, Copy, Debug)]
pub enum SearchStrategy {
    /// The paper's rule: the minimal successful assignment under the
    /// canonical total order — iterative deepening over the uniform tape
    /// length `t`, enumerating all `2^(|V_*|·t)` assignments per level.
    /// Fails with [`CoreError::SearchBudgetExceeded`] once `|V_*|·t`
    /// exceeds `max_total_bits`.
    Exhaustive {
        /// Budget on `|V_*| · t` (enumeration is `2^this`); ~24 is sane.
        max_total_bits: usize,
    },
    /// Deterministic seeded replay: for `seed = 0, 1, …` derive per-node
    /// tapes from a hash of `(quotient encoding, seed, canonical node
    /// position, round)` and accept the first seed whose execution
    /// completes successfully within the round cap.
    Seeded {
        /// Number of seeds to try before giving up.
        max_attempts: usize,
    },
}

impl Default for SearchStrategy {
    fn default() -> Self {
        SearchStrategy::Seeded { max_attempts: 64 }
    }
}

/// A successful canonical simulation on the quotient.
#[derive(Debug)]
pub struct CanonicalSimulation<A: Algorithm> {
    /// The execution (successful: every quotient node produced an output).
    pub execution: Execution<A>,
    /// The bit assignment that induced it (reconstructed tapes for the
    /// seeded strategy).
    pub assignment: BitAssignment,
    /// How many simulations were attempted before this one succeeded.
    pub attempts: usize,
}

/// Finds the canonical successful simulation of `alg` on the quotient
/// instance `j`, whose numbering is the canonical node order (as
/// `anonet_views::quotient` builds it).
///
/// # Errors
///
/// Budget errors per strategy; runtime errors from simulations.
pub fn canonical_successful_simulation<A>(
    alg: &A,
    j: &LabeledGraph<A::Input>,
    strategy: SearchStrategy,
    config: &ExecConfig,
) -> Result<CanonicalSimulation<Oblivious<A>>>
where
    A: ObliviousAlgorithm + Clone,
    A::Input: Label,
{
    let wrapped = Oblivious(alg.clone());
    match strategy {
        SearchStrategy::Exhaustive { max_total_bits } => {
            exhaustive(&wrapped, j, max_total_bits, config)
        }
        SearchStrategy::Seeded { max_attempts } => seeded(&wrapped, j, max_attempts, config),
    }
}

fn exhaustive<A>(
    alg: &A,
    j: &LabeledGraph<A::Input>,
    max_total_bits: usize,
    config: &ExecConfig,
) -> Result<CanonicalSimulation<A>>
where
    A: Algorithm,
    A::Input: Label,
{
    let n = j.node_count();
    let mut attempts = 0usize;
    for t in 1.. {
        if n * t > max_total_bits {
            return Err(CoreError::SearchBudgetExceeded { quotient_nodes: n, max_total_bits });
        }
        // All assignments of uniform length t, in canonical order.
        for assignment in BitAssignment::empty(n).extensions(t) {
            attempts += 1;
            let mut src = TapeSource::new(assignment.clone());
            let exec = run(alg, j, &mut src, config)?;
            if exec.is_successful() {
                return Ok(CanonicalSimulation { execution: exec, assignment, attempts });
            }
        }
    }
    unreachable!("the loop over t only exits via return")
}

/// Deterministic bit source keyed on `(key, canonical position, round)`,
/// SplitMix64-based, where node `i` is at canonical position `i`. Never
/// exhausts.
#[derive(Clone, Debug)]
pub struct KeyedSource {
    key: u64,
}

impl KeyedSource {
    /// Creates a source for the given key.
    pub fn new(key: u64) -> Self {
        KeyedSource { key }
    }
}

impl RandomSource for KeyedSource {
    fn bit(&mut self, node: NodeId, round: usize) -> Option<bool> {
        let pos = node.index() as u64;
        Some(splitmix(self.key ^ pos.wrapping_mul(0x9E3779B97F4A7C15) ^ (round as u64)) & 1 == 1)
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

fn seeded<A>(
    alg: &A,
    j: &LabeledGraph<A::Input>,
    max_attempts: usize,
    config: &ExecConfig,
) -> Result<CanonicalSimulation<A>>
where
    A: Algorithm,
    A::Input: Label,
{
    // The seed family is a function of the quotient: FNV-1a of its
    // canonical encoding s(J), hashed sparsely (no n² matrix).
    let base = anonet_graph::canonical::encoding_fnv1a(j);
    for attempt in 0..max_attempts {
        let key = splitmix(base ^ (attempt as u64).wrapping_mul(0xD1B54A32D192ED03));
        let mut src = KeyedSource::new(key);
        let exec = run(alg, j, &mut src, config)?;
        if exec.status() == Status::Completed && exec.is_successful() {
            // Reconstruct the tapes actually consumed (per node: one bit
            // per active round until it halted).
            let mut replay = KeyedSource::new(key);
            let tapes: Vec<BitString> = j
                .graph()
                .nodes()
                .map(|v| {
                    let rounds = exec.halt_rounds()[v.index()].unwrap_or(exec.rounds());
                    (1..=rounds)
                        .map(|r| replay.bit(v, r).expect("keyed source never exhausts"))
                        .collect()
                })
                .collect();
            return Ok(CanonicalSimulation {
                execution: exec,
                assignment: BitAssignment::new(tapes),
                attempts: attempt + 1,
            });
        }
    }
    Err(CoreError::SeedsExhausted { attempts: max_attempts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_algorithms::mis::RandomizedMis;
    use anonet_graph::generators;
    use anonet_views::{quotient, ViewMode};

    fn c3_instance() -> LabeledGraph<()> {
        // A prime 3-cycle as "quotient": canonically numbered by the
        // colored version, simulated on unit inputs (exactly what the
        // derandomizer does).
        let colored = generators::cycle(3).unwrap().with_labels(vec![1u32, 2, 3]).unwrap();
        quotient(&colored, ViewMode::Portless).unwrap().graph().map_labels(|_| ())
    }

    #[test]
    fn exhaustive_finds_minimal_mis_assignment() {
        let j = c3_instance();
        let sim = canonical_successful_simulation(
            &RandomizedMis::new(),
            &j,
            SearchStrategy::Exhaustive { max_total_bits: 24 },
            &ExecConfig::default(),
        )
        .unwrap();
        assert!(sim.execution.is_successful());
        // The outputs form a valid MIS of C3: exactly one member.
        let outs = sim.execution.outputs_unwrapped();
        assert_eq!(outs.iter().filter(|&&b| b).count(), 1);
        // Minimality: no shorter uniform length can succeed (MIS needs at
        // least one full 3-round iteration → t >= 3).
        assert!(sim.assignment.simulation_length() >= 3);
    }

    #[test]
    fn exhaustive_is_deterministic() {
        let j = c3_instance();
        let strategy = SearchStrategy::Exhaustive { max_total_bits: 24 };
        let a = canonical_successful_simulation(
            &RandomizedMis::new(),
            &j,
            strategy,
            &ExecConfig::default(),
        )
        .unwrap();
        let b = canonical_successful_simulation(
            &RandomizedMis::new(),
            &j,
            strategy,
            &ExecConfig::default(),
        )
        .unwrap();
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.execution.outputs(), b.execution.outputs());
        assert_eq!(a.attempts, b.attempts);
    }

    #[test]
    fn exhaustive_respects_budget() {
        let j = c3_instance();
        let err = canonical_successful_simulation(
            &RandomizedMis::new(),
            &j,
            SearchStrategy::Exhaustive { max_total_bits: 5 }, // < 3 nodes × 3 rounds
            &ExecConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::SearchBudgetExceeded { .. }));
    }

    #[test]
    fn seeded_succeeds_and_is_deterministic() {
        let j = c3_instance();
        let strategy = SearchStrategy::Seeded { max_attempts: 64 };
        let a = canonical_successful_simulation(
            &RandomizedMis::new(),
            &j,
            strategy,
            &ExecConfig::default(),
        )
        .unwrap();
        let b = canonical_successful_simulation(
            &RandomizedMis::new(),
            &j,
            strategy,
            &ExecConfig::default(),
        )
        .unwrap();
        assert_eq!(a.execution.outputs(), b.execution.outputs());
        assert_eq!(a.attempts, b.attempts);
        // Replayed tapes really induce the same successful execution.
        let mut src = TapeSource::new(a.assignment.clone());
        let replay =
            run(&Oblivious(RandomizedMis::new()), &j, &mut src, &ExecConfig::default()).unwrap();
        assert_eq!(replay.outputs(), a.execution.outputs());
    }

    #[test]
    fn keyed_source_is_a_pure_function() {
        let mut a = KeyedSource::new(7);
        let mut b = KeyedSource::new(7);
        for r in 1..50 {
            for v in 0..4 {
                assert_eq!(a.bit(NodeId::new(v), r), b.bit(NodeId::new(v), r));
            }
        }
        // Different keys give different streams somewhere.
        let mut c = KeyedSource::new(8);
        let differs = (1..200).any(|r| c.bit(NodeId::new(0), r) != b.bit(NodeId::new(0), r));
        assert!(differs);
    }
}
