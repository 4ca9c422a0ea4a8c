//! `A_*` — the paper's Figure 3, faithfully.
//!
//! The deterministic algorithm proving Theorem 1 proceeds in phases
//! `p = 1, 2, …`; in phase `p` every node `v` independently runs:
//!
//! * **Update-Graph** — gather `L_p(v, I^p)` (the depth-`p` view of the
//!   instance augmented with the evolving bitstring labels `b^p`), build
//!   the set `𝓕` of *candidates* (graphs with ≤ `p` nodes, a matching
//!   view, and a legal `Π^c` part — see [`crate::candidates`] for why the
//!   enumeration over view labels is complete), and select the smallest
//!   finite view graph `Ĝ_*` under the `(|V̂_*|, s(Ĝ_*))` order;
//! * **Update-Output** — simulate `A_R` on `(V̂_*, Ê_*, î_*)` with the
//!   tapes `b̂_*`; on success adopt `v̊`'s output;
//! * **Update-Bits** — find the lexicographically smallest `p`-extension
//!   of `b̂_*` inducing a successful simulation and extend `b(v)`
//!   accordingly.
//!
//! Phase `p` of the real message-passing algorithm costs `p` rounds of
//! communication (gathering the view); this driver computes each node's
//! phase from its explicit [`ViewTree`] — every quantity is a function of
//! the view, which is the model-theoretic requirement — and reports the
//! equivalent round count.
//!
//! ## Engines
//!
//! Two engines compute the *same function*, each taking one
//! [`AStarConfig`] (budgets, simulation config, and recorder):
//!
//! * [`run_astar`] — the **fast path** (default): `Update-Graph` runs
//!   against the [`crate::astar_cache`] memo — candidate pools built once
//!   per `(p_capped, universe)`, the C2 scan replaced by one hash lookup
//!   against a per-depth selection index, and balls-by-radius hoisted out
//!   of the node loop;
//! * [`run_astar_reference`] — the literal per-node enumeration, kept as
//!   the semantic baseline. The testkit's differential oracle pins
//!   `fast ≡ reference` byte-for-byte (outputs, output phases, final bits,
//!   phase counts) across problem families and adversarial schedules.
//!
//! Both engines walk the nodes of a phase sequentially. The instances on
//! which the enumeration is feasible are a few dozen nodes, and there a
//! thread fan-out of the node loop costs more than it saves (E17).
//!
//! On *successful* runs the engines agree exactly. On runs that abort with
//! a budget or view error the fast path may surface a different (equally
//! legitimate) error than the reference: it prepares pools for the whole
//! phase before building any node view, while the reference interleaves
//! the two per node — the reference is authoritative for error-order
//! fidelity. The candidate enumeration is doubly exponential by design (it
//! is in the paper, too); even the fast path is meant for the small
//! instances of experiments E3/E9/E17, with the engineering-grade path
//! provided by [`crate::derandomizer`].

use anonet_graph::{distance, BitString, Label, LabeledGraph, NodeId};
use anonet_obs::{names, noop, Recorder, SharedRecorder, Span};
use anonet_runtime::{
    run, BitAssignment, ExecConfig, Oblivious, ObliviousAlgorithm, Problem, TapeSource,
};
use anonet_views::{
    canonical_view_encoding, quotient, update_graph_cmp, ViewMode, ViewQuotient, ViewTree,
};

use crate::astar_cache::{AstarCache, CandidateLabel, PoolKey};
use crate::candidates::candidate_pool;
use crate::error::CoreError;
use crate::Result;

/// Budgets and knobs for [`run_astar`].
#[derive(Clone, Debug)]
pub struct AStarConfig {
    /// Hard cap on phases (the paper's `z + 1` must fall below it).
    pub max_phases: usize,
    /// Cap on candidate node counts (the paper's C1 allows up to `p`;
    /// enumeration beyond 4–5 nodes is infeasible). Must be at least the
    /// instance's quotient size for convergence.
    pub max_candidate_nodes: usize,
    /// Cap on total extension bits searched per `Update-Bits` call.
    pub max_extension_bits: usize,
    /// Execution config for the quotient simulations.
    pub sim_config: ExecConfig,
    /// Observability sink. Each per-node phase step reports
    /// `update_graph` / `update_output` / `update_bits` spans nested under
    /// an `astar` parent; the fast path's memo also reports
    /// `astar.pool.{hit,miss}` and the C2 lookup counters. The default
    /// no-op recorder changes nothing.
    pub recorder: SharedRecorder,
}

impl Default for AStarConfig {
    fn default() -> Self {
        AStarConfig {
            max_phases: 12,
            max_candidate_nodes: 4,
            max_extension_bits: 18,
            sim_config: ExecConfig::default(),
            recorder: noop(),
        }
    }
}

/// The outcome of running `A_*`.
#[derive(Clone, Debug)]
pub struct AStarRun<O> {
    /// Per-node outputs.
    pub outputs: Vec<O>,
    /// The phase in which the last node output (the paper's `z + 1`).
    pub phases_used: usize,
    /// Communication rounds of the message-level realization
    /// (`Σ_{p=1..phases} p`).
    pub equivalent_rounds: usize,
    /// Phase in which each node first output.
    pub output_phase: Vec<usize>,
    /// Final bitstring labels `b`.
    pub final_bits: Vec<BitString>,
}

/// Runs the faithful `A_*` for problem `problem`, randomized solver
/// `alg`, on the 2-hop colored instance `instance` (labels `(input,
/// color)`) — fast path, single-threaded, observed by `cfg.recorder`.
///
/// # Errors
///
/// Budget errors ([`CoreError::PhaseBudgetExceeded`],
/// [`CoreError::EnumerationTooLarge`],
/// [`CoreError::SearchBudgetExceeded`]); view errors for oversized
/// explicit views; [`CoreError::InconsistentOutput`] if two phases
/// disagree on a node's output (impossible per Lemma 9 — a bug trap).
pub fn run_astar<A, P, C>(
    alg: &A,
    problem: &P,
    instance: &LabeledGraph<(A::Input, C)>,
    cfg: &AStarConfig,
) -> Result<AStarRun<A::Output>>
where
    A: ObliviousAlgorithm + Clone,
    A::Input: Label,
    P: Problem<Input = A::Input>,
    C: Label,
{
    let rec: &dyn Recorder = &*cfg.recorder;
    let _astar_span = Span::new(rec, names::SPAN_ASTAR);
    let g = instance.graph();
    let n = g.node_count();
    let mut state = AStarState::new(n);
    let mut cache: AstarCache<A::Input, C> = AstarCache::new();

    for p in 1..=cfg.max_phases {
        state.equivalent_rounds += p;
        let ip = augment(instance, &state.bits)?;
        let keys = prepare_phase(&mut cache, problem, &ip, p, cfg)?;
        let results: Vec<Result<NodeOutcome<A::Output>>> = g
            .nodes()
            .map(|v| astar_node_step(alg, &ip, v, p, keys[v.index()], &cache, cfg))
            .collect();
        if let Some(done) = state.commit_phase(results, p)? {
            return Ok(done);
        }
    }
    Err(CoreError::PhaseBudgetExceeded { phases: cfg.max_phases })
}

/// `I^p`: the instance augmented with the current bitstring labels.
fn augment<I: Label, C: Label>(
    instance: &LabeledGraph<(I, C)>,
    bits: &[BitString],
) -> Result<LabeledGraph<CandidateLabel<I, C>>> {
    let g = instance.graph();
    let full_labels: Vec<CandidateLabel<I, C>> =
        g.nodes().map(|v| (instance.label(v).clone(), bits[v.index()].clone())).collect();
    Ok(g.with_labels(full_labels)?)
}

/// Phase-`p` setup against the memo: per-node universes (cached balls at
/// radius `p - 1`), then one [`AstarCache::ensure_pool`] per node — a hash
/// lookup for every node after the first in its universe class.
fn prepare_phase<I, C, P>(
    cache: &mut AstarCache<I, C>,
    problem: &P,
    ip: &LabeledGraph<CandidateLabel<I, C>>,
    p: usize,
    cfg: &AStarConfig,
) -> Result<Vec<PoolKey>>
where
    I: Label,
    C: Label,
    P: Problem<Input = I>,
{
    let universes = cache.phase_universes(ip, p - 1);
    let p_capped = p.min(cfg.max_candidate_nodes);
    universes.iter().map(|u| cache.ensure_pool(problem, p_capped, p, u, &*cfg.recorder)).collect()
}

/// What one node's phase step produced: its adopted output (if the
/// simulation succeeded) and its extended bitstring (if an extension
/// succeeded). Phase outcomes are computed for every node against the
/// same phase state and only then committed, so no node sees another's
/// phase-`p` result.
struct NodeOutcome<O> {
    output: Option<O>,
    new_bits: Option<BitString>,
}

/// One node's phase `p`: C2 lookup against the pool's selection index
/// (`Update-Graph`), quotient simulation (`Update-Output`), minimal tape
/// extension (`Update-Bits`). Reads shared phase state only.
fn astar_node_step<A, C>(
    alg: &A,
    ip: &LabeledGraph<CandidateLabel<A::Input, C>>,
    v: NodeId,
    p: usize,
    key: PoolKey,
    cache: &AstarCache<A::Input, C>,
    cfg: &AStarConfig,
) -> Result<NodeOutcome<A::Output>>
where
    A: ObliviousAlgorithm + Clone,
    A::Input: Label,
    C: Label,
{
    let rec: &dyn Recorder = &*cfg.recorder;
    let update_graph_span = Span::new(rec, names::SPAN_UPDATE_GRAPH);
    // Arena-backed build: byte-identical to `ViewTree::build(..)?.
    // canonical_encoding()` (pinned by the views tests and the testkit
    // oracle), allocation-free after the per-thread arena warms up.
    let view_v = canonical_view_encoding(ip, v, p)?;
    if rec.is_enabled() {
        rec.counter(names::ASTAR_C2_LOOKUPS, 1);
    }
    let selected = cache.select(key, p, &view_v);
    drop(update_graph_span);
    let Some((q, v_star)) = selected else {
        return Ok(NodeOutcome { output: None, new_bits: None }); // skip phase p at v
    };
    if rec.is_enabled() {
        rec.counter(names::ASTAR_C2_HITS, 1);
    }

    let j = q.graph().map_labels(|((i, _c), _b)| i.clone());
    let tapes: Vec<BitString> = q.graph().labels().iter().map(|(_ic, b)| b.clone()).collect();
    let assignment = BitAssignment::new(tapes);

    // Update-Output: simulate with the candidate's tapes.
    let update_output_span = Span::new(rec, names::SPAN_UPDATE_OUTPUT);
    let mut src = TapeSource::new(assignment.clone());
    let exec = run(&Oblivious(alg.clone()), &j, &mut src, &cfg.sim_config)?;
    let output = if exec.is_successful() {
        let out = exec
            .output(v_star)
            .ok_or_else(|| CoreError::internal("successful simulations output everywhere"))?;
        Some(out.clone())
    } else {
        None
    };
    drop(update_output_span);

    // Update-Bits: smallest p-extension inducing success.
    let update_bits_span = Span::new(rec, names::SPAN_UPDATE_BITS);
    let new_bits = match smallest_successful_extension(alg, &j, &assignment, p, cfg)? {
        Some(b_min) => {
            let tape = b_min
                .tape(v_star)
                .ok_or_else(|| CoreError::internal("extension covers the quotient"))?;
            Some(tape.clone())
        }
        None => None,
    };
    drop(update_bits_span);

    Ok(NodeOutcome { output, new_bits })
}

/// Mutable run state of the fast engine; a phase's node outcomes are
/// committed together, in node order, after all of them are computed.
struct AStarState<O> {
    bits: Vec<BitString>,
    outputs: Vec<Option<O>>,
    output_phase: Vec<usize>,
    equivalent_rounds: usize,
}

impl<O: Clone + PartialEq> AStarState<O> {
    fn new(n: usize) -> Self {
        AStarState {
            bits: vec![BitString::new(); n],
            outputs: vec![None; n],
            output_phase: vec![0; n],
            equivalent_rounds: 0,
        }
    }

    /// Applies one phase's node outcomes in node order — adopt outputs
    /// (trapping Lemma-9 inconsistencies), extend bitstrings — and
    /// returns the finished run once every node has output.
    fn commit_phase(
        &mut self,
        results: Vec<Result<NodeOutcome<O>>>,
        p: usize,
    ) -> Result<Option<AStarRun<O>>> {
        let mut new_bits = self.bits.clone();
        for (v, result) in results.into_iter().enumerate() {
            let outcome = result?;
            if let Some(out) = outcome.output {
                match &self.outputs[v] {
                    Some(existing) if *existing != out => {
                        return Err(CoreError::InconsistentOutput { node: v, phase: p });
                    }
                    Some(_) => {}
                    None => {
                        self.outputs[v] = Some(out);
                        self.output_phase[v] = p;
                    }
                }
            }
            if let Some(b) = outcome.new_bits {
                new_bits[v] = b;
            }
        }
        self.bits = new_bits;

        if self.outputs.iter().all(Option::is_some) {
            let outputs = std::mem::take(&mut self.outputs)
                .into_iter()
                .map(|o| o.ok_or_else(|| CoreError::internal("all outputs checked present")))
                .collect::<Result<Vec<O>>>()?;
            return Ok(Some(AStarRun {
                outputs,
                phases_used: p,
                equivalent_rounds: self.equivalent_rounds,
                output_phase: std::mem::take(&mut self.output_phase),
                final_bits: std::mem::take(&mut self.bits),
            }));
        }
        Ok(None)
    }
}

/// The literal Figure-3 realization: per node per phase, rebuild the
/// candidate pool and scan it for the minimal matching candidate. Kept as
/// the semantic baseline for [`run_astar`]'s memoized engine — the
/// `astar-fast-vs-reference` differential oracle compares the two
/// byte-for-byte. Reports the same spans as [`run_astar`], without the
/// memo counters.
///
/// # Errors
///
/// See [`run_astar`]; on aborting runs this path's error order is the
/// authoritative one.
pub fn run_astar_reference<A, P, C>(
    alg: &A,
    problem: &P,
    instance: &LabeledGraph<(A::Input, C)>,
    cfg: &AStarConfig,
) -> Result<AStarRun<A::Output>>
where
    A: ObliviousAlgorithm + Clone,
    A::Input: Label,
    P: Problem<Input = A::Input>,
    C: Label,
{
    let rec: &dyn Recorder = &*cfg.recorder;
    let _astar_span = Span::new(rec, names::SPAN_ASTAR);
    let g = instance.graph();
    let n = g.node_count();
    let mut bits: Vec<BitString> = vec![BitString::new(); n];
    let mut outputs: Vec<Option<A::Output>> = vec![None; n];
    let mut output_phase: Vec<usize> = vec![0; n];
    let mut equivalent_rounds = 0usize;

    for p in 1..=cfg.max_phases {
        equivalent_rounds += p;
        let ip = augment(instance, &bits)?;

        // Candidate views are per-candidate, shared across nodes; node
        // views are per-node. Both depend on the phase only.
        let mut new_bits = bits.clone();
        for v in g.nodes() {
            let update_graph_span = Span::new(rec, names::SPAN_UPDATE_GRAPH);
            let view_v = ViewTree::build(&ip, v, p)?.canonical_encoding();

            // The label universe: marks occurring in L_p(v, I^p), i.e.
            // labels within p-1 hops (complete for candidates ≤ p nodes).
            let mut universe: Vec<CandidateLabel<A::Input, C>> =
                distance::ball(g, v, p - 1).into_iter().map(|u| ip.label(u).clone()).collect();
            universe.sort();
            universe.dedup();

            // Update-Graph: scan the pool for candidates, select the
            // minimal finite view graph.
            let pool = candidate_pool(p.min(cfg.max_candidate_nodes), &universe)?;
            // The selected candidate's finite view graph and v's node in it.
            type Selected<I, C> = (ViewQuotient<CandidateLabel<I, C>>, NodeId);
            let mut selected: Option<Selected<A::Input, C>> = None;
            for cand in &pool {
                // C2: a node with the same depth-p view.
                let mut v_hat = None;
                for u in cand.graph().nodes() {
                    let enc = ViewTree::build(cand, u, p)?.canonical_encoding();
                    if enc == view_v {
                        v_hat = Some(u);
                        break;
                    }
                }
                let Some(v_hat) = v_hat else { continue };
                // C3: the (î, ĉ) part is an instance of Π^c.
                let inputs_only = cand.map_labels(|((i, _c), _b)| i.clone());
                if !problem.is_instance(&inputs_only) {
                    continue;
                }
                let colors_only = cand.map_labels(|((_i, c), _b)| c.clone());
                if !anonet_graph::coloring::is_two_hop_coloring(&colors_only) {
                    continue;
                }
                // Finite view graph of the candidate.
                let Ok(q) = quotient(cand, ViewMode::Portless) else { continue };
                let better = match &selected {
                    None => true,
                    Some((best, _)) => {
                        update_graph_cmp(q.graph(), best.graph(), ViewMode::Portless)?
                            == std::cmp::Ordering::Less
                    }
                };
                if better {
                    let v_star = q.project(v_hat);
                    selected = Some((q, v_star));
                }
            }
            drop(update_graph_span);
            let Some((q, v_star)) = selected else { continue }; // skip phase p at v

            let j = q.graph().map_labels(|((i, _c), _b)| i.clone());
            let tapes: Vec<BitString> =
                q.graph().labels().iter().map(|(_ic, b)| b.clone()).collect();
            let assignment = BitAssignment::new(tapes);

            // Update-Output: simulate with the candidate's tapes.
            let update_output_span = Span::new(rec, names::SPAN_UPDATE_OUTPUT);
            let mut src = TapeSource::new(assignment.clone());
            let exec = run(&Oblivious(alg.clone()), &j, &mut src, &cfg.sim_config)?;
            if exec.is_successful() {
                // anonet-lint: allow(panic-hygiene, reason = "reference engine kept literal to Figure 3; conformance oracles diff it against the fast engine")
                let out = exec.output(v_star).expect("successful simulations output everywhere");
                match &outputs[v.index()] {
                    Some(existing) if existing != out => {
                        return Err(CoreError::InconsistentOutput { node: v.index(), phase: p });
                    }
                    Some(_) => {}
                    None => {
                        outputs[v.index()] = Some(out.clone());
                        output_phase[v.index()] = p;
                    }
                }
            }
            drop(update_output_span);

            // Update-Bits: smallest p-extension inducing success.
            let update_bits_span = Span::new(rec, names::SPAN_UPDATE_BITS);
            if let Some(b_min) = smallest_successful_extension(alg, &j, &assignment, p, cfg)? {
                new_bits[v.index()] =
                    // anonet-lint: allow(panic-hygiene, reason = "reference engine kept literal to Figure 3; conformance oracles diff it against the fast engine")
                    b_min.tape(v_star).expect("extension covers the quotient").clone();
            }
            drop(update_bits_span);
        }
        bits = new_bits;

        if outputs.iter().all(Option::is_some) {
            return Ok(AStarRun {
                // anonet-lint: allow(panic-hygiene, reason = "reference engine kept literal to Figure 3; conformance oracles diff it against the fast engine")
                outputs: outputs.into_iter().map(|o| o.expect("just checked")).collect(),
                phases_used: p,
                equivalent_rounds,
                output_phase,
                final_bits: bits,
            });
        }
    }
    Err(CoreError::PhaseBudgetExceeded { phases: cfg.max_phases })
}

/// Enumerates the extensions of `base` in which every tape reaches length
/// exactly `target` (the paper's *p-extensions*), in the canonical
/// assignment order, returning the first that induces a successful
/// simulation. `j` is a quotient, so node `i` is at canonical position `i`.
fn smallest_successful_extension<A>(
    alg: &A,
    j: &LabeledGraph<A::Input>,
    base: &BitAssignment,
    target: usize,
    cfg: &AStarConfig,
) -> Result<Option<BitAssignment>>
where
    A: ObliviousAlgorithm + Clone,
    A::Input: Label,
{
    let extras: Vec<usize> =
        base.tapes().iter().map(|tape| target.saturating_sub(tape.len())).collect();
    let total: usize = extras.iter().sum();
    if total > cfg.max_extension_bits {
        return Err(CoreError::SearchBudgetExceeded {
            quotient_nodes: j.node_count(),
            max_total_bits: cfg.max_extension_bits,
        });
    }
    for code in 0u64..(1u64 << total) {
        let mut tapes = base.tapes().to_vec();
        let mut shift = total;
        for (tape, &extra) in tapes.iter_mut().zip(&extras) {
            for _ in 0..extra {
                shift -= 1;
                tape.push((code >> shift) & 1 == 1);
            }
        }
        let assignment = BitAssignment::new(tapes);
        let mut src = TapeSource::new(assignment.clone());
        let exec = run(&Oblivious(alg.clone()), j, &mut src, &cfg.sim_config)?;
        if exec.is_successful() {
            return Ok(Some(assignment));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_algorithms::mis::RandomizedMis;
    use anonet_algorithms::problems::MisProblem;
    use anonet_graph::generators;

    fn triangle_instance() -> LabeledGraph<((), u32)> {
        generators::cycle(3).unwrap().with_labels(vec![((), 1u32), ((), 2), ((), 3)]).unwrap()
    }

    fn assert_runs_identical<O: PartialEq + std::fmt::Debug>(a: &AStarRun<O>, b: &AStarRun<O>) {
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.phases_used, b.phases_used);
        assert_eq!(a.equivalent_rounds, b.equivalent_rounds);
        assert_eq!(a.output_phase, b.output_phase);
        assert_eq!(a.final_bits, b.final_bits);
    }

    #[test]
    fn astar_solves_mis_on_the_colored_triangle() {
        let inst = triangle_instance();
        let run =
            run_astar(&RandomizedMis::new(), &MisProblem, &inst, &AStarConfig::default()).unwrap();
        let plain = inst.map_labels(|_| ());
        assert!(MisProblem.is_valid_output(&plain, &run.outputs), "outputs: {:?}", run.outputs);
        assert!(run.phases_used <= 12);
        assert!(run.equivalent_rounds >= run.phases_used);
        // Everyone ends with the same tape length (the converged b').
        let lens: Vec<usize> = run.final_bits.iter().map(BitString::len).collect();
        assert!(lens.iter().all(|&l| l == lens[0] || l + 1 == lens[0] || l == lens[0] + 1));
    }

    #[test]
    fn astar_is_deterministic() {
        let inst = triangle_instance();
        let a =
            run_astar(&RandomizedMis::new(), &MisProblem, &inst, &AStarConfig::default()).unwrap();
        let b =
            run_astar(&RandomizedMis::new(), &MisProblem, &inst, &AStarConfig::default()).unwrap();
        assert_runs_identical(&a, &b);
    }

    #[test]
    fn astar_solves_mis_on_the_colored_path() {
        // P2 with distinct colors: the smallest nontrivial instance.
        let inst = generators::path(2).unwrap().with_labels(vec![((), 1u32), ((), 2)]).unwrap();
        let run =
            run_astar(&RandomizedMis::new(), &MisProblem, &inst, &AStarConfig::default()).unwrap();
        let plain = inst.map_labels(|_| ());
        assert!(MisProblem.is_valid_output(&plain, &run.outputs));
        assert_eq!(run.outputs.iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn astar_handles_a_second_problem_maximal_matching() {
        use anonet_algorithms::matching::{MatchingProblem, RandomizedMatching};
        // P2 colored 10, 20; matching inputs are the colors themselves.
        let inst =
            generators::path(2).unwrap().with_labels(vec![(10u32, 10u32), (20, 20)]).unwrap();
        let run = run_astar(
            &RandomizedMatching::<u32>::new(),
            &MatchingProblem,
            &inst,
            &AStarConfig::default(),
        )
        .unwrap();
        let colors = inst.map_labels(|(i, _)| *i);
        assert!(
            MatchingProblem.is_valid_output(&colors, &run.outputs),
            "outputs: {:?}",
            run.outputs
        );
        // P2's only edge must be matched.
        assert_eq!(run.outputs, vec![Some(20), Some(10)]);
    }

    #[test]
    fn fast_path_matches_the_reference_byte_for_byte() {
        let cfg = AStarConfig::default();
        let inst = triangle_instance();
        let fast = run_astar(&RandomizedMis::new(), &MisProblem, &inst, &cfg).unwrap();
        let reference =
            run_astar_reference(&RandomizedMis::new(), &MisProblem, &inst, &cfg).unwrap();
        assert_runs_identical(&fast, &reference);

        use anonet_algorithms::matching::{MatchingProblem, RandomizedMatching};
        let p2 = generators::path(2).unwrap().with_labels(vec![(10u32, 10u32), (20, 20)]).unwrap();
        let fast = run_astar(&RandomizedMatching::<u32>::new(), &MatchingProblem, &p2, &cfg);
        let reference =
            run_astar_reference(&RandomizedMatching::<u32>::new(), &MatchingProblem, &p2, &cfg);
        assert_runs_identical(&fast.unwrap(), &reference.unwrap());
    }

    #[test]
    fn observed_astar_reports_phase_spans_and_matches_plain() {
        let inst = triangle_instance();
        let rec = std::sync::Arc::new(anonet_obs::MemoryRecorder::new());
        let cfg = AStarConfig { recorder: rec.clone(), ..Default::default() };
        let observed = run_astar(&RandomizedMis::new(), &MisProblem, &inst, &cfg).unwrap();
        let snap = rec.snapshot();
        assert_eq!(snap.span("astar").unwrap().count, 1);
        let ug = snap.span("astar/update_graph").unwrap();
        assert!(ug.count >= 3, "one Update-Graph per node per phase, got {}", ug.count);
        assert!(snap.span("astar/update_output").unwrap().count >= 1);
        assert!(snap.span("astar/update_bits").unwrap().count >= 1);
        // The memo is exercised: the triangle's three nodes share one
        // universe, so all but the first pool request per phase must hit.
        assert!(snap.counter(names::ASTAR_POOL_HIT) > 0, "pool memo never hit");
        assert!(snap.counter(names::ASTAR_POOL_MISS) > 0);
        assert!(snap.counter(names::ASTAR_C2_LOOKUPS) >= snap.counter(names::ASTAR_C2_HITS));
        let plain =
            run_astar(&RandomizedMis::new(), &MisProblem, &inst, &AStarConfig::default()).unwrap();
        assert_eq!(observed.outputs, plain.outputs);
        assert_eq!(observed.final_bits, plain.final_bits);
    }

    #[test]
    fn phase_budget_is_enforced() {
        let inst = triangle_instance();
        let cfg = AStarConfig { max_phases: 2, ..Default::default() };
        let err = run_astar(&RandomizedMis::new(), &MisProblem, &inst, &cfg).unwrap_err();
        assert!(matches!(err, CoreError::PhaseBudgetExceeded { phases: 2 }));
        let err = run_astar_reference(&RandomizedMis::new(), &MisProblem, &inst, &cfg).unwrap_err();
        assert!(matches!(err, CoreError::PhaseBudgetExceeded { phases: 2 }));
    }
}
