//! Batch drivers: many instances through the derandomizer or the full
//! Theorem-1 pipeline, concurrently, with an optional shared
//! [`DerandCache`].
//!
//! This is where the paper's Lemma 3 pays off operationally: every lift of
//! a base graph has the same unique prime factor, so across a sweep of a
//! lift family the quotient-side work — the canonical order and the
//! minimal successful assignment — is computed **once** and replayed
//! everywhere else. The scheduler adds instance-level concurrency on top;
//! rounds within one instance stay strictly sequential (the simulator is
//! single-threaded by design — see DESIGN.md).
//!
//! Results come back in submission order with a [`BatchStats`] report;
//! when a cache is attached, the stats carry the cache-accounting delta
//! for exactly this batch's window.

use std::sync::Arc;
use std::time::Duration;

use anonet_batch::{BatchOutcome, BatchScheduler, DerandCache};
use anonet_graph::{Label, LabeledGraph};
use anonet_runtime::{ExecConfig, ObliviousAlgorithm};

use crate::derandomizer::{DerandomizedRun, Derandomizer};
use crate::pipeline::PipelineRun;
use crate::search::SearchStrategy;
use crate::Result;

/// Derandomizes every 2-hop colored instance in `instances` concurrently.
///
/// Instances are independent jobs on `scheduler`'s worker pool; results
/// land in submission order. With `cache`, all instances share one
/// content-addressed store: the first instance of each quotient-isomorphism
/// class pays for the canonical search, the rest replay its tapes.
///
/// A failing instance fails only its own slot
/// ([`JobResult`](anonet_batch::JobResult)); the batch completes.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use anonet_batch::{BatchScheduler, DerandCache};
/// use anonet_core::batch::derandomize_batch;
/// use anonet_core::SearchStrategy;
/// use anonet_algorithms::mis::RandomizedMis;
/// use anonet_graph::lift::cyclic_cycle_lift;
/// use anonet_runtime::ExecConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A family of lifts of the colored triangle: one search, many replays.
/// let base = vec![((), 1u32), ((), 2), ((), 3)];
/// let family: Vec<_> = (2..=5)
///     .map(|m| cyclic_cycle_lift(3, m).unwrap().lift_labels(&base).unwrap())
///     .collect();
/// let cache = Arc::new(DerandCache::new());
/// let outcome = derandomize_batch(
///     &RandomizedMis::new(),
///     &family,
///     SearchStrategy::default(),
///     &ExecConfig::default(),
///     &BatchScheduler::new(),
///     Some(&cache),
/// );
/// assert_eq!(outcome.stats.succeeded, 4);
/// let stats = outcome.stats.cache.unwrap();
/// assert_eq!(stats.assignment_misses, 1); // one search...
/// assert_eq!(stats.assignment_hits, 3);   // ...three replays
/// # Ok(())
/// # }
/// ```
pub fn derandomize_batch<A, C>(
    alg: &A,
    instances: &[LabeledGraph<(A::Input, C)>],
    strategy: SearchStrategy,
    config: &ExecConfig,
    scheduler: &BatchScheduler,
    cache: Option<&Arc<DerandCache>>,
) -> BatchOutcome<DerandomizedRun<A::Output>>
where
    A: ObliviousAlgorithm + Clone + Sync,
    A::Input: Label + Send + Sync,
    A::Output: Send,
    C: Label + Send + Sync,
{
    let derandomizer = Derandomizer::configured(alg, strategy, config, cache);
    run_window(
        scheduler,
        instances,
        cache,
        &[
            ("quotient", &|r: &DerandomizedRun<A::Output>| r.quotient_time),
            ("search+lift", &|r| r.search_time),
        ],
        |_idx, instance| derandomizer.run(instance),
    )
}

/// Runs the full Theorem-1 pipeline over many `(network, seed)` jobs
/// concurrently. The optional `cache` is shared across all stage-2
/// derandomizations (stage 1, the randomized coloring, is per-seed by
/// nature and never cached).
pub fn pipeline_batch<A>(
    alg: &A,
    jobs: &[(LabeledGraph<A::Input>, u64)],
    strategy: SearchStrategy,
    config: &ExecConfig,
    scheduler: &BatchScheduler,
    cache: Option<&Arc<DerandCache>>,
) -> BatchOutcome<PipelineRun<A::Output>>
where
    A: ObliviousAlgorithm + Clone + Sync,
    A::Input: Label + Send + Sync,
    A::Output: Send,
{
    let derandomizer = Derandomizer::configured(alg, strategy, config, cache);
    run_window(
        scheduler,
        jobs,
        cache,
        &[
            ("coloring", &|r: &PipelineRun<A::Output>| r.coloring_time),
            ("derandomize", &|r| r.deterministic_time),
        ],
        |_idx, (net, seed)| derandomizer.pipeline(net, *seed),
    )
}

/// A named accessor for one per-run stage duration.
type StageTime<'a, O> = (&'a str, &'a dyn Fn(&O) -> Duration);

/// Runs `jobs` on `scheduler`, then fills in the batch's summed per-stage
/// times and, with a cache, the cache-accounting delta for exactly this
/// batch's window.
fn run_window<I, O>(
    scheduler: &BatchScheduler,
    jobs: &[I],
    cache: Option<&Arc<DerandCache>>,
    stages: &[StageTime<'_, O>],
    job: impl Fn(usize, &I) -> Result<O> + Sync,
) -> BatchOutcome<O>
where
    I: Sync,
    O: Send,
{
    let before = cache.map(|c| c.stats());
    let mut outcome = scheduler.run(jobs, job);
    outcome.stats.stages = stages
        .iter()
        .map(|(name, time_of)| {
            let total = outcome.results.iter().filter_map(|r| r.ok()).map(time_of).sum();
            (name.to_string(), total)
        })
        .collect();
    if let (Some(cache), Some(before)) = (cache, before) {
        // Both snapshots come from the same live cache within this call, so
        // the window is monotone; an (unreachable) regression yields `None`
        // rather than fabricated numbers.
        outcome.stats.cache = cache.stats().delta_from(&before).ok();
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_algorithms::mis::RandomizedMis;
    use anonet_algorithms::problems::MisProblem;
    use anonet_graph::lift::cyclic_cycle_lift;
    use anonet_graph::{coloring, generators};
    use anonet_runtime::Problem;

    fn lift_family(multiplicities: &[usize]) -> Vec<LabeledGraph<((), u32)>> {
        let base = vec![((), 1u32), ((), 2), ((), 3)];
        multiplicities
            .iter()
            .map(|&m| cyclic_cycle_lift(3, m).unwrap().lift_labels(&base).unwrap())
            .collect()
    }

    #[test]
    fn batch_matches_sequential_bit_for_bit() {
        let instances = lift_family(&[2, 3, 4, 5, 6]);
        let alg = RandomizedMis::new();
        let strategy = SearchStrategy::default();
        let config = ExecConfig::default();

        let sequential: Vec<_> = instances
            .iter()
            .map(|inst| Derandomizer::new(alg).with_strategy(strategy).run(inst).unwrap())
            .collect();

        let cache = Arc::new(DerandCache::new());
        let batch = derandomize_batch(
            &alg,
            &instances,
            strategy,
            &config,
            &BatchScheduler::with_threads(4),
            Some(&cache),
        );
        assert_eq!(batch.stats.succeeded, instances.len());
        for (seq, par) in sequential.iter().zip(batch.results.iter()) {
            let par = par.ok().unwrap();
            assert_eq!(seq.outputs, par.outputs);
            assert_eq!(seq.assignment, par.assignment);
            assert_eq!(seq.attempts, par.attempts);
            assert_eq!(seq.simulation_rounds, par.simulation_rounds);
        }
    }

    #[test]
    fn cache_collapses_a_lift_family_to_one_search() {
        let instances = lift_family(&[2, 3, 4, 5, 6, 7]);
        let cache = Arc::new(DerandCache::new());
        let outcome = derandomize_batch(
            &RandomizedMis::new(),
            &instances,
            SearchStrategy::default(),
            &ExecConfig::default(),
            &BatchScheduler::with_threads(1),
            Some(&cache),
        );
        let stats = outcome.stats.cache.unwrap();
        assert_eq!(stats.assignment_misses, 1);
        assert_eq!(stats.assignment_hits, 5);
        assert_eq!(stats.assignment_entries, 1);
        // Exactly one run paid for the search.
        let hits = outcome.results.iter().filter(|r| r.ok().unwrap().cache_hit).count();
        assert_eq!(hits, 5);
        // Per-stage times are reported.
        assert_eq!(outcome.stats.stages.len(), 2);
        assert_eq!(outcome.stats.stages[0].0, "quotient");
    }

    #[test]
    fn cache_is_optional_and_absent_by_default() {
        let instances = lift_family(&[2, 3]);
        let outcome = derandomize_batch(
            &RandomizedMis::new(),
            &instances,
            SearchStrategy::default(),
            &ExecConfig::default(),
            &BatchScheduler::with_threads(2),
            None,
        );
        assert!(outcome.stats.cache.is_none());
        assert!(outcome.results.iter().all(|r| !r.ok().unwrap().cache_hit));
    }

    #[test]
    fn failing_instances_do_not_sink_the_batch() {
        // A non-2-hop-colored instance errors; the valid ones still finish.
        let mut instances = lift_family(&[2, 3]);
        let bad = generators::cycle(4)
            .unwrap()
            .with_labels(vec![((), 1u32), ((), 2), ((), 1), ((), 2)])
            .unwrap();
        instances.insert(1, bad);
        let outcome = derandomize_batch(
            &RandomizedMis::new(),
            &instances,
            SearchStrategy::default(),
            &ExecConfig::default(),
            &BatchScheduler::with_threads(2),
            None,
        );
        assert_eq!(outcome.stats.succeeded, 2);
        assert_eq!(outcome.stats.failed, 1);
        assert!(!outcome.results[1].is_ok());
        assert!(outcome.results[0].is_ok() && outcome.results[2].is_ok());
    }

    #[test]
    fn pipeline_batch_is_valid_and_shares_stage2_work() {
        let nets: Vec<(LabeledGraph<()>, u64)> = (0..6)
            .map(|seed| (generators::cycle(9).unwrap().with_uniform_label(()), seed))
            .collect();
        let cache = Arc::new(DerandCache::new());
        let outcome = pipeline_batch(
            &RandomizedMis::new(),
            &nets,
            SearchStrategy::default(),
            &ExecConfig::default(),
            &BatchScheduler::with_threads(3),
            Some(&cache),
        );
        assert_eq!(outcome.stats.succeeded, 6);
        for ((net, _), run) in nets.iter().zip(outcome.results.iter()) {
            let run = run.ok().unwrap();
            assert!(MisProblem.is_valid_output(net, &run.outputs));
            let colored = net.graph().with_labels(run.coloring.clone()).unwrap();
            assert!(coloring::is_two_hop_coloring(&colored));
        }
        // The cache saw every stage-2 quotient; different seeds may or may
        // not collide, but the accounting adds up.
        let stats = outcome.stats.cache.unwrap();
        assert_eq!(stats.assignment_hits + stats.assignment_misses, 6);
    }

    #[test]
    fn cached_hit_is_indistinguishable_from_the_original() {
        // Run the base alone (miss), then a lift (hit): the lift's fields
        // must match what an uncached derandomizer reports.
        let family = lift_family(&[1, 4]);
        let cache = Arc::new(DerandCache::new());
        let alg = RandomizedMis::new();
        let cached = Derandomizer::new(alg).with_cache(Arc::clone(&cache));
        let warm = cached.run(&family[0]).unwrap();
        assert!(!warm.cache_hit);
        let hit = cached.run(&family[1]).unwrap();
        assert!(hit.cache_hit);
        let fresh = Derandomizer::new(alg).run(&family[1]).unwrap();
        assert_eq!(hit.outputs, fresh.outputs);
        assert_eq!(hit.assignment, fresh.assignment);
        assert_eq!(hit.attempts, fresh.attempts);
        assert_eq!(hit.simulation_rounds, fresh.simulation_rounds);
    }
}
