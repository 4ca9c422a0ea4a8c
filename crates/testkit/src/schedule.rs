//! The cache-schedule oracle: [`CacheStats`] are a function of the jobs,
//! not of the thread schedule.
//!
//! A lift family is submitted as one batch at several thread counts and
//! in several keyed-shuffle submission orders, each time against a fresh
//! cache: in memory, and (given a scratch directory) over a fresh
//! persistent store. Every run must report the same [`CacheStats`] —
//! exactly one miss per distinct `(problem, s(G_*))` key, hits everywhere
//! else — and every job the same outputs. The cache's single-flight claim
//! table is what makes this hold; without it two workers on lifts of one
//! base can both miss and both search.

use std::path::Path;
use std::sync::Arc;

use anonet_algorithms::mis::RandomizedMis;
use anonet_batch::{BatchScheduler, CacheStats, DerandCache, PersistentDerandCache};
use anonet_core::{derandomize_batch, SearchStrategy};
use anonet_graph::LabeledGraph;
use anonet_runtime::{ExecConfig, RoundAdversary, ShuffledScheduler};

use crate::gen;
use crate::oracles::Failure;
use crate::persist::run_bytes;
use crate::testcase::TestCase;

/// Oracle name used in [`Failure`] reports.
pub const ORACLE: &str = "cache-schedule";

fn fail(detail: impl Into<String>) -> Failure {
    Failure::new(ORACLE, detail)
}

/// Checks that every `(threads, order)` run of the campaign reports the
/// same [`CacheStats`] and outputs. Jobs are the cases' instances, each
/// submitted `copies` times, permuted by a keyed shuffle per order
/// (order 0 is the identity). With `scratch`, each run is repeated over a
/// fresh persistent store under it. Returns the common stats of the
/// memory runs.
///
/// # Errors
///
/// A [`Failure`] naming the first run whose stats or outputs diverge, or
/// whose misses are not exactly its distinct keys.
pub fn check_cache_schedule(
    cases: &[TestCase],
    copies: usize,
    threads: &[usize],
    orders: u64,
    scratch: Option<&Path>,
) -> Result<CacheStats, Failure> {
    let mut jobs: Vec<LabeledGraph<((), u32)>> = Vec::new();
    for case in cases {
        let inst = gen::build_instance(case)
            .map_err(|e| fail(format!("generator failed for {case}: {e}")))?;
        let colored = inst.colors.map_labels(|&c| ((), c));
        jobs.extend(std::iter::repeat_n(colored, copies));
    }
    let mut expected: Option<(CacheStats, Vec<Vec<u8>>)> = None;
    let mut memory: Option<CacheStats> = None;
    for &t in threads {
        for order_key in 0..orders {
            let order: Vec<usize> = if order_key == 0 {
                (0..jobs.len()).collect()
            } else {
                ShuffledScheduler::new(order_key).step_order(jobs.len(), 1)
            };
            let submitted: Vec<_> = order.iter().map(|&i| jobs[i].clone()).collect();
            let mut caches = vec![("memory", Arc::new(DerandCache::new()), None)];
            if let Some(dir) = scratch {
                let dir = dir.join(format!("t{t}-o{order_key}"));
                // Only "already absent" is benign: a leftover store would
                // turn misses into disk hits.
                if let Err(e) = std::fs::remove_dir_all(&dir) {
                    if e.kind() != std::io::ErrorKind::NotFound {
                        return Err(fail(format!("clearing scratch {}: {e}", dir.display())));
                    }
                }
                let pdc = PersistentDerandCache::open(&dir)
                    .map_err(|e| fail(format!("opening {}: {e}", dir.display())))?;
                caches.push(("persistent", Arc::clone(pdc.cache()), Some(pdc)));
            }
            for (tier, cache, _store) in caches {
                let ctx = format!("{tier}, {t} thread(s), order {order_key}");
                let outcome = derandomize_batch(
                    &RandomizedMis::new(),
                    &submitted,
                    SearchStrategy::default(),
                    &ExecConfig::default(),
                    &BatchScheduler::with_threads(t),
                    Some(&cache),
                );
                let mut outputs = vec![Vec::new(); jobs.len()];
                for (result, &i) in outcome.results.iter().zip(&order) {
                    let run = result.ok().ok_or_else(|| fail(format!("{ctx}: job {i} failed")))?;
                    outputs[i] = run_bytes(run);
                }
                let stats = outcome.stats.cache.ok_or_else(|| fail(format!("{ctx}: no stats")))?;
                // Disk counters only exist on the persistent tier; the
                // rest must agree across tiers too.
                let comparable = CacheStats { disk_hits: 0, disk_misses: 0, ..stats };
                if stats.assignment_misses != stats.assignment_entries as u64 {
                    return Err(fail(format!(
                        "{ctx}: {} misses for {} distinct keys",
                        stats.assignment_misses, stats.assignment_entries
                    )));
                }
                match &expected {
                    None => expected = Some((comparable, outputs)),
                    Some((want, want_outputs)) => {
                        if comparable != *want {
                            return Err(fail(format!("{ctx}: stats {stats:?}, expected {want:?}")));
                        }
                        if outputs != *want_outputs {
                            return Err(fail(format!("{ctx}: outputs diverged")));
                        }
                    }
                }
                if tier == "memory" {
                    memory.get_or_insert(stats);
                }
            }
        }
    }
    memory.ok_or_else(|| fail("no thread counts or orders to run"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::default_persistence_cases;

    #[test]
    fn cache_stats_are_independent_of_threads_and_submission_order() {
        let dir =
            std::env::temp_dir().join(format!("anonet-testkit-schedule-{}", std::process::id()));
        let stats =
            check_cache_schedule(&default_persistence_cases(), 3, &[1, 2, 8], 3, Some(&dir))
                .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        // 24 jobs over 4 quotient classes: one miss per class.
        assert_eq!(stats.assignment_misses, 4);
        assert_eq!(stats.assignment_hits, 20);
    }
}
