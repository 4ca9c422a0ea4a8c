//! The persistence differential oracle: the on-disk derandomization
//! store must be a pure performance layer, even across a crash.
//!
//! For any seeded campaign of test cases, three runs must tell the same
//! story, byte for byte:
//!
//! 1. **memory** — the plain in-memory [`DerandCache`];
//! 2. **fresh** — a [`PersistentDerandCache`] over a fresh directory;
//! 3. **crashed** — a persistent cache whose first process ran half the
//!    campaign and then died mid-write (simulated by appending a torn
//!    partial frame to a live segment), after which a second process
//!    reopens the store — recovery truncates the torn tail — warms
//!    itself from disk, and runs the whole campaign.
//!
//! Outputs must be byte-identical across all three, and the
//! [`CacheStats`] must stay consistent: every job does exactly one
//! lookup, the fresh persistent run hits exactly as often as the memory
//! run, and the crash survivor — which starts knowing everything the
//! first half learned — never misses more than the memory run.

use std::path::Path;
use std::sync::Arc;

use anonet_algorithms::mis::RandomizedMis;
use anonet_batch::{CacheStats, DerandCache, PersistentDerandCache};
use anonet_core::{DerandomizedRun, Derandomizer, SearchStrategy};
use anonet_graph::{Label, LabeledGraph};

use crate::gen;
use crate::oracles::Failure;
use crate::testcase::TestCase;

/// Oracle name used in [`Failure`] reports.
pub const ORACLE: &str = "persistence-differential";

/// What [`check_persistence`] observed (returned on success so callers
/// can assert sharper, campaign-specific facts on top of the oracle).
#[derive(Clone, Debug)]
pub struct PersistReport {
    /// Jobs in the campaign.
    pub jobs: usize,
    /// Stats of the memory-only run.
    pub memory: CacheStats,
    /// Stats of the fresh persistent run.
    pub fresh: CacheStats,
    /// Stats of the post-crash run (second process, full campaign).
    pub crashed: CacheStats,
    /// Entries `warm()` preloaded in the post-crash process.
    pub warmed: usize,
    /// Torn tails the post-crash open truncated (≥ 1 by construction).
    pub torn_truncations: u64,
    /// Records the post-crash open replayed from segments.
    pub recovered_records: u64,
}

fn fail(detail: impl Into<String>) -> Failure {
    Failure::new(ORACLE, detail)
}

/// Byte-serializes every observable field of a run; equality below is
/// byte-equality of results, not a lossy comparison.
pub(crate) fn run_bytes<O: Label>(run: &DerandomizedRun<O>) -> Vec<u8> {
    let mut out = Vec::new();
    for o in &run.outputs {
        o.encode(&mut out);
    }
    out.extend_from_slice(&(run.quotient_nodes as u64).to_le_bytes());
    out.extend_from_slice(&(run.multiplicity as u64).to_le_bytes());
    out.extend_from_slice(&(run.simulation_rounds as u64).to_le_bytes());
    out.extend_from_slice(&(run.attempts as u64).to_le_bytes());
    for tape in run.assignment.tapes() {
        out.extend_from_slice(&(tape.len() as u64).to_le_bytes());
        out.extend(tape.iter().map(u8::from));
    }
    out
}

/// Runs `graphs[lo..]` sequentially through a cached derandomizer.
fn run_campaign(
    graphs: &[LabeledGraph<((), u32)>],
    cache: &Arc<DerandCache>,
) -> Result<Vec<Vec<u8>>, Failure> {
    let derand = Derandomizer::new(RandomizedMis::new())
        .with_strategy(SearchStrategy::default())
        .with_cache(Arc::clone(cache));
    graphs
        .iter()
        .enumerate()
        .map(|(i, g)| {
            derand
                .run(g)
                .map(|r| run_bytes(&r))
                .map_err(|e| fail(format!("job {i} failed to derandomize: {e}")))
        })
        .collect()
}

/// Appends a torn partial frame (a complete length/checksum prefix that
/// promises more payload than follows) to the largest segment file under
/// `dir`, simulating a process killed mid-`write`.
fn tear_a_segment(dir: &Path) -> Result<(), Failure> {
    let mut victim: Option<(u64, std::path::PathBuf)> = None;
    let shards = std::fs::read_dir(dir).map_err(|e| fail(format!("listing store dir: {e}")))?;
    for shard in shards.flatten() {
        let Ok(segments) = std::fs::read_dir(shard.path()) else { continue };
        for seg in segments.flatten() {
            if seg.path().extension().is_some_and(|x| x == "log") {
                let len = seg.metadata().map(|m| m.len()).unwrap_or(0);
                if victim.as_ref().is_none_or(|(best, _)| len > *best) {
                    victim = Some((len, seg.path()));
                }
            }
        }
    }
    let (_, path) = victim.ok_or_else(|| fail("no segment file to tear"))?;
    let mut torn = Vec::new();
    torn.extend_from_slice(&64u32.to_le_bytes()); // promises 64 payload bytes...
    torn.extend_from_slice(&0u32.to_le_bytes()); // (checksum never reached)
    torn.extend_from_slice(&[0xEE; 5]); // ...delivers 5, then "crashes"
    let mut bytes =
        std::fs::read(&path).map_err(|e| fail(format!("reading {}: {e}", path.display())))?;
    bytes.extend_from_slice(&torn);
    std::fs::write(&path, bytes).map_err(|e| fail(format!("tearing {}: {e}", path.display())))
}

/// Checks the three-way persistence differential over one campaign.
///
/// `scratch` is a caller-owned directory for the two store instances;
/// it is created (and its `fresh/` and `crashed/` children replaced) by
/// this function, and left on disk for post-mortems on failure.
///
/// # Errors
///
/// Returns a [`Failure`] naming the first divergence: generator errors,
/// output bytes differing between variants, or inconsistent stats.
pub fn check_persistence(cases: &[TestCase], scratch: &Path) -> Result<PersistReport, Failure> {
    if cases.len() < 2 {
        return Err(fail("campaign needs >= 2 cases to split around a crash"));
    }
    let graphs: Vec<LabeledGraph<((), u32)>> = cases
        .iter()
        .map(|case| {
            let inst = gen::build_instance(case)
                .map_err(|e| fail(format!("generator failed for {case}: {e}")))?;
            Ok(inst.colors.map_labels(|&c| ((), c)))
        })
        .collect::<Result<_, Failure>>()?;
    for sub in ["fresh", "crashed"] {
        let dir = scratch.join(sub);
        // Leftover shards from an earlier run would make the fresh and
        // crashed variants diverge for reasons the differential is not
        // testing; only "already absent" is benign.
        if let Err(e) = std::fs::remove_dir_all(&dir) {
            if e.kind() != std::io::ErrorKind::NotFound {
                return Err(fail(format!("clearing scratch {}: {e}", dir.display())));
            }
        }
    }

    // Variant 1 — memory only.
    let memory_cache = Arc::new(DerandCache::new());
    let memory_out = run_campaign(&graphs, &memory_cache)?;
    let memory = memory_cache.stats();

    // Variant 2 — persistent, fresh directory.
    let fresh_pdc = PersistentDerandCache::open(scratch.join("fresh"))
        .map_err(|e| fail(format!("opening fresh store: {e}")))?;
    let fresh_out = run_campaign(&graphs, fresh_pdc.cache())?;
    fresh_pdc.flush().map_err(|e| fail(format!("flushing fresh store: {e}")))?;
    let fresh = fresh_pdc.cache_stats();

    // Variant 3 — first process runs half the campaign, then dies
    // mid-write; the second process recovers, warms, and runs it all.
    let crashed_dir = scratch.join("crashed");
    {
        let pdc = PersistentDerandCache::open(&crashed_dir)
            .map_err(|e| fail(format!("opening crash store: {e}")))?;
        run_campaign(&graphs[..graphs.len() / 2], pdc.cache())?;
        // Dropped without flush: the "crash". Frames already appended
        // are intact; the torn tail below is the write the kill cut.
    }
    tear_a_segment(&crashed_dir)?;
    let pdc = PersistentDerandCache::open(&crashed_dir)
        .map_err(|e| fail(format!("reopening crashed store: {e}")))?;
    let disk = pdc.store_stats();
    if disk.torn_truncations == 0 {
        return Err(fail("recovery did not truncate the injected torn tail"));
    }
    let warmed = pdc.warm(usize::MAX).map_err(|e| fail(format!("warming: {e}")))?;
    let crashed_out = run_campaign(&graphs, pdc.cache())?;
    let crashed = pdc.cache_stats();

    // Byte-identical outputs across all three variants.
    for (name, other) in [("fresh", &fresh_out), ("crashed", &crashed_out)] {
        if let Some(i) = (0..memory_out.len()).find(|&i| memory_out[i] != other[i]) {
            return Err(fail(format!(
                "job {i} ({}): {name} output diverged from memory ({} vs {} bytes)",
                cases[i],
                other[i].len(),
                memory_out[i].len(),
            )));
        }
    }

    // Consistent stats: one lookup per job, everywhere.
    let jobs = graphs.len() as u64;
    for (name, s) in [("memory", &memory), ("fresh", &fresh), ("crashed", &crashed)] {
        if s.assignment_hits + s.assignment_misses != jobs {
            return Err(fail(format!(
                "{name}: hits {} + misses {} != jobs {jobs}",
                s.assignment_hits, s.assignment_misses
            )));
        }
        if s.disk_errors != 0 {
            return Err(fail(format!("{name}: {} disk error(s)", s.disk_errors)));
        }
    }
    // A fresh store adds no knowledge: memory-tier behavior is identical.
    if fresh.assignment_hits != memory.assignment_hits || fresh.disk_hits != 0 {
        return Err(fail(format!(
            "fresh persistent run diverged from memory accounting: \
             hits {} vs {}, disk hits {}",
            fresh.assignment_hits, memory.assignment_hits, fresh.disk_hits
        )));
    }
    // The survivor starts knowing the first half: it can only hit more.
    if crashed.assignment_misses > memory.assignment_misses {
        return Err(fail(format!(
            "post-crash run missed more ({}) than the memory run ({})",
            crashed.assignment_misses, memory.assignment_misses
        )));
    }
    Ok(PersistReport {
        jobs: graphs.len(),
        memory,
        fresh,
        crashed,
        warmed,
        torn_truncations: disk.torn_truncations,
        recovered_records: disk.recovered_records,
    })
}

/// The default persistence campaign: C3/C4 lift towers that share
/// quotients (so the cache, and hence the disk tier, actually carries
/// weight) plus standard prime graphs with distinct quotients.
///
/// # Panics
///
/// Never — the replay strings are compile-time constants, parsed here.
#[must_use]
pub fn default_persistence_cases() -> Vec<TestCase> {
    let mut replays = Vec::new();
    for m in [1usize, 2, 3] {
        replays.push(format!("tc1:family=cycle,n=3,seed=0,color=greedy,lift={m},adv=fair"));
        replays.push(format!("tc1:family=cycle,n=4,seed=0,color=greedy,lift={m},adv=fair"));
    }
    replays.push("tc1:family=petersen,n=10,seed=1,color=greedy,lift=1,adv=fair".to_string());
    replays.push("tc1:family=path,n=8,seed=1,color=greedy,lift=1,adv=fair".to_string());
    replays.iter().map(|r| r.parse().unwrap_or_else(|e| unreachable!("replay {r}: {e}"))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("anonet-testkit-persist-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn default_campaign_passes_and_reports_real_persistence() {
        let dir = scratch("default");
        let report = check_persistence(&default_persistence_cases(), &dir).unwrap();
        assert_eq!(report.jobs, 8);
        // Three C3 lifts share a quotient, three C4 lifts share another;
        // petersen and path-8 are singletons: 4 misses, 4 hits.
        assert_eq!(report.memory.assignment_misses, 4);
        assert_eq!(report.memory.assignment_hits, 4);
        // The first "process" ran 4 jobs (2 quotient classes); the
        // survivor warms both and only misses the two unseen classes.
        assert!(report.warmed >= 2, "warm() must preload the first-half classes");
        assert_eq!(report.crashed.assignment_misses, 2);
        assert_eq!(report.torn_truncations, 1);
        assert!(report.recovered_records >= 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tiny_campaigns_are_rejected() {
        let dir = scratch("tiny");
        let one: TestCase =
            "tc1:family=cycle,n=3,seed=0,color=greedy,lift=1,adv=fair".parse().unwrap();
        let err = check_persistence(&[one], &dir).unwrap_err();
        assert_eq!(err.oracle, ORACLE);
        std::fs::remove_dir_all(&dir).ok();
    }
}
