//! Cross-crate integration: the persistent store must be a pure
//! performance layer under the batch engine, exactly like the in-memory
//! cache it backs. Two legs:
//!
//! * the testkit persistence differential oracle — (memory) ≡ (fresh
//!   persistent) ≡ (crash-recovered persistent) over a seeded campaign;
//! * batch-level equivalence — `derandomize_batch` over a
//!   `PersistentDerandCache` matches the plain in-memory cache byte for
//!   byte across thread counts, and a second warm-started "process"
//!   answers everything from disk.

use std::sync::Arc;

use anonet::algorithms::mis::RandomizedMis;
use anonet::batch::{BatchScheduler, DerandCache, PersistentDerandCache};
use anonet::core::batch::derandomize_batch;
use anonet::core::{DerandomizedRun, SearchStrategy};
use anonet::graph::{Label, LabeledGraph};
use anonet::runtime::ExecConfig;
use anonet::testkit::{build_instance, check_persistence, default_persistence_cases, TestCase};

fn colored_case(replay: &str) -> LabeledGraph<((), u32)> {
    let case: TestCase = replay.parse().expect("replay strings are written in-test");
    let inst = build_instance(&case).expect("generator succeeds");
    inst.colors.map_labels(|&c| ((), c))
}

/// Lift towers over C3 and C4 plus one prime graph: three quotient
/// classes, so a shared cache must collapse eight searches into three.
fn families() -> Vec<LabeledGraph<((), u32)>> {
    let mut out = Vec::new();
    for m in [1usize, 2, 3] {
        out.push(colored_case(&format!(
            "tc1:family=cycle,n=3,seed=0,color=greedy,lift={m},adv=fair"
        )));
        out.push(colored_case(&format!(
            "tc1:family=cycle,n=4,seed=0,color=greedy,lift={m},adv=fair"
        )));
    }
    out.push(colored_case("tc1:family=wheel,n=7,seed=1,color=greedy,lift=1,adv=fair"));
    out
}

fn run_bytes<O: Label>(run: &DerandomizedRun<O>) -> Vec<u8> {
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

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("anonet-store-integration-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn batch_bytes(
    instances: &[LabeledGraph<((), u32)>],
    threads: usize,
    cache: &Arc<DerandCache>,
) -> Vec<Vec<u8>> {
    let batch = derandomize_batch(
        &RandomizedMis::new(),
        instances,
        SearchStrategy::default(),
        &ExecConfig::default(),
        &BatchScheduler::with_threads(threads),
        Some(cache),
    );
    assert_eq!(batch.stats.succeeded, instances.len());
    batch.results.iter().map(|r| run_bytes(r.ok().expect("batch job succeeds"))).collect()
}

/// The testkit oracle over its default campaign, driven from the facade.
#[test]
fn persistence_differential_oracle_holds() {
    let dir = scratch("oracle");
    let report =
        check_persistence(&default_persistence_cases(), &dir).unwrap_or_else(|f| panic!("{f}"));
    assert!(report.torn_truncations >= 1, "the simulated crash must actually tear a segment");
    assert!(report.warmed >= 1, "the survivor must preload from disk");
    assert!(
        report.crashed.assignment_misses < report.memory.assignment_misses,
        "the recovered first half must spare the survivor searches"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `derandomize_batch` over the persistent cache is byte-identical to
/// the in-memory cache across thread counts, and a warm-started second
/// process over the same directory answers every lookup.
#[test]
fn batched_persistent_cache_matches_memory_and_warm_starts() {
    let dir = scratch("batch");
    let instances = families();

    let memory_cache = Arc::new(DerandCache::new());
    let memory = batch_bytes(&instances, 1, &memory_cache);

    for threads in [1usize, 4] {
        let run_dir = dir.join(format!("t{threads}"));

        // Process 1: cold persistent store, batch run, write-through.
        let pdc = PersistentDerandCache::open(&run_dir).expect("open store");
        let cold = batch_bytes(&instances, threads, pdc.cache());
        assert_eq!(memory, cold, "persistent cache ({threads} threads) diverged from memory");
        let stats = pdc.cache_stats();
        assert_eq!(
            stats.assignment_hits + stats.assignment_misses,
            instances.len() as u64,
            "one lookup per job"
        );
        assert_eq!(stats.disk_errors, 0);
        pdc.flush().expect("flush store");
        drop(pdc);

        // Process 2: reopen, warm, re-run — all hits, zero searches.
        let pdc = PersistentDerandCache::open(&run_dir).expect("reopen store");
        assert_eq!(
            pdc.store_stats().recovered_records,
            3,
            "reopen must replay one record per quotient class"
        );
        let warmed = pdc.warm(usize::MAX).expect("warm from disk");
        assert_eq!(warmed, 3, "warm() must preload all three quotient classes");
        let warm = batch_bytes(&instances, threads, pdc.cache());
        assert_eq!(memory, warm, "warm-started run ({threads} threads) diverged from memory");
        let stats = pdc.cache_stats();
        assert_eq!(stats.assignment_misses, 0, "a warmed process must never search");
        assert_eq!(stats.assignment_hits, instances.len() as u64);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The facade re-exports the store crate: the raw `Store` is reachable
/// as `anonet::store::Store` and round-trips bytes.
#[test]
fn facade_exposes_the_raw_store() {
    let dir = scratch("facade");
    let store =
        anonet::store::Store::open(anonet::store::StoreConfig::new(&dir)).expect("open raw store");
    store.put(0, b"s(G*)", b"assignment").expect("put");
    assert_eq!(store.get(0, b"s(G*)").expect("get"), Some(b"assignment".to_vec()));
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}
