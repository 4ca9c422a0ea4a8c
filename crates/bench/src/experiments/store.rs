//! E18 — the persistent derandomization store, measured: run the E15
//! lift-family workload twice against one on-disk store, as two cache
//! *lifecycles* standing in for two processes. The first ("cold") opens
//! a fresh store and pays one canonical search per base family, writing
//! through to disk; the second ("warm") reopens the store — replaying
//! the open-time segment scan a real restart would — preloads via
//! `warm()`, and must answer **every** lookup from cache, strictly
//! beating the cold hit rate while producing byte-identical outputs.
//!
//! [`report`] emits `BENCH_store.json` and, as the CI artifact, the
//! store's own accounting at `target/store-report.json` (both written
//! through the shared `anonet_obs::Json` serializer).

use std::sync::Arc;
use std::time::Duration;

use anonet_algorithms::mis::RandomizedMis;
use anonet_batch::{BatchScheduler, CacheStats, PersistentDerandCache};
use anonet_core::batch::derandomize_batch;
use anonet_core::SearchStrategy;
use anonet_graph::lift::cyclic_cycle_lift;
use anonet_graph::LabeledGraph;
use anonet_runtime::ExecConfig;

use crate::experiments::batch::{MULTIPLICITIES, THREADS};
use crate::experiments::common::{accept, tick};
use crate::experiments::ExpResult;
use crate::table::{secs, Json};
use crate::Table;

/// One cache lifecycle over the workload ("process" in the two-process
/// cold/warm protocol).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StorePhase {
    /// `"cold"` or `"warm"`.
    pub name: &'static str,
    /// Entries preloaded by `warm()` before the run (0 for cold).
    pub warmed: usize,
    /// Wall time of the batch run.
    pub wall: Duration,
    /// Cache accounting for the run window.
    pub cache: CacheStats,
    /// Records the store recovered during this lifecycle's open.
    pub recovered_records: u64,
}

/// The E18 summary.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StoreSummary {
    /// Jobs per phase.
    pub jobs: usize,
    /// Worker threads of both phases.
    pub threads: usize,
    /// The cold (first-process) phase.
    pub cold: StorePhase,
    /// The warm (second-process) phase.
    pub warm: StorePhase,
    /// Warm outputs are byte-identical to cold outputs, job by job.
    pub identical: bool,
    /// `warm.cache.hit_rate() > cold.cache.hit_rate()` — the acceptance
    /// gate.
    pub warm_strictly_better: bool,
    /// Disk-tier accounting after both phases.
    pub disk: anonet_store::StoreStats,
}

impl StoreSummary {
    /// The E18 acceptance gates: warm outputs match cold outputs and the
    /// warm start beats the cold hit rate.
    ///
    /// # Errors
    ///
    /// Names every gate that failed.
    pub fn accept(&self) -> ExpResult<()> {
        accept(&[
            ("warm outputs diverged from cold", self.identical),
            ("warm start did not beat the cold hit rate", self.warm_strictly_better),
        ])
    }
}

fn lift_families() -> ExpResult<Vec<LabeledGraph<((), u32)>>> {
    let mut instances = Vec::new();
    for base_n in [3usize, 4] {
        let labels: Vec<((), u32)> = (0..base_n).map(|i| ((), i as u32 + 1)).collect();
        for m in MULTIPLICITIES {
            let lift = cyclic_cycle_lift(base_n, m)?;
            instances.push(lift.lift_labels(&labels)?);
        }
    }
    Ok(instances)
}

/// One lifecycle: open the store at `dir`, optionally warm, run the
/// whole workload on the batch scheduler, flush, and report.
fn run_phase(
    dir: &std::path::Path,
    name: &'static str,
    do_warm: bool,
    graphs: &[LabeledGraph<((), u32)>],
) -> ExpResult<(StorePhase, Vec<Vec<u8>>, anonet_store::StoreStats)> {
    let pdc = PersistentDerandCache::open(dir)?;
    let opened = pdc.store_stats();
    let warmed = if do_warm { pdc.warm(usize::MAX)? } else { 0 };
    let before = pdc.cache_stats();
    let alg = RandomizedMis::new();
    let strategy = SearchStrategy::Exhaustive { max_total_bits: 24 };
    let config = ExecConfig::default();
    let scheduler = BatchScheduler::with_threads(THREADS);
    let cache = Arc::clone(pdc.cache());
    let outcome = derandomize_batch(&alg, graphs, strategy, &config, &scheduler, Some(&cache));
    let mut outputs = Vec::with_capacity(graphs.len());
    for result in &outcome.results {
        let run = result.ok().ok_or("store phase job failed")?;
        outputs.push(super::batch::run_bytes(run));
    }
    pdc.flush()?;
    let phase = StorePhase {
        name,
        warmed,
        wall: outcome.stats.wall,
        cache: pdc.cache_stats().delta_from(&before)?,
        recovered_records: opened.recovered_records,
    };
    let disk = pdc.store_stats();
    Ok((phase, outputs, disk))
}

/// Runs the two-process protocol against a throwaway store directory.
///
/// # Errors
///
/// Propagates store, lift-construction, and derandomization errors.
pub fn measure() -> ExpResult<StoreSummary> {
    // Process id + in-process counter: concurrent measurements (parallel
    // tests) never share a store directory.
    static RUNS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let run = RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("anonet-bench-store-{}-{run}", std::process::id()));
    // A stale directory would let the cold phase warm-start and skew the
    // measurement, so anything but "already absent" is a hard error.
    if let Err(e) = std::fs::remove_dir_all(&dir) {
        if e.kind() != std::io::ErrorKind::NotFound {
            return Err(format!("clearing scratch store {}: {e}", dir.display()).into());
        }
    }
    let graphs = lift_families()?;

    let (cold, cold_out, _) = run_phase(&dir, "cold", false, &graphs)?;
    // Second lifecycle: fresh memory, the disk tier carries everything.
    let (warm, warm_out, disk) = run_phase(&dir, "warm", true, &graphs)?;
    let summary = StoreSummary {
        jobs: graphs.len(),
        threads: THREADS,
        identical: cold_out == warm_out,
        warm_strictly_better: warm.cache.hit_rate() > cold.cache.hit_rate(),
        cold,
        warm,
        disk,
    };
    if let Err(e) = std::fs::remove_dir_all(&dir) {
        eprintln!("anonet-bench: could not remove scratch store {}: {e}", dir.display());
    }
    Ok(summary)
}

fn phase_json(p: &StorePhase) -> Json {
    Json::obj([
        ("name", Json::str(p.name)),
        ("warmed_entries", Json::from(p.warmed)),
        ("wall_secs", secs(p.wall)),
        ("recovered_records", Json::from(p.recovered_records)),
        ("assignment_hits", Json::from(p.cache.assignment_hits)),
        ("assignment_misses", Json::from(p.cache.assignment_misses)),
        ("disk_hits", Json::from(p.cache.disk_hits)),
        ("disk_misses", Json::from(p.cache.disk_misses)),
        ("disk_errors", Json::from(p.cache.disk_errors)),
        ("hit_rate", Json::Num((p.cache.hit_rate() * 1e4).round() / 1e4)),
    ])
}

/// Builds the `BENCH_store.json` payload.
pub fn to_json(s: &StoreSummary) -> String {
    Json::obj([
        ("experiment", Json::str("store")),
        ("jobs", Json::from(s.jobs)),
        ("threads", Json::from(s.threads)),
        ("cold", phase_json(&s.cold)),
        ("warm", phase_json(&s.warm)),
        ("byte_identical", Json::from(s.identical)),
        ("warm_strictly_better", Json::from(s.warm_strictly_better)),
        (
            "disk",
            Json::obj([
                ("live_records", Json::from(s.disk.live_records)),
                ("live_bytes", Json::from(s.disk.live_bytes as usize)),
                ("disk_bytes", Json::from(s.disk.disk_bytes as usize)),
                ("segments", Json::from(s.disk.segments)),
                ("appends", Json::from(s.disk.appends)),
                ("torn_truncations", Json::from(s.disk.torn_truncations)),
            ]),
        ),
    ])
    .pretty()
}

/// Renders the E18 report; writes `BENCH_store.json` and the store's
/// accounting artifact `target/store-report.json`.
///
/// # Errors
///
/// Propagates measurement errors; either JSON write failing is an error,
/// and so is a failed acceptance gate ([`StoreSummary::accept`]).
pub fn report() -> ExpResult<String> {
    let summary = measure()?;
    let mut t = Table::new(
        "E18 / persistent store — cold first process vs warm-started second process \
         (MIS over the C3/C4 lift families, one on-disk store)",
        &["phase", "warmed", "hits", "misses", "disk hits", "hit rate", "wall"],
    );
    for p in [&summary.cold, &summary.warm] {
        t.row(vec![
            p.name.to_string(),
            p.warmed.to_string(),
            p.cache.assignment_hits.to_string(),
            p.cache.assignment_misses.to_string(),
            p.cache.disk_hits.to_string(),
            format!("{:.1}%", 100.0 * p.cache.hit_rate()),
            format!("{:.2?}", p.wall),
        ]);
    }
    std::fs::write("BENCH_store.json", to_json(&summary))?;
    // The store's own accounting, re-measured against a fresh reopen of
    // nothing: report the final disk stats via the shared serializer.
    let disk_report = Json::obj([
        ("live_records", Json::from(summary.disk.live_records)),
        ("live_bytes", Json::from(summary.disk.live_bytes as usize)),
        ("dead_bytes", Json::from(summary.disk.dead_bytes as usize)),
        ("disk_bytes", Json::from(summary.disk.disk_bytes as usize)),
        ("segments", Json::from(summary.disk.segments)),
        ("shards", Json::from(summary.disk.shards)),
        ("appends", Json::from(summary.disk.appends)),
        ("recovered_records", Json::from(summary.disk.recovered_records)),
        ("torn_truncations", Json::from(summary.disk.torn_truncations)),
    ])
    .pretty();
    std::fs::create_dir_all("target")?;
    std::fs::write("target/store-report.json", disk_report)?;
    summary.accept()?;
    Ok(format!(
        "{t}\n{jobs} jobs per phase; cold {cold:.3?} at {ch:.1}% hits, \
         warm {warm:.3?} at {wh:.1}% hits (warmed {wn} entries from disk)\n\
         byte-identical outputs: {ident}; warm strictly better: {better}\n\
         wrote BENCH_store.json and target/store-report.json\n",
        t = t,
        jobs = summary.jobs,
        cold = summary.cold.wall,
        ch = 100.0 * summary.cold.cache.hit_rate(),
        warm = summary.warm.wall,
        wh = 100.0 * summary.warm.cache.hit_rate(),
        wn = summary.warm.warmed,
        ident = tick(summary.identical),
        better = tick(summary.warm_strictly_better),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_process_strictly_beats_cold() {
        let s = measure().unwrap();
        assert_eq!(s.jobs, 16);
        assert!(s.identical, "warm outputs must match cold outputs byte for byte");
        // Cold: one miss per base family (C3, C4), disk also cold.
        assert_eq!(s.cold.cache.assignment_misses, 2);
        assert_eq!(s.cold.cache.assignment_hits, 14);
        assert_eq!(s.cold.cache.disk_hits, 0);
        assert_eq!(s.cold.cache.disk_errors, 0);
        assert_eq!(s.cold.warmed, 0);
        // Warm: everything answered from the preloaded cache.
        assert_eq!(s.warm.warmed, 2, "warm() must preload both base families");
        assert_eq!(s.warm.cache.assignment_misses, 0);
        assert_eq!(s.warm.cache.assignment_hits, 16);
        assert_eq!(s.warm.cache.disk_errors, 0);
        // The second open replayed the first lifecycle's two records.
        assert_eq!(s.warm.recovered_records, 2);
        assert!(s.warm_strictly_better);
        assert!(s.warm.cache.hit_rate() == 1.0);
        assert!((s.cold.cache.hit_rate() - 0.875).abs() < 1e-12);
        assert!(s.accept().is_ok());
    }

    /// Every field but the wall times is a function of the input.
    #[test]
    fn measurement_is_a_pure_function_of_its_input() {
        let untimed = |mut s: StoreSummary| {
            s.cold.wall = Duration::ZERO;
            s.warm.wall = Duration::ZERO;
            s
        };
        let first = untimed(measure().unwrap());
        assert_eq!(first, untimed(measure().unwrap()));
        assert_eq!(first.threads, THREADS);
        assert_eq!(first.warm.recovered_records, 2);
        assert_eq!(first.warm.warmed, 2);
        assert_eq!(first.disk.live_records, 2);
    }

    #[test]
    fn diverged_outputs_fail_acceptance() {
        let summary = |identical, warm_strictly_better| StoreSummary {
            identical,
            warm_strictly_better,
            ..Default::default()
        };
        assert!(summary(true, true).accept().is_ok());
        let err = summary(false, true).accept().unwrap_err();
        assert!(err.to_string().contains("diverged"), "{err}");
        assert!(summary(true, false).accept().is_err());
    }

    #[test]
    fn json_parses_and_gates_are_visible() {
        let s = measure().unwrap();
        let v = Json::parse(&to_json(&s)).unwrap();
        assert_eq!(v.get("experiment").unwrap().as_str(), Some("store"));
        assert_eq!(v.get("warm_strictly_better").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("byte_identical").unwrap().as_bool(), Some(true));
        let warm = v.get("warm").unwrap();
        assert_eq!(warm.get("assignment_misses").unwrap().as_f64(), Some(0.0));
        assert!(
            warm.get("hit_rate").unwrap().as_f64().unwrap()
                > v.get("cold").unwrap().get("hit_rate").unwrap().as_f64().unwrap()
        );
    }
}
