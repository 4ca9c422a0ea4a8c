//! E15 — the batch engine and the content-addressed derandomization
//! cache, measured: sweep ≥ 8 lifts per base over two cyclic bases, run
//! the deterministic stage (a) sequentially with no cache and (b) on the
//! batch scheduler with a shared [`DerandCache`], and verify the outputs
//! are identical bit for bit while the cached batch collapses each lift
//! family's canonical search (paper, Lemma 3: one search per quotient
//! class) into a single miss plus replays.
//!
//! The rendered table reports per-instance wall times and hit/miss
//! status; the summary reports the headline speedup, jobs/sec, and cache
//! hit rate, and [`report`] additionally emits `BENCH_batch.json` with
//! the machine-readable numbers.

use std::sync::Arc;
use std::time::Duration;

use anonet_algorithms::mis::RandomizedMis;
use anonet_algorithms::problems::MisProblem;
use anonet_batch::{BatchScheduler, CacheStats, DerandCache};
use anonet_core::batch::derandomize_batch;
use anonet_core::{DerandomizedRun, SearchStrategy};
use anonet_graph::lift::cyclic_cycle_lift;
use anonet_graph::LabeledGraph;
use anonet_runtime::{ExecConfig, Problem};

use crate::experiments::common::{accept, tick};
use crate::experiments::ExpResult;
use crate::table::{secs, Json};
use crate::Table;

/// Lift multiplicities swept per base (8 lifts each, m = 2..=9).
pub const MULTIPLICITIES: std::ops::RangeInclusive<usize> = 2..=9;

/// Worker threads of the cached batch (E15) and of both store phases
/// (E18): fixed, so the reports do not depend on the machine.
pub const THREADS: usize = 2;

/// One instance of the sweep: a lift of one of the cyclic bases.
#[derive(Clone, Debug)]
pub struct BatchRow {
    /// Base graph name (`C3` or `C4`).
    pub base: &'static str,
    /// Lift multiplicity.
    pub m: usize,
    /// Nodes of the lifted instance.
    pub n: usize,
    /// Quotient size seen by the derandomizer (must equal the base size).
    pub quotient: usize,
    /// Whether the cached run hit the assignment table.
    pub cache_hit: bool,
    /// Wall time of the uncached sequential run.
    pub uncached: Duration,
    /// Wall time of the cached batch run.
    pub cached: Duration,
    /// The two runs agree on every recorded field, byte for byte.
    pub identical: bool,
    /// The derandomized output is a valid MIS of the lift.
    pub valid: bool,
}

/// The headline numbers of the sweep.
#[derive(Clone, Debug, Default)]
pub struct BatchSummary {
    /// Instances swept.
    pub jobs: usize,
    /// Worker threads of the batch scheduler.
    pub threads: usize,
    /// Wall time of the uncached sequential baseline.
    pub uncached_wall: Duration,
    /// Wall time of the cache-enabled batch.
    pub cached_wall: Duration,
    /// `uncached_wall / cached_wall`.
    pub speedup: f64,
    /// Throughput of the cache-enabled batch.
    pub jobs_per_sec: f64,
    /// Cache accounting for the batch window.
    pub cache: CacheStats,
    /// Every instance's cached run matched its uncached run byte for byte.
    pub all_identical: bool,
    /// Every instance's derandomized output is a valid MIS.
    pub all_valid: bool,
}

impl BatchSummary {
    /// The E15 acceptance gates: every row is byte-identical to its
    /// uncached run and valid.
    ///
    /// # Errors
    ///
    /// Names every gate that failed.
    pub fn accept(&self) -> ExpResult<()> {
        accept(&[
            ("cached outputs diverged from the uncached runs", self.all_identical),
            ("a derandomized output is not a valid MIS", self.all_valid),
        ])
    }
}

/// One batch instance: base-family name, multiplicity, colored lift.
type LiftInstance = (&'static str, usize, LabeledGraph<((), u32)>);

fn lift_families() -> ExpResult<Vec<LiftInstance>> {
    let mut instances = Vec::new();
    for (name, base_n) in [("C3", 3usize), ("C4", 4usize)] {
        let labels: Vec<((), u32)> = (0..base_n).map(|i| ((), i as u32 + 1)).collect();
        for m in MULTIPLICITIES {
            let lift = cyclic_cycle_lift(base_n, m)?;
            instances.push((name, m, lift.lift_labels(&labels)?));
        }
    }
    Ok(instances)
}

/// A canonical byte serialization of a run's observable fields, so
/// "identical outputs" is checked at the byte level rather than through
/// `PartialEq` shortcuts (E18 reuses this for its cold/warm differential).
pub(crate) fn run_bytes(run: &DerandomizedRun<bool>) -> Vec<u8> {
    let mut out = Vec::new();
    for &b in &run.outputs {
        out.push(b as u8);
    }
    out.extend_from_slice(&(run.quotient_nodes as u64).to_le_bytes());
    out.extend_from_slice(&(run.multiplicity as u64).to_le_bytes());
    out.extend_from_slice(&(run.simulation_rounds as u64).to_le_bytes());
    out.extend_from_slice(&(run.attempts as u64).to_le_bytes());
    for tape in run.assignment.tapes() {
        out.extend_from_slice(&(tape.len() as u64).to_le_bytes());
        for bit in tape.iter() {
            out.push(bit as u8);
        }
    }
    out
}

/// Runs the sweep: sequential-uncached baseline, then cache-enabled batch,
/// with the paper's exhaustive (minimal-assignment) search so the work a
/// hit saves is the full `2^(|V_*|·t)` enumeration.
///
/// # Errors
///
/// Propagates lift-construction and derandomization errors.
pub fn measure() -> ExpResult<(Vec<BatchRow>, BatchSummary)> {
    let instances = lift_families()?;
    let graphs: Vec<LabeledGraph<((), u32)>> =
        instances.iter().map(|(_, _, g)| g.clone()).collect();
    let alg = RandomizedMis::new();
    let strategy = SearchStrategy::Exhaustive { max_total_bits: 24 };
    let config = ExecConfig::default();

    // Baseline: every instance pays for its own exhaustive search.
    let baseline =
        derandomize_batch(&alg, &graphs, strategy, &config, &BatchScheduler::with_threads(1), None);

    // The engine under test: shared cache, fixed worker pool.
    let cache = Arc::new(DerandCache::new());
    let scheduler = BatchScheduler::with_threads(THREADS);
    let batch = derandomize_batch(&alg, &graphs, strategy, &config, &scheduler, Some(&cache));

    let mut rows = Vec::new();
    for (i, (name, m, g)) in instances.iter().enumerate() {
        let seq = baseline.results[i].ok().ok_or("baseline job failed")?;
        let par = batch.results[i].ok().ok_or("batch job failed")?;
        let plain = g.map_labels(|_| ());
        rows.push(BatchRow {
            base: name,
            m: *m,
            n: g.node_count(),
            quotient: par.quotient_nodes,
            cache_hit: par.cache_hit,
            uncached: baseline.stats.job_times[i],
            cached: batch.stats.job_times[i],
            identical: run_bytes(seq) == run_bytes(par),
            valid: MisProblem.is_valid_output(&plain, &par.outputs),
        });
    }

    let cache_stats = batch.stats.cache.ok_or("cache stats missing")?;
    let summary = BatchSummary {
        jobs: rows.len(),
        threads: batch.stats.threads,
        uncached_wall: baseline.stats.wall,
        cached_wall: batch.stats.wall,
        speedup: baseline.stats.wall.as_secs_f64()
            / batch.stats.wall.as_secs_f64().max(f64::EPSILON),
        jobs_per_sec: batch.stats.jobs_per_sec(),
        cache: cache_stats,
        all_identical: rows.iter().all(|r| r.identical),
        all_valid: rows.iter().all(|r| r.valid),
    };
    Ok((rows, summary))
}

/// Builds the machine-readable summary through the workspace's shared
/// JSON serializer ([`crate::table::Json`] — the dependency policy keeps
/// serde out, and E15 and E16 share this one code path).
pub fn to_json(rows: &[BatchRow], s: &BatchSummary) -> String {
    let row_objs = rows.iter().map(|r| {
        Json::obj([
            ("base", Json::str(r.base)),
            ("m", Json::from(r.m)),
            ("n", Json::from(r.n)),
            ("quotient", Json::from(r.quotient)),
            ("cache_hit", Json::from(r.cache_hit)),
            ("uncached_secs", secs(r.uncached)),
            ("cached_secs", secs(r.cached)),
            ("identical", Json::from(r.identical)),
            ("valid", Json::from(r.valid)),
        ])
    });
    Json::obj([
        ("experiment", Json::str("batch")),
        ("jobs", Json::from(s.jobs)),
        ("threads", Json::from(s.threads)),
        ("sequential_uncached_secs", secs(s.uncached_wall)),
        ("batch_cached_secs", secs(s.cached_wall)),
        ("speedup", Json::Num((s.speedup * 1e3).round() / 1e3)),
        ("jobs_per_sec", Json::Num((s.jobs_per_sec * 1e3).round() / 1e3)),
        ("byte_identical", Json::from(s.all_identical)),
        (
            "cache",
            Json::obj([
                ("assignment_entries", Json::from(s.cache.assignment_entries)),
                ("assignment_hits", Json::from(s.cache.assignment_hits)),
                ("assignment_misses", Json::from(s.cache.assignment_misses)),
                ("hit_rate", Json::Num((s.cache.hit_rate() * 1e4).round() / 1e4)),
                ("bytes", Json::from(s.cache.bytes)),
                // Persistence counters: all zero here (E15 runs
                // memory-only); E18 exercises the disk tier.
                ("disk_hits", Json::from(s.cache.disk_hits)),
                ("disk_misses", Json::from(s.cache.disk_misses)),
                ("disk_errors", Json::from(s.cache.disk_errors)),
            ]),
        ),
        ("rows", Json::arr(row_objs)),
    ])
    .pretty()
}

/// Renders the E15 report and writes `BENCH_batch.json` to the working
/// directory.
///
/// # Errors
///
/// Propagates measurement errors; the JSON write failing is an error,
/// and so is a failed acceptance gate ([`BatchSummary::accept`]).
pub fn report() -> ExpResult<String> {
    let (rows, summary) = measure()?;
    let mut t = Table::new(
        "E15 / batch engine — sequential uncached vs concurrent batch with the s(G_*) cache \
         (MIS, exhaustive minimal-assignment search)",
        &["base", "m", "n", "|V*|", "cache", "uncached", "cached", "identical", "valid"],
    );
    for r in &rows {
        t.row(vec![
            r.base.to_string(),
            r.m.to_string(),
            r.n.to_string(),
            r.quotient.to_string(),
            if r.cache_hit { "hit".into() } else { "miss".into() },
            format!("{:.2?}", r.uncached),
            format!("{:.2?}", r.cached),
            tick(r.identical),
            tick(r.valid),
        ]);
    }
    let json = to_json(&rows, &summary);
    std::fs::write("BENCH_batch.json", &json)?;
    summary.accept()?;
    Ok(format!(
        "{t}\n{jobs} jobs on {threads} thread(s): uncached sequential {unc:.3?}, \
         cached batch {cac:.3?} — speedup {spd:.2}x at {jps:.1} jobs/sec\n{cache}\n\
         byte-identical outputs: {ident}\nwrote BENCH_batch.json\n",
        t = t,
        jobs = summary.jobs,
        threads = summary.threads,
        unc = summary.uncached_wall,
        cac = summary.cached_wall,
        spd = summary.speedup,
        jps = summary.jobs_per_sec,
        cache = summary.cache.render(),
        ident = tick(summary.all_identical),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_identical_and_cache_hits() {
        let (rows, summary) = measure().unwrap();
        // 8 lifts per base, two bases.
        assert_eq!(rows.len(), 16);
        assert_eq!(summary.threads, THREADS);
        assert!(summary.all_identical);
        assert!(rows.iter().all(|r| r.valid));
        assert!(summary.accept().is_ok());
        // One miss per base family, hits everywhere else.
        assert_eq!(summary.cache.assignment_misses, 2);
        assert_eq!(summary.cache.assignment_hits, 14);
        assert!(summary.cache.hit_rate() > 0.8);
        // Quotients collapse to the bases.
        assert!(rows.iter().all(|r| r.quotient == if r.base == "C3" { 3 } else { 4 }));
    }

    #[test]
    fn diverged_or_invalid_rows_fail_acceptance() {
        let summary = |all_identical, all_valid| BatchSummary {
            all_identical,
            all_valid,
            ..Default::default()
        };
        assert!(summary(true, true).accept().is_ok());
        let err = summary(false, true).accept().unwrap_err();
        assert!(err.to_string().contains("diverged"), "{err}");
        let err = summary(true, false).accept().unwrap_err();
        assert!(err.to_string().contains("valid"), "{err}");
    }

    #[test]
    fn json_parses_and_carries_the_schema() {
        let (rows, summary) = measure().unwrap();
        let json = to_json(&rows, &summary);
        // The artifact must re-parse through the shared serializer.
        let v = Json::parse(&json).unwrap();
        assert_eq!(v.get("experiment").unwrap().as_str(), Some("batch"));
        assert_eq!(v.get("jobs").unwrap().as_f64(), Some(16.0));
        assert_eq!(v.get("byte_identical").unwrap().as_bool(), Some(true));
        let cache = v.get("cache").unwrap();
        assert_eq!(cache.get("assignment_misses").unwrap().as_f64(), Some(2.0));
        let parsed_rows = v.get("rows").unwrap().items().unwrap();
        assert_eq!(parsed_rows.len(), 16);
        assert_eq!(parsed_rows[0].get("base").unwrap().as_str(), Some("C3"));
        assert!(parsed_rows[0].get("uncached_secs").unwrap().as_f64().unwrap() >= 0.0);
    }
}
