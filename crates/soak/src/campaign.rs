//! The campaign driver: sweep a [`CampaignGrid`], measure every cell.
//!
//! Each cell runs the conformance oracles over its seeded case stream,
//! then two batch passes against the campaign's one shared
//! [`PersistentDerandCache`] — a *cold* pass that does the work and a
//! *warm* pass that must answer every lookup from cache and reproduce
//! the cold outputs byte for byte. Every hit count is exact-match
//! material for the sentinel: cache lookups are single-flight, so the
//! cold pass misses exactly once per fresh quotient at any thread count,
//! and with everything resident `warm_hits == jobs` and
//! `warm_misses == 0`.
//!
//! All seeds derive from [`CampaignCell::cases`]; wall-clock only ever
//! lands in the explicitly timing-typed fields of [`CellReport`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use anonet_algorithms::mis::RandomizedMis;
use anonet_algorithms::problems::MisProblem;
use anonet_batch::{BatchScheduler, CacheStats, PersistentDerandCache};
use anonet_core::astar::{run_astar, AStarConfig};
use anonet_core::{derandomize_batch, DerandomizedRun, Derandomizer, SearchStrategy};
use anonet_graph::LabeledGraph;
use anonet_obs::{names, noop, MemoryRecorder, Recorder, SharedRecorder, Span};
use anonet_runtime::ExecConfig;
use anonet_store::StoreConfig;
use anonet_testkit::{build_instance, CampaignCell, CampaignGrid, Suite, TestCase};

use crate::{Result, SoakError};

/// Everything that determines a campaign (and therefore its report,
/// modulo timings): the grid, the seed, the reps per cell, and the
/// optional wall-clock budget after which remaining cells are skipped.
/// The recorder only observes the campaign.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// The cell grid to sweep.
    pub grid: CampaignGrid,
    /// Base seed every cell's case stream derives from.
    pub base_seed: u64,
    /// Cases per cell.
    pub reps: usize,
    /// Stop *starting* cells once this much wall time has elapsed; the
    /// report marks itself truncated and lists the skipped cells.
    pub budget: Option<Duration>,
    /// Receives `soak.*` metrics and the campaign's causal span tree
    /// (default: the no-op recorder).
    pub recorder: SharedRecorder,
}

impl CampaignConfig {
    /// The default campaign: the full 96-cell grid, two cases per cell.
    /// This is what `anonet-soak run` executes and what the committed
    /// `BENCH_soak.json` baseline is generated from.
    pub fn full() -> CampaignConfig {
        CampaignConfig {
            grid: CampaignGrid::full(),
            base_seed: 0xA11CE,
            reps: 2,
            budget: None,
            recorder: noop(),
        }
    }

    /// The three-cell mini-campaign used by the default test suite.
    pub fn smoke() -> CampaignConfig {
        CampaignConfig { grid: CampaignGrid::smoke(), reps: 1, ..CampaignConfig::full() }
    }
}

/// Per-cell measurements. Every field except the four timing fields
/// (`wall`, `job_wall_median`, `job_wall_p95`, `update_graph`) is a pure
/// function of the campaign config — the sentinel exact-matches those
/// and noise-bands the timings.
#[derive(Clone, Debug, PartialEq)]
pub struct CellReport {
    /// The cell's coordinate id (see [`CampaignCell::id`]).
    pub id: String,
    /// `tc1:…` replay string of the cell's first case.
    pub replay: String,
    /// Cases measured in the cell.
    pub cases: u64,
    /// Largest quotient `|V_*|` seen across the cell's runs.
    pub quotient_nodes: u64,
    /// Warm-pass outputs were byte-identical to cold-pass outputs.
    pub byte_identical: bool,
    /// Cold-pass assignment hits — deterministic, exact-match material.
    pub cold_hits: u64,
    /// Cold-pass assignment misses: one per fresh quotient.
    pub cold_misses: u64,
    /// Warm-pass assignment hits — deterministic, exact-match material.
    pub warm_hits: u64,
    /// Warm-pass assignment misses — deterministic (always 0 when the
    /// cache is large enough to keep the campaign resident).
    pub warm_misses: u64,
    /// Disk-tier hits across both passes.
    pub disk_hits: u64,
    /// Engine messages of the cell's seeded pipeline probe.
    pub messages: u64,
    /// Engine message bytes of the probe.
    pub message_bytes: u64,
    /// Cold-pass wall time (informational: includes first-touch disk
    /// writes and pool spinup, so the sentinel does not gate it).
    pub wall: Duration,
    /// Steady-state replay wall: the minimum wall over the warm passes.
    /// Deterministic work answered entirely from cache, so the min is
    /// the stable timing signal the sentinel gates as a share of total.
    pub warm_wall: Duration,
    /// Median cold-pass job wall time.
    pub job_wall_median: Duration,
    /// 95th-percentile cold-pass job wall time.
    pub job_wall_p95: Duration,
    /// `update_graph` span time of the `A_*` probe (zero when the cell's
    /// quotients are too large to probe).
    pub update_graph: Duration,
}

/// One conformance-oracle failure observed during a campaign.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OracleFailure {
    /// The cell the failing case belongs to.
    pub cell: String,
    /// `tc1:…` replay string of the failing case.
    pub replay: String,
    /// Oracle name (e.g. `renumbering-invariance`).
    pub oracle: String,
    /// Failure detail.
    pub detail: String,
}

/// A whole campaign's results — the in-memory form of `BENCH_soak.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct SoakReport {
    /// Base seed the campaign derived every case from.
    pub base_seed: u64,
    /// Cases per cell.
    pub reps: u64,
    /// The budget the run was given, if any.
    pub budget_secs: Option<u64>,
    /// `true` when the budget expired before the grid was exhausted.
    pub truncated: bool,
    /// Measured cells, in grid order.
    pub cells: Vec<CellReport>,
    /// Ids of cells skipped by the budget.
    pub skipped: Vec<String>,
    /// Every oracle failure, with its replay string.
    pub failures: Vec<OracleFailure>,
    /// Whole-campaign wall time.
    pub total_wall: Duration,
}

impl SoakReport {
    /// Sum of the measured cells' cold-pass walls (the denominator for
    /// the sentinel's share-of-total comparison).
    pub fn cell_wall_total(&self) -> Duration {
        self.cells.iter().map(|c| c.wall).sum()
    }
}

/// FNV-1a over a run's outputs and replay-relevant metadata — the
/// byte-identity witness the warm pass is checked against.
fn run_fingerprint(run: &DerandomizedRun<bool>) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mix = |hash: &mut u64, v: u64| {
        *hash ^= v;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for &out in &run.outputs {
        mix(&mut hash, u64::from(out) + 1);
    }
    mix(&mut hash, run.quotient_nodes as u64);
    mix(&mut hash, run.multiplicity as u64);
    mix(&mut hash, run.simulation_rounds as u64);
    mix(&mut hash, run.attempts as u64);
    hash
}

/// Median of `xs` (by sorted order); zero for an empty slice.
pub(crate) fn median(xs: &[Duration]) -> Duration {
    percentile(xs, 50)
}

/// The `p`-th percentile of `xs` (nearest-rank); zero for an empty slice.
pub(crate) fn percentile(xs: &[Duration], p: u32) -> Duration {
    if xs.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_unstable();
    let rank = (p as usize * sorted.len()).div_ceil(100);
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// The cold/warm batch window counters a cell reports, taken from the
/// batch driver's own per-window [`CacheStats`] delta.
fn window(stats: Option<&CacheStats>) -> (u64, u64, u64) {
    match stats {
        Some(s) => (s.assignment_hits, s.assignment_misses, s.disk_hits),
        None => (0, 0, 0),
    }
}

/// Runs one cell against the shared persistent cache.
fn run_cell(
    cell: &CampaignCell,
    cases: &[TestCase],
    pdc: &PersistentDerandCache,
    suite: &Suite<RandomizedMis, MisProblem, fn(u32)>,
    failures: &mut Vec<OracleFailure>,
    recorder: &SharedRecorder,
) -> Result<CellReport> {
    let rec: &dyn Recorder = &**recorder;
    let cell_span = Span::new(rec, names::SPAN_SOAK_CELL);
    let id = cell.id();
    let first = cases.first().ok_or_else(|| SoakError::Cell {
        cell: id.clone(),
        replay: String::new(),
        detail: "cell has no cases (reps = 0)".into(),
    })?;
    let replay = first.to_string();
    // The replay string on the root span is what lets a trace-analysis
    // pass name the exact failing case without the report JSON.
    cell_span.attr("cell", id.as_str());
    cell_span.attr("replay", replay.as_str());
    cell_span.attr("threads", cell.threads as u64);

    // 1. Conformance oracles over the whole case stream.
    for case in cases {
        if let Err(f) = suite.check(case) {
            failures.push(OracleFailure {
                cell: id.clone(),
                replay: case.to_string(),
                oracle: f.oracle,
                detail: f.detail,
            });
        }
    }

    // 2. Build the cell's instances: the colored graphs with `((), c)`
    // labels the MIS derandomizer consumes.
    let mut instances: Vec<LabeledGraph<((), u32)>> = Vec::with_capacity(cases.len());
    for case in cases {
        let inst = build_instance(case)?;
        let labels: Vec<((), u32)> = inst.colors.labels().iter().map(|&c| ((), c)).collect();
        instances.push(inst.colors.graph().with_labels(labels)?);
    }

    // 3. Cold pass, then warm pass, on the cell's thread count.
    let alg = RandomizedMis::new();
    let strategy = SearchStrategy::default();
    let config = ExecConfig::default();
    let scheduler = BatchScheduler::with_threads(cell.threads).with_recorder(Arc::clone(recorder));
    let cache = Arc::clone(pdc.cache());

    let cold = derandomize_batch(&alg, &instances, strategy, &config, &scheduler, Some(&cache));
    let mut cold_prints = Vec::with_capacity(instances.len());
    let mut quotient_nodes = 0u64;
    for result in &cold.results {
        let run = result.ok().ok_or_else(|| SoakError::Cell {
            cell: id.clone(),
            replay: replay.clone(),
            detail: "cold-pass batch job failed".into(),
        })?;
        quotient_nodes = quotient_nodes.max(run.quotient_nodes as u64);
        cold_prints.push(run_fingerprint(run));
    }
    let warm = derandomize_batch(&alg, &instances, strategy, &config, &scheduler, Some(&cache));
    let mut warm_prints = Vec::with_capacity(instances.len());
    for result in &warm.results {
        let run = result.ok().ok_or_else(|| SoakError::Cell {
            cell: id.clone(),
            replay: replay.clone(),
            detail: "warm-pass batch job failed".into(),
        })?;
        warm_prints.push(run_fingerprint(run));
    }
    let (cold_hits, cold_misses, cold_disk) = window(cold.stats.cache.as_ref());
    let (warm_hits, warm_misses, warm_disk) = window(warm.stats.cache.as_ref());

    // Steady-state replay wall: min over the first warm pass and two
    // more fully-cached repeats. The min discards scheduler stalls and
    // first-touch effects, which dominate sub-millisecond cells.
    let mut warm_wall = warm.stats.wall;
    for _ in 0..2 {
        let repeat =
            derandomize_batch(&alg, &instances, strategy, &config, &scheduler, Some(&cache));
        if repeat.results.iter().all(|r| r.ok().is_some()) {
            warm_wall = warm_wall.min(repeat.stats.wall);
        }
    }

    // 4. Bytes/messages probe: one seeded end-to-end pipeline run of the
    // first case, bridged through the obs engine counters.
    let mem = Arc::new(MemoryRecorder::new());
    let net = instances
        .first()
        .map(|g| g.graph().with_labels(vec![(); g.node_count()]))
        .transpose()?
        .ok_or_else(|| SoakError::Cell {
            cell: id.clone(),
            replay: replay.clone(),
            detail: "cell built no instances".into(),
        })?;
    Derandomizer::new(alg).with_recorder(mem.clone()).pipeline(&net, first.seed)?;
    let probe = mem.snapshot();

    // 5. `A_*` update-graph probe, only where the engine is feasible
    // (tiny quotient, tiny instance — the same gate the suite uses).
    let mut update_graph = Duration::ZERO;
    let astar_target = cold.results.iter().enumerate().find_map(|(i, r)| {
        let run = r.ok()?;
        (run.quotient_nodes <= 3 && instances[i].node_count() <= 6).then_some(i)
    });
    if let Some(i) = astar_target {
        let astar_mem = Arc::new(MemoryRecorder::new());
        let astar_cfg = AStarConfig { recorder: astar_mem.clone(), ..Default::default() };
        run_astar(&alg, &MisProblem, &instances[i], &astar_cfg)?;
        update_graph = astar_mem.snapshot().span_total(names::SPAN_UPDATE_GRAPH).total;
    }

    rec.counter(names::SOAK_CASES, cases.len() as u64);
    rec.counter(names::SOAK_CELLS, 1);
    rec.histogram(names::SOAK_CELL_WALL_US, cold.stats.wall.as_micros() as u64);

    Ok(CellReport {
        id,
        replay,
        cases: cases.len() as u64,
        quotient_nodes,
        byte_identical: cold_prints == warm_prints,
        cold_hits,
        cold_misses,
        warm_hits,
        warm_misses,
        disk_hits: cold_disk + warm_disk,
        messages: probe.counter(names::ENGINE_MESSAGES),
        message_bytes: probe.counter(names::ENGINE_MESSAGE_BYTES),
        wall: cold.stats.wall,
        warm_wall,
        job_wall_median: median(&cold.stats.job_times),
        job_wall_p95: percentile(&cold.stats.job_times, 95),
        update_graph,
    })
}

/// Runs a whole campaign, emitting `soak.*` metrics and a causal span
/// tree to `cfg.recorder`.
///
/// The persistent cache lives in a throwaway directory for the duration
/// of the campaign, so disk-tier behavior is exercised without coupling
/// runs to each other. The recorder is shared with the cache's store and
/// every cell's batch scheduler, so one trace carries the whole chain:
/// `soak_campaign` → `soak_cell` (with its `tc1:` replay string as an
/// attribute) → `batch_run` → worker `job`s, plus `segment_*` spans from
/// the disk tier.
///
/// # Errors
///
/// Propagates generator, pipeline, store, and per-cell batch failures.
/// Oracle *violations* are not errors — they land in
/// [`SoakReport::failures`] with replay strings, and the sentinel turns
/// them into a failing check.
pub fn run_campaign(cfg: &CampaignConfig) -> Result<SoakReport> {
    let recorder = &cfg.recorder;
    let rec: &dyn Recorder = &**recorder;
    let _campaign_span = Span::new(rec, names::SPAN_SOAK_CAMPAIGN);
    let started = Instant::now();
    // Process id + in-process counter: campaigns never share (or clobber)
    // a cache directory, even when a test harness runs several at once.
    static CAMPAIGNS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let stamp = CAMPAIGNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("anonet-soak-cache-{}-{stamp}", std::process::id()));
    // A stale cache directory would warm-start the campaign and
    // invalidate its cold-path numbers; only "already absent" is benign.
    if let Err(e) = std::fs::remove_dir_all(&dir) {
        if e.kind() != std::io::ErrorKind::NotFound {
            return Err(SoakError::Io {
                context: format!("clearing campaign cache dir {}", dir.display()),
                source: e,
            });
        }
    }
    let pdc = PersistentDerandCache::open_with(
        StoreConfig::new(&dir).with_recorder(Arc::clone(recorder)),
        None,
    )?;
    let suite: Suite<RandomizedMis, MisProblem, fn(u32)> =
        Suite::new("soak-mis", RandomizedMis::new(), MisProblem, (|_| ()) as fn(u32)).with_astar();

    let mut cells = Vec::new();
    let mut skipped = Vec::new();
    let mut failures = Vec::new();
    let mut truncated = false;
    for cell in cfg.grid.cells() {
        if let Some(budget) = cfg.budget {
            if started.elapsed() > budget {
                truncated = true;
                skipped.push(cell.id());
                continue;
            }
        }
        let cases = cell.cases(cfg.base_seed, cfg.reps);
        cells.push(run_cell(&cell, &cases, &pdc, &suite, &mut failures, recorder)?);
    }
    pdc.flush()?;
    if let Err(e) = std::fs::remove_dir_all(&dir) {
        eprintln!("anonet-soak: could not remove campaign cache dir {}: {e}", dir.display());
    }

    rec.counter(names::SOAK_CELLS_SKIPPED, skipped.len() as u64);
    rec.counter(names::SOAK_ORACLE_FAILURES, failures.len() as u64);

    Ok(SoakReport {
        base_seed: cfg.base_seed,
        reps: cfg.reps as u64,
        budget_secs: cfg.budget.map(|b| b.as_secs()),
        truncated,
        cells,
        skipped,
        failures,
        total_wall: started.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let ms: Vec<Duration> = (1..=10).map(Duration::from_millis).collect();
        assert_eq!(median(&ms), Duration::from_millis(5));
        assert_eq!(percentile(&ms, 95), Duration::from_millis(10));
        assert_eq!(percentile(&ms, 100), Duration::from_millis(10));
        assert_eq!(percentile(&[], 50), Duration::ZERO);
        assert_eq!(median(&[Duration::from_millis(7)]), Duration::from_millis(7));
    }

    #[test]
    fn campaign_trace_is_one_causal_tree() {
        let mem = Arc::new(MemoryRecorder::new());
        run_campaign(&CampaignConfig { recorder: mem.clone(), ..CampaignConfig::smoke() }).unwrap();
        let snap = mem.snapshot();
        assert_eq!(snap.span(names::SPAN_SOAK_CAMPAIGN).unwrap().count, 1);
        assert_eq!(snap.span("soak_campaign/soak_cell").unwrap().count, 3);
        assert!(
            snap.span("soak_campaign/soak_cell/batch_run/job").unwrap().count > 0,
            "worker jobs must stay parented under their cell"
        );
        assert!(snap.span("soak_campaign/store_open").is_some(), "store shares the trace");
        assert!(snap.span(names::SPAN_SOAK_CELL).is_none(), "cells must not be orphan roots");
        assert!(snap.span(names::SPAN_JOB).is_none(), "jobs must not be orphan roots");
    }

    #[test]
    fn smoke_campaign_is_deterministic_modulo_timings() {
        let cfg = CampaignConfig::smoke();
        let a = run_campaign(&cfg).unwrap();
        let b = run_campaign(&cfg).unwrap();
        assert_eq!(a.cells.len(), 3);
        assert!(a.failures.is_empty(), "oracles must pass: {:?}", a.failures);
        assert!(!a.truncated);
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.replay, y.replay);
            assert_eq!(x.cases, y.cases);
            assert_eq!(x.quotient_nodes, y.quotient_nodes);
            assert_eq!(x.byte_identical, y.byte_identical);
            assert!(x.byte_identical);
            assert_eq!((x.warm_hits, x.warm_misses), (y.warm_hits, y.warm_misses));
            assert_eq!(x.warm_hits, x.cases, "warm pass answers every job from cache");
            assert_eq!(x.warm_misses, 0);
            assert_eq!((x.messages, x.message_bytes), (y.messages, y.message_bytes));
            assert!(x.messages > 0);
        }
    }
}
