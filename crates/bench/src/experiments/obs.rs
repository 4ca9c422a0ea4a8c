//! E16 — the observability layer measured: per-phase wall-time breakdown
//! of the Theorem-1 pipeline (coloring / views / search / lift
//! and the faithful `A_*`'s Update-Graph / Update-Output / Update-Bits),
//! per-round message and bit curves across graph families, and the cost
//! of observing at all — the no-op recorder must stay within 5% of the
//! un-instrumented entry point.
//!
//! [`report`] writes two artifacts: `BENCH_obs.json` (via the shared
//! [`Json`] serializer, like E15) and `BENCH_obs_trace.jsonl`, one
//! streamed JSON line per metric event of a representative run.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use anonet_algorithms::mis::RandomizedMis;
use anonet_algorithms::problems::MisProblem;
use anonet_algorithms::two_hop_coloring::TwoHopColoring;
use anonet_core::astar::{run_astar, AStarConfig};
use anonet_core::pipeline::run_pipeline;
use anonet_core::{Derandomizer, SearchStrategy};
use anonet_graph::generators;
use anonet_obs::{names, Histogram, JsonlRecorder, MemoryRecorder, MemorySnapshot, SharedRecorder};
use anonet_runtime::{run, ExecConfig, Oblivious, Problem, RngSource};

use crate::experiments::common::{round3, tick};
use crate::experiments::{ExpResult, Family};
use crate::table::{secs, Json};
use crate::Table;

/// Seed shared by every run of the experiment (the curves are
/// deterministic given it).
pub const SEED: u64 = 7;

/// The families profiled (a subset of [`Family::standard`] — the issue
/// floor is three; we run four shapes: cycle, path, torus, Petersen).
pub const FAMILY_NAMES: &[&str] = &["cycle-12", "path-12", "torus-3x4", "petersen"];

/// Pipeline span leaves reported in the phase breakdown.
const PIPELINE_PHASES: &[&str] =
    &[names::SPAN_COLORING, names::SPAN_VIEWS, names::SPAN_SEARCH, names::SPAN_LIFT];

/// `A_*` span leaves reported in the phase breakdown.
const ASTAR_PHASES: &[&str] =
    &[names::SPAN_UPDATE_GRAPH, names::SPAN_UPDATE_OUTPUT, names::SPAN_UPDATE_BITS];

/// One profiled family: bridged engine metrics plus per-round curves.
#[derive(Clone, Debug)]
pub struct ObsRow {
    /// Family name.
    pub family: String,
    /// Nodes.
    pub n: usize,
    /// Rounds of the randomized coloring stage.
    pub rounds: u64,
    /// Messages delivered in stage 1.
    pub messages: u64,
    /// Message payload bytes delivered in stage 1.
    pub message_bytes: u64,
    /// Random bits drawn (all of them in stage 1).
    pub bits_drawn: u64,
    /// Quotient size seen by the deterministic stage.
    pub quotient: usize,
    /// View-refinement stabilization depth.
    pub view_depth: u64,
    /// Messages delivered in each round of stage 1.
    pub messages_per_round: Vec<usize>,
    /// Active nodes per round of stage 1 — each draws one bit per round,
    /// so this *is* the bits-drawn curve.
    pub bits_per_round: Vec<usize>,
    /// The full recorder snapshot of the observed pipeline run.
    pub snapshot: MemorySnapshot,
}

/// The whole E16 measurement.
#[derive(Clone, Debug)]
pub struct ObsMeasurement {
    /// Per-family profiles.
    pub rows: Vec<ObsRow>,
    /// Phase → total wall time, aggregated across all observed runs.
    pub phases: Vec<(&'static str, Duration)>,
    /// min-of-N wall time of the un-instrumented entry point.
    pub plain: Duration,
    /// min-of-N wall time under the no-op recorder (must be ≈ `plain`).
    pub noop: Duration,
    /// min-of-N wall time under a live [`MemoryRecorder`] (informational).
    pub memory: Duration,
}

impl ObsMeasurement {
    /// `noop / plain` — the cost of threading a disabled recorder through.
    pub fn noop_overhead(&self) -> f64 {
        self.noop.as_secs_f64() / self.plain.as_secs_f64().max(f64::EPSILON)
    }

    /// `memory / plain` — the cost of actually aggregating.
    pub fn memory_overhead(&self) -> f64 {
        self.memory.as_secs_f64() / self.plain.as_secs_f64().max(f64::EPSILON)
    }
}

fn families() -> Vec<Family> {
    Family::standard(SEED).into_iter().filter(|f| FAMILY_NAMES.contains(&f.name)).collect()
}

/// Profiles the pipeline on every family, the faithful `A_*` on the
/// colored triangle, and the recorder overheads.
///
/// # Errors
///
/// Propagates pipeline/`A_*` errors — any failure is a regression.
pub fn measure() -> ExpResult<ObsMeasurement> {
    let alg = RandomizedMis::new();
    let config = ExecConfig::default();

    // Per-family observed pipeline runs + standalone stage-1 curves.
    let mut rows = Vec::new();
    for family in families() {
        let net = family.graph.with_uniform_label(());
        let rec = Arc::new(MemoryRecorder::new());
        let pipe = Derandomizer::new(alg).with_recorder(rec.clone()).pipeline(&net, SEED)?;
        let snapshot = rec.snapshot();

        // The curves come from re-running stage 1 alone with the same
        // seed — deterministic, so the totals match the bridged counters
        // (the test pins this down).
        let stage1 =
            run(&Oblivious(TwoHopColoring::new()), &net, &mut RngSource::seeded(SEED), &config)?;

        rows.push(ObsRow {
            family: family.name.to_string(),
            n: net.node_count(),
            rounds: snapshot.counter(names::ENGINE_ROUNDS),
            messages: snapshot.counter(names::ENGINE_MESSAGES),
            message_bytes: snapshot.counter(names::ENGINE_MESSAGE_BYTES),
            bits_drawn: snapshot.counter(names::ENGINE_BITS_DRAWN),
            quotient: pipe.deterministic.quotient_nodes,
            view_depth: snapshot
                .histogram(names::DERAND_VIEW_DEPTH)
                .and_then(|h| h.max())
                .unwrap_or(0),
            messages_per_round: stage1.messages_per_round().to_vec(),
            bits_per_round: stage1.active_per_round().to_vec(),
            snapshot,
        });
    }

    // The faithful A_* on the colored triangle, for the Update-* phases.
    let triangle = generators::cycle(3)?.with_labels(vec![((), 1u32), ((), 2), ((), 3)])?;
    let astar_rec = Arc::new(MemoryRecorder::new());
    let astar_cfg = AStarConfig { recorder: astar_rec.clone(), ..Default::default() };
    let astar = run_astar(&alg, &MisProblem, &triangle, &astar_cfg)?;
    let plain_triangle = triangle.map_labels(|_| ());
    if !MisProblem.is_valid_output(&plain_triangle, &astar.outputs) {
        return Err("A_* produced an invalid MIS on the triangle".into());
    }
    let astar_snap = astar_rec.snapshot();

    // Phase breakdown: pipeline leaves summed across families, plus the
    // A_* phases from the triangle run.
    let mut phases: Vec<(&'static str, Duration)> = Vec::new();
    for &leaf in PIPELINE_PHASES {
        let total = rows.iter().map(|r| r.snapshot.span_total(leaf).total).sum();
        phases.push((leaf, total));
    }
    for &leaf in ASTAR_PHASES {
        phases.push((leaf, astar_snap.span_total(leaf).total));
    }

    // Overhead: the un-instrumented entry point, the same path with an
    // explicit no-op recorder, and a live memory recorder.
    let plain = petersen_pipeline_wall(None)?;
    let noop = petersen_pipeline_wall(Some(anonet_obs::noop()))?;
    let memory = petersen_pipeline_wall(Some(Arc::new(MemoryRecorder::new())))?;

    Ok(ObsMeasurement { rows, phases, plain, noop, memory })
}

/// Min-of-5 end-to-end wall time of the MIS pipeline on the Petersen graph
/// at [`SEED`]: through the plain [`run_pipeline`] entry point for `None`,
/// else through a [`Derandomizer`] observed by the given recorder. E16 and
/// E20 measure their recorder overheads with it.
///
/// # Errors
///
/// Propagates pipeline errors.
pub(crate) fn petersen_pipeline_wall(recorder: Option<SharedRecorder>) -> ExpResult<Duration> {
    let alg = RandomizedMis::new();
    let net = generators::petersen().with_uniform_label(());
    let observed = recorder.map(|r| Derandomizer::new(alg).with_recorder(r));
    let mut best = Duration::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        match &observed {
            Some(derandomizer) => derandomizer.pipeline(&net, SEED)?,
            None => run_pipeline(&alg, &net, SEED, SearchStrategy::default())?,
        };
        best = best.min(t.elapsed());
    }
    Ok(best)
}

/// Streams one representative observed run (Petersen) through `rec` and
/// returns the run's output count, so callers can point the JSONL stream
/// at a file or a buffer.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn trace_representative(rec: &SharedRecorder) -> ExpResult<usize> {
    let net = generators::petersen().with_uniform_label(());
    let pipe = Derandomizer::new(RandomizedMis::new())
        .with_recorder(Arc::clone(rec))
        .pipeline(&net, SEED)?;
    Ok(pipe.outputs.len())
}

/// Histograms merged across the per-family snapshots — the quantile
/// surfacing both the JSON artifact and the report table draw from.
pub fn merged_histograms(m: &ObsMeasurement) -> BTreeMap<String, Histogram> {
    let mut merged: BTreeMap<String, Histogram> = BTreeMap::new();
    for r in &m.rows {
        for (name, h) in r.snapshot.histograms() {
            merged.entry(name.to_string()).or_default().merge(h);
        }
    }
    merged
}

/// Builds `BENCH_obs.json` through the shared serializer.
pub fn to_json(m: &ObsMeasurement, trace_lines: usize) -> String {
    let phase_breakdown = Json::obj(m.phases.iter().map(|&(name, total)| (name, secs(total))));
    let families = m.rows.iter().map(|r| {
        Json::obj([
            ("name", Json::str(&r.family)),
            ("n", Json::from(r.n)),
            ("rounds", Json::from(r.rounds)),
            ("messages", Json::from(r.messages)),
            ("message_bytes", Json::from(r.message_bytes)),
            ("bits_drawn", Json::from(r.bits_drawn)),
            ("quotient_nodes", Json::from(r.quotient)),
            ("view_depth", Json::from(r.view_depth)),
            ("messages_per_round", Json::arr(r.messages_per_round.iter().map(|&v| Json::from(v)))),
            ("bits_per_round", Json::arr(r.bits_per_round.iter().map(|&v| Json::from(v)))),
        ])
    });
    let histograms = Json::obj(merged_histograms(m).into_iter().map(|(name, h)| {
        let (p50, p90, p99) = h.quantiles().unwrap_or((0, 0, 0));
        (
            name,
            Json::obj([
                ("count", Json::from(h.count())),
                ("p50", Json::from(p50)),
                ("p90", Json::from(p90)),
                ("p99", Json::from(p99)),
                ("max", Json::from(h.max().unwrap_or(0))),
            ]),
        )
    }));
    Json::obj([
        ("experiment", Json::str("obs")),
        ("seed", Json::from(SEED)),
        ("phase_breakdown", phase_breakdown),
        ("histograms", histograms),
        ("plain_secs", secs(m.plain)),
        ("noop_secs", secs(m.noop)),
        ("memory_secs", secs(m.memory)),
        ("noop_overhead", Json::Num(round3(m.noop_overhead()))),
        ("memory_overhead", Json::Num(round3(m.memory_overhead()))),
        ("families", Json::arr(families)),
        ("trace_lines", Json::from(trace_lines)),
    ])
    .pretty()
}

/// Renders the E16 report and writes `BENCH_obs.json` plus
/// `BENCH_obs_trace.jsonl` to the working directory.
///
/// # Errors
///
/// Propagates measurement errors; artifact I/O failing is an error too.
pub fn report() -> ExpResult<String> {
    let m = measure()?;

    let mut fam_table = Table::new(
        "E16 / observability — stage-1 engine metrics per family (MIS pipeline, bridged \
         through anonet-obs)",
        &["family", "n", "rounds", "msgs", "bytes", "bits", "|V*|", "depth", "curves"],
    );
    for r in &m.rows {
        fam_table.row(vec![
            r.family.clone(),
            r.n.to_string(),
            r.rounds.to_string(),
            r.messages.to_string(),
            r.message_bytes.to_string(),
            r.bits_drawn.to_string(),
            r.quotient.to_string(),
            r.view_depth.to_string(),
            tick(
                r.messages_per_round.iter().sum::<usize>() as u64 == r.messages
                    && r.bits_per_round.iter().sum::<usize>() as u64 == r.bits_drawn,
            ),
        ]);
    }

    let mut phase_table = Table::new(
        "E16 / observability — per-phase wall-time breakdown (pipeline spans summed across \
         families; Update-* from A_* on the colored triangle)",
        &["phase", "total"],
    );
    for &(name, total) in &m.phases {
        phase_table.row(vec![name.to_string(), format!("{total:.2?}")]);
    }

    let mut hist_table = Table::new(
        "E16 / observability — histogram quantiles (bucket upper bounds, merged across \
         families)",
        &["histogram", "n", "p50", "p90", "p99", "max"],
    );
    for (name, h) in merged_histograms(&m) {
        let (p50, p90, p99) = h.quantiles().unwrap_or((0, 0, 0));
        hist_table.row(vec![
            name,
            h.count().to_string(),
            p50.to_string(),
            p90.to_string(),
            p99.to_string(),
            h.max().unwrap_or(0).to_string(),
        ]);
    }

    // Stream the representative run's metric events as JSONL.
    let jsonl = Arc::new(JsonlRecorder::create("BENCH_obs_trace.jsonl")?);
    let shared: SharedRecorder = jsonl.clone();
    trace_representative(&shared)?;
    jsonl.flush()?;
    let trace = std::fs::read_to_string("BENCH_obs_trace.jsonl")?;
    let mut trace_lines = 0usize;
    for line in trace.lines() {
        Json::parse(line).map_err(|e| format!("bad trace line: {e}"))?;
        trace_lines += 1;
    }

    let json = to_json(&m, trace_lines);
    std::fs::write("BENCH_obs.json", &json)?;

    Ok(format!(
        "{fam_table}\n{phase_table}\n{hist_table}\n\
         petersen pipeline (min of 5): plain {plain:.3?}, noop-observed {noop:.3?} \
         ({noop_x:.3}x), memory-observed {mem:.3?} ({mem_x:.3}x)\n\
         noop overhead under 5%: {ok}\n\
         wrote BENCH_obs.json and BENCH_obs_trace.jsonl ({trace_lines} trace lines)\n",
        plain = m.plain,
        noop = m.noop,
        noop_x = m.noop_overhead(),
        mem = m.memory,
        mem_x = m.memory_overhead(),
        ok = tick(m.noop_overhead() < 1.05),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curves_match_bridged_counters() {
        let m = measure().unwrap();
        assert_eq!(m.rows.len(), FAMILY_NAMES.len());
        for r in &m.rows {
            // The standalone stage-1 re-run is seed-deterministic, so its
            // per-round curves must sum to the bridged totals.
            assert_eq!(
                r.messages_per_round.iter().sum::<usize>() as u64,
                r.messages,
                "{}: message curve disagrees with engine.messages",
                r.family
            );
            assert_eq!(
                r.bits_per_round.iter().sum::<usize>() as u64,
                r.bits_drawn,
                "{}: bit curve disagrees with engine.bits_drawn",
                r.family
            );
            assert_eq!(r.messages_per_round.len() as u64, r.rounds);
            assert!(r.bits_drawn >= r.n as u64);
            // Depth can legitimately be 0 (colors already stable), but the
            // derandomizer must have sampled it exactly once.
            assert_eq!(
                r.snapshot.histogram(names::DERAND_VIEW_DEPTH).unwrap().count(),
                1,
                "{}: view depth not sampled",
                r.family
            );
            assert!(r.quotient >= 1 && r.quotient <= r.n);
        }
    }

    #[test]
    fn phase_breakdown_covers_all_phases() {
        let m = measure().unwrap();
        let names: Vec<&str> = m.phases.iter().map(|&(n, _)| n).collect();
        for required in ["coloring", "views", "update_graph", "update_output", "update_bits"] {
            assert!(names.contains(&required), "phase {required} missing from breakdown");
        }
        // Every observed run actually spent time coloring.
        let coloring = m.phases.iter().find(|&&(n, _)| n == "coloring").unwrap().1;
        assert!(coloring > Duration::ZERO);
    }

    #[test]
    fn noop_overhead_is_small() {
        let m = measure().unwrap();
        // The acceptance bound is 5%; min-of-N keeps scheduler noise out,
        // but leave headroom for a 1-core CI box.
        assert!(
            m.noop_overhead() < 1.25,
            "noop-observed pipeline {}x slower than plain",
            m.noop_overhead()
        );
    }

    #[test]
    fn json_parses_and_carries_the_schema() {
        let m = measure().unwrap();
        let json = to_json(&m, 123);
        let v = Json::parse(&json).unwrap();
        assert_eq!(v.get("experiment").unwrap().as_str(), Some("obs"));
        assert!(v.get("phase_breakdown").unwrap().get("coloring").unwrap().as_f64().is_some());
        let depth = v.get("histograms").unwrap().get("derand.view_depth").unwrap();
        assert!(depth.get("p99").unwrap().as_f64().is_some(), "quantiles surfaced");
        assert_eq!(depth.get("count").unwrap().as_f64(), Some(FAMILY_NAMES.len() as f64));
        assert!(v.get("noop_overhead").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(v.get("trace_lines").unwrap().as_f64(), Some(123.0));
        let fams = v.get("families").unwrap().items().unwrap();
        assert_eq!(fams.len(), FAMILY_NAMES.len());
        let first = &fams[0];
        assert!(first.get("messages_per_round").unwrap().items().unwrap().len() > 1);
        assert!(first.get("bits_per_round").unwrap().items().unwrap().len() > 1);
    }

    #[test]
    fn representative_trace_streams_parseable_lines() {
        let (rec, buf) = JsonlRecorder::buffered();
        let shared: SharedRecorder = Arc::new(rec);
        let outputs = trace_representative(&shared).unwrap();
        assert_eq!(outputs, 10); // Petersen
        let lines = buf.parsed_lines().unwrap();
        assert!(!lines.is_empty());
        // Span events carry paths; the pipeline root must be among them.
        assert!(lines.iter().any(|l| {
            l.get("ev").and_then(|e| e.as_str()) == Some("span")
                && l.get("path").and_then(|p| p.as_str()) == Some("pipeline")
        }));
        // Counter events carry the engine metrics.
        assert!(lines.iter().any(|l| {
            l.get("ev").and_then(|e| e.as_str()) == Some("counter")
                && l.get("name").and_then(|n| n.as_str()) == Some("engine.bits_drawn")
        }));
    }
}
