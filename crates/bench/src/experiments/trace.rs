//! E20 — the trace toolchain measured: the cost of *causal* tracing and
//! the round trip through `anonet-trace`.
//!
//! Three overhead points on the Petersen pipeline (min of 5): the
//! un-instrumented entry point, the no-op recorder (acceptance bound
//! [`NOOP_BUDGET`] — causal ids must not make the disabled path
//! slower), and the always-on [`FlightRecorder`] ring (documented
//! budget [`FLIGHT_BUDGET`]: per event it pays one atomic claim, one
//! uncontended try-lock, and one small clone).
//!
//! Then the end-to-end toolchain gate: a smoke soak campaign streamed
//! through the JSONL recorder, parsed back by `anonet-trace`, and pushed
//! through all four analyses. The trace must be one causal tree —
//! exactly one root (`soak_campaign`), zero orphans — with every cell
//! span carrying its `tc1:` replay string, a Perfetto export that
//! re-parses, folded stacks, and a critical path rooted at the campaign
//! with scheduler queue wait attributed separately (p50/p90/p99 of the
//! queue-wait histogram are surfaced alongside).
//!
//! [`report`] writes `BENCH_trace.json` and the campaign's raw trace as
//! `BENCH_trace_campaign.jsonl` (CI feeds the latter to the
//! `anonet-trace` binary).

use std::sync::Arc;
use std::time::Duration;

use anonet_obs::{names, FlightRecorder, Histogram, JsonlRecorder};
use anonet_soak::{run_campaign, CampaignConfig};
use anonet_trace::{critical, flame, perfetto, Trace};

use crate::experiments::common::{accept, round3, tick};
use crate::experiments::obs::{self, petersen_pipeline_wall};
use crate::experiments::ExpResult;
use crate::table::{secs, Json};
use crate::Table;

/// Seed shared with E16 so the overhead tower measures the same work.
pub const SEED: u64 = obs::SEED;

/// Acceptance bound for the no-op path: causal span ids must keep the
/// disabled recorder within 5% of the un-instrumented pipeline.
pub const NOOP_BUDGET: f64 = 1.05;

/// Documented budget for the always-on flight ring: at most 2x the
/// un-instrumented pipeline (one atomic claim + try-lock + clone per
/// event; see `anonet_obs::flight`).
pub const FLIGHT_BUDGET: f64 = 2.0;

/// The whole E20 measurement.
#[derive(Clone, Debug, Default)]
pub struct TraceMeasurement {
    /// min-of-N wall of the un-instrumented Petersen pipeline.
    pub plain: Duration,
    /// Same path under the no-op recorder.
    pub noop: Duration,
    /// Same path under a live [`FlightRecorder`] ring.
    pub flight: Duration,
    /// Events the flight ring held after the run.
    pub flight_captured: u64,
    /// Events the ring discarded under its never-block rule.
    pub flight_dropped: u64,
    /// Spans in the campaign trace.
    pub spans: usize,
    /// Root spans (must be 1: `soak_campaign`).
    pub roots: usize,
    /// Orphaned spans (must be 0 in a live trace).
    pub orphans: usize,
    /// Attr lines without a span (must be 0 in a live trace).
    pub detached_attrs: usize,
    /// `soak_cell` spans found (smoke grid: 3).
    pub cells: usize,
    /// Every cell span carried a `tc1:` replay attribute.
    pub replay_on_cells: bool,
    /// Queue-wait histogram quantile bounds, µs (p50, p90, p99).
    pub queue_wait_quantiles: Option<(u64, u64, u64)>,
    /// `"X"` events in the Perfetto export (== spans).
    pub perfetto_events: usize,
    /// Distinct folded stacks.
    pub flame_stacks: usize,
    /// Critical-path chain length (root → leaf).
    pub critical_chain: usize,
    /// Critical-path wall, µs.
    pub critical_wall_us: u64,
    /// Queue wait attributed along the critical path, µs.
    pub critical_queue_us: u64,
    /// The campaign's raw JSONL trace (written out by [`report`]).
    pub campaign_jsonl: String,
}

impl TraceMeasurement {
    /// `noop / plain` — the cost of the disabled causal path.
    pub fn noop_overhead(&self) -> f64 {
        self.noop.as_secs_f64() / self.plain.as_secs_f64().max(f64::EPSILON)
    }

    /// `flight / plain` — the cost of the always-on ring.
    pub fn flight_overhead(&self) -> f64 {
        self.flight.as_secs_f64() / self.plain.as_secs_f64().max(f64::EPSILON)
    }

    /// The no-op path stays within [`NOOP_BUDGET`].
    pub fn noop_ok(&self) -> bool {
        self.noop_overhead() < NOOP_BUDGET
    }

    /// The flight ring stays within [`FLIGHT_BUDGET`].
    pub fn flight_ok(&self) -> bool {
        self.flight_overhead() < FLIGHT_BUDGET
    }

    /// The E20 acceptance gates: both overheads within their budgets and
    /// no orphaned span in the campaign trace.
    ///
    /// # Errors
    ///
    /// Names every gate that failed.
    pub fn accept(&self) -> ExpResult<()> {
        accept(&[
            ("no-op tracing overhead exceeded its budget", self.noop_ok()),
            ("flight-recorder overhead exceeded its budget", self.flight_ok()),
            ("campaign trace has orphan spans (severed parent links)", self.orphans == 0),
        ])
    }
}

/// Runs the overhead tower and the traced campaign.
///
/// # Errors
///
/// Propagates pipeline/campaign/parse errors — any failure is a
/// regression.
pub fn measure() -> ExpResult<TraceMeasurement> {
    let plain = petersen_pipeline_wall(None)?;
    let noop = petersen_pipeline_wall(Some(anonet_obs::noop()))?;
    let ring = Arc::new(FlightRecorder::new());
    let flight = petersen_pipeline_wall(Some(ring.clone()))?;

    // The traced campaign, streamed as JSONL and parsed back.
    let (jsonl, buf) = JsonlRecorder::buffered();
    run_campaign(&CampaignConfig { recorder: Arc::new(jsonl), ..CampaignConfig::smoke() })?;
    let campaign_jsonl = buf.contents();
    let trace = Trace::parse(&campaign_jsonl).map_err(|e| e.to_string())?;

    let cells: Vec<_> = trace.spans.iter().filter(|s| s.name == names::SPAN_SOAK_CELL).collect();
    let replay_on_cells = !cells.is_empty()
        && cells.iter().all(|c| {
            c.attr("replay").and_then(Json::as_str).is_some_and(|r| r.starts_with("tc1:"))
        });

    let mut queue_wait = Histogram::new();
    for h in trace.hists.iter().filter(|h| h.name == names::BATCH_QUEUE_WAIT_US) {
        queue_wait.record(h.value);
    }

    let exported = perfetto::export(&trace);
    let reparsed = Json::parse(&exported.pretty()).map_err(|e| format!("perfetto export: {e}"))?;
    let perfetto_events = reparsed
        .get("traceEvents")
        .and_then(Json::items)
        .map(|events| {
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).count()
        })
        .unwrap_or(0);

    let report = critical::critical_path(&trace);

    Ok(TraceMeasurement {
        plain,
        noop,
        flight,
        flight_captured: ring.recorded(),
        flight_dropped: ring.dropped(),
        spans: trace.spans.len(),
        roots: trace.roots().len(),
        orphans: trace.orphans().len(),
        detached_attrs: trace.detached_attrs,
        cells: cells.len(),
        replay_on_cells,
        queue_wait_quantiles: queue_wait.quantiles(),
        perfetto_events,
        flame_stacks: flame::folded_stacks(&trace).len(),
        critical_chain: report.chain.len(),
        critical_wall_us: report.chain_wall_us,
        critical_queue_us: report.chain_queue_wait_us,
        campaign_jsonl,
    })
}

/// Builds `BENCH_trace.json` through the shared serializer.
pub fn to_json(m: &TraceMeasurement) -> String {
    let (p50, p90, p99) = m.queue_wait_quantiles.unwrap_or((0, 0, 0));
    Json::obj([
        ("experiment", Json::str("trace")),
        ("seed", Json::from(SEED)),
        ("plain_secs", secs(m.plain)),
        ("noop_secs", secs(m.noop)),
        ("flight_secs", secs(m.flight)),
        ("noop_overhead", Json::Num(round3(m.noop_overhead()))),
        ("flight_overhead", Json::Num(round3(m.flight_overhead()))),
        ("noop_budget", Json::Num(NOOP_BUDGET)),
        ("flight_budget", Json::Num(FLIGHT_BUDGET)),
        ("noop_ok", Json::from(m.noop_ok())),
        ("flight_ok", Json::from(m.flight_ok())),
        ("flight_captured", Json::from(m.flight_captured)),
        ("flight_dropped", Json::from(m.flight_dropped)),
        ("spans", Json::from(m.spans)),
        ("roots", Json::from(m.roots)),
        ("orphans", Json::from(m.orphans)),
        ("detached_attrs", Json::from(m.detached_attrs)),
        ("cells", Json::from(m.cells)),
        ("replay_on_cells", Json::from(m.replay_on_cells)),
        (
            "queue_wait_us",
            Json::obj([
                ("p50", Json::from(p50)),
                ("p90", Json::from(p90)),
                ("p99", Json::from(p99)),
            ]),
        ),
        ("perfetto_events", Json::from(m.perfetto_events)),
        ("flame_stacks", Json::from(m.flame_stacks)),
        ("critical_chain", Json::from(m.critical_chain)),
        ("critical_wall_us", Json::from(m.critical_wall_us)),
        ("critical_queue_us", Json::from(m.critical_queue_us)),
    ])
    .pretty()
}

/// Renders the E20 report and writes `BENCH_trace.json` plus the raw
/// campaign trace `BENCH_trace_campaign.jsonl`.
///
/// # Errors
///
/// Propagates measurement errors; artifact I/O failing is an error, and
/// so is a failed acceptance gate ([`TraceMeasurement::accept`]).
pub fn report() -> ExpResult<String> {
    let m = measure()?;

    let mut table = Table::new(
        "E20 / trace — campaign trace through the anonet-trace toolchain (smoke grid)",
        &["check", "value", "ok"],
    );
    table.row(vec!["one causal root".into(), m.roots.to_string(), tick(m.roots == 1)]);
    table.row(vec!["orphan spans".into(), m.orphans.to_string(), tick(m.orphans == 0)]);
    table.row(vec![
        "detached attrs".into(),
        m.detached_attrs.to_string(),
        tick(m.detached_attrs == 0),
    ]);
    table.row(vec!["cells w/ tc1: replay".into(), m.cells.to_string(), tick(m.replay_on_cells)]);
    table.row(vec![
        "perfetto X events".into(),
        m.perfetto_events.to_string(),
        tick(m.perfetto_events == m.spans),
    ]);
    table.row(vec![
        "critical chain".into(),
        format!("{} steps / {} us", m.critical_chain, m.critical_wall_us),
        tick(m.critical_chain >= 2),
    ]);

    std::fs::write("BENCH_trace_campaign.jsonl", &m.campaign_jsonl)?;
    std::fs::write("BENCH_trace.json", to_json(&m))?;
    m.accept()?;

    let (p50, p90, p99) = m.queue_wait_quantiles.unwrap_or((0, 0, 0));
    Ok(format!(
        "{table}\n\
         petersen pipeline (min of 5): plain {plain:.3?}, noop {noop:.3?} ({noop_x:.3}x, \
         budget {noop_b}x {noop_ok}), flight-ring {flight:.3?} ({flight_x:.3}x, budget \
         {flight_b}x {flight_ok}, {cap} captured / {drop} dropped)\n\
         queue wait (us): p50 {p50}, p90 {p90}, p99 {p99}; critical-path queue share {cq} us\n\
         wrote BENCH_trace.json and BENCH_trace_campaign.jsonl ({spans} spans, {stacks} \
         folded stacks)\n",
        plain = m.plain,
        noop = m.noop,
        noop_x = m.noop_overhead(),
        noop_b = NOOP_BUDGET,
        noop_ok = tick(m.noop_ok()),
        flight = m.flight,
        flight_x = m.flight_overhead(),
        flight_b = FLIGHT_BUDGET,
        flight_ok = tick(m.flight_ok()),
        cap = m.flight_captured,
        drop = m.flight_dropped,
        cq = m.critical_queue_us,
        spans = m.spans,
        stacks = m.flame_stacks,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_trace_is_one_tree_and_survives_the_toolchain() {
        let m = measure().unwrap();
        assert_eq!(m.roots, 1, "exactly one causal root");
        assert_eq!(m.orphans, 0, "no spans lost their parent");
        assert_eq!(m.detached_attrs, 0);
        assert_eq!(m.cells, 3, "smoke grid is three cells");
        assert!(m.replay_on_cells, "every cell span carries its tc1: replay");
        assert_eq!(m.perfetto_events, m.spans, "export covers every span");
        assert!(m.flame_stacks >= 3);
        assert!(m.critical_chain >= 2, "chain descends below the campaign root");
        assert!(m.critical_wall_us > 0);
        let (p50, p90, p99) = m.queue_wait_quantiles.expect("jobs sampled queue wait");
        assert!(p50 <= p90 && p90 <= p99, "quantile bounds are ordered");
        assert!(m.flight_captured > 0, "the ring saw the pipeline events");
    }

    #[test]
    fn overheads_stay_bounded() {
        // The ratio bounds (`NOOP_BUDGET`, `FLIGHT_BUDGET`) are gated by
        // `report trace` through `TraceMeasurement::accept`: ratios of
        // ~100 µs runs under parallel test load are noise, not a gate.
        let m = measure().unwrap();
        assert!(m.plain > Duration::ZERO && m.noop > Duration::ZERO && m.flight > Duration::ZERO);
        assert!(m.noop_overhead().is_finite() && m.flight_overhead().is_finite());
    }

    /// A measurement that passes every gate: 10 ms plain, 10 ms no-op,
    /// 15 ms flight ring, no orphans.
    fn passing() -> TraceMeasurement {
        TraceMeasurement {
            plain: Duration::from_millis(10),
            noop: Duration::from_millis(10),
            flight: Duration::from_millis(15),
            ..Default::default()
        }
    }

    #[test]
    fn noop_overhead_beyond_budget_fails_acceptance() {
        assert!(passing().accept().is_ok());
        let m = TraceMeasurement { noop: Duration::from_millis(11), ..passing() };
        let err = m.accept().unwrap_err();
        assert!(err.to_string().contains("no-op"), "{err}");
    }

    #[test]
    fn flight_overhead_beyond_budget_fails_acceptance() {
        let m = TraceMeasurement { flight: Duration::from_millis(21), ..passing() };
        let err = m.accept().unwrap_err();
        assert!(err.to_string().contains("flight-recorder"), "{err}");
    }

    #[test]
    fn orphan_spans_fail_acceptance() {
        let m = TraceMeasurement { orphans: 1, ..passing() };
        let err = m.accept().unwrap_err();
        assert!(err.to_string().contains("orphan"), "{err}");
    }

    #[test]
    fn json_parses_and_carries_the_gate_keys() {
        let m = measure().unwrap();
        let v = Json::parse(&to_json(&m)).unwrap();
        assert_eq!(v.get("experiment").unwrap().as_str(), Some("trace"));
        for key in [
            "plain_secs",
            "noop_secs",
            "flight_secs",
            "noop_overhead",
            "flight_overhead",
            "noop_ok",
            "flight_ok",
            "roots",
            "orphans",
            "cells",
            "replay_on_cells",
            "perfetto_events",
            "critical_chain",
        ] {
            assert!(v.get(key).is_some(), "schema key `{key}` present");
        }
        assert!(v.get("queue_wait_us").unwrap().get("p99").unwrap().as_f64().is_some());
        assert_eq!(v.get("orphans").unwrap().as_f64(), Some(0.0));
    }
}
