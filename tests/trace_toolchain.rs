//! End-to-end acceptance for the trace toolchain: a soak campaign traced
//! through the JSONL recorder must come back out of `anonet-trace` as one
//! causal tree — a valid Perfetto export, a folded flamegraph, and a
//! critical-path report with exactly one root (`soak_campaign`) and zero
//! orphans — proving span parentage survives every thread hop from the
//! campaign driver through the batch scheduler's workers to the store.

use std::sync::Arc;

use anonet::obs::{Json, JsonlRecorder};
use anonet::soak::{run_campaign, CampaignConfig};
use anonet::trace::{critical, diff, flame, perfetto, Trace};

fn traced_smoke_campaign() -> Trace {
    let (jsonl, buf) = JsonlRecorder::buffered();
    // The config, and with it the recorder, drops at the end of the
    // statement, which flushes the writer.
    run_campaign(&CampaignConfig { recorder: Arc::new(jsonl), ..CampaignConfig::smoke() })
        .expect("smoke campaign runs");
    Trace::parse(&buf.contents()).expect("trace parses")
}

#[test]
fn campaign_trace_survives_the_whole_toolchain() {
    let trace = traced_smoke_campaign();

    // One causal tree: the campaign is the only root, nothing dangles.
    let roots = trace.roots();
    assert_eq!(roots.len(), 1, "exactly one root span");
    assert_eq!(roots[0].name, "soak_campaign");
    assert!(trace.orphans().is_empty(), "no span lost its parent across thread hops");
    assert_eq!(trace.detached_attrs, 0);

    // The tree reaches through every layer: cells under the campaign,
    // scheduler jobs under the cells, the store recovery under the
    // campaign — all as `/`-joined paths.
    let paths: Vec<&str> = trace.spans.iter().map(|s| s.path.as_str()).collect();
    assert!(paths.contains(&"soak_campaign/soak_cell"));
    assert!(paths.contains(&"soak_campaign/soak_cell/batch_run/job"));
    assert!(paths.iter().any(|p| p.starts_with("soak_campaign/store_open")));

    // Every cell root carries its replay string as an attribute.
    let cells: Vec<_> = trace.spans.iter().filter(|s| s.name == "soak_cell").collect();
    assert_eq!(cells.len(), 3, "smoke grid has three cells");
    for cell in &cells {
        let replay = cell.attr("replay").and_then(Json::as_str).expect("replay attr");
        assert!(replay.starts_with("tc1:"), "replay string on the cell span: {replay}");
    }

    // Perfetto export: re-parses as JSON, one "X" event per span.
    let exported = perfetto::export(&trace).pretty();
    let parsed = Json::parse(&exported).expect("Perfetto export is valid JSON");
    let events = parsed.get("traceEvents").and_then(Json::items).expect("traceEvents array");
    let complete =
        events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).count();
    assert_eq!(complete, trace.spans.len());

    // Flamegraph: folded stacks cover the deep path and carry self time.
    let stacks = flame::folded_stacks(&trace);
    assert!(stacks
        .iter()
        .any(|(stack, _)| stack.starts_with("soak_campaign;soak_cell;batch_run;job")));
    assert!(stacks.iter().map(|(_, v)| v).sum::<u64>() > 0);

    // Critical path: rooted at the campaign, descending into real work,
    // with the hygiene numbers the gate reads.
    let report = critical::critical_path(&trace);
    assert_eq!(report.roots, 1);
    assert_eq!(report.orphans, 0);
    assert_eq!(report.in_flight, 0);
    assert_eq!(report.chain[0].name, "soak_campaign");
    assert!(report.chain.len() >= 2, "chain descends below the root");
    assert_eq!(report.chain_wall_us, report.chain[0].wall_us);
    let json = critical::to_json(&report);
    let reparsed = Json::parse(&json.pretty()).expect("critical report serializes");
    assert_eq!(reparsed.get("orphans").and_then(Json::as_f64), Some(0.0));

    // Diff against itself is all-ones.
    let rows = diff::diff_traces(&trace, &trace);
    assert!(!rows.is_empty());
    for row in &rows {
        assert_eq!(row.count, row.base_count, "self-diff counts match on {}", row.path);
        assert_eq!(row.ratio(), 1.0, "self-diff ratio is 1.0 on {}", row.path);
    }
}
