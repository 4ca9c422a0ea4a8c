//! The benchmark's own checks, at tiny sizes: every workload finishes,
//! verifies its outputs and emits every named metric; the trace reads
//! back through `anonet_obs` and `anonet-trace`; a second seed keeps the
//! workload's shape; `BENCHMARK.json` names exactly what the runs emit.

use std::path::PathBuf;

use anonet_obs::Json;
use anonet_perfbench::inputs::Scale;
use anonet_perfbench::report::{self, Config, RunReport, END_TO_END, PER_LAYER};
use anonet_perfbench::workloads::Workload;

fn out_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"))
}

fn run(workload: Workload, seed: u64, trace: bool) -> RunReport {
    let cfg = Config {
        workload,
        seed,
        seconds: 0.2,
        trace,
        scale: Scale::tiny(),
        out_dir: out_dir(&format!("{}-{seed}-{trace}", workload.name())),
    };
    report::run(&cfg).expect("a tiny run completes")
}

fn names(report: &RunReport) -> Vec<&str> {
    report.metrics.iter().map(|m| m.name.as_str()).collect()
}

fn table_names(table: &[(&'static str, &str, &str)]) -> Vec<&'static str> {
    table.iter().map(|(n, _, _)| *n).collect()
}

#[test]
fn every_workload_verifies_and_emits_every_metric() {
    for workload in Workload::ALL {
        let plain = run(workload, 1, false);
        assert!(plain.correct(), "{}: {} failed", workload.name(), plain.failed);
        assert!(plain.attempted > 0);
        assert_eq!(names(&plain), table_names(END_TO_END));
        assert!(plain.metrics.iter().all(|m| m.value.is_finite() && m.value > 0.0), "{plain:?}");
        assert_eq!(plain.metric("failed_ratio"), Some(0.0));

        let traced = run(workload, 1, true);
        assert!(traced.correct(), "{}: {} failed", workload.name(), traced.failed);
        assert_eq!(names(&traced), table_names(PER_LAYER));
        assert!(traced.metrics.iter().all(|m| m.value.is_finite() && m.value >= 0.0));
        // Every layer time is measured on every workload.
        for m in traced.metrics.iter().filter(|m| m.unit == "s") {
            assert!(m.value > 0.0, "{}: {} is zero", workload.name(), m.name);
        }
        // The timed, traced and one-thread passes all reproduced the
        // digest (else `failed` > 0), and it matches the untraced run's.
        assert_eq!(plain.outputs_digest, traced.outputs_digest, "{}", workload.name());

        let line = Json::parse(&traced.result_line()).expect("the result line is JSON");
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
    }
}

#[test]
fn the_trace_reads_back_through_obs_and_anonet_trace() {
    let report = run(Workload::DistinctStore, 3, true);
    let jsonl = report.trace_jsonl.expect("a traced run keeps its trace");
    for line in jsonl.lines() {
        Json::parse(line).expect("every trace line parses with the obs parser");
    }
    let trace = anonet_trace::Trace::parse(&jsonl).expect("anonet-trace reads the trace");
    let roots = trace.roots();
    assert_eq!(roots.len(), 1);
    assert_eq!(roots[0].name, "workload");
    assert!(trace.orphans().is_empty());
    for path in ["workload/round/batch/job/derandomize/search", "workload/round/batch/job/coloring"]
    {
        assert!(trace.spans.iter().any(|s| s.path == path), "missing span path {path}");
    }
    assert!(trace.spans.iter().any(|s| s.name == "probe_replay"));
    assert!(trace.counter_totals().contains_key("batch.cache_misses"));
    let critical = anonet_trace::critical_path(&trace);
    assert_eq!((critical.roots, critical.orphans), (1, 0));
    assert!(!critical.chain.is_empty());
    assert!(!anonet_trace::flame::folded_stacks(&trace).is_empty());
}

#[test]
fn a_second_seed_keeps_the_workload_shape() {
    let scale = Scale::tiny();
    for seed in [5, 6] {
        let prime = run(Workload::LargePrime, seed, true);
        let expected = (2 * scale.prime_nodes + scale.torus_side * scale.torus_side) as f64 / 3.0;
        // Stage-1 coloring makes every large network prime.
        assert_eq!(prime.metric("views.quotient_nodes"), Some(expected));
        assert_eq!(prime.metric("views.multiplicity"), Some(1.0));
        assert_eq!(prime.metric("batch.cache_hits"), Some(0.0));

        let lifts = run(Workload::LiftFamily, seed, true);
        assert_eq!(lifts.metric("views.quotient_nodes"), Some(scale.base_nodes as f64));
        let multiplicity = lifts.metric("views.multiplicity").unwrap_or(0.0);
        assert!((scale.multiplicity.0 as f64..=scale.multiplicity.1 as f64).contains(&multiplicity));
        let hit_ratio = lifts.metric("batch.cache_hit_ratio").unwrap_or(0.0);
        assert!(hit_ratio >= 0.97, "seed {seed}: lift-family hit ratio {hit_ratio}");
        assert_eq!(lifts.metric("batch.cache_distinct_keys"), Some(scale.bases as f64));

        let store = run(Workload::DistinctStore, seed, true);
        let jobs = scale.distinct_jobs as f64;
        assert_eq!(store.metric("batch.cache_hits"), Some(0.0));
        assert_eq!(store.metric("batch.cache_misses"), Some(jobs));
        assert_eq!(store.metric("batch.cache_distinct_keys"), Some(jobs));
        assert_eq!(store.metric("views.quotient_nodes"), Some(scale.distinct_nodes as f64));
        assert!(store.metric("store.recovered_records").unwrap_or(0.0) >= jobs);
    }
}

/// The parsed `BENCHMARK.json` at the repository root.
fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

#[test]
fn benchmark_json_names_what_the_runs_emit() {
    let bench = benchmark_json();
    let listed = |key: &str| -> Vec<(String, String, String)> {
        bench
            .get(key)
            .and_then(Json::items)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let field =
                    |f: &str| m.get(f).and_then(Json::as_str).unwrap_or_default().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    };
    let owned = |table: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
        table.iter().map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string())).collect()
    };
    assert_eq!(listed("end_to_end"), owned(END_TO_END));
    assert_eq!(listed("per_layer"), owned(PER_LAYER));
    let workloads: Vec<String> = bench
        .get("workloads")
        .and_then(Json::items)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    let expected: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, expected);
    let setup = bench
        .get("end_to_end")
        .and_then(Json::items)
        .and_then(|ms| ms.iter().find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s")))
        .expect("setup_s is an end-to-end metric");
    let largest = bench
        .get("end_to_end")
        .and_then(Json::items)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| m.get("bound").and_then(Json::as_f64))
        .fold(0.0, f64::max);
    assert_eq!(setup.get("bound").and_then(Json::as_f64), Some(largest));
}

#[test]
fn usage_errors_exit_two_without_a_result_line() {
    let bin = env!("CARGO_BIN_EXE_anonet-perfbench");
    for args in [&["--workload", "bogus"][..], &["--workload", "lift-family", "--seed", "1"][..]] {
        let out = std::process::Command::new(bin).args(args).output().expect("the binary runs");
        assert_eq!(out.status.code(), Some(2));
        assert!(out.stdout.is_empty());
    }
}

#[test]
fn the_linear_coloring_check_agrees_with_the_program_verifier() {
    use anonet_graph::coloring::is_two_hop_coloring;
    use anonet_graph::{generators, BitString};
    use anonet_perfbench::workloads::is_two_hop_colored;

    let graphs = [
        generators::cycle(9).expect("a cycle"),
        generators::grid(4, 4, true).expect("a torus"),
        generators::petersen(),
    ];
    for g in graphs {
        let n = g.node_count();
        for modulus in 2..=n {
            let colors: Vec<BitString> =
                (0..n).map(|v| BitString::from_value((v % modulus) as u64, 8)).collect();
            let labeled = g.with_labels(colors.clone()).expect("one color per node");
            assert_eq!(
                is_two_hop_colored(&g, &colors),
                is_two_hop_coloring(&labeled),
                "{g} mod {modulus}"
            );
        }
    }
}
