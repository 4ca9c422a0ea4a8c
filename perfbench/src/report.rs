//! One benchmark run: the passes, the probes, and the metrics they yield.

use std::path::PathBuf;
use std::time::Duration;

use anonet_obs::Json;

use crate::inputs::Scale;
use crate::probes::{probe_layers, probe_store, LayerSamples, StoreSample};
use crate::stats::{median, peak_rss_mb, quantile, secs};
use crate::trace::Tracer;
use crate::workloads::{round_jobs, round_nodes, Mode, Pass, RoundStats, Runner, Workload};
use crate::Error;

/// End-to-end metrics: `(name, unit, better)`. Reported with tracing off.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("nodes_per_s", "1/s", "higher"),
    ("job_p50_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics: `(name, unit, better)`. Reported by the traced run.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("runtime.coloring_s", "s", "lower"),
    ("runtime.coloring_rounds", "count", "lower"),
    ("runtime.messages", "count", "lower"),
    ("runtime.bits", "count", "lower"),
    ("views.quotient_s", "s", "lower"),
    ("views.order_s", "s", "lower"),
    ("views.quotient_nodes", "count", "lower"),
    ("views.multiplicity", "count", "higher"),
    ("graph.encode_s", "s", "lower"),
    ("graph.key_bytes", "bytes", "lower"),
    ("core.search_s", "s", "lower"),
    ("core.search_attempts", "count", "lower"),
    ("core.sim_rounds", "count", "lower"),
    ("core.replay_s", "s", "lower"),
    ("batch.cache_hits", "count", "higher"),
    ("batch.cache_misses", "count", "lower"),
    ("batch.cache_distinct_keys", "count", "lower"),
    ("batch.duplicate_searches", "count", "lower"),
    ("batch.cache_hit_ratio", "ratio", "higher"),
    ("batch.cache_bytes", "bytes", "lower"),
    ("batch.sched_busy_s", "s", "lower"),
    ("batch.sched_parallelism", "ratio", "higher"),
    ("batch.speedup_vs_1t", "ratio", "higher"),
    ("batch.disk_errors", "count", "lower"),
    ("store.open_s", "s", "lower"),
    ("store.flush_s", "s", "lower"),
    ("store.reopen_s", "s", "lower"),
    ("store.appends", "count", "lower"),
    ("store.disk_bytes", "bytes", "lower"),
    ("store.recovered_records", "count", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("self.job_s", "s", "lower"),
    ("self.derandomize_s", "s", "lower"),
    ("self.quotient_s", "s", "lower"),
    ("self.search_s", "s", "lower"),
];

/// Jobs a run needs before it reports a 90th percentile: ten samples
/// must lie beyond it.
const P90_MIN_JOBS: usize = 100;

/// Fewest set-up times the median of `setup_s` is taken over.
const MIN_SETUPS: usize = 7;

/// What to run.
#[derive(Clone, Debug)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Time budget of each measured pass.
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Where scratch stores, the trace and the run report go.
    pub out_dir: PathBuf,
}

/// A named value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

/// The result of one run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The workload's name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Worker threads of the timed path.
    pub threads: usize,
    /// Jobs attempted over every pass.
    pub attempted: usize,
    /// Jobs that failed, gave invalid output, broke the outputs digest,
    /// or disagreed with a layer probe.
    pub failed: usize,
    /// Digest of every job's outputs, in submission order.
    pub outputs_digest: u64,
    /// The metrics of the run's mode, in `END_TO_END` or `PER_LAYER` order.
    pub metrics: Vec<Metric>,
    /// Metrics printed for reading but not part of the result line.
    pub extra: Vec<Metric>,
    /// Per-round details for the run report file.
    pub details: Json,
    /// The trace, in `anonet_obs` JSONL (traced runs only).
    pub trace_jsonl: Option<String>,
}

impl RunReport {
    /// `true` when no job failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Looks a metric up by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().chain(&self.extra).find(|m| m.name == name).map(|m| m.value)
    }

    /// The machine-readable result: one JSON object.
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            let value =
                Json::obj([("value", Json::from(m.value)), ("unit", Json::str(m.unit.as_str()))]);
            (m.name.clone(), value)
        });
        Json::obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted.max(1))),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Obj(metrics.collect())),
        ])
        .to_string()
    }

    /// The run report file: environment, digest, every metric, details.
    pub fn to_json(&self) -> Json {
        let metrics = |ms: &[Metric]| {
            Json::Obj(ms.iter().map(|m| (m.name.clone(), Json::from(m.value))).collect())
        };
        Json::obj([
            ("env", env_json(self.workload, self.seed, self.threads)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("outputs_digest", Json::str(format!("{:016x}", self.outputs_digest))),
            ("metrics", metrics(&self.metrics)),
            ("extra", metrics(&self.extra)),
            ("details", self.details.clone()),
        ])
    }
}

/// Threads, `nproc`, build profile and seed of a run.
pub fn env_json(workload: &str, seed: u64, threads: usize) -> Json {
    let nproc = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::from(seed)),
        ("threads", Json::from(threads)),
        ("nproc", Json::from(nproc)),
        ("profile", Json::str(profile)),
    ])
}

fn metric(table: &[(&str, &str, &str)], name: &str, value: f64) -> Metric {
    let unit = table.iter().find(|(n, _, _)| *n == name).map_or("", |(_, u, _)| u);
    Metric { name: name.to_string(), value, unit: unit.to_string() }
}

fn med(values: &[f64]) -> f64 {
    median(values).unwrap_or(0.0)
}

fn med_s(values: &[Duration]) -> f64 {
    med(&secs(values))
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median over rounds of a per-round quantity.
fn per_round(rounds: &[RoundStats], f: impl Fn(&RoundStats) -> Option<f64>) -> f64 {
    med(&rounds.iter().filter_map(f).collect::<Vec<_>>())
}

/// The median wall time of the pass's rounds.
fn median_wall(pass: &Pass) -> f64 {
    per_round(&pass.rounds, |r| Some(r.wall.as_secs_f64())).max(1e-12)
}

fn end_to_end(pass: &Pass, nodes: f64, setups: &[Duration]) -> Vec<Metric> {
    let rss = peak_rss_mb().unwrap_or(0.0);
    vec![
        metric(END_TO_END, "nodes_per_s", nodes / median_wall(pass)),
        metric(END_TO_END, "job_p50_s", med_s(&pass.job_times())),
        metric(END_TO_END, "setup_s", med_s(setups)),
        metric(END_TO_END, "peak_rss_mb", rss),
    ]
}

fn extra_metrics(pass: &Pass, attempted: usize, failed: usize) -> Vec<Metric> {
    let mut extra = Vec::new();
    let times = secs(&pass.job_times());
    if times.len() >= P90_MIN_JOBS {
        if let Some(p90) = quantile(&times, 0.9) {
            extra.push(Metric { name: "job_p90_s".into(), value: p90, unit: "s".into() });
        }
    }
    let ratio = failed as f64 / attempted.max(1) as f64;
    extra.push(Metric { name: "failed_ratio".into(), value: ratio, unit: "ratio".into() });
    extra
}

/// Per-layer metrics from the traced pass, the probes, and the passes
/// around them.
fn per_layer(
    timed: &Pass,
    traced: &Pass,
    one_thread: Option<&Pass>,
    layers: &LayerSamples,
    store: StoreSample,
    tracer: &Tracer,
) -> Vec<Metric> {
    let m = |name: &str, value: f64| metric(PER_LAYER, name, value);
    let rounds = &traced.rounds;
    let cache =
        |f: fn(&anonet_batch::CacheStats) -> f64| per_round(rounds, |r| r.cache.as_ref().map(f));
    let hits = cache(|c| c.assignment_hits as f64);
    let misses = cache(|c| c.assignment_misses as f64);
    let timed_wall = median_wall(timed);
    let speedup = one_thread.map_or(1.0, |one| median_wall(one) / timed_wall);
    let selfs = tracer.self_times();
    let self_mean = |name: &str| {
        selfs.get(name).map_or(0.0, |(n, total)| total.as_secs_f64() / (*n).max(1) as f64)
    };
    vec![
        m("runtime.coloring_s", med_s(&layers.coloring)),
        m("runtime.coloring_rounds", mean(&layers.coloring_rounds)),
        m("runtime.messages", mean(&layers.messages)),
        m("runtime.bits", mean(&layers.bits)),
        m("views.quotient_s", med_s(&layers.quotient)),
        m("views.order_s", med_s(&layers.order)),
        m("views.quotient_nodes", mean(&layers.quotient_nodes)),
        m("views.multiplicity", mean(&layers.multiplicity)),
        m("graph.encode_s", med_s(&layers.encode)),
        m("graph.key_bytes", mean(&layers.key_bytes)),
        m("core.search_s", med_s(&layers.search)),
        m("core.search_attempts", mean(&layers.attempts)),
        m("core.sim_rounds", mean(&layers.sim_rounds)),
        m("core.replay_s", med_s(&layers.replay)),
        m("batch.cache_hits", hits),
        m("batch.cache_misses", misses),
        m("batch.cache_distinct_keys", cache(|c| c.assignment_entries as f64)),
        m(
            "batch.duplicate_searches",
            cache(|c| c.assignment_misses as f64 - c.assignment_entries as f64),
        ),
        m("batch.cache_hit_ratio", if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 }),
        m("batch.cache_bytes", cache(|c| c.bytes as f64)),
        m("batch.sched_busy_s", per_round(rounds, |r| Some(r.busy.as_secs_f64()))),
        m(
            "batch.sched_parallelism",
            per_round(rounds, |r| Some(r.busy.as_secs_f64() / r.wall.as_secs_f64().max(1e-12))),
        ),
        m("batch.speedup_vs_1t", speedup),
        m(
            "batch.disk_errors",
            rounds.iter().filter_map(|r| r.cache.as_ref()).map(|c| c.disk_errors).sum::<u64>()
                as f64,
        ),
        m(
            "store.open_s",
            store_or(rounds, |r| r.store_open.map(|d| d.as_secs_f64()), store.open.as_secs_f64()),
        ),
        m(
            "store.flush_s",
            store_or(rounds, |r| r.flush.map(|d| d.as_secs_f64()), store.flush.as_secs_f64()),
        ),
        m(
            "store.reopen_s",
            store_or(rounds, |r| r.reopen.map(|d| d.as_secs_f64()), store.reopen.as_secs_f64()),
        ),
        m(
            "store.appends",
            store_or(rounds, |r| r.store_appends.map(|a| a as f64), store.appends as f64),
        ),
        m(
            "store.disk_bytes",
            store_or(rounds, |r| r.store_disk_bytes.map(|b| b as f64), store.disk_bytes as f64),
        ),
        m(
            "store.recovered_records",
            store_or(rounds, |r| r.recovered.map(|c| c as f64), store.recovered as f64),
        ),
        m("trace.overhead_ratio", median_wall(traced) / timed_wall),
        m("self.job_s", self_mean("job")),
        m("self.derandomize_s", self_mean("derandomize")),
        m("self.quotient_s", self_mean("quotient")),
        m("self.search_s", self_mean("search")),
    ]
}

/// The store metric from the workload's own rounds where it has a
/// store, else from the store probe.
fn store_or(rounds: &[RoundStats], f: impl Fn(&RoundStats) -> Option<f64>, probe: f64) -> f64 {
    let values: Vec<f64> = rounds.iter().filter_map(f).collect();
    if values.is_empty() {
        probe
    } else {
        med(&values)
    }
}

fn round_details(pass: &Pass) -> Json {
    let list = |f: &dyn Fn(&RoundStats) -> Json| Json::arr(pass.rounds.iter().map(f));
    Json::obj([
        ("rounds", Json::from(pass.rounds.len())),
        ("wall_s", list(&|r| Json::from(r.wall.as_secs_f64()))),
        ("setup_s", Json::arr(pass.setups().iter().map(|d| Json::from(d.as_secs_f64())))),
        (
            "cache_hits",
            list(&|r| r.cache.as_ref().map_or(Json::Null, |c| Json::from(c.assignment_hits))),
        ),
        (
            "cache_misses",
            list(&|r| r.cache.as_ref().map_or(Json::Null, |c| Json::from(c.assignment_misses))),
        ),
        ("attempted", Json::from(pass.attempted)),
        ("failed", Json::from(pass.failed)),
    ])
}

/// Runs one benchmark run as configured.
///
/// # Errors
///
/// Input generation, set-up, store or probe failures. Job failures and
/// digest mismatches are counted in the report instead.
pub fn run(cfg: &Config) -> Result<RunReport, Error> {
    let inputs = cfg.workload.generate(&cfg.scale, cfg.seed)?;
    std::fs::create_dir_all(&cfg.out_dir)?;
    let jobs_per_round = round_jobs(&inputs);
    let nodes_per_round = round_nodes(&inputs);
    let mut runner = Runner::new(inputs, cfg.out_dir.clone());
    let threads = cfg.workload.threads();
    // A traced run splits its budget between the untraced and traced
    // passes, so every run measures for the same time.
    let budget = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    let timed = runner.pass(threads, Mode::Plain, budget)?;
    let mut attempted = timed.attempted;
    let mut failed = timed.failed;
    let mut details = vec![
        ("jobs_per_round".to_string(), Json::from(jobs_per_round)),
        ("nodes_per_round".to_string(), Json::from(nodes_per_round)),
    ];
    details.push(("timed".into(), round_details(&timed)));

    let (metrics, trace_jsonl) = if cfg.trace {
        let tracer = Tracer::new();
        let root = tracer.open("workload", None);
        let traced =
            runner.pass(threads, Mode::Traced { tracer: &tracer, parent: root.id() }, budget)?;
        let one_thread = if threads > 1 {
            let span = tracer.open("one_thread", Some(root.id()));
            let pass = runner.pass(1, Mode::Plain, cfg.seconds / 6.0)?;
            tracer.close(span);
            Some(pass)
        } else {
            None
        };
        let probes = tracer.open("probes", Some(root.id()));
        let (layers, records) = probe_layers(&tracer, probes.id(), &runner.inputs, &traced.last)?;
        let store = if cfg.workload == Workload::DistinctStore {
            StoreSample::default()
        } else {
            let dir = cfg.out_dir.join(format!("store-probe-{}", std::process::id()));
            probe_store(&tracer, probes.id(), &dir, &records)?
        };
        tracer.close(probes);
        tracer.close(root);
        for pass in [Some(&traced), one_thread.as_ref()].into_iter().flatten() {
            attempted += pass.attempted;
            failed += pass.failed;
        }
        failed += layers.mismatches;
        details.push(("traced".into(), round_details(&traced)));
        if let Some(one) = &one_thread {
            details.push(("one_thread".into(), round_details(one)));
        }
        let metrics = per_layer(&timed, &traced, one_thread.as_ref(), &layers, store, &tracer);
        for m in metrics.iter().filter(|m| m.unit != "s" && m.unit != "ratio") {
            tracer.counter(&m.name, m.value.round().max(0.0) as u64);
        }
        (metrics, Some(tracer.to_jsonl()))
    } else {
        // Runs with few long rounds time extra set-ups, so the median is
        // taken over at least `MIN_SETUPS` of them.
        let mut setups = timed.setups();
        setups.extend(runner.setups(threads, MIN_SETUPS.saturating_sub(setups.len()))?);
        (end_to_end(&timed, nodes_per_round as f64, &setups), None)
    };
    Ok(RunReport {
        workload: cfg.workload.name(),
        seed: cfg.seed,
        threads,
        attempted,
        failed,
        outputs_digest: runner.outputs_digest().unwrap_or(0),
        extra: extra_metrics(&timed, attempted, failed),
        metrics,
        details: Json::Obj(details),
        trace_jsonl,
    })
}
