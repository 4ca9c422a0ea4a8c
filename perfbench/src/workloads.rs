//! The workloads' timed path: set-up, rounds of jobs, output checks.
//!
//! A *round* runs every job of a workload once, as a closed batch from
//! this process: each job starts when a worker is free. Set-up (loading
//! the generated edge lists into graphs, opening the store, building the
//! cache and scheduler) is timed separately from the round's jobs, and
//! checking outputs is not timed at all.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use anonet_algorithms::mis::RandomizedMis;
use anonet_algorithms::problems::MisProblem;
use anonet_batch::PersistentDerandCache;
use anonet_batch::{BatchOutcome, BatchScheduler, CacheStats, DerandCache, JobResult};
use anonet_core::batch::{derandomize_batch, pipeline_batch};
use anonet_core::pipeline::{run_pipeline, run_pipeline_cached, PipelineRun};
use anonet_core::{DerandomizedRun, Derandomizer, SearchStrategy};
use anonet_graph::{BitString, Graph, LabeledGraph};
use anonet_runtime::{ExecConfig, Problem};

use crate::inputs::{Inputs, Network, Scale};
use crate::stats::Fnv;
use crate::trace::Tracer;
use crate::Error;

/// A lift carrying its `(input, color)` labels.
pub type Colored = LabeledGraph<((), BitString)>;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// A few single large networks, one pipeline run each, no cache.
    LargePrime,
    /// Pre-colored lifts of a few small bases through `derandomize_batch`
    /// with one shared in-memory cache.
    LiftFamily,
    /// Distinct small networks through `pipeline_batch` with a fresh
    /// persistent cache, then a flush.
    DistinctStore,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] =
        [Workload::LargePrime, Workload::LiftFamily, Workload::DistinctStore];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LargePrime => "large-prime",
            Workload::LiftFamily => "lift-family",
            Workload::DistinctStore => "distinct-store",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads of the timed path: batches run on a fixed pool of
    /// two, single graphs on the calling thread.
    pub fn threads(self) -> usize {
        match self {
            Workload::LargePrime => 1,
            Workload::LiftFamily | Workload::DistinctStore => 2,
        }
    }

    /// Generates the workload's inputs from `seed`.
    ///
    /// # Errors
    ///
    /// A generator failure.
    pub fn generate(self, scale: &Scale, seed: u64) -> Result<Inputs, Error> {
        match self {
            Workload::LargePrime => crate::inputs::large_prime(scale, seed),
            Workload::LiftFamily => crate::inputs::lift_family(scale, seed),
            Workload::DistinctStore => crate::inputs::distinct_store(scale, seed),
        }
    }
}

/// One job's result.
#[derive(Clone, Debug)]
pub enum JobOutput {
    /// A full Theorem-1 pipeline run.
    Pipeline(PipelineRun<bool>),
    /// A derandomization of a pre-colored instance.
    Derand(DerandomizedRun<bool>),
}

impl JobOutput {
    /// The deterministic stage's details.
    pub fn derand(&self) -> &DerandomizedRun<bool> {
        match self {
            JobOutput::Pipeline(p) => &p.deterministic,
            JobOutput::Derand(d) => d,
        }
    }

    /// The stage-1 coloring, for pipeline jobs.
    pub fn coloring(&self) -> Option<&[BitString]> {
        match self {
            JobOutput::Pipeline(p) => Some(&p.coloring),
            JobOutput::Derand(_) => None,
        }
    }
}

/// The program-side state of one round.
enum Prepared {
    Single(Vec<(LabeledGraph<()>, u64)>),
    Lifts {
        lifts: Vec<Colored>,
        cache: Arc<DerandCache>,
        scheduler: BatchScheduler,
    },
    Store {
        jobs: Vec<(LabeledGraph<()>, u64)>,
        store: PersistentDerandCache,
        scheduler: BatchScheduler,
    },
}

/// Builds the program's graph from a generated edge list.
///
/// # Errors
///
/// A malformed edge list.
pub fn load(net: &Network) -> Result<Graph, Error> {
    Ok(Graph::from_edges(net.nodes, &net.edges)?)
}

/// The unlabeled networks of a pipeline workload with their seeds.
///
/// # Errors
///
/// A malformed edge list.
pub fn load_seeded(inputs: &Inputs) -> Result<Vec<(LabeledGraph<()>, u64)>, Error> {
    let jobs = match inputs {
        Inputs::LargePrime(jobs) | Inputs::DistinctStore(jobs) => jobs,
        Inputs::LiftFamily { .. } => return Ok(Vec::new()),
    };
    jobs.iter().map(|j| Ok((load(&j.net)?.with_uniform_label(()), j.seed))).collect()
}

/// The colored lifts of `lift-family`.
///
/// # Errors
///
/// A malformed edge list or label vector.
pub fn load_lifts(inputs: &Inputs) -> Result<Vec<Colored>, Error> {
    let Inputs::LiftFamily { lifts, .. } = inputs else { return Ok(Vec::new()) };
    lifts
        .iter()
        .map(|l| Ok(load(&l.net)?.with_labels(l.colors.iter().map(|c| ((), c.clone())).collect())?))
        .collect()
}

/// Input nodes per round.
pub fn round_nodes(inputs: &Inputs) -> usize {
    match inputs {
        Inputs::LargePrime(jobs) | Inputs::DistinctStore(jobs) => {
            jobs.iter().map(|j| j.net.nodes).sum()
        }
        Inputs::LiftFamily { lifts, .. } => lifts.iter().map(|l| l.net.nodes).sum(),
    }
}

/// Jobs per round.
pub fn round_jobs(inputs: &Inputs) -> usize {
    match inputs {
        Inputs::LargePrime(jobs) | Inputs::DistinctStore(jobs) => jobs.len(),
        Inputs::LiftFamily { lifts, .. } => lifts.len(),
    }
}

/// Set-up timings of one round.
#[derive(Clone, Copy, Debug)]
struct SetupTimes {
    total: Duration,
    store_open: Option<Duration>,
}

/// Everything before a round's first job can start: the graphs, the
/// store, the cache and the scheduler.
fn setup(
    inputs: &Inputs,
    threads: usize,
    store_dir: &Path,
) -> Result<(Prepared, SetupTimes), Error> {
    let t0 = Instant::now();
    let mut store_open = None;
    let prepared = match inputs {
        Inputs::LargePrime(_) => Prepared::Single(load_seeded(inputs)?),
        Inputs::LiftFamily { .. } => Prepared::Lifts {
            lifts: load_lifts(inputs)?,
            cache: Arc::new(DerandCache::new()),
            scheduler: BatchScheduler::with_threads(threads),
        },
        Inputs::DistinctStore(_) => {
            let jobs = load_seeded(inputs)?;
            let t = Instant::now();
            let store = PersistentDerandCache::open(store_dir)?;
            store_open = Some(t.elapsed());
            Prepared::Store { jobs, store, scheduler: BatchScheduler::with_threads(threads) }
        }
    };
    Ok((prepared, SetupTimes { total: t0.elapsed(), store_open }))
}

/// How a round runs its jobs.
#[derive(Clone, Copy, Debug)]
pub enum Mode<'a> {
    /// The program's batch entry points (`derandomize_batch`, `pipeline_batch`)
    /// or a plain loop of `run_pipeline` calls; nothing recorded.
    Plain,
    /// The same jobs through `BatchScheduler::run` with a closure that
    /// records a span tree per job under `parent`.
    Traced {
        /// Where the spans go.
        tracer: &'a Tracer,
        /// The span the round's spans hang under.
        parent: u64,
    },
}

/// What one round measured.
#[derive(Clone, Debug, Default)]
pub struct RoundStats {
    /// Set-up time.
    pub setup: Duration,
    /// Store open inside set-up (`distinct-store` only).
    pub store_open: Option<Duration>,
    /// Wall time of the round's jobs, flush included.
    pub wall: Duration,
    /// Per-job latency.
    pub job_times: Vec<Duration>,
    /// Sum of job times over the workers.
    pub busy: Duration,
    /// Cache accounting for the round's window.
    pub cache: Option<CacheStats>,
    /// Store flush after the batch.
    pub flush: Option<Duration>,
    /// Store records appended by the round.
    pub store_appends: Option<u64>,
    /// Bytes on disk after the flush.
    pub store_disk_bytes: Option<u64>,
    /// Close, reopen and warm of the store (traced rounds only).
    pub reopen: Option<Duration>,
    /// Records recovered by that reopen.
    pub recovered: Option<u64>,
}

fn collect<O>(
    outcome: BatchOutcome<O>,
    wrap: fn(O) -> JobOutput,
) -> Vec<Result<JobOutput, String>> {
    outcome
        .results
        .into_iter()
        .map(|r| match r {
            JobResult::Ok(o) => Ok(wrap(o)),
            JobResult::Failed(e) => Err(e),
            JobResult::Panicked(p) => Err(format!("panicked: {p}")),
        })
        .collect()
}

/// Records `job → derandomize → {quotient, search}` for a derandomizer
/// call that ran from `start` for `wall`, placing the children from the
/// program's own stopwatches.
fn record_derand(
    tracer: &Tracer,
    job: u64,
    start: Instant,
    wall: Duration,
    run: &DerandomizedRun<bool>,
) {
    let end = start + wall;
    let d = tracer.record("derandomize", job, start, wall);
    let search_start = end.checked_sub(run.search_time).unwrap_or(start).max(start);
    let quotient_start = search_start.checked_sub(run.quotient_time).unwrap_or(start).max(start);
    tracer.record("quotient", d.id(), quotient_start, run.quotient_time.min(wall));
    tracer.record("search", d.id(), search_start, run.search_time.min(wall));
}

/// Records `job → {coloring, derandomize → {quotient, search}}` for a
/// pipeline call that ran from `start` to `end`.
fn record_pipeline(
    tracer: &Tracer,
    job: u64,
    start: Instant,
    end: Instant,
    run: &PipelineRun<bool>,
) {
    tracer.record("coloring", job, start, run.coloring_time);
    let d_start = end.checked_sub(run.deterministic_time).unwrap_or(start).max(start);
    record_derand(tracer, job, d_start, end - d_start, &run.deterministic);
}

/// Runs one job on the calling thread under a `job` span.
fn traced_job<T>(
    tracer: &Tracer,
    parent: u64,
    idx: usize,
    nodes: usize,
    call: impl FnOnce() -> T,
    record: impl FnOnce(u64, Instant, Instant, &T),
) -> T {
    let job = tracer.open("job", Some(parent));
    let start = Instant::now();
    let out = call();
    let end = Instant::now();
    record(job.id(), start, end, &out);
    tracer.close_with(job, Instant::now(), vec![("job", idx as u64), ("nodes", nodes as u64)]);
    out
}

/// Runs a prepared round's jobs. Returns the stats and per-job results.
fn execute(
    prepared: &Prepared,
    mode: Mode<'_>,
) -> Result<(RoundStats, Vec<Result<JobOutput, String>>), Error> {
    let alg = RandomizedMis::new();
    let strategy = SearchStrategy::default();
    let config = ExecConfig::default();
    let mut stats = RoundStats::default();
    let results = match (prepared, mode) {
        (Prepared::Single(nets), _) => {
            let started = Instant::now();
            let mut results = Vec::with_capacity(nets.len());
            for (idx, (net, seed)) in nets.iter().enumerate() {
                let t0 = Instant::now();
                let r = match mode {
                    Mode::Plain => run_pipeline(&alg, net, *seed, strategy),
                    Mode::Traced { tracer, parent } => traced_job(
                        tracer,
                        parent,
                        idx,
                        net.node_count(),
                        || run_pipeline(&alg, net, *seed, strategy),
                        |job, s, e, r| {
                            if let Ok(run) = r {
                                record_pipeline(tracer, job, s, e, run);
                            }
                        },
                    ),
                };
                stats.job_times.push(t0.elapsed());
                results.push(r.map(JobOutput::Pipeline).map_err(|e| e.to_string()));
            }
            stats.wall = started.elapsed();
            stats.busy = stats.job_times.iter().sum();
            results
        }
        (Prepared::Lifts { lifts, cache, scheduler }, Mode::Plain) => {
            let t0 = Instant::now();
            let outcome = derandomize_batch(&alg, lifts, strategy, &config, scheduler, Some(cache));
            stats.wall = t0.elapsed();
            stats.job_times = outcome.stats.job_times.clone();
            stats.busy = outcome.stats.busy;
            stats.cache = outcome.stats.cache;
            collect(outcome, JobOutput::Derand)
        }
        (Prepared::Lifts { lifts, cache, scheduler }, Mode::Traced { tracer, parent }) => {
            let derandomizer = Derandomizer::new(alg)
                .with_strategy(strategy)
                .with_config(config)
                .with_cache(Arc::clone(cache));
            let before = cache.stats();
            let batch = tracer.open("batch", Some(parent));
            let t0 = Instant::now();
            let outcome = scheduler.run(lifts, |idx, lift| {
                traced_job(
                    tracer,
                    batch.id(),
                    idx,
                    lift.node_count(),
                    || derandomizer.run(lift),
                    |job, s, e, r| {
                        if let Ok(run) = r {
                            record_derand(tracer, job, s, e - s, run);
                        }
                    },
                )
            });
            stats.wall = t0.elapsed();
            tracer.close(batch);
            stats.job_times = outcome.stats.job_times.clone();
            stats.busy = outcome.stats.busy;
            stats.cache = Some(cache.stats().delta_from(&before)?);
            collect(outcome, JobOutput::Derand)
        }
        (Prepared::Store { jobs, store, scheduler }, mode) => {
            let before = store.cache().stats();
            let t0 = Instant::now();
            let outcome = match mode {
                Mode::Plain => {
                    pipeline_batch(&alg, jobs, strategy, &config, scheduler, Some(store.cache()))
                }
                Mode::Traced { tracer, parent } => {
                    let batch = tracer.open("batch", Some(parent));
                    let outcome = scheduler.run(jobs, |idx, (net, seed)| {
                        traced_job(
                            tracer,
                            batch.id(),
                            idx,
                            net.node_count(),
                            || {
                                run_pipeline_cached(
                                    &alg,
                                    net,
                                    *seed,
                                    strategy,
                                    &config,
                                    Some(store.cache()),
                                )
                            },
                            |job, s, e, r| {
                                if let Ok(run) = r {
                                    record_pipeline(tracer, job, s, e, run);
                                }
                            },
                        )
                    });
                    tracer.close(batch);
                    outcome
                }
            };
            let batch_done = Instant::now();
            let flush = match mode {
                Mode::Plain => None,
                Mode::Traced { tracer, parent } => Some(tracer.open("flush", Some(parent))),
            };
            store.flush()?;
            stats.flush = Some(batch_done.elapsed());
            stats.wall = t0.elapsed();
            if let (Some(span), Mode::Traced { tracer, .. }) = (flush, mode) {
                tracer.close(span);
            }
            stats.job_times = outcome.stats.job_times.clone();
            stats.busy = outcome.stats.busy;
            stats.cache = Some(store.cache().stats().delta_from(&before)?);
            let store_stats = store.store_stats();
            stats.store_appends = Some(store_stats.appends);
            stats.store_disk_bytes = Some(store_stats.disk_bytes);
            collect(outcome, JobOutput::Pipeline)
        }
    };
    Ok((stats, results))
}

/// Checks one job's output and returns its digest, or `None` if the
/// output is not a valid MIS or the pipeline's coloring is not a 2-hop
/// coloring.
fn check_job(graph: &Graph, out: &JobOutput) -> Option<u64> {
    let outputs = &out.derand().outputs;
    if !MisProblem.is_valid_output(&graph.with_uniform_label(()), outputs) {
        return None;
    }
    let mut digest = Fnv::default();
    digest.bits(outputs.iter().copied());
    if let Some(coloring) = out.coloring() {
        if !is_two_hop_colored(graph, coloring) {
            return None;
        }
        for color in coloring {
            digest.bits(color.as_slice().iter().copied());
        }
    }
    Some(digest.finish())
}

fn check_round(prepared: &Prepared, results: &[Result<JobOutput, String>]) -> Vec<Option<u64>> {
    let graphs: Vec<&Graph> = match prepared {
        Prepared::Single(nets) => nets.iter().map(|(n, _)| n.graph()).collect(),
        Prepared::Lifts { lifts, .. } => lifts.iter().map(|l| l.graph()).collect(),
        Prepared::Store { jobs, .. } => jobs.iter().map(|(n, _)| n.graph()).collect(),
    };
    graphs
        .iter()
        .zip(results)
        .map(|(g, r)| r.as_ref().ok().and_then(|out| check_job(g, out)))
        .collect()
}

/// `true` iff no two nodes within two hops share a color: the closed
/// neighborhood of every node is rainbow. Same predicate as
/// `anonet_graph::coloring::is_two_hop_coloring`, in `O(Σ deg²)` rather
/// than a BFS per node, which takes seconds per 1e4-node network.
pub fn is_two_hop_colored(graph: &Graph, colors: &[BitString]) -> bool {
    colors.len() == graph.node_count()
        && graph.nodes().all(|x| {
            let mut ball: Vec<&BitString> =
                graph.neighbors(x).iter().map(|v| &colors[v.index()]).collect();
            ball.push(&colors[x.index()]);
            ball.iter().enumerate().all(|(i, a)| ball[i + 1..].iter().all(|b| a != b))
        })
}

/// Closes the round's store, optionally timing a reopen with recovery
/// and warm-up, and removes its directory.
fn teardown(
    prepared: Prepared,
    dir: &Path,
    stats: &mut RoundStats,
    reopen: bool,
) -> Result<(), Error> {
    let Prepared::Store { store, jobs, .. } = prepared else { return Ok(()) };
    drop(store);
    if reopen {
        let t = Instant::now();
        let reopened = PersistentDerandCache::open(dir)?;
        reopened.warm(2 * jobs.len() + 16)?;
        stats.reopen = Some(t.elapsed());
        stats.recovered = Some(reopened.store_stats().recovered_records);
    }
    remove_store(dir)
}

/// Removes a scratch store directory; a directory that is already gone
/// is fine, any other failure is reported.
pub fn remove_store(dir: &Path) -> Result<(), Error> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("removing scratch store {}: {e}", dir.display()).into()),
    }
}

/// The outcome of a pass: rounds of the same jobs under one mode.
#[derive(Debug, Default)]
pub struct Pass {
    /// Per-round measurements.
    pub rounds: Vec<RoundStats>,
    /// Jobs attempted.
    pub attempted: usize,
    /// Jobs that failed, gave invalid output, or differed from the
    /// reference digest.
    pub failed: usize,
    /// The last round's results, for the layer probes.
    pub last: Vec<Result<JobOutput, String>>,
}

impl Pass {
    /// Every set-up time of the pass.
    pub fn setups(&self) -> Vec<Duration> {
        self.rounds.iter().map(|r| r.setup).collect()
    }

    /// Every job latency of the pass.
    pub fn job_times(&self) -> Vec<Duration> {
        self.rounds.iter().flat_map(|r| r.job_times.iter().copied()).collect()
    }
}

/// Per-run settings shared by every pass.
#[derive(Clone, Debug)]
pub struct Runner {
    /// The generated inputs.
    pub inputs: Inputs,
    /// Where scratch stores go.
    pub scratch: PathBuf,
    /// Per-job digests every round must reproduce, set by the first round.
    pub reference: Option<Vec<u64>>,
    store_serial: usize,
}

impl Runner {
    /// A runner over `inputs`, with scratch stores under `scratch`.
    pub fn new(inputs: Inputs, scratch: PathBuf) -> Runner {
        Runner { inputs, scratch, reference: None, store_serial: 0 }
    }

    fn next_store_dir(&mut self) -> PathBuf {
        self.store_serial += 1;
        self.scratch.join(format!("store-{}-{}", std::process::id(), self.store_serial))
    }

    /// The outputs digest of the workload: all per-job digests in
    /// submission order, once a round has run.
    pub fn outputs_digest(&self) -> Option<u64> {
        self.reference.as_ref().map(|jobs| {
            let mut d = Fnv::default();
            jobs.iter().for_each(|&j| d.u64(j));
            d.finish()
        })
    }

    /// Runs rounds of every job on `threads` workers under `mode`,
    /// starting rounds until `seconds` have passed (at least one).
    ///
    /// # Errors
    ///
    /// Set-up, store or cache-accounting failures (job failures are
    /// counted, not raised).
    pub fn pass(&mut self, threads: usize, mode: Mode<'_>, seconds: f64) -> Result<Pass, Error> {
        let started = Instant::now();
        let mut pass = Pass::default();
        while pass.rounds.is_empty() || started.elapsed().as_secs_f64() < seconds {
            let dir = self.next_store_dir();
            let round_span = match mode {
                Mode::Traced { tracer, parent } => {
                    Some((tracer, tracer.open("round", Some(parent))))
                }
                Mode::Plain => None,
            };
            let setup_span = round_span.map(|(t, r)| t.open("setup", Some(r.id())));
            let (prepared, times) = setup(&self.inputs, threads, &dir)?;
            let round_mode = match (round_span, setup_span) {
                (Some((tracer, round)), Some(s)) => {
                    tracer.close(s);
                    Mode::Traced { tracer, parent: round.id() }
                }
                _ => Mode::Plain,
            };
            let (mut stats, results) = execute(&prepared, round_mode)?;
            stats.setup = times.total;
            stats.store_open = times.store_open;
            let digests = check_round(&prepared, &results);
            teardown(prepared, &dir, &mut stats, round_span.is_some())?;
            if let Some((tracer, round)) = round_span {
                tracer.close(round);
            }
            pass.attempted += digests.len();
            pass.failed += self.compare(&digests);
            pass.last = results;
            pass.rounds.push(stats);
        }
        Ok(pass)
    }

    /// Times `count` more set-ups without running their rounds.
    ///
    /// # Errors
    ///
    /// Set-up or store failures.
    pub fn setups(&mut self, threads: usize, count: usize) -> Result<Vec<Duration>, Error> {
        (0..count)
            .map(|_| {
                let dir = self.next_store_dir();
                let (prepared, times) = setup(&self.inputs, threads, &dir)?;
                teardown(prepared, &dir, &mut RoundStats::default(), false)?;
                Ok(times.total)
            })
            .collect()
    }

    /// Counts the jobs whose digest is missing or differs from the
    /// reference; the first round sets the reference.
    fn compare(&mut self, digests: &[Option<u64>]) -> usize {
        let invalid = digests.iter().filter(|d| d.is_none()).count();
        match &self.reference {
            None => {
                self.reference = Some(digests.iter().map(|d| d.unwrap_or(0)).collect());
                invalid
            }
            Some(reference) => {
                digests.iter().zip(reference).filter(|(d, r)| d.is_none_or(|d| d != **r)).count()
            }
        }
    }
}
