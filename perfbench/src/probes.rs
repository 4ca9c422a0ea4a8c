//! Layer probes of the traced run: each layer is called directly on the
//! inputs and results of the traced pass's last round and timed from
//! outside. Every probe also checks its result against the job's.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use anonet_algorithms::mis::RandomizedMis;
use anonet_algorithms::two_hop_coloring::TwoHopColoring;
use anonet_batch::{CachedAssignment, PersistentDerandCache};
use anonet_graph::canonical::encode_with_order;
use anonet_graph::coloring::is_two_hop_coloring;
use anonet_graph::BitString;
use anonet_runtime::{run, ExecConfig, Oblivious, RngSource, TapeSource};
use anonet_views::{canonical_order, quotient, ViewMode};

use crate::inputs::Inputs;
use crate::trace::Tracer;
use crate::workloads::{load, load_lifts, load_seeded, remove_store, Colored, JobOutput};
use crate::Error;

/// Per-job (or per-base) samples of every probed layer.
#[derive(Clone, Debug, Default)]
pub struct LayerSamples {
    /// Stage-1 coloring wall time.
    pub coloring: Vec<Duration>,
    /// Stage-1 rounds.
    pub coloring_rounds: Vec<f64>,
    /// Stage-1 messages.
    pub messages: Vec<f64>,
    /// Stage-1 random bits drawn.
    pub bits: Vec<f64>,
    /// `quotient` wall time.
    pub quotient: Vec<Duration>,
    /// `canonical_order` wall time.
    pub order: Vec<Duration>,
    /// `|V_*|`.
    pub quotient_nodes: Vec<f64>,
    /// `|V| / |V_*|`.
    pub multiplicity: Vec<f64>,
    /// `encode_with_order` wall time.
    pub encode: Vec<Duration>,
    /// Length of the canonical key.
    pub key_bytes: Vec<f64>,
    /// `DerandomizedRun::search_time` of the job.
    pub search: Vec<Duration>,
    /// Simulations attempted by the job's search.
    pub attempts: Vec<f64>,
    /// Rounds of the selected quotient simulation.
    pub sim_rounds: Vec<f64>,
    /// One replay of the job's assignment on the quotient.
    pub replay: Vec<Duration>,
    /// Probes whose result disagreed with the job's.
    pub mismatches: usize,
}

/// The store layer measured on one set of records.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreSample {
    /// Opening the empty store.
    pub open: Duration,
    /// Flushing the appended records.
    pub flush: Duration,
    /// Close, reopen with recovery, and warm.
    pub reopen: Duration,
    /// Records appended.
    pub appends: u64,
    /// Bytes on disk after the flush.
    pub disk_bytes: u64,
    /// Records recovered by the reopen.
    pub recovered: u64,
}

fn timed<T>(
    tracer: &Tracer,
    parent: u64,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    let span = tracer.open(name, Some(parent));
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed();
    tracer.close(span);
    (out, wall)
}

/// Probes stage-1 coloring: `run(TwoHopColoring)` with the job's seed.
/// Returns the coloring.
fn probe_coloring(
    tracer: &Tracer,
    parent: u64,
    net: &anonet_graph::LabeledGraph<()>,
    seed: u64,
    acc: &mut LayerSamples,
) -> Result<Vec<BitString>, Error> {
    let (exec, wall) = timed(tracer, parent, "probe_coloring", || {
        run(
            &Oblivious(TwoHopColoring::new()),
            net,
            &mut RngSource::seeded(seed),
            &ExecConfig::default(),
        )
    });
    let exec = exec?;
    acc.coloring.push(wall);
    acc.coloring_rounds.push(exec.rounds() as f64);
    acc.messages.push(exec.messages_sent() as f64);
    acc.bits.push(exec.bits_consumed() as f64);
    Ok(exec.outputs_unwrapped())
}

/// Probes views, encoding and replay on one colored instance and its
/// job's result. Returns the canonical key and the assignment by
/// canonical position.
fn probe_derand(
    tracer: &Tracer,
    parent: u64,
    instance: &Colored,
    out: &JobOutput,
    acc: &mut LayerSamples,
) -> Result<(Vec<u8>, CachedAssignment), Error> {
    let job = out.derand();
    let (q, wall) =
        timed(tracer, parent, "probe_quotient", || quotient(instance, ViewMode::Portless));
    let q = q?;
    acc.quotient.push(wall);
    let (order, wall) =
        timed(tracer, parent, "probe_order", || canonical_order(q.graph(), ViewMode::Portless));
    let order = order?;
    acc.order.push(wall);
    let (key, wall) =
        timed(tracer, parent, "probe_encode", || encode_with_order(q.graph(), &order));
    acc.encode.push(wall);
    acc.key_bytes.push(key.len() as f64);
    acc.quotient_nodes.push(q.graph().node_count() as f64);
    acc.multiplicity.push(q.multiplicity().unwrap_or(0) as f64);
    acc.search.push(job.search_time);
    acc.attempts.push(job.attempts as f64);
    acc.sim_rounds.push(job.simulation_rounds as f64);

    let j = q.graph().map_labels(|(i, _)| *i);
    let (exec, wall) = timed(tracer, parent, "probe_replay", || {
        run(
            &Oblivious(RandomizedMis::new()),
            &j,
            &mut TapeSource::new(job.assignment.clone()),
            &ExecConfig::default(),
        )
    });
    let exec = exec?;
    acc.replay.push(wall);
    let lifted: Option<Vec<bool>> = exec.is_successful().then(|| {
        let qouts = exec.outputs_unwrapped();
        q.class_of().iter().map(|c| qouts[c.index()]).collect()
    });
    if lifted.as_deref() != Some(job.outputs.as_slice())
        || q.graph().node_count() != job.quotient_nodes
    {
        acc.mismatches += 1;
    }
    let tapes =
        order.iter().map(|&v| job.assignment.tape(v).cloned().unwrap_or_default()).collect();
    let cached = CachedAssignment {
        tapes,
        attempts: job.attempts,
        simulation_rounds: job.simulation_rounds,
    };
    Ok((key, cached))
}

/// Runs every layer probe over the last traced round's `results`. Also
/// returns the distinct `(key, assignment)` records the round produced.
///
/// # Errors
///
/// A probe call that fails outright.
pub fn probe_layers(
    tracer: &Tracer,
    parent: u64,
    inputs: &Inputs,
    results: &[Result<JobOutput, String>],
) -> Result<(LayerSamples, BTreeMap<Vec<u8>, CachedAssignment>), Error> {
    let mut acc = LayerSamples::default();
    let mut records = BTreeMap::new();
    let mut keep = |key, cached| {
        records.entry(key).or_insert(cached);
    };
    match inputs {
        Inputs::LargePrime(_) | Inputs::DistinctStore(_) => {
            for ((net, seed), result) in load_seeded(inputs)?.iter().zip(results) {
                let Ok(out) = result else { continue };
                let coloring = probe_coloring(tracer, parent, net, *seed, &mut acc)?;
                if Some(coloring.as_slice()) != out.coloring() {
                    acc.mismatches += 1;
                }
                let instance = net.zip(&net.graph().with_labels(coloring)?)?;
                let (key, cached) = probe_derand(tracer, parent, &instance, out, &mut acc)?;
                keep(key, cached);
            }
        }
        Inputs::LiftFamily { bases, .. } => {
            // Stage 1 runs once per base, before the lifts exist.
            for base in bases {
                let net = load(&base.net)?.with_uniform_label(());
                let coloring = probe_coloring(tracer, parent, &net, base.seed, &mut acc)?;
                if !is_two_hop_coloring(&net.graph().with_labels(coloring)?) {
                    acc.mismatches += 1;
                }
            }
            for (lift, result) in load_lifts(inputs)?.iter().zip(results) {
                let Ok(out) = result else { continue };
                let (key, cached) = probe_derand(tracer, parent, lift, out, &mut acc)?;
                keep(key, cached);
            }
        }
    }
    Ok((acc, records))
}

/// Probes the store layer on `records`: open a fresh store at `dir`,
/// append every record, flush, close, reopen with recovery and warm.
///
/// # Errors
///
/// Store I/O failures.
pub fn probe_store(
    tracer: &Tracer,
    parent: u64,
    dir: &Path,
    records: &BTreeMap<Vec<u8>, CachedAssignment>,
) -> Result<StoreSample, Error> {
    remove_store(dir)?;
    let mut sample = StoreSample::default();
    let (store, open) =
        timed(tracer, parent, "probe_store_open", || PersistentDerandCache::open(dir));
    let store = store?;
    sample.open = open;
    for (key, cached) in records {
        store.cache().insert_assignment("perfbench.store-probe", key, cached.clone());
    }
    let (flushed, flush) = timed(tracer, parent, "probe_store_flush", || store.flush());
    flushed?;
    sample.flush = flush;
    let stats = store.store_stats();
    sample.appends = stats.appends;
    sample.disk_bytes = stats.disk_bytes;
    drop(store);
    let (reopened, reopen) = timed(tracer, parent, "probe_store_reopen", || {
        let store = PersistentDerandCache::open(dir)?;
        store.warm(2 * records.len() + 16)?;
        Ok::<_, Error>(store)
    });
    sample.reopen = reopen;
    sample.recovered = reopened?.store_stats().recovered_records;
    remove_store(dir)?;
    Ok(sample)
}
