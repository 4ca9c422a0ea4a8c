//! Cross-crate integration: the batch engine + derandomization cache must
//! be a pure performance layer. For every problem × family, running
//! instances through `derandomize_batch` / `pipeline_batch` with a shared
//! cache must produce results byte-identical to the plain sequential,
//! uncached `Derandomizer` / `run_pipeline` calls.

use std::sync::Arc;

use anonet::algorithms::coloring::RandomizedColoring;
use anonet::algorithms::mis::RandomizedMis;
use anonet::algorithms::problems::{GreedyColoringProblem, MisProblem};
use anonet::batch::{BatchScheduler, DerandCache};
use anonet::core::batch::{derandomize_batch, pipeline_batch};
use anonet::core::pipeline::{run_pipeline, run_pipeline_cached};
use anonet::core::{DerandomizedRun, Derandomizer, SearchStrategy};
use anonet::graph::{generators, Label, LabeledGraph};
use anonet::obs::{bridge, noop, NoopRecorder};
use anonet::runtime::{run, ExecConfig, Oblivious, ObliviousAlgorithm, Problem, RngSource};
use anonet::testkit::{build_instance, TestCase};

/// Builds one 2-hop colored instance from a testkit replay string.
fn colored_case(replay: &str) -> LabeledGraph<((), u32)> {
    let case: TestCase = replay.parse().expect("replay strings are written in-test");
    let inst = build_instance(&case).expect("generator succeeds");
    inst.colors.map_labels(|&c| ((), c))
}

/// 2-hop colored instances across lift families and standard graphs,
/// drawn through the testkit generator: the five seed-0 C3 lifts share
/// one quotient (so the cache must collapse their searches), while the
/// seed-1 standard graphs are mostly prime with distinct quotients.
fn colored_families() -> Vec<(String, LabeledGraph<((), u32)>)> {
    let mut out = Vec::new();
    for m in [1usize, 2, 3, 4, 5] {
        let replay = format!("tc1:family=cycle,n=3,seed=0,color=greedy,lift={m},adv=fair");
        out.push((format!("lift-C3x{m}"), colored_case(&replay)));
    }
    for (name, family, n) in [
        ("petersen", "petersen", 10),
        ("path-8", "path", 8),
        ("grid-3x3", "grid", 9),
        ("wheel-7", "wheel", 7),
    ] {
        let replay = format!("tc1:family={family},n={n},seed=1,color=greedy,lift=1,adv=fair");
        out.push((name.to_string(), colored_case(&replay)));
    }
    out
}

/// Byte-serializes every observable field of a run, so equality below is
/// byte-equality of the results, not a lossy comparison.
fn run_bytes<O: Label>(run: &DerandomizedRun<O>) -> Vec<u8> {
    let mut out = Vec::new();
    for o in &run.outputs {
        o.encode(&mut out);
    }
    out.extend_from_slice(&(run.quotient_nodes as u64).to_le_bytes());
    out.extend_from_slice(&(run.multiplicity as u64).to_le_bytes());
    out.extend_from_slice(&(run.simulation_rounds as u64).to_le_bytes());
    out.extend_from_slice(&(run.attempts as u64).to_le_bytes());
    for tape in run.assignment.tapes() {
        out.extend_from_slice(&(tape.len() as u64).to_le_bytes());
        out.extend(tape.iter().map(u8::from));
    }
    out
}

fn assert_batch_matches_sequential<A>(
    alg: A,
    strategy: SearchStrategy,
    families: Vec<(String, LabeledGraph<((), u32)>)>,
) where
    A: ObliviousAlgorithm<Input = ()> + Clone + Sync,
    A::Output: Label + Send,
{
    let instances: Vec<LabeledGraph<((), u32)>> = families.iter().map(|(_, g)| g.clone()).collect();
    let config = ExecConfig::default();

    let sequential: Vec<Vec<u8>> = instances
        .iter()
        .map(|inst| {
            let run = Derandomizer::new(alg.clone())
                .with_strategy(strategy)
                .run(inst)
                .expect("sequential derandomization succeeds");
            run_bytes(&run)
        })
        .collect();

    for threads in [1usize, 4] {
        let cache = Arc::new(DerandCache::new());
        let batch = derandomize_batch(
            &alg,
            &instances,
            strategy,
            &config,
            &BatchScheduler::with_threads(threads),
            Some(&cache),
        );
        assert_eq!(batch.stats.succeeded, instances.len());
        let stats = batch.stats.cache.expect("cache stats attached");
        assert_eq!(stats.assignment_hits + stats.assignment_misses, instances.len() as u64);
        if threads == 1 {
            // Sequentially, only the first instance of each quotient class
            // misses; concurrent warm-up may race several misses in flight
            // before the first insert lands, so no hit floor there.
            assert!(stats.assignment_hits >= 4, "five C3 lifts must share one search");
        }
        for ((name, _), (seq, par)) in
            families.iter().zip(sequential.iter().zip(batch.results.iter()))
        {
            let par = par.ok().expect("batch job succeeds");
            assert_eq!(
                seq,
                &run_bytes(par),
                "{name}: batch+cache ({threads} threads) diverged from sequential uncached"
            );
        }
    }
}

#[test]
fn batched_mis_is_byte_identical_to_sequential() {
    assert_batch_matches_sequential(
        RandomizedMis::new(),
        SearchStrategy::default(),
        colored_families(),
    );
}

#[test]
fn batched_coloring_is_byte_identical_to_sequential() {
    assert_batch_matches_sequential(
        RandomizedColoring::new(),
        SearchStrategy::default(),
        colored_families(),
    );
}

#[test]
fn batched_exhaustive_search_is_byte_identical_to_sequential() {
    // Exhaustive enumeration is 2^(|V_*|·t): restrict to the lift family,
    // whose quotient stays at 3 nodes (the greedily colored standard
    // graphs are mostly prime — quotient = whole graph — and out of
    // reach for the paper's literal minimal-assignment search).
    let lifts = colored_families()
        .into_iter()
        .filter(|(name, _)| name.starts_with("lift-"))
        .collect::<Vec<_>>();
    assert_eq!(lifts.len(), 5);
    assert_batch_matches_sequential(
        RandomizedMis::new(),
        SearchStrategy::Exhaustive { max_total_bits: 24 },
        lifts,
    );
}

#[test]
fn batched_pipeline_matches_sequential_and_stays_valid() {
    let nets: Vec<(LabeledGraph<()>, u64)> = [
        generators::cycle(9).unwrap(),
        generators::path(7).unwrap(),
        generators::petersen(),
        generators::grid(3, 3, true).unwrap(),
    ]
    .into_iter()
    .flat_map(|g| (0..2u64).map(move |seed| (g.with_uniform_label(()), seed)))
    .collect();

    let cache = Arc::new(DerandCache::new());
    let batch = pipeline_batch(
        &RandomizedMis::new(),
        &nets,
        SearchStrategy::default(),
        &ExecConfig::default(),
        &BatchScheduler::with_threads(3),
        Some(&cache),
    );
    assert_eq!(batch.stats.succeeded, nets.len());

    for ((net, seed), result) in nets.iter().zip(batch.results.iter()) {
        let batched = result.ok().expect("pipeline job succeeds");
        let sequential = run_pipeline(&RandomizedMis::new(), net, *seed, SearchStrategy::default())
            .expect("sequential pipeline succeeds");
        assert_eq!(sequential.outputs, batched.outputs);
        assert_eq!(sequential.coloring, batched.coloring);
        assert_eq!(run_bytes(&sequential.deterministic), run_bytes(&batched.deterministic));
        assert!(MisProblem.is_valid_output(net, &batched.outputs));
    }
}

/// The no-op recorder must be observationally free: threading it through
/// any layer produces outputs, traces, and cache contents byte-identical
/// to the un-observed default, across problems × families × thread
/// counts.
#[test]
fn noop_observation_is_byte_identical_across_layers() {
    let families = colored_families();
    let strategy = SearchStrategy::default();
    let config = ExecConfig::default();

    // Layer 1 — the sequential derandomizer, both problems, every family.
    for (name, inst) in &families {
        let plain = Derandomizer::new(RandomizedMis::new()).run(inst).unwrap();
        let observed =
            Derandomizer::new(RandomizedMis::new()).with_recorder(noop()).run(inst).unwrap();
        assert_eq!(
            run_bytes(&plain),
            run_bytes(&observed),
            "{name}: MIS derandomizer diverged under the noop recorder"
        );
        let plain = Derandomizer::new(RandomizedColoring::new()).run(inst).unwrap();
        let observed =
            Derandomizer::new(RandomizedColoring::new()).with_recorder(noop()).run(inst).unwrap();
        assert_eq!(
            run_bytes(&plain),
            run_bytes(&observed),
            "{name}: coloring derandomizer diverged under the noop recorder"
        );
    }

    // Layer 2 — the batch scheduler + shared cache: results and the
    // cache's own accounting (entries, hits, resident bytes) must match.
    let instances: Vec<LabeledGraph<((), u32)>> = families.iter().map(|(_, g)| g.clone()).collect();
    for threads in [1usize, 4] {
        let plain_cache = Arc::new(DerandCache::new());
        let plain = derandomize_batch(
            &RandomizedMis::new(),
            &instances,
            strategy,
            &config,
            &BatchScheduler::with_threads(threads),
            Some(&plain_cache),
        );
        let observed_cache = Arc::new(DerandCache::new());
        let observed = derandomize_batch(
            &RandomizedMis::new(),
            &instances,
            strategy,
            &config,
            &BatchScheduler::with_threads(threads).with_recorder(noop()),
            Some(&observed_cache),
        );
        for (i, (name, _)) in families.iter().enumerate() {
            let p = plain.results[i].ok().expect("plain batch job succeeds");
            let o = observed.results[i].ok().expect("observed batch job succeeds");
            assert_eq!(
                run_bytes(p),
                run_bytes(o),
                "{name}: batch ({threads} threads) diverged under the noop recorder"
            );
        }
        assert_eq!(
            plain_cache.stats(),
            observed_cache.stats(),
            "cache accounting ({threads} threads) diverged under the noop recorder"
        );
    }

    // Layer 3 — the full Theorem-1 pipeline: the positional shim against
    // the builder with an explicit noop recorder.
    let net = generators::petersen().with_uniform_label(());
    let observed_pipeline = Derandomizer::new(RandomizedMis::new())
        .with_strategy(strategy)
        .with_config(config)
        .with_recorder(noop());
    for seed in 0..3u64 {
        let plain = run_pipeline_cached(&RandomizedMis::new(), &net, seed, strategy, &config, None)
            .unwrap();
        let observed = observed_pipeline.pipeline(&net, seed).unwrap();
        assert_eq!(plain.outputs, observed.outputs);
        assert_eq!(plain.coloring, observed.coloring);
        assert_eq!(plain.random_bits, observed.random_bits);
        assert_eq!(run_bytes(&plain.deterministic), run_bytes(&observed.deterministic));
    }

    // Layer 4 — the event trace: rendering a traced run through the
    // recorder-backed renderer with the noop recorder equals the plain
    // timeline, and the execution itself is unchanged by tracing + obs.
    let traced = run(
        &Oblivious(RandomizedMis::new()),
        &net,
        &mut RngSource::seeded(5),
        &ExecConfig::default().tracing(),
    )
    .unwrap();
    let events = traced.events().expect("tracing was enabled");
    assert_eq!(bridge::timeline(&NoopRecorder, events), traced.timeline());
}

#[test]
fn batched_coloring_pipeline_is_valid() {
    let nets: Vec<(LabeledGraph<()>, u64)> = (0..3u64)
        .map(|seed| (generators::grid(3, 4, false).unwrap().with_uniform_label(()), seed))
        .collect();
    let cache = Arc::new(DerandCache::new());
    let batch = pipeline_batch(
        &RandomizedColoring::new(),
        &nets,
        SearchStrategy::default(),
        &ExecConfig::default(),
        &BatchScheduler::new(),
        Some(&cache),
    );
    for ((net, _), result) in nets.iter().zip(batch.results.iter()) {
        let run = result.ok().expect("job succeeds");
        assert!(GreedyColoringProblem.is_valid_output(net, &run.outputs));
    }
}
