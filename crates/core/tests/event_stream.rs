//! Pins the exact recorder event stream of each driver: span paths,
//! counter deltas and histogram samples, in emission order, with wall
//! times left out. A refactor of a driver must reproduce its stream event
//! for event; a deliberate change to what a driver records updates the
//! literal here.

use std::sync::Arc;

use anonet_algorithms::mis::RandomizedMis;
use anonet_algorithms::problems::MisProblem;
use anonet_batch::DerandCache;
use anonet_core::astar::{run_astar, AStarConfig};
use anonet_core::Derandomizer;
use anonet_graph::{generators, lift, LabeledGraph};
use anonet_obs::{Json, JsonlRecorder, SharedBuffer};

/// The buffered JSONL stream as `span <path>`, `counter <name> <delta>` and
/// `hist <name> <value>` lines.
fn events(buf: &SharedBuffer) -> Vec<String> {
    let field = |line: &Json, key: &str| line.get(key).map(|v| v.to_string()).unwrap_or_default();
    let text = |line: &Json, key: &str| field(line, key).trim_matches('"').to_string();
    buf.parsed_lines()
        .expect("the recorder writes parseable JSONL")
        .iter()
        .map(|line| match text(line, "ev").as_str() {
            "span" => format!("span {}", text(line, "path")),
            "counter" => format!("counter {} {}", text(line, "name"), field(line, "delta")),
            "hist" => format!("hist {} {}", text(line, "name"), field(line, "value")),
            other => format!("unexpected event {other}"),
        })
        .collect()
}

/// Expands an expected stream: one event per line, where a trailing
/// ` xN` repeats the event `N` times.
fn expand(expected: &str) -> Vec<String> {
    let mut out = Vec::new();
    for line in expected.lines().map(str::trim).filter(|l| !l.is_empty()) {
        match line.rsplit_once(" x").and_then(|(ev, n)| Some((ev, n.parse::<usize>().ok()?))) {
            Some((ev, n)) => out.extend(std::iter::repeat_n(ev.to_string(), n)),
            None => out.push(line.to_string()),
        }
    }
    out
}

fn triangle() -> LabeledGraph<((), u32)> {
    generators::cycle(3).unwrap().with_labels(vec![((), 1u32), ((), 2), ((), 3)]).unwrap()
}

#[test]
fn derandomizer_cache_miss_then_hit() {
    let (rec, buf) = JsonlRecorder::buffered();
    let derandomizer = Derandomizer::new(RandomizedMis::new())
        .with_cache(Arc::new(DerandCache::new()))
        .with_recorder(Arc::new(rec));
    let lifted = lift::cyclic_cycle_lift(3, 4).unwrap().lift_labels(triangle().labels()).unwrap();
    assert!(!derandomizer.run(&triangle()).unwrap().cache_hit);
    assert!(derandomizer.run(&lifted).unwrap().cache_hit);
    drop(derandomizer);
    let expected = "
        span derandomize/views
        span derandomize/factor
        hist derand.quotient_nodes 3
        hist derand.multiplicity 1
        hist derand.view_depth 0
        counter cache.miss 1
        span derandomize/search
        counter search.attempts 1
        hist cache.bytes 121
        span derandomize/lift
        span derandomize
        span derandomize/views
        span derandomize/factor
        hist derand.quotient_nodes 3
        hist derand.multiplicity 4
        hist derand.view_depth 0
        span derandomize/replay
        counter cache.hit 1
        hist cache.bytes 121
        span derandomize/lift
        span derandomize
    ";
    assert_eq!(events(&buf), expand(expected));
}

#[test]
fn pipeline_on_the_six_cycle() {
    let (rec, buf) = JsonlRecorder::buffered();
    let net = generators::cycle(6).unwrap().with_uniform_label(());
    Derandomizer::new(RandomizedMis::new()).with_recorder(Arc::new(rec)).pipeline(&net, 7).unwrap();
    let expected = "
        span pipeline/coloring
        counter engine.rounds 10
        counter engine.messages 114
        counter engine.message_bytes 6384
        counter engine.bits_drawn 57
        counter engine.outputs 6
        counter engine.halts 6
        hist engine.messages_per_round 12 x9
        hist engine.messages_per_round 6
        hist engine.active_per_round 6 x9
        hist engine.active_per_round 3
        hist engine.bits_per_node 9
        hist engine.bits_per_node 10
        hist engine.bits_per_node 9
        hist engine.bits_per_node 10
        hist engine.bits_per_node 9
        hist engine.bits_per_node 10
        span pipeline/derandomize/views
        span pipeline/derandomize/factor
        hist derand.quotient_nodes 6
        hist derand.multiplicity 1
        hist derand.view_depth 0
        span pipeline/derandomize/search
        counter search.attempts 1
        span pipeline/derandomize/lift
        span pipeline/derandomize
        span pipeline
    ";
    assert_eq!(events(&buf), expand(expected));
}

#[test]
fn astar_on_the_colored_triangle() {
    let (rec, buf) = JsonlRecorder::buffered();
    let cfg = AStarConfig { recorder: Arc::new(rec), ..Default::default() };
    run_astar(&RandomizedMis::new(), &MisProblem, &triangle(), &cfg).unwrap();
    drop(cfg);
    // One phase: the three pool requests, then each node's step, which
    // runs Update-Output and Update-Bits only when C2 selects a candidate.
    let phase = |pools: &str, selected: bool| {
        let step = if selected {
            "counter astar.c2.lookups 1
             span astar/update_graph
             counter astar.c2.hits 1
             span astar/update_output
             span astar/update_bits"
        } else {
            "counter astar.c2.lookups 1
             span astar/update_graph"
        };
        format!("{pools}\n{step}\n{step}\n{step}\n")
    };
    let fresh = "counter astar.pool.miss 1 x3";
    let shared = "counter astar.pool.miss 1\ncounter astar.pool.hit 1 x2";
    let expected = [
        phase(fresh, true),
        phase(shared, false),
        phase(shared, true),
        phase(shared, true),
        "span astar".to_string(),
    ]
    .concat();
    assert_eq!(events(&buf), expand(&expected));
}
