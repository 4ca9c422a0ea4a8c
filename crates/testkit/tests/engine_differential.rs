//! Differential oracle for the engine's message sharing.
//!
//! [`Oblivious`] overrides [`Algorithm::outgoing`] to compose one
//! broadcast per node per round and share it across ports. [`PerPort`]
//! wraps the same algorithm but keeps the default `outgoing`, which
//! composes every port separately. Both must produce the same execution,
//! field by field, for every oblivious algorithm of `anonet-algorithms`,
//! under every testkit adversary, with state and event recording on.

use anonet_algorithms::coloring::RandomizedColoring;
use anonet_algorithms::det_coloring::DeterministicColoring;
use anonet_algorithms::det_mis::DeterministicMis;
use anonet_algorithms::det_two_hop_reduction::TwoHopReduction;
use anonet_algorithms::emulation::VirtualPorts;
use anonet_algorithms::local_election::KLocalElection;
use anonet_algorithms::matching::RandomizedMatching;
use anonet_algorithms::mis::RandomizedMis;
use anonet_algorithms::monte_carlo::MonteCarloLeader;
use anonet_algorithms::two_hop_coloring::TwoHopColoring;
use anonet_algorithms::verify::{ColoringVerifier, MisVerifier, TwoHopColoringVerifier};
use anonet_graph::{coloring, generators, Graph, Label, LabeledGraph, Port};
use anonet_runtime::{
    run_with_adversary, Actions, Algorithm, ExecConfig, Execution, Inbox, Oblivious,
    ObliviousAlgorithm, RngSource,
};
use anonet_testkit::testcase::AdversaryKind;
use rand::{Rng, SeedableRng};

/// Runs an oblivious algorithm through the per-port default of
/// [`Algorithm::outgoing`]: every port composes its own copy.
#[derive(Clone, Debug)]
struct PerPort<A>(Oblivious<A>);

impl<A: ObliviousAlgorithm> Algorithm for PerPort<A> {
    type Input = A::Input;
    type Message = A::Message;
    type Output = A::Output;
    type State = A::State;

    fn init(&self, input: &A::Input, degree: usize) -> A::State {
        self.0.init(input, degree)
    }

    fn compose(&self, state: &A::State, port: Port) -> Option<A::Message> {
        self.0.compose(state, port)
    }

    fn step(
        &self,
        state: A::State,
        round: usize,
        inbox: &Inbox<'_, A::Message>,
        bit: bool,
        actions: &mut Actions<A::Output>,
    ) -> A::State {
        self.0.step(state, round, inbox, bit, actions)
    }
}

fn config() -> ExecConfig {
    ExecConfig { max_rounds: 400, record_states: true, record_events: true }
}

/// Runs `alg` both ways on `net` and compares every field of the two
/// executions; returns the shared execution.
fn assert_paths_agree<A>(
    name: &str,
    alg: &A,
    net: &LabeledGraph<A::Input>,
    seed: u64,
) -> Vec<Execution<Oblivious<A>>>
where
    A: ObliviousAlgorithm + Clone,
    A::Input: Label,
{
    let mut shared_runs = Vec::new();
    for adversary in AdversaryKind::ALL {
        let ctx = format!("{name}, n = {}, seed {seed}, {}", net.node_count(), adversary.name());
        let shared = run_with_adversary(
            &Oblivious(alg.clone()),
            net,
            &mut RngSource::seeded(seed),
            &config(),
            adversary.build(seed).as_mut(),
        );
        let per_port = run_with_adversary(
            &PerPort(Oblivious(alg.clone())),
            net,
            &mut RngSource::seeded(seed),
            &config(),
            adversary.build(seed).as_mut(),
        );
        let (shared, per_port) = match (shared, per_port) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(a), Err(b)) => {
                assert_eq!(a, b, "{ctx}: errors");
                continue;
            }
            (a, b) => panic!("{ctx}: one path failed: {:?} vs {:?}", a.err(), b.err()),
        };
        assert_eq!(shared.outputs(), per_port.outputs(), "{ctx}: outputs");
        assert_eq!(shared.output_rounds(), per_port.output_rounds(), "{ctx}: output rounds");
        assert_eq!(shared.halt_rounds(), per_port.halt_rounds(), "{ctx}: halt rounds");
        assert_eq!(shared.final_states(), per_port.final_states(), "{ctx}: final states");
        assert_eq!(shared.rounds(), per_port.rounds(), "{ctx}: rounds");
        for r in 0..=shared.rounds() + 1 {
            assert_eq!(shared.states_at(r), per_port.states_at(r), "{ctx}: states at {r}");
        }
        assert_eq!(shared.messages_sent(), per_port.messages_sent(), "{ctx}: messages");
        assert_eq!(shared.message_bytes(), per_port.message_bytes(), "{ctx}: message bytes");
        assert_eq!(
            shared.messages_per_round(),
            per_port.messages_per_round(),
            "{ctx}: messages per round"
        );
        assert_eq!(
            shared.active_per_round(),
            per_port.active_per_round(),
            "{ctx}: active per round"
        );
        assert_eq!(shared.events(), per_port.events(), "{ctx}: events");
        assert_eq!(shared.bits_consumed(), per_port.bits_consumed(), "{ctx}: bits");
        assert_eq!(shared.status(), per_port.status(), "{ctx}: status");
        shared_runs.push(shared);
    }
    shared_runs
}

/// Small connected graphs from several families.
fn graphs(seed: u64) -> Vec<Graph> {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    vec![
        generators::cycle(7).unwrap(),
        generators::star(5).unwrap(),
        generators::random_tree(12, &mut rng).unwrap(),
        generators::gnp_connected(10, 0.3, &mut rng).unwrap(),
        generators::random_regular(12, 3, 100, &mut rng).unwrap(),
    ]
}

#[test]
fn broadcast_sharing_matches_per_port_composition() {
    for seed in [1u64, 2] {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0xD1FF);
        for g in graphs(seed) {
            let n = g.node_count();
            let units = g.with_uniform_label(());
            let colors = coloring::greedy_two_hop_coloring(&g);
            let colors3 = coloring::greedy_k_hop_coloring(&g, 3);
            let members = g.with_labels((0..n).map(|_| rng.gen_bool(0.4)).collect()).unwrap();
            let paired = colors.map_labels(|&c| ((), c));

            assert_paths_agree("two-hop-coloring", &TwoHopColoring::new(), &units, seed);
            assert_paths_agree("mis", &RandomizedMis::new(), &units, seed);
            assert_paths_agree("coloring", &RandomizedColoring::new(), &units, seed);
            assert_paths_agree("matching", &RandomizedMatching::new(), &colors, seed);
            assert_paths_agree("det-mis", &DeterministicMis::new(), &colors, seed);
            assert_paths_agree("det-coloring", &DeterministicColoring::new(), &colors, seed);
            assert_paths_agree("two-hop-reduction", &TwoHopReduction::new(), &colors, seed);
            assert_paths_agree("local-election", &KLocalElection::new(1), &colors3, seed);
            assert_paths_agree(
                "monte-carlo-leader",
                &MonteCarloLeader::new(4),
                &g.with_uniform_label(n),
                seed,
            );
            assert_paths_agree("mis-verifier", &MisVerifier, &members, seed);
            assert_paths_agree("coloring-verifier", &ColoringVerifier::new(), &colors, seed);
            assert_paths_agree(
                "two-hop-coloring-verifier",
                &TwoHopColoringVerifier::new(),
                &colors,
                seed,
            );
            assert_paths_agree(
                "virtual-ports",
                &VirtualPorts::<_, u32>::new(Oblivious(RandomizedMis::new())),
                &paired,
                seed,
            );
        }
    }
}

/// Broadcasts every round and halts in the round its input names.
#[derive(Clone, Debug)]
struct HaltAt;

impl ObliviousAlgorithm for HaltAt {
    type Input = u32;
    type Message = u32;
    type Output = u32;
    type State = u32;

    fn init(&self, input: &u32, _degree: usize) -> u32 {
        *input
    }

    fn broadcast(&self, state: &u32) -> Option<u32> {
        Some(*state)
    }

    fn step(
        &self,
        state: u32,
        round: usize,
        received: &[&u32],
        _bit: bool,
        actions: &mut Actions<u32>,
    ) -> u32 {
        if round == state as usize {
            actions.output(received.len() as u32);
            actions.halt();
        }
        state
    }
}

#[test]
fn messages_to_halted_receivers_are_still_counted() {
    // Path 0 - 1 - 2: node 0 halts after round 1, the others after round 3.
    // Node 1 keeps broadcasting on both ports, so in rounds 2 and 3 one of
    // its messages goes to the halted node 0 and still counts.
    let net = generators::path(3).unwrap().with_labels(vec![1u32, 3, 3]).unwrap();
    for exec in assert_paths_agree("halt-at", &HaltAt, &net, 0) {
        assert_eq!(exec.messages_per_round(), &[4, 3, 3]);
        assert_eq!(exec.active_per_round(), &[3, 2, 2]);
        assert_eq!(exec.messages_sent(), 10);
        assert_eq!(exec.message_bytes(), 10 * std::mem::size_of::<u32>());
        // Node 1 hears only node 2 once node 0 is silent.
        assert_eq!(exec.outputs(), &[Some(1), Some(1), Some(1)]);
    }
}
