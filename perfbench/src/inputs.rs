//! Seeded input generation. Everything here runs before any timer starts:
//! the workloads receive only the edge lists, labels and seeds built here.

// anonet-lint: allow-file(randomness, reason = "seeded instance generators build benchmark inputs, not pipeline state")
use anonet_algorithms::two_hop_coloring::TwoHopColoring;
use anonet_graph::lift::random_connected_lift;
use anonet_graph::{generators, BitString, Graph};
use anonet_runtime::{run, ExecConfig, Oblivious, RngSource};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::Error;

/// Retry budget for the rejection samplers (random regular graphs,
/// connected lifts); both succeed within a handful of tries.
const MAX_TRIES: usize = 1000;

/// Input sizes of the three workloads.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Nodes of the `large-prime` cycle and random 3-regular graph.
    pub prime_nodes: usize,
    /// Side of the `large-prime` torus.
    pub torus_side: usize,
    /// `large-prime` networks per family, each with its own coloring seed
    /// (and its own graph for the random family).
    pub prime_per_family: usize,
    /// Number of `lift-family` bases.
    pub bases: usize,
    /// Nodes of each `lift-family` base.
    pub base_nodes: usize,
    /// `lift-family` lifts per base.
    pub lifts_per_base: usize,
    /// Inclusive multiplicity range of the lifts.
    pub multiplicity: (usize, usize),
    /// Number of `distinct-store` networks.
    pub distinct_jobs: usize,
    /// Nodes of each `distinct-store` network.
    pub distinct_nodes: usize,
}

impl Scale {
    /// The sizes the benchmark runs at.
    pub fn full() -> Scale {
        Scale {
            prime_nodes: 10_000,
            torus_side: 100,
            prime_per_family: 2,
            bases: 8,
            base_nodes: 24,
            lifts_per_base: 128,
            multiplicity: (32, 64),
            distinct_jobs: 1000,
            distinct_nodes: 128,
        }
    }

    /// Sizes small enough for a test to finish in a second or two.
    pub fn tiny() -> Scale {
        Scale {
            prime_nodes: 60,
            torus_side: 6,
            prime_per_family: 2,
            bases: 2,
            base_nodes: 12,
            lifts_per_base: 100,
            multiplicity: (2, 4),
            distinct_jobs: 100,
            distinct_nodes: 16,
        }
    }
}

/// An unlabeled network as the program receives it.
#[derive(Clone, Debug)]
pub struct Network {
    /// Node count.
    pub nodes: usize,
    /// Undirected edges; their order fixes the port numbering.
    pub edges: Vec<(usize, usize)>,
}

impl Network {
    fn of(g: &Graph) -> Network {
        let edges = g.edges().map(|e| (e.u.index(), e.v.index())).collect();
        Network { nodes: g.node_count(), edges }
    }
}

/// A network with its stage-1 coloring seed.
#[derive(Clone, Debug)]
pub struct SeededNetwork {
    /// The network.
    pub net: Network,
    /// Seed of its randomized 2-hop coloring.
    pub seed: u64,
}

/// A pre-colored lift: edges plus one color per node.
#[derive(Clone, Debug)]
pub struct ColoredLift {
    /// The lift's edges.
    pub net: Network,
    /// The base's 2-hop coloring, lifted along the projection.
    pub colors: Vec<BitString>,
}

/// The generated inputs of one workload.
#[derive(Clone, Debug)]
pub enum Inputs {
    /// A few large networks, each run once through the pipeline.
    LargePrime(Vec<SeededNetwork>),
    /// Small colored bases and their lifts, submitted grouped by base.
    LiftFamily {
        /// The bases with the seeds that colored them.
        bases: Vec<SeededNetwork>,
        /// The lifts, grouped by base.
        lifts: Vec<ColoredLift>,
    },
    /// Many distinct small networks, each run once through the pipeline.
    DistinctStore(Vec<SeededNetwork>),
}

/// A random connected simple 3-regular graph on `n` nodes (even, ≥ 4):
/// the pairing model with rejection, as `generators::random_regular`, but
/// in linear time per try (that generator clones its `GraphBuilder` per edge,
/// which takes tens of seconds at ten thousand nodes).
fn random_cubic(n: usize, rng: &mut ChaCha8Rng) -> Result<Graph, Error> {
    for _ in 0..MAX_TRIES {
        let mut stubs: Vec<usize> = (0..n).flat_map(|v| [v; 3]).collect();
        stubs.shuffle(rng);
        let edges: Vec<(usize, usize)> = stubs.chunks(2).map(|p| (p[0], p[1])).collect();
        // `Graph::from_edges` rejects loops and parallel edges.
        if let Ok(g) = Graph::from_edges(n, &edges) {
            if g.is_connected() {
                return Ok(g);
            }
        }
    }
    Err(format!("no connected simple 3-regular graph on {n} nodes in {MAX_TRIES} tries").into())
}

fn rng_for(seed: u64, stream: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

/// `large-prime`: cycles, tori and random 3-regular graphs.
///
/// # Errors
///
/// A generator failure (not expected at the supported sizes).
pub fn large_prime(scale: &Scale, seed: u64) -> Result<Inputs, Error> {
    let mut rng = rng_for(seed, 1);
    let cycle = Network::of(&generators::cycle(scale.prime_nodes)?);
    let torus = Network::of(&generators::grid(scale.torus_side, scale.torus_side, true)?);
    let mut jobs = Vec::new();
    for _ in 0..scale.prime_per_family {
        let cubic = Network::of(&random_cubic(scale.prime_nodes, &mut rng)?);
        for net in [cycle.clone(), torus.clone(), cubic] {
            jobs.push(SeededNetwork { net, seed: rng.gen() });
        }
    }
    Ok(Inputs::LargePrime(jobs))
}

/// `lift-family`: random 3-regular bases, 2-hop colored once, and random
/// connected lifts of each carrying the lifted coloring.
///
/// # Errors
///
/// A generator or coloring failure.
pub fn lift_family(scale: &Scale, seed: u64) -> Result<Inputs, Error> {
    let mut rng = rng_for(seed, 2);
    let mut bases = Vec::with_capacity(scale.bases);
    let mut lifts = Vec::with_capacity(scale.bases * scale.lifts_per_base);
    for _ in 0..scale.bases {
        let base = random_cubic(scale.base_nodes, &mut rng)?;
        let color_seed = rng.gen();
        let colors = run(
            &Oblivious(TwoHopColoring::new()),
            &base.with_uniform_label(()),
            &mut RngSource::seeded(color_seed),
            &ExecConfig::default(),
        )?
        .outputs_unwrapped();
        for _ in 0..scale.lifts_per_base {
            let m = rng.gen_range(scale.multiplicity.0..=scale.multiplicity.1);
            let lift = random_connected_lift(&base, m, MAX_TRIES, &mut rng)?;
            let colored = lift.lift_labels(&colors)?;
            lifts.push(ColoredLift {
                net: Network::of(colored.graph()),
                colors: colored.labels().to_vec(),
            });
        }
        bases.push(SeededNetwork { net: Network::of(&base), seed: color_seed });
    }
    Ok(Inputs::LiftFamily { bases, lifts })
}

/// `distinct-store`: distinct small random 3-regular networks.
///
/// # Errors
///
/// A generator failure.
pub fn distinct_store(scale: &Scale, seed: u64) -> Result<Inputs, Error> {
    let mut rng = rng_for(seed, 3);
    let mut jobs = Vec::with_capacity(scale.distinct_jobs);
    for _ in 0..scale.distinct_jobs {
        let g = random_cubic(scale.distinct_nodes, &mut rng)?;
        jobs.push(SeededNetwork { net: Network::of(&g), seed: rng.gen() });
    }
    Ok(Inputs::DistinctStore(jobs))
}
