//! E21 — the million-node views layer measured: arena-backed view
//! encoding against the recursive [`ViewTree`] reference, and color
//! [`Refinement`] to stability, on deterministic beacon cycles from 10³
//! to 10⁶ nodes.
//!
//! The workload is a *beacon cycle*: every 40th node carries a beacon
//! label, the rest are blank. Refinement separates nodes by their offset
//! profile relative to the beacons, so stabilization takes ~`PERIOD / 2`
//! rounds while the stable partition never exceeds `PERIOD` classes —
//! independent of `n`. Every tier therefore runs the same number of
//! rounds over `n` nodes, and refinement time should grow linearly.
//!
//! One gate, asserted by the `scale` CI job from `BENCH_scale.json`:
//!
//! * `byte_identical` — the arena byte-matches the recursive reference on
//!   every sampled node at every tier.
//!
//! Memory is reported as the refinement's retained bytes per node (its
//! stable class vector; no platform RSS probing).
//!
//! `ANONET_SCALE_MAX_N` caps the size sweep (CI runs 10⁵; the 10⁶ tier is
//! the nightly default).

use std::time::{Duration, Instant};

use anonet_graph::{generators, LabeledGraph, NodeId};
use anonet_views::{canonical_view_encoding, Refinement, ViewMode, ViewTree};

use crate::experiments::{common::tick, ExpResult};
use crate::table::{secs, Json};
use crate::Table;

/// Depth of the sampled arena-vs-recursive encoding comparison.
const SAMPLE_DEPTH: usize = 3;
/// Nodes sampled for the arena-vs-recursive comparison.
const SAMPLE_CAP: usize = 256;
/// Beacon spacing; must divide every size tier so the coloring is
/// perfectly periodic (an uneven wrap seam would act as a unique defect
/// and blow the stable partition up to Θ(n) classes).
const PERIOD: usize = 40;

/// The default size sweep; `ANONET_SCALE_MAX_N` truncates it.
pub fn sizes() -> Vec<usize> {
    let cap = std::env::var("ANONET_SCALE_MAX_N")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(1_000_000);
    [1_000usize, 10_000, 100_000, 1_000_000].into_iter().filter(|&n| n <= cap).collect()
}

/// The size-`n` workload: a cycle with a beacon label every [`PERIOD`]
/// nodes. `n` must be a multiple of the period.
fn workload(n: usize) -> ExpResult<LabeledGraph<u32>> {
    if n == 0 || !n.is_multiple_of(PERIOD) {
        return Err(
            format!("scale workload size {n} is not a positive multiple of {PERIOD}").into()
        );
    }
    let labels: Vec<u32> = (0..n).map(|i| u32::from(i % PERIOD == 0)).collect();
    Ok(generators::cycle(n)?.with_labels(labels)?)
}

/// FNV-1a over a sequence of byte strings (length-prefixed, so the digest
/// commits to the per-node framing, not just the concatenation).
fn digest(encodings: &[Vec<u8>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for e in encodings {
        for b in (e.len() as u64).to_be_bytes() {
            eat(b);
        }
        for &b in e {
            eat(b);
        }
    }
    h
}

/// One size tier, fully measured.
#[derive(Clone, Debug)]
pub struct ScaleRow {
    /// Node count.
    pub n: usize,
    /// Nodes in the arena-vs-recursive sample.
    pub sampled: usize,
    /// Arena time for the sampled depth-3 encodings.
    pub arena_encode: Duration,
    /// Recursive [`ViewTree`] time for the same sample.
    pub recursive_encode: Duration,
    /// [`Refinement::compute`] to stability.
    pub refine: Duration,
    /// Stabilization depth.
    pub stabilization_depth: usize,
    /// Stable classes.
    pub class_count: usize,
    /// Refinement retained bytes / node.
    pub bytes_per_node: f64,
    /// Digest of the sampled encodings.
    pub encoding_digest: u64,
    /// The arena byte-matched the recursive reference on the sample.
    pub byte_identical: bool,
}

impl ScaleRow {
    /// Refinement rounds per second: `depth + 1` key-construction passes
    /// ran, one per refining round plus the pass that certified
    /// stability.
    pub fn rounds_per_sec(&self) -> f64 {
        (self.stabilization_depth + 1) as f64 / self.refine.as_secs_f64().max(f64::EPSILON)
    }
}

/// The whole E21 measurement.
#[derive(Clone, Debug)]
pub struct ScaleMeasurement {
    /// One row per size tier, ascending.
    pub rows: Vec<ScaleRow>,
}

impl ScaleMeasurement {
    /// Every tier's identity gate held.
    pub fn byte_identical(&self) -> bool {
        self.rows.iter().all(|r| r.byte_identical)
    }
}

/// Measures one size tier.
fn measure_size(n: usize) -> ExpResult<ScaleRow> {
    let g = workload(n)?;

    // Arena vs recursive reference on a deterministic node sample.
    let sampled = n.min(SAMPLE_CAP);
    let stride = (n / sampled).max(1);
    let sample: Vec<NodeId> = (0..sampled).map(|k| NodeId::new((k * stride) % n)).collect();

    let t0 = Instant::now();
    let recursive: Vec<Vec<u8>> = sample
        .iter()
        .map(|&v| Ok(ViewTree::build(&g, v, SAMPLE_DEPTH)?.canonical_encoding()))
        .collect::<ExpResult<_>>()?;
    let recursive_encode = t0.elapsed();

    let t0 = Instant::now();
    let arena: Vec<Vec<u8>> = sample
        .iter()
        .map(|&v| Ok(canonical_view_encoding(&g, v, SAMPLE_DEPTH)?))
        .collect::<ExpResult<_>>()?;
    let arena_encode = t0.elapsed();

    let t0 = Instant::now();
    let r = Refinement::compute(&g, ViewMode::Portless);
    let refine = t0.elapsed();

    Ok(ScaleRow {
        n,
        sampled,
        arena_encode,
        recursive_encode,
        refine,
        stabilization_depth: r.stabilization_depth(),
        class_count: r.class_count(),
        bytes_per_node: std::mem::size_of_val(r.classes()) as f64 / n as f64,
        encoding_digest: digest(&arena),
        byte_identical: arena == recursive,
    })
}

/// Measures the given size tiers (ascending order recommended).
///
/// # Errors
///
/// Propagates workload construction and view errors — all regressions on
/// this workload.
pub fn measure_sizes(tiers: &[usize]) -> ExpResult<ScaleMeasurement> {
    let rows = tiers.iter().map(|&n| measure_size(n)).collect::<ExpResult<_>>()?;
    Ok(ScaleMeasurement { rows })
}

/// Measures the default (env-capped) sweep.
///
/// # Errors
///
/// As [`measure_sizes`].
pub fn measure() -> ExpResult<ScaleMeasurement> {
    measure_sizes(&sizes())
}

fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

/// Builds `BENCH_scale.json` through the shared serializer.
pub fn to_json(m: &ScaleMeasurement) -> String {
    let tiers = m.rows.iter().map(|r| {
        Json::obj([
            ("n", Json::from(r.n)),
            ("sampled", Json::from(r.sampled)),
            ("arena_encode_secs", secs(r.arena_encode)),
            ("recursive_encode_secs", secs(r.recursive_encode)),
            ("refine_secs", secs(r.refine)),
            ("rounds_per_sec", Json::Num(round3(r.rounds_per_sec()))),
            ("stabilization_depth", Json::from(r.stabilization_depth)),
            ("class_count", Json::from(r.class_count)),
            ("bytes_per_node", Json::Num(round3(r.bytes_per_node))),
            ("encoding_digest", Json::str(format!("{:016x}", r.encoding_digest))),
            ("byte_identical", Json::from(r.byte_identical)),
        ])
    });
    Json::obj([
        ("experiment", Json::str("scale")),
        ("byte_identical", Json::from(m.byte_identical())),
        ("tiers", Json::arr(tiers)),
    ])
    .pretty()
}

/// Renders the E21 report and writes `BENCH_scale.json` to the working
/// directory.
///
/// # Errors
///
/// Propagates measurement errors; artifact I/O failing is an error too.
pub fn report() -> ExpResult<String> {
    let m = measure()?;

    let mut table = Table::new(
        "E21 / million-node views layer — arena encoding and color refinement on \
         beacon cycles (period 40)",
        &[
            "n",
            "arena",
            "recursive",
            "refine",
            "rounds/s",
            "depth",
            "classes",
            "B/node",
            "identical",
        ],
    );
    for r in &m.rows {
        table.row(vec![
            r.n.to_string(),
            format!("{:.2?}", r.arena_encode),
            format!("{:.2?}", r.recursive_encode),
            format!("{:.2?}", r.refine),
            format!("{:.0}", r.rounds_per_sec()),
            r.stabilization_depth.to_string(),
            r.class_count.to_string(),
            format!("{:.1}", r.bytes_per_node),
            tick(r.byte_identical),
        ]);
    }

    let json = to_json(&m);
    std::fs::write("BENCH_scale.json", &json)?;

    Ok(format!(
        "{table}\n\
         arena encodings byte-identical to the recursive reference: {ident_ok}\n\
         wrote BENCH_scale.json\n",
        ident_ok = tick(m.byte_identical()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_tiers_pass_the_identity_gate() {
        let m = measure_sizes(&[80, 320]).unwrap();
        assert_eq!(m.rows.len(), 2);
        assert!(m.byte_identical(), "arena diverged from the recursive reference");
        for r in &m.rows {
            assert!(r.stabilization_depth >= 1, "the beacons must take rounds to propagate");
            assert!(r.class_count >= PERIOD / 2, "the beacon offset structure must survive");
            assert_eq!(r.bytes_per_node, 4.0, "one u32 class id per node");
        }
        // Depth and classes depend on the period, not on n.
        assert_eq!(m.rows[0].stabilization_depth, m.rows[1].stabilization_depth);
        assert_eq!(m.rows[0].class_count, m.rows[1].class_count);
    }

    #[test]
    fn json_parses_and_carries_the_schema() {
        let m = measure_sizes(&[80]).unwrap();
        let json = to_json(&m);
        let v = Json::parse(&json).unwrap();
        assert_eq!(v.get("experiment").unwrap().as_str(), Some("scale"));
        assert_eq!(v.get("byte_identical").unwrap().as_bool(), Some(true));
        let tiers = v.get("tiers").unwrap().items().unwrap();
        assert_eq!(tiers.len(), 1);
        let t = &tiers[0];
        assert_eq!(t.get("n").unwrap().as_f64(), Some(80.0));
        assert_eq!(t.get("encoding_digest").unwrap().as_str().unwrap().len(), 16);
        assert!(t.get("refine_secs").unwrap().as_f64().is_some());
    }

    #[test]
    fn size_sweep_respects_the_env_cap() {
        // Read-only check of the parsing contract on the default.
        let tiers = sizes();
        assert!(!tiers.is_empty());
        assert!(tiers.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn digest_commits_to_framing() {
        let a = vec![vec![1u8, 2], vec![3u8]];
        let b = vec![vec![1u8], vec![2u8, 3]];
        assert_ne!(digest(&a), digest(&b));
    }
}
