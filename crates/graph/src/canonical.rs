//! Deterministic byte encodings of labeled graphs.
//!
//! `Update-Graph` (paper, Section 3.1) totally orders finite view graphs by
//! `(|V*|, s(G*))` where `s(G*)` is a bitstring encoding of the graph under
//! a predetermined node order. This module supplies:
//!
//! * [`encode_with_order`] — the `s(·)` encoding given a node order (the
//!   views machinery in `anonet-views` supplies the canonical view order);
//! * [`encoding_fnv1a`] — the FNV-1a hash of that encoding under the
//!   graph's own numbering, computed from the labels and edges alone in `O((n + m) log n)` time and `O(n)`
//!   memory, without the `Θ(n²)` adjacency triangle;
//! * [`min_encoding`] — a canonical (order-independent) encoding obtained
//!   by minimizing over permutations, feasible for the tiny graphs handled
//!   by the faithful `A_*` candidate enumeration.

use crate::labeled::LabeledGraph;
use crate::labels::Label;
use crate::node::NodeId;

/// Encodes a labeled graph under the given node order.
///
/// The encoding is `n`, then each node's label (in order), then the upper
/// triangle of the adjacency matrix (row-major, in order), packed into
/// bytes. Two labeled graphs receive equal encodings under orders `σ`, `τ`
/// iff relabeling by `τ∘σ⁻¹` is a label-preserving isomorphism.
///
/// # Panics
///
/// Panics if `order` is not a permutation of the graph's nodes.
pub fn encode_with_order<L: Label>(g: &LabeledGraph<L>, order: &[NodeId]) -> Vec<u8> {
    let n = g.node_count();
    positions(n, order);

    let mut out = Vec::new();
    (n as u64).encode(&mut out);
    for &v in order {
        g.label(v).encode(&mut out);
    }
    // Upper-triangle adjacency bits, packed MSB-first.
    let mut byte = 0u8;
    let mut nbits = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            let bit = g.graph().has_edge(order[i], order[j]);
            byte = (byte << 1) | u8::from(bit);
            nbits += 1;
            if nbits.is_multiple_of(8) {
                out.push(byte);
                byte = 0;
            }
        }
    }
    if !nbits.is_multiple_of(8) {
        byte <<= 8 - nbits % 8;
        out.push(byte);
    }
    out
}

/// FNV-1a (64-bit) of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// `h` after FNV-1a absorbs `k` zero bytes: each one is `h *= P`, so the
/// run is one multiplication by `P^k mod 2^64`.
fn fnv1a_zeros(h: u64, mut k: u64) -> u64 {
    let mut pow = 1u64;
    let mut base = FNV_PRIME;
    while k > 0 {
        if k & 1 == 1 {
            pow = pow.wrapping_mul(base);
        }
        base = base.wrapping_mul(base);
        k >>= 1;
    }
    h.wrapping_mul(pow)
}

/// Exactly `fnv1a(&encode_with_order(g, order))` for the identity order
/// (node `i` at position `i`), without building the encoding.
///
/// The `n` + labels prefix is hashed as written; of the adjacency
/// triangle only the non-zero bytes are visited, walking rows in node
/// order with each row's later neighbours sorted. Every run of zero
/// bytes between them is absorbed in one step ([`fnv1a`] of a zero byte
/// is a multiplication by the prime). Cost is `O((n + m) log n)` time and
/// `O(n)` memory, so it keys million-node quotients whose dense encoding
/// would not fit in memory.
pub fn encoding_fnv1a<L: Label>(g: &LabeledGraph<L>) -> u64 {
    let n = g.node_count();

    let mut buf = Vec::new();
    (n as u64).encode(&mut buf);
    let mut h = fnv1a_extend(FNV_OFFSET, &buf);
    for label in g.labels() {
        buf.clear();
        label.encode(&mut buf);
        h = fnv1a_extend(h, &buf);
    }

    // Bit (i, j), i < j, of the row-major upper triangle sits at index
    // i·(n−1) − i(i−1)/2 + (j − i − 1), packed MSB-first.
    let n64 = n as u64;
    let total_bytes = (n64 * n64.saturating_sub(1) / 2).div_ceil(8);
    let mut next_byte = 0u64; // first triangle byte not yet hashed
    let mut pending: Option<(u64, u8)> = None; // byte index, bits so far
    let mut row: Vec<u64> = Vec::new();
    for v in g.graph().nodes() {
        let i = v.index() as u64;
        row.clear();
        row.extend(g.graph().neighbors(v).iter().map(|u| u.index() as u64).filter(|&j| j > i));
        row.sort_unstable();
        let row_start = i * (n64 - 1) - i * i.saturating_sub(1) / 2;
        for &j in &row {
            let bit = row_start + (j - i - 1);
            let (byte, mask) = (bit / 8, 0x80u8 >> (bit % 8));
            match &mut pending {
                Some((b, bits)) if *b == byte => *bits |= mask,
                _ => {
                    if let Some((b, bits)) = pending.replace((byte, mask)) {
                        h = absorb_byte(h, &mut next_byte, b, bits);
                    }
                }
            }
        }
    }
    if let Some((b, bits)) = pending {
        h = absorb_byte(h, &mut next_byte, b, bits);
    }
    fnv1a_zeros(h, total_bytes - next_byte)
}

/// Hashes the zero bytes before triangle byte `byte`, then the byte itself.
fn absorb_byte(h: u64, next_byte: &mut u64, byte: u64, bits: u8) -> u64 {
    let h = fnv1a_zeros(h, byte - *next_byte);
    *next_byte = byte + 1;
    fnv1a_extend(h, &[bits])
}

/// Each node's index in `order`, checking that `order` is a permutation.
fn positions(n: usize, order: &[NodeId]) -> Vec<u64> {
    assert_eq!(order.len(), n, "order must list every node exactly once");
    let mut pos = vec![u64::MAX; n];
    for (i, &v) in order.iter().enumerate() {
        assert!(pos[v.index()] == u64::MAX, "order must list every node exactly once");
        pos[v.index()] = i as u64;
    }
    pos
}

/// The minimum of [`encode_with_order`] over **all** node permutations —
/// a canonical form: two labeled graphs are isomorphic iff their minimal
/// encodings are equal.
///
/// Cost is `n!`; intended for the ≤ 6-node graphs of the faithful `A_*`
/// candidate enumeration.
///
/// # Panics
///
/// Panics if the graph has more than 8 nodes (call sites should use the
/// view-order encoding instead).
pub fn min_encoding<L: Label>(g: &LabeledGraph<L>) -> Vec<u8> {
    let n = g.node_count();
    assert!(n <= 8, "min_encoding is factorial; use encode_with_order for larger graphs");
    let mut best: Option<Vec<u8>> = None;
    permute(&mut (0..n).map(NodeId::new).collect::<Vec<_>>(), 0, &mut |order| {
        let enc = encode_with_order(g, order);
        if best.as_ref().is_none_or(|b| enc < *b) {
            best = Some(enc);
        }
    });
    best.expect("graphs are non-empty")
}

fn permute(items: &mut Vec<NodeId>, k: usize, visit: &mut impl FnMut(&[NodeId])) {
    if k == items.len() {
        visit(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, visit);
        items.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::iso::are_isomorphic;
    use crate::{BitString, Graph};

    #[test]
    fn encoding_depends_on_order() {
        let g = generators::path(3).unwrap().with_labels(vec![1u8, 2, 3]).unwrap();
        let fwd: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        let rev: Vec<NodeId> = (0..3).rev().map(NodeId::new).collect();
        assert_ne!(encode_with_order(&g, &fwd), encode_with_order(&g, &rev));
    }

    #[test]
    #[should_panic(expected = "exactly once")]
    fn encoding_rejects_non_permutations() {
        let g = generators::path(2).unwrap().with_uniform_label(0u8);
        let _ = encode_with_order(&g, &[NodeId::new(0), NodeId::new(0)]);
    }

    #[test]
    fn min_encoding_is_canonical_for_isomorphic_graphs() {
        // Two presentations of the labeled triangle with colors {1,2,3}.
        let a = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)])
            .unwrap()
            .with_labels(vec![1u8, 2, 3])
            .unwrap();
        let b = Graph::from_edges(3, &[(2, 0), (0, 1), (2, 1)])
            .unwrap()
            .with_labels(vec![2u8, 3, 1])
            .unwrap();
        assert!(are_isomorphic(&a, &b));
        assert_eq!(min_encoding(&a), min_encoding(&b));
    }

    #[test]
    fn min_encoding_separates_non_isomorphic_graphs() {
        let c4 = generators::cycle(4).unwrap().with_uniform_label(0u8);
        let p4 = generators::path(4).unwrap().with_uniform_label(0u8);
        assert_ne!(min_encoding(&c4), min_encoding(&p4));
        let l1 = generators::cycle(4).unwrap().with_labels(vec![1u8, 2, 1, 2]).unwrap();
        let l2 = generators::cycle(4).unwrap().with_labels(vec![1u8, 1, 2, 2]).unwrap();
        assert_ne!(min_encoding(&l1), min_encoding(&l2));
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
        assert_eq!(fnv1a_zeros(fnv1a(b"ab"), 13), fnv1a(&[b"ab".as_slice(), &[0u8; 13]].concat()));
    }

    /// The sparse key against the dense encoding it stands for.
    fn assert_sparse_key_matches<L: Label>(g: &LabeledGraph<L>) {
        let identity: Vec<NodeId> = g.graph().nodes().collect();
        assert_eq!(
            encoding_fnv1a(g),
            fnv1a(&encode_with_order(g, &identity)),
            "n = {}, m = {}",
            g.node_count(),
            g.graph().edge_count()
        );
    }

    #[test]
    fn sparse_key_equals_fnv1a_of_the_dense_encoding() {
        use crate::lift::Perm;
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x5eed);
        for n in 1..=64usize {
            let mut graphs = vec![
                Graph::from_edges(n, &[]).unwrap(),
                generators::path(n).unwrap(),
                generators::random_tree(n, &mut rng).unwrap(),
                generators::gnp_connected(n, 0.25, &mut rng).unwrap(),
            ];
            if n >= 3 {
                graphs.push(generators::cycle(n).unwrap());
            }
            for mut g in graphs {
                for shuffled in [false, true] {
                    if shuffled {
                        g = g.renumber(&Perm::random(n, &mut rng)).unwrap();
                    }
                    let words: Vec<u32> = (0..n).map(|_| rng.gen_range(0..5u32)).collect();
                    let bits: Vec<BitString> =
                        (0..n).map(|i| BitString::from_value(i as u64 % 7, i % 5)).collect();
                    let pairs: Vec<(u32, BitString)> =
                        words.iter().copied().zip(bits.iter().cloned()).collect();
                    assert_sparse_key_matches(&g.with_uniform_label(()));
                    assert_sparse_key_matches(&g.with_labels(words).unwrap());
                    assert_sparse_key_matches(&g.with_labels(bits).unwrap());
                    assert_sparse_key_matches(&g.with_labels(pairs).unwrap());
                }
            }
        }
    }

    #[test]
    fn sparse_key_handles_a_million_node_cycle() {
        // The dense encoding of this graph would be ~62 GB.
        let n = 1_000_000;
        let cycle = generators::cycle(n).unwrap().with_uniform_label(0u8);
        let path = generators::path(n).unwrap().with_uniform_label(0u8);
        let key = encoding_fnv1a(&cycle);
        assert_eq!(key, encoding_fnv1a(&cycle));
        assert_ne!(key, encoding_fnv1a(&path));
    }

    #[test]
    fn encoding_is_injective_on_edge_sets() {
        // Same node count and labels, different edges.
        let a = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let b = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (1, 3)]).unwrap();
        let la = a.with_uniform_label(0u8);
        let lb = b.with_uniform_label(0u8);
        let order: Vec<NodeId> = (0..4).map(NodeId::new).collect();
        assert_ne!(encode_with_order(&la, &order), encode_with_order(&lb, &order));
    }
}
