//! Outputs of `distance::ball`, `distance::pairs_within` and
//! `generators::random_regular` pinned to the values of their earlier
//! full-BFS and clone-per-edge implementations: the faster forms must not
//! change a single ball, pair or edge.

use anonet_graph::{distance, generators, Graph};
use rand::SeedableRng;

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn adjacency_digest(g: &Graph) -> u64 {
    let mut out = Vec::new();
    for v in g.nodes() {
        out.extend_from_slice(&(g.degree(v) as u64).to_le_bytes());
        for u in g.neighbors(v) {
            out.extend_from_slice(&(u.index() as u64).to_le_bytes());
        }
    }
    fnv(&out)
}

fn balls_digest(g: &Graph, r: usize) -> u64 {
    let mut out = Vec::new();
    for v in g.nodes() {
        let b = distance::ball(g, v, r);
        out.extend_from_slice(&(b.len() as u64).to_le_bytes());
        for u in b {
            out.extend_from_slice(&(u.index() as u64).to_le_bytes());
        }
    }
    for (u, v) in distance::pairs_within(g, r) {
        out.extend_from_slice(&(u.index() as u64).to_le_bytes());
        out.extend_from_slice(&(v.index() as u64).to_le_bytes());
    }
    fnv(&out)
}

fn fixtures() -> Vec<(&'static str, Graph)> {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
    vec![
        ("petersen", generators::petersen()),
        ("grid5x4", generators::grid(5, 4, false).unwrap()),
        ("star9", generators::star(9).unwrap()),
        ("cycle12", generators::cycle(12).unwrap()),
        ("tree40", generators::random_tree(40, &mut rng).unwrap()),
        ("gnp30", generators::gnp_connected(30, 0.15, &mut rng).unwrap()),
        ("split", Graph::from_edges(5, &[(0, 1), (2, 3), (3, 4)]).unwrap()),
    ]
}

#[test]
fn balls_and_pairs_match_the_pinned_digests() {
    let pinned: [[u64; 5]; 7] = [
        [
            0xe0495922c5b46d44,
            0x7f9ec4181567d7a4,
            0x2b954791efe75c64,
            0x2b954791efe75c64,
            0x2b954791efe75c64,
        ],
        [
            0x4f78b78761a4b825,
            0x41025fde41157ea5,
            0x1128bdf57d608585,
            0x8484f9581cf8b285,
            0x39da374a1f95ba05,
        ],
        [
            0x308bdc276c0f852c,
            0x3023e649a95b6e24,
            0xfc69b8b7a70e7424,
            0xfc69b8b7a70e7424,
            0xfc69b8b7a70e7424,
        ],
        [
            0x1d4e71b3562ec425,
            0xd05c1712b3b09605,
            0x699102d0419df405,
            0x8dd529bae2811ee5,
            0xa3c473cf40306fa5,
        ],
        [
            0x0847cf874087da25,
            0xf1ccff2209e8b103,
            0x1fac591f4667500b,
            0xf9702f81cc93bc25,
            0xf8d69a855d886303,
        ],
        [
            0xb358d8766e121944,
            0x226816fcde3e39e6,
            0x7bab6e9a61175c8e,
            0x3f92c2f47363bbe2,
            0x17c51a93ca577fc6,
        ],
        [
            0xb2e8fa68161b18a0,
            0xe1d24122d8827a02,
            0xaebe7972b1d17e02,
            0xaebe7972b1d17e02,
            0xaebe7972b1d17e02,
        ],
    ];
    for ((name, g), want) in fixtures().iter().zip(pinned) {
        for (r, &want) in want.iter().enumerate() {
            assert_eq!(balls_digest(g, r), want, "{name}, radius {r}");
        }
    }
}

#[test]
fn balls_equal_the_bfs_definition() {
    for (name, g) in fixtures() {
        for v in g.nodes() {
            let dist = distance::bfs_distances(&g, v);
            for r in 0..=5 {
                let want: Vec<_> =
                    g.nodes().filter(|u| dist[u.index()].is_some_and(|d| d <= r)).collect();
                assert_eq!(distance::ball(&g, v, r), want, "{name}, {v}, radius {r}");
            }
        }
    }
}

#[test]
fn random_regular_edges_match_the_pinned_digests() {
    let pinned = [
        (1u64, 0x7a3dc91a02add905u64, 0xfcddfaeaf84fe785u64),
        (2, 0xb26ffc6fdf7bff05, 0x41ed1f1dd3cb9145),
        (3, 0x3134cda8e9806785, 0xf7b520a34e9f0d05),
    ];
    for (seed, cubic, quartic) in pinned {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let g = generators::random_regular(200, 3, 100, &mut rng).unwrap();
        let h = generators::random_regular(64, 4, 100, &mut rng).unwrap();
        assert_eq!(adjacency_digest(&g), cubic, "seed {seed}, 3-regular");
        assert_eq!(adjacency_digest(&h), quartic, "seed {seed}, 4-regular");
    }
}
