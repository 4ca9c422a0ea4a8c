//! BFS distances, balls `H^i(v)`, and diameter computations.

use crate::graph::Graph;
use crate::node::NodeId;

/// BFS distances from `source`; `None` for unreachable nodes.
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn bfs_distances(g: &Graph, source: NodeId) -> Vec<Option<usize>> {
    let n = g.node_count();
    let mut dist = vec![None; n];
    dist[source.index()] = Some(0);
    let mut queue = std::collections::VecDeque::from([source]);
    while let Some(v) = queue.pop_front() {
        let d = dist[v.index()].expect("queued nodes have distances");
        for &u in g.neighbors(v) {
            if dist[u.index()].is_none() {
                dist[u.index()] = Some(d + 1);
                queue.push_back(u);
            }
        }
    }
    dist
}

/// Hop distance between `u` and `v`, or `None` if disconnected.
pub fn distance(g: &Graph, u: NodeId, v: NodeId) -> Option<usize> {
    bfs_distances(g, u)[v.index()]
}

/// The ball `H^r(v)`: all nodes at distance at most `r` from `v`,
/// in ascending node order.
///
/// The paper uses `H^i(v)` in the proof of Lemma 9 to track how far
/// prescribed random bits must agree for the first `t` rounds of an
/// execution to be determined.
///
/// The search stops at depth `r`, so it costs `O(|ball| · Δ)`, not a BFS
/// over the whole graph.
pub fn ball(g: &Graph, v: NodeId, r: usize) -> Vec<NodeId> {
    let mut ball = vec![v];
    let mut seen = std::collections::HashSet::from([v]);
    let mut layer = 0..1;
    for _ in 0..r {
        if layer.is_empty() {
            break;
        }
        let next = ball.len();
        for i in layer {
            for &u in g.neighbors(ball[i]) {
                if seen.insert(u) {
                    ball.push(u);
                }
            }
        }
        layer = next..ball.len();
    }
    ball.sort_unstable();
    ball
}

/// Eccentricity of `v` (greatest distance to any node), or `None` if the
/// graph is disconnected.
pub fn eccentricity(g: &Graph, v: NodeId) -> Option<usize> {
    bfs_distances(g, v).into_iter().try_fold(0usize, |acc, d| d.map(|d| acc.max(d)))
}

/// Diameter of the graph, or `None` if disconnected.
///
/// Runs a BFS from every node (`O(n·m)`), fine at simulator scale.
pub fn diameter(g: &Graph) -> Option<usize> {
    g.nodes().try_fold(0usize, |acc, v| eccentricity(g, v).map(|e| acc.max(e)))
}

/// All unordered pairs of distinct nodes at distance at most `k`.
///
/// This is the constraint set of a *k-hop coloring*: a labeling is a k-hop
/// coloring iff it assigns distinct labels to every pair returned here.
pub fn pairs_within(g: &Graph, k: usize) -> Vec<(NodeId, NodeId)> {
    let mut pairs = Vec::new();
    for v in g.nodes() {
        for u in ball(g, v, k) {
            if v < u {
                pairs.push((v, u));
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn distances_on_path() {
        let g = generators::path(5).unwrap();
        let d = bfs_distances(&g, NodeId::new(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
        assert_eq!(distance(&g, NodeId::new(1), NodeId::new(4)), Some(3));
    }

    #[test]
    fn distances_on_cycle_wrap() {
        let g = generators::cycle(6).unwrap();
        assert_eq!(distance(&g, NodeId::new(0), NodeId::new(5)), Some(1));
        assert_eq!(distance(&g, NodeId::new(0), NodeId::new(3)), Some(3));
    }

    #[test]
    fn unreachable_is_none() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert_eq!(distance(&g, NodeId::new(0), NodeId::new(2)), None);
        assert_eq!(eccentricity(&g, NodeId::new(0)), None);
        assert_eq!(diameter(&g), None);
    }

    #[test]
    fn ball_grows_monotonically() {
        let g = generators::cycle(8).unwrap();
        let v = NodeId::new(0);
        let b0 = ball(&g, v, 0);
        let b1 = ball(&g, v, 1);
        let b2 = ball(&g, v, 2);
        assert_eq!(b0, vec![v]);
        assert_eq!(b1.len(), 3);
        assert_eq!(b2.len(), 5);
        assert!(b1.iter().all(|u| b2.contains(u)));
    }

    #[test]
    fn diameter_of_known_graphs() {
        assert_eq!(diameter(&generators::path(5).unwrap()), Some(4));
        assert_eq!(diameter(&generators::cycle(6).unwrap()), Some(3));
        assert_eq!(diameter(&generators::complete(4).unwrap()), Some(1));
        assert_eq!(diameter(&generators::petersen()), Some(2));
    }

    #[test]
    fn pairs_within_counts() {
        let g = generators::cycle(6).unwrap();
        // k=1: exactly the 6 edges
        assert_eq!(pairs_within(&g, 1).len(), 6);
        // k=2: edges plus 6 distance-2 pairs
        assert_eq!(pairs_within(&g, 2).len(), 12);
    }
}
