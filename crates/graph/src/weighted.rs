//! Weighted graphs: a [`Graph`] plus non-negative integer edge weights.
//!
//! The paper's Theorem 1.1 allows polynomially-bounded weights; we use `u64` weights
//! (`0..=W` with `W = poly(n)`), non-negative and on undirected graphs — the setting
//! Theorem 1.1 needs (see the README's *Deviations from the paper*).

use crate::ids::{EdgeId, NodeId};
use crate::rng;
use crate::Graph;
use rand::Rng;
use std::fmt;
use std::ops::RangeInclusive;

/// A weighted undirected graph: topology plus one `u64` weight per edge.
///
/// # Examples
///
/// ```
/// use congest_graph::{Graph, WeightedGraph, NodeId};
///
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
/// let wg = WeightedGraph::from_weights(g, vec![5, 7]).unwrap();
/// let e = wg.graph().edge_between(NodeId::new(0), NodeId::new(1)).unwrap();
/// assert_eq!(wg.weight(e), 5);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct WeightedGraph {
    graph: Graph,
    weights: Vec<u64>,
}

/// Error returned when the weight vector does not match the edge count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WeightCountError {
    /// Number of edges in the graph.
    pub edges: usize,
    /// Number of weights supplied.
    pub weights: usize,
}

impl fmt::Display for WeightCountError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "weight count {} does not match edge count {}",
            self.weights, self.edges
        )
    }
}

impl std::error::Error for WeightCountError {}

impl WeightedGraph {
    /// Wraps a graph with an explicit weight per edge (indexed by [`EdgeId`]).
    ///
    /// # Errors
    ///
    /// Returns [`WeightCountError`] if `weights.len() != graph.m()`.
    pub fn from_weights(graph: Graph, weights: Vec<u64>) -> Result<Self, WeightCountError> {
        if weights.len() != graph.m() {
            return Err(WeightCountError {
                edges: graph.m(),
                weights: weights.len(),
            });
        }
        Ok(Self { graph, weights })
    }

    /// All edges get weight 1 (so weighted distances equal hop distances).
    pub fn unit(graph: &Graph) -> Self {
        Self {
            weights: vec![1; graph.m()],
            graph: graph.clone(),
        }
    }

    /// Independent uniform random weights from `range`, seeded.
    ///
    /// Duplicate weights are possible (and common for narrow ranges), so quantities
    /// like "the minimum spanning tree" are only well-defined for consumers that break
    /// ties — everything in this workspace minimizes under the total order
    /// `(weight, EdgeId)` (see [`crate::reference::MstOracle`]). For instances where
    /// distinctness itself is wanted, use [`WeightedGraph::random_unique_weights`].
    pub fn random_weights(graph: &Graph, range: RangeInclusive<u64>, seed: u64) -> Self {
        let mut r = rng::seeded(rng::derive(seed, 0x5eed_0e19));
        let weights = (0..graph.m())
            .map(|_| r.random_range(range.clone()))
            .collect();
        Self {
            graph: graph.clone(),
            weights,
        }
    }

    /// Pairwise-distinct random weights: a seeded uniform permutation of `1..=m`
    /// assigned across the edges.
    ///
    /// With all weights distinct the minimum spanning tree is unique outright — no
    /// tie-breaking needed — which makes these instances the cleanest differential
    /// oracle inputs. The weights are exactly the set `{1, …, m}` (weight sums are
    /// predictable), shuffled deterministically in the seed.
    pub fn random_unique_weights(graph: &Graph, seed: u64) -> Self {
        use rand::seq::SliceRandom;
        let mut r = rng::seeded(rng::derive(seed, 0x5eed_0e20));
        let mut weights: Vec<u64> = (1..=graph.m() as u64).collect();
        weights.shuffle(&mut r);
        Self {
            graph: graph.clone(),
            weights,
        }
    }

    /// The underlying topology.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The weight of edge `e`.
    #[inline]
    pub fn weight(&self, e: EdgeId) -> u64 {
        self.weights[e.index()]
    }

    /// All weights, indexed by [`EdgeId`].
    #[inline]
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// Number of nodes (delegates to the topology).
    #[inline]
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Number of edges (delegates to the topology).
    #[inline]
    pub fn m(&self) -> usize {
        self.graph.m()
    }

    /// The maximum edge weight (0 for edgeless graphs).
    pub fn max_weight(&self) -> u64 {
        self.weights.iter().copied().max().unwrap_or(0)
    }

    /// Iterates over `(edge, neighbor, weight)` triples incident to `v`.
    pub fn incident(&self, v: NodeId) -> impl Iterator<Item = (EdgeId, NodeId, u64)> + '_ {
        self.graph
            .incident(v)
            .map(move |(e, u)| (e, u, self.weight(e)))
    }
}

impl fmt::Debug for WeightedGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "WeightedGraph(n={}, m={}, max_w={})",
            self.n(),
            self.m(),
            self.max_weight()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_weights() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let wg = WeightedGraph::unit(&g);
        assert!(wg.weights().iter().all(|&w| w == 1));
        assert_eq!(wg.max_weight(), 1);
    }

    #[test]
    fn mismatched_weights_error() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let err = WeightedGraph::from_weights(g, vec![1]).unwrap_err();
        assert_eq!(err.edges, 2);
        assert_eq!(err.weights, 1);
        assert!(err.to_string().contains("does not match"));
    }

    #[test]
    fn random_weights_in_range_and_deterministic() {
        let g = Graph::from_edges(10, &(0..9).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let a = WeightedGraph::random_weights(&g, 3..=9, 42);
        let b = WeightedGraph::random_weights(&g, 3..=9, 42);
        assert_eq!(a.weights(), b.weights());
        assert!(a.weights().iter().all(|&w| (3..=9).contains(&w)));
        let c = WeightedGraph::random_weights(&g, 3..=9, 43);
        assert_ne!(a.weights(), c.weights());
    }

    #[test]
    fn unique_weights_are_a_permutation_and_deterministic() {
        let g = crate::generators::gnp_connected(20, 0.2, 4);
        let a = WeightedGraph::random_unique_weights(&g, 9);
        let b = WeightedGraph::random_unique_weights(&g, 9);
        assert_eq!(a.weights(), b.weights());
        let mut sorted = a.weights().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (1..=g.m() as u64).collect::<Vec<_>>());
        let c = WeightedGraph::random_unique_weights(&g, 10);
        assert_ne!(a.weights(), c.weights());
    }

    #[test]
    fn incident_reports_weights() {
        let g = Graph::from_edges(3, &[(0, 1), (0, 2)]);
        let wg = WeightedGraph::from_weights(g, vec![4, 9]).unwrap();
        let mut seen: Vec<(usize, u64)> = wg
            .incident(NodeId::new(0))
            .map(|(_, u, w)| (u.index(), w))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![(1, 4), (2, 9)]);
    }
}
