//! **Theorem 3.9** — the general message-time trade-off simulation of
//! aggregation-based BCONGEST algorithms over a pruned Baswana–Sen cluster
//! hierarchy (paper §3.2.1).
//!
//! Nodes keep their own states (unlike Theorem 2.1). Each phase simulates one round
//! of the payload with three steps:
//!
//! * **indirect send** — every broadcaster sends `(v, m_v)` over its `F*` edges;
//! * **direct (aggregate) send** — broadcasters upcast `m_v` in every cluster tree
//!   containing them; each cluster center computes, for every outside node `u` with
//!   an inter-communication edge into the cluster, the aggregate of the messages of
//!   broadcasting members adjacent to `u`, downcasts the packet to the edge's
//!   endpoint, which forwards it to `u` (level-0 singleton clusters degenerate to
//!   the node itself sending its message over the edge);
//! * **receive** — indirect arrivals and member broadcasts are upcast; centers
//!   downcast one per-member aggregate packet.
//!
//! The compute step takes the union of all packets (Definition 3.1's
//! partition-invariance makes this equal to receiving every raw message), so with
//! one seed the simulated outputs equal a direct run's (Lemma 3.14; asserted by the
//! integration tests).

use crate::simulate::common::{
    charge_round, dedupe_msgs, input_words, AggPhase, NeighborMarks, Pad, SimulationRun, Stepper,
};
use congest_algos::leader::setup_network_with;
use congest_decomp::{Hierarchy, Level};
use congest_engine::{downcast, upcast, AggregationAlgorithm, EngineError, Forest, Metrics, Wire};
use congest_graph::{ClusterId, EdgeId, Graph, NodeId};

/// Options for the Theorem 3.9 / 3.10 simulations.
#[derive(Clone, Debug)]
pub struct AggSimOptions {
    /// Master seed (same role as in the direct runner).
    pub seed: u64,
    /// Include the hierarchy's accounted construction cost in the preprocessing
    /// metrics (on by default; turn off when the hierarchy is shared across runs,
    /// e.g. in the Lemma 3.23 batches, and accounted once by the caller).
    pub charge_hierarchy: bool,
    /// Phase guard; defaults to `4 × round_bound + 64`.
    pub max_phases: Option<usize>,
    /// How per-node phases execute (stepper and preprocessing runs). Outputs
    /// and metrics are identical at every thread count.
    pub exec: congest_engine::ExecutorConfig,
}

impl Default for AggSimOptions {
    fn default() -> Self {
        Self {
            seed: 0,
            charge_hierarchy: true,
            max_phases: None,
            exec: congest_engine::ExecutorConfig::default(),
        }
    }
}

/// An inter-communication edge pointing into a cluster: `(outside owner, inside
/// endpoint, edge)`.
#[derive(Clone, Copy, Debug)]
struct InEdge {
    owner: NodeId,
    endpoint: NodeId,
    edge: EdgeId,
}

/// Preprocessed hierarchy structures reused across phases.
struct Runtime {
    /// Per level ≥ 1: the forest of its cluster trees.
    forests: Vec<Option<Forest>>,
    /// Per level `j`, per cluster: the `F*_{j+1}` edges pointing into it.
    r_in: Vec<Vec<Vec<InEdge>>>,
    /// Per node: its `F*` edges (at its drop-out level).
    f_of: Vec<Vec<(EdgeId, NodeId, usize, ClusterId)>>, // (edge, other, target level, target)
}

impl Runtime {
    fn build(g: &Graph, h: &Hierarchy) -> Result<Self, EngineError> {
        let mut forests = vec![None];
        for lvl in &h.levels[1..] {
            forests.push(Some(Forest::from_parents(g, lvl.parent.clone())?));
        }
        let mut r_in: Vec<Vec<Vec<InEdge>>> = h
            .levels
            .iter()
            .map(|lvl| vec![Vec::new(); lvl.clusters.len().max(g.n())])
            .collect();
        let mut f_of: Vec<Vec<(EdgeId, NodeId, usize, ClusterId)>> = vec![Vec::new(); g.n()];
        for (li, f) in h.all_f_edges() {
            // F*_li points into clusters of level li-1.
            r_in[li - 1][f.target.index()].push(InEdge {
                owner: f.owner,
                endpoint: f.other,
                edge: f.edge,
            });
            f_of[f.owner.index()].push((f.edge, f.other, li - 1, f.target));
        }
        Ok(Self {
            forests,
            r_in,
            f_of,
        })
    }
}

/// Simulates the aggregation-based `algo` over `g` using pruned hierarchy `h`
/// (Theorem 3.9).
///
/// # Errors
///
/// Returns [`EngineError::RoundLimitExceeded`] on a diverging payload; propagates
/// preprocessing errors.
pub fn simulate_aggregation_general<A>(
    algo: &A,
    g: &Graph,
    weights: Option<&[u64]>,
    h: &Hierarchy,
    opts: &AggSimOptions,
) -> Result<SimulationRun<A::Output>, EngineError>
where
    A: AggregationAlgorithm + Sync,
    A::State: Send + Sync,
    A::Msg: Send + Sync,
{
    let n = g.n();
    let mut metrics = Metrics::new(g.m());

    // ---- Preprocessing ----
    let setup = setup_network_with(g, opts.seed, &opts.exec)?;
    metrics.merge_sequential(&setup.metrics);
    if opts.charge_hierarchy {
        metrics.merge_sequential(&h.metrics);
    }
    let rt = Runtime::build(g, h)?;
    // Per-level upcast of member neighborhoods to cluster centers (§3.2.1 step 2).
    for (li, lvl) in h.levels.iter().enumerate().skip(1) {
        let forest = rt.forests[li].as_ref().expect("built for levels >= 1");
        let items: Vec<(NodeId, Pad)> = g
            .nodes()
            .filter(|v| lvl.cluster_of[v.index()].is_some())
            .map(|v| (v, Pad(g.degree(v) + 1)))
            .collect();
        if !items.is_empty() {
            metrics.merge_sequential(&upcast(g, forest, items)?.metrics);
        }
    }
    let preprocessing = metrics.clone();

    let mut stepper = Stepper::new(algo, g, weights, opts.seed).with_exec(opts.exec.clone());
    let limit = opts
        .max_phases
        .unwrap_or_else(|| 4 * algo.round_bound(n, g.m()) + 64);

    let mut marks = NeighborMarks::new(n);
    let mut phase = 0usize;
    loop {
        if phase > limit {
            return Err(EngineError::RoundLimitExceeded {
                algorithm: algo.name(),
                limit,
            });
        }
        let broadcasters = stepper.collect_broadcasts(phase);
        let mut phase_cost = Metrics::new(g.m());
        // Every packet a node receives this phase, in arrival order.
        let mut packets: Vec<Vec<(NodeId, A::Msg)>> = vec![Vec::new(); n];

        if !broadcasters.is_empty() {
            let mut bp: Vec<Option<A::Msg>> = vec![None; n];
            for (v, m) in &broadcasters {
                bp[v.index()] = Some(m.clone());
            }

            let ph = AggPhase {
                algo,
                g,
                phase,
                bp: &bp,
            };

            // ---- Indirect send over F* edges ----
            let mut indirect_at: Vec<Vec<(NodeId, A::Msg)>> = vec![Vec::new(); n];
            let mut sends = Vec::new();
            for (v, m) in &broadcasters {
                for &(edge, other, _, _) in &rt.f_of[v.index()] {
                    sends.push((edge, 1));
                    indirect_at[other.index()].push((*v, m.clone()));
                }
            }
            charge_round(&mut phase_cost, sends);

            // ---- Direct (aggregate) send ----
            // (a) broadcasters upcast their message in every containing cluster tree.
            for (li, lvl) in h.levels.iter().enumerate().skip(1) {
                let items: Vec<(NodeId, Pad)> = broadcasters
                    .iter()
                    .filter(|(v, _)| lvl.cluster_of[v.index()].is_some())
                    .map(|(v, _)| (*v, Pad(1)))
                    .collect();
                if !items.is_empty() {
                    let forest = rt.forests[li].as_ref().expect("level forest");
                    phase_cost.merge_sequential(&upcast(g, forest, items)?.metrics);
                }
            }
            // (b) per level, centers aggregate for R(C) and route packets.
            for (lj, lvl) in h.levels.iter().enumerate() {
                if lj >= rt.r_in.len() {
                    break;
                }
                let mut down_items: Vec<(NodeId, Pad)> = Vec::new();
                let mut forwards: Vec<(EdgeId, u64)> = Vec::new();
                // Only clusters with a broadcasting member have anything to
                // aggregate; visit them in ascending cluster order.
                let mut live: Vec<ClusterId> = broadcasters
                    .iter()
                    .filter_map(|(v, _)| lvl.cluster_of[v.index()])
                    .collect();
                live.sort_unstable();
                live.dedup();
                for cid in live {
                    for ie in &rt.r_in[lj][cid.index()] {
                        let msgs: Vec<(NodeId, A::Msg)> = g
                            .neighbors(ie.owner)
                            .iter()
                            .filter(|x| lvl.cluster_of[x.index()] == Some(cid))
                            .filter_map(|x| bp[x.index()].clone().map(|m| (*x, m)))
                            .collect();
                        if msgs.is_empty() {
                            continue;
                        }
                        let agg = algo.aggregate(ie.owner, phase, msgs);
                        if agg.is_empty() {
                            continue;
                        }
                        let words: usize = agg.iter().map(|(_, m)| m.words().max(1)).sum();
                        debug_assert!(
                            words <= algo.aggregate_budget(n),
                            "aggregate exceeded its budget"
                        );
                        if lj >= 1 {
                            down_items.push((ie.endpoint, Pad(words)));
                        }
                        forwards.push((ie.edge, words as u64));
                        packets[ie.owner.index()].extend(agg);
                    }
                }
                if !down_items.is_empty() {
                    let forest = rt.forests[lj].as_ref().expect("level forest");
                    phase_cost.merge_sequential(&downcast(g, forest, down_items)?.metrics);
                }
                if !forwards.is_empty() {
                    charge_round(&mut phase_cost, forwards);
                }
            }

            // ---- Receive step ----
            // Level 0's singleton clusters degenerate to local work.
            for (li, lvl) in h.levels.iter().enumerate() {
                if li == h.levels.len() - 1 && lvl.clusters.is_empty() {
                    break;
                }
                let forest = rt.forests[li].as_ref();
                ph.receive_step(
                    lvl,
                    forest,
                    &indirect_at,
                    &mut marks,
                    &mut packets,
                    &mut phase_cost,
                )?;
            }
        }
        metrics.merge_sequential(&phase_cost);

        // ---- Compute: the union of each node's packets (Definition 3.1) ----
        let inboxes = packets.into_iter().map(dedupe_msgs).collect();
        match stepper.advance(phase, !broadcasters.is_empty(), inboxes)? {
            Some(next) => phase = next,
            None => break,
        }
    }

    let (outputs, output_words) = stepper.outputs();
    Ok(SimulationRun {
        outputs,
        metrics,
        preprocessing,
        simulated_rounds: stepper.simulated_rounds,
        simulated_broadcasts: stepper.broadcasts,
        input_words: input_words(g),
        output_words,
    })
}

/// Convenience view: which levels an ℓ-node belongs to (used by tests).
pub fn membership_levels(h: &Hierarchy, v: NodeId) -> Vec<usize> {
    h.levels
        .iter()
        .filter(|lvl: &&Level| lvl.cluster_of[v.index()].is_some())
        .map(|lvl| lvl.index)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_algos::bfs_collection::BfsCollection;
    use congest_decomp::pruning::prune;
    use congest_engine::{run_bcongest, RunOptions};
    use congest_graph::generators;

    fn pruned(g: &Graph, eps: f64, seed: u64) -> Hierarchy {
        let h = Hierarchy::build(g, eps, seed);
        prune(g, &h)
    }

    #[test]
    fn bfs_collection_simulated_equals_direct() {
        for &eps in &[0.34, 0.5, 1.0] {
            let g = generators::gnp_connected(24, 0.15, 7);
            let h = pruned(&g, eps, 71);
            let algo = BfsCollection::new(g.nodes().collect()).with_random_delays(5);
            let direct = run_bcongest(
                &algo,
                &g,
                None,
                &RunOptions {
                    seed: 13,
                    ..Default::default()
                },
            )
            .unwrap();
            let sim = simulate_aggregation_general(
                &algo,
                &g,
                None,
                &h,
                &AggSimOptions {
                    seed: 13,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(sim.outputs, direct.outputs, "eps = {eps}");
            assert_eq!(sim.simulated_broadcasts, direct.metrics.broadcasts);
        }
    }

    #[test]
    fn depth_limited_collection_equals_direct() {
        let g = generators::grid(5, 5);
        let h = pruned(&g, 0.5, 3);
        let algo = BfsCollection::new(g.nodes().collect())
            .with_depth_limit(3)
            .with_random_delays(9);
        let direct = run_bcongest(
            &algo,
            &g,
            None,
            &RunOptions {
                seed: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let sim = simulate_aggregation_general(
            &algo,
            &g,
            None,
            &h,
            &AggSimOptions {
                seed: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(sim.outputs, direct.outputs);
    }

    #[test]
    fn membership_levels_shrink_with_dropout() {
        let g = generators::gnp_connected(30, 0.2, 2);
        let h = pruned(&g, 0.34, 2);
        for v in g.nodes() {
            let lv = membership_levels(&h, v);
            assert_eq!(lv.len(), h.dropout[v.index()]);
        }
    }
}
