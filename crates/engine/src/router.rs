//! Store-and-forward packet routing under CONGEST capacity.
//!
//! Every directed edge carries at most one word per round; packets queue FIFO. This is
//! the execution substrate behind the Leighton–Maggs–Rao-style accounting the paper
//! leans on (Theorem 1.3): a real schedule is produced and measured, so routed rounds
//! reflect `O(congestion + dilation)` behaviour rather than assuming it.
//!
//! The scheduler's state is indexed by the directed edges a batch touches,
//! not by all `2m`, so a routed batch costs in proportion to its hops and
//! rounds; only the returned per-edge congestion vector is `m`-sized. The
//! tree primitives ([`crate::treeops`]) feed it hop sequences built from
//! forest parent edges.

use crate::error::EngineError;
use crate::exec::{self, ExecutorConfig};
use crate::metrics::Metrics;
use congest_graph::{EdgeId, Graph, NodeId};
use std::collections::VecDeque;

/// One routing task: deliver a payload of `words` words along `path` (a walk whose
/// first node is the source, last is the destination).
#[derive(Clone, Debug)]
pub struct RouteTask {
    /// Nodes of the walk, consecutive nodes adjacent. A single-node path delivers
    /// locally for free.
    pub path: Vec<NodeId>,
    /// Payload size in words; each word is a separate message.
    pub words: usize,
}

/// Outcome of a routed batch.
#[derive(Clone, Debug)]
pub struct RouteReport {
    /// Rounds/messages/congestion of the whole batch.
    pub metrics: Metrics,
    /// Round (1-based) at which each task's last word arrived; 0 for local deliveries.
    pub completion_round: Vec<u64>,
    /// The dilation: maximum path length over tasks.
    pub dilation: usize,
    /// The congestion: maximum over directed edges of words scheduled through it.
    pub congestion: u64,
}

/// Routes all `tasks` simultaneously and returns the realized schedule's measures.
///
/// Packets are injected at round 0 in task order and forwarded FIFO; each directed edge
/// carries one word per round.
///
/// # Errors
///
/// Returns [`EngineError::InvalidPath`] if some path is not a walk in `g`.
pub fn route(g: &Graph, tasks: &[RouteTask]) -> Result<RouteReport, EngineError> {
    route_with(g, tasks, &ExecutorConfig::default())
}

/// [`route`] with an explicit executor: the per-task path→directed-edge
/// precompute (the pure part — one `edge_between` lookup per hop) is sharded
/// over task chunks. The FIFO scheduling loop itself stays sequential: its
/// global queue order *is* the synchronous-round semantics being measured.
/// Reports are identical at every thread count.
///
/// A call costs `O(H log H + rounds)` time and `O(H + words)` memory for `H`
/// total hops, plus the `m`-entry congestion vector of the returned
/// [`Metrics`]: the scheduler indexes only the directed edges the batch uses.
///
/// # Errors
///
/// Returns [`EngineError::InvalidPath`] (lowest failing task index, like the
/// sequential path) if some path is not a walk in `g`.
pub fn route_with(
    g: &Graph,
    tasks: &[RouteTask],
    cfg: &ExecutorConfig,
) -> Result<RouteReport, EngineError> {
    // Resolve each task's directed-edge sequence, task chunks in parallel.
    // Chunk results merge in task order, so the first error reported is the
    // lowest failing task index — exactly the sequential behaviour.
    let (mut hops, mut ends) = (Vec::new(), Vec::with_capacity(tasks.len()));
    for chunk in exec::map_chunks(cfg, tasks, |start, chunk| {
        let resolve = |task: usize, w: &[NodeId]| {
            let e = g.edge_between(w[0], w[1]);
            e.map(|e| directed(g, e, w[0]))
                .ok_or(EngineError::InvalidPath { task })
        };
        (start..)
            .zip(chunk)
            .map(|(i, t)| t.path.windows(2).map(|w| resolve(i, w)).collect())
            .collect::<Result<Vec<Vec<usize>>, EngineError>>()
    }) {
        for seq in chunk? {
            hops.extend(seq);
            ends.push((hops.len(), tasks[ends.len()].words));
        }
    }
    Ok(schedule(g.m(), &hops, &ends))
}

/// Directed edge index of `e` traversed from `from`: `2e` for the canonical
/// `u → v` direction, `2e + 1` for `v → u`.
#[inline]
pub(crate) fn directed(g: &Graph, e: EdgeId, from: NodeId) -> usize {
    2 * e.index() + usize::from(g.endpoints(e).0 != from)
}

/// The FIFO store-and-forward scheduler on a graph with `m` edges. Task `i`
/// carries `ends[i].1` words over the directed edges (indices as in
/// [`directed`]) `hops[ends[i - 1].0..ends[i].0]`. Queues, planned loads
/// and active flags are indexed by local slot — the rank of a directed edge
/// among the distinct ones the batch uses — so nothing but the returned
/// congestion vector scales with `m`.
pub(crate) fn schedule(m: usize, hops: &[usize], ends: &[(usize, usize)]) -> RouteReport {
    let mut slots = hops.to_vec();
    slots.sort_unstable();
    slots.dedup();
    let hop_slot: Vec<usize> = hops
        .iter()
        .map(|d| slots.binary_search(d).expect("every hop has a slot"))
        .collect();
    let seq = |t: usize| &hop_slot[t.checked_sub(1).map_or(0, |p| ends[p].0)..ends[t].0];
    let tasks = ends.len();

    // Static congestion: words per directed edge. Every word crosses every hop
    // of its task exactly once, so this is also the realized message charge.
    let mut planned = vec![0u64; slots.len()];
    for (t, &(_, w)) in ends.iter().enumerate() {
        for &s in seq(t) {
            planned[s] += w as u64;
        }
    }
    let mut metrics = Metrics::new(m);
    for (&d, &w) in slots.iter().zip(&planned) {
        metrics.add_messages(EdgeId::new(d / 2), w);
    }
    let congestion = planned.iter().copied().max().unwrap_or(0);
    let dilation = (0..tasks).map(|t| seq(t).len()).max().unwrap_or(0);

    // Packet = (task, hop index next to traverse). Each word is its own packet.
    // Only non-empty queues are visited each round, so a whole routed batch costs
    // O(total word-hops + rounds) work.
    let mut queues: Vec<VecDeque<(usize, usize)>> = vec![VecDeque::new(); slots.len()];
    let mut is_active = vec![false; slots.len()];
    let mut active: Vec<usize> = Vec::new();
    let mut completion = vec![0u64; tasks];
    let mut outstanding = vec![0usize; tasks];
    let mut remaining_packets = 0usize;
    for (i, &(_, w)) in ends.iter().enumerate() {
        let Some(&s) = seq(i).first().filter(|_| w > 0) else {
            continue;
        };
        outstanding[i] = w;
        remaining_packets += w;
        queues[s].extend(std::iter::repeat_n((i, 0), w));
        if !is_active[s] {
            is_active[s] = true;
            active.push(s);
        }
    }

    let mut round: u64 = 0;
    let (mut arrivals, mut survivors) = (Vec::new(), Vec::new());
    while remaining_packets > 0 {
        round += 1;
        // Each directed edge forwards one packet; arrivals are buffered and enqueued
        // after the send phase (synchronous semantics).
        for &s in &active {
            let (task, hop) = queues[s].pop_front().expect("active queues are non-empty");
            arrivals.push((task, hop + 1));
            if queues[s].is_empty() {
                is_active[s] = false;
            } else {
                survivors.push(s);
            }
        }
        std::mem::swap(&mut active, &mut survivors);
        survivors.clear();
        for (task, hop) in arrivals.drain(..) {
            if hop == seq(task).len() {
                outstanding[task] -= 1;
                remaining_packets -= 1;
                if outstanding[task] == 0 {
                    completion[task] = round;
                }
            } else {
                let s = seq(task)[hop];
                queues[s].push_back((task, hop));
                if !is_active[s] {
                    is_active[s] = true;
                    active.push(s);
                }
            }
        }
    }
    metrics.rounds = round;

    RouteReport {
        metrics,
        completion_round: completion,
        dilation,
        congestion,
    }
}

/// Builds the unique path from `v` up to the root in a parent forest, inclusive of both
/// endpoints. Helper for tree-based routing.
pub fn path_to_root(parent: &[Option<NodeId>], v: NodeId) -> Vec<NodeId> {
    let mut path = vec![v];
    let mut cur = v;
    while let Some(p) = parent[cur.index()] {
        path.push(p);
        cur = p;
        debug_assert!(path.len() <= parent.len(), "cycle in parent pointers");
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;

    #[test]
    fn single_packet_takes_dilation_rounds() {
        let g = generators::path(5);
        let task = RouteTask {
            path: (0..5).map(NodeId::new).collect(),
            words: 1,
        };
        let r = route(&g, &[task]).expect("route the single task");
        assert_eq!(r.metrics.rounds, 4);
        assert_eq!(r.metrics.messages, 4);
        assert_eq!(r.dilation, 4);
        assert_eq!(r.completion_round, vec![4]);
    }

    #[test]
    fn multiword_pipelines() {
        // k words over a d-hop path should take d + k - 1 rounds (pipelining).
        let g = generators::path(4);
        let task = RouteTask {
            path: (0..4).map(NodeId::new).collect(),
            words: 5,
        };
        let r = route(&g, &[task]).expect("route the single task");
        assert_eq!(r.metrics.rounds, 3 + 5 - 1);
        assert_eq!(r.metrics.messages, 15);
    }

    #[test]
    fn contention_serializes() {
        // Two packets over the same edge: 2 rounds, not 1.
        let g = generators::path(2);
        let t = RouteTask {
            path: vec![NodeId::new(0), NodeId::new(1)],
            words: 1,
        };
        let r = route(&g, &[t.clone(), t]).expect("route two contending tasks");
        assert_eq!(r.metrics.rounds, 2);
        assert_eq!(r.congestion, 2);
    }

    #[test]
    fn opposite_directions_dont_contend() {
        let g = generators::path(2);
        let a = RouteTask {
            path: vec![NodeId::new(0), NodeId::new(1)],
            words: 1,
        };
        let b = RouteTask {
            path: vec![NodeId::new(1), NodeId::new(0)],
            words: 1,
        };
        let r = route(&g, &[a, b]).expect("route opposite-direction tasks");
        assert_eq!(r.metrics.rounds, 1);
    }

    #[test]
    fn local_delivery_is_free() {
        let g = generators::path(2);
        let t = RouteTask {
            path: vec![NodeId::new(0)],
            words: 3,
        };
        let r = route(&g, &[t]).expect("route the local-delivery task");
        assert_eq!(r.metrics.rounds, 0);
        assert_eq!(r.metrics.messages, 0);
    }

    #[test]
    fn invalid_path_rejected() {
        let g = generators::path(3);
        let t = RouteTask {
            path: vec![NodeId::new(0), NodeId::new(2)],
            words: 1,
        };
        assert_eq!(
            route(&g, &[t]).unwrap_err(),
            EngineError::InvalidPath { task: 0 }
        );
    }

    #[test]
    fn schedule_length_within_congestion_plus_dilation() {
        // LMR-flavoured sanity: realized rounds <= congestion + dilation on a shared path.
        let g = generators::path(6);
        let tasks: Vec<RouteTask> = (0..4)
            .map(|_| RouteTask {
                path: (0..6).map(NodeId::new).collect(),
                words: 2,
            })
            .collect();
        let r = route(&g, &tasks).expect("route the shared-path batch");
        assert!(r.metrics.rounds <= r.congestion + r.dilation as u64);
    }

    #[test]
    fn path_to_root_works() {
        let parent = vec![None, Some(NodeId::new(0)), Some(NodeId::new(1))];
        let p = path_to_root(&parent, NodeId::new(2));
        assert_eq!(p, vec![NodeId::new(2), NodeId::new(1), NodeId::new(0)]);
    }
}
