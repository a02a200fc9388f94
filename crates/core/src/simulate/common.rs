//! Shared plumbing for the three simulation theorems: the simulated-algorithm
//! stepper (state array + broadcast collection + idle-skipping, mirroring the
//! direct runner's semantics exactly) and the padding payload used to account
//! multi-word transfers.

use congest_decomp::Level;
use congest_engine::{
    downcast, exec, upcast, AggregationAlgorithm, BcongestAlgorithm, EngineError, ExecutorConfig,
    Forest, LocalView, Metrics, Wire,
};
use congest_graph::{rng, EdgeId, Graph, NodeId};

/// An opaque payload of a known size in words — used when the *content* of a
/// transfer is tracked separately (e.g. cluster centers already hold the data) but
/// its transport must be paid for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pad(pub usize);

impl Wire for Pad {
    fn words(&self) -> usize {
        self.0.max(1)
    }
}

/// Outcome of a simulated execution (Theorems 2.1, 3.9, 3.10).
#[derive(Clone, Debug)]
pub struct SimulationRun<O> {
    /// Per-node outputs — identical to a direct run with the same seed.
    pub outputs: Vec<O>,
    /// Total realized cost (preprocessing + simulation).
    pub metrics: Metrics,
    /// Preprocessing cost alone.
    pub preprocessing: Metrics,
    /// Number of simulated rounds (phases executed, counting idle-skipped ones).
    pub simulated_rounds: usize,
    /// Broadcast complexity `B_A` of the simulated execution.
    pub simulated_broadcasts: u64,
    /// `In` (words): inputs over all nodes.
    pub input_words: usize,
    /// `Out` (words): outputs over all nodes.
    pub output_words: usize,
}

/// Steps the states of a simulated BCONGEST algorithm, phase by phase, with exactly
/// the direct runner's semantics (so simulated outputs are bit-identical).
///
/// The per-node phases honor an [`ExecutorConfig`] (see [`Stepper::with_exec`]):
/// the pure broadcast scan, the receive transitions, and the idle scan shard
/// nodes into contiguous chunks and merge in fixed node order, exactly like the
/// direct runner — so simulated outputs stay bit-identical at every thread count.
pub struct Stepper<'a, A: BcongestAlgorithm> {
    algo: &'a A,
    /// Simulated per-node states.
    pub states: Vec<A::State>,
    /// Broadcast count so far.
    pub broadcasts: u64,
    /// Phases through the last active one (see [`Stepper::advance`]).
    pub simulated_rounds: usize,
    /// How the per-node phases execute (sequential by default).
    exec: ExecutorConfig,
}

impl<'a, A> Stepper<'a, A>
where
    A: BcongestAlgorithm + Sync,
    A::State: Send + Sync,
    A::Msg: Send + Sync,
{
    /// Initializes states with the same per-node seeds the direct runner would use.
    pub fn new(algo: &'a A, g: &Graph, weights: Option<&[u64]>, seed: u64) -> Self {
        let states = (0..g.n())
            .map(|i| {
                let view = LocalView::new(g, weights, NodeId::new(i), rng::node_seed(seed, i));
                algo.init(&view)
            })
            .collect();
        Self {
            algo,
            states,
            broadcasts: 0,
            simulated_rounds: 0,
            exec: ExecutorConfig::sequential(),
        }
    }

    /// Sets the executor used for the per-node phases.
    #[must_use]
    pub fn with_exec(mut self, exec: ExecutorConfig) -> Self {
        self.exec = exec;
        self
    }

    /// Collects this phase's broadcasts and applies the send transitions.
    pub fn collect_broadcasts(&mut self, round: usize) -> Vec<(NodeId, A::Msg)> {
        let algo = self.algo;
        let out: Vec<(NodeId, A::Msg)> = exec::map_chunks(&self.exec, &self.states, {
            |start, chunk| {
                let mut batch = Vec::new();
                for (off, st) in chunk.iter().enumerate() {
                    if let Some(m) = algo.broadcast(st, round) {
                        batch.push((NodeId::new(start + off), m));
                    }
                }
                batch
            }
        })
        .into_iter()
        .flatten()
        .collect();
        for (v, _) in &out {
            self.algo
                .on_broadcast_sent(&mut self.states[v.index()], round);
        }
        self.broadcasts += out.len() as u64;
        out
    }

    /// Ends `phase`: delivers the non-empty `inboxes` (like the direct runner)
    /// and returns the next phase — `phase + 1` after any broadcast or
    /// delivery, else the payload's next activity, `None` once quiescent.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::StalledActivity`] if the payload names a phase
    /// that is not after the idle `phase`.
    pub fn advance(
        &mut self,
        phase: usize,
        broadcast: bool,
        mut inboxes: Vec<Vec<(NodeId, A::Msg)>>,
    ) -> Result<Option<usize>, EngineError> {
        assert_eq!(inboxes.len(), self.states.len(), "one inbox per node");
        let algo = self.algo;
        let mut received = false;
        for any in exec::map_chunks_mut2(&self.exec, &mut self.states, &mut inboxes, {
            |_start, sts, inbs| {
                let mut any = false;
                for (st, inbox) in sts.iter_mut().zip(inbs.iter_mut()) {
                    if !inbox.is_empty() {
                        any = true;
                        algo.receive(st, phase, inbox);
                    }
                }
                any
            }
        }) {
            received |= any;
        }
        if received || broadcast {
            self.simulated_rounds = phase + 1;
            return Ok(Some(phase + 1));
        }
        exec::min_chunks(&self.exec, &self.states, |st| {
            algo.next_activity(st, phase + 1)
        })
        .map(|r| EngineError::check_progress(algo.name(), phase, r))
        .transpose()
    }

    /// Finalizes outputs and the `Out` word count.
    pub fn outputs(&self) -> (Vec<A::Output>, usize) {
        let outputs: Vec<A::Output> = self.states.iter().map(|s| self.algo.output(s)).collect();
        let words = outputs.iter().map(|o| self.algo.output_words(o)).sum();
        (outputs, words)
    }
}

/// Deduplicates `(sender, message)` pairs — the union step of Definition 3.1 (a
/// message may legitimately arrive through several routes).
pub fn dedupe_msgs<M: Wire>(mut msgs: Vec<(NodeId, M)>) -> Vec<(NodeId, M)> {
    let mut out: Vec<(NodeId, M)> = Vec::with_capacity(msgs.len());
    for (from, m) in msgs.drain(..) {
        if !out.iter().any(|(f, x)| *f == from && *x == m) {
            out.push((from, m));
        }
    }
    out
}

/// Charges one synchronous round of `(edge, words)` transfers to `cost`.
pub(crate) fn charge_round(cost: &mut Metrics, transfers: impl IntoIterator<Item = (EdgeId, u64)>) {
    cost.rounds += 1;
    cost.add_messages_batch(transfers);
}

/// Marks one node's neighbours at a time in `O(deg)`, reusing its stamps.
pub(crate) struct NeighborMarks {
    stamp: Vec<u64>,
    tick: u64,
}

impl NeighborMarks {
    pub fn new(n: usize) -> Self {
        Self {
            stamp: vec![0; n],
            tick: 0,
        }
    }

    /// Marks exactly the neighbours of `u` (never `u`: graphs are loop-free).
    pub fn mark(&mut self, g: &Graph, u: NodeId) {
        self.tick += 1;
        for x in g.neighbors(u) {
            self.stamp[x.index()] = self.tick;
        }
    }

    pub fn is_marked(&self, v: NodeId) -> bool {
        self.stamp[v.index()] == self.tick
    }
}

/// One phase of an aggregation simulation (Theorems 3.9/3.10): the payload,
/// the graph, and each node's broadcast this phase.
pub(crate) struct AggPhase<'a, A: AggregationAlgorithm> {
    pub algo: &'a A,
    pub g: &'a Graph,
    pub phase: usize,
    pub bp: &'a [Option<A::Msg>],
}

impl<A: AggregationAlgorithm> AggPhase<'_, A> {
    /// The receive step on the clusters of `lvl` (§3.2.1): each member upcasts
    /// its own broadcast plus the messages that `arrived` at it; the center
    /// then downcasts to each member `u` the aggregate of the available
    /// messages from `u`'s neighbours, which lands in `packets[u]`. With
    /// `forest = None` (level 0's singleton clusters) both transfers are local
    /// and free.
    pub fn receive_step(
        &self,
        lvl: &Level,
        forest: Option<&Forest>,
        arrived: &[Vec<(NodeId, A::Msg)>],
        marks: &mut NeighborMarks,
        packets: &mut [Vec<(NodeId, A::Msg)>],
        cost: &mut Metrics,
    ) -> Result<(), EngineError> {
        let g = self.g;
        let mut avail: Vec<Vec<(NodeId, A::Msg)>> = vec![Vec::new(); lvl.clusters.len()];
        let mut up_items: Vec<(NodeId, Pad)> = Vec::new();
        for v in g.nodes() {
            let Some(c) = lvl.cluster_of[v.index()] else {
                continue;
            };
            let own = self.bp[v.index()].iter().map(|m| (v, m.clone()));
            avail[c.index()].extend(own.chain(arrived[v.index()].iter().cloned()));
            let words = usize::from(self.bp[v.index()].is_some()) + arrived[v.index()].len();
            if words > 0 {
                up_items.push((v, Pad(words)));
            }
        }
        if let Some(forest) = forest.filter(|_| !up_items.is_empty()) {
            cost.merge_sequential(&upcast(g, forest, up_items)?.metrics);
        }
        let mut down_items: Vec<(NodeId, Pad)> = Vec::new();
        for (ci, msgs) in avail.iter().enumerate() {
            if msgs.is_empty() {
                continue;
            }
            for &u in &lvl.clusters[ci].1 {
                marks.mark(g, u);
                let relevant: Vec<(NodeId, A::Msg)> = msgs
                    .iter()
                    .filter(|(v, _)| marks.is_marked(*v))
                    .cloned()
                    .collect();
                if relevant.is_empty() {
                    continue;
                }
                let agg = self.algo.aggregate(u, self.phase, relevant);
                if agg.is_empty() {
                    continue;
                }
                let words: usize = agg.iter().map(|(_, m)| m.words().max(1)).sum();
                down_items.push((u, Pad(words)));
                packets[u.index()].extend(agg);
            }
        }
        if let Some(forest) = forest.filter(|_| !down_items.is_empty()) {
            cost.merge_sequential(&downcast(g, forest, down_items)?.metrics);
        }
        Ok(())
    }
}

/// Total input words over all nodes (the paper's `In`, in words).
pub fn input_words(g: &Graph) -> usize {
    g.nodes().map(|v| g.degree(v) + 1).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pad_words() {
        assert_eq!(Pad(0).words(), 1);
        assert_eq!(Pad(5).words(), 5);
    }

    #[test]
    fn dedupe_removes_duplicates() {
        let msgs = vec![
            (NodeId::new(1), 7u64),
            (NodeId::new(1), 7u64),
            (NodeId::new(1), 8u64),
            (NodeId::new(2), 7u64),
        ];
        let out = dedupe_msgs(msgs);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn input_words_is_2m_plus_n() {
        let g = congest_graph::generators::cycle(5);
        assert_eq!(input_words(&g), 2 * 5 + 5);
    }
}
