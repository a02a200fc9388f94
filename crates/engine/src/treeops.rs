//! Forests and the upcast/downcast/convergecast/broadcast primitives (paper §1.4.2,
//! Lemmas 1.5 and 1.6, plus the aggregation passes every fragment/tree algorithm uses).
//!
//! * **Upcast** (Lemma 1.5): every node holds input items; all items flow to their
//!   tree's root, each node forwarding one word to its parent per round.
//! * **Downcast** (Lemma 1.6): roots hold addressed items; each item flows down the
//!   unique root→destination path, one word per edge per round.
//! * **Convergecast** ([`convergecast`]): one value per node, folded bottom-up with a
//!   caller-supplied combiner; each tree edge carries exactly one combined payload
//!   (the MWOE search of GHS-style MST, subtree counting, …).
//! * **Broadcast** ([`broadcast`]): one payload per root, flooded down its whole tree;
//!   each tree edge carries the payload once (fragment-ID dissemination, "everyone
//!   learn `n`", …).
//!
//! Upcast/downcast are executed as real packet schedules (via [`crate::router`]), so
//! the returned metrics are realized costs, which the tests compare against the
//! lemmas' bounds (`O(I_n/log n)` rounds / `O(d·I_n/log n)` messages for upcast over
//! depth-`d` forests, `O(|M|+d)` rounds / `O(d·|M|)` messages for downcast).
//! Convergecast/broadcast use the obvious level-synchronous schedule (`depth·w`
//! rounds, one `w`-word payload per tree edge) and charge exactly that.
//!
//! Every primitive has a **per-call message budget** form: pass `Some(budget)` (or use
//! [`upcast_budgeted`] / [`downcast_budgeted`]) and the call fails with
//! [`EngineError::BudgetExceeded`] instead of silently overspending — the enforcement
//! hook for "message-optimal" claims.
//!
//! Upcast/downcast are sequential and cost in proportion to the hops they
//! route, not to `m`, so they take no executor. Convergecast/broadcast have
//! `_with` forms taking an [`ExecutorConfig`]: under
//! [`DeliveryBackend::Sharded`] they run their level-synchronous schedule over
//! per-shard batch queues (the MST phase loop's announce → convergecast →
//! merge is the first workload). Outcomes and metrics are byte-identical for
//! every backend — `tests/backend_conformance.rs` pins it.

use crate::error::EngineError;
use crate::exec::{DeliveryBackend, ExecutorConfig};
use crate::metrics::Metrics;
use crate::router;
use crate::shard::ShardPlan;
use crate::wire::Wire;
use congest_graph::{EdgeId, Graph, NodeId};

/// A rooted spanning forest of (a subset of) the graph: parent pointers that follow
/// edges of `g`. Nodes with no parent are roots (singleton trees are fine).
#[derive(Clone, Debug)]
pub struct Forest {
    parent: Vec<Option<NodeId>>,
    parent_edge: Vec<Option<EdgeId>>,
    root_of: Vec<NodeId>,
    depth_of: Vec<u32>,
    depth: u32,
    roots: Vec<NodeId>,
    tree_edges: Vec<EdgeId>,
}

impl Forest {
    /// Builds a forest from parent pointers, validating that every pointer follows an
    /// edge of `g` and that there are no cycles.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidForest`] on a non-edge parent link or a cycle.
    pub fn from_parents(g: &Graph, parent: Vec<Option<NodeId>>) -> Result<Self, EngineError> {
        assert_eq!(parent.len(), g.n(), "parent vector must cover all nodes");
        let mut parent_edge = vec![None; g.n()];
        let mut tree_edges = Vec::new();
        for v in g.nodes() {
            if let Some(p) = parent[v.index()] {
                let e = g
                    .edge_between(v, p)
                    .ok_or_else(|| EngineError::InvalidForest {
                        reason: format!("parent link {v:?}->{p:?} is not an edge"),
                    })?;
                parent_edge[v.index()] = Some(e);
                tree_edges.push(e);
            }
        }
        // Depth computation; also detects cycles (a cycle never resolves).
        let mut depth_of = vec![u32::MAX; g.n()];
        let mut root_of = vec![NodeId::new(0); g.n()];
        let mut roots = Vec::new();
        for v in g.nodes() {
            if parent[v.index()].is_none() {
                depth_of[v.index()] = 0;
                root_of[v.index()] = v;
                roots.push(v);
            }
        }
        for v in g.nodes() {
            if depth_of[v.index()] != u32::MAX {
                continue;
            }
            // Walk up to a resolved ancestor.
            let mut chain = vec![v];
            let mut cur = v;
            loop {
                let p = parent[cur.index()]
                    .ok_or(())
                    .map_err(|_| EngineError::InvalidForest {
                        reason: "internal: root should be resolved".into(),
                    })?;
                if chain.len() > g.n() {
                    return Err(EngineError::InvalidForest {
                        reason: format!("cycle through {v:?}"),
                    });
                }
                if depth_of[p.index()] != u32::MAX {
                    let mut d = depth_of[p.index()];
                    let r = root_of[p.index()];
                    for &c in chain.iter().rev() {
                        d += 1;
                        depth_of[c.index()] = d;
                        root_of[c.index()] = r;
                    }
                    break;
                }
                chain.push(p);
                cur = p;
            }
        }
        let depth = depth_of.iter().copied().max().unwrap_or(0);
        Ok(Self {
            parent,
            parent_edge,
            root_of,
            depth_of,
            depth,
            roots,
            tree_edges,
        })
    }

    /// The parent of `v`, if any.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v.index()]
    }

    /// The edge to `v`'s parent, if any.
    #[inline]
    pub fn parent_edge(&self, v: NodeId) -> Option<EdgeId> {
        self.parent_edge[v.index()]
    }

    /// The root of `v`'s tree.
    #[inline]
    pub fn root_of(&self, v: NodeId) -> NodeId {
        self.root_of[v.index()]
    }

    /// `v`'s depth (0 at roots).
    #[inline]
    pub fn depth_of(&self, v: NodeId) -> u32 {
        self.depth_of[v.index()]
    }

    /// Maximum depth of the forest.
    #[inline]
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// All roots (nodes without parents).
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// All tree edges.
    pub fn tree_edges(&self) -> &[EdgeId] {
        &self.tree_edges
    }

    /// The path from `v` to its root (inclusive).
    pub fn path_to_root(&self, v: NodeId) -> Vec<NodeId> {
        router::path_to_root(&self.parent, v)
    }

    /// Appends the directed-edge hops (see [`router::directed`]) of the walk
    /// from `v` up to its root, one per tree edge.
    fn push_up_hops(&self, g: &Graph, v: NodeId, hops: &mut Vec<usize>) {
        let mut cur = v;
        while let (Some(p), Some(e)) = (self.parent(cur), self.parent_edge(cur)) {
            hops.push(router::directed(g, e, cur));
            cur = p;
        }
    }

    /// Members of each tree, grouped by root (in node order).
    pub fn members_by_root(&self) -> Vec<(NodeId, Vec<NodeId>)> {
        let mut groups: Vec<(NodeId, Vec<NodeId>)> =
            self.roots.iter().map(|&r| (r, Vec::new())).collect();
        let mut slot = vec![usize::MAX; self.parent.len()];
        for (i, &(r, _)) in groups.iter().enumerate() {
            slot[r.index()] = i;
        }
        for v in 0..self.parent.len() {
            let v = NodeId::new(v);
            groups[slot[self.root_of(v).index()]].1.push(v);
        }
        groups
    }
}

/// One item delivered by [`upcast`]: who originated it and its payload.
#[derive(Clone, Debug, PartialEq)]
pub struct Delivered<P> {
    /// Node at which the item was inserted.
    pub origin: NodeId,
    /// The payload.
    pub payload: P,
}

/// Result of an [`upcast`] run.
#[derive(Clone, Debug)]
pub struct UpcastOutcome<P> {
    /// Items received at each root: parallel to `Forest::roots()`.
    pub at_root: Vec<Vec<Delivered<P>>>,
    /// Realized cost of the operation.
    pub metrics: Metrics,
}

/// Upcasts `items` (at their origin nodes) to their tree roots (Lemma 1.5).
///
/// Each item's hops come from the forest's parent edges, so a call costs
/// `O(Σ depth · log + rounds)` plus the returned `m`-entry congestion vector
/// (see [`router::route_with`]).
///
/// # Errors
///
/// Never fails for a validated forest; the `Result` matches the other
/// primitives.
pub fn upcast<P: Wire>(
    g: &Graph,
    forest: &Forest,
    items: Vec<(NodeId, P)>,
) -> Result<UpcastOutcome<P>, EngineError> {
    let (mut hops, mut ends) = (Vec::new(), Vec::with_capacity(items.len()));
    for (v, p) in &items {
        forest.push_up_hops(g, *v, &mut hops);
        ends.push((hops.len(), p.words()));
    }
    let report = router::schedule(g.m(), &hops, &ends);

    let mut root_slot = vec![usize::MAX; g.n()];
    for (i, &r) in forest.roots().iter().enumerate() {
        root_slot[r.index()] = i;
    }
    let mut at_root: Vec<Vec<Delivered<P>>> = vec![Vec::new(); forest.roots().len()];
    // Delivery order: by completion round, ties by insertion order (matches the
    // realized schedule).
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&i| report.completion_round[i]);
    for i in order {
        let (v, p) = &items[i];
        let root = forest.root_of(*v);
        at_root[root_slot[root.index()]].push(Delivered {
            origin: *v,
            payload: p.clone(),
        });
    }
    Ok(UpcastOutcome {
        at_root,
        metrics: report.metrics,
    })
}

/// Result of a [`downcast`] run.
#[derive(Clone, Debug)]
pub struct DowncastOutcome<P> {
    /// Items received at each destination node (index = node).
    pub at_node: Vec<Vec<P>>,
    /// Realized cost of the operation.
    pub metrics: Metrics,
}

/// Downcasts addressed `items` from each destination's tree root to the destination
/// (Lemma 1.6). Items destined to a root are delivered locally for free. Costs
/// as [`upcast`].
///
/// # Errors
///
/// Never fails for a validated forest; the `Result` matches the other
/// primitives.
pub fn downcast<P: Wire>(
    g: &Graph,
    forest: &Forest,
    items: Vec<(NodeId, P)>,
) -> Result<DowncastOutcome<P>, EngineError> {
    let (mut hops, mut ends) = (Vec::new(), Vec::with_capacity(items.len()));
    for (dest, p) in &items {
        // The root→dest walk: the dest→root hops reversed, each edge flipped.
        let from = hops.len();
        forest.push_up_hops(g, *dest, &mut hops);
        hops[from..].reverse();
        hops[from..].iter_mut().for_each(|d| *d ^= 1);
        ends.push((hops.len(), p.words()));
    }
    let report = router::schedule(g.m(), &hops, &ends);

    let mut at_node: Vec<Vec<P>> = vec![Vec::new(); g.n()];
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&i| report.completion_round[i]);
    for i in order {
        let (dest, p) = &items[i];
        at_node[dest.index()].push(p.clone());
    }
    Ok(DowncastOutcome {
        at_node,
        metrics: report.metrics,
    })
}

/// Fails with [`EngineError::BudgetExceeded`] if `used` exceeds a given budget
/// (`None` = unlimited). The single budget-enforcement point: the budgeted
/// primitives below go through it, and budgeted algorithms (e.g. the GHS MST)
/// reuse it for the phases they charge directly.
pub fn ensure_budget(op: &'static str, used: u64, budget: Option<u64>) -> Result<(), EngineError> {
    match budget {
        Some(b) if used > b => Err(EngineError::BudgetExceeded {
            op,
            used,
            budget: b,
        }),
        _ => Ok(()),
    }
}

/// [`upcast`] with a hard per-call message budget.
///
/// # Errors
///
/// [`EngineError::BudgetExceeded`] if the realized schedule needs more than `budget`
/// messages; otherwise like [`upcast`].
pub fn upcast_budgeted<P: Wire>(
    g: &Graph,
    forest: &Forest,
    items: Vec<(NodeId, P)>,
    budget: u64,
) -> Result<UpcastOutcome<P>, EngineError> {
    let out = upcast(g, forest, items)?;
    ensure_budget("upcast", out.metrics.messages, Some(budget))?;
    Ok(out)
}

/// [`downcast`] with a hard per-call message budget.
///
/// # Errors
///
/// [`EngineError::BudgetExceeded`] if the realized schedule needs more than `budget`
/// messages; otherwise like [`downcast`].
pub fn downcast_budgeted<P: Wire>(
    g: &Graph,
    forest: &Forest,
    items: Vec<(NodeId, P)>,
    budget: u64,
) -> Result<DowncastOutcome<P>, EngineError> {
    let out = downcast(g, forest, items)?;
    ensure_budget("downcast", out.metrics.messages, Some(budget))?;
    Ok(out)
}

/// Result of a [`convergecast`] run.
#[derive(Clone, Debug)]
pub struct ConvergecastOutcome<P> {
    /// The folded value at each root: parallel to `Forest::roots()`.
    pub at_root: Vec<P>,
    /// Realized cost of the operation.
    pub metrics: Metrics,
}

/// Folds one value per node up to its tree root (bottom-up aggregation).
///
/// Every node combines its children's aggregates into its own value — children in
/// increasing node-ID order — and sends the result to its parent as one payload, so
/// each tree edge carries exactly one combined payload. The schedule is
/// level-synchronous: `depth · w` rounds, where `w` is the largest payload sent.
/// With an associative, commutative `combine` the result is schedule-independent;
/// either way the fold order above makes it deterministic.
///
/// Pass `budget = Some(limit)` to fail instead of overspending.
///
/// # Errors
///
/// [`EngineError::BudgetExceeded`] if the realized message count exceeds `budget`.
///
/// # Panics
///
/// Panics if `values.len() != g.n()` (one value per node).
pub fn convergecast<P: Wire + Send>(
    g: &Graph,
    forest: &Forest,
    values: Vec<P>,
    combine: impl Fn(P, P) -> P + Sync,
    budget: Option<u64>,
) -> Result<ConvergecastOutcome<P>, EngineError> {
    convergecast_with(
        g,
        forest,
        values,
        combine,
        budget,
        &ExecutorConfig::default(),
    )
}

/// [`convergecast`] with an explicit executor. The sequential/chunked backends
/// fold over a depth-sorted node order; the sharded backend runs the same
/// level-synchronous schedule explicitly — level buckets instead of a sort,
/// one batch queue per destination shard per level, drained in shard order —
/// which is both the delivery structure of [`DeliveryBackend::Sharded`] and
/// cheaper on deep forests (`O(n + depth)` bookkeeping instead of
/// `O(n log n)` per call). With more than one effective worker thread, levels
/// with enough queued senders (see `FAN_OUT_MIN_QUEUED`) drain their
/// destination-shard queues **concurrently** on the executor's pool: every
/// queue only touches parents inside its own shard's contiguous node range,
/// so the folds are disjoint, and per-shard message charges are batched and
/// merged in shard order. Children of one parent always fold in ascending
/// node order, so outcomes and metrics are byte-identical across backends
/// and thread counts.
///
/// # Errors
///
/// [`EngineError::BudgetExceeded`] if the realized message count exceeds `budget`.
///
/// # Panics
///
/// Panics if `values.len() != g.n()` (one value per node).
pub fn convergecast_with<P: Wire + Send>(
    g: &Graph,
    forest: &Forest,
    values: Vec<P>,
    combine: impl Fn(P, P) -> P + Sync,
    budget: Option<u64>,
    cfg: &ExecutorConfig,
) -> Result<ConvergecastOutcome<P>, EngineError> {
    assert_eq!(values.len(), g.n(), "one value per node");
    let mut acc: Vec<Option<P>> = values.into_iter().map(Some).collect();

    let mut metrics = Metrics::new(g.m());
    let mut max_words = 0usize;
    let mut max_sender_depth = 0u32;
    let mut note_sender = |v: NodeId, sent: &P| {
        max_words = max_words.max(sent.words());
        max_sender_depth = max_sender_depth.max(forest.depth_of(v));
    };
    match cfg.resolved_backend() {
        DeliveryBackend::Sharded { shards } => {
            // Level-synchronous over depth buckets: all children of one parent
            // share a level (parent at depth d ⇒ children at d+1), so filling
            // the per-destination-shard queues in sender order and draining
            // them at the level barrier, shards in order, folds each parent's
            // children in ascending node order — the sequential fold order.
            let plan = ShardPlan::new(g.n(), shards);
            let levels = level_order(g, forest);
            let threads = cfg.effective_threads();
            let mut queues: Vec<Vec<(NodeId, EdgeId, P)>> = vec![Vec::new(); plan.shards()];
            for level in (1..levels.levels()).rev() {
                for &v in levels.level(level) {
                    if let (Some(p), Some(e)) = (forest.parent(v), forest.parent_edge(v)) {
                        let sent = acc[v.index()].take().expect("each node sends once");
                        note_sender(v, &sent);
                        queues[plan.shard_of(p)].push((p, e, sent));
                    }
                }
                let queued: usize = queues.iter().map(Vec::len).sum();
                if threads > 1 && plan.shards() > 1 && queued >= FAN_OUT_MIN_QUEUED {
                    drain_level_parallel(
                        &plan,
                        threads,
                        &mut queues,
                        &mut acc,
                        &combine,
                        &mut metrics,
                    );
                } else {
                    for q in &mut queues {
                        for (p, e, sent) in q.drain(..) {
                            metrics.add_messages(e, sent.words() as u64);
                            let own = acc[p.index()].take().expect("parent not yet sent");
                            acc[p.index()] = Some(combine(own, sent));
                        }
                    }
                }
            }
        }
        _ => {
            // Deepest nodes first; the sort is stable, so same-depth nodes (in
            // particular all children of one parent) stay in ascending node order.
            let mut order: Vec<NodeId> = g.nodes().collect();
            order.sort_by_key(|v| std::cmp::Reverse(forest.depth_of(*v)));
            for v in order {
                if let (Some(p), Some(e)) = (forest.parent(v), forest.parent_edge(v)) {
                    let sent = acc[v.index()].take().expect("each node sends once");
                    note_sender(v, &sent);
                    metrics.add_messages(e, sent.words() as u64);
                    let own = acc[p.index()].take().expect("parent not yet sent");
                    acc[p.index()] = Some(combine(own, sent));
                }
            }
        }
    }
    metrics.rounds = u64::from(max_sender_depth) * max_words as u64;
    ensure_budget("convergecast", metrics.messages, budget)?;
    let at_root = forest
        .roots()
        .iter()
        .map(|r| acc[r.index()].take().expect("roots never send"))
        .collect();
    Ok(ConvergecastOutcome { at_root, metrics })
}

/// Minimum queued entries in one level before [`drain_level_parallel`] fans
/// out. A pool scope + per-shard spawn costs microseconds; folding one entry
/// costs nanoseconds — on deep forests with near-empty levels (the
/// `mst/path-*` workloads: thousands of 1-node levels) fan-out would be pure
/// dispatch overhead, so those levels stay on the caller-thread drain. Wide
/// shallow forests (the fan-out's target) put hundreds of senders in one
/// level and clear the threshold immediately.
const FAN_OUT_MIN_QUEUED: usize = 128;

/// Drains one level's destination-shard queues concurrently on the executor
/// pool (the thread fan-out of the sharded convergecast schedule): shard `d`'s
/// queue only folds into parents inside `plan.range(d)`, so splitting `acc` at
/// the shard boundaries gives every task a disjoint mutable window. Message
/// charges are collected per shard and merged in fixed shard order afterwards —
/// in-shard charge order equals the inline drain's order and `u64` addition
/// commutes across shards, so `metrics` (totals *and* the per-edge congestion
/// vector) is byte-identical to the single-threaded drain.
fn drain_level_parallel<P: Wire + Send>(
    plan: &ShardPlan,
    threads: usize,
    queues: &mut [Vec<(NodeId, EdgeId, P)>],
    acc: &mut [Option<P>],
    combine: &(impl Fn(P, P) -> P + Sync),
    metrics: &mut Metrics,
) {
    let mut charges: Vec<Option<Vec<(EdgeId, u64)>>> = (0..plan.shards()).map(|_| None).collect();
    crate::exec::pool_for(threads).scope(|s| {
        let mut rest_acc = acc;
        let mut rest_q = &mut *queues;
        let mut rest_c = charges.as_mut_slice();
        for d in 0..plan.shards() {
            let range = plan.range(d);
            let (mine, acc_tail) = rest_acc.split_at_mut(range.len());
            rest_acc = acc_tail;
            let (q, q_tail) = rest_q.split_first_mut().expect("one queue per shard");
            rest_q = q_tail;
            let (slot, c_tail) = rest_c.split_first_mut().expect("one charge slot per shard");
            rest_c = c_tail;
            let start = range.start;
            s.spawn(move |_| {
                let mut charged = Vec::with_capacity(q.len());
                for (p, e, sent) in q.drain(..) {
                    charged.push((e, sent.words() as u64));
                    let cell = &mut mine[p.index() - start];
                    let own = cell.take().expect("parent not yet sent");
                    *cell = Some(combine(own, sent));
                }
                *slot = Some(charged);
            });
        }
    });
    for charged in charges {
        metrics.add_messages_batch(charged.expect("every shard drains"));
    }
}

/// Nodes bucketed by forest depth in CSR form: one flat node array plus
/// per-level offsets, built by a stable counting sort (`O(n + depth)`, two
/// allocations total — the sharded backends' substitute for depth sorting).
/// Within each level nodes are in ascending node order, exactly like the
/// nested-`Vec` bucketing this replaces.
struct LevelOrder {
    order: Vec<NodeId>,
    offsets: Vec<usize>,
}

impl LevelOrder {
    /// Number of levels (`depth + 1`).
    fn levels(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The nodes at depth `l`, ascending.
    fn level(&self, l: usize) -> &[NodeId] {
        &self.order[self.offsets[l]..self.offsets[l + 1]]
    }
}

fn level_order(g: &Graph, forest: &Forest) -> LevelOrder {
    let levels = forest.depth() as usize + 1;
    let mut offsets = vec![0usize; levels + 1];
    for v in g.nodes() {
        offsets[forest.depth_of(v) as usize + 1] += 1;
    }
    for l in 0..levels {
        offsets[l + 1] += offsets[l];
    }
    let mut cursors = offsets[..levels].to_vec();
    let mut order = vec![NodeId::new(0); g.n()];
    for v in g.nodes() {
        let d = forest.depth_of(v) as usize;
        order[cursors[d]] = v;
        cursors[d] += 1;
    }
    LevelOrder { order, offsets }
}

/// Result of a [`broadcast`] run.
#[derive(Clone, Debug)]
pub struct BroadcastOutcome<P> {
    /// The payload received at each node (`None` outside broadcasting trees).
    pub at_node: Vec<Option<P>>,
    /// Realized cost of the operation.
    pub metrics: Metrics,
}

/// Floods one payload per root down that root's entire tree.
///
/// Each tree edge of a broadcasting tree carries the payload exactly once; the
/// level-synchronous schedule costs `depth · w` rounds for the deepest broadcasting
/// tree, `w` being the largest payload. Trees whose root has no payload are silent.
///
/// Pass `budget = Some(limit)` to fail instead of overspending.
///
/// # Errors
///
/// [`EngineError::InvalidForest`] if a payload's source node is not a root;
/// [`EngineError::BudgetExceeded`] if the realized message count exceeds `budget`.
pub fn broadcast<P: Wire>(
    g: &Graph,
    forest: &Forest,
    payloads: Vec<(NodeId, P)>,
    budget: Option<u64>,
) -> Result<BroadcastOutcome<P>, EngineError> {
    broadcast_with(g, forest, payloads, budget, &ExecutorConfig::default())
}

/// [`broadcast`] with an explicit executor. The sequential/chunked backends
/// flood over a depth-sorted node order; the sharded backend walks the same
/// level-synchronous schedule over depth buckets (`O(n + depth)` instead of a
/// sort) — per-node writes are independent and accounting commutes, so
/// outcomes and metrics are byte-identical across backends.
///
/// # Errors
///
/// [`EngineError::InvalidForest`] if a payload's source node is not a root;
/// [`EngineError::BudgetExceeded`] if the realized message count exceeds `budget`.
pub fn broadcast_with<P: Wire>(
    g: &Graph,
    forest: &Forest,
    payloads: Vec<(NodeId, P)>,
    budget: Option<u64>,
    cfg: &ExecutorConfig,
) -> Result<BroadcastOutcome<P>, EngineError> {
    let mut at_root: Vec<Option<P>> = vec![None; g.n()];
    for (r, p) in payloads {
        if forest.parent(r).is_some() {
            return Err(EngineError::InvalidForest {
                reason: format!("broadcast source {r:?} is not a root"),
            });
        }
        at_root[r.index()] = Some(p);
    }
    let mut metrics = Metrics::new(g.m());
    let mut at_node: Vec<Option<P>> = vec![None; g.n()];
    let mut max_words = 0usize;
    let mut max_depth = 0u32;
    // Nodes in ascending depth order: each node's payload (if its root broadcasts) is
    // its root's, and its parent edge carries it once. The sharded backend
    // iterates the level buckets directly; the others sort (stably, so both
    // orders are level-by-level in ascending node order — identical).
    let mut flood = |v: NodeId| {
        let Some(p) = at_root[forest.root_of(v).index()].as_ref() else {
            return;
        };
        let p = p.clone();
        if let Some(e) = forest.parent_edge(v) {
            let words = p.words();
            metrics.add_messages(e, words as u64);
            max_words = max_words.max(words);
            max_depth = max_depth.max(forest.depth_of(v));
        }
        at_node[v.index()] = Some(p);
    };
    if let DeliveryBackend::Sharded { .. } = cfg.resolved_backend() {
        let levels = level_order(g, forest);
        for l in 0..levels.levels() {
            for &v in levels.level(l) {
                flood(v);
            }
        }
    } else {
        let mut order: Vec<NodeId> = g.nodes().collect();
        order.sort_by_key(|v| forest.depth_of(*v));
        for v in order {
            flood(v);
        }
    }
    metrics.rounds = u64::from(max_depth) * max_words as u64;
    ensure_budget("broadcast", metrics.messages, budget)?;
    Ok(BroadcastOutcome { at_node, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;

    /// A path rooted at node 0.
    fn path_forest(n: usize) -> (Graph, Forest) {
        let g = generators::path(n);
        let parent: Vec<Option<NodeId>> = (0..n)
            .map(|i| {
                if i == 0 {
                    None
                } else {
                    Some(NodeId::new(i - 1))
                }
            })
            .collect();
        let f = Forest::from_parents(&g, parent).expect("valid parent pointers");
        (g, f)
    }

    #[test]
    fn forest_structure() {
        let (_, f) = path_forest(4);
        assert_eq!(f.roots(), &[NodeId::new(0)]);
        assert_eq!(f.depth(), 3);
        assert_eq!(f.root_of(NodeId::new(3)), NodeId::new(0));
        assert_eq!(f.depth_of(NodeId::new(2)), 2);
        assert_eq!(f.tree_edges().len(), 3);
        let groups = f.members_by_root();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].1.len(), 4);
    }

    #[test]
    fn invalid_parent_rejected() {
        let g = generators::path(3);
        let parent = vec![None, None, Some(NodeId::new(0))]; // 2->0 is not an edge
        assert!(Forest::from_parents(&g, parent).is_err());
    }

    #[test]
    fn cycle_rejected() {
        let g = generators::cycle(3);
        let parent = vec![
            Some(NodeId::new(1)),
            Some(NodeId::new(2)),
            Some(NodeId::new(0)),
        ];
        let err = Forest::from_parents(&g, parent).unwrap_err();
        assert!(matches!(err, EngineError::InvalidForest { .. }));
    }

    #[test]
    fn upcast_delivers_all_items() {
        let (g, f) = path_forest(5);
        let items: Vec<(NodeId, u64)> = (0..5).map(|i| (NodeId::new(i), i as u64 * 10)).collect();
        let out = upcast(&g, &f, items).expect("upcast over a valid forest");
        assert_eq!(out.at_root.len(), 1);
        let got: Vec<u64> = out.at_root[0].iter().map(|d| d.payload).collect();
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 10, 20, 30, 40]);
        // Messages = sum of depths = 0+1+2+3+4 = 10.
        assert_eq!(out.metrics.messages, 10);
        // Pipelined rounds: the deepest item needs 4 hops but shares edges; Lemma 1.5
        // bound: O(I_n) with I_n = 5 words here; realized must be <= 10.
        assert!(out.metrics.rounds >= 4 && out.metrics.rounds <= 10);
    }

    #[test]
    fn upcast_lemma_1_5_shape_on_star() {
        // Star rooted at the hub, depth 1: rounds ~ I_n only if edges are disjoint —
        // they are (one edge per leaf), so rounds = max item words, messages = I_n.
        let g = generators::star(6);
        let parent: Vec<Option<NodeId>> = (0..6)
            .map(|i| if i == 0 { None } else { Some(NodeId::new(0)) })
            .collect();
        let f = Forest::from_parents(&g, parent).expect("valid parent pointers");
        let items: Vec<(NodeId, Vec<u64>)> =
            (1..6).map(|i| (NodeId::new(i), vec![7u64; 3])).collect();
        let out = upcast(&g, &f, items).expect("upcast over a valid forest");
        assert_eq!(out.metrics.messages, 15);
        assert_eq!(out.metrics.rounds, 3); // 3 words pipelined on disjoint edges
        assert_eq!(out.at_root[0].len(), 5);
    }

    #[test]
    fn downcast_delivers_to_destinations() {
        let (g, f) = path_forest(5);
        // Root sends one item to each node.
        let items: Vec<(NodeId, u64)> = (1..5).map(|i| (NodeId::new(i), i as u64)).collect();
        let out = downcast(&g, &f, items).expect("downcast over a valid forest");
        for i in 1..5 {
            assert_eq!(out.at_node[i], vec![i as u64]);
        }
        // Lemma 1.6: messages <= d * |M| = 4*4; realized = sum of depths = 1+2+3+4.
        assert_eq!(out.metrics.messages, 10);
        // Rounds <= |M| + d.
        assert!(out.metrics.rounds <= 4 + 4);
    }

    #[test]
    fn downcast_to_root_is_free() {
        let (g, f) = path_forest(3);
        let out = downcast(&g, &f, vec![(NodeId::new(0), 42u64)]).expect("local downcast");
        assert_eq!(out.at_node[0], vec![42]);
        assert_eq!(out.metrics.messages, 0);
        assert_eq!(out.metrics.rounds, 0);
    }

    #[test]
    fn multi_tree_forest_parallelism() {
        // Two disjoint paths upcast concurrently; rounds = max, not sum.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let parent = vec![
            None,
            Some(NodeId::new(0)),
            Some(NodeId::new(1)),
            None,
            Some(NodeId::new(3)),
            Some(NodeId::new(4)),
        ];
        let f = Forest::from_parents(&g, parent).expect("valid parent pointers");
        let items = vec![(NodeId::new(2), 1u64), (NodeId::new(5), 2u64)];
        let out = upcast(&g, &f, items).expect("upcast over a valid forest");
        assert_eq!(out.metrics.rounds, 2);
        assert_eq!(out.metrics.messages, 4);
        assert_eq!(out.at_root[0][0].payload, 1);
        assert_eq!(out.at_root[1][0].payload, 2);
    }

    #[test]
    fn convergecast_sums_subtree() {
        let (g, f) = path_forest(5);
        let out = convergecast(&g, &f, vec![1u64; 5], |a, b| a + b, None)
            .expect("unbudgeted convergecast");
        assert_eq!(out.at_root, vec![5]);
        // One word per tree edge, depth rounds.
        assert_eq!(out.metrics.messages, 4);
        assert_eq!(out.metrics.rounds, 4);
    }

    #[test]
    fn convergecast_fold_order_is_child_id_ascending() {
        // Star rooted at 0: fold must visit children 1, 2, 3, 4, 5 in order.
        let g = generators::star(6);
        let parent: Vec<Option<NodeId>> =
            (0..6).map(|i| (i != 0).then_some(NodeId::new(0))).collect();
        let f = Forest::from_parents(&g, parent).expect("valid parent pointers");
        let values: Vec<Vec<u64>> = (0..6).map(|i| vec![i as u64]).collect();
        let out = convergecast(
            &g,
            &f,
            values,
            |mut a, b| {
                a.extend(b);
                a
            },
            None,
        )
        .expect("vector-append convergecast");
        assert_eq!(out.at_root[0], vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(out.metrics.rounds, 1); // depth 1, 1-word payloads
        assert_eq!(out.metrics.messages, 5);
    }

    #[test]
    fn convergecast_budget_enforced() {
        let (g, f) = path_forest(5);
        let err = convergecast(&g, &f, vec![1u64; 5], |a, b| a + b, Some(3)).unwrap_err();
        assert!(matches!(
            err,
            EngineError::BudgetExceeded {
                op: "convergecast",
                used: 4,
                budget: 3
            }
        ));
    }

    #[test]
    fn sharded_convergecast_parallel_drain_matches_inline() {
        // Four wide trees, one rooted in each quarter of the node range, so a
        // 4-shard plan puts every root in a different shard: level 1 queues
        // 4 × 108 = 432 entries ≥ FAN_OUT_MIN_QUEUED across four *non-empty*
        // destination-shard queues (the concurrent split_at_mut windows all
        // work at once), and the one-node tails under each hub add a second,
        // sub-threshold level that takes the inline path — both drains and
        // the level scheduling are exercised in one run.
        let n = 440;
        let hub = |i: usize| (i / 110) * 110;
        let mut edges: Vec<(usize, usize)> = Vec::new();
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        for (i, slot) in parent.iter_mut().enumerate() {
            match i % 110 {
                0 => {}
                109 => {
                    edges.push((i - 1, i));
                    *slot = Some(NodeId::new(i - 1));
                }
                _ => {
                    edges.push((hub(i), i));
                    *slot = Some(NodeId::new(hub(i)));
                }
            }
        }
        let g = Graph::from_edges(n, &edges);
        let f = Forest::from_parents(&g, parent).expect("valid parent pointers");
        assert_eq!(f.roots().len(), 4);
        assert_eq!(f.depth(), 2);
        let values: Vec<Vec<u64>> = (0..n).map(|i| vec![i as u64]).collect();
        let combine = |mut a: Vec<u64>, b: Vec<u64>| {
            a.extend(b);
            a
        };
        let base = convergecast_with(
            &g,
            &f,
            values.clone(),
            combine,
            None,
            &ExecutorConfig::sequential(),
        )
        .expect("sequential convergecast");
        for shards in [2usize, 4, 8] {
            for threads in [1usize, 2, 4] {
                let cfg = ExecutorConfig::with_threads(threads)
                    .with_backend(DeliveryBackend::Sharded { shards });
                let out = convergecast_with(&g, &f, values.clone(), combine, None, &cfg)
                    .expect("sharded convergecast");
                assert_eq!(
                    base.at_root, out.at_root,
                    "{shards} shards / {threads} threads"
                );
                assert_eq!(
                    base.metrics, out.metrics,
                    "{shards} shards / {threads} threads"
                );
            }
        }
    }

    #[test]
    fn broadcast_floods_whole_tree() {
        let (g, f) = path_forest(4);
        let out =
            broadcast(&g, &f, vec![(NodeId::new(0), 7u64)], None).expect("unbudgeted broadcast");
        assert!(out.at_node.iter().all(|p| *p == Some(7)));
        assert_eq!(out.metrics.messages, 3);
        assert_eq!(out.metrics.rounds, 3);
    }

    #[test]
    fn broadcast_silent_trees_cost_nothing() {
        // Two trees; only the second broadcasts.
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let parent = vec![None, Some(NodeId::new(0)), None, Some(NodeId::new(2))];
        let f = Forest::from_parents(&g, parent).expect("valid parent pointers");
        let out =
            broadcast(&g, &f, vec![(NodeId::new(2), 9u64)], None).expect("unbudgeted broadcast");
        assert_eq!(out.at_node, vec![None, None, Some(9), Some(9)]);
        assert_eq!(out.metrics.messages, 1);
        assert_eq!(out.metrics.rounds, 1);
    }

    #[test]
    fn broadcast_rejects_non_root_source() {
        let (g, f) = path_forest(3);
        let err = broadcast(&g, &f, vec![(NodeId::new(1), 1u64)], None).unwrap_err();
        assert!(matches!(err, EngineError::InvalidForest { .. }));
    }

    #[test]
    fn broadcast_budget_enforced() {
        let (g, f) = path_forest(4);
        let err = broadcast(&g, &f, vec![(NodeId::new(0), 7u64)], Some(2)).unwrap_err();
        assert!(matches!(err, EngineError::BudgetExceeded { .. }));
    }

    #[test]
    fn budgeted_upcast_and_downcast() {
        let (g, f) = path_forest(5);
        let items: Vec<(NodeId, u64)> = (0..5).map(|i| (NodeId::new(i), i as u64)).collect();
        // Realized upcast cost is 10 (sum of depths) — a budget of 10 passes, 9 fails.
        assert!(upcast_budgeted(&g, &f, items.clone(), 10).is_ok());
        let err = upcast_budgeted(&g, &f, items, 9).unwrap_err();
        assert!(matches!(
            err,
            EngineError::BudgetExceeded { op: "upcast", .. }
        ));
        let down: Vec<(NodeId, u64)> = (1..5).map(|i| (NodeId::new(i), i as u64)).collect();
        assert!(downcast_budgeted(&g, &f, down.clone(), 10).is_ok());
        assert!(downcast_budgeted(&g, &f, down, 9).is_err());
    }

    use congest_graph::Graph;
}
