//! The `serve` layer, measured in `paper-apsp`'s traced run: Theorem 1.1's
//! result on the run's first instance behind a `DistanceOracle` with a
//! 4096-entry cache. Each of [`REPS`] repetitions serves the run's seeded
//! closed-loop stream of [`REQUESTS`] requests from a fresh (cold) oracle:
//! 70% uniform point lookups, 20% point lookups among 16 hot nodes, 9%
//! `lookup_batch` of 16 pairs and 1% `k_nearest(·, 8)`.
//!
//! Only the oracle call is inside each request's latency window; each answer
//! is checked against all-pairs Dijkstra right after its window, outside it.
//!
//! The stream is not an end-to-end workload of its own: its time drifts with
//! the host by more than the largest allowed regression bound (see
//! `NOTES.md`), so it is reported per layer, without a bound.

use crate::{stats, Ctx, Run};
use congest_apsp::apsp_core::distance::Distance;
use congest_apsp::apsp_core::weighted_apsp::{weighted_apsp, WeightedApspConfig};
use congest_apsp::graph::{rng, NodeId, WeightedGraph};
use congest_apsp::serve::DistanceOracle;
use std::time::Instant;

const REPS: usize = 3;
const REQUESTS: usize = 500_000;
const CACHE: usize = 4096;
const HOT: usize = 16;
const BATCH: usize = 16;
const K: usize = 8;

enum Req {
    Point(NodeId, NodeId),
    /// The `BATCH` pairs in [`Requests::batch`].
    Batch,
    Knn(NodeId),
}

/// The run's request stream (SplitMix64 from the seed), generated as it is
/// served: a materialized request table would stream through the caches the
/// oracle works in. The program receives only the generated requests.
struct Requests {
    state: u64,
    n: usize,
    hot: [NodeId; HOT],
    batch: [(NodeId, NodeId); BATCH],
}

impl Requests {
    fn new(n: usize, seed: u64) -> Self {
        let zero = NodeId::new(0);
        let mut r = Self {
            state: rng::derive(seed, 0x5e77_0001),
            n,
            hot: [zero; HOT],
            batch: [(zero, zero); BATCH],
        };
        for i in 0..HOT {
            r.hot[i] = r.node();
        }
        r
    }

    fn below(&mut self, n: usize) -> usize {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    fn node(&mut self) -> NodeId {
        NodeId::new(self.below(self.n))
    }

    fn next(&mut self) -> Req {
        match self.below(100) {
            0..=69 => Req::Point(self.node(), self.node()),
            70..=89 => Req::Point(self.hot[self.below(HOT)], self.hot[self.below(HOT)]),
            90..=98 => {
                for i in 0..BATCH {
                    self.batch[i] = (self.node(), self.node());
                }
                Req::Batch
            }
            _ => Req::Knn(self.node()),
        }
    }
}

/// Serves the stream over Theorem 1.1's result on `wg` (computed with
/// `apsp_seed`) and records the `serve.*` metrics. `want[s][t]` is the
/// all-pairs Dijkstra distance from `s` to `t`.
pub fn layers(
    ctx: &Ctx,
    run: &mut Run,
    wg: &WeightedGraph,
    want: &[Vec<Option<u64>>],
    apsp_seed: u64,
) {
    let tr = &ctx.tracer;
    let cfg = WeightedApspConfig {
        seed: apsp_seed,
        ..Default::default()
    };
    let apsp = match weighted_apsp(wg, &cfg) {
        Ok(a) => a,
        Err(e) => return run.check("core.weighted_apsp", Err(e.to_string())),
    };
    let n = wg.n();

    // Every point answer as a compact u32 table (`u32::MAX` marks an
    // unreachable pair), so checking stays in cache beside the oracle's own
    // data, and every node's k nearest.
    let table: Option<Vec<u32>> = (want.iter().flatten())
        .map(|d| match *d {
            None => Some(u32::MAX),
            Some(d) => u32::try_from(d).ok().filter(|&d| d < u32::MAX),
        })
        .collect();
    let Some(table) = table else {
        return run.check(
            "graph.reference",
            Err("a distance does not fit in u32".into()),
        );
    };
    let knn_want: Vec<Vec<(NodeId, Distance)>> = (0..n)
        .map(|s| {
            let mut row: Vec<(u64, usize)> = (0..n)
                .filter(|&t| t != s)
                .filter_map(|t| want[s][t].map(|d| (d, t)))
                .collect();
            row.sort_unstable();
            row.into_iter()
                .take(K)
                .map(|(d, t)| (NodeId::new(t), Distance::Exact(d)))
                .collect()
        })
        .collect();
    let expect = |s: NodeId, t: NodeId| match table[s.index() * n + t.index()] {
        u32::MAX => Distance::Unknown,
        d => Distance::Exact(u64::from(d)),
    };

    let (mut build_s, mut point_ns, mut batch_us, mut knn_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut hit_rate, mut evictions) = (0.0, 0);
    for rep in 0..REPS {
        // Each request's window holds only the oracle call; its check and
        // recording run between windows.
        let mut class: [stats::Histogram; 3] = Default::default();
        let mut bad = 0u64;
        // A cold oracle per repetition, so every repetition does the same work.
        let (mut oracle, s) = tr.time("serve.oracle_build", || {
            DistanceOracle::builder(&apsp).cache_capacity(CACHE).build()
        });
        build_s.push(s);
        tr.time("serve.stream", || {
            let mut requests = Requests::new(n, ctx.seed);
            for _ in 0..REQUESTS {
                let q = requests.next();
                let t0 = Instant::now();
                let (c, ok, t1) = match q {
                    Req::Point(s, t) => {
                        let a = oracle.lookup(s, t);
                        let t1 = Instant::now();
                        (0, a == expect(s, t), t1)
                    }
                    Req::Batch => {
                        let batch = &requests.batch;
                        let a = oracle.lookup_batch(batch);
                        let t1 = Instant::now();
                        let ok = a.len() == BATCH
                            && batch.iter().zip(&a).all(|(&(s, t), &d)| d == expect(s, t));
                        (1, ok, t1)
                    }
                    Req::Knn(s) => {
                        let a = oracle.k_nearest(s, K);
                        let t1 = Instant::now();
                        (2, a == knn_want[s.index()], t1)
                    }
                };
                class[c].record((t1 - t0).as_nanos() as u64);
                bad += u64::from(!ok);
            }
        });
        run.served(REQUESTS as u64, bad, "served answers differ from Dijkstra");
        if rep == 0 {
            (hit_rate, evictions) = (oracle.metrics().hit_rate(), oracle.metrics().evictions);
        }
        point_ns.push(class[0].percentile(50.0) as f64);
        batch_us.push(class[1].percentile(50.0) as f64 / 1e3);
        knn_us.push(class[2].percentile(50.0) as f64 / 1e3);
    }
    run.layer("serve.oracle_build_s", stats::median(&build_s));
    run.layer("serve.point_ns", stats::median(&point_ns));
    run.layer("serve.batch_us", stats::median(&batch_us));
    run.layer("serve.knn_us", stats::median(&knn_us));
    run.layer("serve.hit_rate", hit_rate);
    run.layer("serve.evictions", evictions as f64);
}
