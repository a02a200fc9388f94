//! `paper-apsp`: the paper's two theorems end to end. Theorem 1.1's simulated
//! weighted APSP and its direct BCONGEST baseline on `gnp_connected(256, 0.5)`
//! with weights 1..=8, then Theorem 1.2's trade-off at ε ∈ {0, ½, 1} on
//! `gnp_connected(384, 0.03)`. Every call is compared with the sequential
//! all-pairs reference.
//!
//! A run draws [`INSTANCES`] input pairs from its seed and solves one per
//! repetition, cyclically. The simulations' costs depend on the random
//! clustering an instance gets (Theorem 1.1's messages vary 2.5× between
//! seeds), so totals are taken over all of them.
//!
//! The traced run also times the routes' public sub-calls standalone on the
//! first instance, and serves its Theorem 1.1 result through the `serve`
//! layer ([`crate::serve_layer`]).

use crate::{repeat, stats, trace_coverage, Ctx, Run};
use congest_apsp::algos::apsp_weighted::WeightedApsp;
use congest_apsp::algos::leader::setup_network;
use congest_apsp::apsp_core::bfs_trees::{all_bfs_batched, all_bfs_star};
use congest_apsp::apsp_core::landmarks::{landmark_distances, sampling_probability};
use congest_apsp::apsp_core::tradeoff::tradeoff_apsp;
use congest_apsp::apsp_core::weighted_apsp::{
    weighted_apsp, weighted_apsp_direct, WeightedApspConfig,
};
use congest_apsp::decomp::ldc::build_ldc;
use congest_apsp::decomp::pruning::prune;
use congest_apsp::decomp::{Ensemble, Hierarchy};
use congest_apsp::engine::{run_bcongest, EngineError, Metrics, RunOptions};
use congest_apsp::graph::{generators, reference, rng, Graph, WeightedGraph};
use std::time::Instant;

/// Input pairs per run; each is solved at least once.
const INSTANCES: u32 = 4;

/// The trade-off points, with the names their metrics carry.
const EPSILONS: [(f64, &str); 3] = [
    (0.0, "core.tradeoff_eps0"),
    (0.5, "core.tradeoff_eps05"),
    (1.0, "core.tradeoff_eps1"),
];

/// The weighted Theorem 1.1 input.
fn weighted_input(seed: u64) -> WeightedGraph {
    let g = generators::gnp_connected(256, 0.5, rng::derive(seed, 0x0a95_0001));
    WeightedGraph::random_weights(&g, 1..=8, rng::derive(seed, 0x0a95_0002))
}

struct Instance {
    seed: u64,
    wg: WeightedGraph,
    g: Graph,
}

fn instances(seed: u64) -> Vec<Instance> {
    (0..INSTANCES)
        .map(|i| {
            let seed = rng::derive(seed, 0x0a95_1000 + u64::from(i));
            Instance {
                seed,
                wg: weighted_input(seed),
                g: generators::gnp_connected(384, 0.03, rng::derive(seed, 0x0a95_0003)),
            }
        })
        .collect()
}

/// The all-pairs references of each instance: weighted, then hop distances.
fn references(inst: &[Instance]) -> Vec<(Vec<Vec<Option<u64>>>, Vec<Vec<Option<u32>>>)> {
    inst.iter()
        .map(|i| {
            (
                reference::all_pairs_dijkstra(&i.wg),
                reference::all_pairs_bfs(&i.g),
            )
        })
        .collect()
}

/// `got[v][s]` against the reference `want[s][v]`.
pub fn compare<T: PartialEq + Copy + std::fmt::Debug>(
    got: &[Vec<Option<T>>],
    want: &[Vec<Option<T>>],
) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} rows, expected {}", got.len(), want.len()));
    }
    for (v, row) in got.iter().enumerate() {
        for (s, &d) in row.iter().enumerate() {
            if d != want[s][v] {
                return Err(format!("dist({s},{v}) = {d:?}, expected {:?}", want[s][v]));
            }
        }
    }
    Ok(())
}

/// One call's distance matrix and cost, or the error it returned.
type CallResult<T> = Result<(Vec<Vec<Option<T>>>, Metrics), EngineError>;

/// One solve call's timings over the run and its first metrics per instance.
struct Call {
    name: &'static str,
    secs: Vec<f64>,
    metrics: Vec<Option<Metrics>>,
}

pub fn run(ctx: &Ctx) -> Run {
    let (seed, tr) = (ctx.seed, &ctx.tracer);
    let mut run = Run::default();

    // One untimed build first, so the timed ones start warm.
    drop(instances(seed));
    let (inst, gen_s) = tr.time("graph.generate", || instances(seed));
    let mut gen_s = vec![gen_s];
    let (refs, ref_s) = tr.time("graph.reference", || references(&inst));
    let mut ref_s = vec![ref_s];

    let names = ["core.weighted_apsp", "core.weighted_apsp_direct"]
        .into_iter()
        .chain(EPSILONS.iter().map(|e| e.1));
    let mut calls: Vec<Call> = names
        .map(|name| Call {
            name,
            secs: Vec::new(),
            metrics: vec![None; INSTANCES as usize],
        })
        .collect();
    let reps = repeat(ctx, INSTANCES, |rep| {
        let k = (rep % INSTANCES) as usize;
        let Instance { seed, wg, g } = &inst[k];
        let cfg = WeightedApspConfig {
            seed: *seed,
            ..Default::default()
        };
        // Results are stored inside each call's span, so the spans cover
        // everything between the phase's clock reads but the tracer itself.
        let mut weighted: Vec<CallResult<u64>> = Vec::with_capacity(2);
        let mut hops: Vec<CallResult<u32>> = Vec::with_capacity(EPSILONS.len());
        let mut secs = [0.0; 2 + EPSILONS.len()];
        let phase = Instant::now();
        ((), secs[0]) = tr.time("core.weighted_apsp", || {
            weighted.push(weighted_apsp(wg, &cfg).map(|r| (r.distances, r.metrics)))
        });
        ((), secs[1]) = tr.time("core.weighted_apsp_direct", || {
            weighted.push(weighted_apsp_direct(wg, *seed).map(|r| (r.distances, r.metrics)))
        });
        for (i, &(eps, name)) in EPSILONS.iter().enumerate() {
            ((), secs[2 + i]) = tr.time(name, || {
                hops.push(tradeoff_apsp(g, eps, *seed).map(|r| (r.dist, r.metrics)))
            });
        }
        let wall = phase.elapsed().as_secs_f64();
        run.solve(k, wall);

        let (want_w, want_b) = &refs[k];
        let (mut messages, mut rounds) = (0, 0);
        let ((), check_s) = tr.time("verify.compare", || {
            let checked = (weighted.iter())
                .map(|r| r.as_ref().map(|(d, m)| (compare(d, want_w), m)))
                .chain((hops.iter()).map(|r| r.as_ref().map(|(d, m)| (compare(d, want_b), m))))
                .zip(secs);
            for (call, (result, s)) in calls.iter_mut().zip(checked) {
                call.secs.push(s);
                match result {
                    Ok((check, m)) => {
                        run.check(call.name, check);
                        messages += m.messages;
                        rounds += m.rounds;
                        call.metrics[k].get_or_insert_with(|| m.clone());
                    }
                    Err(e) => run.check(call.name, Err(e.to_string())),
                }
            }
        });
        run.verify_rep_s.push(check_s);
        run.totals(k, messages, rounds);

        // The set-up and the reference again, outside the solve window, so
        // their means span the run as `solve_s` does.
        gen_s.push(tr.time("setup.generate", || instances(ctx.seed)).1);
        ref_s.push(tr.time("verify.reference", || references(&inst)).1);
    });
    run.setup_s = stats::mean(&gen_s);
    run.verify_once_s = stats::mean(&ref_s);

    if tr.on() {
        trace_coverage(ctx, &mut run, reps);
        run.layer("graph.generate_s", run.setup_s);
        run.layer("graph.reference_s", run.verify_once_s);
        // Counts are means over the instances, so the ε curve and the
        // Theorem 1.1 ratio are not one random clustering's.
        let mean = |call: &Call, f: fn(&Metrics) -> f64| {
            let v: Vec<f64> = call.metrics.iter().flatten().map(f).collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        let mut all: Vec<&Metrics> = Vec::new();
        for call in &calls {
            let (s, m, r) = split_name(call.name);
            run.layer(s, stats::median(&call.secs));
            run.layer(m, mean(call, |m| m.messages as f64));
            run.layer(r, mean(call, |m| m.rounds as f64));
            all.extend(call.metrics.iter().flatten());
        }
        let n = inst[0].wg.n() as f64;
        let sim = mean(&calls[0], |m| m.messages as f64);
        run.layer(
            "core.weighted_apsp.msgs_per_n2log2n",
            sim / (n * n * n.log2()),
        );
        let sum = |f: fn(&Metrics) -> u64| all.iter().map(|m| f(m) as f64).sum::<f64>();
        run.layer("engine.rounds", sum(|m| m.rounds));
        run.layer("engine.payload_bytes", sum(|m| m.payload_bytes));
        run.layer("engine.dropped_messages", sum(|m| m.dropped_messages));
        run.layer(
            "engine.max_congestion",
            all.iter().map(|m| m.max_congestion()).max().unwrap_or(0) as f64,
        );
        layers(ctx, &mut run, &inst[0]);
        let Instance { seed, wg, .. } = &inst[0];
        crate::serve_layer::layers(ctx, &mut run, wg, &refs[0].0, *seed);
    }
    run
}

/// `core.x` → the `core.x_s`, `core.x.messages` and `core.x.rounds` names.
fn split_name(name: &str) -> (&'static str, &'static str, &'static str) {
    let find = |want: String| {
        crate::PER_LAYER
            .iter()
            .find(|&&(n, _)| n == want)
            .map(|&(n, _)| n)
            .unwrap_or_else(|| panic!("per-layer metric {want} is not declared"))
    };
    (
        find(format!("{name}_s")),
        find(format!("{name}.messages")),
        find(format!("{name}.rounds")),
    )
}

/// Times the public sub-calls of each route standalone, on the first
/// instance's inputs and seed (traced run only).
fn layers(ctx: &Ctx, run: &mut Run, inst: &Instance) {
    let tr = &ctx.tracer;
    let Instance { seed, wg, g } = inst;
    let seed = *seed;

    // The direct baseline is one `run_bcongest` call of the Theorem 1.1 payload.
    let algo = WeightedApsp::new(wg.max_weight());
    let opts = RunOptions {
        seed,
        ..Default::default()
    };
    let (direct, s) = tr.time("engine.run_bcongest", || {
        run_bcongest(&algo, wg.graph(), Some(wg.weights()), &opts)
    });
    run.layer("engine.run_bcongest_s", s);
    match direct {
        Ok(d) => run.layer("engine.msgs_per_s", d.metrics.messages as f64 / s),
        Err(e) => run.check("engine.run_bcongest", Err(e.to_string())),
    }

    // Preprocessing of the Theorem 2.1 simulation (the 256-node weighted run
    // and the ε = 0 route on the 384-node graph).
    let (mut setup_s, mut ldc_s) = (0.0, 0.0);
    for graph in [wg.graph(), g] {
        let (r, s) = tr.time("algos.setup_network", || {
            setup_network(graph, seed).map(drop)
        });
        run.check("algos.setup_network", r.map_err(|e| e.to_string()));
        setup_s += s;
        let (r, s) = tr.time("decomp.build_ldc", || build_ldc(graph, seed).map(drop));
        run.check("decomp.build_ldc", r.map_err(|e| e.to_string()));
        ldc_s += s;
    }
    run.layer("algos.setup_network_s", setup_s);
    run.layer("decomp.build_ldc_s", ldc_s);

    // The hierarchies of the ε = ½ (ensemble) and ε = 1 (one pruned) routes.
    let n = g.n();
    let batches = Ensemble::paper_zeta(n, 0.5).max(1);
    let (_, s_ens) = tr.time("decomp.ensemble", || Ensemble::build(g, 0.5, batches, seed));
    let (_, s_h) = tr.time("decomp.hierarchy", || {
        prune(g, &Hierarchy::build(g, 1.0, seed))
    });
    run.layer("decomp.hierarchy_s", s_ens + s_h);

    // The ε = ½ route's two halves and the ε = 1 route, parameterized as
    // `tradeoff_apsp` does.
    let depth = (2.0 * (n as f64).sqrt()).ceil().min(n as f64) as u32;
    type Sub<'a> = Box<dyn Fn() -> Result<Metrics, EngineError> + 'a>;
    let subs: [(&'static str, Sub); 3] = [
        (
            "core.all_bfs_batched",
            Box::new(|| all_bfs_batched(g, 0.5, depth, seed).map(|r| r.metrics)),
        ),
        (
            "core.landmark_distances",
            Box::new(|| {
                landmark_distances(g, sampling_probability(n, depth), seed).map(|r| r.metrics)
            }),
        ),
        (
            "core.all_bfs_star",
            Box::new(|| all_bfs_star(g, 1.0, seed).map(|r| r.metrics)),
        ),
    ];
    for (name, sub) in subs {
        let (r, s) = tr.time(name, sub);
        match r {
            Ok(m) => {
                let (sn, mn, rn) = split_name(name);
                run.layer(sn, s);
                run.layer(mn, m.messages as f64);
                run.layer(rn, m.rounds as f64);
            }
            Err(e) => run.check(name, Err(e.to_string())),
        }
    }
}
