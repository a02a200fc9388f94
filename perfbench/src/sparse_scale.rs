//! `sparse-scale`: registry entries at scale through `Workload::build` →
//! `run_built` → check. BFS and one-shot gossip on a 10⁶-node
//! `sparse_connected` graph, GHS MST on a 10⁵-node one, and `GossipOnce`
//! through `run_congest` on the 10⁶-node graph under 1% edge churn with
//! `Restart`.
//!
//! Each `RunOutcome` must be byte-equal to the outcome of a sequential run
//! whose result `Workload::oracle()` validated; the churn gossip must match
//! the healed-topology oracle and account for every message: delivered +
//! dropped = 2m per fault round, of which exactly the churned edges' 2k are
//! dropped.

use crate::{repeat, stats, trace_coverage, Ctx, Run};
use congest_apsp::algos::bfs::Bfs;
use congest_apsp::algos::gossip::{expected_gossip, expected_gossip_masked, GossipOnce};
use congest_apsp::algos::mst::{distributed_mst, message_bound, MstConfig};
use congest_apsp::engine::{
    run_bcongest, run_congest, ExecutorConfig, FaultPlan, FaultResponse, RunOptions,
};
use congest_apsp::graph::{reference, rng, NodeId};
use congest_apsp::workloads::{make, BuiltInput, RunOutcome, Workload};
use std::time::Instant;

const BIG_N: usize = 1_000_000;
const MST_N: usize = 100_000;

struct Inputs {
    /// The one input of the BFS and gossip entries (same generator and seed).
    big: BuiltInput,
    mst: BuiltInput,
    churn: FaultPlan,
}

fn build(entries: &[Box<dyn Workload>; 3], seed: u64) -> Inputs {
    let big = entries[0].build();
    let mst = entries[2].build();
    let churn = FaultPlan::edge_churn(
        &big.graph,
        big.graph.m() / 100,
        0,
        2,
        rng::derive(seed, 0xc4a1_0001),
        FaultResponse::Restart,
    );
    Inputs { big, mst, churn }
}

/// The verification before the repetitions: each entry's oracle validates
/// its sequential run, whose outcome every repetition must then reproduce
/// byte for byte; and the churn gossip's healed-topology expectation.
fn references(
    entries: &[Box<dyn Workload>; 3],
    inputs: &Inputs,
    run: &mut Run,
) -> (Vec<Option<RunOutcome>>, Vec<Option<u64>>) {
    let Inputs { big, mst, churn } = inputs;
    let mut refs = Vec::new();
    for (w, input) in entries.iter().zip([big, big, mst]) {
        run.check(&w.name(), w.oracle());
        match w.run_built(input, &ExecutorConfig::sequential()) {
            Ok(o) => refs.push(Some(o)),
            Err(e) => {
                run.check(&w.name(), Err(e.to_string()));
                refs.push(None);
            }
        }
    }
    let g = &big.graph;
    let last = churn.last_fault_round().expect("churn plan has events");
    (refs, expected_gossip_masked(g, &churn.final_mask(g), last))
}

/// `run` byte-equal to the validated reference outcome.
fn same(run: &RunOutcome, reference: &RunOutcome) -> Result<(), String> {
    if run.output != reference.output {
        return Err("output differs from the validated sequential outcome".into());
    }
    if run.metrics != reference.metrics {
        return Err(format!(
            "metrics differ from the validated sequential outcome ({} vs {} messages)",
            run.metrics.messages, reference.metrics.messages
        ));
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> Run {
    let (seed, tr) = (ctx.seed, &ctx.tracer);
    let entry_seed = rng::derive(seed, 0x5ca1_0001);
    let entries = [
        make::bfs_sparse(BIG_N, BIG_N / 2, entry_seed),
        make::gossip_sparse(BIG_N, BIG_N / 2, entry_seed),
        make::mst_sparse(MST_N, MST_N / 2, entry_seed),
    ];
    let mut run = Run::default();

    // Set-up, timed again after each repetition.
    let (inputs, gen_s) = tr.time("graph.generate", || build(&entries, seed));
    let mut gen_s = vec![gen_s];
    // The verification runs again after the repetitions; `verify_s` takes the
    // mean of both.
    let ((refs, healed), once_s) = tr.time("verify.reference", || {
        references(&entries, &inputs, &mut run)
    });
    let mut once_s = vec![once_s];
    let Inputs { big, mst, churn } = &inputs;
    let g = &big.graph;
    let cfg = ExecutorConfig::default();

    // `Restart` re-runs every node at each fault round, so each round of the
    // plan sends one message per edge direction (2m): the first reaches the
    // churned edges while they are down and loses exactly their 2k messages.
    let sent = 2 * g.m() as u64 * churn.fault_rounds().len() as u64;
    let dropped = 2 * (g.m() / 100) as u64;
    let churn_opts = RunOptions {
        seed: entry_seed,
        faults: Some(churn.clone()),
        ..Default::default()
    };
    let names = [
        "workloads.run_built.bfs",
        "workloads.run_built.gossip",
        "workloads.run_built.mst",
    ];
    let mut built_s: [Vec<f64>; 3] = Default::default();
    let mut churn_s = Vec::new();
    let mut output_bytes = 0u64;
    let mut first_metrics = Vec::new();
    let reps = repeat(ctx, 3, |rep| {
        // Results are stored inside each call's span (see `paper_apsp`).
        let mut outcomes = Vec::with_capacity(entries.len());
        let mut churned = None;
        let mut secs = [0.0; 3];
        let phase = Instant::now();
        for (i, (w, input)) in entries.iter().zip([big, big, mst]).enumerate() {
            ((), secs[i]) = tr.time(names[i], || outcomes.push(w.run_built(input, &cfg)));
        }
        let ((), churn_t) = tr.time("engine.run_congest.churn", || {
            churned = Some(run_congest(&GossipOnce, g, None, &churn_opts));
        });
        let wall = phase.elapsed().as_secs_f64();
        let churned = churned.expect("the churn run ran");
        run.solve(0, wall);
        churn_s.push(churn_t);
        for (times, s) in built_s.iter_mut().zip(secs) {
            times.push(s);
        }

        let (mut messages, mut rounds) = (0, 0);
        let ((), check_s) = tr.time("verify.compare", || {
            for ((w, o), r) in entries.iter().zip(&outcomes).zip(&refs) {
                let result = match (o, r) {
                    (Ok(o), Some(r)) => {
                        messages += o.metrics.messages;
                        rounds += o.metrics.rounds;
                        if rep == 0 {
                            output_bytes += o.output.len() as u64;
                            first_metrics.push(o.metrics.clone());
                        }
                        same(o, r)
                    }
                    (Err(e), _) => Err(e.to_string()),
                    (Ok(_), None) => Err("no validated reference outcome".into()),
                };
                run.check(&w.name(), result);
            }
            let result = churned.map_err(|e| e.to_string()).and_then(|c| {
                messages += c.metrics.messages;
                rounds += c.metrics.rounds;
                if rep == 0 {
                    first_metrics.push(c.metrics.clone());
                }
                if (
                    c.metrics.messages + c.metrics.dropped_messages,
                    c.metrics.dropped_messages,
                ) != (sent, dropped)
                {
                    return Err(format!(
                        "delivered {} + dropped {} != {sent} with {dropped} dropped",
                        c.metrics.messages, c.metrics.dropped_messages
                    ));
                }
                let bad = c
                    .outputs
                    .iter()
                    .zip(&healed)
                    .filter(|(got, want)| Some(**got) != **want)
                    .count();
                if bad > 0 {
                    return Err(format!(
                        "{bad} nodes diverge from the healed-topology oracle"
                    ));
                }
                Ok(())
            });
            run.check("gossip/churn", result);
        });
        run.verify_rep_s.push(check_s);
        run.totals(0, messages, rounds);

        // The set-up again, outside the solve window, so its mean spans the
        // run as `solve_s` does (after this repetition's outputs are freed).
        drop(outcomes);
        gen_s.push(tr.time("setup.generate", || build(&entries, seed)).1);
    });
    let (_, again_s) = tr.time("verify.reference", || {
        references(&entries, &inputs, &mut run)
    });
    once_s.push(again_s);
    run.setup_s = stats::mean(&gen_s);
    run.verify_once_s = stats::mean(&once_s);

    if tr.on() {
        trace_coverage(ctx, &mut run, reps);
        run.layer("graph.generate_s", run.setup_s);
        let median = stats::median;
        let built: Vec<f64> = (0..reps as usize)
            .map(|r| built_s.iter().map(|v| v[r]).sum())
            .collect();
        run.layer("workloads.run_built_s", median(&built));
        run.layer("workloads.output_bytes", output_bytes as f64);
        run.layer("engine.rounds", run.total().1 as f64);
        run.layer(
            "engine.payload_bytes",
            first_metrics.iter().map(|m| m.payload_bytes as f64).sum(),
        );
        run.layer(
            "engine.max_congestion",
            first_metrics
                .iter()
                .map(|m| m.max_congestion())
                .max()
                .unwrap_or(0) as f64,
        );
        run.layer(
            "engine.dropped_messages",
            first_metrics
                .iter()
                .map(|m| m.dropped_messages as f64)
                .sum(),
        );

        // The public sub-calls, standalone on the same inputs and seed: the
        // runners the BFS and gossip entries wrap, GHS itself, and the
        // sequential references their oracles use.
        let opts = RunOptions {
            seed: entry_seed,
            ..Default::default()
        };
        let (bfs, bfs_s) = tr.time("engine.run_bcongest", || {
            run_bcongest(&Bfs::new(NodeId::new(0)), g, None, &opts)
        });
        let (gossip, gossip_s) = tr.time("engine.run_congest", || {
            run_congest(&GossipOnce, g, None, &opts)
        });
        let wg = mst.weighted_graph();
        let mst_cfg = MstConfig {
            message_budget: Some(message_bound(wg.n(), wg.m())),
            ..Default::default()
        };
        let (ghs, mst_s) = tr.time("algos.mst", || distributed_mst(&wg, &mst_cfg));
        let ((), ref_s) = tr.time("graph.reference", || {
            std::hint::black_box(reference::bfs_distances(g, NodeId::new(0)));
            std::hint::black_box(expected_gossip(g));
            std::hint::black_box(reference::mst_kruskal(&wg));
        });
        let mut direct_msgs = 0;
        for (name, r) in [
            ("engine.run_bcongest", bfs.map(|r| r.metrics)),
            ("engine.run_congest", gossip.map(|r| r.metrics)),
            ("algos.mst", ghs.map(|r| r.metrics)),
        ] {
            match r {
                Ok(m) if name != "algos.mst" => direct_msgs += m.messages,
                Ok(_) => {}
                Err(e) => run.check(name, Err(e.to_string())),
            }
        }
        run.layer("engine.run_bcongest_s", bfs_s);
        run.layer("engine.run_congest_s", gossip_s);
        run.layer("engine.msgs_per_s", direct_msgs as f64 / (bfs_s + gossip_s));
        run.layer("engine.faults.overhead_s", median(&churn_s) - gossip_s);
        run.layer("algos.mst_s", mst_s);
        run.layer(
            "workloads.overhead_s",
            median(&built_s[0]) - bfs_s + median(&built_s[1]) - gossip_s + median(&built_s[2])
                - mst_s,
        );
        run.layer("graph.reference_s", ref_s);
    }
    run
}
