//! Experiment harness: prints every experiment table to stdout, and hosts the
//! engine-scaling smoke behind `BENCH_engine.json`.
//!
//! Usage:
//!
//! ```console
//! cargo run --release -p congest-bench --bin experiments [--quick] [--threads N]
//! cargo run --release -p congest-bench --bin experiments -- --bench-engine \
//!     [--quick] [--out BENCH_engine.json]
//! cargo run --release -p congest-bench --bin experiments -- --bench-mst \
//!     [--quick] [--out BENCH_mst.json]
//! cargo run --release -p congest-bench --bin experiments -- --bench-shard \
//!     [--quick] [--out BENCH_shard.json]
//! cargo run --release -p congest-bench --bin experiments -- --bench-suite \
//!     [--quick] [--out BENCH_suite.json]
//! cargo run --release -p congest-bench --bin experiments -- --bench-scale \
//!     [--quick] [--out BENCH_scale.json]
//! cargo run --release -p congest-bench --bin experiments -- --bench-serve \
//!     [--quick] [--out BENCH_serve.json]
//! cargo run --release -p congest-bench --bin experiments -- --bench-faults \
//!     [--quick] [--out BENCH_faults.json]
//! cargo run --release -p congest-bench --bin experiments -- --bench-auto \
//!     [--quick] [--out BENCH_auto.json]
//! ```
//!
//! `--threads N` sets the process-wide executor default (0 = hardware threads):
//! every run constructed with `..Default::default()` inherits it. Tables are
//! identical at every thread count — the engine's parallel executor is
//! deterministic — so the flag only changes wall-clock.
//!
//! `--bench-engine` skips the tables and instead times the round executor at
//! 1/2/4/8 threads (see `congest_bench::engine_bench`), writing the JSON
//! trajectory file (default `BENCH_engine.json`) consumed by the perf-smoke CI
//! job. `--bench-mst` does the same for the MST workload family (see
//! `congest_bench::mst_bench`): oracle-checked GHS runs under a hard `Õ(m)`
//! message budget plus the k-sweep of the trade-off, written to `BENCH_mst.json`.
//! `--bench-shard` sweeps the delivery backends (sequential vs chunked vs
//! 2/4/8-shard; see `congest_bench::shard_bench`) over APSP and MST workloads,
//! asserting exact count equality, written to `BENCH_shard.json`.
//! `--bench-suite` runs the **entire workload registry**
//! (`congest_workloads::registry`) under every backend of the wall-clock sweep
//! (see `congest_bench::suite_bench`), asserting byte-identical outcomes, and
//! writes the per-workload × per-backend trajectory to `BENCH_suite.json`.
//! `--bench-scale` sweeps the message planes (boxed vs flat, sequential and
//! parallel backends; see `congest_bench::scale_bench`) over BFS/gossip/MST on
//! sparse graphs at 10⁵–10⁶ nodes, asserting byte-identical outcomes, written
//! to `BENCH_scale.json`. `--bench-serve` drives a `congest_serve`
//! DistanceOracle with the deterministic closed-loop rps-ramp load generator
//! (uniform/hot-key/k-NN/batch scenario mixes, cold vs warmed cache; see
//! `congest_bench::serve_bench`), differential-checking every served answer,
//! written to `BENCH_serve.json`. `--bench-faults` runs the fault & scenario
//! suite (every `faulty-*`/`skewed-*`/spanner registry entry; see
//! `congest_bench::fault_bench`) under the backend sweep, records and replays
//! a trace per scenario, and writes `BENCH_faults.json`. `--bench-auto` pits
//! the cost-model `Auto` backend against every manual backend on the full
//! registry plus the 10⁵–10⁶-node scale workloads (see
//! `congest_bench::auto_bench`), asserting the per-round decision log is
//! byte-identical across repeats and thread counts, written to
//! `BENCH_auto.json`.

use congest_bench::auto_bench::{run_auto_bench, AutoBenchConfig};
use congest_bench::engine_bench::{run_engine_bench, EngineBenchConfig};
use congest_bench::experiments as ex;
use congest_bench::fault_bench::{run_fault_bench, FaultBenchConfig};
use congest_bench::mst_bench::{run_mst_bench, MstBenchConfig};
use congest_bench::scale_bench::{run_scale_bench, ScaleBenchConfig};
use congest_bench::serve_bench::{run_serve_bench, ServeBenchConfig};
use congest_bench::shard_bench::{run_shard_bench, ShardBenchConfig};
use congest_bench::suite_bench::{run_suite_bench, SuiteBenchConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seed = 20250608;

    if let Some(n) = flag_value(&args, "--threads") {
        let n: usize = n.parse().expect("--threads takes an integer");
        congest_engine::exec::set_default_threads(n);
        eprintln!("executor default: {n} thread(s) (0 = hardware)");
    }

    if args.iter().any(|a| a == "--bench-engine") {
        let out = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_engine.json".into());
        let cfg = if quick {
            EngineBenchConfig::quick(seed)
        } else {
            EngineBenchConfig::full(seed)
        };
        let report = run_engine_bench(&cfg);
        for w in &report.workloads {
            println!(
                "{}: n = {}, m = {}, best speedup {:.2}x over {} samples",
                w.name,
                w.n,
                w.m,
                w.best_speedup(),
                w.samples.len()
            );
            for s in &w.samples {
                println!(
                    "  threads {:>2}: {:>9.3} ms | rounds {} | messages {}",
                    s.threads, s.wall_ms, s.rounds, s.messages
                );
            }
        }
        std::fs::write(&out, report.to_json()).expect("write bench json");
        println!("wrote {out}");
        return;
    }

    if args.iter().any(|a| a == "--bench-shard") {
        let out = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_shard.json".into());
        let cfg = if quick {
            ShardBenchConfig::quick(seed)
        } else {
            ShardBenchConfig::full(seed)
        };
        let report = run_shard_bench(&cfg);
        for w in &report.workloads {
            println!(
                "{}: n = {}, m = {}, messages {}, best sharded speedup {:.2}x",
                w.name,
                w.n,
                w.m,
                w.messages,
                w.best_sharded_speedup()
            );
            for s in &w.samples {
                println!(
                    "  {:>10}/{:<2} (threads {}): {:>9.3} ms",
                    s.backend, s.shards, s.threads, s.wall_ms
                );
            }
        }
        std::fs::write(&out, report.to_json()).expect("write bench json");
        println!("wrote {out}");
        return;
    }

    if args.iter().any(|a| a == "--bench-scale") {
        let out = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_scale.json".into());
        let cfg = if quick {
            ScaleBenchConfig::quick(seed)
        } else {
            ScaleBenchConfig::full(seed)
        };
        let report = run_scale_bench(&cfg);
        for w in &report.workloads {
            println!(
                "{}: n = {}, m = {}, messages {}, payload {} B, flat speedup {:.2}x",
                w.name,
                w.n,
                w.m,
                w.messages,
                w.payload_bytes,
                w.flat_speedup()
            );
            for s in &w.samples {
                println!("  {:<18} {:>10.3} ms", s.config, s.wall_ms);
            }
        }
        println!("all outcomes identical across planes and backends");
        std::fs::write(&out, report.to_json()).expect("write bench json");
        println!("wrote {out}");
        return;
    }

    if args.iter().any(|a| a == "--bench-serve") {
        let out = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_serve.json".into());
        let cfg = if quick {
            ServeBenchConfig::quick(seed)
        } else {
            ServeBenchConfig::full(seed)
        };
        let report = run_serve_bench(&cfg);
        println!(
            "serve-oracle: n = {}, m = {}, cache {} | source build: {} messages, {} rounds",
            report.n, report.m, report.cache_capacity, report.build_messages, report.build_rounds
        );
        for sc in &report.scenarios {
            println!(
                "{} ({}):",
                sc.scenario,
                if sc.warmed { "warm" } else { "cold" }
            );
            for st in &sc.steps {
                println!(
                    "  target {:>6} rps -> achieved {:>9.1} rps | p50 {:>7.2} us | p95 {:>7.2} us | p99 {:>7.2} us | hit rate {:>5.3} | {} answers checked",
                    st.target_rps, st.achieved_rps, st.p50_us, st.p95_us, st.p99_us, st.hit_rate(), st.checked
                );
            }
        }
        println!("every served answer matched the sequential reference");
        std::fs::write(&out, report.to_json()).expect("write bench json");
        println!("wrote {out}");
        return;
    }

    if args.iter().any(|a| a == "--bench-suite") {
        let out = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_suite.json".into());
        let cfg = if quick {
            SuiteBenchConfig::quick()
        } else {
            SuiteBenchConfig::full()
        };
        let report = run_suite_bench(&cfg);
        for w in &report.workloads {
            let base = w.samples.first().map_or(0.0, |s| s.wall_ms);
            println!(
                "{:<32} n = {:>4}, m = {:>5} | messages {:>8} | rounds {:>6}",
                w.name, w.n, w.m, w.messages, w.rounds
            );
            for s in &w.samples {
                println!(
                    "  {:<12} {:>9.3} ms ({:>5.2}x)",
                    s.backend,
                    s.wall_ms,
                    base / s.wall_ms.max(1e-9)
                );
            }
        }
        println!(
            "{} workloads, all outcomes identical across backends",
            report.workloads.len()
        );
        std::fs::write(&out, report.to_json()).expect("write bench json");
        println!("wrote {out}");
        return;
    }

    if args.iter().any(|a| a == "--bench-faults") {
        let out = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_faults.json".into());
        let cfg = if quick {
            FaultBenchConfig::quick()
        } else {
            FaultBenchConfig::full()
        };
        let report = run_fault_bench(&cfg);
        for sc in &report.scenarios {
            println!(
                "{:<32} n = {:>4}, m = {:>5} | messages {:>8} | rounds {:>5} | dropped {:>6}",
                sc.scenario, sc.n, sc.m, sc.messages, sc.rounds, sc.dropped_messages
            );
            for s in &sc.samples {
                println!("  {:<12} {:>9.3} ms", s.backend, s.wall_ms);
            }
            println!(
                "  trace: {} rounds, {} bytes | record {:.3} ms | replay {:.3} ms",
                sc.trace_rounds, sc.trace_bytes, sc.record_ms, sc.replay_ms
            );
        }
        println!(
            "{} scenarios, all backends conformant, every trace replayed byte-identically",
            report.scenarios.len()
        );
        std::fs::write(&out, report.to_json()).expect("write bench json");
        println!("wrote {out}");
        return;
    }

    if args.iter().any(|a| a == "--bench-auto") {
        let out = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_auto.json".into());
        let cfg = if quick {
            AutoBenchConfig::quick(seed)
        } else {
            AutoBenchConfig::full(seed)
        };
        let report = run_auto_bench(&cfg);
        for w in &report.workloads {
            println!(
                "{:<32} n = {:>7}, m = {:>8} | auto {:>9.3} ms vs best manual {:>9.3} ms ({}) | {:.2}x | {}",
                w.name,
                w.n,
                w.m,
                w.auto_wall_ms,
                w.best_manual_wall_ms,
                w.best_manual,
                w.auto_vs_best,
                if w.within_noise { "within noise" } else { "SLOWER" }
            );
            println!(
                "  decisions: {} rounds (sequential {}, chunked {}, sharded {}), log deterministic across repeats and threads",
                w.decision_rounds,
                w.decisions.sequential,
                w.decisions.chunked,
                w.decisions.sharded
            );
        }
        println!(
            "{} workloads | auto never slower within noise: {}",
            report.workloads.len(),
            report.auto_never_slower_within_noise()
        );
        std::fs::write(&out, report.to_json()).expect("write bench json");
        println!("wrote {out}");
        return;
    }

    if args.iter().any(|a| a == "--bench-mst") {
        let out = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_mst.json".into());
        let cfg = if quick {
            MstBenchConfig::quick(seed)
        } else {
            MstBenchConfig::full(seed)
        };
        let report = run_mst_bench(&cfg);
        for sz in &report.sizes {
            println!(
                "mst n = {:>3}, m = {:>5}: {:>8} messages (budget {:>8}), {:>5} rounds, {} phases, {:.3} ms",
                sz.n, sz.m, sz.messages, sz.budget, sz.rounds, sz.phases, sz.wall_ms
            );
            for t in &sz.tradeoff {
                println!(
                    "  k {:>3} [{:<18}]: rounds {:>6} | messages {:>8}",
                    t.k, t.route, t.rounds, t.messages
                );
            }
        }
        std::fs::write(&out, report.to_json()).expect("write bench json");
        println!("wrote {out}");
        return;
    }

    println!("# Experiment tables — Message Optimality and Message-Time Trade-offs for APSP");
    println!();
    println!(
        "mode: {} | seed: {seed} | all APSP/matching rows verified against sequential oracles",
        if quick { "quick" } else { "full" }
    );
    println!();
    assert!(ex::equality_smoke(seed), "simulated != direct — abort");

    #[allow(clippy::type_complexity)]
    let (t11_ns, t12_n, sweep_ns, t21_n, l24_n, l37_trials, t14_n, c28, c29_n, l38_n): (
        Vec<usize>,
        usize,
        Vec<usize>,
        usize,
        usize,
        usize,
        usize,
        Vec<usize>,
        usize,
        usize,
    ) = if quick {
        (
            vec![16, 24, 32],
            24,
            vec![16, 24, 32],
            24,
            48,
            10,
            40,
            vec![6, 10],
            20,
            32,
        )
    } else {
        (
            vec![32, 48, 64, 96, 128],
            48,
            vec![32, 48, 64, 96, 128, 160],
            40,
            96,
            40,
            80,
            vec![8, 12, 16, 24],
            28,
            64,
        )
    };

    print!("{}", ex::e_t1_1(&t11_ns, seed).render());
    print!(
        "{}",
        ex::e_t1_2(t12_n, &[0.0, 0.25, 0.5, 0.75, 1.0], seed).render()
    );
    print!("{}", ex::e_t1_2_scaling(&sweep_ns, 1.0, seed).render());
    print!("{}", ex::e_t2_1(t21_n, seed).render());
    print!("{}", ex::e_l2_4(l24_n, seed).render());
    print!("{}", ex::e_t3_3(48, &[0.25, 0.34, 0.5], seed).render());
    print!("{}", ex::e_l3_7(48, l37_trials, seed).render());
    print!("{}", ex::e_l3_8(l38_n, seed).render());
    print!("{}", ex::e_t1_4(t14_n, &[8, 16, 32], seed).render());
    print!("{}", ex::e_c2_8(&c28, seed).render());
    print!("{}", ex::e_c2_9(c29_n, seed).render());
    print!(
        "{}",
        ex::e_ext_weighted_tradeoff(if quick { 16 } else { 24 }, seed).render()
    );
    print!(
        "{}",
        ex::e_abl_delays(if quick { 32 } else { 64 }, seed).render()
    );
    print!(
        "{}",
        ex::e_abl_strict_budget(if quick { 24 } else { 40 }, seed).render()
    );

    println!("done.");
}

/// The value following `flag` in `args`, if present.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}
