//! # congest-bench
//!
//! The experiment suite reproducing every quantitative claim of the paper:
//! [`experiments`] holds one function per claim, labelled with its claim ID,
//! [`table`] the rendering/fitting helpers. The `experiments` binary prints the
//! tables to stdout (docs/BENCHMARKING.md, "The experiments binary"); the
//! criterion benches reuse the same functions at fixed sizes. [`engine_bench`]
//! is the engine-scaling smoke behind `BENCH_engine.json` (sequential vs parallel round execution), shared
//! by the binary's `--bench-engine` mode and the `engine` criterion bench.
//! [`mst_bench`] is the "Beyond APSP" counterpart behind `BENCH_mst.json`
//! (oracle-checked, budget-enforced MST + trade-off sweep), shared by `--bench-mst`
//! and the `mst` criterion bench. [`shard_bench`] is the delivery-backend
//! matrix behind `BENCH_shard.json` (sequential vs chunked vs sharded, exact
//! counts asserted equal), behind `--bench-shard`. [`suite_bench`] is the
//! registry bench behind `BENCH_suite.json`: every `congest_workloads` entry
//! × every backend, behind `--bench-suite`. [`scale_bench`] is the
//! message-plane scale bench behind `BENCH_scale.json`: BFS/gossip/MST at
//! 10⁵–10⁶ nodes, boxed vs flat plane, behind `--bench-scale` — workload
//! setup itself lives in `congest-workloads`, so these modules only own
//! sweeps and report schemas. [`serve_bench`] is the serving suite behind
//! `BENCH_serve.json`: a `congest_serve::DistanceOracle` under the
//! deterministic closed-loop rps-ramp load generator (every answer
//! differential-checked), behind `--bench-serve`. [`fault_bench`] is the fault
//! & scenario suite behind `BENCH_faults.json`: every `faulty-*`/`skewed-*`
//! registry scenario under the backend sweep plus the record/replay cost of
//! the trace layer, behind `--bench-faults`. [`auto_bench`] is the backend
//! auto-selection bench behind `BENCH_auto.json`: `DeliveryBackend::Auto` vs
//! every manual backend on the full registry plus the scale workloads, with
//! the per-round decision log asserted byte-identical across repeats and
//! thread counts, behind `--bench-auto`.

pub mod auto_bench;
pub mod engine_bench;
pub mod experiments;
pub mod fault_bench;
pub mod mst_bench;
pub mod scale_bench;
pub mod serve_bench;
pub mod shard_bench;
pub mod suite_bench;
pub mod table;
