//! The repository benchmark. One process runs one workload through the
//! library's public API, at the library's default executor configuration,
//! checks every output, and prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-apsp --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` is a separate run
//! that records spans around the benchmark's calls, times the public sub-calls
//! of each route standalone, and prints the per-layer metrics. The last line
//! of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The exit code is non-zero if any check failed. See `NOTES.md` for the
//! workloads, the metric definitions and the layer → end-to-end map.

mod paper_apsp;
mod serve_layer;
mod sparse_scale;
mod stats;
mod tracer;

use congest_apsp::ExecutorConfig;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use tracer::Tracer;

/// The end-to-end metrics, printed by every untraced run: `(name, unit)`.
const END_TO_END: &[(&str, &str)] = &[
    ("solve_s", "s"),
    ("setup_s", "s"),
    ("verify_s", "s"),
    ("messages", "count"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, printed by every traced run: `(name, unit)`. A layer
/// that a workload does not use reads 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("graph.generate_s", "s"),
    ("graph.reference_s", "s"),
    ("engine.run_bcongest_s", "s"),
    ("engine.run_congest_s", "s"),
    ("engine.msgs_per_s", "1/s"),
    ("engine.rounds", "count"),
    ("engine.payload_bytes", "bytes"),
    ("engine.max_congestion", "count"),
    ("engine.dropped_messages", "count"),
    ("engine.faults.overhead_s", "s"),
    ("workloads.run_built_s", "s"),
    ("workloads.overhead_s", "s"),
    ("workloads.output_bytes", "bytes"),
    ("algos.setup_network_s", "s"),
    ("algos.mst_s", "s"),
    ("decomp.build_ldc_s", "s"),
    ("decomp.hierarchy_s", "s"),
    ("core.weighted_apsp_s", "s"),
    ("core.weighted_apsp_direct_s", "s"),
    ("core.tradeoff_eps0_s", "s"),
    ("core.tradeoff_eps05_s", "s"),
    ("core.tradeoff_eps1_s", "s"),
    ("core.all_bfs_batched_s", "s"),
    ("core.landmark_distances_s", "s"),
    ("core.all_bfs_star_s", "s"),
    ("core.weighted_apsp.messages", "count"),
    ("core.weighted_apsp.rounds", "count"),
    ("core.weighted_apsp.msgs_per_n2log2n", "ratio"),
    ("core.weighted_apsp_direct.messages", "count"),
    ("core.weighted_apsp_direct.rounds", "count"),
    ("core.tradeoff_eps0.messages", "count"),
    ("core.tradeoff_eps0.rounds", "count"),
    ("core.tradeoff_eps05.messages", "count"),
    ("core.tradeoff_eps05.rounds", "count"),
    ("core.tradeoff_eps1.messages", "count"),
    ("core.tradeoff_eps1.rounds", "count"),
    ("core.all_bfs_batched.messages", "count"),
    ("core.all_bfs_batched.rounds", "count"),
    ("core.landmark_distances.messages", "count"),
    ("core.landmark_distances.rounds", "count"),
    ("core.all_bfs_star.messages", "count"),
    ("core.all_bfs_star.rounds", "count"),
    ("serve.oracle_build_s", "s"),
    ("serve.point_ns", "ns"),
    ("serve.batch_us", "us"),
    ("serve.knn_us", "us"),
    ("serve.hit_rate", "ratio"),
    ("serve.evictions", "count"),
    ("trace.solve_s", "s"),
    ("trace.uncovered_s", "s"),
    ("trace.overhead_s", "s"),
];

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
}

/// What one workload run measured.
#[derive(Default)]
pub struct Run {
    /// Mean time of one set-up.
    pub setup_s: f64,
    /// Per repetition: the wall time of its solve calls and the input it
    /// solved.
    pub solve_s: Vec<f64>,
    pub solved: Vec<usize>,
    /// Mean time of one reference computation and validation.
    pub verify_once_s: f64,
    /// Each repetition's comparison against the validated reference.
    pub verify_rep_s: Vec<f64>,
    /// Exact `(messages, rounds)` of each input the run solves, keyed by
    /// input; every repetition on that input must repeat them.
    pub totals: BTreeMap<usize, (u64, u64)>,
    pub attempted: u64,
    pub failed: u64,
    /// The first failures' descriptions.
    pub failures: Vec<String>,
    /// Per-layer values (traced run only); names from [`PER_LAYER`].
    pub layer: BTreeMap<&'static str, f64>,
}

impl Run {
    /// Counts one checked operation; `result` is its check.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(format!("{what}: {e}"));
        }
    }

    /// Counts `attempted` checked operations of which `bad` failed.
    pub fn served(&mut self, attempted: u64, bad: u64, what: &str) {
        self.attempted += attempted;
        if bad > 0 {
            self.fail(format!("{bad} of {attempted}: {what}"));
            self.failed += bad - 1;
        }
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 100 {
            self.failures.push(what);
        }
    }

    /// Records a repetition on input `key`: the wall time of its solve calls.
    pub fn solve(&mut self, key: usize, solve_s: f64) {
        self.solve_s.push(solve_s);
        self.solved.push(key);
    }

    /// The end-to-end `solve_s`: per input, the mean over its repetitions;
    /// then the mean over the inputs.
    pub fn solve_time(&self) -> f64 {
        let per_input: Vec<f64> = self
            .totals
            .keys()
            .map(|&k| {
                let times: Vec<f64> = (self.solved.iter().zip(&self.solve_s))
                    .filter(|&(&key, _)| key == k)
                    .map(|(_, &s)| s)
                    .collect();
                stats::mean(&times)
            })
            .collect();
        stats::mean(&per_input)
    }

    /// Records a repetition's exact totals on input `key`; they must repeat
    /// the first repetition's on that input.
    pub fn totals(&mut self, key: usize, messages: u64, rounds: u64) {
        let first = *self.totals.entry(key).or_insert((messages, rounds));
        if first != (messages, rounds) {
            self.fail(format!(
                "input {key}: messages/rounds {messages}/{rounds} differ from the first {}/{}",
                first.0, first.1
            ));
        }
    }

    /// Sum of the exact `(messages, rounds)` over the inputs solved.
    pub fn total(&self) -> (u64, u64) {
        self.totals
            .values()
            .fold((0, 0), |(m, r), &(dm, dr)| (m + dm, r + dr))
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "per-layer metric {name} is not declared"
        );
        self.layer.insert(name, value);
    }
}

/// Runs `body(rep)` for `--seconds` seconds of wall time, and at least
/// `min_reps` times; returns the number of repetitions.
pub fn repeat(ctx: &Ctx, min_reps: u32, mut body: impl FnMut(u32)) -> u32 {
    let start = Instant::now();
    let mut rep = 0;
    while rep < min_reps || start.elapsed().as_secs_f64() < ctx.seconds {
        ctx.tracer.set_rep(Some(rep));
        body(rep);
        rep += 1;
    }
    ctx.tracer.set_rep(None);
    rep
}

/// Adds the tracing-coverage metrics: the traced solve time, the part of it
/// not covered by top-level spans, and the time the tracer itself spent per
/// repetition (medians over the repetitions).
pub fn trace_coverage(ctx: &Ctx, run: &mut Run, reps: u32) {
    let tr = &ctx.tracer;
    let uncovered: Vec<f64> = (0..reps)
        .zip(&run.solve_s)
        .map(|(r, wall)| wall - tr.top_level_s(r))
        .collect();
    let overhead: Vec<f64> = (0..reps).map(|r| tr.overhead_s(r)).collect();
    run.layer("trace.solve_s", run.solve_time());
    run.layer("trace.uncovered_s", stats::median(&uncovered));
    run.layer("trace.overhead_s", stats::median(&overhead));
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The repository root this benchmark was built from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Peak resident set size of this process (VmHWM), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The trimmed standard output of a command, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .current_dir(repo_root())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// A 128-bit FNV-1a digest of the sources the benchmark was built from, so
/// results stay attributable where no git metadata exists.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            let name = e.file_name();
            if p.is_dir() {
                if name != "target" && !name.to_string_lossy().starts_with('.') {
                    walk(&p, files);
                }
            } else if matches!(
                p.extension().and_then(|x| x.to_str()),
                Some("rs" | "toml" | "lock")
            ) {
                files.push(p);
            }
        }
    }
    let root = repo_root();
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for d in ["src", "crates", "vendor", "perfbench"] {
        walk(&root.join(d), &mut files);
    }
    files.sort();
    let (mut a, mut b) = (0xcbf2_9ce4_8422_2325u64, 0x6c62_272e_07bb_0142u64);
    for f in &files {
        let rel = f
            .strip_prefix(&root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        let body = std::fs::read(f).unwrap_or_default();
        for &byte in rel.as_bytes().iter().chain(&[0]).chain(&body) {
            a = (a ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            b = (b ^ u64::from(byte))
                .wrapping_mul(0x0000_0100_0000_01b3)
                .rotate_left(5);
        }
    }
    format!("{a:016x}{b:016x}")
}

fn fingerprint(args: &Args, digest: &str) -> String {
    let cfg = ExecutorConfig::default();
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    let nproc = command_line("nproc", &[]).unwrap_or_else(|| "unknown".into());
    // Only this checkout's own git metadata, never an enclosing repository's.
    let commit = repo_root()
        .join(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":\"{nproc}\",\
         \"available_parallelism\":{parallelism},\"threads_used\":{},\
         \"executor_default\":\"{cfg:?}\",\"commit\":\"{commit}\",\"source_digest\":\"{digest}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cfg.effective_threads(),
    )
}

/// Compares this run's exact totals with any earlier run of the same sources,
/// workload and seed (traced or not) recorded in the output directory.
fn cross_run_totals(out_dir: &Path, args: &Args, digest: &str, run: &mut Run) {
    let name = format!("totals-{}-seed{}-{digest}.txt", args.workload, args.seed);
    let path = out_dir.join(name);
    let (messages, rounds) = run.total();
    let mine = format!("{messages} {rounds}");
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev.trim() != mine => run.fail(format!(
            "messages/rounds {mine} differ from an earlier run of this seed ({})",
            prev.trim()
        )),
        Ok(_) => {}
        Err(_) => {
            if let Err(e) = std::fs::write(&path, &mine) {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
            }
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <paper-apsp|sparse-scale> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
    };
    let digest = source_digest();
    let host = fingerprint(&args, &digest);
    println!("# host {host}");

    let mut run = match args.workload.as_str() {
        "paper-apsp" => paper_apsp::run(&ctx),
        "sparse-scale" => sparse_scale::run(&ctx),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };

    let out_dir = repo_root().join(".perfbench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
    }
    cross_run_totals(&out_dir, &args, &digest, &mut run);
    let rss = peak_rss_mb().unwrap_or_else(|e| {
        run.fail(format!("peak RSS: {e}"));
        0.0
    });

    let values: Vec<(&str, f64, &str)> = if args.trace {
        let spans = format!("# host {host}\n{}", ctx.tracer.to_jsonl());
        let path = out_dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::write(&path, spans) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n, run.layer.get(n).copied().unwrap_or(0.0), u))
            .collect()
    } else {
        let e2e = [
            run.solve_time(),
            run.setup_s,
            run.verify_once_s + stats::mean(&run.verify_rep_s),
            run.total().0 as f64,
            rss,
        ];
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(n, u), v)| (n, v, u))
            .collect()
    };

    let failed = run.failed;
    let attempted = run.attempted.max(failed).max(1);
    for f in &run.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    println!(
        "# {} seed {}: {} repetitions, attempted {attempted}, failed {failed}, error_rate {}",
        args.workload,
        args.seed,
        run.solve_s.len(),
        failed as f64 / attempted as f64
    );
    for &(n, v, u) in &values {
        println!("# {n:<40} {v:>18.6} {u}");
    }
    let metrics: Vec<String> = values
        .iter()
        .map(|&(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    /// `BENCHMARK.json` declares exactly the metrics this program prints.
    #[test]
    fn benchmark_json_declares_every_metric() {
        let json = include_str!("../../BENCHMARK.json");
        let declared = json.matches("\"name\":").count();
        let workloads = json.matches("\"why\":").count();
        assert_eq!(
            declared - workloads,
            super::END_TO_END.len() + super::PER_LAYER.len()
        );
        for (name, unit) in super::END_TO_END.iter().chain(super::PER_LAYER) {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{name} ({unit}) is not declared");
        }
    }
}
