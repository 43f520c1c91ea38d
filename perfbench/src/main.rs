//! The auction stack's benchmark: one command, four workloads, every output
//! checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <clear-protocol|clear-physical|exchange|sealed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with tracing
//! off. With `--trace 1` it runs the workload twice over the same inputs,
//! untraced and then traced, reports the per-layer metrics of the traced
//! pass and the difference between the two passes as the tracing overhead,
//! and checks that the deterministic counts of both passes are identical.
//! The last line of standard output is the JSON result; everything above
//! it is the human-readable report. See `perfbench/README.md` for the
//! metric definitions.

mod clear;
mod exchange;
mod lpstats;
mod sealed;
mod stats;
mod trace;

use ssa_core::lp_formulation::{try_solve_relaxation, LpFormulationOptions};
use ssa_core::session::SessionStats;
use ssa_core::AuctionInstance;
use stats::{median, Metrics};
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// The end-to-end metrics, reported on every workload.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("welfare_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The span layers, in report order (`op` is the benchmark's own glue
/// around each operation).
const LAYERS: &[&str] = &[
    "op",
    "core.lp_formulation",
    "core.rounding",
    "core.session",
    "exchange",
    "mechanism.sealed_bid",
];

/// The per-layer metrics a workload reports itself (the trace shares,
/// overhead, host and determinism metrics are added here). A metric the
/// workload does not produce is reported as 0: that layer did no work on it.
const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.generate_s", "s"),
    ("conflict_graph.rho", "ratio"),
    ("core.lp_formulation.solve_s", "s"),
    ("core.lp_formulation.pricing_rounds", "count"),
    ("core.lp_formulation.columns_generated", "count"),
    ("core.lp_formulation.pool_hits", "count"),
    ("lp.pivots", "count"),
    ("lp.us_per_pivot", "us"),
    ("lp.degenerate_share", "ratio"),
    ("lp.refactorizations", "count"),
    ("lp.forced_refactorizations", "count"),
    ("lp.dual_pivots", "count"),
    ("lp.ftran_dense_share", "ratio"),
    ("lp.btran_dense_share", "ratio"),
    ("lp.avg_result_density", "ratio"),
    ("core.rounding.s", "s"),
    ("core.rounding.removal_rate", "ratio"),
    ("core.conflict_resolution.candidates", "count"),
    ("core.session.mutate_ms.p50", "ms"),
    ("core.session.mutate_ms.p95", "ms"),
    ("core.session.resolve_ms.p50", "ms"),
    ("core.session.resolve_ms.p95", "ms"),
    ("core.session.warm_share", "ratio"),
    ("core.session.cold_resolves", "count"),
    ("core.session.deep_batch_rebuilds", "count"),
    ("exchange.submit_us_per_event", "us"),
    ("exchange.event_ms.p99", "ms"),
    ("exchange.queue_wait_ms.p50", "ms"),
    ("exchange.queue_wait_ms.p99", "ms"),
    ("exchange.drain_ms.p50", "ms"),
    ("exchange.drain_ms.p99", "ms"),
    ("exchange.dirty_per_drain", "count"),
    ("exchange.coalesce_ratio", "ratio"),
    ("exchange.shard_resolve_ms.p50", "ms"),
    ("exchange.shard_resolve_ms.p99", "ms"),
    ("exchange.generator_lag_ms", "ms"),
    ("exchange.burst.drain_ms.p50", "ms"),
    ("exchange.burst.dirty_per_drain", "count"),
    ("exchange.burst.coalesce_ratio", "ratio"),
    ("exchange.burst.extra_waves", "count"),
    ("exchange.burst.shard_resolve_ms.p50", "ms"),
    ("exchange.burst.shard_resolve_ms.p99", "ms"),
    ("exchange.burst.pool_busy_share", "ratio"),
    ("exchange.burst.straggler_share", "ratio"),
    ("mechanism.sealed_bid.commit_us", "us"),
    ("mechanism.sealed_bid.close_ms", "ms"),
    ("mechanism.sealed_bid.reveal_us", "us"),
    ("mechanism.sealed_bid.resolve_ms", "ms"),
    ("mechanism.sealed_bid.audit_ms", "ms"),
    ("mechanism.sealed_bid.audit_certificate_share", "ratio"),
    ("mechanism.sealed_bid.audit_findings", "count"),
    ("mechanism.sealed_bid.overhead", "ratio"),
];

const WORKLOADS: &[&str] = &["clear-protocol", "clear-physical", "exchange", "sealed"];

/// How many times each run sets up its inputs; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// One invocation's parameters.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// How long a measured pass runs: for a wall-clock budget (the untraced
/// pass), or for exactly the operations an earlier pass ran (the traced
/// pass of a `--trace 1` run, so both passes see the same inputs).
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    Seconds(f64),
    Ops(usize),
}

impl Budget {
    /// Whether a pass that has run `done` operations since `start` is over.
    /// A wall-clock pass always runs at least one operation.
    pub fn exhausted(self, done: usize, start: Instant) -> bool {
        match self {
            Budget::Seconds(s) => done > 0 && start.elapsed().as_secs_f64() >= s,
            Budget::Ops(n) => done >= n,
        }
    }
}

/// What one measured pass produced.
#[derive(Default)]
pub struct Pass {
    pub attempted: usize,
    pub failed: usize,
    pub problems: Vec<String>,
    /// Operations run and their total wall time (the tracing-overhead base).
    pub ops: usize,
    pub op_total_s: f64,
    pub e2e: Metrics,
    pub layers: Metrics,
    /// Counts that must repeat exactly at one seed, as `(name, value)`.
    pub counts: Vec<(String, String)>,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Pass {
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }
}

/// A workload's result: its setup times and one or two passes.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub generate_s: Vec<f64>,
    pub untraced: Pass,
    /// The traced pass of a `--trace 1` run.
    pub traced: Option<(Pass, Tracer)>,
}

/// Runs `f` `SETUP_REPEATS` times, dropping each result before building
/// the next so peak memory holds one copy, and returns the last result with
/// every wall time.
pub fn timed_setups<T>(mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let start = Instant::now();
        last = Some(f());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one setup"), times)
}

/// Derives the seed of the `index`-th generated input from the workload
/// seed with a splitmix64 finalizer, so neighbouring workload seeds give
/// unrelated inputs.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `|a − b| ≤ 1e-6` relative to the larger magnitude (absolute below 1).
pub fn objectives_agree(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0)
}

/// Solves the relaxation of `instance(item)` for every item with `options`,
/// split over two threads (the host's core count), and returns the LP
/// objectives in item order. Used only by the output checks, after the
/// timed pass.
pub fn check_objectives<'a, T: Sync>(
    items: &'a [T],
    instance: impl Fn(&'a T) -> &'a AuctionInstance + Sync,
    options: &LpFormulationOptions,
) -> Vec<Result<f64, String>> {
    let solve = |item: &'a T| {
        try_solve_relaxation(instance(item), options)
            .map(|f| f.objective)
            .map_err(|e| format!("{e:?}"))
    };
    let (first, second) = items.split_at(items.len() / 2);
    std::thread::scope(|scope| {
        let first = scope.spawn(|| first.iter().map(solve).collect::<Vec<_>>());
        let mut results = second.iter().map(solve).collect::<Vec<_>>();
        let mut all = first.join().expect("check thread panicked");
        all.append(&mut results);
        all
    })
}

/// Session counters accrued between two snapshots.
pub fn session_delta(before: &SessionStats, after: &SessionStats) -> SessionStats {
    SessionStats {
        resolves: after.resolves - before.resolves,
        cached_resolves: after.cached_resolves - before.cached_resolves,
        cold_resolves: after.cold_resolves - before.cold_resolves,
        warm_row_resolves: after.warm_row_resolves - before.warm_row_resolves,
        repriced_resolves: after.repriced_resolves - before.repriced_resolves,
        deactivated_resolves: after.deactivated_resolves - before.deactivated_resolves,
        deep_batch_rebuilds: after.deep_batch_rebuilds - before.deep_batch_rebuilds,
        mixed_batch_repairs: after.mixed_batch_repairs - before.mixed_batch_repairs,
    }
}

fn parse_args() -> Result<Run, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], not {seconds}"));
    }
    Ok(Run {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set size of this process (VmHWM), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn print_metrics(title: &str, metrics: &Metrics) {
    println!("{title}");
    println!(
        "  {:<46} {:>14} {:<6} {:>8}  note",
        "metric", "value", "unit", "samples"
    );
    for m in &metrics.0 {
        println!(
            "  {:<46} {:>14.6} {:<6} {:>8}  {}",
            m.name, m.value, m.unit, m.samples, m.note
        );
    }
}

/// The per-layer metrics of a traced run: the host record, every metric of
/// `PER_LAYER` (0 where the workload never reached the layer), then the
/// trace-derived ones.
fn per_layer_metrics(outcome: &Outcome, cores: usize, workers: usize) -> (Metrics, Vec<String>) {
    let (traced, tracer) = outcome.traced.as_ref().expect("traced pass");
    let mut problems = Vec::new();
    let mut m = Metrics::default();
    m.push(
        "host.cores",
        cores as f64,
        "count",
        1,
        "available_parallelism",
    );
    m.push(
        "host.pool_workers",
        workers as f64,
        "count",
        1,
        "drain pool size",
    );
    m.push(
        "workloads.generate_s",
        median(&outcome.generate_s),
        "s",
        outcome.generate_s.len(),
        "median over setups: generating every input of the run",
    );
    for &(name, unit) in PER_LAYER.iter().skip(1) {
        match traced.layers.0.iter().find(|x| x.name == name) {
            Some(x) => {
                if x.unit != unit {
                    problems.push(format!("metric {name} reported in {} not {unit}", x.unit));
                }
                m.0.push(x.clone());
            }
            None => m.push(name, 0.0, unit, 0, "layer not exercised by this workload"),
        }
    }
    for x in &traced.layers.0 {
        if !PER_LAYER.iter().any(|&(name, _)| name == x.name) {
            problems.push(format!(
                "workload reported unlisted per-layer metric {}",
                x.name
            ));
        }
    }

    let untraced = &outcome.untraced;
    let per_op = |p: &Pass| stats::ratio(p.op_total_s, p.ops as f64);
    let overhead_s = per_op(traced) - per_op(untraced);
    m.push(
        "trace.overhead_ms",
        overhead_s * 1e3,
        "ms",
        traced.ops,
        "traced minus untraced mean operation time, same inputs",
    );
    m.push(
        "trace.overhead_share",
        stats::ratio(overhead_s, per_op(untraced)),
        "ratio",
        traced.ops,
        "trace.overhead_ms / untraced mean operation time",
    );
    let self_time = tracer.self_time_by_layer();
    let root = tracer.root_time();
    for layer in LAYERS {
        let t = self_time.get(layer).copied().unwrap_or(0.0);
        m.push(
            &format!("trace.self_ms_per_op.{layer}"),
            stats::ratio(t * 1e3, traced.ops as f64),
            "ms",
            traced.ops,
            "span self time per operation",
        );
        m.push(
            &format!("trace.self_share.{layer}"),
            stats::ratio(t, root),
            "ratio",
            traced.ops,
            "self time / operation time, all on the blocking path",
        );
    }
    m.push(
        "determinism.counts_checked",
        traced.counts.len() as f64,
        "count",
        traced.counts.len(),
        "counts compared between the untraced and traced pass",
    );
    (m, problems)
}

/// Compares the deterministic counts of two passes over the same inputs.
fn determinism_problems(a: &Pass, b: &Pass) -> Vec<String> {
    let mut problems = Vec::new();
    if a.counts.len() != b.counts.len() {
        problems.push(format!(
            "determinism: {} counts untraced vs {} traced",
            a.counts.len(),
            b.counts.len()
        ));
    }
    for ((name_a, va), (name_b, vb)) in a.counts.iter().zip(&b.counts) {
        if name_a != name_b || va != vb {
            problems.push(format!(
                "determinism: {name_a} = {va} untraced, {name_b} = {vb} traced"
            ));
        }
    }
    problems
}

fn main() {
    let run = match parse_args() {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = rayon::current_num_threads();
    if workers > cores {
        eprintln!(
            "perfbench: the drain pool has {workers} workers but the host has {cores} cores; \
             refusing to run (unset SSA_POOL_THREADS or lower it to at most {cores})"
        );
        std::process::exit(2);
    }
    println!(
        "perfbench workload={} seed={} seconds={} trace={} cores={cores} pool_workers={workers}",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace)
    );

    let outcome = match run.workload.as_str() {
        "clear-protocol" => clear::run(&run, &clear::PROTOCOL),
        "clear-physical" => clear::run(&run, &clear::PHYSICAL),
        "exchange" => exchange::run(&run),
        "sealed" => sealed::run(&run),
        other => unreachable!("workload {other} passed argument validation"),
    };

    let mut attempted = outcome.untraced.attempted;
    let mut failed = outcome.untraced.failed;
    let mut problems = outcome.untraced.problems.clone();
    let metrics = if let Some((traced, tracer)) = &outcome.traced {
        attempted += traced.attempted;
        failed += traced.failed;
        problems.extend(traced.problems.iter().cloned());
        let mismatches = determinism_problems(&outcome.untraced, traced);
        failed += mismatches.len();
        problems.extend(mismatches);
        let (layers, listing) = per_layer_metrics(&outcome, cores, workers);
        problems.extend(listing);
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-{}.jsonl", run.workload, run.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("spans: {} written to {}", tracer.len(), path.display()),
            Err(e) => problems.push(format!("writing spans to {}: {e}", path.display())),
        }
        print_metrics("per-layer metrics (traced pass)", &layers);
        layers
    } else {
        let mut m = Metrics::default();
        m.push(
            "setup_s",
            median(&outcome.setup_s),
            "s",
            outcome.setup_s.len(),
            "median over setups: generate inputs + prime sessions",
        );
        m.0.extend(outcome.untraced.e2e.0.iter().cloned());
        match peak_rss_mb() {
            Ok(mb) => m.push("peak_rss_mb", mb, "MB", 1, "VmHWM of the whole run"),
            Err(e) => problems.push(e),
        }
        let names: Vec<&str> = m.0.iter().map(|x| x.name.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|&(name, _)| name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        let mut want = expected.clone();
        want.sort_unstable();
        if sorted != want {
            problems.push(format!(
                "end-to-end metrics {names:?} differ from {expected:?}"
            ));
        }
        print_metrics("end-to-end metrics", &m);
        m
    };

    let shown = outcome
        .traced
        .as_ref()
        .map_or(&outcome.untraced, |(traced, _)| traced);
    for note in &shown.notes {
        println!("{note}");
    }
    println!(
        "operations: attempted={attempted} failed={failed} error_rate={}",
        stats::ratio(failed as f64, attempted as f64)
    );
    for p in &problems {
        println!("problem: {p}");
    }
    let correct = problems.is_empty() && failed == 0 && attempted > 0;
    // `{:?}` prints the shortest form of an f64 that reads back exactly, so
    // every digit of the measurement reaches the result line.
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}
