//! `kgrec-perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! Usage: `kgrec-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! (normally through `perfbench/run.py`, which builds it first and pins
//! the trainer's worker count). Workloads:
//!
//! * `serve_longtail` — 1M-user serving, uniform open-loop traffic: the
//!   two-stage pipeline does the work, the cache almost none;
//! * `serve_ingest_mix` — Zipf-skewed closed-loop reads beside scheduled
//!   ingest batches: cache hits, stamp invalidation and `append` do the work;
//! * `fit_cfkg` — supervised CFKG fit plus the CTR and full-ranking
//!   protocols: the KGE trainer and the evaluation layer do the work.
//!
//! With `--trace 0` the run reports the end-to-end metrics, measured with
//! tracing off; with `--trace 1` it records spans around each public call
//! into a layer and reports the per-layer metrics instead. Every run
//! checks the program's outputs, prints each metric with its unit and the
//! operations attempted and failed per kind, and ends with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod fit;
mod serve;
mod trace;
mod util;

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics every workload reports (`--trace 0`).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("quality", "ratio"),
];

/// Per-layer metrics of the traced run (`--trace 1`). A layer a workload
/// does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("data.generate_s", "s"),
    ("serve.server_new_s", "s"),
    ("serve.candidates_us", "us"),
    ("serve.rank_us", "us"),
    ("serve.compute_fresh_us", "us"),
    ("linalg.dot_ns", "ns"),
    ("serve.cache_lookup_ns", "ns"),
    ("serve.cache_insert_ns", "ns"),
    ("serve.hit_rate", "ratio"),
    ("serve.stale_share", "ratio"),
    ("serve.ingest_ms", "ms"),
    ("data.append_ms", "ms"),
    ("data.item_popularity_ms", "ms"),
    ("data.user_item_graph_ms", "ms"),
    ("kge.epoch_ms", "ms"),
    ("kge.corrupt_ns", "ns"),
    ("kge.grad_pair_ns", "ns"),
    ("kge.apply_grads_us", "us"),
    ("linalg.par_map_us", "us"),
    ("kge.final_loss", "loss"),
    ("models.score_ns", "ns"),
    ("core.ndcg_at_10", "ratio"),
    ("core.topk_users_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every input (dataset, traffic, batches) derives from it.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"want 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    ops: Vec<(&'static str, u64, u64)>,
    errors: Vec<String>,
}

impl Report {
    /// Records metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records `attempted` operations of `kind`, `failed` of which failed.
    pub fn ops(&mut self, kind: &'static str, attempted: u64, failed: u64) {
        self.ops.push((kind, attempted, failed));
    }

    /// Records a correctness violation unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            if self.errors.len() < 20 {
                eprintln!("CHECK FAILED: {msg}");
            }
            self.errors.push(msg);
        }
    }
}

thread_local! {
    /// Set around calls whose panic is an expected, counted failure.
    static EXPECTING_PANIC: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f`, turning a panic into `None` without printing it: the caller
/// counts it as a failed operation.
pub fn catch_expected<R>(f: impl FnOnce() -> R) -> Option<R> {
    EXPECTING_PANIC.with(|e| e.set(true));
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok();
    EXPECTING_PANIC.with(|e| e.set(false));
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kgrec-perfbench: {e}");
            eprintln!(
                "usage: kgrec-perfbench --workload <serve_longtail|serve_ingest_mix|fit_cfkg> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !EXPECTING_PANIC.with(Cell::get) {
            default_hook(info);
        }
    }));
    let threads = kgrec_linalg::par::resolve_threads(None);
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} (trainer threads {threads}, \
         host threads {host})",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut report = match args.workload.as_str() {
        "serve_longtail" => serve::longtail(&args),
        "serve_ingest_mix" => serve::ingest_mix(&args),
        "fit_cfkg" => fit::fit_cfkg(&args),
        other => {
            eprintln!("kgrec-perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    report.set("peak_rss_mb", util::peak_rss_mb());
    std::process::exit(finish(&args, &report));
}

/// Prints every metric with its unit, the operations per kind and the
/// final JSON line; returns the exit code.
fn finish(args: &Args, report: &Report) -> i32 {
    for (kind, attempted, failed) in &report.ops {
        println!("ops {kind}: attempted {attempted}, failed {failed}");
    }
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut correct = report.errors.is_empty();
    let mut json = String::new();
    for (i, &(name, unit)) in wanted.iter().enumerate() {
        // A layer the workload does not exercise reads 0; a missing
        // end-to-end metric is a fault of this benchmark.
        let value = match report.values.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => {
                eprintln!("kgrec-perfbench: workload did not measure {name}");
                return 1;
            }
        };
        let finite = value.is_finite() && (args.trace || value > 0.0);
        if !finite {
            correct = false;
            eprintln!("CHECK FAILED: metric {name} = {value}");
        }
        println!("metric {name} = {value} {unit}");
        let shown = if value.is_finite() { value.to_string() } else { "null".to_owned() };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(json, "{sep}\"{name}\": {{\"value\": {shown}, \"unit\": \"{unit}\"}}");
    }
    for (name, value) in &report.values {
        if !wanted.iter().any(|(w, _)| w == name) {
            println!("info {name} = {value}");
        }
    }
    if !report.errors.is_empty() {
        println!("correctness: {} check(s) failed", report.errors.len());
    }
    let attempted: u64 = report.ops.iter().map(|o| o.1).sum();
    let failed: u64 = report.ops.iter().map(|o| o.2).sum();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}"
    );
    0
}
