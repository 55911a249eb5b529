//! `dw-benchmark`: the repository's measured end-to-end benchmark.
//!
//! ```text
//! dw-benchmark run --workload <name> [--seed 7] [--seconds 8] [--trace 0|1] [--out-dir benchmark/out]
//! dw-benchmark summarize <runs.jsonl>          # medians + quartiles per (workload, metric)
//! dw-benchmark compare <a.json> <b.json>       # apply each metric's bound, exit 1 on a regression
//! dw-benchmark catalog [<repo root>]           # regenerate BENCHMARK.json and benchmark/metrics.json
//! ```
//!
//! One process runs one workload (so `peak_rss_bytes` is that workload's);
//! `run.sh` loops over workloads.  With `--trace 0` the end-to-end metrics
//! are measured on the product path with tracing off; `--trace 1` re-runs
//! the workload through the hand-driven epoch loop with a span around each
//! layer call and reports the per-layer metrics.

mod catalog;
mod compare;
mod handloop;
mod host;
mod json;
mod report;
mod serve;
mod spans;
mod stats;
mod traced;
mod train;
mod workloads;

use report::Outcome;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

struct RunArgs {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    traced: bool,
    out_dir: PathBuf,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: "",
        seed: 7,
        seconds: catalog::DEFAULT_SECONDS as f64,
        traced: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        if flag == "--traced" {
            parsed.traced = true;
            continue;
        }
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => {
                parsed.workload = catalog::WORKLOADS
                    .iter()
                    .map(|w| w.name)
                    .find(|name| name == value)
                    .ok_or_else(|| {
                        let names: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
                        format!("--workload must be one of {}", names.join(", "))
                    })?
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("a u64"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                parsed.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out-dir" => parsed.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(parsed)
}

/// A scratch directory inside the output directory (the benchmark writes
/// nowhere else), removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn create(out_dir: &Path, workload: &str) -> std::io::Result<Scratch> {
        let path = out_dir.join(format!("scratch-{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Scratch(path))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &RunArgs) -> std::io::Result<bool> {
    std::fs::create_dir_all(&args.out_dir)?;
    let workload = args.workload;
    let scratch = Scratch::create(&args.out_dir, workload)?;
    let host = host::Host::probe();
    let workers = host::worker_count();
    let machine = workloads::machine(workers);
    let mut out = Outcome::new(workload, args.seed, args.seconds, args.traced);
    let scope = if host::reset_peak_rss() {
        "session"
    } else {
        "process"
    };
    out.note("peak_rss_scope", json::Json::str(scope));

    match workloads::TrainSpec::by_name(workload) {
        Some(spec) => {
            let clock = Instant::now();
            let source = spec.generate(args.seed, false, &scratch.0, &machine);
            let gen_s = clock.elapsed().as_secs_f64();
            let case = train::Case::new(spec, &machine, workers, args.seed, &source, &scratch.0);
            out.note("data_gen_s", json::Json::Num(gen_s));
            if args.traced {
                let trace_path = args.out_dir.join(format!("{workload}.trace.jsonl"));
                traced::run_traced(&case, args.seconds, gen_s, &trace_path, &mut out)?;
            } else {
                train::run_untraced(&case, args.seconds, &mut out);
            }
        }
        None => serve::run(&machine, workers, args, &mut out)?,
    }
    out.publish(&args.out_dir, &host)?;
    Ok(out.failures.is_empty())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result: Result<bool, String> = match args.first().map(String::as_str) {
        Some("run") => parse_run_args(&args[1..])
            .and_then(|parsed| run(&parsed).map_err(|e| format!("run failed: {e}"))),
        Some("summarize") if args.len() == 2 => compare::summarize(Path::new(&args[1])),
        Some("compare") if args.len() == 3 => {
            compare::compare(Path::new(&args[1]), Path::new(&args[2]))
        }
        Some("catalog") if args.len() <= 2 => {
            let root = PathBuf::from(args.get(1).map_or(".", String::as_str));
            std::fs::write(
                root.join("BENCHMARK.json"),
                catalog::benchmark_json().encode_pretty(),
            )
            .and_then(|()| {
                std::fs::write(
                    root.join("benchmark/metrics.json"),
                    catalog::metrics_json().encode_pretty(),
                )
            })
            .map(|()| true)
            .map_err(|e| format!("catalog: {e}"))
        }
        _ => Err(
            "usage: dw-benchmark run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]\n       dw-benchmark summarize <runs.jsonl>\n       dw-benchmark compare <a.json> <b.json>\n       dw-benchmark catalog [<repo root>]"
                .to_string(),
        ),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
