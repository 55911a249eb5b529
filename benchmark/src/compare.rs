//! `summarize`: fold a `runs.jsonl` into medians and quartiles per
//! (workload, metric) — the format of `baselines/<host-class>.json`.
//! `compare`: apply each end-to-end metric's bound to two such summaries.

use crate::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::json::Json;
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::path::Path;

fn read_json_lines(path: &Path) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .enumerate()
        .map(|(index, line)| {
            Json::parse(line).map_err(|e| format!("{} line {}: {e}", path.display(), index + 1))
        })
        .collect()
}

/// Print the summary of `runs` (a `runs.jsonl`) on standard output.
pub fn summarize(runs: &Path) -> Result<bool, String> {
    let records = read_json_lines(runs)?;
    let first = records.first().ok_or("no runs to summarize")?;
    // (workload, metric) -> (unit, values), in first-seen order per workload.
    let mut samples: BTreeMap<(usize, usize), (String, Vec<f64>)> = BTreeMap::new();
    let mut operations: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
    let mut hashes = Vec::new();
    let metric_names: Vec<&str> = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    for record in &records {
        let name = record.get("workload").and_then(Json::as_str).unwrap_or("");
        let Some(workload) = WORKLOADS.iter().position(|w| w.name == name) else {
            return Err(format!("unknown workload {name:?} in {}", runs.display()));
        };
        let number = |key: &str| record.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let ops = operations.entry(workload).or_insert((0.0, 0.0));
        ops.0 += number("attempted");
        ops.1 += number("failed");
        for (metric, entry) in record.get("metrics").map_or(&[][..], Json::as_obj) {
            let Some(index) = metric_names.iter().position(|known| known == metric) else {
                continue; // a metric this build no longer catalogues
            };
            let (Some(value), Some(unit)) = (
                entry.get("value").and_then(Json::as_f64),
                entry.get("unit").and_then(Json::as_str),
            ) else {
                continue;
            };
            let slot = samples
                .entry((workload, index))
                .or_insert_with(|| (unit.to_string(), Vec::new()));
            slot.1.push(value);
        }
        if let Some(hash) = record
            .get("info")
            .and_then(|info| info.get("trace_hash"))
            .and_then(Json::as_str)
        {
            let entry = (name.to_string(), number("seed"), hash.to_string());
            if !hashes.contains(&entry) {
                hashes.push(entry);
            }
        }
    }
    let entries = samples
        .into_iter()
        .map(|((workload, metric), (unit, values))| {
            let (q1, q3) = quartiles(&values);
            Json::obj([
                ("workload", Json::str(WORKLOADS[workload].name)),
                ("metric", Json::str(metric_names[metric])),
                ("unit", Json::Str(unit)),
                ("n", Json::Num(values.len() as f64)),
                ("median", Json::Num(median(&values))),
                ("q1", Json::Num(q1)),
                ("q3", Json::Num(q3)),
                (
                    "values",
                    Json::Arr(values.into_iter().map(Json::Num).collect()),
                ),
            ])
        })
        .collect();
    let summary = Json::obj([
        ("host", first.get("host").cloned().unwrap_or(Json::Null)),
        ("runs", Json::Num(records.len() as f64)),
        (
            "operations",
            Json::Arr(
                operations
                    .into_iter()
                    .map(|(workload, (attempted, failed))| {
                        Json::obj([
                            ("workload", Json::str(WORKLOADS[workload].name)),
                            ("attempted", Json::Num(attempted)),
                            ("failed", Json::Num(failed)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "trace_hashes",
            Json::Arr(
                hashes
                    .into_iter()
                    .map(|(workload, seed, hash)| {
                        Json::obj([
                            ("workload", Json::Str(workload)),
                            ("seed", Json::Num(seed)),
                            ("hash", Json::Str(hash)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("entries", Json::Arr(entries)),
    ]);
    print!("{}", summary.encode_pretty());
    Ok(true)
}

struct Entry {
    median: f64,
    q1: f64,
    q3: f64,
    values: Vec<f64>,
}

impl Entry {
    fn find(summary: &Json, workload: &str, metric: &str) -> Option<Entry> {
        let entry = summary.get("entries")?.as_arr().iter().find(|entry| {
            entry.get("workload").and_then(Json::as_str) == Some(workload)
                && entry.get("metric").and_then(Json::as_str) == Some(metric)
        })?;
        Some(Entry {
            median: entry.get("median")?.as_f64()?,
            q1: entry.get("q1")?.as_f64()?,
            q3: entry.get("q3")?.as_f64()?,
            values: entry
                .get("values")?
                .as_arr()
                .iter()
                .filter_map(Json::as_f64)
                .collect(),
        })
    }

    /// Quartile distance as a share of the median.
    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs().max(f64::MIN_POSITIVE)
    }
}

/// The verdict for one bounded (workload, metric) pair; `base` is side A.
fn verdict(base: &Entry, change: &Entry, higher: bool, bound: f64) -> &'static str {
    // Positive = the change reads worse, as a share of the base median.
    let worse_by = if higher {
        (base.median - change.median) / base.median
    } else {
        (change.median - base.median) / base.median
    };
    let better = |x: f64, y: f64| if higher { x > y } else { x < y };
    let every_run_better = change
        .values
        .iter()
        .all(|&c| base.values.iter().all(|&b| better(c, b)));
    let every_run_worse = base
        .values
        .iter()
        .all(|&b| change.values.iter().all(|&c| better(b, c)));
    let noisy = base.spread().max(change.spread()) > bound;
    if every_run_better && -worse_by > base.spread() {
        "improved"
    } else if noisy && !every_run_better && !every_run_worse {
        "unresolved"
    } else if worse_by > bound {
        "regressed"
    } else {
        "ok"
    }
}

fn operations_share(summary: &Json, workload: &str) -> Option<f64> {
    let entry = summary
        .get("operations")?
        .as_arr()
        .iter()
        .find(|entry| entry.get("workload").and_then(Json::as_str) == Some(workload))?;
    Some(entry.get("failed")?.as_f64()? / entry.get("attempted")?.as_f64()?.max(1.0))
}

/// Compare summary `b` (the change) against summary `a` (the base).
/// Returns `Ok(false)` — exit code 1 — on any regression.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |path: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (base, change) = (load(a)?, load(b)?);
    let mut regressions = 0;
    println!(
        "{:<22} {:<16} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "base median", "change median", "ratio", "spread", "bound"
    );
    for workload in WORKLOADS {
        for metric in END_TO_END {
            let (Some(x), Some(y)) = (
                Entry::find(&base, workload.name, metric.name),
                Entry::find(&change, workload.name, metric.name),
            ) else {
                continue;
            };
            let result = verdict(&x, &y, metric.higher, metric.bound);
            regressions += usize::from(result == "regressed");
            println!(
                "{:<22} {:<16} {:>14.6e} {:>14.6e} {:>8.4} {:>6.1}% {:>6.1}%  {result}",
                workload.name,
                metric.name,
                x.median,
                y.median,
                y.median / x.median,
                100.0 * x.spread().max(y.spread()),
                100.0 * metric.bound,
            );
        }
        if let (Some(x), Some(y)) = (
            operations_share(&base, workload.name),
            operations_share(&change, workload.name),
        ) {
            let same = x == y;
            regressions += usize::from(!same);
            println!(
                "{:<22} {:<16} {:>14.6e} {:>14.6e} {:>8} {:>7} {:>7}  {}",
                workload.name,
                "failed_share",
                x,
                y,
                "-",
                "-",
                "exact",
                if same { "ok" } else { "regressed" }
            );
        }
    }
    // Trace hashes compare exactly, for every (workload, seed) both sides ran.
    for hash in base.get("trace_hashes").map_or(&[][..], Json::as_arr) {
        let key = |entry: &Json| {
            (
                entry
                    .get("workload")
                    .and_then(Json::as_str)
                    .map(str::to_string),
                entry.get("seed").and_then(Json::as_f64).map(f64::to_bits),
            )
        };
        let Some(other) = change
            .get("trace_hashes")
            .map_or(&[][..], Json::as_arr)
            .iter()
            .find(|other| key(other) == key(hash))
        else {
            continue;
        };
        let same = hash.get("hash") == other.get("hash");
        regressions += usize::from(!same);
        println!(
            "{:<22} {:<16} {:>14} {:>14} {:>8} {:>7} {:>7}  {}",
            hash.get("workload").and_then(Json::as_str).unwrap_or("?"),
            format!(
                "trace_hash@{}",
                hash.get("seed").and_then(Json::as_f64).unwrap_or(0.0)
            ),
            hash.get("hash").and_then(Json::as_str).unwrap_or("?"),
            other.get("hash").and_then(Json::as_str).unwrap_or("?"),
            "-",
            "-",
            "exact",
            if same { "ok" } else { "regressed" }
        );
    }
    // Per-layer metrics have no bound: shown with their ratio, never judged.
    for workload in WORKLOADS {
        for metric in PER_LAYER {
            if let (Some(x), Some(y)) = (
                Entry::find(&base, workload.name, metric.name),
                Entry::find(&change, workload.name, metric.name),
            ) {
                if x.median != 0.0 || y.median != 0.0 {
                    println!(
                        "{:<22} {:<34} {:>14.6e} {:>14.6e} {:>8.4}  (per-layer, base = first file)",
                        workload.name,
                        metric.name,
                        x.median,
                        y.median,
                        y.median / x.median
                    );
                }
            }
        }
    }
    println!(
        "{regressions} regressed row(s); every ratio is change / base, base = {}",
        a.display()
    );
    Ok(regressions == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(values: &[f64]) -> Entry {
        let (q1, q3) = quartiles(values);
        Entry {
            median: median(values),
            q1,
            q3,
            values: values.to_vec(),
        }
    }

    #[test]
    fn verdicts_follow_bound_spread_and_overlap() {
        let base = entry(&[1.00, 1.01, 0.99, 1.02, 0.98]);
        // Lower is better, bound 10 %.
        assert_eq!(
            verdict(&base, &entry(&[1.03, 1.04, 1.02, 1.05, 1.03]), false, 0.1),
            "ok"
        );
        assert_eq!(
            verdict(&base, &entry(&[1.20, 1.22, 1.19, 1.21, 1.23]), false, 0.1),
            "regressed"
        );
        assert_eq!(
            verdict(&base, &entry(&[0.80, 0.81, 0.79, 0.82, 0.80]), false, 0.1),
            "improved"
        );
        // Spread wider than the bound and the runs overlap: not judged.
        assert_eq!(
            verdict(&base, &entry(&[0.7, 1.6, 0.9, 1.4, 1.2]), false, 0.1),
            "unresolved"
        );
        // Higher is better: the same numbers flip.
        assert_eq!(
            verdict(&base, &entry(&[0.80, 0.81, 0.79, 0.82, 0.80]), true, 0.1),
            "regressed"
        );
    }
}
