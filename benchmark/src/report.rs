//! One workload run's result: metrics by name, operation counts, failed
//! checks, and free-form context (plan string, sizes, host).

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::host::Host;
use crate::json::Json;
use std::io::Write;
use std::path::Path;

pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Operations attempted: set-ups, epochs, loss targets, predictions.
    pub attempted: u64,
    /// One line per failed operation or output check.
    pub failures: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
    /// Context that is not a number: the plan, sizes, sample counts.
    pub info: Vec<(String, Json)>,
}

impl Outcome {
    pub fn new(workload: &'static str, seed: u64, seconds: f64, traced: bool) -> Outcome {
        Outcome {
            workload,
            seed,
            seconds,
            traced,
            attempted: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
            info: Vec::new(),
        }
    }

    /// Record metric `name` (must be in the catalog for this run's mode).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            self.unit_of(name).is_some(),
            "{name} is not a catalogued metric of this mode"
        );
        self.check(value.is_finite(), || format!("metric {name} is {value}"));
        self.metrics.retain(|&(existing, _)| existing != name);
        self.metrics.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|&&(existing, _)| existing == name)
            .map(|&(_, value)| value)
    }

    pub fn note(&mut self, key: &str, value: Json) {
        self.info.push((key.to_string(), value));
    }

    /// Count one attempted operation; `ok == false` records it as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    fn unit_of(&self, name: &str) -> Option<&'static str> {
        if self.traced {
            PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit)
        } else {
            END_TO_END.iter().find(|m| m.name == name).map(|m| m.unit)
        }
    }

    /// Every catalogued metric of this mode, in catalog order.  A per-layer
    /// metric the workload did not set does not apply to it and reads 0; a
    /// missing end-to-end metric is a bug in the workload.
    fn catalogued(&self) -> Vec<(&'static str, f64, &'static str)> {
        if self.traced {
            PER_LAYER
                .iter()
                .map(|m| (m.name, self.get(m.name).unwrap_or(0.0), m.unit))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    let value = self
                        .get(m.name)
                        .unwrap_or_else(|| panic!("{} did not report {}", self.workload, m.name));
                    (m.name, value, m.unit)
                })
                .collect()
        }
    }

    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.catalogued()
                .into_iter()
                .map(|(name, value, unit)| {
                    let value = if value.is_finite() { value } else { 0.0 };
                    (
                        name.to_string(),
                        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                    )
                })
                .collect(),
        )
    }

    /// The one-line result the driver reads: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn driver_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.failures.is_empty())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failures.len() as f64)),
            ("metrics", self.metrics_json()),
        ])
        .encode()
    }

    fn record(&self, host: &Host) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("trace", Json::Num(f64::from(u8::from(self.traced)))),
            ("correct", Json::Bool(self.failures.is_empty())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failures.len() as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
            ("metrics", self.metrics_json()),
            ("info", Json::Obj(self.info.clone())),
            ("host", host.to_json()),
        ])
    }

    /// Print every metric by name with its unit, write
    /// `<out>/<workload>.json` (`.traced.json` for a traced run), append the
    /// run to `<out>/runs.jsonl`, and print the driver's line last.
    pub fn publish(&self, out_dir: &Path, host: &Host) -> std::io::Result<()> {
        println!(
            "== {} (seed {}, {} s, {})",
            self.workload,
            self.seed,
            self.seconds,
            if self.traced {
                "traced: per-layer"
            } else {
                "tracing off: end-to-end"
            }
        );
        for (name, value, unit) in self.catalogued() {
            println!("{name:<34} {value:>16.6} {unit}");
        }
        for (key, value) in &self.info {
            println!("  {key}: {}", value.encode());
        }
        for failure in &self.failures {
            println!("FAILED: {failure}");
        }
        let record = self.record(host);
        let suffix = if self.traced { "traced.json" } else { "json" };
        std::fs::write(
            out_dir.join(format!("{}.{suffix}", self.workload)),
            record.encode_pretty(),
        )?;
        let mut runs = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out_dir.join("runs.jsonl"))?;
        writeln!(runs, "{}", record.encode())?;
        println!("{}", self.driver_line());
        Ok(())
    }
}
