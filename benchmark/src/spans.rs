//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around its calls into
//! each layer's public functions (spans inside the engine are a later
//! change).  They stay in memory during the run and are written out once at
//! exit; a layer's *self time* is its span minus the part its children cover.

use crate::json::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Marks spans of the set-up phase (no epoch yet).
pub const SETUP: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Which session of the run (a coldstart run traces two).
    pub session: u32,
    pub epoch: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    origin: Instant,
    session: u32,
    epoch: u32,
    open: Vec<u32>,
    pub spans: Vec<Span>,
    /// `(name, session, epoch, value)` counts recorded at the same boundaries.
    pub counts: Vec<(&'static str, u32, u32, f64)>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            session: 0,
            epoch: SETUP,
            open: Vec::new(),
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Subsequent spans and counts belong to `epoch`.
    pub fn set_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    /// Subsequent spans and counts belong to a new session, starting with
    /// its set-up.
    pub fn next_session(&mut self) {
        self.session += 1;
        self.epoch = SETUP;
    }

    /// Open a span under the innermost open one; close it with [`end`].
    ///
    /// [`end`]: Tracer::end
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            session: self.session,
            epoch: self.epoch,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` and return its duration in seconds.
    pub fn end(&mut self, id: u32) -> f64 {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.seconds()
    }

    /// Time one call as a leaf span.
    pub fn time<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let value = call();
        self.end(id);
        value
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.push((name, self.session, self.epoch, value));
    }

    /// Self time per span: duration minus what direct children cover.
    fn self_seconds(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::seconds).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent as usize] -= span.seconds();
            }
        }
        own
    }

    /// Summed self time of the spans named `name`, per `(session, epoch)`
    /// (set-up spans under [`SETUP`]).
    fn self_seconds_by_epoch(&self, name: &str) -> BTreeMap<(u32, u32), f64> {
        let own = self.self_seconds();
        let mut by_epoch = BTreeMap::new();
        for span in self.spans.iter().filter(|span| span.name == name) {
            *by_epoch.entry((span.session, span.epoch)).or_insert(0.0) += own[span.id as usize];
        }
        by_epoch
    }

    /// Self-time samples of `name` over the *timed* epochs (`epoch >= skip`).
    pub fn epoch_samples(&self, name: &str, skip: u32) -> Vec<f64> {
        self.self_seconds_by_epoch(name)
            .into_iter()
            .filter(|&((_, epoch), _)| epoch != SETUP && epoch >= skip)
            .map(|(_, seconds)| seconds)
            .collect()
    }

    /// Summed self time of `name` during the set-ups recorded so far.
    pub fn setup_seconds(&self, name: &str) -> f64 {
        self.self_seconds_by_epoch(name)
            .into_iter()
            .filter(|&((_, epoch), _)| epoch == SETUP)
            .map(|(_, seconds)| seconds)
            .fold(0.0, |total, seconds| total + seconds)
    }

    /// Samples of count `name` over the timed epochs.
    pub fn count_samples(&self, name: &str, skip: u32) -> Vec<f64> {
        self.counts
            .iter()
            .filter(|&&(n, _, epoch, _)| n == name && epoch != SETUP && epoch >= skip)
            .map(|&(_, _, _, value)| value)
            .collect()
    }

    /// One JSON object per line: every span, then every count.
    pub fn write_jsonl(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let epoch = |epoch: u32| match epoch {
            SETUP => Json::Null,
            epoch => Json::Num(f64::from(epoch)),
        };
        for span in &self.spans {
            let line = Json::obj([
                ("id", Json::Num(f64::from(span.id))),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                ),
                ("name", Json::str(span.name)),
                ("workload", Json::str(workload)),
                ("session", Json::Num(f64::from(span.session))),
                ("epoch", epoch(span.epoch)),
                ("start_ns", Json::Num(span.start_ns as f64)),
                ("end_ns", Json::Num(span.end_ns as f64)),
            ]);
            writeln!(out, "{}", line.encode())?;
        }
        for &(name, session, at, value) in &self.counts {
            let line = Json::obj([
                ("count", Json::str(name)),
                ("workload", Json::str(workload)),
                ("session", Json::Num(f64::from(session))),
                ("epoch", epoch(at)),
                ("value", Json::Num(value)),
            ]);
            writeln!(out, "{}", line.encode())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new();
        tracer.set_epoch(0);
        let outer = tracer.begin("session.epoch");
        tracer.time("plan.fill", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tracer.time("executor.run_epoch", || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        let total = tracer.end(outer);
        let fill = tracer.epoch_samples("plan.fill", 0)[0];
        let run = tracer.epoch_samples("executor.run_epoch", 0)[0];
        let own = tracer.epoch_samples("session.epoch", 0)[0];
        assert!(fill >= 0.002 && run >= 0.003);
        assert!((own + fill + run - total).abs() < 1e-9);
        assert!(
            tracer.epoch_samples("plan.fill", 1).is_empty(),
            "warm-up skipped"
        );
        assert_eq!(tracer.spans[1].parent, Some(outer));
    }
}
