//! The five training workloads on the product path, tracing off:
//! `DimmWitted::on(..)…build().stream()` and `EpochStream::next()`.

use crate::handloop::SessionOptions;
use crate::host;
use crate::json::Json;
use crate::report::Outcome;
use crate::stats::{median, quartiles, tail};
use crate::workloads::{Source, TrainSpec, REFERENCE_EPOCHS};
use dimmwitted::{
    AnalyticsTask, DimmWitted, EpochStream, ExecutionMode, ExecutionPlan, RunConfig, SessionBuilder,
};
use dw_numa::MachineTopology;
use dw_optim::TaskData;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Epoch budget of every stream: the benchmark stops streams by wall-clock,
/// never by the budget.
const EPOCH_BUDGET: usize = 1_000_000;
/// Epochs at the head of every stream excluded from the epoch statistics
/// (pool spin-up, cold caches).
pub const WARMUP_EPOCHS: usize = 2;
/// A stream that has not reached its loss target by then has failed to.
const MAX_EPOCHS_TO_TARGET: usize = 40;
/// Wall-clock one fresh threaded session gets (input copy, set-up, epochs):
/// long enough for the warm-up and four to fifteen timed epochs, short enough
/// that a run holds ten sessions.  Each session gives one `setup_s`, one
/// `time_to_loss_s` and one throughput sample, and lands on its own pages,
/// so the run's medians are over memory placements as well as over time.
const SESSION_SECONDS: f64 = 2.5;

/// Fresh threaded sessions of a tracing-off run of `seconds` (of each
/// flavour, cold and warm, on coldstart).
fn session_count(seconds: f64, coldstart: bool) -> usize {
    let flavours = if coldstart { 2.0 } else { 1.0 };
    ((seconds / (SESSION_SECONDS * flavours)).round() as usize).clamp(3, 16)
}

/// One training workload bound to a host-sized machine, a seed and inputs.
pub struct Case<'a> {
    pub spec: &'a TrainSpec,
    pub machine: &'a MachineTopology,
    pub workers: usize,
    pub seed: u64,
    pub source: &'a Source,
    /// Scratch directory: spill files and the coldstart layout file.
    dir: PathBuf,
}

/// Wall-clock split of one timed set-up.
#[derive(Clone, Copy)]
pub struct Setup {
    /// Input wrapping + `build()` (plan choice).
    pub build_s: f64,
    /// `stream()`: materialise, replicate, initial loss.
    pub stream_s: f64,
}

impl Setup {
    pub fn total(&self) -> f64 {
        self.build_s + self.stream_s
    }
}

impl<'a> Case<'a> {
    pub fn new(
        spec: &'a TrainSpec,
        machine: &'a MachineTopology,
        workers: usize,
        seed: u64,
        source: &'a Source,
        dir: &Path,
    ) -> Case<'a> {
        Case {
            spec,
            machine,
            workers,
            seed,
            source,
            dir: dir.to_path_buf(),
        }
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn task(&self, data: TaskData) -> AnalyticsTask {
        AnalyticsTask::new(self.spec.name, data, self.spec.model)
    }

    pub fn run_config(&self, mode: ExecutionMode) -> RunConfig {
        RunConfig {
            epochs: EPOCH_BUDGET,
            step_override: Some(self.spec.step),
            seed: self.seed,
            mode,
            ..RunConfig::default()
        }
    }

    fn layout_file(&self) -> Option<PathBuf> {
        self.spec.coldstart.then(|| self.dir.join("layouts.dwlt"))
    }

    pub fn remove_layout_file(&self) {
        if let Some(path) = self.layout_file() {
            let _ = std::fs::remove_file(path);
        }
    }

    /// The builder settings shared by the product path and the hand-driven
    /// loop.
    pub fn options(&self) -> SessionOptions {
        SessionOptions {
            plan: self
                .spec
                .hogwild
                .then(|| ExecutionPlan::hogwild(self.machine).with_workers(self.workers)),
            memory_budget: self.source.memory_budget(),
            layout_file: self.layout_file(),
        }
    }

    fn builder(&self, task: AnalyticsTask, mode: ExecutionMode) -> SessionBuilder {
        let options = self.options();
        let mut builder = DimmWitted::on(self.machine.clone())
            .task(task)
            .config(self.run_config(mode));
        if let Some(plan) = options.plan {
            builder = builder.plan(plan);
        }
        if let Some(budget) = options.memory_budget {
            builder = builder.memory_budget(budget).spill_dir(&self.dir);
        }
        if let Some(path) = options.layout_file {
            builder = builder.layout_file(path);
        }
        builder
    }

    /// One timed set-up on a fresh copy of the input: inputs in hand →
    /// first epoch dispatchable.
    pub fn open(&self, mode: ExecutionMode) -> (EpochStream, Setup) {
        // A session's memory peak covers its own copy of the input, its
        // set-up and its epochs — not what earlier sessions left behind.
        host::reset_peak_rss();
        let prepared = self.source.prepare();
        let start = Instant::now();
        let session = self
            .builder(self.task(prepared.into_task_data()), mode)
            .build();
        let build_s = start.elapsed().as_secs_f64();
        let stream = session.stream();
        let stream_s = start.elapsed().as_secs_f64() - build_s;
        (stream, Setup { build_s, stream_s })
    }
}

/// FNV-1a over per-epoch loss bits: the trace-parity fingerprint.
pub fn trace_hash(losses: &[f64]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for loss in losses {
        for byte in loss.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// The deterministic reference: [`REFERENCE_EPOCHS`] interleaved epochs of
/// the same plan, seed and step on a fresh session.
pub struct Reference {
    pub setup: Setup,
    pub plan: String,
    pub nnz: usize,
    pub initial_loss: f64,
    pub losses: Vec<f64>,
    pub hash: u64,
    /// The loss the threaded streams are timed to.
    pub target: f64,
}

pub fn reference_run(case: &Case<'_>) -> Reference {
    let (mut stream, setup) = case.open(ExecutionMode::Interleaved);
    let losses: Vec<f64> = stream
        .by_ref()
        .take(REFERENCE_EPOCHS)
        .map(|event| event.loss)
        .collect();
    Reference {
        setup,
        plan: stream.plan().describe(),
        nnz: stream.task().data.matrix.nnz(),
        initial_loss: stream.trace().initial_loss,
        hash: trace_hash(&losses),
        target: losses.last().copied().unwrap_or(f64::NAN) * (1.0 + case.spec.target_margin),
        losses,
    }
}

/// What one fresh threaded session measured.
pub struct SessionRun {
    pub setup: Setup,
    /// Whether the session built its layouts (always, except a coldstart
    /// session that found the layout file and adopted it).
    pub built_layouts: bool,
    /// Wall-clock of every `next()`, warm-up included.
    pub epoch_s: Vec<f64>,
    pub losses: Vec<f64>,
    /// Seconds from stream start to the loss target (linear between the
    /// ends of the two epochs that straddle it).
    pub time_to_loss_s: Option<f64>,
    /// 1-based epoch that first met the target.
    pub epochs_to_loss: Option<usize>,
    /// `VmHWM` of this session: from before its input copy to its last epoch.
    pub peak_rss_bytes: u64,
}

impl SessionRun {
    pub fn timed_epochs(&self) -> &[f64] {
        self.epoch_s.get(WARMUP_EPOCHS..).unwrap_or(&[])
    }
}

/// Open a fresh threaded session and drive it to the loss target, then on
/// until `share` seconds have passed since the session began (input copy
/// and set-up included, so a run lasts what `--seconds` says).
fn threaded_session(
    case: &Case<'_>,
    reference: &Reference,
    share: f64,
    built_layouts: bool,
    out: &mut Outcome,
) -> SessionRun {
    let session_clock = Instant::now();
    let (mut stream, setup) = case.open(ExecutionMode::Threaded);
    out.check(stream.plan().describe() == reference.plan, || {
        format!(
            "plan changed between sessions: {} vs {}",
            stream.plan().describe(),
            reference.plan
        )
    });
    let mut run = SessionRun {
        setup,
        built_layouts,
        epoch_s: Vec::new(),
        losses: Vec::new(),
        time_to_loss_s: None,
        epochs_to_loss: None,
        peak_rss_bytes: 0,
    };
    let start = Instant::now();
    let (mut previous_end, mut previous_loss) = (0.0, reference.initial_loss);
    loop {
        let reached = run.time_to_loss_s.is_some();
        // Always leave at least one epoch past the warm-up to time.
        let timed_one = run.epoch_s.len() > WARMUP_EPOCHS;
        if (reached && timed_one && session_clock.elapsed().as_secs_f64() >= share)
            || (!reached && run.epoch_s.len() >= MAX_EPOCHS_TO_TARGET)
        {
            break;
        }
        let clock = Instant::now();
        let Some(event) = stream.next() else { break };
        run.epoch_s.push(clock.elapsed().as_secs_f64());
        let end = start.elapsed().as_secs_f64();
        if !reached && event.loss <= reference.target {
            let fraction = if previous_loss > event.loss {
                ((previous_loss - reference.target) / (previous_loss - event.loss)).clamp(0.0, 1.0)
            } else {
                1.0
            };
            run.time_to_loss_s = Some(previous_end + fraction * (end - previous_end));
            run.epochs_to_loss = Some(run.epoch_s.len());
        }
        run.losses.push(event.loss);
        (previous_end, previous_loss) = (end, event.loss);
    }
    run.peak_rss_bytes = host::peak_rss_bytes();

    // One set-up, the epochs, and the loss target are the operations.
    out.attempted += 1 + run.epoch_s.len() as u64;
    out.check(run.time_to_loss_s.is_some(), || {
        format!(
            "loss target {} not reached in {} epochs (last loss {:?})",
            reference.target,
            run.epoch_s.len(),
            run.losses.last()
        )
    });
    out.check(run.losses.iter().all(|loss| loss.is_finite()), || {
        "a threaded epoch produced a non-finite loss".to_string()
    });
    if let (Some(budget), Some(cache)) = (
        case.source.memory_budget(),
        stream.task().data.matrix.ooc_stats(),
    ) {
        out.check(cache.peak_resident_bytes <= budget, || {
            format!(
                "page cache peaked at {} B, above the {budget} B budget",
                cache.peak_resident_bytes
            )
        });
    }
    run
}

/// Everything the sessions of one run measured.
pub struct Measured {
    pub reference: Reference,
    /// Coldstart only: set-up of the interleaved session that re-opened the
    /// layout file.
    pub warm_reference_setup: Option<Setup>,
    pub sessions: Vec<SessionRun>,
}

impl Measured {
    pub fn timed_epochs(&self) -> Vec<f64> {
        self.sessions
            .iter()
            .flat_map(|run| run.timed_epochs().iter().copied())
            .collect()
    }

    /// Set-up seconds of every session (the interleaved ones included) that
    /// did (`built_layouts`) or did not build its layouts.
    pub fn setup_seconds(&self, built_layouts: bool) -> Vec<f64> {
        let reference = if built_layouts {
            Some(self.reference.setup)
        } else {
            self.warm_reference_setup
        };
        reference
            .iter()
            .chain(
                self.sessions
                    .iter()
                    .filter(|run| run.built_layouts == built_layouts)
                    .map(|run| &run.setup),
            )
            .map(Setup::total)
            .collect()
    }
}

/// Measure one training workload on the product path with `sessions` fresh
/// threaded sessions (of each flavour, on coldstart).  Every session gets an
/// equal share of `seconds`, so no one session's memory placement dominates
/// the epoch statistics.
pub fn measure(case: &Case<'_>, seconds: f64, sessions: usize, out: &mut Outcome) -> Measured {
    case.remove_layout_file();
    let reference = reference_run(case);
    out.check(
        reference.losses.len() == REFERENCE_EPOCHS
            && reference.losses.iter().all(|loss| loss.is_finite()),
        || format!("reference run losses {:?}", reference.losses),
    );

    let mut runs = Vec::new();
    let mut warm_reference_setup = None;
    if case.spec.coldstart {
        // Cold sessions build layouts by streaming the page file under the
        // budget and persist them; warm ones find the `.dwlt` and adopt it.
        // The interleaved reference above was a cold session too; its warm
        // twin must reproduce its losses bit for bit.
        let share = seconds / (2 * sessions) as f64;
        for _ in 0..sessions {
            case.remove_layout_file();
            runs.push(threaded_session(case, &reference, share, true, out));
        }
        let warm_reference = reference_run(case);
        out.check(warm_reference.hash == reference.hash, || {
            format!(
                "re-opened .dwlt run diverged from the paged run: {:?} vs {:?}",
                warm_reference.losses, reference.losses
            )
        });
        warm_reference_setup = Some(warm_reference.setup);
        for _ in 0..sessions {
            runs.push(threaded_session(case, &reference, share, false, out));
        }
    } else {
        let share = seconds / sessions as f64;
        for _ in 0..sessions {
            runs.push(threaded_session(case, &reference, share, true, out));
        }
    }

    let final_loss = runs
        .last()
        .and_then(|run| run.losses.last().copied())
        .unwrap_or(f64::NAN);
    let ceiling = case.spec.loss_ceiling * reference.initial_loss;
    out.check(final_loss <= ceiling, || {
        format!("final loss {final_loss} above the ceiling {ceiling}")
    });
    Measured {
        reference,
        warm_reference_setup,
        sessions: runs,
    }
}

/// `--trace 0`: the end-to-end metrics of a training workload.
pub fn run_untraced(case: &Case<'_>, seconds: f64, out: &mut Outcome) {
    let sessions = session_count(seconds, case.spec.coldstart);
    let measured = measure(case, seconds, sessions, out);
    let timed = measured.timed_epochs();
    // One median epoch and one throughput sample per session.  The shared
    // host only ever slows a session down, for seconds at a time, and the
    // sessions it leaves alone agree to 3 %: the run's value is the
    // quartile on the good side over its sessions, which ten runs of the
    // same code reproduce to 4 % where the median over sessions spreads 15 %
    // (`qp_graph_col`, a noisy hour).  A change to the code moves every
    // session, and with them the quartile.
    let session_epochs = || {
        measured
            .sessions
            .iter()
            .map(|run| run.timed_epochs())
            .filter(|epochs| !epochs.is_empty())
    };
    let session_p50: Vec<f64> = session_epochs().map(median).collect();
    let throughput: Vec<f64> = session_epochs()
        .map(|epochs| {
            measured.reference.nnz as f64 * epochs.len() as f64 / epochs.iter().sum::<f64>()
        })
        .collect();
    let to_loss: Vec<f64> = measured
        .sessions
        .iter()
        .filter_map(|run| run.time_to_loss_s)
        .collect();
    // Sessions that adopt the `.dwlt` hold an mmap instead of built layouts;
    // the budget bounds the sessions that build, so theirs is the peak
    // reported.
    let peaks: Vec<f64> = measured
        .sessions
        .iter()
        .filter(|run| run.built_layouts)
        .map(|run| run.peak_rss_bytes as f64)
        .collect();

    out.set("setup_s", median(&measured.setup_seconds(true)));
    out.set("epoch_p50_s", quartiles(&session_p50).0);
    out.set("nnz_per_s", quartiles(&throughput).1);
    out.set("time_to_loss_s", quartiles(&to_loss).0);
    out.set("peak_rss_bytes", median(&peaks));

    note_context(case, &measured, out);
    out.note("setup_samples_s", Json::nums(measured.setup_seconds(true)));
    if case.spec.coldstart {
        out.note(
            "warm_setup_samples_s",
            Json::nums(measured.setup_seconds(false)),
        );
    }
    out.note("time_to_loss_samples_s", Json::nums(to_loss));
    out.note(
        "session_peak_rss_bytes",
        Json::nums(
            measured
                .sessions
                .iter()
                .map(|run| run.peak_rss_bytes as f64),
        ),
    );
    out.note("session_nnz_per_s", Json::nums(throughput));
    out.note("timed_epochs", Json::Num(timed.len() as f64));
    out.note("pooled_epoch_p50_s", Json::Num(median(&timed)));
    out.note("session_epoch_p50_s", Json::nums(session_p50));
    if let Some((percentile, value)) = tail(&timed) {
        out.note(
            "epoch_tail",
            Json::obj([
                ("percentile", Json::Num(percentile)),
                ("seconds", Json::Num(value)),
            ]),
        );
    }
}

/// Context common to both modes: the plan, sizes, the reference run.
pub fn note_context(case: &Case<'_>, measured: &Measured, out: &mut Outcome) {
    let reference = &measured.reference;
    out.note("plan", Json::str(reference.plan.clone()));
    out.note("workers", Json::Num(case.workers as f64));
    out.note("nnz", Json::Num(reference.nnz as f64));
    out.note("step", Json::Num(case.spec.step));
    out.note("initial_loss", Json::Num(reference.initial_loss));
    out.note("loss_target", Json::Num(reference.target));
    out.note(
        "reference_losses",
        Json::nums(reference.losses.iter().copied()),
    );
    out.note("trace_hash", Json::str(format!("{:016x}", reference.hash)));
    out.note(
        "epochs_to_loss",
        Json::nums(
            measured
                .sessions
                .iter()
                .filter_map(|run| run.epochs_to_loss)
                .map(|epochs| epochs as f64),
        ),
    );
    if let Some(budget) = case.source.memory_budget() {
        out.note("memory_budget_bytes", Json::Num(budget as f64));
    }
}
