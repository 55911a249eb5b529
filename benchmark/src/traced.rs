//! `--trace 1` for the training workloads: the per-layer metrics.
//!
//! A short tracing-off run on the product path gives the untraced epoch the
//! layer numbers must add up to; then the workload runs again through the
//! hand-driven loop ([`crate::handloop`]) with a span around every layer
//! call, plus single-thread passes of the inner kernels.

use crate::handloop::HandSession;
use crate::host;
use crate::json::Json;
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::{median, tail};
use crate::train::{self, Case, WARMUP_EPOCHS};
use dimmwitted::{ExecutionMode, LayoutDecision, ThreadedExecutor};
use dw_matrix::{IndexEncoding, PersistedLayouts};
use dw_optim::{AtomicModel, TaskData};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Share of `--seconds` each of the two phases (tracing off, traced) runs
/// epochs for; the rest of the run is set-ups and the single-thread passes.
const PHASE_SHARE: f64 = 0.4;
/// Fresh threaded sessions of the tracing-off phase.
const UNTRACED_SESSIONS: usize = 2;
const KERNEL_PASSES: usize = 3;

/// Run hand-driven epochs for `seconds`, at least past the warm-up.
fn hand_epochs(hand: &mut HandSession, tracer: &mut Tracer, seconds: f64) -> Vec<f64> {
    let clock = Instant::now();
    let mut losses = Vec::new();
    while losses.len() <= WARMUP_EPOCHS + 2 || clock.elapsed().as_secs_f64() < seconds {
        losses.push(hand.next_epoch(tracer).0);
    }
    losses
}

/// Median over single-thread passes of `TaskData::row_dot` across every
/// row, under whatever kernel decision the plan published: nnz per second.
fn row_dot_pass(data: &TaskData, nnz: usize) -> f64 {
    let model = vec![1.0; data.dim()];
    let rates: Vec<f64> = (0..KERNEL_PASSES)
        .map(|_| {
            let clock = Instant::now();
            let sum: f64 = (0..data.examples())
                .map(|row| data.row_dot(row, black_box(&model)))
                .sum();
            black_box(sum);
            nnz as f64 / clock.elapsed().as_secs_f64()
        })
        .collect();
    median(&rates)
}

/// One single-thread pass of the objective's step over every item on a
/// private model: seconds.
fn step_pass(hand: &HandSession, step: f64) -> f64 {
    let data = &hand.task.data;
    let model = AtomicModel::zeros(data.dim());
    let objective = &hand.task.objective;
    let clock = Instant::now();
    if hand.plan.access.is_columnar() {
        for col in 0..data.dim() {
            objective.col_step(data, col, &model, step);
        }
    } else {
        for row in 0..data.examples() {
            objective.row_step(data, row, &model, step);
        }
    }
    black_box(&model);
    clock.elapsed().as_secs_f64()
}

pub fn run_traced(
    case: &Case<'_>,
    seconds: f64,
    gen_s: f64,
    trace_path: &Path,
    out: &mut Outcome,
) -> std::io::Result<()> {
    // --- Tracing off: the epoch the layer spans must add up to.
    let measured = train::measure(case, PHASE_SHARE * seconds, UNTRACED_SESSIONS, out);
    let untraced = measured.timed_epochs();
    let untraced_p50 = median(&untraced);
    train::note_context(case, &measured, out);

    // --- Traced: the same set-up and epochs, by hand, one span per layer call.
    let mut tracer = Tracer::new();
    let start_hand = |tracer: &mut Tracer| {
        let prepared = case.source.prepare();
        let span = tracer.begin("session.setup");
        let hand = HandSession::start(
            case.machine,
            case.task(prepared.into_task_data()),
            &case.options(),
            case.run_config(ExecutionMode::Threaded),
            Box::new(ThreadedExecutor::new()),
            tracer,
        );
        tracer.end(span);
        hand
    };
    case.remove_layout_file();
    let mut hand = start_hand(&mut tracer);
    let cold_cache = hand.task.data.matrix.ooc_stats();
    // What the cold set-up spent where (a warm coldstart set-up follows and
    // must not be added to these).
    let setup_of = |tracer: &Tracer, name: &str| tracer.setup_seconds(name);
    let materialize_rows_s = setup_of(&tracer, "matrix.materialize_rows");
    let materialize_cols_s = setup_of(&tracer, "matrix.materialize_cols");
    let cold = [
        (
            "optimizer.choose_plan_s",
            setup_of(&tracer, "optimizer.choose_plan"),
        ),
        ("matrix.materialize_rows_s", materialize_rows_s),
        ("matrix.materialize_cols_s", materialize_cols_s),
        (
            "matrix.encode_indices_s",
            setup_of(&tracer, "matrix.encode_indices"),
        ),
        (
            "data_replica.build_s",
            setup_of(&tracer, "data_replica.build"),
        ),
        ("persist.write_s", setup_of(&tracer, "persist.write")),
    ];
    let phases = if case.spec.coldstart { 2.0 } else { 1.0 };
    let mut losses = hand_epochs(&mut hand, &mut tracer, PHASE_SHARE * seconds / phases);
    if case.spec.coldstart {
        // The second session finds the `.dwlt` the first one wrote.
        drop(hand);
        tracer.next_session();
        hand = start_hand(&mut tracer);
        losses = hand_epochs(&mut hand, &mut tracer, PHASE_SHARE * seconds / phases);
    }
    out.attempted += losses.len() as u64;
    out.check(losses.iter().all(|loss| loss.is_finite()), || {
        "a hand-driven epoch produced a non-finite loss".to_string()
    });
    out.check(hand.plan.describe() == measured.reference.plan, || {
        format!(
            "hand-driven plan {} differs from the session's {}",
            hand.plan.describe(),
            measured.reference.plan
        )
    });

    // --- Single-thread passes of the inner kernels (after the epochs, so
    // they cannot warm anything the epochs then benefit from).
    let nnz = measured.reference.nnz;
    let row_dot_rate = row_dot_pass(&hand.task.data, nnz);
    let step_s = step_pass(&hand, case.spec.step);

    // --- Per-layer metrics.
    let skip = WARMUP_EPOCHS as u32;
    let epoch_median = |name: &str| median(&tracer.epoch_samples(name, skip));
    let count_median = |name: &str| median(&tracer.count_samples(name, skip));
    let layers = [
        ("plan.fill_s", "plan.fill"),
        ("executor.run_epoch_s", "executor.run_epoch"),
        ("optim.average_models_s", "optim.average_models"),
        ("optim.full_loss_s", "optim.full_loss"),
    ];
    let mut traced_layers = epoch_median("data_replica.local_read_fraction");
    for (metric, span) in layers {
        let seconds = epoch_median(span);
        traced_layers += seconds;
        out.set(metric, seconds);
    }
    let traced_epochs: Vec<f64> = tracer
        .spans
        .iter()
        .filter(|span| span.name == "session.epoch" && span.epoch >= skip)
        .map(|span| span.seconds())
        .collect();
    let run_epoch_s = epoch_median("executor.run_epoch");
    let busy_max_s = count_median("executor.busy_max_s");
    let items = count_median("plan.items");
    let item_space = if hand.plan.access.is_columnar() {
        hand.task.dim()
    } else {
        hand.task.examples()
    };

    let matrix = &hand.task.data.matrix;
    let source_bytes = matrix.with_coo_source(|coo| coo.size_bytes()).unwrap_or(0)
        + matrix.ooc_stats().map_or(0, |cache| cache.resident_bytes);
    let layout_bytes = matrix.resident_bytes() - source_bytes;
    let index_bytes = match (hand.plan.layout, hand.plan.kernel.encoding) {
        (LayoutDecision::Dense, _) => 0.0,
        (_, IndexEncoding::DeltaU16) => 2.0,
        (_, IndexEncoding::U32) => 4.0,
    };
    let bind = hand.data_replicas.bind_report();
    let streams: Vec<f64> = measured
        .sessions
        .iter()
        .filter(|run| run.built_layouts)
        .map(|run| run.setup.stream_s)
        .collect();

    out.set("data.gen_s", gen_s);
    out.set("data.nnz", nnz as f64);
    out.set("data.bytes", case.source.bytes() as f64);
    for (metric, seconds) in cold {
        out.set(metric, seconds);
    }
    out.set("matrix.layout_bytes", layout_bytes as f64);
    out.set("matrix.bytes_per_nnz", layout_bytes as f64 / nnz as f64);
    out.set("kernels.row_dot_nnz_per_s", row_dot_rate);
    out.set("kernels.row_dot_bytes_per_nnz", index_bytes + 16.0);
    out.set(
        if hand.plan.access.is_columnar() {
            "optim.col_step_nnz_per_s"
        } else {
            "optim.row_step_nnz_per_s"
        },
        nnz as f64 / step_s,
    );
    out.set("plan.steals", count_median("plan.steals"));
    out.set("plan.items", items);
    out.set(
        "data_replica.local_read_fraction",
        count_median("data_replica.local_read_fraction"),
    );
    out.set(
        "data_replica.shard_bytes",
        hand.data_replicas.total_bytes() as f64,
    );
    out.set("executor.busy_max_s", busy_max_s);
    out.set("executor.busy_mean_s", count_median("executor.busy_mean_s"));
    out.set("executor.worker_idle", count_median("executor.worker_idle"));
    out.set("executor.steal_s", count_median("executor.steal_s"));
    out.set("executor.dispatch_overhead_s", run_epoch_s - busy_max_s);
    out.set(
        "executor.parallel_efficiency",
        step_s * (items / item_space as f64) / (case.workers as f64 * run_epoch_s),
    );
    out.set("session.stream_s", median(&streams));
    out.set("session.epoch_other_s", untraced_p50 - traced_layers);
    out.set(
        "session.epoch_tail_s",
        tail(&untraced).map_or_else(|| untraced.iter().copied().fold(0.0, f64::max), |(_, s)| s),
    );
    let epochs_to_loss: Vec<f64> = measured
        .sessions
        .iter()
        .filter_map(|run| run.epochs_to_loss)
        .map(|epochs| epochs as f64)
        .collect();
    out.set("session.epochs_to_loss", median(&epochs_to_loss));
    out.set(
        "session.final_loss",
        measured
            .sessions
            .last()
            .and_then(|run| run.losses.last().copied())
            .unwrap_or(f64::NAN),
    );
    out.set(
        "session.trace_hash",
        (measured.reference.hash & ((1 << 52) - 1)) as f64,
    );
    out.set("numa.nodes", host::numa_nodes() as f64);
    out.set("numa.bind_active", f64::from(u8::from(bind.active)));
    out.set("numa.bind_ranges", bind.ranges as f64);
    out.set("numa.bind_bytes", bind.bytes as f64);
    out.set("sim_exec.predicted_epoch_s", hand.sim.seconds);
    out.set("sim_exec.fidelity", untraced_p50 / hand.sim.seconds);
    out.set(
        "trace.overhead_share",
        median(&traced_epochs) / untraced_p50 - 1.0,
    );
    out.set("trace.spans", tracer.spans.len() as f64);

    if case.spec.coldstart {
        out.set(
            "session.warm_setup_s",
            median(&measured.setup_seconds(false)),
        );
        out.set("ooc.spill_write_s", gen_s);
        out.set(
            "ooc.materialize_stream_s",
            materialize_rows_s + materialize_cols_s,
        );
        out.set("persist.open_s", tracer.setup_seconds("persist.open"));
        if let Some(cache) = cold_cache {
            out.set("ooc.pages_faulted", cache.faults as f64);
            out.set("ooc.io_bytes", cache.io_bytes as f64);
            out.set(
                "ooc.prefetch_hit_ratio",
                cache.prefetch_hits as f64 / (cache.hits + cache.faults).max(1) as f64,
            );
            out.set("ooc.evictions", cache.evictions as f64);
            out.set("ooc.peak_cache_bytes", cache.peak_resident_bytes as f64);
        }
        if let Some(path) = case.options().layout_file {
            out.set(
                "persist.file_bytes",
                std::fs::metadata(&path).map_or(0, |m| m.len()) as f64,
            );
            let mapped = PersistedLayouts::open(&path).is_ok_and(|layouts| layouts.is_mmapped());
            out.set("persist.mmapped", f64::from(u8::from(mapped)));
        }
        resident_reference_check(case, &measured.reference.losses, out);
    }

    out.note("untraced_timed_epochs", Json::Num(untraced.len() as f64));
    out.note("traced_timed_epochs", Json::Num(traced_epochs.len() as f64));
    out.note("untraced_epoch_p50_s", Json::Num(untraced_p50));
    out.note("traced_epoch_p50_s", Json::Num(median(&traced_epochs)));
    tracer.write_jsonl(trace_path, case.spec.name)
}

/// Coldstart only: the paged run (and, through it, the re-opened one) must
/// hash like a plain resident run of the same triplets.  Done last — it
/// holds the full COO in memory, which the coldstart workload otherwise
/// never does.
fn resident_reference_check(case: &Case<'_>, paged_losses: &[f64], out: &mut Outcome) {
    let dir = case.dir();
    let resident_spec = crate::workloads::TrainSpec::by_name("svm_sparse_auto")
        .expect("the resident twin of the coldstart workload");
    let source = resident_spec.generate(case.seed, false, dir, case.machine);
    let resident = Case::new(
        resident_spec,
        case.machine,
        case.workers,
        case.seed,
        &source,
        dir,
    );
    let reference = train::reference_run(&resident);
    out.check(reference.hash == train::trace_hash(paged_losses), || {
        format!(
            "paged run diverged from the resident run: {paged_losses:?} vs {:?}",
            reference.losses
        )
    });
}
