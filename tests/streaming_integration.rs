//! Integration tests for the streaming-ingest subsystem: live-fed sessions
//! bit-match the equivalent static run, drifting arrival statistics move the
//! optimizer's decision through the online replan controller, and the
//! ingest counters (delta-page appends, compactions) surface per epoch.

use dimmwitted::{
    run_online, AccessMethod, AnalyticsTask, DimmWitted, DriftController, EpochEvent, LiveBatch,
    ModelKind, OnlineConfig,
};
use dw_data::{streamed_row, streamed_rows_into};
use dw_matrix::{DataMatrix, LiveSource, SpillWriter, TempSpillDir, ENTRY_BYTES};
use dw_numa::MachineTopology;
use dw_optim::TaskData;
use std::sync::Arc;

fn machine() -> MachineTopology {
    MachineTopology::local2()
}

fn loss_bits(events: &[EpochEvent]) -> Vec<u64> {
    events.iter().map(|e| e.loss.to_bits()).collect()
}

/// Acceptance criterion of the subsystem: a live-fed session whose pages all
/// arrive before epoch 0 produces a convergence trace bit-identical to the
/// same rows spilled statically through a `SpillWriter`.
#[test]
fn live_fed_session_bit_matches_the_static_run() {
    const ROWS: usize = 200;
    const COLS: usize = 64;
    const NNZ: usize = 4;
    const SEED: u64 = 7;
    const EPOCHS: usize = 6;
    const BUDGET: usize = 1 << 20;

    let dir = TempSpillDir::new("dw-stream-parity").unwrap();

    // Static reference: the rows go through the batch spill path.
    let mut writer = SpillWriter::create(dir.file("static.dwp"), ROWS, COLS).unwrap();
    let static_labels = streamed_rows_into(COLS, NNZ, SEED, 0..ROWS, &mut writer);
    let static_source = Arc::new(writer.finish().unwrap().delete_on_drop());
    let static_matrix = DataMatrix::from_source(static_source, BUDGET);

    // Live run: the same rows arrive through the ingest path and are sealed
    // before the session is built.
    let live = LiveSource::create(dir.file("live.dwp"), COLS).unwrap();
    let live_labels = streamed_rows_into(COLS, NNZ, SEED, 0..ROWS, &mut &live);
    live.seal().unwrap();
    assert_eq!(live.rows(), ROWS);
    assert_eq!(static_labels, live_labels);
    let live_matrix = live.snapshot_matrix(BUDGET);

    let run = |matrix: DataMatrix, labels: Vec<f64>| -> Vec<EpochEvent> {
        let task = AnalyticsTask::new(
            "stream",
            TaskData::supervised(matrix, labels),
            ModelKind::Svm,
        );
        let mut stream = DimmWitted::on(machine())
            .task(task)
            .plan_auto()
            .epochs(EPOCHS)
            .seed(13)
            .build()
            .stream();
        let events: Vec<EpochEvent> = stream.by_ref().collect();
        events
    };

    let static_events = run(static_matrix, static_labels);
    let live_events = run(live_matrix, live_labels);
    assert_eq!(static_events.len(), EPOCHS);
    assert_eq!(
        loss_bits(&static_events),
        loss_bits(&live_events),
        "live-fed trace must be bit-identical to the static spill run"
    );
}

/// Incremental stats pre-seeded by `LiveSource::seal` feed the optimizer the
/// same picture as from-scratch stats: both paths resolve the same plan.
#[test]
fn live_snapshot_stats_resolve_the_same_auto_plan_as_static() {
    const ROWS: usize = 120;
    const COLS: usize = 48;
    let dir = TempSpillDir::new("dw-stream-plan").unwrap();

    let mut writer = SpillWriter::create(dir.file("static.dwp"), ROWS, COLS).unwrap();
    let labels = streamed_rows_into(COLS, 3, 21, 0..ROWS, &mut writer);
    let static_source = Arc::new(writer.finish().unwrap().delete_on_drop());
    let static_matrix = DataMatrix::from_source(static_source, 1 << 20);

    let live = LiveSource::create(dir.file("live.dwp"), COLS).unwrap();
    let live_labels = streamed_rows_into(COLS, 3, 21, 0..ROWS, &mut &live);
    live.seal().unwrap();
    let live_matrix = live.snapshot_matrix(1 << 20);

    assert_eq!(static_matrix.stats(), live_matrix.stats());

    let plan_of = |matrix: DataMatrix, labels: Vec<f64>| {
        let task = AnalyticsTask::new("plan", TaskData::supervised(matrix, labels), ModelKind::Svm);
        DimmWitted::on(machine())
            .task(task)
            .plan_auto()
            .epochs(1)
            .build()
            .plan()
            .clone()
    };
    let static_plan = plan_of(static_matrix, labels);
    let live_plan = plan_of(live_matrix, live_labels);
    assert_eq!(static_plan.access, live_plan.access);
    assert_eq!(static_plan.model_replication, live_plan.model_replication);
    assert_eq!(static_plan.layout, live_plan.layout);
}

/// The drift scenario of `EXPERIMENTS.md`: the task starts in column-access
/// territory (many short 2-nnz rows against a wide model, graph-like), then
/// wide 40-nnz rows arrive mid-run and blow up the `Σᵢnᵢ²` column-read term
/// until row-wise access wins.  The replan controller must notice the moved
/// decision and switch the running session's plan — and reach a target loss
/// on the final data no later than the frozen plan on the same schedule.
#[test]
fn drift_controller_switches_access_method_under_arrival_drift() {
    const COLS: usize = 300;
    const BASE_ROWS: usize = 400;
    const WIDE_PER_EPOCH: usize = 20;
    const WIDE_EPOCHS: usize = 5;
    const EPOCHS: usize = 12;
    const SEED: u64 = 3;

    let dir = TempSpillDir::new("dw-stream-drift").unwrap();
    let run = |name: &str, controller: Option<&mut DriftController>| {
        let live = LiveSource::create(dir.file(name), COLS).unwrap();
        let mut labels = streamed_rows_into(COLS, 2, SEED, 0..BASE_ROWS, &mut &live);
        live.seal().unwrap();

        let task = AnalyticsTask::new(
            "drift",
            TaskData::supervised(live.snapshot_matrix(1 << 20), labels.clone()),
            ModelKind::Svm,
        );
        let mut stream = DimmWitted::on(machine())
            .task(task)
            .plan_auto()
            .epochs(EPOCHS)
            .seed(5)
            .build()
            .stream();
        assert_ne!(
            stream.plan().access,
            AccessMethod::RowWise,
            "the 2-nnz graph-shaped prefix must start in column-access territory"
        );

        let outcome = run_online(
            &mut stream,
            &live,
            &mut labels,
            |epoch| {
                if (1..=WIDE_EPOCHS).contains(&epoch) {
                    let start = BASE_ROWS + (epoch - 1) * WIDE_PER_EPOCH;
                    let mut batch = LiveBatch::default();
                    for row in start..start + WIDE_PER_EPOCH {
                        let (cols, label) = streamed_row(COLS, 40, SEED, row);
                        batch.rows.push(cols);
                        batch.labels.push(label);
                    }
                    Some(batch)
                } else {
                    None
                }
            },
            controller,
            &OnlineConfig {
                cache_budget: 1 << 20,
                compact_above_pages: None,
            },
        )
        .unwrap();
        assert_eq!(live.rows(), BASE_ROWS + WIDE_EPOCHS * WIDE_PER_EPOCH);
        (outcome, stream.plan().access, live, labels)
    };
    let mut controller = DriftController::new(machine()).with_cooldown(1);
    let (outcome, final_access, live, labels) = run("drift.dwp", Some(&mut controller));

    assert!(
        !outcome.replans.is_empty(),
        "drifted stats must trigger at least one replan"
    );
    let switch = &outcome.replans[0];
    assert_ne!(switch.from.access, AccessMethod::RowWise);
    assert_eq!(
        switch.to.access,
        AccessMethod::RowWise,
        "wide arriving rows must flip the access decision to row-wise"
    );
    assert_eq!(final_access, AccessMethod::RowWise);
    // Every epoch still makes finite progress across adoptions.
    assert!(outcome.events.iter().all(|e| e.loss.is_finite()));

    // The target: 90% of the progress a 60-epoch run makes on the final
    // data; an arm counts the first epoch after the last arrival that
    // reaches it (one past the budget if none does).
    let reference = AnalyticsTask::new(
        "final",
        TaskData::supervised(live.snapshot_matrix(1 << 20), labels),
        ModelKind::Svm,
    );
    let initial = reference.initial_loss();
    let best = DimmWitted::on(machine())
        .task(reference)
        .plan_auto()
        .epochs(60)
        .seed(5)
        .build()
        .run()
        .trace
        .best_loss();
    let target = best + 0.10 * (initial - best);
    let epochs_to_target = |events: &[EpochEvent]| {
        events
            .iter()
            .find(|e| e.epoch > WIDE_EPOCHS && e.loss <= target)
            .map_or(EPOCHS + 1, |e| e.epoch)
    };
    let (frozen_run, _, _, _) = run("frozen.dwp", None);
    let replanned = epochs_to_target(&outcome.events);
    let frozen = epochs_to_target(&frozen_run.events);
    assert!(
        replanned <= frozen.min(EPOCHS),
        "replanning must reach the target within budget and no later than the frozen \
         plan: epoch {replanned} vs {frozen}"
    );
}

/// Without a controller the plan never moves — the frozen baseline the drift
/// test scores the controller against.
#[test]
fn replan_off_baseline_keeps_the_initial_plan() {
    const COLS: usize = 300;
    let dir = TempSpillDir::new("dw-stream-off").unwrap();
    let live = LiveSource::create(dir.file("off.dwp"), COLS).unwrap();
    let mut labels = streamed_rows_into(COLS, 2, 3, 0..400, &mut &live);
    live.seal().unwrap();

    let task = AnalyticsTask::new(
        "off",
        TaskData::supervised(live.snapshot_matrix(1 << 20), labels.clone()),
        ModelKind::Svm,
    );
    let mut stream = DimmWitted::on(machine())
        .task(task)
        .plan_auto()
        .epochs(6)
        .seed(5)
        .build()
        .stream();
    let initial_access = stream.plan().access;

    let outcome = run_online(
        &mut stream,
        &live,
        &mut labels,
        |epoch| {
            if epoch == 1 {
                let mut batch = LiveBatch::default();
                for row in 400..440 {
                    let (cols, label) = streamed_row(COLS, 40, 3, row);
                    batch.rows.push(cols);
                    batch.labels.push(label);
                }
                Some(batch)
            } else {
                None
            }
        },
        None,
        &OnlineConfig {
            cache_budget: 1 << 20,
            compact_above_pages: None,
        },
    )
    .unwrap();
    assert!(outcome.replans.is_empty());
    assert_eq!(stream.plan().access, initial_access);
}

/// Delta-page appends and compactions surface through `EpochEvent`, and
/// LSM-style compaction keeps the sealed page count (read amplification)
/// bounded while staying bit-transparent to readers: the same schedule with
/// compaction off ends on more pages and the same per-epoch losses.
#[test]
fn ingest_counters_surface_per_epoch_and_compaction_bounds_pages() {
    const COLS: usize = 32;
    const BOUND: usize = 3;
    let dir = TempSpillDir::new("dw-stream-compact").unwrap();
    let run = |name: &str, compact_above_pages: Option<usize>| {
        let live = LiveSource::create(dir.file(name), COLS)
            .unwrap()
            .with_page_bytes(64 * ENTRY_BYTES);
        let mut labels = streamed_rows_into(COLS, 2, 17, 0..40, &mut &live);
        live.seal().unwrap();

        let task = AnalyticsTask::new(
            "compact",
            TaskData::supervised(live.snapshot_matrix(1 << 20), labels.clone()),
            ModelKind::Svm,
        );
        let mut stream = DimmWitted::on(machine())
            .task(task)
            .plan_auto()
            .epochs(10)
            .seed(1)
            .build()
            .stream();

        let outcome = run_online(
            &mut stream,
            &live,
            &mut labels,
            |epoch| {
                if (1..=8).contains(&epoch) {
                    let start = 40 + (epoch - 1) * 10;
                    let mut batch = LiveBatch::default();
                    for row in start..start + 10 {
                        let (cols, label) = streamed_row(COLS, 2, 17, row);
                        batch.rows.push(cols);
                        batch.labels.push(label);
                    }
                    Some(batch)
                } else {
                    None
                }
            },
            None,
            &OnlineConfig {
                cache_budget: 1 << 20,
                compact_above_pages,
            },
        )
        .unwrap();
        assert_eq!(live.rows(), 120);
        (outcome.events, live)
    };
    let (events, live) = run("compact.dwp", Some(BOUND));

    let appends: u64 = events.iter().map(|e| e.delta_appends).sum();
    let compactions: u64 = events.iter().map(|e| e.compactions).sum();
    assert!(
        appends >= 8,
        "each arrival epoch seals at least one delta page, saw {appends}"
    );
    assert!(
        compactions >= 1,
        "the page bound must have forced at least one compaction"
    );
    assert!(
        live.page_count() <= BOUND + 1,
        "compaction keeps read amplification bounded: {} pages",
        live.page_count()
    );
    // The counters the events were diffed from agree with the source.
    use std::sync::atomic::Ordering;
    assert_eq!(
        appends,
        live.counters().delta_appends.load(Ordering::Relaxed)
    );
    assert_eq!(
        compactions,
        live.counters().compactions.load(Ordering::Relaxed)
    );
    assert!(events.iter().all(|e| e.loss.is_finite()));

    let (plain_events, plain) = run("plain.dwp", None);
    assert!(
        live.page_count() < plain.page_count(),
        "compaction ends on fewer pages: {} vs {}",
        live.page_count(),
        plain.page_count()
    );
    assert_eq!(
        loss_bits(&events),
        loss_bits(&plain_events),
        "compaction is a storage decision, not a numerics one"
    );
}
