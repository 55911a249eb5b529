//! Integration tests for the session API: streaming epochs, early stopping,
//! cooperative cancellation, pluggable executors, and trace parity with the
//! blocking `Engine` facade.

use dimmwitted::{
    AccessMethod, AnalyticsTask, CancelToken, DataReplication, DimmWitted, Engine, EpochEvent,
    ExecutionMode, ExecutionPlan, InterleavedExecutor, ItemScheduler, ModelKind, ModelReplication,
    RunConfig, SpawnPerEpochExecutor, StopReason, ThreadedExecutor,
};
use dw_data::{Dataset, PaperDataset};
use dw_numa::MachineTopology;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn machine() -> MachineTopology {
    MachineTopology::local2()
}

fn svm_task() -> AnalyticsTask {
    AnalyticsTask::from_dataset(
        &Dataset::generate(PaperDataset::Reuters, 42),
        ModelKind::Svm,
    )
}

#[test]
fn streaming_run_stops_early_at_a_loss_target() {
    let task = svm_task();
    let initial = task.initial_loss();
    let target = initial * 0.6;
    let mut stream = DimmWitted::on(machine())
        .task(task)
        .plan_auto()
        .epochs(100)
        .until_loss(target)
        .build()
        .stream();

    let events: Vec<EpochEvent> = stream.by_ref().collect();
    assert_eq!(stream.stop_reason(), Some(StopReason::LossTarget));
    assert!(
        events.len() < 100,
        "should stop well before the 100-epoch budget, ran {}",
        events.len()
    );
    let last = events.last().expect("at least one epoch");
    assert!(last.loss <= target);
    // Every earlier epoch was above the target (the stop is tight).
    for event in &events[..events.len() - 1] {
        assert!(event.loss > target);
    }
    let report = stream.into_report();
    assert_eq!(report.trace.epochs(), events.len());
    assert!(report.final_loss() <= target);
}

#[test]
fn cancellation_mid_run_is_cooperative() {
    let token = CancelToken::new();
    let cancel_at = 3;
    let observed = Arc::new(AtomicUsize::new(0));

    let observer_token = token.clone();
    let observer_count = Arc::clone(&observed);
    let mut stream = DimmWitted::on(machine())
        .task(svm_task())
        .plan_auto()
        .epochs(50)
        .cancel_token(token)
        .on_epoch(move |event| {
            observer_count.fetch_add(1, Ordering::SeqCst);
            if event.epoch == cancel_at {
                observer_token.cancel();
            }
        })
        .build()
        .stream();

    for _ in stream.by_ref() {}
    assert_eq!(stream.stop_reason(), Some(StopReason::Cancelled));
    assert_eq!(stream.trace().epochs(), cancel_at);
    assert_eq!(observed.load(Ordering::SeqCst), cancel_at);
}

#[test]
fn executor_refactor_is_bit_identical_to_the_engine_interleaved_path() {
    // The determinism contract of the refactor: a session with an explicit
    // InterleavedExecutor, the default interleaved session, and the legacy
    // Engine::run facade must all produce bit-identical ConvergenceTraces
    // for a fixed seed — across every model-replication strategy.
    let m = machine();
    let task = svm_task();
    let config = RunConfig::quick(4).with_seed(1234);
    for replication in ModelReplication::all() {
        let plan = ExecutionPlan::new(
            &m,
            AccessMethod::RowWise,
            replication,
            DataReplication::Sharding,
        );
        let engine_report = Engine::new(m.clone()).run(&task, &plan, &config);
        let session_report = DimmWitted::on(m.clone())
            .task(task.clone())
            .plan(plan.clone())
            .config(config.clone())
            .build()
            .run();
        let explicit_report = DimmWitted::on(m.clone())
            .task(task.clone())
            .plan(plan.clone())
            .config(config.clone())
            .executor(Box::new(InterleavedExecutor::new()))
            .build()
            .run();
        // Bit-identical: ConvergenceTrace comparison is exact f64 equality.
        assert_eq!(engine_report.trace, session_report.trace, "{replication}");
        assert_eq!(engine_report.trace, explicit_report.trace, "{replication}");
        assert_eq!(
            engine_report.final_model, session_report.final_model,
            "{replication}"
        );
    }
}

#[test]
fn trace_parity_holds_for_every_model_and_access_method() {
    // Lazy layout materialization and NUMA data shards must not change a
    // single bit of any trace: for all five paper models, under the
    // row-wise method and *both* columnar methods, the Engine facade and an
    // explicit-executor session produce identical traces — including the
    // row-wise Sharding path, which now reads through real per-node shards.
    let m = machine();
    let cases: Vec<(PaperDataset, ModelKind)> = vec![
        (PaperDataset::Reuters, ModelKind::Svm),
        (PaperDataset::Reuters, ModelKind::Lr),
        (PaperDataset::Forest, ModelKind::Ls),
        (PaperDataset::AmazonLp, ModelKind::Lp),
        (PaperDataset::AmazonQp, ModelKind::Qp),
    ];
    let config = RunConfig::quick(2).with_seed(99);
    for (dataset, kind) in cases {
        let task = AnalyticsTask::from_dataset(&Dataset::generate(dataset, 17), kind);
        for access in [
            AccessMethod::RowWise,
            AccessMethod::ColumnWise,
            AccessMethod::ColumnToRow,
        ] {
            for data_replication in [DataReplication::Sharding, DataReplication::FullReplication] {
                let plan =
                    ExecutionPlan::new(&m, access, ModelReplication::PerNode, data_replication)
                        .with_workers(4);
                let engine_report = Engine::new(m.clone()).run(&task, &plan, &config);
                let session_report = DimmWitted::on(m.clone())
                    .task(task.clone())
                    .plan(plan.clone())
                    .config(config.clone())
                    .executor(Box::new(InterleavedExecutor::new()))
                    .build()
                    .run();
                assert_eq!(
                    engine_report.trace, session_report.trace,
                    "{kind} / {access} / {data_replication}"
                );
                assert_eq!(
                    engine_report.final_model, session_report.final_model,
                    "{kind} / {access} / {data_replication}"
                );
                assert!(engine_report.final_loss().is_finite());
            }
        }
    }
}

#[test]
fn locality_first_on_one_group_is_bit_identical_to_round_robin() {
    // The degenerate-case contract of the locality-aware scheduler: with a
    // single locality group (PerMachine) and stealing disabled, owner-
    // directed dealing must collapse to exactly the old global round-robin —
    // same shuffle, same per-worker items, bit-identical traces and models.
    // Axis-generic: the contract holds for row-wise plans (row items) and
    // both columnar methods (column items) alike.
    let m = machine();
    let config = RunConfig::quick(4).with_seed(2024);
    for access in [
        AccessMethod::RowWise,
        AccessMethod::ColumnWise,
        AccessMethod::ColumnToRow,
    ] {
        let base = ExecutionPlan::new(
            &m,
            access,
            ModelReplication::PerMachine,
            DataReplication::Sharding,
        )
        .with_workers(4);
        for task in [
            svm_task(),
            AnalyticsTask::from_dataset(&Dataset::generate(PaperDataset::Forest, 7), ModelKind::Ls),
        ] {
            let locality = DimmWitted::on(m.clone())
                .task(task.clone())
                .plan(base.clone().with_steal_budget(0))
                .config(config.clone())
                .executor(Box::new(InterleavedExecutor::new()))
                .build()
                .run();
            let round_robin = DimmWitted::on(m.clone())
                .task(task.clone())
                .plan(base.clone().with_scheduler(ItemScheduler::RoundRobin))
                .config(config.clone())
                .executor(Box::new(InterleavedExecutor::new()))
                .build()
                .run();
            assert_eq!(locality.trace, round_robin.trace, "{access} {}", task.name);
            assert_eq!(
                locality.final_model, round_robin.final_model,
                "{access} {}",
                task.name
            );
        }
    }
}

#[test]
fn columnar_shard_indirection_never_moves_a_bit() {
    // The determinism contract of the columnar zero-copy shards: under
    // round-robin dealing the per-worker item lists are identical whether or
    // not real column shards exist, so running the *same* assignment once
    // through a sharded replica set — every column read resolving through an
    // owner shard window — and once through full references must produce
    // bit-identical models, for every model family and both columnar
    // methods.
    use dimmwitted::plan::build_epoch_assignment;
    use dimmwitted::{EpochContext, Executor};
    use dw_numa::PlacementPolicy;
    use dw_optim::AtomicModel;

    let m = machine();
    let config = RunConfig::quick(1).with_seed(77);
    let cases: Vec<(PaperDataset, ModelKind)> = vec![
        (PaperDataset::Reuters, ModelKind::Svm),
        (PaperDataset::AmazonQp, ModelKind::Qp),
        (PaperDataset::AmazonLp, ModelKind::Lp),
    ];
    for (dataset, kind) in cases {
        let task = AnalyticsTask::from_dataset(&Dataset::generate(dataset, 5), kind);
        for access in [AccessMethod::ColumnWise, AccessMethod::ColumnToRow] {
            let plan = ExecutionPlan::new(
                &m,
                access,
                ModelReplication::PerNode,
                DataReplication::Sharding,
            )
            .with_workers(4)
            .with_scheduler(ItemScheduler::RoundRobin);
            let sharded =
                dimmwitted::DataReplicaSet::build(&plan, &m, PlacementPolicy::NumaAware, &task);
            assert!(sharded.is_sharded(), "{kind}/{access}");
            // A full-reference set of the same group structure (built from
            // the FullReplication variant of the plan).
            let full_plan = ExecutionPlan::new(
                &m,
                access,
                ModelReplication::PerNode,
                DataReplication::FullReplication,
            )
            .with_workers(4);
            let full = dimmwitted::DataReplicaSet::build(
                &full_plan,
                &m,
                PlacementPolicy::NumaAware,
                &task,
            );
            assert!(!full.is_sharded());

            let run = |set: &dimmwitted::DataReplicaSet| {
                let mut executor = InterleavedExecutor::new();
                let replicas: Vec<_> = (0..plan.locality_groups(&m))
                    .map(|_| std::sync::Arc::new(AtomicModel::zeros(task.dim())))
                    .collect();
                let step = task.objective.default_col_step();
                for epoch in 0..3 {
                    // Round-robin dealing ignores the replica set, so both
                    // runs process identical per-worker item lists.
                    let assignment = build_epoch_assignment(
                        &plan,
                        &m,
                        &task.data,
                        epoch,
                        config.seed,
                        None,
                        Some(set),
                    );
                    let ctx = EpochContext {
                        task: &task,
                        plan: &plan,
                        config: &config,
                        machine: &m,
                        assignment: &assignment,
                        replicas: &replicas,
                        data: set,
                        step,
                    };
                    executor.run_epoch(&ctx);
                }
                replicas
                    .iter()
                    .flat_map(|r| r.snapshot())
                    .map(f64::to_bits)
                    .collect::<Vec<u64>>()
            };
            assert_eq!(
                run(&sharded),
                run(&full),
                "{kind}/{access}: shard indirection moved the model"
            );
        }
    }
}

#[test]
fn locality_first_raises_data_locality_on_sharded_groups() {
    // The headline scheduler claim: under row-wise Sharding with 2 locality
    // groups, round-robin dealing leaves ~1/2 of the reads node-local while
    // locality-first dealing (stealing disabled) keeps all of them local.
    let m = machine();
    let base = ExecutionPlan::new(
        &m,
        AccessMethod::RowWise,
        ModelReplication::PerNode,
        DataReplication::Sharding,
    )
    .with_workers(4);
    let locality_of = |plan: ExecutionPlan| {
        let events: Vec<EpochEvent> = DimmWitted::on(machine())
            .task(svm_task())
            .plan(plan)
            .epochs(3)
            .build()
            .stream()
            .collect();
        events.iter().map(|e| e.data_locality).sum::<f64>() / events.len() as f64
    };
    let round_robin = locality_of(base.clone().with_scheduler(ItemScheduler::RoundRobin));
    let locality_first = locality_of(base.with_steal_budget(0));
    assert!(
        (0.3..=0.7).contains(&round_robin),
        "round-robin locality {round_robin} should sit near 1/groups"
    );
    assert!(
        locality_first >= 0.9,
        "locality-first locality {locality_first} should approach 1.0"
    );
}

#[test]
fn columnar_locality_first_raises_data_locality_on_sharded_groups() {
    // The columnar mirror of the headline scheduler claim: under Sharding
    // with 2 locality groups, round-robin dealing leaves ~1/2 of the column
    // reads node-local while locality-first dealing (stealing disabled)
    // keeps all of them local — for both SCD-family access methods, on
    // supervised and graph tasks alike.
    let m = machine();
    let cases: Vec<(PaperDataset, ModelKind)> = vec![
        (PaperDataset::Reuters, ModelKind::Svm),
        (PaperDataset::AmazonQp, ModelKind::Qp),
    ];
    for (dataset, kind) in cases {
        let task = AnalyticsTask::from_dataset(&Dataset::generate(dataset, 23), kind);
        for access in [AccessMethod::ColumnWise, AccessMethod::ColumnToRow] {
            let base = ExecutionPlan::new(
                &m,
                access,
                ModelReplication::PerNode,
                DataReplication::Sharding,
            )
            .with_workers(4);
            let locality_of = |plan: ExecutionPlan| {
                let mut shard_bytes = None;
                let mut stream = DimmWitted::on(m.clone())
                    .task(task.clone())
                    .plan(plan)
                    .epochs(3)
                    .build()
                    .stream();
                let events: Vec<EpochEvent> = stream.by_ref().collect();
                let replicas = stream.data_replicas();
                if replicas.is_sharded() {
                    shard_bytes = Some(replicas.total_bytes());
                }
                (
                    events.iter().map(|e| e.data_locality).sum::<f64>() / events.len() as f64,
                    shard_bytes,
                )
            };
            let (round_robin, _) =
                locality_of(base.clone().with_scheduler(ItemScheduler::RoundRobin));
            let (locality_first, shard_bytes) = locality_of(base.with_steal_budget(0));
            assert!(
                (0.3..=0.7).contains(&round_robin),
                "{kind}/{access}: round-robin locality {round_robin} should sit near 1/groups"
            );
            assert!(
                locality_first >= 0.9,
                "{kind}/{access}: locality-first locality {locality_first} should approach 1.0"
            );
            assert_eq!(
                shard_bytes,
                Some(0),
                "{kind}/{access}: column shards are zero-copy"
            );
        }
    }
}

#[test]
fn threaded_executors_share_the_session_surface() {
    // Both threaded mechanisms run through the same builder and converge;
    // the persistent pool is the default for ExecutionMode::Threaded.
    let task = svm_task();
    let initial = task.initial_loss();
    let plan = ExecutionPlan::hogwild(&machine()).with_workers(4);
    for executor in [
        Box::new(ThreadedExecutor::new()) as Box<dyn dimmwitted::Executor>,
        Box::new(SpawnPerEpochExecutor::new()),
    ] {
        let report = DimmWitted::on(machine())
            .task(task.clone())
            .plan(plan.clone())
            .epochs(3)
            .executor(executor)
            .build()
            .run();
        assert_eq!(report.trace.epochs(), 3);
        assert!(report.final_loss() < initial);
    }
    let default_threaded = DimmWitted::on(machine())
        .task(task.clone())
        .plan(plan)
        .epochs(2)
        .mode(ExecutionMode::Threaded)
        .build()
        .stream();
    assert_eq!(default_threaded.executor_name(), "threaded-pool");
    let report = default_threaded.run_to_end();
    assert!(report.final_loss() < initial);
}

#[test]
fn pernode_threaded_session_terminates() {
    // Regression for the seed deadlock: the PerNode asynchronous averaging
    // actor must observe worker completion and exit (the seed signalled it
    // only after the thread scope joined, which never happened).
    let plan = ExecutionPlan::new(
        &machine(),
        AccessMethod::RowWise,
        ModelReplication::PerNode,
        DataReplication::Sharding,
    )
    .with_workers(4);
    for executor in [
        Box::new(ThreadedExecutor::new()) as Box<dyn dimmwitted::Executor>,
        Box::new(SpawnPerEpochExecutor::new()),
    ] {
        let report = DimmWitted::on(machine())
            .task(svm_task())
            .plan(plan.clone())
            .epochs(2)
            .executor(executor)
            .build()
            .run();
        assert_eq!(report.trace.epochs(), 2);
    }
}

#[test]
fn concurrent_server_sessions_match_their_solo_traces() {
    // The multi-tenant determinism contract: admitting two sessions onto
    // one server — one shared worker pool, epochs time-sliced by the fair
    // scheduler — must not move a single bit of either trace relative to
    // running each session alone.  Checked for both execution mechanisms:
    // deterministic interleaving, and real threads on the shared pool with
    // PerCore replication (each worker owns its replica, so threading
    // introduces no races).
    use dw_serve::{Execution, Server, SessionSpec};

    let m = machine();
    let specs: Vec<(&str, AnalyticsTask, u64)> = vec![
        ("svm", svm_task(), 11),
        (
            "lr",
            AnalyticsTask::from_dataset(
                &Dataset::generate(PaperDataset::Reuters, 42),
                ModelKind::Lr,
            ),
            22,
        ),
    ];
    for execution in [Execution::Interleaved, Execution::SharedPool] {
        let plan = ExecutionPlan::new(
            &m,
            AccessMethod::RowWise,
            ModelReplication::PerCore,
            DataReplication::Sharding,
        )
        .with_workers(4);

        // Solo baselines, each owning the whole machine.
        let solo: Vec<_> = specs
            .iter()
            .map(|(_, task, seed)| {
                let builder = DimmWitted::on(m.clone())
                    .task(task.clone())
                    .plan(plan.clone())
                    .epochs(5)
                    .seed(*seed);
                let builder = match execution {
                    Execution::SharedPool => builder.mode(ExecutionMode::Threaded),
                    Execution::Interleaved => builder,
                };
                builder.build().run().trace
            })
            .collect();

        // The same two sessions, concurrent tenants of one server.
        let server = Server::builder(m.clone())
            .pool_workers(4)
            .trainers(2)
            .build();
        let handles: Vec<_> = specs
            .iter()
            .map(|(name, task, seed)| {
                server.admit(
                    SessionSpec::new(*name, task.clone())
                        .plan(plan.clone())
                        .epochs(5)
                        .seed(*seed)
                        .execution(execution),
                )
            })
            .collect();
        for (handle, solo_trace) in handles.iter().zip(&solo) {
            let (trace, reason) = handle.wait();
            assert_eq!(reason, StopReason::EpochBudget);
            assert_eq!(
                &trace,
                solo_trace,
                "{} under {execution:?}: concurrent trace diverged from solo",
                handle.name()
            );
        }
        server.shutdown();
    }
}

#[test]
fn threaded_auto_steal_latency_feedback_stays_within_the_derived_cap() {
    // The latency-feedback loop end to end: 3 workers over 2 locality
    // groups force cross-group steals, a threaded session times each
    // epoch's stolen batches against the critical path, and the retuned
    // budget must never leave [0, cap] — cap being the derived economic
    // bound.  Stolen items are credited to the thief's group, so measured
    // locality stays at the optimizer's modelled 1.0 the whole way.
    let m = machine();
    let task = svm_task();
    let plan = ExecutionPlan::new(
        &m,
        AccessMethod::RowWise,
        ModelReplication::PerNode,
        DataReplication::Sharding,
    )
    .with_workers(3);
    let cap = dimmwitted::plan::tuned_steal_budget(&plan, &m, task.examples());
    assert!(cap > 0, "imbalanced staffing derives a non-zero cap");
    let mut stream = DimmWitted::on(m.clone())
        .task(task)
        .plan(plan)
        .epochs(6)
        .auto_steal_budget()
        .executor(Box::new(ThreadedExecutor::new()))
        .build()
        .stream();
    let mut first_steals = None;
    loop {
        // The budget the *next* epoch will run with — inspected every
        // round-trip so no intermediate retune can escape the cap.
        let budget = match stream.plan().scheduler {
            ItemScheduler::LocalityFirst { steal_budget } => steal_budget,
            _ => unreachable!("auto-steal keeps the locality-first scheduler"),
        };
        assert!(
            budget <= cap,
            "budget {budget} exceeded the derived cap {cap}"
        );
        let Some(event) = stream.next() else { break };
        first_steals.get_or_insert(event.steals);
        assert!(event.steals <= cap, "per-epoch steals stay capped");
        assert_eq!(
            event.data_locality, 1.0,
            "thief-credited locality (epoch {})",
            event.epoch
        );
        // The threaded mechanism measures: finite non-negative steal time
        // and idle fraction, with idle bounded by construction.
        assert!(event.steal_seconds >= 0.0 && event.steal_seconds.is_finite());
        assert!((0.0..=1.0).contains(&event.worker_idle));
    }
    assert!(
        first_steals.unwrap() > 0,
        "the derived budget is spent on the imbalance"
    );
}

#[test]
fn memory_binding_never_moves_a_trace() {
    // Physical page binding relocates pages, never data: a session built
    // with the bind pass on and one with it off (the control arm) must
    // produce bit-identical traces and models, under either scheduler and
    // however many groups the shards are bound to.  On single-node or
    // feature-off hosts the binder is inert either way, which makes this
    // exact check meaningful everywhere; whether binding wins wall-clock on
    // a multi-node host is a measurement, not a test.
    let task = svm_task();
    for m in [MachineTopology::local2(), MachineTopology::local4()] {
        for scheduler in [ItemScheduler::RoundRobin, ItemScheduler::default()] {
            let plan = ExecutionPlan::new(
                &m,
                AccessMethod::RowWise,
                ModelReplication::PerNode,
                DataReplication::Sharding,
            )
            .with_workers(4)
            .with_scheduler(scheduler);
            let run = |bind: bool| {
                DimmWitted::on(m.clone())
                    .task(task.clone())
                    .plan(plan.clone())
                    .epochs(3)
                    .seed(7)
                    .bind_memory(bind)
                    .build()
                    .run()
            };
            let bound = run(true);
            let unbound = run(false);
            assert_eq!(bound.trace, unbound.trace, "{}/{scheduler:?}", m.name);
            assert_eq!(bound.final_model, unbound.final_model);
        }
    }
}

#[test]
fn convergence_stop_and_observers_compose() {
    let seen = Arc::new(AtomicUsize::new(0));
    let count = Arc::clone(&seen);
    let mut stream = DimmWitted::on(machine())
        .task(svm_task())
        .plan_auto()
        .epochs(200)
        .until_converged(1e-3)
        .on_epoch(move |_| {
            count.fetch_add(1, Ordering::SeqCst);
        })
        .build()
        .stream();
    for _ in stream.by_ref() {}
    assert_eq!(stream.stop_reason(), Some(StopReason::Converged));
    assert!(stream.trace().epochs() < 200);
    assert_eq!(seen.load(Ordering::SeqCst), stream.trace().epochs());
}
