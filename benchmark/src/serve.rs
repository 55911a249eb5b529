//! `serve_cotrain`: one serving tenant (3 epochs, then a frozen snapshot)
//! answering predictions through the `Frontend` while a background trainer
//! shares the worker pool.
//!
//! Closed loop, one client thread, in cycles: a bulk `submit_batch` pass for
//! throughput (the next is sent only after every reply of this one arrived),
//! then a burst of one-in-flight probes for latency, timed by the client
//! from `submit` to the reply in hand.  Threads: the client, one `Frontend`
//! drain worker, one trainer thread, and a pool of `max(W − 1, 1)` workers.

use crate::host;
use crate::json::Json;
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use crate::workloads::SERVE;
use crate::RunArgs;
use dimmwitted::{AnalyticsTask, ModelKind};
use dw_data::generators::{sparse_classification, streamed_row, LabeledData};
use dw_matrix::SparseVector;
use dw_numa::MachineTopology;
use dw_optim::{ConvergenceTrace, TaskData};
use dw_serve::{Frontend, ModelSnapshot, Server, SessionHandle, SessionSpec, SnapshotCell, Ticket};
use std::time::{Duration, Instant};

/// Fresh servers admitted per run; each gives one `setup_s` sample.
const SETUP_SESSIONS: usize = 9;
/// The background trainer never finishes inside the serving window.
const TRAINER_EPOCHS: usize = 1_000_000;
/// One-in-flight probes after every bulk pass.
const PROBES_PER_CYCLE: usize = 250;
/// One reply in this many is re-scored against the snapshot.
const VERIFY_EVERY: usize = 100;
/// Output check: the serving tenant's final loss ≤ this × its initial loss.
const LOSS_CEILING: f64 = 1.0;
const POLL: Duration = Duration::from_micros(100);

fn fresh_task(data: &LabeledData) -> AnalyticsTask {
    AnalyticsTask::new(
        "serve_cotrain",
        TaskData::supervised(data.matrix.clone(), data.labels.clone()),
        ModelKind::Svm,
    )
}

/// Times one call as a span when tracing, plainly otherwise.
fn spanned<T>(tracer: &mut Option<Tracer>, name: &'static str, call: impl FnOnce() -> T) -> T {
    match tracer {
        Some(tracer) => tracer.time(name, call),
        None => call(),
    }
}

/// How long each step of bringing one serving tenant up took, seconds.
struct SetupTimes {
    /// `Server::build` + `admit`.
    admit_s: f64,
    /// Inputs in hand → first snapshot published.
    first_snapshot_s: f64,
    /// `admit` returned → final (frozen) snapshot published.
    frozen_after_admit_s: f64,
}

/// Build a server, admit the serving tenant and wait for it to finish
/// training.
fn admit_serving(
    machine: &MachineTopology,
    pool_workers: usize,
    task: AnalyticsTask,
    seed: u64,
    tracer: &mut Option<Tracer>,
) -> (Server, SessionHandle, ConvergenceTrace, SetupTimes) {
    let start = Instant::now();
    let server = spanned(tracer, "serve.server_build", || {
        Server::builder(machine.clone())
            .pool_workers(pool_workers)
            .trainers(1)
            .build()
    });
    let serving = spanned(tracer, "serve.admit", || {
        server.admit(
            SessionSpec::new("serving", task)
                .epochs(SERVE.serving_epochs)
                .seed(seed),
        )
    });
    let admit_s = start.elapsed().as_secs_f64();
    let predictor = serving.predictor();
    spanned(tracer, "serve.first_snapshot_wait", || {
        while predictor.snapshot().is_none() {
            std::thread::sleep(POLL);
        }
    });
    let first_snapshot_s = start.elapsed().as_secs_f64();
    let (trace, _) = spanned(tracer, "serve.training_wait", || serving.wait());
    let times = SetupTimes {
        admit_s,
        first_snapshot_s,
        frozen_after_admit_s: start.elapsed().as_secs_f64() - admit_s,
    };
    (server, serving, trace, times)
}

/// What the client measured over the serving window.
#[derive(Default)]
struct Window {
    bulk_replies: usize,
    bulk_seconds: f64,
    /// Client-observed round trips of the probes, microseconds.  When
    /// tracing, every other probe carries a span and lands in `spanned_us`,
    /// so the two halves give the tracing overhead.
    plain_us: Vec<f64>,
    spanned_us: Vec<f64>,
    /// The background trainer's seconds per epoch, one sample per cycle.
    trainer_epoch_s: Vec<f64>,
    /// The trainer's epochs, and its own clock, over the whole window.
    trainer_epochs: usize,
    trainer_seconds: f64,
}

/// Run bulk-pass + probe cycles against `serving` for `seconds` (and at
/// least `SERVE.probes` probes) while `trainer` trains in the background.
#[allow(clippy::too_many_arguments)]
fn serving_window(
    frontend: &Frontend,
    serving: &SessionHandle,
    trainer: &SessionHandle,
    frozen: &ModelSnapshot,
    requests: &[SparseVector],
    seconds: f64,
    tracer: &mut Option<Tracer>,
    out: &mut Outcome,
) -> Window {
    let objective = ModelKind::Svm.objective();
    let trainer_view = trainer.predictor();
    // `(epoch, seconds since the trainer's stream started)` of the trainer's
    // latest snapshot, sampled between client operations.
    let observe = || {
        let snapshot = trainer_view.snapshot().expect("trainer published");
        (snapshot.epoch, snapshot.elapsed.as_secs_f64())
    };
    let mut window = Window::default();
    let clock = Instant::now();
    let open = observe();
    let mut cycle_mark = open;
    while clock.elapsed().as_secs_f64() < seconds
        || window.plain_us.len() + window.spanned_us.len() < SERVE.probes
    {
        let inputs = requests.to_vec();
        let span = tracer.as_mut().map(|t| t.begin("serve.bulk_pass"));
        let pass = Instant::now();
        let tickets = frontend.submit_batch(serving, inputs);
        let answered: Vec<_> = tickets.into_iter().map(Ticket::wait).collect();
        window.bulk_seconds += pass.elapsed().as_secs_f64();
        if let (Some(tracer), Some(span)) = (tracer.as_mut(), span) {
            tracer.end(span);
        }
        window.bulk_replies += answered.len();
        out.attempted += requests.len() as u64;
        let wrong = answered
            .iter()
            .zip(requests)
            .step_by(VERIFY_EVERY)
            .filter(|(reply, input)| {
                reply.version != frozen.version
                    || reply.score.to_bits() != objective.score(input, frozen.model()).to_bits()
            })
            .count();
        out.check(answered.len() == requests.len() && wrong == 0, || {
            format!(
                "bulk pass: {} of {} tickets answered, {wrong} sampled scores differ from Objective::score",
                answered.len(),
                requests.len()
            )
        });

        for _ in 0..PROBES_PER_CYCLE {
            let index = window.plain_us.len() + window.spanned_us.len();
            let input = requests[index % requests.len()].clone();
            let span = match tracer {
                Some(tracer) if index % 2 == 1 => Some(tracer.begin("serve.probe")),
                _ => None,
            };
            let probe = Instant::now();
            let reply = frontend.submit(serving, input).wait();
            let micros = probe.elapsed().as_secs_f64() * 1e6;
            match (tracer.as_mut(), span) {
                (Some(tracer), Some(span)) => {
                    tracer.end(span);
                    window.spanned_us.push(micros);
                }
                _ => window.plain_us.push(micros),
            }
            out.check(
                reply.version == frozen.version && reply.score.is_finite(),
                || {
                    format!(
                        "probe {index} answered from version {} with score {}",
                        reply.version, reply.score
                    )
                },
            );
        }

        let mark = observe();
        if mark.0 > cycle_mark.0 {
            window
                .trainer_epoch_s
                .push((mark.1 - cycle_mark.1) / (mark.0 - cycle_mark.0) as f64);
            cycle_mark = mark;
        }
    }
    window.trainer_epochs = cycle_mark.0 - open.0;
    window.trainer_seconds = cycle_mark.1 - open.1;
    window
}

pub fn run(
    machine: &MachineTopology,
    workers: usize,
    args: &RunArgs,
    out: &mut Outcome,
) -> std::io::Result<()> {
    let mut tracer = args.traced.then(Tracer::new);
    let pool_workers = workers.saturating_sub(1).max(1);

    // --- Inputs, from the seed.
    let clock = Instant::now();
    let data = sparse_classification(SERVE.rows, SERVE.cols, SERVE.nnz_per_row, 0.05, args.seed);
    let requests: Vec<SparseVector> = (0..SERVE.requests)
        .map(|row| {
            let (entries, _) = streamed_row(SERVE.cols, SERVE.nnz_per_row, args.seed, row);
            let (indices, values) = entries
                .into_iter()
                .map(|(col, value)| (col as u32, value))
                .unzip();
            SparseVector::from_parts(indices, values)
        })
        .collect();
    let gen_s = clock.elapsed().as_secs_f64();
    let request_nnz: usize = requests.iter().map(SparseVector::nnz).sum();
    let mean_request_nnz = request_nnz as f64 / requests.len() as f64;

    // --- Set-up, several times over, each on a fresh server and fresh task
    // data (layouts cache on the data handle); the last server stays up and
    // hosts the serving window.
    let mut setups = Vec::new();
    let mut live: Option<(Server, SessionHandle, ConvergenceTrace)> = None;
    for _ in 0..SETUP_SESSIONS {
        if let Some((server, ..)) = live.take() {
            server.shutdown();
        }
        // The last session's memory watermark runs on to the end of the
        // serving window: that is the peak reported.
        host::reset_peak_rss();
        let (server, serving, trace, times) = admit_serving(
            machine,
            pool_workers,
            fresh_task(&data),
            args.seed,
            &mut tracer,
        );
        setups.push(times);
        live = Some((server, serving, trace));
    }
    out.attempted += setups.len() as u64;
    let (server, serving, trace) = live.expect("at least one set-up session");
    let frozen = serving
        .predictor()
        .snapshot()
        .expect("a trained tenant has a snapshot");
    out.check(
        trace.points.len() == SERVE.serving_epochs
            && trace.points.iter().all(|point| point.loss.is_finite())
            && frozen.loss <= LOSS_CEILING * trace.initial_loss,
        || {
            format!(
                "serving tenant losses {:?} (initial {})",
                trace.points, trace.initial_loss
            )
        },
    );
    out.check(
        frozen.is_consistent() && frozen.epoch == SERVE.serving_epochs,
        || {
            format!(
                "frozen snapshot: epoch {}, consistent {}",
                frozen.epoch,
                frozen.is_consistent()
            )
        },
    );

    // --- The serving window: background trainer on, client thread closed-loop.
    let trainer = spanned(&mut tracer, "serve.admit", || {
        server.admit(
            SessionSpec::new("trainer", fresh_task(&data))
                .epochs(TRAINER_EPOCHS)
                .seed(args.seed.wrapping_add(1)),
        )
    });
    let trainer_view = trainer.predictor();
    while trainer_view.snapshot().is_none() {
        std::thread::sleep(POLL);
    }
    let frontend = Frontend::new(1, 32);
    let window = serving_window(
        &frontend,
        &serving,
        &trainer,
        &frozen,
        &requests,
        args.seconds,
        &mut tracer,
        out,
    );
    let staleness = trainer.stats().staleness_epochs;
    let mean_batch = frontend.requests() as f64 / frontend.batches().max(1) as f64;
    let (trainer_trace, _) = spanned(&mut tracer, "serve.evict", || trainer.evict());
    out.check(
        trainer_trace
            .points
            .iter()
            .all(|point| point.loss.is_finite()),
        || "the background trainer produced a non-finite loss".to_string(),
    );
    out.attempted += trainer_trace.points.len() as u64;
    frontend.shutdown();
    server.shutdown();
    let peak_rss_bytes = host::peak_rss_bytes();

    let predict_per_s = window.bulk_replies as f64 / window.bulk_seconds;
    let cotrain_epochs_per_s = window.trainer_epochs as f64 / window.trainer_seconds;
    let probes: Vec<f64> = window
        .plain_us
        .iter()
        .chain(&window.spanned_us)
        .copied()
        .collect();
    let column = |pick: fn(&SetupTimes) -> f64| setups.iter().map(pick).collect::<Vec<f64>>();

    out.note("workers", Json::Num(workers as f64));
    out.note("pool_workers", Json::Num(pool_workers as f64));
    out.note("matrix_nnz", Json::Num(data.matrix.nnz() as f64));
    out.note("requests_per_pass", Json::Num(requests.len() as f64));
    out.note("mean_request_nnz", Json::Num(mean_request_nnz));
    out.note("bulk_replies", Json::Num(window.bulk_replies as f64));
    out.note("probes", Json::Num(probes.len() as f64));
    out.note(
        "trainer_epochs_in_window",
        Json::Num(window.trainer_epochs as f64),
    );
    out.note(
        "serving_losses",
        Json::Arr(trace.points.iter().map(|p| Json::Num(p.loss)).collect()),
    );
    out.note("data_gen_s", Json::Num(gen_s));
    out.note("predict_per_s", Json::Num(predict_per_s));
    out.note("predict_p50_us", Json::Num(median(&probes)));
    out.note("cotrain_epochs_per_s", Json::Num(cotrain_epochs_per_s));

    let Some(tracer) = tracer else {
        out.set("setup_s", median(&column(|s| s.first_snapshot_s)));
        out.set("epoch_p50_s", median(&window.trainer_epoch_s));
        out.set("nnz_per_s", predict_per_s * mean_request_nnz);
        out.set(
            "time_to_loss_s",
            median(&column(|s| s.frozen_after_admit_s)),
        );
        out.set("peak_rss_bytes", peak_rss_bytes as f64);
        out.note(
            "setup_samples_s",
            Json::Arr(
                column(|s| s.first_snapshot_s)
                    .into_iter()
                    .map(Json::Num)
                    .collect(),
            ),
        );
        return Ok(());
    };

    // Layer calls without the queue in front of them.
    let direct = serving.predictor();
    let clock = Instant::now();
    let scored = requests
        .iter()
        .filter(|input| direct.predict(input).is_some_and(|p| p.score.is_finite()))
        .count();
    let direct_ns = clock.elapsed().as_secs_f64() * 1e9 / requests.len() as f64;
    out.check(scored == requests.len(), || {
        format!(
            "Predictor::predict scored {scored} of {} requests",
            requests.len()
        )
    });
    let cell = SnapshotCell::new();
    let models: Vec<Vec<f64>> = (0..64).map(|_| frozen.model().to_vec()).collect();
    let publish_us: Vec<f64> = models
        .into_iter()
        .enumerate()
        .map(|(epoch, model)| {
            let clock = Instant::now();
            cell.publish(epoch, 0.0, Duration::ZERO, model);
            clock.elapsed().as_secs_f64() * 1e6
        })
        .collect();

    out.set("data.gen_s", gen_s);
    out.set("data.nnz", data.matrix.nnz() as f64);
    out.set(
        "data.bytes",
        (data.matrix.nnz() * dw_matrix::ENTRY_BYTES) as f64,
    );
    out.set("serve.admit_s", median(&column(|s| s.admit_s)));
    out.set("serve.predict_direct_ns", direct_ns);
    out.set("serve.snapshot_publish_us", median(&publish_us));
    out.set("serve.mean_batch", mean_batch);
    out.set("serve.predict_per_s", predict_per_s);
    out.set("serve.predict_p50_us", median(&probes));
    out.set("serve.predict_p99_us", percentile(&probes, 0.99));
    out.set("serve.cotrain_epochs_per_s", cotrain_epochs_per_s);
    out.set("serve.staleness_epochs", staleness as f64);
    out.set("numa.nodes", host::numa_nodes() as f64);
    out.set(
        "trace.overhead_share",
        median(&window.spanned_us) / median(&window.plain_us) - 1.0,
    );
    out.set("trace.spans", tracer.spans.len() as f64);
    tracer.write_jsonl(
        &args.out_dir.join("serve_cotrain.trace.jsonl"),
        "serve_cotrain",
    )
}
