//! A persistent worker-thread pool, shareable across sessions.
//!
//! The original threaded execution path spawned and joined one OS thread per
//! worker *every epoch*, so a 20-epoch run on a 12-worker plan paid 240
//! thread creations plus the page-faulting of 240 fresh stacks.  This pool
//! keeps one thread per worker alive for the lifetime of an executor (and
//! therefore of a [`crate::Session`]): epochs dispatch closures over
//! per-worker channels and wait for completion acknowledgements, which is
//! the architecture every serving-style workload on the roadmap (sharding,
//! async serving, multi-tenant scheduling) needs anyway — a request becomes
//! a dispatched job, not a thread spawn.
//!
//! **Sharing.**  A server admitting many concurrent sessions must not let
//! each session spawn its own pool — two sessions on one machine would
//! double-subscribe every core.  The pool is therefore `Sync` and designed
//! for `Arc` sharing: every dispatched job carries the completion channel of
//! the [`JobBatch`] it belongs to, so concurrent batches (one per in-flight
//! epoch, possibly from different sessions) interleave freely on the worker
//! queues without ever consuming each other's acknowledgements.  The
//! one-owner [`WorkerPool::dispatch`]/[`WorkerPool::wait`] API remains as a
//! convenience over a pool-wide default batch.
//!
//! The pool is deliberately built on `std::sync::mpsc` channels and
//! `std::thread` so that the workspace stays dependency-free; the public
//! surface matches what a crossbeam-based pool would expose.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A unit of work dispatched to one pool worker.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// The host's physical CPU topology, probed once per process (best-effort:
/// `None` on hosts without a parsable `/sys/devices/system/node`).
fn host_topology() -> Option<&'static dw_numa::HostTopology> {
    static HOST: OnceLock<Option<dw_numa::HostTopology>> = OnceLock::new();
    HOST.get_or_init(dw_numa::HostTopology::probe).as_ref()
}

/// Physical placement of pool worker `w`: the locality group it staffs (a
/// host NUMA node, round-robin — the same `w % nodes` rule the planner's
/// [`crate::plan::EpochAssignment`] uses to spread workers), its index
/// within that group, and the concrete CPU to pin to (round-robin within
/// the node's cpulist).  Without a probed topology the worker is unplaced:
/// group 0, no pin.
fn worker_placement(w: usize) -> (usize, usize, Option<usize>) {
    match host_topology() {
        Some(host) if !host.nodes.is_empty() => {
            let group = w % host.nodes.len();
            let index = w / host.nodes.len();
            let cpus = &host.nodes[group].cpus;
            let cpu = (!cpus.is_empty()).then(|| cpus[index % cpus.len()]);
            (group, index, cpu)
        }
        _ => (0, w, None),
    }
}

/// A queued job together with the completion channel of its batch.
struct Tagged {
    job: Job,
    done: Sender<bool>,
}

/// A fixed-size pool of persistent worker threads.
pub struct WorkerPool {
    job_txs: Vec<Sender<Tagged>>,
    /// Completion channel of the exclusive-use convenience API
    /// ([`WorkerPool::dispatch`] / [`WorkerPool::wait`]); batch dispatches
    /// never touch it.
    default_done_tx: Sender<bool>,
    default_done_rx: Mutex<Receiver<bool>>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.job_txs.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawn `workers` persistent threads.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (default_done_tx, default_done_rx) = channel::<bool>();
        let mut job_txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = channel::<Tagged>();
            // Pin each worker to a physical core, round-robin across the
            // host's NUMA nodes (Appendix A's worker spreading made
            // physical).  Best-effort via plain sched_setaffinity — active
            // with or without the `numa` feature; a no-op on hosts whose
            // topology cannot be probed.  The name carries the locality
            // group for profiler legibility.
            let (group, index, cpu) = worker_placement(w);
            let handle = std::thread::Builder::new()
                .name(format!("dw-worker-{group}-{index}"))
                .spawn(move || {
                    if let Some(cpu) = cpu {
                        let _ = dw_numa::pin_current_thread(cpu);
                    }
                    for Tagged { job, done } in rx {
                        // A panicking job must still acknowledge, otherwise
                        // its batch would wait forever for the slot.  A
                        // batch dropped before its jobs drained just loses
                        // the acknowledgement — ignore the send failure.
                        let panicked = catch_unwind(AssertUnwindSafe(job)).is_err();
                        let _ = done.send(panicked);
                    }
                })
                .expect("failed to spawn pool worker thread");
            job_txs.push(tx);
            handles.push(handle);
        }
        WorkerPool {
            job_txs,
            default_done_tx,
            default_done_rx: Mutex::new(default_done_rx),
            handles,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.job_txs.len()
    }

    /// Open a new batch: an isolated completion scope for a group of jobs
    /// (typically one epoch).  Concurrent batches — from one session or
    /// many — share the worker queues but never each other's
    /// acknowledgements.
    pub fn batch(&self) -> JobBatch<'_> {
        let (done_tx, done_rx) = channel();
        JobBatch {
            pool: self,
            done_tx,
            done_rx,
            outstanding: 0,
        }
    }

    fn send(&self, worker: usize, job: Job, done: Sender<bool>) {
        self.job_txs[worker % self.job_txs.len()]
            .send(Tagged { job, done })
            .expect("pool worker thread terminated");
    }

    /// Queue `job` on worker `worker` (round-robins past the pool size).
    ///
    /// Part of the exclusive-use API: completion goes to the pool-wide
    /// default channel, so only one owner may interleave `dispatch`/`wait`.
    /// Sessions sharing a pool use [`WorkerPool::batch`] instead.
    pub fn dispatch(&self, worker: usize, job: Job) {
        self.send(worker, job, self.default_done_tx.clone());
    }

    /// Block until `jobs` completion acknowledgements arrive on the default
    /// channel (pairs with [`WorkerPool::dispatch`]).
    ///
    /// # Panics
    /// Panics if any of the awaited jobs panicked.
    pub fn wait(&self, jobs: usize) {
        self.wait_with(jobs, Duration::from_millis(20), || {});
    }

    /// Like [`WorkerPool::wait`], but runs `between` on the calling thread
    /// whenever `interval` elapses without a completion — the hook the
    /// asynchronous PerNode model-averaging protocol (Section 3.3) runs in.
    /// A hook costing more than `interval / 9` stretches the waits after it
    /// so it never takes more than a tenth of the calling thread.
    pub fn wait_with<F: FnMut()>(&self, jobs: usize, interval: Duration, between: F) {
        let rx = self
            .default_done_rx
            .lock()
            .expect("default completion channel poisoned");
        drain_acks(&rx, jobs, interval, between);
    }
}

/// The wait that follows a `between` hook that took `cost`: at least
/// `interval`, and long enough that the hook's duty cycle on the waiting
/// thread stays at or under 10 % (`wait ≥ 9 · cost`).
///
/// A cheap hook keeps its cadence; an expensive one — averaging a 47 k-dim
/// model every 200 µs on a host where the waiting thread shares cores with
/// the workers it waits for — backs off instead of time-slicing against
/// them and invalidating the replicas they are writing.
pub(crate) fn paced_interval(interval: Duration, cost: Duration) -> Duration {
    interval.max(cost * 9)
}

/// Consume `jobs` acknowledgements from `rx`, running `between` whenever a
/// wait elapses without one; each wait is [`paced_interval`] of the hook
/// run before it.
fn drain_acks<F: FnMut()>(rx: &Receiver<bool>, jobs: usize, interval: Duration, mut between: F) {
    let mut remaining = jobs;
    let mut panicked = false;
    let mut wait = interval;
    while remaining > 0 {
        match rx.recv_timeout(wait) {
            Ok(job_panicked) => {
                panicked |= job_panicked;
                remaining -= 1;
            }
            Err(RecvTimeoutError::Timeout) => {
                let clock = Instant::now();
                between();
                wait = paced_interval(interval, clock.elapsed());
            }
            Err(RecvTimeoutError::Disconnected) => {
                panic!("worker pool threads terminated unexpectedly")
            }
        }
    }
    assert!(!panicked, "worker thread panicked");
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the job channels ends each worker's receive loop.
        self.job_txs.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A group of jobs with a private completion scope on a (possibly shared)
/// [`WorkerPool`].  One epoch of one session is one batch.
pub struct JobBatch<'a> {
    pool: &'a WorkerPool,
    done_tx: Sender<bool>,
    done_rx: Receiver<bool>,
    outstanding: usize,
}

impl JobBatch<'_> {
    /// Queue `job` on worker `worker` (round-robins past the pool size).
    pub fn dispatch(&mut self, worker: usize, job: Job) {
        self.pool.send(worker, job, self.done_tx.clone());
        self.outstanding += 1;
    }

    /// Jobs dispatched but not yet acknowledged through this batch.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Block until every dispatched job has acknowledged.
    ///
    /// # Panics
    /// Panics if any of the awaited jobs panicked.
    pub fn wait(&mut self) {
        self.wait_with(Duration::from_millis(20), || {});
    }

    /// Like [`JobBatch::wait`], but runs `between` on the calling thread
    /// whenever `interval` elapses without a completion (duty-bounded as
    /// [`WorkerPool::wait_with`]).
    pub fn wait_with<F: FnMut()>(&mut self, interval: Duration, between: F) {
        let jobs = std::mem::take(&mut self.outstanding);
        drain_acks(&self.done_rx, jobs, interval, between);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn jobs_run_on_all_workers() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.workers(), 4);
        let counter = Arc::new(AtomicUsize::new(0));
        for round in 0..3 {
            for w in 0..4 {
                let counter = Arc::clone(&counter);
                pool.dispatch(
                    w,
                    Box::new(move || {
                        counter.fetch_add(round * 4 + w + 1, Ordering::Relaxed);
                    }),
                );
            }
            pool.wait(4);
        }
        // Sum of 1..=12.
        assert_eq!(counter.load(Ordering::Relaxed), 78);
    }

    #[test]
    fn wait_with_runs_between_hook_while_idle() {
        let pool = WorkerPool::new(1);
        let ticks = Arc::new(AtomicUsize::new(0));
        let hook_ticks = Arc::clone(&ticks);
        pool.dispatch(
            0,
            Box::new(|| std::thread::sleep(Duration::from_millis(30))),
        );
        let mut local = 0usize;
        pool.wait_with(1, Duration::from_millis(5), || {
            local += 1;
            hook_ticks.fetch_add(1, Ordering::Relaxed);
        });
        assert!(ticks.load(Ordering::Relaxed) >= 1, "hook must have run");
    }

    #[test]
    fn paced_interval_keeps_a_cheap_hook_and_backs_off_a_costly_one() {
        let base = Duration::from_micros(200);
        assert_eq!(paced_interval(base, Duration::ZERO), base);
        assert_eq!(paced_interval(base, Duration::from_micros(22)), base);
        assert_eq!(
            paced_interval(base, Duration::from_millis(1)),
            Duration::from_millis(9)
        );
    }

    /// Fire `hook` from a 200 µs `wait_with` across one 60 ms job; returns
    /// how often it ran and how long the wait took.
    fn hook_fires_across_a_60ms_job(hook: impl Fn()) -> (usize, Duration) {
        let pool = WorkerPool::new(1);
        let mut batch = pool.batch();
        batch.dispatch(
            0,
            Box::new(|| std::thread::sleep(Duration::from_millis(60))),
        );
        let mut fires = 0usize;
        let clock = Instant::now();
        batch.wait_with(Duration::from_micros(200), || {
            fires += 1;
            hook();
        });
        (fires, clock.elapsed())
    }

    #[test]
    fn costly_hook_is_held_to_a_tenth_of_the_waiting_thread() {
        // A hook of >= 2 ms is followed by a wait of >= 18 ms, so one fire
        // per 20 ms of the wait, plus the first (which follows the base
        // interval).  Bounded against the measured wait, not a nominal
        // 60 ms, so a slow host only loosens it.
        let hook = Duration::from_millis(2);
        let (fires, waited) = hook_fires_across_a_60ms_job(|| std::thread::sleep(hook));
        let bound = waited.as_micros().div_ceil((hook * 10).as_micros()) as usize + 1;
        assert!(fires >= 1, "the hook still runs");
        assert!(
            fires <= bound,
            "{fires} fires in {waited:?} (bound {bound})"
        );
    }

    #[test]
    fn free_hook_keeps_the_base_cadence() {
        // 60 ms at a 200 µs cadence is ~300 rounds; ten is a floor no
        // scheduler hiccup reaches, while a pacer that backed off a free
        // hook would.
        let (fires, waited) = hook_fires_across_a_60ms_job(|| {});
        assert!(fires >= 10, "{fires} fires in {waited:?}");
    }

    #[test]
    #[should_panic(expected = "worker thread panicked")]
    fn job_panics_propagate_to_waiter() {
        let pool = WorkerPool::new(2);
        pool.dispatch(0, Box::new(|| panic!("boom")));
        pool.dispatch(1, Box::new(|| {}));
        pool.wait(2);
    }

    #[test]
    #[should_panic(expected = "worker thread panicked")]
    fn batch_job_panics_propagate_to_its_waiter() {
        let pool = WorkerPool::new(2);
        let mut batch = pool.batch();
        batch.dispatch(0, Box::new(|| panic!("boom")));
        batch.wait();
    }

    #[test]
    fn pool_survives_many_epochs_of_dispatch() {
        // The persistent-pool property: the same threads serve every epoch.
        let pool = WorkerPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            for w in 0..2 {
                let counter = Arc::clone(&counter);
                pool.dispatch(
                    w,
                    Box::new(move || {
                        counter.fetch_add(1, Ordering::Relaxed);
                    }),
                );
            }
            pool.wait(2);
        }
        assert_eq!(counter.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn concurrent_batches_never_cross_acknowledgements() {
        // Two "sessions" drive interleaved epochs on one shared pool from
        // separate threads.  Each batch must observe exactly its own jobs'
        // completions: a miscounted acknowledgement would either deadlock a
        // wait() (missing ack) or let an epoch finish before its own updates
        // landed (stolen ack), which the per-session counters would expose.
        let pool = Arc::new(WorkerPool::new(4));
        let counters = [Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0))];
        std::thread::scope(|scope| {
            for (session, counter) in counters.iter().enumerate() {
                let pool = Arc::clone(&pool);
                let counter = Arc::clone(counter);
                scope.spawn(move || {
                    for _epoch in 0..50 {
                        let mut batch = pool.batch();
                        for w in 0..4 {
                            let counter = Arc::clone(&counter);
                            batch.dispatch(
                                w + session, // offset so queues interleave
                                Box::new(move || {
                                    counter.fetch_add(1, Ordering::Relaxed);
                                }),
                            );
                        }
                        batch.wait();
                        // The batch's own jobs are all visible at wait().
                        assert_eq!(counter.load(Ordering::Relaxed) % 4, 0);
                    }
                });
            }
        });
        for counter in &counters {
            assert_eq!(counter.load(Ordering::Relaxed), 200);
        }
    }

    #[test]
    fn shared_pool_is_sync_and_keeps_its_size() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<WorkerPool>();
        let pool = Arc::new(WorkerPool::new(3));
        // Dispatching "worker 7" on a 3-thread pool round-robins: sharing a
        // small pool never grows it (no double-subscription of cores).
        let mut batch = pool.batch();
        let hits = Arc::new(AtomicUsize::new(0));
        for w in 0..7 {
            let hits = Arc::clone(&hits);
            batch.dispatch(
                w,
                Box::new(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                }),
            );
        }
        batch.wait();
        assert_eq!(hits.load(Ordering::Relaxed), 7);
        assert_eq!(pool.workers(), 3);
    }

    #[test]
    fn workers_are_named_with_their_locality_group() {
        // Satellite of the physical-placement work: thread names carry the
        // worker's locality group (`dw-worker-{group}-{index}`) so profiles
        // and `ps -T` output read as the plan's worker layout.  The names
        // are observed from inside dispatched jobs, and must agree with the
        // placement rule whatever topology the host probes to.
        let pool = WorkerPool::new(4);
        let names = Arc::new(Mutex::new(Vec::new()));
        for w in 0..4 {
            let names = Arc::clone(&names);
            pool.dispatch(
                w,
                Box::new(move || {
                    let name = std::thread::current().name().unwrap_or("").to_string();
                    names.lock().unwrap().push((w, name));
                }),
            );
        }
        pool.wait(4);
        let names = names.lock().unwrap();
        assert_eq!(names.len(), 4);
        for (w, name) in names.iter() {
            let (group, index, _) = worker_placement(*w);
            assert_eq!(
                name,
                &format!("dw-worker-{group}-{index}"),
                "worker {w} name"
            );
        }
    }

    #[test]
    fn worker_placement_spreads_groups_round_robin() {
        // Placement is a pure function of the probed topology: with n nodes
        // workers 0..n staff distinct groups, and worker n wraps back to
        // group 0 as its second member.  Without a topology every worker is
        // unplaced (group 0, no pin) and the pool still works.
        match host_topology() {
            Some(host) => {
                let nodes = host.nodes.len();
                for w in 0..nodes {
                    let (group, index, cpu) = worker_placement(w);
                    assert_eq!(group, w);
                    assert_eq!(index, 0);
                    assert!(cpu.is_some(), "probed nodes list their cpus");
                }
                assert_eq!(worker_placement(nodes).0, 0, "round-robin wraps");
                assert_eq!(worker_placement(nodes).1, 1);
            }
            None => {
                let (group, index, cpu) = worker_placement(3);
                assert_eq!((group, index, cpu), (0, 3, None));
            }
        }
    }
}
