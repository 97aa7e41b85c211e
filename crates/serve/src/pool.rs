//! A std-only work-stealing thread pool.
//!
//! The build environment has no registry access, so instead of rayon this
//! module implements the same scheduling idea directly on `std::thread`:
//! every worker owns a deque of jobs, new work is pushed round-robin across
//! the worker deques, a worker pops from the front of its own deque, and a
//! worker that runs dry *steals half* of a random victim's deque from the
//! back. Round-robin keeps the common (uniform) case contention-free;
//! stealing rebalances skewed batches where a few requests are much more
//! expensive than the rest — exactly the regime the heavy/light analyses of
//! the paper produce.
//!
//! Idle workers park on a condvar behind a sleeper count, with a
//! Dekker-style SeqCst pairing between `execute` (bump `pending`, then
//! read `sleepers`) and the parking worker (bump `sleepers`, then re-check
//! `pending` under the sleep lock): in the single total order one side
//! always observes the other, so wakeups cannot be lost and an idle pool
//! burns no CPU. A long timeout on the wait is kept purely as defense in
//! depth.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use cqap_obs::{CounterId, GaugeId, MetricsSink};

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    /// One deque per worker; workers pop the front of their own deque and
    /// steal from the back of others.
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Jobs pushed but not yet popped, used by sleepers to decide whether to
    /// park.
    pending: AtomicUsize,
    /// Workers currently parked (or about to park) on `wakeup`; `execute`
    /// only pays for a notify when this is non-zero.
    sleepers: AtomicUsize,
    /// Set by `Drop` before it waits for the queue to drain: only then
    /// does a worker that empties the queue pay for a notify.
    draining: AtomicBool,
    shutdown: AtomicBool,
    sleep_lock: Mutex<()>,
    wakeup: Condvar,
    /// Observability seam: steal/park counters and the queue-depth
    /// gauge. Disabled by default, in which case every recording call
    /// is a null check.
    sink: MetricsSink,
}

/// A fixed-size work-stealing thread pool.
///
/// Jobs are `FnOnce() + Send` closures. Dropping the pool waits for every
/// queued job to finish, then joins the workers.
pub struct WorkStealingPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    next_queue: AtomicUsize,
}

impl WorkStealingPool {
    /// Creates a pool with `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        WorkStealingPool::with_sink(threads, MetricsSink::disabled())
    }

    /// Creates a pool with `threads` workers recording into `sink`: steal
    /// and park counts, and the live queue-depth gauge (jobs queued or
    /// executing). A job times its own queue wait.
    pub(crate) fn with_sink(threads: usize, sink: MetricsSink) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            sleep_lock: Mutex::new(()),
            wakeup: Condvar::new(),
            sink,
        });
        let workers = (0..threads)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cqap-serve-{id}"))
                    .spawn(move || worker_loop(id, &shared))
                    .expect("spawning a serve worker")
            })
            .collect();
        WorkStealingPool {
            shared,
            workers,
            next_queue: AtomicUsize::new(0),
        }
    }

    /// Number of worker threads.
    pub(crate) fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Schedules a job. Jobs are distributed round-robin over the worker
    /// deques; an idle worker steals if the assigned worker is busy.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.shared.sink.gauge_add(GaugeId::QueueDepth, 1);
        let slot = self.next_queue.fetch_add(1, Ordering::Relaxed) % self.shared.queues.len();
        // `pending` goes up before the job is visible, so a worker that
        // pops it early can never drive the counter below zero.
        self.shared.pending.fetch_add(1, Ordering::SeqCst);
        self.shared.queues[slot]
            .lock()
            .expect("queue lock")
            .push_back(Box::new(job));
        // Dekker-style pairing with the sleeper (see worker_loop): SeqCst
        // puts this `pending` bump and the `sleepers` read in one total
        // order with the sleeper's `sleepers` bump and `pending` re-check,
        // so either this thread observes the sleeper (and notifies under
        // the lock, after the sleeper parked) or the sleeper observes the
        // bumped `pending` and does not park. No wakeup can be lost.
        if self.shared.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.shared.sleep_lock.lock().expect("sleep lock");
            self.shared.wakeup.notify_one();
        }
    }

    /// Number of jobs pushed but not yet started.
    pub(crate) fn pending(&self) -> usize {
        self.shared.pending.load(Ordering::Acquire)
    }
}

impl Drop for WorkStealingPool {
    fn drop(&mut self) {
        // Let queued jobs drain (parked on the condvar, with the same
        // bounded timeout the workers use), then stop the workers. The
        // flag goes up before the first `pending` check (SeqCst on both
        // sides): a worker that empties the queue either sees the flag and
        // notifies under the sleep lock, or emptied it before this check
        // reads `pending`.
        self.shared.draining.store(true, Ordering::SeqCst);
        let mut guard = self.shared.sleep_lock.lock().expect("sleep lock");
        while self.shared.pending.load(Ordering::SeqCst) > 0 {
            guard = self
                .shared
                .wakeup
                .wait_timeout(guard, Duration::from_millis(1))
                .expect("sleep lock")
                .0;
        }
        drop(guard);
        // Setting shutdown under the sleep lock serializes with the
        // workers' own pre-park shutdown check, so no worker can park
        // after missing this notify.
        {
            let _guard = self.shared.sleep_lock.lock().expect("sleep lock");
            self.shared.shutdown.store(true, Ordering::Release);
            self.shared.wakeup.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The pool size used when the caller does not specify one.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

fn worker_loop(id: usize, shared: &Shared) {
    loop {
        if let Some(job) = find_job(id, shared) {
            // SeqCst pairs with `Drop`'s `draining` store and `pending`
            // load (see there).
            shared.pending.fetch_sub(1, Ordering::SeqCst);
            // Isolate job panics: a panicking request must not take the
            // worker down with it (queued jobs would never run and the
            // pool's drop would wait forever). The job's unsent replies
            // are dropped during the unwind, which resolves their tickets
            // with an error.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            shared.sink.gauge_add(GaugeId::QueueDepth, -1);
            // Only `Drop` waits for the queue to drain; while it is not
            // waiting, an emptied queue costs no wake-up.
            if shared.draining.load(Ordering::SeqCst) && shared.pending.load(Ordering::SeqCst) == 0
            {
                let _guard = shared.sleep_lock.lock().expect("sleep lock");
                shared.wakeup.notify_all();
            }
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let guard = shared.sleep_lock.lock().expect("sleep lock");
        // Register as a sleeper BEFORE re-checking `pending` (the other
        // half of the Dekker pairing in `execute`): in the SeqCst total
        // order either the executor sees our registration and notifies, or
        // we see its `pending` bump here and skip parking.
        shared.sleepers.fetch_add(1, Ordering::SeqCst);
        if shared.pending.load(Ordering::SeqCst) == 0 && !shared.shutdown.load(Ordering::SeqCst) {
            shared.sink.incr(CounterId::PoolParks);
            // The sleeper protocol makes wakeups lossless; the generous
            // timeout is pure defense in depth.
            let _ = shared
                .wakeup
                .wait_timeout(guard, Duration::from_millis(100))
                .expect("sleep lock");
        }
        shared.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Pops local work, or steals half of a victim's deque.
fn find_job(id: usize, shared: &Shared) -> Option<Job> {
    if let Some(job) = shared.queues[id].lock().expect("queue lock").pop_front() {
        return Some(job);
    }
    let n = shared.queues.len();
    for offset in 1..n {
        let victim = (id + offset) % n;
        let stolen: Vec<Job> = {
            let mut queue = match shared.queues[victim].try_lock() {
                Ok(queue) => queue,
                Err(_) => continue,
            };
            let take = queue.len().div_ceil(2);
            if take == 0 {
                continue;
            }
            let keep = queue.len() - take;
            queue.split_off(keep).into_iter().collect()
        };
        if stolen.is_empty() {
            continue;
        }
        shared.sink.incr(CounterId::PoolSteals);
        let mut own = shared.queues[id].lock().expect("queue lock");
        own.extend(stolen);
        return own.pop_front();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqap_obs::StageId;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;

    #[test]
    fn runs_every_job_exactly_once() {
        let pool = WorkStealingPool::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..1_000 {
            let counter = Arc::clone(&counter);
            pool.execute(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool); // drains before joining
        assert_eq!(counter.load(Ordering::Relaxed), 1_000);
    }

    #[test]
    fn results_flow_through_channels() {
        let pool = WorkStealingPool::new(3);
        let (tx, rx) = mpsc::channel();
        for i in 0..100u64 {
            let tx = tx.clone();
            pool.execute(move || tx.send(i * i).expect("receiver alive"));
        }
        drop(tx);
        let mut results: Vec<u64> = rx.iter().collect();
        results.sort_unstable();
        assert_eq!(results.len(), 100);
        assert_eq!(results[99], 99 * 99);
    }

    #[test]
    fn imbalanced_jobs_are_stolen() {
        // One slow job pinned to some queue must not serialize the 63 fast
        // ones behind it: with stealing, total wall-clock stays far below
        // the sequential sum.
        let pool = WorkStealingPool::new(4);
        let (tx, rx) = mpsc::channel();
        for i in 0..64u64 {
            let tx = tx.clone();
            pool.execute(move || {
                if i == 0 {
                    std::thread::sleep(Duration::from_millis(50));
                }
                tx.send(i).expect("receiver alive");
            });
        }
        drop(tx);
        let start = std::time::Instant::now();
        let received: Vec<u64> = rx.iter().collect();
        assert_eq!(received.len(), 64);
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "stealing keeps fast jobs off the slow worker's queue"
        );
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let pool = WorkStealingPool::new(1);
        let (tx, rx) = mpsc::channel();
        pool.execute(|| panic!("request blew up"));
        // The single worker must survive to run the next job, and the
        // pool's drop must not hang on the panicked job's accounting.
        let tx2 = tx.clone();
        pool.execute(move || tx2.send(42u64).expect("receiver alive"));
        drop(tx);
        assert_eq!(rx.recv().expect("second job ran"), 42);
        drop(pool);
    }

    #[test]
    fn metrics_sink_records_pool_activity() {
        let sink = MetricsSink::recording();
        let pool = WorkStealingPool::with_sink(4, sink.clone());
        let (tx, rx) = mpsc::channel();
        for i in 0..64u64 {
            let tx = tx.clone();
            pool.execute(move || {
                if i == 0 {
                    std::thread::sleep(Duration::from_millis(10));
                }
                tx.send(i).expect("receiver alive");
            });
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 64);
        // Give the workers a moment to run dry and park before the
        // shutdown notify, so the park counter is observably non-zero.
        std::thread::sleep(Duration::from_millis(20));
        drop(pool);
        let snap = sink.snapshot().expect("sink is recording");
        assert_eq!(
            snap.stage(StageId::QueueWait).count,
            0,
            "the pool times no stage: a job laps its own queue wait"
        );
        assert_eq!(
            snap.gauge(GaugeId::QueueDepth),
            0,
            "every queued job was matched by a completion decrement"
        );
        assert!(snap.counter(CounterId::PoolParks) > 0);
    }

    #[test]
    fn single_thread_pool_still_completes() {
        let pool = WorkStealingPool::new(1);
        let (tx, rx) = mpsc::channel();
        for i in 0..10 {
            let tx = tx.clone();
            pool.execute(move || tx.send(i).expect("receiver alive"));
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 10);
    }
}
