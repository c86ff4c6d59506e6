//! The persistent work-stealing query pool behind scatter-gather queries.
//!
//! The first engine iteration spawned one scoped thread per visited shard
//! *per query* — a 1ms query paid thread spawn/join for every shard, and
//! concurrent dc-ql connections serialized on their own scatter. This pool
//! replaces that with long-lived workers (sized by
//! `available_parallelism`) fed from one injector queue:
//!
//! * a query is submitted as a [`Job`] of per-shard **units**, each one
//!   shard's published state (the pool never learns what is inside; a unit
//!   over a disk shard holds that shard's read lock while it runs, and for
//!   no longer); every unit carries a shard-affinity hint
//!   (`shard_id % workers`), so repeated queries keep a shard's tree hot in
//!   the same worker's cache;
//! * an idle worker prefers units with its own affinity and otherwise
//!   **steals** the oldest queued unit, so no worker idles while work
//!   exists — the crossbeam-deque discipline, built on the std primitives
//!   this workspace ships;
//! * the submitting thread does not idle either: after enqueueing it pulls
//!   its own job's units back off the queue and executes them inline,
//!   then sleeps only for units another thread already claimed;
//! * multiple in-flight jobs interleave in the queue, so independent
//!   connections pipeline instead of serializing on one scatter-gather.
//!
//! The pool outlives individual queries but not the engine: dropping the
//! pool wakes the workers, which drain the queue and exit, and join-s them.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use dc_common::DcResult;
use parking_lot::{Condvar, Mutex};

use crate::metrics::EngineMetrics;

/// One scatter-gather query: `remaining` per-shard units, each executed
/// exactly once by whichever thread claims it. Results are recorded inside
/// the `run` closure's captured state; the pool only tracks completion.
struct Job {
    /// Executes unit `i`.
    run: Box<dyn Fn(usize) + Send + Sync>,
    /// Preferred worker per unit (shard affinity).
    affinity: Vec<usize>,
    /// Units not yet finished.
    remaining: AtomicUsize,
    /// Completion latch the submitter waits on.
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl Job {
    /// Runs unit `idx` and releases the completion latch on the last one.
    fn run_unit(&self, idx: usize) {
        (self.run)(idx);
        if self.remaining.fetch_sub(1, Relaxed) == 1 {
            *self.done.lock() = true;
            self.done_cv.notify_all();
        }
    }
}

/// A claimable unit in the injector queue.
struct QueuedUnit {
    job: Arc<Job>,
    idx: usize,
}

struct Shared {
    queue: Mutex<VecDeque<QueuedUnit>>,
    cv: Condvar,
    shutdown: AtomicBool,
    metrics: Arc<EngineMetrics>,
}

/// The persistent executor. See the [module docs](self).
pub(crate) struct QueryPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl QueryPool {
    /// Starts `workers` ≥ 1 worker threads.
    pub(crate) fn new(workers: usize, metrics: Arc<EngineMetrics>) -> Self {
        assert!(workers >= 1, "pool needs at least one worker");
        metrics.pool.workers.store(workers as u64, Relaxed);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            metrics,
        });
        let handles = (0..workers)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dc-query-{id}"))
                    .spawn(move || worker_loop(id, &shared))
                    .expect("spawn query worker")
            })
            .collect();
        QueryPool {
            shared,
            workers: handles,
        }
    }

    /// Evaluates `eval` on every unit — `(shard id, unit data)` — against
    /// the query's shared context `ctx`, distributing the units over the
    /// pool (with the submitting thread participating) and gathering the
    /// results in unit order. The first unit error wins, matching
    /// sequential evaluation.
    pub(crate) fn scatter_eval<C, U, R>(
        &self,
        ctx: C,
        units: Vec<(usize, U)>,
        eval: impl Fn(&C, &U) -> DcResult<R> + Send + Sync + 'static,
    ) -> DcResult<Vec<R>>
    where
        C: Send + Sync + 'static,
        U: Send + Sync + 'static,
        R: Send + 'static,
    {
        let n = units.len();
        let affinity = units.iter().map(|(s, _)| s % self.workers.len()).collect();
        let results: Arc<Mutex<Vec<Option<DcResult<R>>>>> =
            Arc::new(Mutex::new((0..n).map(|_| None).collect()));
        let job = Arc::new(Job {
            run: {
                let results = Arc::clone(&results);
                Box::new(move |i| {
                    let r = eval(&ctx, &units[i].1);
                    results.lock()[i] = Some(r);
                })
            },
            affinity,
            remaining: AtomicUsize::new(n),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        self.submit_and_help(&job, n);
        let mut out = Vec::with_capacity(n);
        for slot in results.lock().drain(..) {
            out.push(slot.expect("pool unit not executed")?);
        }
        Ok(out)
    }

    /// Enqueues the job's units, executes whatever the workers have not
    /// claimed yet inline, then sleeps until the claimed stragglers finish.
    fn submit_and_help(&self, job: &Arc<Job>, units: usize) {
        let pm = &self.shared.metrics.pool;
        {
            let mut q = self.shared.queue.lock();
            for idx in 0..units {
                q.push_back(QueuedUnit {
                    job: Arc::clone(job),
                    idx,
                });
            }
            pm.queued_tasks.store(q.len() as u64, Relaxed);
        }
        self.shared.cv.notify_all();
        // Help: pull back our own units; a stolen unit is a worker's win.
        loop {
            let mine = {
                let mut q = self.shared.queue.lock();
                let pos = q.iter().position(|u| Arc::ptr_eq(&u.job, job));
                let unit = pos.and_then(|p| q.remove(p));
                pm.queued_tasks.store(q.len() as u64, Relaxed);
                unit
            };
            let Some(unit) = mine else { break };
            let t0 = Instant::now();
            unit.job.run_unit(unit.idx);
            pm.inline_tasks.fetch_add(1, Relaxed);
            pm.task_latency.record(t0.elapsed());
        }
        let mut done = job.done.lock();
        while !*done {
            job.done_cv.wait(&mut done);
        }
    }
}

impl Drop for QueryPool {
    fn drop(&mut self) {
        {
            // Set the flag under the queue lock: a worker that checked it
            // just before this point is either still holding the lock (the
            // store waits for it, then its wait() sees the notify) or about
            // to re-check under the lock — no lost wakeup either way.
            let _q = self.shared.queue.lock();
            self.shared.shutdown.store(true, Relaxed);
        }
        self.shared.cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// A worker: claim affine units first, steal the oldest otherwise, exit on
/// shutdown once the queue is drained.
fn worker_loop(worker_id: usize, shared: &Shared) {
    let pm = &shared.metrics.pool;
    loop {
        let (unit, stolen) = {
            let mut q = shared.queue.lock();
            loop {
                if let Some(pos) = q.iter().position(|u| u.job.affinity[u.idx] == worker_id) {
                    break (q.remove(pos).expect("position in bounds"), false);
                }
                if let Some(unit) = q.pop_front() {
                    break (unit, true);
                }
                if shared.shutdown.load(Relaxed) {
                    return;
                }
                shared.cv.wait(&mut q);
            }
        };
        {
            let q = shared.queue.lock();
            pm.queued_tasks.store(q.len() as u64, Relaxed);
        }
        // Counted before the unit can release its query's latch, so a
        // returned query's units are all in `tasks` + `inline_tasks`.
        pm.tasks.fetch_add(1, Relaxed);
        if stolen {
            pm.steals.fetch_add(1, Relaxed);
        }
        pm.busy_workers.fetch_add(1, Relaxed);
        let t0 = Instant::now();
        unit.job.run_unit(unit.idx);
        pm.task_latency.record(t0.elapsed());
        pm.busy_workers.fetch_sub(1, Relaxed);
    }
}
