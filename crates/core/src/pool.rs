//! The worker pool every engine stage and every server flush runs on.
//!
//! A [`WorkerPool`] owns `threads − 1` long-lived helper threads, spawned
//! on the first job with more than one task and parked on a condition
//! variable between jobs; the calling thread works as worker 0. A job
//! borrows its inputs from the caller's stack, so handing it to threads
//! that outlive the call erases its lifetime — the one `unsafe` block in
//! the workspace, argued in DESIGN.md ("Worker pool") and in its
//! `SAFETY` comment below.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};
use std::thread::JoinHandle;

/// A posted job as helpers hold it: the body every worker runs until
/// the job's tasks are all claimed. The `'static` is a promise kept by
/// [`Retire`], not by the borrow checker.
type Job = &'static (dyn Fn() + Sync);

/// A handle to a pool of worker threads that stage implementations (and
/// the server's batch scoring) spread their tasks over.
///
/// The pool is created empty; its `threads − 1` helper threads are
/// spawned by the first job with more than one task (a one-thread pool
/// never spawns any) and then live as long as the pool, parked between
/// jobs. The thread that calls [`run`] works as worker 0. Handles are
/// cheap to clone and share one set of helpers; dropping the last handle
/// wakes every helper and joins it.
///
/// One job runs on the helpers at a time. A [`run`] that finds the pool
/// busy — a task calling [`run`] on its own pool, or a second thread
/// using a clone while a job is in flight — runs its tasks inline on the
/// calling thread, in index order, instead of waiting.
///
/// [`run`]: WorkerPool::run
#[derive(Clone)]
pub struct WorkerPool {
    inner: Arc<PoolInner>,
}

struct PoolInner {
    threads: usize,
    /// Held for the length of a job by the thread that posted it.
    busy: Mutex<()>,
    shared: Arc<Shared>,
    /// Spawned by the first job that needs helpers; joined on drop.
    helpers: OnceLock<Vec<JoinHandle<()>>>,
}

/// The state a caller and its helpers meet on.
#[derive(Default)]
struct Shared {
    state: Mutex<State>,
    /// Signalled when a job is posted or the pool shuts down.
    posted: Condvar,
    /// Signalled when the last helper holding a job lets go of it.
    released: Condvar,
}

#[derive(Default)]
struct State {
    /// The job in flight; `None` between jobs.
    job: Option<Job>,
    /// Bumped per posted job, so a helper runs each job at most once.
    epoch: u64,
    /// Helpers that copied `job` out and have not yet finished it.
    holders: usize,
    shutdown: bool,
}

/// Every update under these locks is a single field write, so a guard
/// recovered from a poisoned lock still sees consistent data. (Task
/// bodies run under `catch_unwind`, so poisoning is not expected at all.)
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl WorkerPool {
    /// A pool with `num_threads` workers; `0` resolves to the machine's
    /// available parallelism. No thread is spawned until a job needs one.
    pub fn new(num_threads: usize) -> Self {
        let threads = if num_threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            num_threads
        };
        Self {
            inner: Arc::new(PoolInner {
                threads,
                busy: Mutex::new(()),
                shared: Arc::default(),
                helpers: OnceLock::new(),
            }),
        }
    }

    /// The resolved worker count (always ≥ 1).
    pub fn threads(&self) -> usize {
        self.inner.threads.max(1)
    }

    /// Evaluates `f(0), …, f(n-1)` and returns the results in index
    /// order. With more than one worker the tasks self-schedule: workers
    /// claim the next unclaimed index from a shared atomic counter, so an
    /// expensive task never strands the rest of a pre-assigned chunk on
    /// one thread. Results are merged by index once every worker is done
    /// — claim order never influences the output.
    ///
    /// A panicking task re-panics here (with the original message in the
    /// payload) after every sibling has finished; callers that must not
    /// unwind use [`try_run`](WorkerPool::try_run).
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        match self.try_run(n, f) {
            Ok(out) => out,
            Err(msg) => panic!("worker task panicked: {msg}"),
        }
    }

    /// Panic-containing variant of [`run`](WorkerPool::run): each task is
    /// wrapped in `catch_unwind`, so one panicking task never poisons its
    /// siblings — every other index still completes, and the helpers
    /// survive for the next job. Returns the first panicking task's
    /// message (in index order) as `Err`.
    pub fn try_run<T, F>(&self, n: usize, f: F) -> Result<Vec<T>, String>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let catch = |i: usize| {
            catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|p| panic_message(p.as_ref()))
        };
        let slots: Vec<Result<T, String>> = match self.claim(n) {
            None => (0..n).map(catch).collect(),
            Some(_busy) => {
                let next = AtomicUsize::new(0);
                let done = Mutex::new(Vec::with_capacity(n));
                self.broadcast(&|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, catch(i)));
                    }
                    lock(&done).extend(local);
                });
                let mut slots: Vec<Option<Result<T, String>>> = (0..n).map(|_| None).collect();
                for (i, result) in done.into_inner().unwrap_or_else(PoisonError::into_inner) {
                    slots[i] = Some(result);
                }
                // Every worker drains the claim counter before it lets go
                // of the job, and `broadcast` returns only after all have
                // let go, so a hole would be a harness bug.
                slots
                    .into_iter()
                    .map(|s| s.expect("every index evaluated"))
                    .collect()
            }
        };
        let mut out = Vec::with_capacity(n);
        for slot in slots {
            out.push(slot?);
        }
        Ok(out)
    }

    /// Takes the busy lock for a job of `n` tasks, or returns `None` when
    /// the job should run inline: one task or one thread, or the pool
    /// already busy with a job posted by this thread (re-entrant use) or
    /// another one.
    fn claim(&self, n: usize) -> Option<MutexGuard<'_, ()>> {
        if self.threads().min(n) <= 1 {
            return None;
        }
        match self.inner.busy.try_lock() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Runs `body` on the calling thread and on every helper that wakes
    /// while the job is posted; returns once no helper holds it any more.
    /// The caller holds the busy lock, so no other job is in flight.
    fn broadcast(&self, body: &(dyn Fn() + Sync)) {
        let inner = &*self.inner;
        inner.helpers.get_or_init(|| inner.spawn_helpers());
        let retire = Retire(&inner.shared);
        #[allow(unsafe_code)]
        // SAFETY: only the lifetime changes; the fat pointer is the same.
        // Helpers reach `job` only by copying it out of `State::job` under
        // the state lock, counting themselves in `holders` under that same
        // lock, and they drop their copy before counting themselves out.
        // `retire` was created above and is dropped before this function
        // returns or unwinds; its drop clears `State::job` and waits for
        // `holders == 0`. So no helper can touch `body` once this call is
        // over, and `body` outlives this call.
        let job: Job = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Job>(body) };
        {
            let mut state = lock(&inner.shared.state);
            state.job = Some(job);
            state.epoch += 1;
        }
        inner.shared.posted.notify_all();
        body();
        drop(retire);
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads())
            .finish_non_exhaustive()
    }
}

impl PoolInner {
    /// Spawns the `threads − 1` helpers. A helper the OS refuses is left
    /// out: the caller, as worker 0, still runs every unclaimed task.
    fn spawn_helpers(&self) -> Vec<JoinHandle<()>> {
        (1..self.threads)
            .filter_map(|worker| {
                let shared = Arc::clone(&self.shared);
                std::thread::Builder::new()
                    .name(format!("ips-worker-{worker}"))
                    .spawn(move || helper(&shared))
                    .ok()
            })
            .collect()
    }
}

impl Drop for PoolInner {
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.posted.notify_all();
        for handle in self.helpers.take().into_iter().flatten() {
            // A helper runs every job under `catch_unwind`, so there is no
            // panic for the join to report.
            let _ = handle.join();
        }
    }
}

/// A helper's life: park until a job it has not run is posted, run it,
/// count itself out, repeat until shutdown.
fn helper(shared: &Shared) {
    let mut seen = 0;
    let mut state = lock(&shared.state);
    loop {
        if state.shutdown {
            return;
        }
        match state.job {
            Some(job) if state.epoch != seen => {
                seen = state.epoch;
                state.holders += 1;
                drop(state);
                // The job's tasks are panic-caught already; this keeps
                // `holders` exact even if the job body itself unwound.
                let _ = catch_unwind(AssertUnwindSafe(job));
                state = lock(&shared.state);
                state.holders -= 1;
                if state.holders == 0 {
                    shared.released.notify_all();
                }
            }
            _ => {
                state = shared
                    .posted
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner)
            }
        }
    }
}

/// Takes a posted job back: clears the slot so no helper can pick it up,
/// then waits until every helper that did has finished with it.
struct Retire<'a>(&'a Shared);

impl Drop for Retire<'_> {
    fn drop(&mut self) {
        let mut state = lock(&self.0.state);
        state.job = None;
        while state.holders > 0 {
            state = self
                .0
                .released
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Renders a `catch_unwind` payload as text: the panic message for the
/// ordinary `&str` / `String` payloads, a placeholder otherwise.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Barrier;
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    fn helper_count(pool: &WorkerPool) -> usize {
        pool.inner.helpers.get().map_or(0, Vec::len)
    }

    /// Blocks until `k` tasks have arrived (or 10 s pass), so a job of
    /// `k` such tasks needs `k` distinct workers to finish promptly.
    fn rendezvous(arrived: &AtomicUsize, k: usize) {
        arrived.fetch_add(1, Ordering::SeqCst);
        let start = Instant::now();
        while arrived.load(Ordering::SeqCst) < k && start.elapsed() < Duration::from_secs(10) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_task_running_its_own_pool_completes_inline() {
        let pool = WorkerPool::new(2);
        let out = pool.run(4, |i| {
            let outer = std::thread::current().id();
            let inner = pool.run(3, |j| (i * 10 + j, std::thread::current().id()));
            assert!(
                inner.iter().all(|&(_, id)| id == outer),
                "inline on the task's thread"
            );
            inner.iter().map(|&(v, _)| v).sum::<usize>()
        });
        assert_eq!(out, [3, 33, 63, 93]);
    }

    #[test]
    fn concurrent_clones_both_get_results_in_index_order() {
        let pool = WorkerPool::new(2);
        let in_flight = Barrier::new(2);
        let finish = Barrier::new(2);
        std::thread::scope(|s| {
            let first = s.spawn(|| {
                pool.try_run(6, |i| {
                    if i == 0 {
                        in_flight.wait();
                        finish.wait();
                    }
                    i * 2
                })
            });
            let (clone, in_flight, finish) = (pool.clone(), &in_flight, &finish);
            let second = s.spawn(move || {
                in_flight.wait();
                let me = std::thread::current().id();
                let out = clone.try_run(5, |i| (i + 100, std::thread::current().id()));
                finish.wait();
                (out, me)
            });
            assert_eq!(first.join().unwrap().unwrap(), [0, 2, 4, 6, 8, 10]);
            let (out, me) = second.join().unwrap();
            let out = out.unwrap();
            assert_eq!(
                out.iter().map(|&(v, _)| v).collect::<Vec<_>>(),
                [100, 101, 102, 103, 104]
            );
            assert!(out.iter().all(|&(_, id)| id == me), "busy pool runs inline");
        });
    }

    #[test]
    fn helper_survives_a_panicking_task() {
        let pool = WorkerPool::new(2);
        assert!(pool.try_run(4, |i| assert_ne!(i, 2)).is_err());
        let arrived = AtomicUsize::new(0);
        let ids: HashSet<ThreadId> = pool
            .run(2, |_| {
                rendezvous(&arrived, 2);
                std::thread::current().id()
            })
            .into_iter()
            .collect();
        assert_eq!(
            ids.len(),
            2,
            "the job after a panic still ran on two threads"
        );
    }

    #[test]
    fn helper_count_stays_fixed_across_jobs() {
        for threads in [1, 3] {
            let pool = WorkerPool::new(threads);
            assert_eq!(helper_count(&pool), 0, "spawned lazily");
            for job in 0..1000 {
                assert_eq!(pool.run(4, |i| i + job)[3], 3 + job);
            }
            assert_eq!(helper_count(&pool), threads - 1, "threads={threads}");
        }
    }

    #[test]
    fn dropping_the_last_handle_joins_every_helper() {
        let pool = WorkerPool::new(3);
        pool.run(8, |i| i);
        assert_eq!(helper_count(&pool), 2);
        let shared = Arc::downgrade(&pool.inner.shared);
        let clone = pool.clone();
        drop(pool);
        assert!(shared.upgrade().is_some(), "a live clone keeps the helpers");
        drop(clone);
        assert!(shared.upgrade().is_none(), "every helper joined");
    }
}
