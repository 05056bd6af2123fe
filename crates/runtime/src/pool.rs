//! A long-lived worker pool with `thread::spawn` semantics.
//!
//! The threaded and loopback executors spawn one task per process and
//! the suite engine one per worker — for a sweep of thousands of short
//! runs that is thousands of `clone(2)` calls doing identical setup.
//! This pool keeps finished workers parked for a grace period and hands
//! them the next task instead.
//!
//! The design constraint is that pooled tasks *block on each other*:
//! the executors' process tasks rendezvous on `setagree-node`'s
//! `RoundGate` every round, and suite workers block in `ClaimWindow`
//! admission. A fixed-size pool with a shared queue would deadlock the
//! moment a cohort of mutually-waiting tasks exceeds the pool size, so
//! this pool is *cached*, not fixed: [`spawn`] hands the task to a parked
//! idle worker if one exists and **starts a fresh thread otherwise** —
//! every task is running on its own thread by the time `spawn` returns,
//! the exact liveness guarantee of `thread::spawn`. Parked workers expire
//! after [`idle_expiry`] (default [`IDLE_EXPIRY`], overridable via
//! `SETAGREE_POOL_IDLE_MS`) so an idle program holds no threads.
//!
//! Each worker owns one slot for its whole life (a
//! `Mutex<Option<Task>>` + `Condvar` pair) and parks on it; the global
//! idle list is a stack, so hand-off is one lock, one move, one wake —
//! there is no shared run queue to starve. A worker lists its slot as
//! idle *before* its task's result becomes visible to
//! [`PooledJoinHandle::join`], so a caller that joins and spawns again
//! always finds the worker it just joined (a sweep opening suites back
//! to back keeps its two workers instead of growing a third). Panics in
//! a task are caught and surface through `join` as the familiar
//! `Err(payload)`, and the worker survives to serve the next task.
//!
//! When `setagree_obs` instrumentation is enabled, the pool reports
//! `pool_workers_spawned` / `pool_workers_reused` / `pool_workers_expired`
//! counters and a `pool_handoff_wait_us` histogram (how long a parked
//! worker waited before its next task arrived).

use std::any::Any;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// The default idle grace period (see [`idle_expiry`]).
pub const IDLE_EXPIRY: Duration = Duration::from_secs(2);

/// How long a finished worker stays parked waiting for its next task
/// before exiting: `SETAGREE_POOL_IDLE_MS` when set to a valid
/// millisecond count, [`IDLE_EXPIRY`] otherwise. Read once, at the
/// first park.
pub fn idle_expiry() -> Duration {
    static EXPIRY: OnceLock<Duration> = OnceLock::new();
    *EXPIRY.get_or_init(|| {
        std::env::var("SETAGREE_POOL_IDLE_MS")
            .ok()
            .and_then(|ms| ms.trim().parse::<u64>().ok())
            .map(Duration::from_millis)
            .unwrap_or(IDLE_EXPIRY)
    })
}

/// The pool's metric handles, registered once on first use.
struct PoolMetrics {
    spawned: Arc<setagree_obs::Counter>,
    reused: Arc<setagree_obs::Counter>,
    expired: Arc<setagree_obs::Counter>,
    handoff_wait_us: Arc<setagree_obs::Histogram>,
}

fn metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| PoolMetrics {
        spawned: setagree_obs::counter("pool_workers_spawned", &[]),
        reused: setagree_obs::counter("pool_workers_reused", &[]),
        expired: setagree_obs::counter("pool_workers_expired", &[]),
        handoff_wait_us: setagree_obs::histogram("pool_handoff_wait_us", &[]),
    })
}

/// A spawned task as the worker sees it: [`run`](Job::run) executes
/// the closure, dropping the box publishes the result — two steps so
/// the worker can list itself idle in between.
trait Job: Send {
    fn run(&mut self);
}

type Task = Box<dyn Job>;

/// Where a task's result waits for [`PooledJoinHandle::join`].
struct Packet<T> {
    result: Mutex<Option<thread::Result<T>>>,
    published: Condvar,
}

struct ClosureJob<F, T> {
    f: Option<F>,
    result: Option<thread::Result<T>>,
    packet: Arc<Packet<T>>,
}

impl<F: FnOnce() -> T + Send, T: Send> Job for ClosureJob<F, T> {
    fn run(&mut self) {
        if let Some(f) = self.f.take() {
            self.result = Some(panic::catch_unwind(AssertUnwindSafe(f)));
        }
    }
}

impl<F, T> Drop for ClosureJob<F, T> {
    /// Publishes the result. Nobody may be joining (the handle was
    /// dropped); that is fine, the result is simply discarded with the
    /// packet.
    fn drop(&mut self) {
        let result = self.result.take().unwrap_or_else(|| {
            // Dropped without having run — only possible if the worker
            // is unwinding or the process tearing down; surface it as a
            // panic-shaped error rather than hanging the joiner.
            Err(Box::new("pool worker terminated without a result") as Box<dyn Any + Send>)
        });
        if let Ok(mut slot) = self.packet.result.lock() {
            *slot = Some(result);
        }
        self.packet.published.notify_one();
    }
}

/// One worker's mailbox: the spawner moves a task in and rings the
/// bell; the worker moves it out or expires.
struct Slot {
    task: Mutex<Option<Task>>,
    bell: Condvar,
}

/// The global idle-worker stack. Lock order: this list first, then a
/// slot's mutex — both the spawner's hand-off and a worker's expiry
/// path honour it, which is what makes expiry race-free.
fn idle() -> &'static Mutex<Vec<Arc<Slot>>> {
    static IDLE: OnceLock<Mutex<Vec<Arc<Slot>>>> = OnceLock::new();
    IDLE.get_or_init(|| Mutex::new(Vec::new()))
}

/// A handle to a pooled task, joining like a
/// [`thread::JoinHandle`]: the task's return value, or `Err` with the
/// panic payload if the task panicked.
pub struct PooledJoinHandle<T> {
    packet: Arc<Packet<T>>,
}

impl<T> fmt::Debug for PooledJoinHandle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PooledJoinHandle").finish_non_exhaustive()
    }
}

impl<T> PooledJoinHandle<T> {
    /// Waits for the task to finish.
    ///
    /// # Errors
    ///
    /// Returns the panic payload if the task panicked, exactly like
    /// [`thread::JoinHandle::join`].
    pub fn join(self) -> thread::Result<T> {
        let mut slot = self.packet.result.lock().expect("pool packet poisoned");
        let result = loop {
            match slot.take() {
                Some(result) => break result,
                None => {
                    slot = self
                        .packet
                        .published
                        .wait(slot)
                        .expect("pool packet poisoned");
                }
            }
        };
        drop(slot);
        // The worker lets go of the packet right after publishing. Wait
        // those few instructions out so the packet is freed here, by the
        // side that allocated it: a block freed on a worker lands in
        // that worker's malloc cache and is handed out again there,
        // still belonging to this thread's arena.
        while Arc::strong_count(&self.packet) > 1 {
            thread::yield_now();
        }
        result
    }
}

/// Runs `f` on a pool worker — a parked idle thread when one is
/// available, a freshly spawned one otherwise. In both cases `f` is
/// running on its own dedicated thread when `spawn` returns, so tasks
/// may freely block on one another (barriers, channels) exactly as with
/// [`thread::spawn`].
pub fn spawn<T, F>(f: F) -> PooledJoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let packet = Arc::new(Packet {
        result: Mutex::new(None),
        published: Condvar::new(),
    });
    let task: Task = Box::new(ClosureJob {
        f: Some(f),
        result: None,
        packet: Arc::clone(&packet),
    });

    let parked = idle().lock().expect("pool idle list poisoned").pop();
    match parked {
        Some(slot) => {
            if setagree_obs::enabled() {
                metrics().reused.inc();
            }
            let mut mailbox = slot.task.lock().expect("pool slot poisoned");
            debug_assert!(mailbox.is_none(), "idle worker already has a task");
            *mailbox = Some(task);
            slot.bell.notify_one();
        }
        None => {
            if setagree_obs::enabled() {
                metrics().spawned.inc();
            }
            thread::Builder::new()
                .name("setagree-pool".into())
                .spawn(move || worker_main(task))
                .expect("failed to spawn pool worker");
        }
    }
    PooledJoinHandle { packet }
}

/// The number of currently parked idle workers (for tests and
/// diagnostics).
pub fn idle_workers() -> usize {
    idle().lock().expect("pool idle list poisoned").len()
}

fn worker_main(first: Task) {
    let slot = Arc::new(Slot {
        task: Mutex::new(None),
        bell: Condvar::new(),
    });
    let mut task = first;
    loop {
        task.run();
        // Idle first, result second: whoever joins this task and spawns
        // again must find this worker, not an empty list.
        let parked_at = setagree_obs::enabled().then(Instant::now);
        idle()
            .lock()
            .expect("pool idle list poisoned")
            .push(Arc::clone(&slot));
        drop(task);
        match wait_for_next(&slot, parked_at) {
            Some(next) => task = next,
            None => return,
        }
    }
}

/// Waits on the worker's (already listed) slot until a task is handed
/// to it or the idle grace period elapses. `None` means expiry: the
/// slot has been unlinked and the worker should exit.
fn wait_for_next(slot: &Arc<Slot>, parked_at: Option<Instant>) -> Option<Task> {
    let handed_off = || {
        if let Some(at) = parked_at {
            let us = u64::try_from(at.elapsed().as_micros()).unwrap_or(u64::MAX);
            metrics().handoff_wait_us.record(us);
        }
    };

    let deadline = Instant::now() + idle_expiry();
    let mut mailbox = slot.task.lock().expect("pool slot poisoned");
    loop {
        if let Some(task) = mailbox.take() {
            handed_off();
            return Some(task);
        }
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let (guard, _timeout) = slot
            .bell
            .wait_timeout(mailbox, deadline - now)
            .expect("pool slot poisoned");
        mailbox = guard;
    }
    // Expired with an empty mailbox. Re-acquire in list-then-slot order
    // (the spawner's order) and decide atomically: a spawner that
    // already popped this slot from the list is committed to filling
    // it, so the mailbox check below cannot miss a hand-off.
    drop(mailbox);
    let mut list = idle().lock().expect("pool idle list poisoned");
    let mut mailbox = slot.task.lock().expect("pool slot poisoned");
    if let Some(task) = mailbox.take() {
        handed_off();
        return Some(task);
    }
    list.retain(|s| !Arc::ptr_eq(s, slot));
    if setagree_obs::enabled() {
        metrics().expired.inc();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn returns_the_task_result() {
        let handle = spawn(|| 6 * 7);
        assert_eq!(handle.join().unwrap(), 42);
    }

    #[test]
    fn propagates_panics_like_thread_join() {
        let handle = spawn(|| -> u32 { panic!("task bug") });
        let payload = handle.join().unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task bug"));
        // The worker survived the panic and can serve another task.
        assert_eq!(spawn(|| 1u32).join().unwrap(), 1);
    }

    #[test]
    fn reuses_parked_workers() {
        // Run one task to completion, give the worker a moment to park,
        // then check the next spawn drains the idle list instead of
        // growing it.
        spawn(|| ()).join().unwrap();
        let deadline = Instant::now() + Duration::from_secs(1);
        while idle_workers() == 0 && Instant::now() < deadline {
            thread::yield_now();
        }
        let parked = idle_workers();
        assert!(parked > 0, "finished worker did not park");
        let ids: &'static Mutex<Vec<thread::ThreadId>> = Box::leak(Box::default());
        spawn(move || ids.lock().unwrap().push(thread::current().id()))
            .join()
            .unwrap();
        assert_eq!(ids.lock().unwrap().len(), 1);
    }

    #[test]
    fn mutually_blocking_tasks_all_run() {
        // The liveness property the executors depend on: a cohort larger
        // than any plausible idle pool, all meeting on one barrier.
        // With a fixed-size queueing pool this deadlocks; here every
        // spawn gets its own thread.
        const COHORT: usize = 48;
        let barrier = Arc::new(Barrier::new(COHORT));
        let met = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..COHORT)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let met = Arc::clone(&met);
                spawn(move || {
                    barrier.wait();
                    met.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(met.load(Ordering::SeqCst), COHORT);
    }

    #[test]
    fn dropped_handle_discards_the_result() {
        let ran = Arc::new(AtomicUsize::new(0));
        let flag = Arc::clone(&ran);
        drop(spawn(move || {
            flag.fetch_add(1, Ordering::SeqCst);
        }));
        let deadline = Instant::now() + Duration::from_secs(1);
        while ran.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
            thread::yield_now();
        }
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }
}
