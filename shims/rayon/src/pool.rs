//! A persistent worker pool dispatching chunk-indexed jobs.
//!
//! Spawning OS threads per parallel call costs tens of microseconds — real
//! rayon amortizes that with a lazily-started global pool, and so do we.
//! A dispatch publishes a job (an erased `&dyn Fn(usize)` plus an atomic
//! chunk cursor) in the pool's single task slot, and the caller
//! participates too. The caller only returns once every chunk has
//! finished, which is what makes lending the non-`'static` closure sound.
//! A panicking chunk still counts as finished: its payload is kept and
//! re-raised on the caller once the whole dispatch is done.
//!
//! Small launches come back to back, so waking a parked thread would cost
//! more than the work it joins. A worker that finishes a task therefore
//! spins on the dispatch generation for [`WORKER_SPIN`] before it parks on
//! the condvar, and a dispatch notifies only when a worker is parked. The
//! caller likewise spins up to [`CALLER_SPIN`] for the stragglers of its
//! dispatch before it sleeps on `task_done`, and the last chunk to finish
//! notifies only when the caller sleeps.

use std::any::Any;
use std::hint::spin_loop;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How long an idle worker watches for the next dispatch before it parks.
/// Back-to-back launches of one multiply come microseconds apart; a parked
/// worker costs the next dispatch a futex wake-up and the worker a
/// reschedule. 100 µs covers the gaps between the launches of one multiply,
/// and a pool that goes idle burns at most that much CPU per worker.
const WORKER_SPIN: Duration = Duration::from_micros(100);

/// How long the caller, done with its own chunks, watches for the other
/// threads' last chunks before it sleeps on `task_done`.
const CALLER_SPIN: Duration = Duration::from_micros(20);

/// Spin iterations between two reads of the clock.
const SPINS_PER_CLOCK_READ: u32 = 64;

/// Chunks run outside the slot's lock, so no panic can poison it.
const SLOT_UNPOISONED: &str = "the task slot is never held across a panic";

type Job = dyn Fn(usize) + Sync;

struct Task {
    /// Erased pointer to the caller's closure. Valid for the lifetime of
    /// the dispatch: the caller blocks until `completed == n_chunks`, so no
    /// worker can observe a dangling pointer through this field (a late
    /// waker finds the cursor exhausted and never dereferences it).
    job: *const Job,
    n_chunks: usize,
    cursor: AtomicUsize,
    completed: AtomicUsize,
    /// Set by the caller before it sleeps on `task_done`; the last chunk to
    /// finish notifies only when it is set.
    caller_sleeps: AtomicBool,
    /// Payload of the first chunk that panicked, re-raised on the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `job` points to a `Sync` closure that the dispatching caller
// keeps alive until every chunk has finished (see above); the other fields
// are atomics, a plain count and a mutex, all `Send` and `Sync`.
unsafe impl Send for Task {}
unsafe impl Sync for Task {}

/// The single task slot, guarded by `Shared::slot`.
struct Slot {
    /// Monotonic dispatch generation.
    generation: u64,
    /// The current task, if any.
    task: Option<Arc<Task>>,
    /// Workers waiting on `work_ready`.
    parked: usize,
}

struct Shared {
    slot: Mutex<Slot>,
    /// Copy of `Slot::generation` that spinning workers read without the
    /// lock; stored under the lock whenever the generation moves.
    generation: AtomicU64,
    work_ready: Condvar,
    task_done: Condvar,
}

struct Pool {
    shared: Arc<Shared>,
    workers: usize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// True on pool worker threads — nested dispatches run inline.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let workers = std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot {
                generation: 0,
                task: None,
                parked: 0,
            }),
            generation: AtomicU64::new(0),
            work_ready: Condvar::new(),
            task_done: Condvar::new(),
        });
        // The caller participates in every dispatch, so spawn one fewer.
        for _ in 1..workers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("shim-rayon-worker".into())
                .spawn(move || worker_loop(&shared))
                .expect("failed to spawn pool worker");
        }
        Pool { shared, workers }
    })
}

/// Worker threads in the pool (including the calling thread).
pub fn num_threads() -> usize {
    pool().workers
}

/// Spins until `done()` holds or `budget` has passed; returns `done()`.
fn spin_until(budget: Duration, done: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    loop {
        for _ in 0..SPINS_PER_CLOCK_READ {
            if done() {
                return true;
            }
            spin_loop();
        }
        if start.elapsed() >= budget {
            return done();
        }
    }
}

fn worker_loop(shared: &Shared) {
    IN_WORKER.with(|w| w.set(true));
    let mut seen = 0u64;
    loop {
        spin_until(WORKER_SPIN, || {
            shared.generation.load(Ordering::Acquire) != seen
        });
        let task = {
            let mut slot = shared.slot.lock().expect(SLOT_UNPOISONED);
            loop {
                if slot.generation > seen {
                    seen = slot.generation;
                    if let Some(t) = slot.task.clone() {
                        break t;
                    }
                }
                // A dispatch reads `parked` under this lock, so it either
                // sees this worker parked or this worker sees its task.
                slot.parked += 1;
                slot = shared.work_ready.wait(slot).expect(SLOT_UNPOISONED);
                slot.parked -= 1;
            }
        };
        run_chunks(shared, &task);
    }
}

fn run_chunks(shared: &Shared, task: &Task) {
    loop {
        let ci = task.cursor.fetch_add(1, Ordering::Relaxed);
        if ci >= task.n_chunks {
            return;
        }
        // SAFETY: the dispatching caller keeps the closure alive until
        // `completed` reaches `n_chunks`, and this chunk is counted below
        // whether or not it panics.
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| unsafe { (*task.job)(ci) })) {
            task.panic
                .lock()
                .expect("the panic slot is never held across a panic")
                .get_or_insert(payload);
        }
        // SeqCst pairs with the caller's `caller_sleeps` store and
        // `completed` load: either the caller sees this count or this
        // thread sees that the caller sleeps.
        if task.completed.fetch_add(1, Ordering::SeqCst) + 1 == task.n_chunks
            && task.caller_sleeps.load(Ordering::SeqCst)
        {
            let _guard = shared.slot.lock().expect(SLOT_UNPOISONED);
            shared.task_done.notify_all();
        }
    }
}

/// Runs `job(chunk_index)` for every index in `0..n_chunks` across the pool.
/// Blocks until all chunks are done. Nested calls run inline. If any chunk
/// panics, the first payload is re-raised here after every chunk finished.
pub fn parallel_chunks(n_chunks: usize, job: &(dyn Fn(usize) + Sync)) {
    if n_chunks == 0 {
        return;
    }
    if IN_WORKER.with(|w| w.get()) || pool().workers <= 1 || n_chunks == 1 {
        for ci in 0..n_chunks {
            job(ci);
        }
        return;
    }
    let shared = &pool().shared;
    // SAFETY: transmute only erases the trait object's lifetime bound
    // (same fat-pointer layout); see `Task::job` for why no worker can
    // dereference it after this function returns.
    let erased: *const Job =
        unsafe { std::mem::transmute::<*const (dyn Fn(usize) + Sync + '_), *const Job>(job) };
    let task = Arc::new(Task {
        job: erased,
        n_chunks,
        cursor: AtomicUsize::new(0),
        completed: AtomicUsize::new(0),
        caller_sleeps: AtomicBool::new(false),
        panic: Mutex::new(None),
    });
    {
        let mut slot = shared.slot.lock().expect(SLOT_UNPOISONED);
        slot.generation += 1;
        slot.task = Some(Arc::clone(&task));
        shared.generation.store(slot.generation, Ordering::Release);
        if slot.parked > 0 {
            shared.work_ready.notify_all();
        }
    }
    // The caller works too.
    run_chunks(shared, &task);
    // Wait for stragglers still inside their last chunk: briefly on the
    // counter, then asleep.
    let all_done = || task.completed.load(Ordering::SeqCst) >= n_chunks;
    let mut slot = if spin_until(CALLER_SPIN, all_done) {
        shared.slot.lock().expect(SLOT_UNPOISONED)
    } else {
        task.caller_sleeps.store(true, Ordering::SeqCst);
        let mut slot = shared.slot.lock().expect(SLOT_UNPOISONED);
        while !all_done() {
            slot = shared.task_done.wait(slot).expect(SLOT_UNPOISONED);
        }
        slot
    };
    // Retire the task so late-waking workers drop their handle promptly.
    if let Some(current) = &slot.task {
        if Arc::ptr_eq(current, &task) {
            slot.task = None;
        }
    }
    drop(slot);
    let payload = task
        .panic
        .lock()
        .expect("the panic slot is never held across a panic")
        .take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}
