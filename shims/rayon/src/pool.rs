//! A persistent worker pool dispatching chunk-indexed jobs.
//!
//! Spawning OS threads per parallel call costs tens of microseconds — real
//! rayon amortizes that with a lazily-started global pool, and so do we.
//! Workers park on a condvar; a dispatch publishes a job (an erased
//! `&dyn Fn(usize)` plus an atomic chunk cursor), wakes everyone, and the
//! caller participates too. The caller only returns once every chunk has
//! finished, which is what makes lending the non-`'static` closure sound.
//! A panicking chunk still counts as finished: its payload is kept and
//! re-raised on the caller once the whole dispatch is done.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

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
    /// Payload of the first chunk that panicked, re-raised on the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

unsafe impl Send for Task {}
unsafe impl Sync for Task {}

struct Shared {
    /// Monotonic dispatch generation and the current task, if any.
    slot: Mutex<(u64, Option<std::sync::Arc<Task>>)>,
    work_ready: Condvar,
    task_done: Condvar,
}

struct Pool {
    shared: std::sync::Arc<Shared>,
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
        let shared = std::sync::Arc::new(Shared {
            slot: Mutex::new((0, None)),
            work_ready: Condvar::new(),
            task_done: Condvar::new(),
        });
        // The caller participates in every dispatch, so spawn one fewer.
        for _ in 1..workers {
            let shared = std::sync::Arc::clone(&shared);
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

fn worker_loop(shared: &Shared) {
    IN_WORKER.with(|w| w.set(true));
    let mut seen = 0u64;
    loop {
        let task = {
            let mut slot = shared.slot.lock().unwrap();
            loop {
                if slot.0 > seen {
                    seen = slot.0;
                    if let Some(t) = slot.1.clone() {
                        break t;
                    }
                }
                slot = shared.work_ready.wait(slot).unwrap();
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
        if task.completed.fetch_add(1, Ordering::AcqRel) + 1 == task.n_chunks {
            let _guard = shared.slot.lock().unwrap();
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
    let task = std::sync::Arc::new(Task {
        job: erased,
        n_chunks,
        cursor: AtomicUsize::new(0),
        completed: AtomicUsize::new(0),
        panic: Mutex::new(None),
    });
    {
        let mut slot = shared.slot.lock().unwrap();
        slot.0 += 1;
        slot.1 = Some(std::sync::Arc::clone(&task));
        shared.work_ready.notify_all();
    }
    // The caller works too.
    run_chunks(shared, &task);
    // Wait for stragglers still inside their last chunk.
    let mut slot = shared.slot.lock().unwrap();
    while task.completed.load(Ordering::Acquire) < n_chunks {
        slot = shared.task_done.wait(slot).unwrap();
    }
    // Retire the task so late-waking workers drop their handle promptly.
    if let Some(current) = &slot.1 {
        if std::sync::Arc::ptr_eq(current, &task) {
            slot.1 = None;
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
