//! A panic inside a chunk run by a pool worker must reach the caller.
//!
//! This file holds one test so no other dispatch in the process can take
//! the pool's task slot while it runs.

use rayon::prelude::*;
use std::sync::mpsc;
use std::sync::Barrier;
use std::time::Duration;

#[test]
fn worker_chunk_panic_reaches_the_caller() {
    // One worker besides the caller, fixed before the pool starts.
    std::env::set_var("RAYON_NUM_THREADS", "2");
    let (tx, rx) = mpsc::channel();
    let dispatcher = std::thread::spawn(move || {
        // Two items make two chunks. Each thread blocks in its first chunk
        // until the other has taken the second, so the worker runs exactly
        // one chunk, and that chunk panics.
        let both_started = Barrier::new(2);
        let result = std::panic::catch_unwind(|| {
            (0..2usize)
                .into_par_iter()
                .map(|i| {
                    both_started.wait();
                    if std::thread::current().name() == Some("shim-rayon-worker") {
                        panic!("chunk {i} failed on a worker");
                    }
                    i
                })
                .collect::<Vec<usize>>()
        });
        let message = result.err().map(|payload| {
            payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default()
        });
        tx.send(message).expect("the test thread is waiting");
    });
    let message = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the caller never returned from a dispatch whose worker chunk panicked");
    dispatcher
        .join()
        .expect("the dispatching thread caught the panic");
    let message = message.expect("the worker's panic was swallowed");
    assert!(message.contains("failed on a worker"), "{message}");
}
