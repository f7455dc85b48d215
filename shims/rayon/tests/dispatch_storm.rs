//! Back-to-back dispatches from one and from two callers, and a dispatch
//! that must wake a parked worker, all return complete, ordered results.
//!
//! This file holds one test so the pool width it sets is the one the pool
//! starts with.

use rayon::prelude::*;
use std::sync::mpsc;
use std::sync::Barrier;
use std::time::Duration;

/// Dispatches per caller.
const DISPATCHES: usize = 20_000;

/// One dispatch of 2 to 64 items (by `i`), checked for order and
/// completeness.
fn dispatch_and_check(i: usize) {
    let len = 2 + i % 63;
    let got: Vec<usize> = (0..len).into_par_iter().map(|j| j * 3 + i).collect();
    assert_eq!(got.len(), len, "dispatch {i} lost items");
    for (j, &x) in got.iter().enumerate() {
        assert_eq!(x, j * 3 + i, "dispatch {i} item {j} out of order");
    }
}

#[test]
fn dispatch_storm_returns_every_item_in_order() {
    // One worker besides the caller, fixed before the pool starts.
    std::env::set_var("RAYON_NUM_THREADS", "2");
    assert_eq!(rayon::current_num_threads(), 2);

    for i in 0..DISPATCHES {
        dispatch_and_check(i);
    }

    // Two callers share the pool's single task slot.
    std::thread::scope(|s| {
        for caller in 0..2 {
            s.spawn(move || {
                for i in 0..DISPATCHES {
                    dispatch_and_check(i * 2 + caller);
                }
            });
        }
    });

    // Sleep far past the worker's spin budget so it parks, then dispatch
    // two chunks that each wait for the other: the caller alone cannot
    // finish, so the dispatch returns only if it woke the parked worker.
    std::thread::sleep(Duration::from_millis(50));
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let both_started = Barrier::new(2);
        let got: Vec<usize> = (0..2usize)
            .into_par_iter()
            .map(|i| {
                both_started.wait();
                i
            })
            .collect();
        tx.send(got).expect("the test thread is waiting");
    });
    let got = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("a dispatch after a long idle never woke the parked worker");
    assert_eq!(got, vec![0, 1]);
}
