//! Offline stand-in for [rayon](https://crates.io/crates/rayon).
//!
//! The build environment has no registry access, so this crate provides the
//! subset of rayon's API the workspace uses — `into_par_iter` on ranges,
//! `map`, `map_init`, `collect` — on top of a persistent `std::thread`
//! worker pool.
//!
//! Guarantees the workspace relies on:
//! - **Order preservation**: `collect()` returns items in iteration order.
//! - **Re-entrancy**: nested parallel calls from inside a worker run inline
//!   (serially) instead of deadlocking the pool.

mod pool;

use pool::parallel_chunks;

/// The rayon prelude: import the traits.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelIterator};
}

/// Number of worker threads the global pool uses (including the caller).
pub fn current_num_threads() -> usize {
    pool::num_threads()
}

// ---------------------------------------------------------------------------
// Producer model: every parallel iterator is an indexed source. `State` is
// per-worker scratch (used by `map_init`); producing item `i` only needs a
// shared `&self` plus that worker-local state, which makes work distribution
// by index both simple and deterministic.
// ---------------------------------------------------------------------------

/// An indexed parallel source of `len()` items.
pub trait Producer: Sync {
    /// Item produced for each index.
    type Item: Send;
    /// Per-worker scratch state.
    type State;
    /// Total number of items.
    fn len(&self) -> usize;
    /// Whether the source has no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Fresh per-worker state.
    fn init(&self) -> Self::State;
    /// Produces the item at `idx`.
    fn produce(&self, state: &mut Self::State, idx: usize) -> Self::Item;
}

/// A parallel iterator over a [`Producer`].
pub struct ParIter<P>(P);

/// Conversion into a parallel iterator (rayon's entry-point trait).
pub trait IntoParallelIterator {
    /// Item type of the resulting iterator.
    type Item: Send;
    /// Resulting iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Converts `self`.
    fn into_par_iter(self) -> Self::Iter;
}

/// Producer for `Range<usize>`.
pub struct RangeProducer {
    start: usize,
    len: usize,
}

impl Producer for RangeProducer {
    type Item = usize;
    type State = ();
    fn len(&self) -> usize {
        self.len
    }
    fn init(&self) {}
    fn produce(&self, _: &mut (), idx: usize) -> usize {
        self.start + idx
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    type Iter = ParIter<RangeProducer>;
    fn into_par_iter(self) -> Self::Iter {
        ParIter(RangeProducer {
            start: self.start,
            len: self.end.saturating_sub(self.start),
        })
    }
}

/// Producer for [`ParallelIterator::map`].
pub struct MapProducer<P, F> {
    inner: P,
    f: F,
}

impl<P, F, R> Producer for MapProducer<P, F>
where
    P: Producer,
    F: Fn(P::Item) -> R + Sync,
    R: Send,
{
    type Item = R;
    type State = P::State;
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn init(&self) -> P::State {
        self.inner.init()
    }
    fn produce(&self, state: &mut P::State, idx: usize) -> R {
        (self.f)(self.inner.produce(state, idx))
    }
}

/// Producer for [`ParallelIterator::map_init`].
pub struct MapInitProducer<P, I, F> {
    inner: P,
    init: I,
    f: F,
}

impl<P, I, T, F, R> Producer for MapInitProducer<P, I, F>
where
    P: Producer,
    I: Fn() -> T + Sync,
    F: Fn(&mut T, P::Item) -> R + Sync,
    R: Send,
{
    type Item = R;
    type State = (P::State, T);
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn init(&self) -> (P::State, T) {
        (self.inner.init(), (self.init)())
    }
    fn produce(&self, state: &mut (P::State, T), idx: usize) -> R {
        let item = self.inner.produce(&mut state.0, idx);
        (self.f)(&mut state.1, item)
    }
}

/// The subset of rayon's `ParallelIterator` the workspace uses.
pub trait ParallelIterator: Sized {
    /// Item type.
    type Item: Send;
    /// Underlying producer type.
    type Producer: Producer<Item = Self::Item>;

    /// Unwraps the producer.
    fn into_producer(self) -> Self::Producer;

    /// Maps each item through `f` in parallel.
    fn map<F, R>(self, f: F) -> ParIter<MapProducer<Self::Producer, F>>
    where
        F: Fn(Self::Item) -> R + Sync,
        R: Send,
    {
        ParIter(MapProducer {
            inner: self.into_producer(),
            f,
        })
    }

    /// Maps with per-worker state created by `init` (rayon's `map_init`).
    fn map_init<I, T, F, R>(self, init: I, f: F) -> ParIter<MapInitProducer<Self::Producer, I, F>>
    where
        I: Fn() -> T + Sync,
        F: Fn(&mut T, Self::Item) -> R + Sync,
        R: Send,
    {
        ParIter(MapInitProducer {
            inner: self.into_producer(),
            init,
            f,
        })
    }

    /// Collects all items, preserving iteration order.
    fn collect<C: FromParallelIterator<Self::Item>>(self) -> C {
        C::from_par_iter(self)
    }
}

impl<P: Producer> ParallelIterator for ParIter<P> {
    type Item = P::Item;
    type Producer = P;
    fn into_producer(self) -> P {
        self.0
    }
}

/// Parallel-ordered `collect` target (rayon's `FromParallelIterator`).
pub trait FromParallelIterator<T: Send> {
    /// Builds the collection from a parallel iterator.
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Self {
        let producer = iter.into_producer();
        run_chunked(&producer, |state, range| {
            let mut out = Vec::with_capacity(range.len());
            out.extend(range.map(|i| producer.produce(state, i)));
            out
        })
    }
}

/// Runs `work(state, index_range)` over `producer`'s index space split
/// into contiguous chunks, dynamically dealt to the pool's workers, each
/// chunk returning its items. Returns the concatenation of every chunk's
/// items **in chunk order**, so callers observe a deterministic,
/// order-preserving result: an inline run's `Vec` as it is, the chunks of
/// a pool run moved into one `Vec` presized to their total.
fn run_chunked<P, T, W>(producer: &P, work: W) -> Vec<T>
where
    P: Producer,
    T: Send,
    W: Fn(&mut P::State, std::ops::Range<usize>) -> Vec<T> + Sync,
{
    let len = producer.len();
    if len == 0 {
        return Vec::new();
    }
    let workers = pool::num_threads();
    // Small inputs or a serial pool: run inline.
    if workers <= 1 || len <= 1 {
        return work(&mut producer.init(), 0..len);
    }
    // ~4 chunks per worker bounds both scheduling overhead and tail
    // imbalance without requiring work stealing.
    let chunk = len.div_ceil(workers * 4).max(1);
    let n_chunks = len.div_ceil(chunk);
    let slots: Vec<std::sync::Mutex<Option<Vec<T>>>> =
        (0..n_chunks).map(|_| std::sync::Mutex::new(None)).collect();
    parallel_chunks(n_chunks, &|ci| {
        let start = ci * chunk;
        let end = (start + chunk).min(len);
        let out = work(&mut producer.init(), start..end);
        *slots[ci].lock().unwrap() = Some(out);
    });
    let parts: Vec<Vec<T>> = slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("chunk not executed"))
        .collect();
    let mut merged = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for part in parts {
        merged.extend(part);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn range_map_collect_preserves_order() {
        let v: Vec<usize> = (0..10_000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v.len(), 10_000);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i * 2);
        }
    }

    #[test]
    fn map_init_reuses_worker_state() {
        let v: Vec<usize> = (0..1_000)
            .into_par_iter()
            .map_init(Vec::<usize>::new, |scratch, i| {
                scratch.push(i);
                scratch.len()
            })
            .collect();
        assert_eq!(v.len(), 1_000);
        // Each worker's scratch grows monotonically; first item is >= 1.
        assert!(v.iter().all(|&n| n >= 1));
    }

    #[test]
    fn collect_keeps_owned_items_in_order_for_one_and_many_chunks() {
        // One item runs inline as a single chunk; 10 000 items split into
        // several chunks on any pool wider than one thread.
        for len in [1usize, 10_000] {
            let v: Vec<String> = (0..len).into_par_iter().map(|i| i.to_string()).collect();
            assert_eq!(v.len(), len);
            assert!(v.iter().enumerate().all(|(i, s)| *s == i.to_string()));
        }
    }

    #[test]
    fn empty_range_collects_empty() {
        let v: Vec<usize> = (5..5).into_par_iter().map(|i| i).collect();
        assert!(v.is_empty());
    }

    #[test]
    fn nested_parallelism_runs_inline() {
        let v: Vec<usize> = (0..64)
            .into_par_iter()
            .map(|i| {
                let inner: Vec<usize> = (0..8).into_par_iter().map(|j| i + j).collect();
                inner.into_iter().sum()
            })
            .collect();
        assert_eq!(v[0], (0..8).sum::<usize>());
    }
}
