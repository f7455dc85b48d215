//! Reusable kernel workspaces.
//!
//! Allocating a block's accumulator and staging buffers anew is pure
//! host allocator traffic, since the *simulated* cost of the scratchpad
//! is charged separately through [`speck_simt::Scratchpad`]. A
//! [`Workspace`] owns those buffers once and re-arms them per block
//! ("clear-on-reuse"): the hash accumulator empties the slots it claimed
//! and resets its statistics, the dense chunk its mask, and the staging
//! vectors just clear while keeping capacity.
//!
//! [`WorkspacePool`] hands workspaces out to the host chunks of a launch
//! (one checkout per chunk of blocks, through
//! [`speck_simt::launch_map_init`], returned on drop), and
//! [`SharedWorkspaces`] keeps one pool per scalar type so an engine can
//! reuse them across `multiply` calls — including concurrent multiplies
//! through engine clones, which all draw from the same registry. Output
//! buffers are not workspaces: kernels that write one in place cut its
//! pieces per block without any shared state (the row analysis through
//! [`speck_simt::launch_pieces`], the numeric pass C's rows through the
//! partition a [`crate::numeric::NumericPlan`] checks once, when built).
//!
//! **Invariant — host-side reuse never changes simulated cost.** Whatever
//! a kernel charges through [`speck_simt::BlockCtx`] must be identical
//! whether its buffers are freshly allocated or reused; every `reset`
//! below therefore restores the exact logical state (including cost
//! counters) of a fresh buffer.

use crate::denseacc::DenseChunk;
use crate::hashacc::Accumulator;
use speck_sparse::Scalar;
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Reusable buffers for the blocks of one host chunk, re-armed per block.
#[derive(Debug)]
pub struct Workspace<V> {
    /// Hash accumulator (key/value arrays and the list of claimed
    /// slots); re-arm with [`Accumulator::reset`] before use.
    pub acc: Accumulator<V>,
    /// Dense accumulator window (mask/value arrays); re-arm with
    /// `DenseChunk::reuse_numeric` / `DenseChunk::reuse_symbolic`.
    pub dense: DenseChunk<V>,
    /// Per-A-column cursors into B's rows (clear before use).
    pub cursors: Vec<usize>,
    /// Sorted (key, value) staging for accumulator drains.
    pub entries: Vec<(u64, V)>,
}

impl<V: Scalar> Workspace<V> {
    /// A workspace with minimal buffers; they grow on first use and stay
    /// grown.
    pub(crate) fn new() -> Self {
        Self {
            acc: Accumulator::new(1),
            dense: DenseChunk::symbolic(0, 1),
            cursors: Vec::new(),
            entries: Vec::new(),
        }
    }
}

impl<V: Scalar> Default for Workspace<V> {
    fn default() -> Self {
        Self::new()
    }
}

/// A pool of [`Workspace`]s shared by concurrently executing host chunks.
///
/// `acquire` pops an idle workspace (or creates one when all are checked
/// out); the guard returns it on drop. The pool therefore holds at most
/// one workspace per peak-concurrent chunk — per dispatch, at most the
/// number of pool threads — regardless of grid size.
#[derive(Debug, Default)]
pub struct WorkspacePool<V> {
    idle: Mutex<Vec<Workspace<V>>>,
    in_use: AtomicUsize,
    peak_in_use: AtomicUsize,
}

impl<V: Scalar> WorkspacePool<V> {
    /// An empty pool.
    pub fn new() -> Self {
        Self {
            idle: Mutex::new(Vec::new()),
            in_use: AtomicUsize::new(0),
            peak_in_use: AtomicUsize::new(0),
        }
    }

    /// Checks a workspace out; it returns to the pool when the guard
    /// drops.
    pub(crate) fn acquire(&self) -> WorkspaceGuard<'_, V> {
        let ws = self.idle.lock().unwrap().pop().unwrap_or_default();
        let now = self.in_use.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_in_use.fetch_max(now, Ordering::Relaxed);
        WorkspaceGuard {
            pool: self,
            ws: Some(ws),
        }
    }

    /// Number of idle workspaces currently pooled.
    pub(crate) fn idle_count(&self) -> usize {
        self.idle.lock().unwrap().len()
    }

    /// Highest number of simultaneously checked-out workspaces seen — the
    /// pool's occupancy high-water mark: host chunks running at once,
    /// which one dispatch keeps to at most the number of pool threads.
    pub(crate) fn peak_in_use(&self) -> usize {
        self.peak_in_use.load(Ordering::Relaxed)
    }
}

/// RAII checkout of a [`Workspace`]; dereferences to the workspace.
pub(crate) struct WorkspaceGuard<'a, V: Scalar> {
    pool: &'a WorkspacePool<V>,
    ws: Option<Workspace<V>>,
}

impl<V: Scalar> std::ops::Deref for WorkspaceGuard<'_, V> {
    type Target = Workspace<V>;
    fn deref(&self) -> &Workspace<V> {
        self.ws.as_ref().unwrap()
    }
}

impl<V: Scalar> std::ops::DerefMut for WorkspaceGuard<'_, V> {
    fn deref_mut(&mut self) -> &mut Workspace<V> {
        self.ws.as_mut().unwrap()
    }
}

impl<V: Scalar> Drop for WorkspaceGuard<'_, V> {
    fn drop(&mut self) {
        if let Some(ws) = self.ws.take() {
            self.pool.idle.lock().unwrap().push(ws);
            self.pool.in_use.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// One registered pool plus monomorphised probes for its occupancy, so
/// the type-erased registry can report totals without knowing `V`.
struct PoolEntry {
    pool: Arc<dyn Any + Send + Sync>,
    idle: fn(&(dyn Any + Send + Sync)) -> usize,
    peak: fn(&(dyn Any + Send + Sync)) -> usize,
}

fn idle_of<V: Scalar>(any: &(dyn Any + Send + Sync)) -> usize {
    any.downcast_ref::<WorkspacePool<V>>()
        .map_or(0, |p| p.idle_count())
}

fn peak_of<V: Scalar>(any: &(dyn Any + Send + Sync)) -> usize {
    any.downcast_ref::<WorkspacePool<V>>()
        .map_or(0, |p| p.peak_in_use())
}

/// Type-erased registry of one [`WorkspacePool`] per scalar type, letting
/// [`crate::SpeckSpgemm`] (whose `multiply` is generic) keep its pools
/// alive across calls.
#[derive(Default)]
pub struct SharedWorkspaces {
    pools: Mutex<HashMap<TypeId, PoolEntry>>,
}

impl SharedWorkspaces {
    /// An empty registry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The pool for scalar type `V`, created on first request.
    pub(crate) fn pool<V: Scalar>(&self) -> Arc<WorkspacePool<V>> {
        let mut pools = self.pools.lock().unwrap();
        let entry = pools.entry(TypeId::of::<V>()).or_insert_with(|| PoolEntry {
            pool: Arc::new(WorkspacePool::<V>::new()) as Arc<dyn Any + Send + Sync>,
            idle: idle_of::<V>,
            peak: peak_of::<V>,
        });
        Arc::clone(&entry.pool)
            .downcast::<WorkspacePool<V>>()
            .expect("workspace pool type mismatch")
    }

    /// Total idle workspaces across every scalar type's pool — a coarse
    /// gauge of peak chunk concurrency seen so far (one dispatch reaches at
    /// most the rayon width; concurrent multiplies add theirs).
    pub fn total_idle(&self) -> usize {
        let pools = self.pools.lock().unwrap();
        pools.values().map(|e| (e.idle)(e.pool.as_ref())).sum()
    }

    /// Sum of every pool's occupancy high-water mark (see
    /// [`WorkspacePool::peak_in_use`]).
    pub(crate) fn total_peak_in_use(&self) -> usize {
        let pools = self.pools.lock().unwrap();
        pools.values().map(|e| (e.peak)(e.pool.as_ref())).sum()
    }
}

impl std::fmt::Debug for SharedWorkspaces {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedWorkspaces")
            .field("pools", &self.pools.lock().unwrap().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashacc::compound_key;

    #[test]
    fn pool_recycles_workspaces() {
        let pool: WorkspacePool<f64> = WorkspacePool::new();
        {
            let mut a = pool.acquire();
            let mut b = pool.acquire();
            a.cursors.push(1);
            b.cursors.push(2);
            assert_eq!(pool.idle_count(), 0);
        }
        assert_eq!(pool.idle_count(), 2);
        assert_eq!(pool.peak_in_use(), 2);
        let c = pool.acquire();
        assert_eq!(pool.idle_count(), 1);
        // The recycled buffer keeps its capacity; kernels clear it.
        assert!(c.cursors.capacity() >= 1);
    }

    #[test]
    fn accumulator_reset_matches_fresh() {
        let pool: WorkspacePool<f64> = WorkspacePool::new();
        let insert_and_snapshot = |acc: &mut Accumulator<f64>| {
            for i in 0..20u32 {
                acc.insert(compound_key(0, i % 7), 1.5);
            }
            (acc.stats, acc.drain_sorted())
        };
        let (fresh_stats, fresh_out) = {
            let mut acc = Accumulator::new(16);
            insert_and_snapshot(&mut acc)
        };
        // Dirty a pooled accumulator at a different capacity, then reset.
        let mut ws = pool.acquire();
        ws.acc.reset(64);
        for i in 0..64u32 {
            ws.acc.insert(compound_key(1, i), 2.0);
        }
        ws.acc.reset(16);
        let (reused_stats, reused_out) = insert_and_snapshot(&mut ws.acc);
        assert_eq!(fresh_stats, reused_stats);
        assert_eq!(fresh_out, reused_out);

        // At the same capacity a reset clears only the claimed slots: run
        // a block that spills, then one that fills part of the map and is
        // never drained, and the next block must still see a fresh map.
        let cols: Vec<u32> = (0..40).collect();
        ws.acc.reset(16);
        ws.acc.insert_row_keys(2, &cols, 4);
        assert!(ws.acc.spilled_to_global());
        ws.acc.reset(16);
        ws.acc.insert_row_scaled(3, &cols[..6], &[1.0; 6], 2.0, 4);
        assert!(!ws.acc.spilled_to_global());
        ws.acc.reset(16);
        let (reused_stats, reused_out) = insert_and_snapshot(&mut ws.acc);
        assert_eq!(fresh_stats, reused_stats);
        assert_eq!(fresh_out, reused_out);
    }

    #[test]
    fn dense_reuse_matches_fresh() {
        let mut fresh: DenseChunk<f64> = DenseChunk::numeric(10, 30);
        fresh.add(12, 1.0);
        fresh.add(29, 2.0);

        let mut ws: Workspace<f64> = Workspace::new();
        ws.dense.reuse_symbolic(100, 200);
        ws.dense.mark(150);
        ws.dense.reuse_numeric(10, 30);
        ws.dense.add(12, 1.0);
        ws.dense.add(29, 2.0);

        assert_eq!(fresh.extract_sorted(), ws.dense.extract_sorted());
        assert_eq!(fresh.ops, ws.dense.ops);
        assert_eq!(fresh.touched(), ws.dense.touched());
    }

    #[test]
    fn shared_workspaces_one_pool_per_type() {
        let shared = SharedWorkspaces::new();
        let p1 = shared.pool::<f64>();
        let p2 = shared.pool::<f64>();
        let p3 = shared.pool::<f32>();
        assert!(Arc::ptr_eq(&p1, &p2));
        drop(p3);
        {
            let _g = p1.acquire();
        }
        assert_eq!(shared.pool::<f64>().idle_count(), 1);
    }
}
