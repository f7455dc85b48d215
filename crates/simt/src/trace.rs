//! Per-block execution traces.
//!
//! The scheduler in [`crate::exec::schedule_blocks`] reduces the
//! per-block schedule to a single makespan. A launch asked to keep its
//! per-block events ([`crate::exec::BlockRecords::Keep`], which only
//! observers ask for) runs its one deal with placement capture
//! ([`crate::exec::schedule_blocks_placed`]'s loop) and stores one
//! [`BlockEvent`] per block in its [`crate::exec::KernelReport::blocks`]:
//! which SM it was dealt to, which resident slot it occupied, its
//! start/end cycles on the slot clock, and its full [`BlockCost`]
//! breakdown. A plain launch keeps no events, and its `blocks` is
//! `None`.
//!
//! # Capture, not replay
//!
//! The events come from the deal that priced the launch, which shares
//! its loop and accumulators with the plain deal, so the launch's
//! makespan is bit-identical whether or not it keeps them. Whether a
//! trace can exist is decided by each launch's caller, so one caller's
//! tracing never reaches another's launches.
//!
//! # Determinism classes
//!
//! Every field recorded here is derived from the deterministic scheduler
//! deal and the functional block costs; traces are therefore byte-stable
//! across runs and rayon schedules. No wall-clock data is captured.

use crate::cost::BlockCost;

/// Placement of one block on the simulated device: which SM the greedy
/// deal chose, which resident slot stacked it, and the slot-clock
/// start/end cycles.
///
/// Start/end come from a slot-stacking visualization model: each SM
/// exposes `blocks_per_sm` resident slots, a block lands on the slot
/// that frees up earliest (lowest slot index on ties) and occupies it
/// for its serial critical path `max(compute, memory)`. This is the
/// timeline drawn in a trace viewer; the *modelled* SM time additionally
/// accounts for pipe throughput (see [`crate::exec::schedule_blocks`]),
/// so per-slot end times are a lower bound on the kernel makespan, not
/// the makespan itself.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockPlacement {
    /// SM index the block was dealt to.
    pub sm: u32,
    /// Resident-slot index within the SM (`0..blocks_per_sm`).
    pub slot: u32,
    /// Slot-clock cycle at which the block starts.
    pub start_cycles: f64,
    /// Slot-clock cycle at which the block ends (`start + serial`).
    pub end_cycles: f64,
}

/// One captured event per scheduled block.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockEvent {
    /// Grid index of the block (its `block_id`).
    pub grid_idx: u32,
    /// SM index the greedy deal assigned.
    pub sm: u32,
    /// Resident-slot index within the SM.
    pub slot: u32,
    /// Slot-clock start cycle (see [`BlockPlacement`]).
    pub start_cycles: f64,
    /// Slot-clock end cycle.
    pub end_cycles: f64,
    /// Compute-pipe cycles charged to this block.
    pub compute_cycles: f64,
    /// Memory-pipe cycles charged to this block.
    pub memory_cycles: f64,
    /// Full event-counter breakdown for the block.
    pub cost: BlockCost,
}

impl BlockEvent {
    /// Serial critical path of the block: `max(compute, memory)` — the
    /// cycles it occupies its resident slot.
    pub fn serial_cycles(&self) -> f64 {
        self.compute_cycles.max(self.memory_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_is_max_of_pipes() {
        let e = BlockEvent {
            grid_idx: 0,
            sm: 0,
            slot: 0,
            start_cycles: 0.0,
            end_cycles: 7.0,
            compute_cycles: 3.0,
            memory_cycles: 7.0,
            cost: BlockCost::default(),
        };
        assert_eq!(e.serial_cycles(), 7.0);
    }
}
