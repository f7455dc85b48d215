//! A deterministic SIMT execution simulator.
//!
//! The spECK paper runs on an NVIDIA Titan V; this workspace has no GPU, so
//! every SpGEMM method executes on this simulator instead. Kernels are Rust
//! closures invoked once per *thread block*; blocks run in parallel across
//! host cores (rayon). Each block records the events a GPU would have paid
//! for — group issue rounds, global-memory transactions (coalesced vs.
//! scattered), scratchpad operations and atomics, hash probes, sort steps —
//! into a [`cost::BlockCost`]. A calibrated [`cost::CostModel`] converts
//! events to cycles, and a list scheduler maps blocks onto SM slots
//! (occupancy-limited) to produce a simulated kernel time.
//!
//! The simulator is *functional*: kernels compute real results (validated
//! against a sequential reference), and *deterministic*: the same inputs
//! always produce the same simulated time, regardless of host thread count.
//!
//! ```
//! use speck_simt::{BlockRecords, DeviceConfig, CostModel, KernelConfig, launch};
//!
//! let dev = DeviceConfig::titan_v();
//! let cost = CostModel::default();
//! let cfg = KernelConfig::new(256, 0);
//! let report = launch(&dev, &cost, "demo", 128, cfg, BlockRecords::Skip, |ctx| {
//!     ctx.charge_gmem_stream(32, 1000, 8); // stream 1000 doubles, 32-wide
//! });
//! assert!(report.sim_time_s > 0.0);
//! ```

#![warn(missing_docs)]

pub mod block;
pub mod cost;
pub mod device;
pub mod exec;
pub mod kernel;
pub mod memtrack;
pub mod scratchpad;
pub mod timeline;
pub mod trace;

pub use block::{simulate_group_rounds, BlockCtx, Divisor};
pub use cost::{BlockCost, CostModel, COST_COUNTER_NAMES};
pub use device::DeviceConfig;
pub use exec::{
    launch, launch_map, launch_map_init, schedule_blocks, schedule_blocks_placed, BlockRecords,
    KernelReport, LaunchRecords,
};
pub use kernel::KernelConfig;
pub use memtrack::MemTracker;
pub use scratchpad::Scratchpad;
pub use timeline::{StageTime, Timeline};
pub use trace::{BlockEvent, BlockPlacement, KernelBlockTrace};
