//! Kernel launch: runs every block functionally (rayon across host cores)
//! and schedules the recorded block costs onto SM slots to produce a
//! deterministic simulated kernel time.

use crate::block::BlockCtx;
use crate::cost::{BlockCost, CostModel};
use crate::device::DeviceConfig;
use crate::kernel::KernelConfig;
use crate::trace::{BlockEvent, BlockPlacement, KernelBlockTrace};
use rayon::prelude::*;
use std::borrow::Cow;

/// Outcome of one simulated kernel launch.
#[derive(Clone, Debug)]
pub struct KernelReport {
    /// Kernel name (for stage attribution). Static for the fixed kernels,
    /// owned only for per-config formatted names.
    pub name: Cow<'static, str>,
    /// Number of blocks launched.
    pub grid: usize,
    /// Launch shape.
    pub cfg: KernelConfig,
    /// Resident blocks per SM at this shape.
    pub blocks_per_sm: usize,
    /// Aggregated event counters over all blocks.
    pub total_cost: BlockCost,
    /// Simulated execution time in cycles (including launch overhead).
    pub sim_cycles: f64,
    /// Simulated execution time in seconds.
    pub sim_time_s: f64,
    /// Per-block event counters, in grid order.
    pub block_costs: Vec<BlockCost>,
    /// Per-block `(compute, memory)` cycles, in grid order: the
    /// scheduler's input, from which [`KernelReport::block_trace`]
    /// replays the launch's schedule.
    pub block_cycles: Vec<(f64, f64)>,
}

/// Schedules per-block `(compute, memory)` cycle costs onto the device and
/// returns the kernel makespan in cycles (excluding launch overhead).
///
/// Model: an SM's instruction-issue pipe and its share of the memory system
/// are *throughput* resources — every resident block's compute cycles queue
/// on the former and its memory cycles on the latter, and the two pipes
/// overlap. Occupancy (`blocks_per_sm`) governs *latency hiding*: a block's
/// serial critical path `max(compute, memory)` can only be overlapped with
/// the `bpsm - 1` co-resident blocks, so an SM additionally cannot finish
/// before `sum(serial_i) / bpsm` — with `bpsm = 1` execution degenerates to
/// fully serial (the paper's 96 KiB-scratchpad occupancy penalty). Blocks
/// are dealt greedily to the least-loaded SM (deterministic tie-break).
///
/// SM time = max(Σ compute, Σ memory, max serial, Σ serial / bpsm);
/// kernel time = max over SMs.
///
/// Block i goes to the SM with the smallest serial load so far, lowest
/// SM index on ties — implemented as a binary-heap selection, O(grid ·
/// log num_SMs) instead of the naive O(grid · num_SMs) scan, with the
/// identical (bit-exact) assignment: each SM appears in the heap exactly
/// once, so popping the minimum `(load, index)` reproduces the scan's
/// strict `<` lowest-index tie-break, and per-SM sums accumulate in the
/// same block order.
pub fn schedule_blocks(dev: &DeviceConfig, cfg: KernelConfig, blocks: &[(f64, f64)]) -> f64 {
    schedule_blocks_placed(dev, cfg, blocks, None)
}

/// [`schedule_blocks`] with optional per-block placement capture.
///
/// When `placements` is `Some`, one [`BlockPlacement`] per block is pushed
/// in grid order: the SM chosen by the greedy deal plus a resident-slot
/// assignment (the block lands on the slot of that SM that frees earliest,
/// lowest slot index on ties, and occupies it for its serial critical
/// path). Recording placements shares the *same* loop and accumulators
/// as the plain path, so the returned makespan is bit-identical whether
/// or not placements are recorded — which is what lets
/// [`KernelReport::block_trace`] replay a launch's schedule exactly.
pub fn schedule_blocks_placed(
    dev: &DeviceConfig,
    cfg: KernelConfig,
    blocks: &[(f64, f64)],
    mut placements: Option<&mut Vec<BlockPlacement>>,
) -> f64 {
    use std::cmp::{Ordering, Reverse};
    use std::collections::BinaryHeap;

    if blocks.is_empty() {
        return 0.0;
    }

    /// Heap key: serial load first (total order — loads are non-negative
    /// sums, so `total_cmp` agrees with `<`), SM index to break ties.
    #[derive(PartialEq)]
    struct SmLoad {
        load: f64,
        sm: usize,
    }
    impl Eq for SmLoad {}
    impl Ord for SmLoad {
        fn cmp(&self, o: &Self) -> Ordering {
            self.load.total_cmp(&o.load).then(self.sm.cmp(&o.sm))
        }
    }
    impl PartialOrd for SmLoad {
        fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
            Some(self.cmp(o))
        }
    }

    let bpsm_slots = dev.blocks_per_sm(cfg.threads, cfg.scratch_bytes);
    let bpsm = bpsm_slots as f64;
    let mut sm_compute = vec![0.0f64; dev.num_sms];
    let mut sm_memory = vec![0.0f64; dev.num_sms];
    let mut sm_serial = vec![0.0f64; dev.num_sms];
    let mut sm_max = vec![0.0f64; dev.num_sms];
    // Slot-clock end times, only allocated when placements are captured.
    let mut slot_end: Vec<f64> = if placements.is_some() {
        vec![0.0f64; dev.num_sms * bpsm_slots]
    } else {
        Vec::new()
    };
    let mut heap: BinaryHeap<Reverse<SmLoad>> = (0..dev.num_sms)
        .map(|sm| Reverse(SmLoad { load: 0.0, sm }))
        .collect();
    for &(c, m) in blocks {
        let Reverse(SmLoad { load, sm }) = heap.pop().expect("one entry per SM");
        let serial = c.max(m);
        sm_compute[sm] += c;
        sm_memory[sm] += m;
        sm_serial[sm] += serial;
        sm_max[sm] = sm_max[sm].max(serial);
        if let Some(out) = placements.as_deref_mut() {
            let base = sm * bpsm_slots;
            let mut best = 0usize;
            for s in 1..bpsm_slots {
                if slot_end[base + s] < slot_end[base + best] {
                    best = s;
                }
            }
            let start = slot_end[base + best];
            let end = start + serial;
            slot_end[base + best] = end;
            out.push(BlockPlacement {
                sm: sm as u32,
                slot: best as u32,
                start_cycles: start,
                end_cycles: end,
            });
        }
        heap.push(Reverse(SmLoad {
            load: load + serial,
            sm,
        }));
    }
    (0..dev.num_sms)
        .map(|i| {
            sm_compute[i]
                .max(sm_memory[i])
                .max(sm_max[i])
                .max(sm_serial[i] / bpsm)
        })
        .fold(0.0f64, f64::max)
}

/// Launches `grid` blocks of a kernel whose closure returns a per-block
/// value; returns the report plus all block results in block order.
pub fn launch_map<R, F>(
    dev: &DeviceConfig,
    cost: &CostModel,
    name: impl Into<Cow<'static, str>>,
    grid: usize,
    cfg: KernelConfig,
    f: F,
) -> (KernelReport, Vec<R>)
where
    R: Send,
    F: Fn(&mut BlockCtx) -> R + Sync,
{
    launch_map_init(dev, cost, name, grid, cfg, || (), |_, ctx| f(ctx))
}

/// [`launch_map`] with host-side state shared by the blocks of one host
/// chunk: `init` runs once per chunk of blocks a host thread executes
/// (rayon's `map_init`), and every block of that chunk gets `&mut` to its
/// result. The state is host scratch only — simulated cost comes from what
/// each block charges through its [`BlockCtx`], so it must not depend on
/// which chunk ran the block.
pub fn launch_map_init<T, R, I, F>(
    dev: &DeviceConfig,
    cost: &CostModel,
    name: impl Into<Cow<'static, str>>,
    grid: usize,
    cfg: KernelConfig,
    init: I,
    f: F,
) -> (KernelReport, Vec<R>)
where
    R: Send,
    I: Fn() -> T + Sync,
    F: Fn(&mut T, &mut BlockCtx) -> R + Sync,
{
    let name = name.into();
    assert!(
        cfg.threads <= dev.max_threads_per_block,
        "kernel {name}: {} threads exceed device limit {}",
        cfg.threads,
        dev.max_threads_per_block
    );
    assert!(
        cfg.scratch_bytes <= dev.scratch_max_per_block,
        "kernel {name}: {} B scratchpad exceed device limit {}",
        cfg.scratch_bytes,
        dev.scratch_max_per_block
    );

    // Per-block cycle splitting happens inside the parallel map; the
    // remaining serial work is a plain unzip of already-computed values.
    let results: Vec<(BlockCost, (f64, f64), R)> = (0..grid)
        .into_par_iter()
        .map_init(init, |state, block_id| {
            let mut ctx = BlockCtx::new(block_id, cfg, dev.transaction_bytes, dev.warp_size);
            let r = f(state, &mut ctx);
            let c = ctx.into_cost();
            let cycles = cost.split_cycles(&c);
            (c, cycles, r)
        })
        .collect();

    let mut costs = Vec::with_capacity(grid);
    let mut block_cycles = Vec::with_capacity(grid);
    let mut outputs = Vec::with_capacity(grid);
    for (c, cy, r) in results {
        costs.push(c);
        block_cycles.push(cy);
        outputs.push(r);
    }
    // Parallel fold/reduce of the aggregate counters: every field is an
    // integer sum, so the reduction is associative, and the chunk-ordered
    // combination keeps it deterministic.
    let total_cost = costs
        .par_iter()
        .map(|c| *c)
        .reduce(BlockCost::default, |a, b| a.merge(&b));

    let body = schedule_blocks(dev, cfg, &block_cycles);
    let sim_cycles = body + dev.launch_overhead_cycles;
    let report = KernelReport {
        name,
        grid,
        cfg,
        blocks_per_sm: dev.blocks_per_sm(cfg.threads, cfg.scratch_bytes),
        total_cost,
        sim_cycles,
        sim_time_s: dev.cycles_to_seconds(sim_cycles),
        block_costs: costs,
        block_cycles,
    };
    (report, outputs)
}

impl KernelReport {
    /// Per-block schedule of this launch on `dev` (the device it ran on),
    /// rebuilt by replaying [`schedule_blocks_placed`] over the stored
    /// per-block cycles. The replay is the loop the launch ran, so its
    /// events and `body_cycles` are bit-identical to the launch's.
    pub fn block_trace(&self, dev: &DeviceConfig) -> KernelBlockTrace {
        let mut placements = Vec::with_capacity(self.grid);
        let body_cycles =
            schedule_blocks_placed(dev, self.cfg, &self.block_cycles, Some(&mut placements));
        let events = placements
            .iter()
            .zip(&self.block_costs)
            .zip(&self.block_cycles)
            .enumerate()
            .map(|(i, ((p, c), &(cc, mc)))| BlockEvent {
                grid_idx: i as u32,
                sm: p.sm,
                slot: p.slot,
                start_cycles: p.start_cycles,
                end_cycles: p.end_cycles,
                compute_cycles: cc,
                memory_cycles: mc,
                cost: *c,
            })
            .collect();
        KernelBlockTrace {
            events,
            body_cycles,
        }
    }

    /// Kernel body cycles, excluding the launch overhead.
    pub fn body_cycles(&self, dev: &DeviceConfig) -> f64 {
        (self.sim_cycles - dev.launch_overhead_cycles).max(0.0)
    }

    /// Bytes moved through the simulated memory system (sector-granular
    /// coalesced traffic plus scattered accesses and atomics).
    pub fn bytes_moved(&self, dev: &DeviceConfig) -> u64 {
        (self.total_cost.gmem_tx + self.total_cost.gmem_scatter + self.total_cost.gmem_atomics)
            * dev.transaction_bytes as u64
    }

    /// Achieved memory bandwidth in GB/s over the kernel body — for
    /// sanity-checking the cost model against hardware limits.
    pub fn achieved_bandwidth_gbps(&self, dev: &DeviceConfig) -> f64 {
        let t = dev.cycles_to_seconds(self.body_cycles(dev));
        if t <= 0.0 {
            0.0
        } else {
            self.bytes_moved(dev) as f64 / t / 1e9
        }
    }

    /// One-line human-readable summary. Format (pinned by a unit test so
    /// profiler output can rely on it):
    ///
    /// `<name>: grid <g> x <t>t/<s>B, <time> us, bw: <bw> GB/s, occ: <n> blocks/SM`
    pub fn summary(&self, dev: &DeviceConfig) -> String {
        format!(
            "{}: grid {} x {}t/{}B, {:.1} us, bw: {:.0} GB/s, occ: {} blocks/SM",
            self.name,
            self.grid,
            self.cfg.threads,
            self.cfg.scratch_bytes,
            self.sim_time_s * 1e6,
            self.achieved_bandwidth_gbps(dev),
            self.blocks_per_sm,
        )
    }
}

/// [`launch_map`] for kernels that only record cost.
pub fn launch<F>(
    dev: &DeviceConfig,
    cost: &CostModel,
    name: impl Into<Cow<'static, str>>,
    grid: usize,
    cfg: KernelConfig,
    f: F,
) -> KernelReport
where
    F: Fn(&mut BlockCtx) + Sync,
{
    launch_map(dev, cost, name, grid, cfg, |ctx| f(ctx)).0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DeviceConfig {
        DeviceConfig::tiny()
    }

    #[test]
    fn empty_grid_costs_only_launch_overhead() {
        let d = dev();
        let r = launch(
            &d,
            &CostModel::default(),
            "k",
            0,
            KernelConfig::new(32, 0),
            |_| {},
        );
        assert_eq!(r.sim_cycles, d.launch_overhead_cycles);
    }

    #[test]
    fn results_returned_in_block_order() {
        let d = dev();
        let (_, out) = launch_map(
            &d,
            &CostModel::default(),
            "k",
            100,
            KernelConfig::new(32, 0),
            |ctx| ctx.block_id() * 2,
        );
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 2);
        }
    }

    #[test]
    fn map_init_state_is_shared_within_a_chunk() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let d = dev();
        let grid = 4096;
        let inits = AtomicUsize::new(0);
        let kernel = |ctx: &mut BlockCtx| {
            ctx.charge_rounds(ctx.block_id() as u64);
            ctx.block_id() * 3
        };
        let (plain, plain_out) = launch_map(
            &d,
            &CostModel::default(),
            "k",
            grid,
            KernelConfig::new(32, 0),
            kernel,
        );
        let (shared, shared_out) = launch_map_init(
            &d,
            &CostModel::default(),
            "k",
            grid,
            KernelConfig::new(32, 0),
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, ctx| kernel(ctx),
        );
        assert_eq!(plain_out, shared_out);
        assert_eq!(plain.sim_cycles, shared.sim_cycles);
        assert_eq!(plain.block_cycles, shared.block_cycles);
        // One state per host chunk, far fewer than one per block.
        let inits = inits.into_inner();
        assert!(
            (1..grid).contains(&inits),
            "{inits} inits for {grid} blocks"
        );
    }

    #[test]
    fn simulated_time_is_deterministic() {
        let d = dev();
        let run = || {
            launch(
                &d,
                &CostModel::default(),
                "k",
                64,
                KernelConfig::new(64, 0),
                |ctx| {
                    ctx.charge_rounds((ctx.block_id() as u64 % 7) * 10);
                    ctx.charge_gmem_tx(ctx.block_id() as u64);
                },
            )
            .sim_cycles
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn single_straggler_dominates() {
        // One block with 1000x the work of the rest bounds the makespan.
        let cycles_balanced = vec![(10.0, 5.0); 64];
        let mut cycles_straggler = cycles_balanced.clone();
        cycles_straggler[0] = (10_000.0, 5.0);
        let cfg = KernelConfig::new(32, 0);
        let d = dev();
        let a = schedule_blocks(&d, cfg, &cycles_balanced);
        let b = schedule_blocks(&d, cfg, &cycles_straggler);
        assert!(b >= 10_000.0);
        assert!(b > 10.0 * a);
    }

    #[test]
    fn low_occupancy_serialises_latency() {
        // The same blocks on a scratch-starved shape (1 resident block per
        // SM) cannot overlap compute with memory across blocks.
        let d = dev();
        let blocks = vec![(100.0, 100.0); 8]; // 2 per SM on `tiny`
        let small = KernelConfig::new(64, 1024); // several resident
        let large = KernelConfig::new(64, 32 * 1024); // scratch-bound: 1/SM
        let t_small = schedule_blocks(&d, small, &blocks);
        let t_large = schedule_blocks(&d, large, &blocks);
        // 2 blocks/SM: pipes overlap -> max(200, 200) = 200.
        assert!((t_small - 200.0).abs() < 1e-9, "t_small={t_small}");
        // 1 block/SM: serial -> 100+100 per block = 200... bounded below by
        // sum of serials: 2 blocks x 100 serial = 200 each SM; but totals
        // are also 200. Check monotonicity instead.
        assert!(t_large >= t_small);
    }

    #[test]
    fn throughput_pipes_accumulate() {
        // Compute cycles of co-resident blocks queue on the SM issue pipe.
        let d = dev();
        let cfg = KernelConfig::new(32, 0);
        let one = schedule_blocks(&d, cfg, &vec![(100.0, 1.0); d.num_sms]);
        let four = schedule_blocks(&d, cfg, &vec![(100.0, 1.0); 4 * d.num_sms]);
        assert!((one - 100.0).abs() < 1e-9);
        assert!((four - 400.0).abs() < 1e-9);
    }

    #[test]
    fn work_conservation_lower_bound() {
        // Makespan can never beat total compute work / SM count.
        let d = dev();
        let cfg = KernelConfig::new(32, 0);
        let blocks: Vec<(f64, f64)> = (0..500).map(|i| ((i % 13) as f64 + 1.0, 1.0)).collect();
        let total: f64 = blocks.iter().map(|b| b.0).sum();
        let t = schedule_blocks(&d, cfg, &blocks);
        assert!(t >= total / d.num_sms as f64 - 1e-9);
    }

    #[test]
    #[should_panic(expected = "exceed device limit")]
    fn oversized_block_rejected() {
        let d = dev();
        launch(
            &d,
            &CostModel::default(),
            "k",
            1,
            KernelConfig::new(4096, 0),
            |_| {},
        );
    }

    #[test]
    fn report_metrics_are_sane() {
        let d = DeviceConfig::titan_v();
        let r = launch(
            &d,
            &CostModel::default(),
            "bw",
            512,
            KernelConfig::new(256, 0),
            |ctx| {
                ctx.charge_gmem_stream(256, 100_000, 8);
            },
        );
        // Achieved bandwidth must not exceed the model's aggregate ceiling
        // (num_sms * tx_bytes / c_gmem_tx per cycle).
        let cost = CostModel::default();
        let ceiling = d.num_sms as f64 * d.transaction_bytes as f64 / cost.c_gmem_tx * d.clock_ghz;
        let bw = r.achieved_bandwidth_gbps(&d);
        assert!(
            bw > 0.0 && bw <= ceiling * 1.01,
            "bw {bw} vs ceiling {ceiling}"
        );
        assert!(r.body_cycles(&d) > 0.0);
        assert!(r.summary(&d).contains("bw:"));
    }

    #[test]
    fn schedule_empty_block_list_is_zero() {
        let d = dev();
        assert_eq!(schedule_blocks(&d, KernelConfig::new(32, 0), &[]), 0.0);
        // And with placements requested: still zero, none recorded.
        let mut pl = Vec::new();
        let t = schedule_blocks_placed(&d, KernelConfig::new(32, 0), &[], Some(&mut pl));
        assert_eq!(t, 0.0);
        assert!(pl.is_empty());
    }

    #[test]
    fn schedule_single_block_is_its_serial_path() {
        let d = dev();
        let t = schedule_blocks(&d, KernelConfig::new(32, 0), &[(70.0, 120.0)]);
        assert_eq!(t, 120.0);
        let mut pl = Vec::new();
        schedule_blocks_placed(
            &d,
            KernelConfig::new(32, 0),
            &[(70.0, 120.0)],
            Some(&mut pl),
        );
        assert_eq!(pl.len(), 1);
        assert_eq!((pl[0].sm, pl[0].slot), (0, 0));
        assert_eq!((pl[0].start_cycles, pl[0].end_cycles), (0.0, 120.0));
    }

    #[test]
    fn schedule_grid_smaller_than_one_sm_fans_out() {
        // Fewer blocks than one SM's resident slots: the greedy deal still
        // spreads them one per SM, so the makespan is the worst serial path.
        let d = dev();
        let cfg = KernelConfig::new(32, 0);
        assert!(d.blocks_per_sm(32, 0) > 3);
        let blocks = [(10.0, 5.0), (20.0, 5.0), (30.0, 5.0)];
        let mut pl = Vec::new();
        let t = schedule_blocks_placed(&d, cfg, &blocks, Some(&mut pl));
        assert_eq!(t, 30.0);
        let sms: Vec<u32> = pl.iter().map(|p| p.sm).collect();
        assert_eq!(sms, vec![0, 1, 2]);
        assert!(pl.iter().all(|p| p.slot == 0 && p.start_cycles == 0.0));
    }

    #[test]
    fn schedule_single_slot_occupancy_serialises() {
        // blocks_per_sm == 1: a lone SM cannot overlap the serial critical
        // paths of its blocks, so mixed compute/memory blocks serialise.
        let mut d = dev();
        d.num_sms = 1;
        d.max_blocks_per_sm = 1;
        let cfg = KernelConfig::new(32, 0);
        assert_eq!(d.blocks_per_sm(cfg.threads, cfg.scratch_bytes), 1);
        let blocks = [(100.0, 0.0), (0.0, 100.0)];
        let t = schedule_blocks(&d, cfg, &blocks);
        assert_eq!(t, 200.0); // sum of serials, not max(sum c, sum m) = 100
        let mut two_slots = d.clone();
        two_slots.max_blocks_per_sm = 2;
        assert_eq!(schedule_blocks(&two_slots, cfg, &blocks), 100.0);
    }

    #[test]
    fn summary_format_is_pinned() {
        // The exact summary layout is part of the profiler's contract.
        let d = dev();
        let r = launch(
            &d,
            &CostModel::default(),
            "fmt",
            4,
            KernelConfig::new(64, 256),
            |ctx| ctx.charge_gmem_tx(100),
        );
        let s = r.summary(&d);
        assert_eq!(
            s,
            format!(
                "fmt: grid 4 x 64t/256B, {:.1} us, bw: {:.0} GB/s, occ: {} blocks/SM",
                r.sim_time_s * 1e6,
                r.achieved_bandwidth_gbps(&d),
                r.blocks_per_sm
            )
        );
        assert!(s.contains("bw: "));
        assert!(s.contains("occ: "));
        assert!(s.contains("blocks/SM"));
    }

    #[test]
    fn block_trace_replays_one_event_per_block() {
        let d = dev();
        let r = launch(
            &d,
            &CostModel::default(),
            "traced",
            37,
            KernelConfig::new(64, 0),
            |ctx| {
                ctx.charge_rounds((ctx.block_id() as u64 % 5) * 3 + 1);
                ctx.charge_gmem_tx(ctx.block_id() as u64 * 2);
            },
        );
        let tr = r.block_trace(&d);
        assert_eq!(tr.events.len(), 37);
        // The replay reproduces the launch's makespan and counters.
        assert_eq!(tr.body_cycles.to_bits(), r.body_cycles(&d).to_bits());
        let merged = tr
            .events
            .iter()
            .fold(BlockCost::default(), |acc, e| acc.merge(&e.cost));
        assert_eq!(merged, r.total_cost);
        // Events are in grid order with sane placements.
        let bpsm = d.blocks_per_sm(64, 0) as u32;
        for (i, e) in tr.events.iter().enumerate() {
            assert_eq!(e.grid_idx as usize, i);
            assert!((e.sm as usize) < d.num_sms);
            assert!(e.slot < bpsm);
            assert!(e.end_cycles >= e.start_cycles);
            assert_eq!(e.end_cycles - e.start_cycles, e.serial_cycles());
        }
        // Refolding the events through the scheduler reproduces the body
        // makespan bit-for-bit.
        let refold = tr.refold_body_cycles(&d, KernelConfig::new(64, 0));
        assert_eq!(refold.to_bits(), tr.body_cycles.to_bits());
    }

    #[test]
    fn total_cost_aggregates_blocks() {
        let d = dev();
        let r = launch(
            &d,
            &CostModel::default(),
            "k",
            10,
            KernelConfig::new(32, 0),
            |ctx| {
                ctx.charge_rounds(2);
                ctx.charge_smem(3);
            },
        );
        assert_eq!(r.total_cost.issue_rounds, 20);
        assert_eq!(r.total_cost.smem_ops, 30);
    }
}
