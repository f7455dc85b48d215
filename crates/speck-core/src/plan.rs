//! Reusable multiplication plans and the pattern-keyed plan cache.
//!
//! spECK's two-pass design computes everything about C's *structure* —
//! row analysis, load-balancer bins, per-block accumulator choices, exact
//! row sizes — before a single output value exists. When a caller
//! multiplies the same sparsity pattern repeatedly with fresh values (AMG
//! Galerkin products, iterative graph kernels, repeated inference over a
//! fixed topology), all of that setup is pattern-only and can be computed
//! once. This module provides:
//!
//! * [`SpgemmPlan`] — the self-contained result of the setup stages
//!   (analysis, symbolic load balancing, symbolic pass, numeric load
//!   balancing), enough to run the numeric pass directly, plus the
//!   pattern identity of the operands it was built from. Each fact lives
//!   in it once: the symbolic gate, and one checked
//!   [`crate::numeric::NumericPlan`] holding the numeric gate, blocks and
//!   launches and C's row offsets, from which reports and the audit read
//!   everything else. Built by [`crate::SpeckSpgemm::plan`], consumed by
//!   [`crate::SpeckSpgemm::execute_plan`], which refuses operands of any
//!   other pattern before a kernel runs.
//! * `PatternKey` + [`pattern_fingerprint`] — a cheap FNV-1a fingerprint
//!   of `(dims, row_ptr, col_idx)` of both operands, so
//!   [`crate::SpeckSpgemm::multiply`] can transparently detect a repeated
//!   pattern.
//! * `PlanCache` — a bounded LRU map from `PatternKey` to a
//!   type-erased [`SpgemmPlan`], shared by engine clones.
//!
//! This mirrors the reuse APIs of production SpGEMM libraries (cuSPARSE's
//! `cusparseSpGEMMreuse`, KokkosKernels' symbolic/numeric split): the
//! setup cost is amortised across executions, which is an *algorithmic*
//! win — the reused call launches no analysis, binning, or symbolic
//! kernels at all, so its simulated time drops along with the wall clock.

use crate::analysis::AnalysisInfo;
use crate::global_lb::GateProvenance;
use crate::numeric::NumericPlan;
use crate::trace::{timeline_of, TraceRecord};
use speck_sparse::{Csr, Scalar};
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::sync::Arc;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;
/// Seed of the secondary (verification) fingerprint — any odd constant
/// different from the FNV offset basis works.
const CHECK_OFFSET: u64 = 0x9e37_79b9_7f4a_7c15;

/// 64-bit FNV-1a over a byte string: the engine's environment digest, the
/// metrics registry's shard choice and the bench's simulation digest.
pub fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Streams one matrix pattern (dims, `row_ptr`, `col_idx`) into two
/// FNV-1a accumulators at once, one 64-bit word per step. Byte-wise
/// [`fnv1a_bytes`] would take eight steps per word, and the fingerprint
/// runs on every cached `multiply`.
fn mix_pattern<V: Scalar>(m: &Csr<V>, h: &mut (u64, u64)) {
    let mut step = |w: u64| {
        h.0 ^= w;
        h.0 = h.0.wrapping_mul(FNV_PRIME);
        h.1 ^= w;
        h.1 = h.1.wrapping_mul(FNV_PRIME);
    };
    step(m.rows() as u64);
    step(m.cols() as u64);
    for &p in m.row_ptr() {
        step(p as u64);
    }
    // Pack two u32 columns per word; the odd tail is padded with a marker
    // that cannot be a column index pair.
    for pair in m.col_idx().chunks(2) {
        let w = if pair.len() == 2 {
            ((pair[0] as u64) << 32) | pair[1] as u64
        } else {
            (pair[0] as u64) | (1 << 63)
        };
        step(w);
    }
}

/// The primary 64-bit FNV-1a fingerprint of an `(A, B)` sparsity-pattern
/// pair: dimensions, `row_ptr`, and `col_idx` of both operands. Values are
/// deliberately excluded — a plan depends only on the pattern.
pub fn pattern_fingerprint<V: Scalar>(a: &Csr<V>, b: &Csr<V>) -> u64 {
    PatternId::of(a, b).primary
}

/// Identity of one `(A, B)` sparsity-pattern pair: exact dimensions and
/// NNZ counts plus a primary and a secondary fingerprint of both
/// operands' patterns. Values do not participate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PatternId {
    pub(crate) primary: u64,
    pub(crate) check: u64,
    pub(crate) a_rows: usize,
    pub(crate) a_cols: usize,
    pub(crate) b_cols: usize,
    pub(crate) a_nnz: usize,
    pub(crate) b_nnz: usize,
}

impl PatternId {
    pub(crate) fn of<V: Scalar>(a: &Csr<V>, b: &Csr<V>) -> Self {
        let mut h = (FNV_OFFSET, CHECK_OFFSET);
        mix_pattern(a, &mut h);
        mix_pattern(b, &mut h);
        PatternId {
            primary: h.0,
            check: h.1,
            a_rows: a.rows(),
            a_cols: a.cols(),
            b_cols: b.cols(),
            a_nnz: a.nnz(),
            b_nnz: b.nnz(),
        }
    }
}

/// Cache key identifying one `(A, B)` pattern under one engine
/// environment (device + cost model + configuration) and scalar type.
///
/// Equality compares the whole pattern identity — primary *and*
/// secondary fingerprint plus exact dimensions and NNZ counts — so a
/// collision of the primary hash alone never aliases two patterns. `Hash`
/// intentionally covers only the primary fingerprint: colliding primaries
/// land in the same bucket and are separated by `Eq` (exercised by the
/// collision tests below).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PatternKey {
    pub(crate) pattern: PatternId,
    pub(crate) env: u64,
    pub(crate) vtype: TypeId,
}

#[allow(clippy::derived_hash_with_manual_eq)]
impl Hash for PatternKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.pattern.primary.hash(state);
    }
}

impl PatternKey {
    /// Builds the key for multiplying `a · b` with scalar type `V` under
    /// the environment digest `env` (see
    /// [`crate::SpeckSpgemm`]'s cache: device + cost + config).
    pub(crate) fn new<V: Scalar>(a: &Csr<V>, b: &Csr<V>, env: u64) -> Self {
        PatternKey {
            pattern: PatternId::of(a, b),
            env,
            vtype: TypeId::of::<V>(),
        }
    }
}

/// A reusable multiplication plan: everything the setup stages (row
/// analysis, symbolic load balancing, symbolic SpGEMM, numeric load
/// balancing) produce for one `(A, B)` sparsity pattern.
///
/// Executing a plan ([`crate::SpeckSpgemm::execute_plan`]) runs only the
/// numeric pass and the trailing sort; the plan supplies the analysis
/// records, the numeric block plan with its launches, C's exact row
/// structure, and the setup stages' records and memory so a cold
/// plan-then-execute reproduces a cold [`crate::SpeckSpgemm::multiply`]
/// bit-for-bit.
#[derive(Clone, Debug)]
pub struct SpgemmPlan<V> {
    /// Pattern identity of the operands the plan was built from;
    /// [`crate::SpeckSpgemm::execute_plan`] checks operands against it.
    pub(crate) pattern: PatternId,
    /// Per-row analysis records (paper Alg. 1) the numeric kernels read.
    pub(crate) info: AnalysisInfo,
    /// The symbolic pass's global-LB gate; reports and the decision audit
    /// read it. The numeric gate is the numeric plan's.
    pub(crate) symbolic_gate: GateProvenance,
    /// The numeric block plan (bins, methods, kernel configurations, its
    /// gate), with its launches, and the prefix-summed row offsets of C
    /// (len `rows+1`), checked once to fit each other.
    pub(crate) numeric: NumericPlan,
    /// Records of the setup stages (analysis through numeric load
    /// balancing, including their allocation overheads). A cold execute
    /// resumes the multiply's record stream from them; a reused one never
    /// reads them. Per-block annotations are present only when the plan
    /// was built by a tracing or auditing engine.
    pub(crate) setup: Vec<TraceRecord>,
    /// Simulated device bytes the setup stages allocated (analysis
    /// records, LB bookkeeping, row counts, the global overflow-map
    /// pool). Held by the plan, so reused executions still account them.
    pub(crate) setup_mem_bytes: usize,
    /// Blocks that spilled to a global hash map during the symbolic pass.
    pub(crate) sym_spilled_blocks: usize,
    pub(crate) _values: PhantomData<fn() -> V>,
}

impl<V: Scalar> SpgemmPlan<V> {
    /// Exact NNZ of the output matrix C.
    pub fn nnz_c(&self) -> usize {
        *self.numeric.row_ptr().last().unwrap_or(&0)
    }

    /// Simulated seconds of the setup stages this plan amortises
    /// (analysis + symbolic load + symbolic pass + numeric load).
    pub fn setup_sim_time_s(&self) -> f64 {
        timeline_of(&self.setup).total_seconds()
    }

    /// Checks that `(a, b)` have the sparsity pattern the plan was built
    /// from — dimensions, NNZ counts and both fingerprints — and panics
    /// otherwise, before any kernel runs.
    pub(crate) fn check_pattern(&self, a: &Csr<V>, b: &Csr<V>) {
        let p = &self.pattern;
        assert!(
            b.rows() == a.cols() && PatternId::of(a, b) == *p,
            "execute_plan: operands do not match the plan \
             (plan: A {}x{}/{} nnz, B {}x{}/{} nnz, fingerprint {:016x}; \
             got A {}x{}/{} nnz, B {}x{}/{} nnz, fingerprint {:016x})",
            p.a_rows,
            p.a_cols,
            p.a_nnz,
            p.a_cols,
            p.b_cols,
            p.b_nnz,
            p.primary,
            a.rows(),
            a.cols(),
            a.nnz(),
            b.rows(),
            b.cols(),
            b.nnz(),
            pattern_fingerprint(a, b),
        );
    }
}

struct CacheSlot {
    plan: Arc<dyn Any + Send + Sync>,
    last_used: u64,
}

/// Bounded LRU cache mapping `PatternKey`s to type-erased
/// [`SpgemmPlan`]s.
///
/// Capacity 0 disables caching entirely (lookups miss, inserts are
/// dropped). Eviction is strict least-recently-used by lookup/insert
/// order.
pub(crate) struct PlanCache {
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    entries: HashMap<PatternKey, CacheSlot>,
}

impl PlanCache {
    /// An empty cache holding at most `capacity` plans.
    pub(crate) fn new(capacity: usize) -> Self {
        PlanCache {
            capacity,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            entries: HashMap::new(),
        }
    }

    /// Maximum number of plans retained.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of plans currently cached.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// `(hits, misses)` counters over the cache's lifetime.
    pub(crate) fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of plans evicted by the LRU policy over the cache's
    /// lifetime (replacements and `clear` do not count).
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Looks `key` up, refreshing its recency on a hit.
    pub(crate) fn get(&mut self, key: &PatternKey) -> Option<Arc<dyn Any + Send + Sync>> {
        self.tick += 1;
        match self.entries.get_mut(key) {
            Some(slot) => {
                slot.last_used = self.tick;
                self.hits += 1;
                Some(Arc::clone(&slot.plan))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or replaces) the plan under `key`, evicting the
    /// least-recently-used entry when full. A zero-capacity cache drops
    /// the insert.
    pub(crate) fn insert(&mut self, key: PatternKey, plan: Arc<dyn Any + Send + Sync>) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| *k)
            {
                self.entries.remove(&oldest);
                self.evictions += 1;
            }
        }
        self.entries.insert(
            key,
            CacheSlot {
                plan,
                last_used: self.tick,
            },
        );
    }

    /// Drops every cached plan (counters keep running).
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity)
            .field("len", &self.entries.len())
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .field("evictions", &self.evictions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speck_sparse::Coo;

    fn key_with(primary: u64, check: u64, env: u64) -> PatternKey {
        PatternKey {
            pattern: PatternId {
                primary,
                check,
                a_rows: 4,
                a_cols: 4,
                b_cols: 4,
                a_nnz: 4,
                b_nnz: 4,
            },
            env,
            vtype: TypeId::of::<f64>(),
        }
    }

    fn plan_token(id: usize) -> Arc<dyn Any + Send + Sync> {
        Arc::new(id)
    }

    fn token_id(a: &Arc<dyn Any + Send + Sync>) -> usize {
        *a.clone().downcast::<usize>().unwrap()
    }

    #[test]
    fn fingerprint_separates_same_shape_patterns() {
        // Same dims, same NNZ, different column structure.
        let mut c1: Coo<f64> = Coo::new(4, 4);
        let mut c2: Coo<f64> = Coo::new(4, 4);
        for i in 0..4u32 {
            c1.push(i, i, 1.0);
            c2.push(i, 3 - i, 1.0);
        }
        let (m1, m2) = (c1.to_csr(), c2.to_csr());
        assert_ne!(pattern_fingerprint(&m1, &m1), pattern_fingerprint(&m2, &m2));
        assert_ne!(
            PatternKey::new(&m1, &m1, 0),
            PatternKey::new(&m2, &m2, 0),
            "keys must differ when only col_idx differs"
        );
        // Values do not participate: scaling every value leaves the key.
        let m1s = speck_sparse::Csr::from_parts_unchecked(
            m1.rows(),
            m1.cols(),
            m1.row_ptr().to_vec(),
            m1.col_idx().to_vec(),
            m1.vals().iter().map(|&v| v * 3.25).collect(),
        );
        assert_eq!(PatternKey::new(&m1, &m1, 0), PatternKey::new(&m1s, &m1s, 0));
    }

    #[test]
    fn colliding_primaries_stay_distinct_entries() {
        // Two keys built to share the primary fingerprint (the only part
        // `Hash` sees) while differing in the secondary: they collide in
        // the map bucket by construction, and Eq must keep them apart.
        let k1 = key_with(0xdead_beef, 1, 0);
        let k2 = key_with(0xdead_beef, 2, 0);
        assert_ne!(k1, k2);
        let mut cache = PlanCache::new(4);
        cache.insert(k1, plan_token(1));
        cache.insert(k2, plan_token(2));
        assert_eq!(cache.len(), 2);
        assert_eq!(token_id(&cache.get(&k1).unwrap()), 1);
        assert_eq!(token_id(&cache.get(&k2).unwrap()), 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let (k1, k2, k3) = (key_with(1, 1, 0), key_with(2, 2, 0), key_with(3, 3, 0));
        let mut cache = PlanCache::new(2);
        cache.insert(k1, plan_token(1));
        cache.insert(k2, plan_token(2));
        // Touch k1 so k2 becomes the LRU entry.
        assert!(cache.get(&k1).is_some());
        cache.insert(k3, plan_token(3));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(&k2).is_none(), "LRU entry must be evicted");
        assert!(cache.get(&k1).is_some());
        assert!(cache.get(&k3).is_some());
    }

    #[test]
    fn changed_pattern_misses() {
        // Cache invalidation is structural: a pattern change yields a new
        // key, so the stale plan is simply never returned (and ages out).
        let mut a: Coo<f64> = Coo::new(3, 3);
        a.push(0, 0, 1.0);
        a.push(1, 2, 1.0);
        let a = a.to_csr();
        let mut cache = PlanCache::new(4);
        cache.insert(PatternKey::new(&a, &a, 7), plan_token(1));
        // Same matrix, same env: hit.
        assert!(cache.get(&PatternKey::new(&a, &a, 7)).is_some());
        // Pattern changed (one extra entry): miss.
        let mut a2: Coo<f64> = Coo::new(3, 3);
        a2.push(0, 0, 1.0);
        a2.push(1, 2, 1.0);
        a2.push(2, 1, 1.0);
        let a2 = a2.to_csr();
        assert!(cache.get(&PatternKey::new(&a2, &a2, 7)).is_none());
        // Environment changed (device/cost/config digest): miss.
        assert!(cache.get(&PatternKey::new(&a, &a, 8)).is_none());
        // Scalar type changed: miss.
        let a32 = speck_sparse::Csr::<f32>::from_parts_unchecked(
            a.rows(),
            a.cols(),
            a.row_ptr().to_vec(),
            a.col_idx().to_vec(),
            a.vals().iter().map(|&v| v as f32).collect(),
        );
        assert!(cache.get(&PatternKey::new(&a32, &a32, 7)).is_none());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = PlanCache::new(0);
        let k = key_with(1, 1, 0);
        cache.insert(k, plan_token(1));
        assert_eq!(cache.len(), 0);
        assert!(cache.get(&k).is_none());
        assert_eq!(cache.stats(), (0, 1));
    }
}
