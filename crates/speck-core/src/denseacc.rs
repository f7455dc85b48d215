//! The dense accumulator (paper §4.3, Fig. 5).
//!
//! For large, dense output rows hashing is inefficient: dense arrays avoid
//! hash calculation, collision handling and sorting. The accumulator covers
//! the output row's column range `[col_min, col_max]` in chunks of the
//! scratchpad slot capacity; after each chunk the occupied slots are
//! compacted with a prefix sum and appended to the output (already in
//! column order).
//!
//! In the symbolic pass only a bit mask is needed (1 bit per column —
//! paper: >500k entries in 96 KiB vs ~24k for a hash map); the numeric
//! pass stores one value per slot plus the mask.
//!
//! The kernels merge whole row segments of B into a chunk
//! ([`DenseChunk::mark_all`], [`DenseChunk::add_scaled_row`]). Dense rows
//! put consecutive columns into the same mask word, so the bulk calls
//! gather a run's bits in a register and write the word once per run
//! instead of once per column; values are still added one product at a
//! time, in the same order. The `ops` counter the cost model prices counts
//! every product either way.

use speck_sparse::Scalar;

/// One chunk-sized window of a dense accumulation.
#[derive(Debug)]
pub struct DenseChunk<V> {
    base: u32,
    width: usize,
    mask: Vec<u64>,
    vals: Vec<V>,
    touched: usize,
    /// True while mask/values may hold non-zero data; a clean chunk can be
    /// re-armed by resizing instead of refilling.
    dirty: bool,
    /// Bit-set/add operations performed (scratchpad atomics for the model).
    pub ops: u64,
}

impl<V: Scalar> DenseChunk<V> {
    /// A numeric chunk of `width` value slots starting at column `base`.
    pub fn numeric(base: u32, width: usize) -> Self {
        assert!(width > 0);
        Self {
            base,
            width,
            mask: vec![0u64; width.div_ceil(64)],
            vals: vec![V::zero(); width],
            touched: 0,
            dirty: false,
            ops: 0,
        }
    }

    /// A symbolic chunk of `width` bits starting at column `base` (no
    /// value array).
    pub fn symbolic(base: u32, width: usize) -> Self {
        assert!(width > 0);
        Self {
            base,
            width,
            mask: vec![0u64; width.div_ceil(64)],
            vals: Vec::new(),
            touched: 0,
            dirty: false,
            ops: 0,
        }
    }

    /// Number of columns covered.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// One-past-last column covered.
    pub(crate) fn end(&self) -> u64 {
        self.base as u64 + self.width as u64
    }

    /// True when `col` falls inside this chunk.
    #[inline]
    pub(crate) fn contains(&self, col: u32) -> bool {
        (col as u64) >= self.base as u64 && (col as u64) < self.end()
    }

    /// Count of distinct columns touched in this chunk.
    pub fn touched(&self) -> usize {
        self.touched
    }

    #[inline]
    fn set_bit(&mut self, off: usize) -> bool {
        let (w, b) = (off / 64, off % 64);
        let was = self.mask[w] & (1u64 << b) != 0;
        self.mask[w] |= 1u64 << b;
        self.dirty = true;
        if !was {
            self.touched += 1;
        }
        !was
    }

    /// Symbolic: marks `col`; returns `true` when new. Panics outside the
    /// chunk (kernels clip with `DenseChunk::contains`).
    pub fn mark(&mut self, col: u32) -> bool {
        debug_assert!(self.contains(col));
        self.ops += 1;
        self.set_bit((col - self.base) as usize)
    }

    /// Numeric: adds `val` at `col`; returns `true` when the slot is new.
    pub fn add(&mut self, col: u32, val: V) -> bool {
        debug_assert!(self.contains(col));
        self.ops += 1;
        let off = (col - self.base) as usize;
        let new = self.set_bit(off);
        self.vals[off] += val;
        new
    }

    /// Bulk [`DenseChunk::mark`] of a column slice that lies fully inside
    /// the window — the hot symbolic merge loop, without the per-element
    /// call and window checks. The bits of consecutive columns in one mask
    /// word gather in a register; the word is written once per run.
    pub fn mark_all(&mut self, cols: &[u32]) {
        self.ops += cols.len() as u64;
        self.dirty |= !cols.is_empty();
        let Self {
            base,
            width,
            mask,
            touched,
            ..
        } = self;
        set_bits(mask, touched, *base, *width, cols, |_, _| {});
    }

    /// Bulk [`DenseChunk::add`] of `scale * vals[i]` at `cols[i]` for a
    /// column slice that lies fully inside the window — the hot numeric
    /// merge loop. Values are added per element, in slice order; the mask
    /// is set a word at a time as in [`DenseChunk::mark_all`].
    pub fn add_scaled_row(&mut self, cols: &[u32], vals: &[V], scale: V) {
        let vals = &vals[..cols.len()];
        self.ops += cols.len() as u64;
        self.dirty |= !cols.is_empty();
        let Self {
            base,
            width,
            mask,
            vals: slots,
            touched,
            ..
        } = self;
        set_bits(mask, touched, *base, *width, cols, |i, off| {
            slots[off] += scale * vals[i];
        });
    }

    /// Extracts the occupied slots in column order (the compaction +
    /// store of Fig. 5). Symbolic chunks yield `V::zero()` values.
    pub fn extract_sorted(&self) -> Vec<(u32, V)> {
        let mut out = Vec::with_capacity(self.touched);
        self.for_each_set(|col, v| out.push((col, v)));
        out
    }

    /// Re-arms the chunk as a numeric window `[base, base + width)`,
    /// reusing the mask/value allocations (equivalent to
    /// [`DenseChunk::numeric`] without the heap traffic).
    pub(crate) fn reuse_numeric(&mut self, base: u32, width: usize) {
        assert!(width > 0);
        self.base = base;
        self.width = width;
        if self.dirty {
            self.mask.clear();
            self.vals.clear();
            self.dirty = false;
        }
        // A clean chunk holds only zeros: resizing keeps the prefix as-is.
        self.mask.resize(width.div_ceil(64), 0);
        self.vals.resize(width, V::zero());
        self.touched = 0;
        self.ops = 0;
    }

    /// Re-arms the chunk as a symbolic window `[base, base + width)`,
    /// reusing the mask allocation (equivalent to
    /// [`DenseChunk::symbolic`] without the heap traffic).
    pub(crate) fn reuse_symbolic(&mut self, base: u32, width: usize) {
        assert!(width > 0);
        self.base = base;
        self.width = width;
        if self.dirty {
            self.mask.clear();
            self.dirty = false;
        }
        self.mask.resize(width.div_ceil(64), 0);
        self.vals.clear();
        self.touched = 0;
        self.ops = 0;
    }

    /// Visits the occupied slots in column order without allocating
    /// (the zero-copy variant of [`DenseChunk::extract_sorted`]).
    pub(crate) fn for_each_set(&self, mut f: impl FnMut(u32, V)) {
        for (w, &word) in self.mask.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                let off = w * 64 + b;
                let v = if self.vals.is_empty() {
                    V::zero()
                } else {
                    self.vals[off]
                };
                f(self.base + off as u32, v);
                bits &= bits - 1;
            }
        }
    }

    /// Resets the chunk for the next window starting at `base`.
    pub(crate) fn reset(&mut self, base: u32) {
        self.base = base;
        self.mask.fill(0);
        if !self.vals.is_empty() {
            self.vals.fill(V::zero());
        }
        self.touched = 0;
        self.dirty = false;
    }

    /// [`DenseChunk::for_each_set`] fused with the clear: visits the
    /// occupied slots in column order while zeroing them, leaving the chunk
    /// clean at `O(touched)` cost instead of [`DenseChunk::reset`]'s
    /// `O(width)` refill.
    pub(crate) fn drain_set(&mut self, mut f: impl FnMut(u32, V)) {
        let numeric = !self.vals.is_empty();
        for (w, word) in self.mask.iter_mut().enumerate() {
            let mut bits = *word;
            if bits == 0 {
                continue;
            }
            *word = 0;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                let off = w * 64 + b;
                let v = if numeric {
                    std::mem::replace(&mut self.vals[off], V::zero())
                } else {
                    V::zero()
                };
                f(self.base + off as u32, v);
                bits &= bits - 1;
            }
        }
        self.touched = 0;
        self.dirty = false;
    }

    /// Slides a drained chunk to the window `[base, base + width)` without
    /// touching its (all-zero) contents. `width` must not exceed the
    /// current width; call [`DenseChunk::drain_set`] (or
    /// [`DenseChunk::reset`]) first.
    pub(crate) fn slide(&mut self, base: u32, width: usize) {
        assert!(width > 0 && width <= self.width);
        debug_assert!(!self.dirty, "slide requires a drained chunk");
        self.base = base;
        self.width = width;
        self.mask.truncate(width.div_ceil(64));
        if !self.vals.is_empty() {
            self.vals.truncate(width);
        }
    }
}

/// Sets the bits of `cols` in the mask of a window of `width` columns from
/// `base`, calling `each(i, offset)` for `cols[i]` in slice order. The bits
/// of a run of columns in one mask word are ORed into a register; the word
/// is written back, and `touched` raised by its newly set bits, when the
/// run ends. Duplicate and unsorted columns need no care: a word that comes
/// back is read again.
#[inline]
fn set_bits(
    mask: &mut [u64],
    touched: &mut usize,
    base: u32,
    width: usize,
    cols: &[u32],
    mut each: impl FnMut(usize, usize),
) {
    let mut flush = |w: usize, bits: u64| {
        let word = mask[w];
        *touched += (bits & !word).count_ones() as usize;
        mask[w] = word | bits;
    };
    let mut w = usize::MAX;
    let mut bits = 0u64;
    for (i, &c) in cols.iter().enumerate() {
        debug_assert!(
            c >= base && ((c - base) as usize) < width,
            "column {c} outside the window [{base}, {base} + {width})"
        );
        let off = (c - base) as usize;
        if off / 64 != w {
            if bits != 0 {
                flush(w, bits);
            }
            w = off / 64;
            bits = 0;
        }
        bits |= 1u64 << (off % 64);
        each(i, off);
    }
    if bits != 0 {
        flush(w, bits);
    }
}

/// Number of chunk iterations a dense accumulation of `range` columns
/// needs at `slots` per chunk — the quantity the paper's 18 % density
/// rule bounds at three (§4.3).
pub fn dense_iterations(range: u64, slots: usize) -> u64 {
    if range == 0 {
        0
    } else {
        range.div_ceil(slots as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_add_and_extract_in_order() {
        let mut c: DenseChunk<f64> = DenseChunk::numeric(10, 20);
        assert!(c.add(15, 1.0));
        assert!(c.add(12, 2.0));
        assert!(!c.add(15, 0.5));
        assert_eq!(c.touched(), 2);
        let out = c.extract_sorted();
        assert_eq!(out, vec![(12, 2.0), (15, 1.5)]);
        assert_eq!(c.ops, 3);
    }

    #[test]
    fn symbolic_marks_without_values() {
        let mut c: DenseChunk<f64> = DenseChunk::symbolic(0, 100);
        assert!(c.mark(99));
        assert!(c.mark(0));
        assert!(!c.mark(0));
        assert_eq!(c.touched(), 2);
        let cols: Vec<u32> = c.extract_sorted().iter().map(|&(c, _)| c).collect();
        assert_eq!(cols, vec![0, 99]);
    }

    #[test]
    fn contains_respects_window() {
        let c: DenseChunk<f64> = DenseChunk::numeric(100, 50);
        assert!(!c.contains(99));
        assert!(c.contains(100));
        assert!(c.contains(149));
        assert!(!c.contains(150));
    }

    #[test]
    fn reset_slides_the_window() {
        let mut c: DenseChunk<f64> = DenseChunk::numeric(0, 10);
        c.add(5, 3.0);
        c.reset(10);
        assert_eq!(c.touched(), 0);
        assert!(c.contains(15));
        assert!(!c.contains(5));
        c.add(15, 1.0);
        assert_eq!(c.extract_sorted(), vec![(15, 1.0)]);
    }

    #[test]
    fn iterations_formula() {
        assert_eq!(dense_iterations(0, 100), 0);
        assert_eq!(dense_iterations(100, 100), 1);
        assert_eq!(dense_iterations(101, 100), 2);
        assert_eq!(dense_iterations(300, 100), 3);
        // The paper's rule: density >= 18% implies <= 3 iterations when
        // slots are sized to nnz/0.18 of the range... checked in numeric.rs.
    }

    #[test]
    fn chunk_boundary_bits() {
        // Widths not multiple of 64 still work at the last word.
        let mut c: DenseChunk<f64> = DenseChunk::symbolic(0, 65);
        assert!(c.mark(64));
        assert!(c.mark(63));
        assert_eq!(c.touched(), 2);
        let cols: Vec<u32> = c.extract_sorted().iter().map(|&(x, _)| x).collect();
        assert_eq!(cols, vec![63, 64]);
    }
}
