//! Deterministic lane-blocked SIMD kernels.
//!
//! The entries, and what ships calling them:
//!
//! | Entry | Computes | Shipped caller |
//! |---|---|---|
//! | [`gemv_t_batch_into`] | `a_iᵀ · x_i` per item, input-major, optionally over a [`Support`] | `ExpertSlab::step_range` (gate and recurrent products), `ExpertSlab::heads` (skip) |
//! | [`gemv_batch_into`] | `a_i · x_i` per item, row-major | `ExpertSlab::heads` (quantile heads) |
//! | [`gemm_into`] | `a · b` | `ExpertSlab::heads` (attention `H_t · α`) |
//! | [`gemv_t_into`], [`gemv_t_acc_into`] | `aᵀ · x`, set or added | `AnalyticTrainer` (pull-backs) |
//! | [`outer_acc_steps_into`] | `out += Σ_t a_t ⊗ b_t`, `t` descending | `AnalyticTrainer` (weight gradients, one call per subsequence) |
//! | [`gemv_into`] | `a · x` | under [`gemv_batch_into`] |
//! | [`gate_sigmoid_into`], [`gate_tanh_into`] | `act((a + b) + c)` per element | `ExpertSlab::step_range` (`z`, `k`, `h̃`) |
//! | [`sigmoid`], [`tanh`] | the scalar activations, ported from glibc 2.36 | every other σ and tanh: the mask σ at repack, `DeepRest::mask_weights`, the tape |
//!
//! The activations are their own module, `kernel/act.rs`; its docs say what
//! the ports port and how the AVX2+FMA twin keeps their bits.
//!
//! Every contraction is built on one accumulation contract:
//!
//! * Partial sums live in a fixed array of `LANES = 8` accumulators.
//!   Term `k` of a contraction is added into lane `k % LANES`, in ascending
//!   `k` order within each lane. Ragged tails (`len % LANES != 0`) fill
//!   lanes `0..len % LANES` in the same positions the main loop would have
//!   used.
//! * The eight lanes are reduced in a fixed binary-tree order:
//!   `((l0+l1) + (l2+l3)) + ((l4+l5) + (l6+l7))`.
//!
//! Because the contract fixes where every rounding happens, the result is a
//! pure function of the operand *values* — independent of ISA, autovector
//! width, thread count, and dispatch path. The compiler autovectorizes the
//! lane loop (it is exactly one AVX2 `f32x8` / two NEON `f32x4` ops wide)
//! without any `unsafe`; an optional runtime-detected AVX2 path uses
//! explicit `_mm256_mul_ps`/`_mm256_add_ps` (never FMA, which would contract
//! the multiply-add and change the bits) and is proven bit-identical to the
//! portable kernel by proptest. The one exception is the `exp` under
//! [`sigmoid`]: glibc's FMA build of `expf` fuses five multiply-adds, so the
//! port fuses the same five (`f64::mul_add`, `vfmadd` in its twin) and no
//! others. No contraction fuses anything.
//!
//! # Sparse inputs and signed zero
//!
//! One kernel leaves terms out: [`gemv_t_batch_into`] with a [`Support`],
//! the terms outside of which its `x` operand is zero (positive or
//! negative). For finite inputs that is bit-exact, not merely approximate: a
//! lane accumulator seeded at `+0.0` can never become `-0.0` (adding `-0.0`
//! leaves any value unchanged, and exact cancellation yields `+0.0` under
//! round-to-nearest), so adding `a * 0.0 == ±0.0` to a lane is a bitwise
//! no-op, and whether a zero term is visited or not cannot show in the
//! result. NaN and infinity operands at a zero term are outside the kernel
//! contract (they would turn the `±0.0` product into NaN). Every other
//! kernel visits every term.
//!
//! The same lemma lets [`outer_acc_steps_into`] drop the `+ 0.0` a length-1
//! contract dot ends in: on an accumulator that is not `-0.0`, adding a
//! product and adding the product `+ 0.0` give the same bits.

mod act;

pub use act::{gate_sigmoid_into, gate_tanh_into, sigmoid, tanh};

/// Number of parallel accumulator lanes in every contraction kernel.
pub(crate) const LANES: usize = 8;

/// Non-zero terms in one aligned `LANES`-chunk from which a [`Support`]
/// walks the whole chunk: the unrolled chunk body costs about what three
/// single terms do, each of which jumps to its accumulator (measured on
/// `matmul/gemv_t_support/*`). Either way the bits are the same; the zero
/// terms of a whole chunk multiply by the zeros they are.
const WHOLE_CHUNK_MIN: usize = 3;

/// Marks a [`Support`] walk entry as a whole aligned chunk (the rest of the
/// entry is the chunk's first term) rather than a single term.
const WHOLE_CHUNK: u32 = 1 << 31;

/// Where a vector is non-zero, as the walk [`gemv_t_batch_into`] makes over
/// it: built from the vector by [`fill`](Self::fill) and from nothing else,
/// so every term it names exists in a vector of [`dim`](Self::dim) entries
/// and terms ascend — what the AVX2 walk's unchecked reads rest on.
///
/// The walk lists, chunk by aligned `LANES`-chunk, either each non-zero
/// term or — from `WHOLE_CHUNK_MIN` (three) non-zero terms up — the chunk
/// as a whole. Chunks that are entirely zero are not in it.
#[derive(Clone, Debug, Default)]
pub struct Support {
    walk: Vec<u32>,
    dim: usize,
    nnz: usize,
}

impl Support {
    /// An empty support with room for any vector of `dim` entries, so
    /// [`fill`](Self::fill)ing it from one never allocates.
    pub fn with_capacity(dim: usize) -> Self {
        Self {
            walk: Vec::with_capacity(dim),
            dim: 0,
            nnz: 0,
        }
    }

    /// Rebuilds the support as that of `x`: the terms where `x != 0` (NaN
    /// counts as non-zero). Any vector that is zero wherever `x` is shares
    /// it — all experts' `σ(m) ⊙ x` do.
    ///
    /// # Panics
    ///
    /// Panics if `x` has 2³¹ entries or more.
    pub fn fill(&mut self, x: &[f32]) {
        assert!(
            x.len() < WHOLE_CHUNK as usize,
            "kernel::Support: vector too long"
        );
        self.walk.clear();
        self.dim = x.len();
        self.nnz = 0;
        for (c, chunk) in x.chunks(LANES).enumerate() {
            let base = (c * LANES) as u32;
            let live = chunk.iter().filter(|&&v| v != 0.0).count();
            self.nnz += live;
            if live >= WHOLE_CHUNK_MIN && chunk.len() == LANES {
                self.walk.push(base | WHOLE_CHUNK);
            } else {
                let terms = (base..).zip(chunk).filter(|(_, &v)| v != 0.0);
                self.walk.extend(terms.map(|(kk, _)| kk));
            }
        }
    }

    /// Length of the vector the support was filled from.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of non-zero entries of the vector the support was filled from.
    pub fn nnz(&self) -> usize {
        self.nnz
    }
}

/// Reduces the eight lane accumulators in the fixed tree order
/// `((l0+l1) + (l2+l3)) + ((l4+l5) + (l6+l7))`.
///
/// This exact association is part of the kernel contract; every dispatch
/// path (portable, AVX2) funnels through it.
#[inline(always)]
fn reduce(acc: [f32; LANES]) -> f32 {
    let s01 = acc[0] + acc[1];
    let s23 = acc[2] + acc[3];
    let s45 = acc[4] + acc[5];
    let s67 = acc[6] + acc[7];
    (s01 + s23) + (s45 + s67)
}

/// Portable lane-blocked dot product. The `LANES`-wide inner loop carries no
/// cross-iteration dependency, so the compiler autovectorizes it to one
/// vector multiply + add per chunk.
///
/// Kept out of line: inlined into [`gemv_into`]'s fallback, it takes the
/// registers the AVX2 row loop beside it keeps its state in, and that loop
/// then spills per row (`gemm_batch/gemv/*` 9 % slower).
///
/// # Panics
///
/// Panics (in debug builds) if the slices differ in length.
#[inline(never)]
pub fn dot_portable(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "kernel::dot: length mismatch");
    let mut acc = [0.0f32; LANES];
    let main = a.len() - a.len() % LANES;
    let (a_main, a_tail) = a.split_at(main);
    let (b_main, b_tail) = b.split_at(main);
    for (ca, cb) in a_main.chunks_exact(LANES).zip(b_main.chunks_exact(LANES)) {
        for j in 0..LANES {
            acc[j] += ca[j] * cb[j];
        }
    }
    for (j, (&x, &y)) in a_tail.iter().zip(b_tail.iter()).enumerate() {
        acc[j] += x * y;
    }
    reduce(acc)
}

/// Explicit AVX2 kernels, runtime-gated. Same lane assignment and reduction
/// order as the portable path: eight vertical lanes accumulated with
/// separate `_mm256_mul_ps` + `_mm256_add_ps` (no FMA — the portable scalar
/// code does not contract the multiply-add, so neither may this path), then
/// the shared scalar [`reduce`] tree. The bit-identity contract is enforced
/// by `tests/prop_kernels.rs`. The activations' twin (`act.rs`), which does
/// fuse where the `expf` it ports does, keeps its own module beside this one.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use super::{reduce, LANES, WHOLE_CHUNK};
    use std::arch::x86_64::{
        __m256i, _mm256_add_ps, _mm256_loadu_ps, _mm256_loadu_si256, _mm256_maskload_ps,
        _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_ps,
    };

    /// [`outer_acc_steps_into`](super::outer_acc_steps_into)'s portable
    /// tiles compiled for AVX2: the same scalar multiplies and adds in the
    /// same per-element order, which the compiler may widen but not fuse
    /// (FMA is not enabled), so the same bits.
    ///
    /// # Safety
    ///
    /// Requires AVX2 support on the running CPU.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn outer_acc_steps(out: &mut [f32], ops: super::StepOperands) {
        super::outer_steps_tiles(out, ops);
    }

    /// Whether the running CPU supports AVX2 (cached after first probe).
    pub(crate) fn available() -> bool {
        use std::sync::OnceLock;
        static AVX2: OnceLock<bool> = OnceLock::new();
        *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }

    /// Whether the running CPU supports AVX2 and FMA both (cached after
    /// first probe): the activations' twin needs the two together.
    pub(crate) fn fma_available() -> bool {
        use std::sync::OnceLock;
        static FMA: OnceLock<bool> = OnceLock::new();
        *FMA.get_or_init(|| available() && std::arch::is_x86_feature_detected!("fma"))
    }

    /// AVX2 dot product; caller must have checked [`available`].
    ///
    /// # Safety
    ///
    /// Requires AVX2 support on the running CPU.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let chunks = a.len() / LANES;
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            // SAFETY: c * LANES + LANES <= a.len() == b.len().
            let va = _mm256_loadu_ps(a.as_ptr().add(c * LANES));
            let vb = _mm256_loadu_ps(b.as_ptr().add(c * LANES));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
        }
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        let main = chunks * LANES;
        for (j, (&x, &y)) in a[main..].iter().zip(b[main..].iter()).enumerate() {
            lanes[j] += x * y;
        }
        reduce(lanes)
    }

    /// One `LANES`-wide column block of one output row of `out = a * b`:
    /// `out_blk[jj] = sum_kk a_row[kk] * b[kk * stride + jj]`, where `b`
    /// points at the block's first column (strided view of the right
    /// operand, or a packed slab with `stride == LANES`).
    ///
    /// Eight vector accumulators, one per k-lane; element `jj` of `acc[l]`
    /// receives exactly the terms the portable tile puts in `acc[l][jj]`,
    /// in the same order, with separate multiply and add. The cross-lane
    /// reduce happens as three rounds of elementwise vector adds in the
    /// contract's tree shape, so all eight columns are reduced at once.
    ///
    /// # Safety
    ///
    /// Requires AVX2, `out_blk.len() >= LANES`, and `LANES` floats readable
    /// at `b + kk * stride` for every `kk < a_row.len()`.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn gemm_row_block(
        out_blk: &mut [f32],
        a_row: &[f32],
        b: *const f32,
        stride: usize,
    ) {
        let k = a_row.len();
        let chunks = k / LANES;
        // Eight named accumulators: an indexed `[__m256; LANES]` tile is
        // not reliably register-allocated, and a spilled tile doubles the
        // memory traffic of the inner loop.
        let mut acc = (
            _mm256_setzero_ps(),
            _mm256_setzero_ps(),
            _mm256_setzero_ps(),
            _mm256_setzero_ps(),
            _mm256_setzero_ps(),
            _mm256_setzero_ps(),
            _mm256_setzero_ps(),
            _mm256_setzero_ps(),
        );
        macro_rules! lane {
            ($acc:expr, $kk:expr) => {
                // SAFETY: $kk < k, and the caller guarantees LANES floats
                // are readable at b + $kk * stride.
                let av = _mm256_set1_ps(*a_row.get_unchecked($kk));
                let bv = _mm256_loadu_ps(b.add($kk * stride));
                $acc = _mm256_add_ps($acc, _mm256_mul_ps(av, bv));
            };
        }
        for c in 0..chunks {
            let base = c * LANES;
            lane!(acc.0, base);
            lane!(acc.1, base + 1);
            lane!(acc.2, base + 2);
            lane!(acc.3, base + 3);
            lane!(acc.4, base + 4);
            lane!(acc.5, base + 5);
            lane!(acc.6, base + 6);
            lane!(acc.7, base + 7);
        }
        for (l, kk) in (chunks * LANES..k).enumerate() {
            match l {
                0 => {
                    lane!(acc.0, kk);
                }
                1 => {
                    lane!(acc.1, kk);
                }
                2 => {
                    lane!(acc.2, kk);
                }
                3 => {
                    lane!(acc.3, kk);
                }
                4 => {
                    lane!(acc.4, kk);
                }
                5 => {
                    lane!(acc.5, kk);
                }
                _ => {
                    lane!(acc.6, kk);
                }
            }
        }
        let s01 = _mm256_add_ps(acc.0, acc.1);
        let s23 = _mm256_add_ps(acc.2, acc.3);
        let s45 = _mm256_add_ps(acc.4, acc.5);
        let s67 = _mm256_add_ps(acc.6, acc.7);
        let sum = _mm256_add_ps(_mm256_add_ps(s01, s23), _mm256_add_ps(s45, s67));
        _mm256_storeu_ps(out_blk.as_mut_ptr(), sum);
    }

    /// One `LANES`-wide block of `a`'s columns contracted against the
    /// column `x` for `out = a^T * x`:
    /// `vals[ii] = sum_kk a[kk * stride + ii] * x[kk]`, where `a` points at
    /// the block's first column of the strided left operand.
    ///
    /// Mirror of [`gemm_row_block`] with the broadcast on `x`'s side.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and `LANES` floats readable at `a + kk * stride` for
    /// every `kk < x.len()`.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn gemm_tn_block(
        vals: &mut [f32; LANES],
        a: *const f32,
        stride: usize,
        x: &[f32],
    ) {
        let k = x.len();
        let chunks = k / LANES;
        // Named accumulators for the same register-allocation reason as
        // [`gemm_row_block`].
        let mut acc = (
            _mm256_setzero_ps(),
            _mm256_setzero_ps(),
            _mm256_setzero_ps(),
            _mm256_setzero_ps(),
            _mm256_setzero_ps(),
            _mm256_setzero_ps(),
            _mm256_setzero_ps(),
            _mm256_setzero_ps(),
        );
        macro_rules! lane {
            ($acc:expr, $kk:expr) => {
                // SAFETY: $kk < k == x.len(), and the caller guarantees
                // LANES floats are readable at a + $kk * stride.
                let bv = _mm256_set1_ps(*x.get_unchecked($kk));
                let av = _mm256_loadu_ps(a.add($kk * stride));
                $acc = _mm256_add_ps($acc, _mm256_mul_ps(av, bv));
            };
        }
        for c in 0..chunks {
            let base = c * LANES;
            lane!(acc.0, base);
            lane!(acc.1, base + 1);
            lane!(acc.2, base + 2);
            lane!(acc.3, base + 3);
            lane!(acc.4, base + 4);
            lane!(acc.5, base + 5);
            lane!(acc.6, base + 6);
            lane!(acc.7, base + 7);
        }
        for (l, kk) in (chunks * LANES..k).enumerate() {
            match l {
                0 => {
                    lane!(acc.0, kk);
                }
                1 => {
                    lane!(acc.1, kk);
                }
                2 => {
                    lane!(acc.2, kk);
                }
                3 => {
                    lane!(acc.3, kk);
                }
                4 => {
                    lane!(acc.4, kk);
                }
                5 => {
                    lane!(acc.5, kk);
                }
                _ => {
                    lane!(acc.6, kk);
                }
            }
        }
        let s01 = _mm256_add_ps(acc.0, acc.1);
        let s23 = _mm256_add_ps(acc.2, acc.3);
        let s45 = _mm256_add_ps(acc.4, acc.5);
        let s67 = _mm256_add_ps(acc.6, acc.7);
        let sum = _mm256_add_ps(_mm256_add_ps(s01, s23), _mm256_add_ps(s45, s67));
        _mm256_storeu_ps(vals.as_mut_ptr(), sum);
    }

    /// [`gemm_tn_block`] over the terms of a [`Support`](super::Support)
    /// walk:
    /// `vals[ii] = sum_{kk in walk} a[kk * stride + ii] * x[kk]`.
    ///
    /// Term `kk` still lands in accumulator `kk % LANES`, in ascending
    /// order, so the terms that are visited meet the same lane in the same
    /// order as in the full walk. A whole-chunk entry runs the full walk's
    /// unrolled body; a single term picks its accumulator by `match` (a
    /// jump, but all eight stay in registers).
    ///
    /// `width` is the block's column count. `FULL` blocks have `LANES`;
    /// the other instantiation is for the ragged last block of a matrix
    /// whose width is no multiple of `LANES`, and reads its rows through a
    /// mask so that nothing beyond column `width` — the next row, or past
    /// the last row the end of the matrix — is touched. `vals[width..]`
    /// come out zero.
    ///
    /// # Safety
    ///
    /// Requires AVX2, `walk` to be the walk of a support whose `dim` is
    /// `x.len()`, `width <= LANES` (`== LANES` when `FULL`), and `width`
    /// floats readable at `a + kk * stride` for every `kk < x.len()`.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn gemv_t_support_block<const FULL: bool>(
        vals: &mut [f32; LANES],
        a: *const f32,
        stride: usize,
        width: usize,
        x: &[f32],
        walk: &[u32],
    ) {
        // Lanes `0..width` of the mask are all ones (the sign bit selects).
        const MASK: [i32; 2 * LANES] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];
        // SAFETY: `width <= LANES`, so the eight lanes read lie in `MASK`.
        let mask = _mm256_loadu_si256(MASK.as_ptr().add(LANES - width) as *const __m256i);
        let mut acc = (
            _mm256_setzero_ps(),
            _mm256_setzero_ps(),
            _mm256_setzero_ps(),
            _mm256_setzero_ps(),
            _mm256_setzero_ps(),
            _mm256_setzero_ps(),
            _mm256_setzero_ps(),
            _mm256_setzero_ps(),
        );
        macro_rules! lane {
            ($acc:expr, $kk:expr) => {
                // SAFETY: a support only names terms of the vector it was
                // filled from (a whole chunk lies inside it), and the
                // caller guarantees that vector was as long as `x`: $kk is
                // below `x.len()`, so `x[$kk]` exists and `width` floats —
                // all the mask lets through — are readable at
                // a + $kk * stride.
                let xv = _mm256_set1_ps(*x.get_unchecked($kk));
                let av = if FULL {
                    _mm256_loadu_ps(a.add($kk * stride))
                } else {
                    _mm256_maskload_ps(a.add($kk * stride), mask)
                };
                $acc = _mm256_add_ps($acc, _mm256_mul_ps(av, xv));
            };
        }
        for &entry in walk {
            if entry & WHOLE_CHUNK != 0 {
                let base = (entry & !WHOLE_CHUNK) as usize;
                lane!(acc.0, base);
                lane!(acc.1, base + 1);
                lane!(acc.2, base + 2);
                lane!(acc.3, base + 3);
                lane!(acc.4, base + 4);
                lane!(acc.5, base + 5);
                lane!(acc.6, base + 6);
                lane!(acc.7, base + 7);
                continue;
            }
            let kk = entry as usize;
            match kk % LANES {
                0 => {
                    lane!(acc.0, kk);
                }
                1 => {
                    lane!(acc.1, kk);
                }
                2 => {
                    lane!(acc.2, kk);
                }
                3 => {
                    lane!(acc.3, kk);
                }
                4 => {
                    lane!(acc.4, kk);
                }
                5 => {
                    lane!(acc.5, kk);
                }
                6 => {
                    lane!(acc.6, kk);
                }
                _ => {
                    lane!(acc.7, kk);
                }
            }
        }
        let s01 = _mm256_add_ps(acc.0, acc.1);
        let s23 = _mm256_add_ps(acc.2, acc.3);
        let s45 = _mm256_add_ps(acc.4, acc.5);
        let s67 = _mm256_add_ps(acc.6, acc.7);
        let sum = _mm256_add_ps(_mm256_add_ps(s01, s23), _mm256_add_ps(s45, s67));
        _mm256_storeu_ps(vals.as_mut_ptr(), sum);
    }
}

/// AVX2 dot product when the path is compiled in *and* the CPU supports it;
/// `None` otherwise. Exposed so the kernel-equivalence proptest can pit it
/// directly against [`dot_portable`].
#[inline]
pub fn dot_avx2(a: &[f32], b: &[f32]) -> Option<f32> {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2::available() {
            // SAFETY: AVX2 support was just verified at runtime.
            #[allow(unsafe_code)]
            return Some(unsafe { avx2::dot(a, b) });
        }
    }
    let _ = (a, b);
    None
}

/// GEMV: `out[i] = a_row_i . x` for a row-major `(rows, cols)` matrix `a`:
/// one lane-blocked dot per row (AVX2 when available, [`dot_portable`]
/// otherwise; identical bits).
///
/// # Panics
///
/// Panics (in debug builds) on shape mismatch.
pub fn gemv_into(out: &mut [f32], a: &[f32], rows: usize, cols: usize, x: &[f32]) {
    debug_assert_eq!(a.len(), rows * cols, "kernel::gemv: bad matrix length");
    debug_assert_eq!(out.len(), rows, "kernel::gemv: bad output length");
    debug_assert_eq!(x.len(), cols, "kernel::gemv: bad vector length");
    #[cfg(target_arch = "x86_64")]
    {
        if avx2::available() {
            for (o, row) in out.iter_mut().zip(a.chunks_exact(cols)) {
                // SAFETY: AVX2 support was just verified at runtime.
                #[allow(unsafe_code)]
                {
                    *o = unsafe { avx2::dot(row, x) };
                }
            }
            return;
        }
    }
    for (o, row) in out.iter_mut().zip(a.chunks_exact(cols)) {
        *o = dot_portable(row, x);
    }
}

/// Largest contraction length the on-stack pack buffer covers; larger `k`
/// falls back to strided loads.
const PACK_MAX_K: usize = 512;

/// Minimum strided-operand size (in elements) before a GEMM packs the
/// current `LANES`-wide slab into the contiguous buffer. Below this the
/// whole operand is L1-resident and the copy is pure overhead; above it
/// the slab's strided rows alias a handful of cache sets (a 512-byte row
/// stride touches every eighth set) and get evicted between reuses.
const PACK_MIN_ELEMS: usize = 64 * 64;

/// One full-width (`LANES`-column) block of one output row:
/// `out_blk[jj] = sum_kk a_row[kk] * b[off + kk * stride + jj]`, following
/// the contract accumulation order. `stride` is `n` for a strided view of
/// the right operand or `LANES` for a packed slab.
#[inline]
fn gemm_row_block(out_blk: &mut [f32], a_row: &[f32], b: &[f32], off: usize, stride: usize) {
    debug_assert!(a_row.is_empty() || off + (a_row.len() - 1) * stride + LANES <= b.len());
    #[cfg(target_arch = "x86_64")]
    if avx2::available() {
        // SAFETY: AVX2 verified at runtime; the debug assertion above
        // states the in-bounds contract the callers uphold.
        #[allow(unsafe_code)]
        unsafe {
            avx2::gemm_row_block(out_blk, a_row, b.as_ptr().add(off), stride);
        }
        return;
    }
    let k = a_row.len();
    let chunks = k / LANES;
    let mut acc = [[0.0f32; LANES]; LANES];
    for c in 0..chunks {
        for (l, acc_l) in acc.iter_mut().enumerate() {
            let kk = c * LANES + l;
            let av = a_row[kk];
            let base = off + kk * stride;
            let b_blk: &[f32; LANES] = b[base..base + LANES].try_into().unwrap();
            for jj in 0..LANES {
                acc_l[jj] += av * b_blk[jj];
            }
        }
    }
    for (l, kk) in (chunks * LANES..k).enumerate() {
        let av = a_row[kk];
        let base = off + kk * stride;
        let b_blk: &[f32; LANES] = b[base..base + LANES].try_into().unwrap();
        let acc_l = &mut acc[l];
        for jj in 0..LANES {
            acc_l[jj] += av * b_blk[jj];
        }
    }
    for jj in 0..LANES {
        out_blk[jj] = reduce(core::array::from_fn(|l| acc[l][jj]));
    }
}

/// The final partial (`w < LANES` column) block of every output row of
/// `out = a * b`; dynamic-width, same accumulation order.
fn gemm_partial_cols(out: &mut [f32], a: &[f32], m: usize, k: usize, b: &[f32], n: usize) {
    let jb = n - n % LANES;
    if jb == n {
        return;
    }
    let w = n - jb;
    let chunks = k / LANES;
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        let mut acc = [[0.0f32; LANES]; LANES];
        for c in 0..chunks {
            for (l, acc_l) in acc.iter_mut().enumerate() {
                let kk = c * LANES + l;
                let av = a_row[kk];
                let b_blk = &b[kk * n + jb..kk * n + jb + w];
                for (jj, &bv) in b_blk.iter().enumerate() {
                    acc_l[jj] += av * bv;
                }
            }
        }
        for (l, kk) in (chunks * LANES..k).enumerate() {
            let av = a_row[kk];
            let b_blk = &b[kk * n + jb..kk * n + jb + w];
            for (jj, &bv) in b_blk.iter().enumerate() {
                acc[l][jj] += av * bv;
            }
        }
        for jj in 0..w {
            out_row[jb + jj] = reduce(core::array::from_fn(|l| acc[l][jj]));
        }
    }
}

/// GEMM: `out = a * b` with `a` `(m, k)`, `b` `(k, n)`, all row-major.
///
/// The output is produced in `LANES`-wide column blocks; each block carries
/// a `[k-lane][column]` register tile so that every output element observes
/// exactly the contract accumulation order (term `kk` in lane `kk % LANES`,
/// reduced by `reduce`). Blocks are walked column-outer / row-inner so one
/// block's slab of `b` (`k * LANES` floats) stays cache-resident across
/// every row of `a`; when `b` is large enough for its strided slab rows to
/// thrash cache sets, the slab is first packed contiguously (a value copy —
/// bits are unaffected). The final partial block takes a dynamic-width
/// path. `out` is fully overwritten.
pub fn gemm_into(out: &mut [f32], a: &[f32], m: usize, k: usize, b: &[f32], n: usize) {
    debug_assert_eq!(a.len(), m * k, "kernel::gemm: bad lhs length");
    debug_assert_eq!(b.len(), k * n, "kernel::gemm: bad rhs length");
    debug_assert_eq!(out.len(), m * n, "kernel::gemm: bad output length");
    if k <= PACK_MAX_K && k * n >= PACK_MIN_ELEMS && n >= LANES {
        let mut slab = [0.0f32; LANES * PACK_MAX_K];
        let mut jb = 0;
        while jb + LANES <= n {
            for kk in 0..k {
                let src: &[f32; LANES] = b[kk * n + jb..kk * n + jb + LANES].try_into().unwrap();
                slab[kk * LANES..(kk + 1) * LANES].copy_from_slice(src);
            }
            for i in 0..m {
                let a_row = &a[i * k..(i + 1) * k];
                gemm_row_block(
                    &mut out[i * n + jb..i * n + jb + LANES],
                    a_row,
                    &slab,
                    0,
                    LANES,
                );
            }
            jb += LANES;
        }
    } else {
        let mut jb = 0;
        while jb + LANES <= n {
            for i in 0..m {
                let a_row = &a[i * k..(i + 1) * k];
                gemm_row_block(&mut out[i * n + jb..i * n + jb + LANES], a_row, b, jb, n);
            }
            jb += LANES;
        }
    }
    gemm_partial_cols(out, a, m, k, b, n);
}

/// Output rows of one [`outer_acc_steps_into`] tile.
const TILE_ROWS: usize = 4;

/// The operands of one [`outer_acc_steps_into`] call, shape-checked.
#[derive(Clone, Copy)]
struct StepOperands<'a> {
    a: &'a [f32],
    lda: usize,
    b: &'a [f32],
    n: usize,
    steps: usize,
}

impl<'a> StepOperands<'a> {
    /// Checks the operands against an output of `len` elements; `None`
    /// when there is nothing to do.
    fn checked(len: usize, a: &'a [f32], lda: usize, b: &'a [f32], steps: usize) -> Option<Self> {
        if steps == 0 || len == 0 {
            return None;
        }
        let n = b.len() / steps;
        assert!(
            n > 0 && b.len() == steps * n && len.is_multiple_of(n),
            "kernel::outer_acc_steps: bad right operand or output"
        );
        let m = len / n;
        assert!(
            m <= lda && (steps - 1) * lda + m <= a.len(),
            "kernel::outer_acc_steps: bad left operand"
        );
        Some(Self {
            a,
            lda,
            b,
            n,
            steps,
        })
    }
}

/// Rank-`steps` update `out += Σ_t a_t ⊗ b_t`: for the row-major `(m, n)`
/// matrix `out`, `out[i * n + j] += a_t[i] · b_t[j]` for `t = steps − 1`
/// down to `0`, where `b_t = b[t * n..][..n]` (`n = b.len() / steps`) and
/// `a_t = a[t * lda..][..m]` (`m = out.len() / n`) — `lda` lets `a_t` be a
/// column range of a wider stash row.
///
/// Each element receives its `steps` products one after another, `t`
/// descending, each a separate multiply and add, in a register tile held
/// across all of them: `out` is read and written once per call, not once
/// per step. For an `out` that holds no `-0.0` the result is bit-identical
/// to `steps` successive rank-1 updates `out[i * n + j] += (a_t[i] ·
/// b_t[j]) + 0.0` — the length-1 contract dot, so [`gemm_into`] with
/// `k = 1` — because the `+ 0.0` only turns a `-0.0` product into `+0.0`,
/// adding either to a value that is not `-0.0` gives the same bits, and
/// such a sum never becomes `-0.0` (the module's signed-zero lemma). The
/// analytic backward zero-fills its gradient arenas with `+0.0` and lands
/// each weight gradient of a subsequence with one call.
///
/// The tiles are `TILE_ROWS × LANES` (leftover rows `1 × LANES`, the
/// ragged column edge `TILE_ROWS × 1`). When AVX2 is available the same
/// code runs compiled for AVX2 (without FMA, so nothing is fused).
///
/// # Panics
///
/// Panics if `b.len()` is no multiple of `steps`, `out.len()` none of `n`,
/// or `a` holds fewer than `steps` rows of `m` at stride `lda ≥ m`.
pub fn outer_acc_steps_into(out: &mut [f32], a: &[f32], lda: usize, b: &[f32], steps: usize) {
    let Some(ops) = StepOperands::checked(out.len(), a, lda, b, steps) else {
        return;
    };
    #[cfg(target_arch = "x86_64")]
    if avx2::available() {
        // SAFETY: AVX2 support was just verified at runtime.
        #[allow(unsafe_code)]
        unsafe {
            avx2::outer_acc_steps(out, ops);
        }
        return;
    }
    outer_steps_tiles(out, ops);
}

/// Portable [`outer_acc_steps_into`]: what it computes when AVX2 is
/// absent. Exposed so the kernel-equivalence proptest can pit it against
/// the dispatching entry.
///
/// # Panics
///
/// As [`outer_acc_steps_into`].
pub fn outer_acc_steps_portable(out: &mut [f32], a: &[f32], lda: usize, b: &[f32], steps: usize) {
    if let Some(ops) = StepOperands::checked(out.len(), a, lda, b, steps) {
        outer_steps_tiles(out, ops);
    }
}

/// [`outer_acc_steps_into`]'s tiles over shape-checked operands: full
/// `TILE_ROWS`-row blocks, then the leftover rows one at a time; in each,
/// full `LANES`-column tiles, then the ragged columns one at a time.
#[inline(always)]
fn outer_steps_tiles(out: &mut [f32], ops: StepOperands) {
    let (n, m) = (ops.n, out.len() / ops.n);
    let (m_full, n_full) = (m - m % TILE_ROWS, n - n % LANES);
    for i0 in (0..m_full).step_by(TILE_ROWS) {
        for j0 in (0..n_full).step_by(LANES) {
            outer_steps_tile::<TILE_ROWS>(out, ops, i0, j0);
        }
        for j in n_full..n {
            outer_steps_column::<TILE_ROWS>(out, ops, i0, j);
        }
    }
    for i in m_full..m {
        for j0 in (0..n_full).step_by(LANES) {
            outer_steps_tile::<1>(out, ops, i, j0);
        }
        for j in n_full..n {
            outer_steps_column::<1>(out, ops, i, j);
        }
    }
}

/// The `ROWS × LANES` tile of [`outer_acc_steps_into`] at `(i0, j0)`.
#[inline(always)]
fn outer_steps_tile<const ROWS: usize>(out: &mut [f32], ops: StepOperands, i0: usize, j0: usize) {
    let StepOperands {
        a,
        lda,
        b,
        n,
        steps,
    } = ops;
    let mut acc = [[0.0f32; LANES]; ROWS];
    for (r, acc_r) in acc.iter_mut().enumerate() {
        *acc_r = out[(i0 + r) * n + j0..][..LANES].try_into().unwrap();
    }
    for t in (0..steps).rev() {
        let at: &[f32; ROWS] = a[t * lda + i0..][..ROWS].try_into().unwrap();
        let bt: &[f32; LANES] = b[t * n + j0..][..LANES].try_into().unwrap();
        for (acc_r, &av) in acc.iter_mut().zip(at) {
            for (o, &bv) in acc_r.iter_mut().zip(bt) {
                *o += av * bv;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        out[(i0 + r) * n + j0..][..LANES].copy_from_slice(acc_r);
    }
}

/// Column `j` of rows `i0..i0 + ROWS` of [`outer_acc_steps_into`]: the
/// rows are contiguous in `a_t`, so they take the vector and `b_t[j]` the
/// broadcast.
#[inline(always)]
fn outer_steps_column<const ROWS: usize>(out: &mut [f32], ops: StepOperands, i0: usize, j: usize) {
    let StepOperands {
        a,
        lda,
        b,
        n,
        steps,
    } = ops;
    let mut acc: [f32; ROWS] = core::array::from_fn(|r| out[(i0 + r) * n + j]);
    for t in (0..steps).rev() {
        let at: &[f32; ROWS] = a[t * lda + i0..][..ROWS].try_into().unwrap();
        let bv = b[t * n + j];
        for (o, &av) in acc.iter_mut().zip(at) {
            *o += av * bv;
        }
    }
    for (r, &v) in acc.iter().enumerate() {
        out[(i0 + r) * n + j] = v;
    }
}

/// One `LANES`-wide block of `a`'s columns contracted against the column
/// `x`: `vals[ii] = sum_kk a[off + kk * stride + ii] * x[kk]`, following
/// the contract accumulation order, `stride` the row length of the strided
/// left operand.
#[inline]
fn gemm_tn_block(vals: &mut [f32; LANES], a: &[f32], off: usize, stride: usize, x: &[f32]) {
    let k = x.len();
    debug_assert!(k == 0 || off + (k - 1) * stride + LANES <= a.len());
    #[cfg(target_arch = "x86_64")]
    if avx2::available() {
        // SAFETY: AVX2 verified at runtime; the debug assertion above
        // states the in-bounds contract the callers uphold.
        #[allow(unsafe_code)]
        unsafe {
            avx2::gemm_tn_block(vals, a.as_ptr().add(off), stride, x);
        }
        return;
    }
    let chunks = k / LANES;
    let mut acc = [[0.0f32; LANES]; LANES];
    for c in 0..chunks {
        for (l, acc_l) in acc.iter_mut().enumerate() {
            let kk = c * LANES + l;
            let bv = x[kk];
            let base = off + kk * stride;
            let a_blk: &[f32; LANES] = a[base..base + LANES].try_into().unwrap();
            for ii in 0..LANES {
                acc_l[ii] += a_blk[ii] * bv;
            }
        }
    }
    for (l, kk) in (chunks * LANES..k).enumerate() {
        let bv = x[kk];
        let base = off + kk * stride;
        let a_blk: &[f32; LANES] = a[base..base + LANES].try_into().unwrap();
        let acc_l = &mut acc[l];
        for ii in 0..LANES {
            acc_l[ii] += a_blk[ii] * bv;
        }
    }
    for ii in 0..LANES {
        vals[ii] = reduce(core::array::from_fn(|l| acc[l][ii]));
    }
}

/// Transposed GEMV: `out = a^T * x` with `a` `(k, m)` row-major and `x` a
/// `k`-vector, without materializing the transpose.
///
/// Each `LANES`-wide block of `a`'s columns is contracted directly from the
/// strided operand — per row of `a` that is one contiguous `LANES`-float
/// load, so the walk streams `a` row-major once per block, and a single
/// right-hand column reuses nothing a packed copy would buy. The
/// accumulation order is the `gemm_tn_block` tile (term `kk` in lane
/// `kk % LANES`, tree `reduce`), so the bits are those of [`gemv_into`] on
/// a materialized transpose.
pub fn gemv_t_into(out: &mut [f32], a: &[f32], k: usize, m: usize, x: &[f32]) {
    gemv_t_impl(out, a, k, m, x, |o, v| *o = v);
}

/// Accumulating transposed GEMV: `out[i] += (a^T * x)[i]`.
///
/// Each contribution carries exactly the bits of the corresponding
/// [`gemv_t_into`] element (the shared `gemm_tn_block` tile and tail), so
/// `gemv_t_acc_into(out, ..)` is bit-identical to `gemv_t_into(tmp, ..)`
/// followed by `out[i] += tmp[i]` — without the temporary. This is the
/// analytic training backward's accumulation primitive for
/// `U^T · d` hidden-state and `W^T · d` input gradients.
pub fn gemv_t_acc_into(out: &mut [f32], a: &[f32], k: usize, m: usize, x: &[f32]) {
    gemv_t_impl(out, a, k, m, x, |o, v| *o += v);
}

/// Shared body of [`gemv_t_into`] / [`gemv_t_acc_into`]: computes each
/// contract-ordered output element and hands it to `store` (plain
/// assignment or `+=`). Full-width blocks run the [`gemm_tn_block`] tile,
/// the ragged tail the same tile at dynamic width, so element bits are
/// independent of which `store` is used.
#[inline(always)]
fn gemv_t_impl(
    out: &mut [f32],
    a: &[f32],
    k: usize,
    m: usize,
    x: &[f32],
    store: impl Fn(&mut f32, f32),
) {
    debug_assert_eq!(a.len(), k * m, "kernel::gemv_t: bad matrix length");
    debug_assert_eq!(x.len(), k, "kernel::gemv_t: bad vector length");
    debug_assert_eq!(out.len(), m, "kernel::gemv_t: bad output length");
    let mut vals = [0.0f32; LANES];
    let mut ib = 0;
    while ib + LANES <= m {
        gemm_tn_block(&mut vals, a, ib, m, x);
        for (o, &v) in out[ib..ib + LANES].iter_mut().zip(vals.iter()) {
            store(o, v);
        }
        ib += LANES;
    }
    if ib < m {
        let w = m - ib;
        let chunks = k / LANES;
        let mut acc = [[0.0f32; LANES]; LANES];
        for c in 0..chunks {
            for (l, acc_l) in acc.iter_mut().enumerate() {
                let kk = c * LANES + l;
                let xv = x[kk];
                let a_blk = &a[kk * m + ib..kk * m + ib + w];
                for (ii, &av) in a_blk.iter().enumerate() {
                    acc_l[ii] += av * xv;
                }
            }
        }
        for (l, kk) in (chunks * LANES..k).enumerate() {
            let xv = x[kk];
            let a_blk = &a[kk * m + ib..kk * m + ib + w];
            for (ii, &av) in a_blk.iter().enumerate() {
                acc[l][ii] += av * xv;
            }
        }
        for ii in 0..w {
            store(
                &mut out[ib + ii],
                reduce(core::array::from_fn(|l| acc[l][ii])),
            );
        }
    }
}

/// `out = a^T * x` over the terms of `support`'s walk, in `LANES`-wide
/// blocks with a dynamic-width last one: the portable form of the support
/// walk (term `kk` into lane `kk % LANES`, ascending, tree [`reduce`]).
fn gemv_t_support_cols(out: &mut [f32], a: &[f32], m: usize, x: &[f32], support: &Support) {
    let mut ib = 0;
    while ib < m {
        let w = LANES.min(m - ib);
        let mut acc = [[0.0f32; LANES]; LANES];
        for &entry in &support.walk {
            let first = (entry & !WHOLE_CHUNK) as usize;
            let terms = if entry & WHOLE_CHUNK != 0 { LANES } else { 1 };
            for kk in first..first + terms {
                let xv = x[kk];
                let a_blk = &a[kk * m + ib..kk * m + ib + w];
                for (o, &av) in acc[kk % LANES].iter_mut().zip(a_blk) {
                    *o += av * xv;
                }
            }
        }
        for ii in 0..w {
            out[ib + ii] = reduce(core::array::from_fn(|l| acc[l][ii]));
        }
        ib += w;
    }
}

/// Portable support-driven transposed GEMV, one item: what
/// [`gemv_t_batch_into`] computes with a support when AVX2 is absent.
/// Exposed so the kernel-equivalence proptest can pit it against the
/// dispatching entry.
///
/// # Panics
///
/// Panics on shape mismatch, `support.dim() != k` included.
pub fn gemv_t_support_portable(
    out: &mut [f32],
    a: &[f32],
    k: usize,
    m: usize,
    x: &[f32],
    support: &Support,
) {
    assert_eq!(a.len(), k * m, "kernel::gemv_t_support: bad matrix length");
    assert_eq!(x.len(), k, "kernel::gemv_t_support: bad vector length");
    assert_eq!(out.len(), m, "kernel::gemv_t_support: bad output length");
    assert_eq!(support.dim, k, "kernel::gemv_t_support: bad support");
    gemv_t_support_cols(out, a, m, x, support);
}

/// Batched transposed GEMV over packed per-item slabs: item `i` of `batch`
/// computes `out[i*m .. (i+1)*m] = a_i^T * x_i`, where `a_i` is the `i`-th
/// row-major `(k, m)` matrix in the contiguous slab `a` (an *input-major*
/// weight matrix: one row per input, one column per output) and `x_i` the
/// `i`-th `k`-vector in `x`.
///
/// `support`, when given, is shared by every item and says where the `x_i`
/// may be non-zero: each must be zero wherever the vector it was
/// [`fill`](Support::fill)ed from is. The walk then visits the support's
/// terms and no others. A term left out is `a * ±0.0`, a bitwise no-op on
/// its lane for finite `a` (module docs), so the bits are those of the full
/// walk; the cost falls from `k` rows of each `a_i` toward
/// [`nnz`](Support::nnz). `None` walks every term and skips nothing — the
/// form for operands whose non-finite values must propagate.
///
/// Either way each output element carries the bits of [`gemv_t_into`], and
/// so of [`gemv_into`] on the materialized transpose: the batch form buys
/// the contiguous slab layout, not a different accumulation order.
///
/// # Panics
///
/// Panics on slab length mismatch, or a support filled from a vector that
/// was not `k` long.
pub fn gemv_t_batch_into(
    out: &mut [f32],
    a: &[f32],
    k: usize,
    m: usize,
    x: &[f32],
    support: Option<&Support>,
    batch: usize,
) {
    // Hard checks, once per call: the AVX2 block reads `a` and `x` through
    // raw pointers at offsets these lengths and the support's `dim` bound.
    assert_eq!(a.len(), batch * k * m, "kernel::gemv_t_batch: bad slab");
    assert_eq!(x.len(), batch * k, "kernel::gemv_t_batch: bad operands");
    assert_eq!(out.len(), batch * m, "kernel::gemv_t_batch: bad output");
    assert!(
        support.is_none_or(|s| s.dim == k),
        "kernel::gemv_t_batch: support of another length"
    );
    for i in 0..batch {
        let (o, a_i, x_i) = (
            &mut out[i * m..(i + 1) * m],
            &a[i * k * m..(i + 1) * k * m],
            &x[i * k..(i + 1) * k],
        );
        let Some(support) = support else {
            gemv_t_into(o, a_i, k, m, x_i);
            continue;
        };
        #[cfg(target_arch = "x86_64")]
        if avx2::available() {
            let mut vals = [0.0f32; LANES];
            for done in (0..m).step_by(LANES) {
                let width = LANES.min(m - done);
                // SAFETY: AVX2 verified at runtime. The support was filled
                // from a vector as long as `x_i` (asserted above), and row
                // `kk < k` of the `(k, m)` matrix `a_i` holds `width`
                // floats from column `done` because `done + width <= m`.
                #[allow(unsafe_code)]
                unsafe {
                    let (a_blk, walk) = (a_i.as_ptr().add(done), &support.walk[..]);
                    if width == LANES {
                        avx2::gemv_t_support_block::<true>(&mut vals, a_blk, m, width, x_i, walk);
                    } else {
                        avx2::gemv_t_support_block::<false>(&mut vals, a_blk, m, width, x_i, walk);
                    }
                }
                o[done..done + width].copy_from_slice(&vals[..width]);
            }
            continue;
        }
        gemv_t_support_cols(o, a_i, m, x_i, support);
    }
}

/// Batched GEMV over packed per-item slabs: item `i` of `batch` computes
/// `out[i*rows .. (i+1)*rows] = a_i * x_i`, where `a_i` is the `i`-th
/// row-major `(rows, cols)` matrix in the contiguous weight slab `a` and
/// `x_i` the `i`-th `cols`-vector in the contiguous operand slab `x`.
///
/// The forward's head product runs on it: one call maps a whole shard's
/// concatenated `[a ; h]` vectors through their packed head weights. Each
/// item runs the exact [`gemv_into`] dispatch, so every output element
/// carries the same bits as an unbatched call — the batch form buys the
/// contiguous slab layout and a single bounds-checked entry, not a
/// different accumulation order.
///
/// # Panics
///
/// Panics (in debug builds) on slab length mismatch.
pub fn gemv_batch_into(
    out: &mut [f32],
    a: &[f32],
    rows: usize,
    cols: usize,
    x: &[f32],
    batch: usize,
) {
    debug_assert_eq!(a.len(), batch * rows * cols, "kernel::gemv_batch: bad slab");
    debug_assert_eq!(x.len(), batch * cols, "kernel::gemv_batch: bad operands");
    debug_assert_eq!(out.len(), batch * rows, "kernel::gemv_batch: bad output");
    let mat = rows * cols;
    for i in 0..batch {
        gemv_into(
            &mut out[i * rows..(i + 1) * rows],
            &a[i * mat..(i + 1) * mat],
            rows,
            cols,
            &x[i * cols..(i + 1) * cols],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation of the contract, written as literally as
    /// possible: lane `k % LANES`, ascending `k`, fixed tree reduce.
    fn dot_reference(a: &[f32], b: &[f32]) -> f32 {
        let mut acc = [0.0f32; LANES];
        for k in 0..a.len() {
            acc[k % LANES] += a[k] * b[k];
        }
        reduce(acc)
    }

    fn ramp(n: usize, f: impl Fn(usize) -> f32) -> Vec<f32> {
        (0..n).map(f).collect()
    }

    #[test]
    fn dot_matches_reference_on_ragged_lengths() {
        for n in [0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 64, 65] {
            let a = ramp(n, |i| (i as f32 * 0.37 - 3.0).sin());
            let b = ramp(n, |i| (i as f32 * 0.11 + 1.0).cos());
            let want = dot_reference(&a, &b);
            assert_eq!(dot_portable(&a, &b).to_bits(), want.to_bits(), "n={n}");
            if let Some(v) = dot_avx2(&a, &b) {
                assert_eq!(v.to_bits(), want.to_bits(), "n={n} avx2");
            }
        }
    }

    /// What the AVX2 walk's unchecked reads rest on: a support names only
    /// terms of the vector it was filled from, ascending; a chunk enters it
    /// whole from three non-zero terms, never when it is the ragged last
    /// one, and not at all when it is all zeros (of either sign).
    #[test]
    fn support_walk_stays_inside_the_vector_it_was_filled_from() {
        let mut x = vec![0.0f32; 8 * 4 + 5];
        x[1] = 2.0; // chunk 0: two terms, listed one by one
        x[6] = f32::NAN;
        x[8..16].fill(-0.0); // chunk 1: zeros of the other sign, absent
        for kk in [17, 19, 22] {
            x[kk] = 1.0e-41; // chunk 2: three denormals, whole
        }
        x[24..32].fill(1.0); // chunk 3: dense, whole
        x[32..37].fill(1.0); // ragged tail: five terms, never whole
        let mut support = Support::with_capacity(x.len());
        let room = support.walk.capacity();
        support.fill(&x);
        let whole = |base: u32| base | WHOLE_CHUNK;
        assert_eq!(
            support.walk,
            [1, 6, whole(16), whole(24), 32, 33, 34, 35, 36]
        );
        assert_eq!((support.dim(), support.nnz()), (37, 2 + 3 + 8 + 5));
        // Refilling reuses the storage and forgets the previous vector.
        support.fill(&[0.0; 37]);
        assert_eq!((support.walk.len(), support.nnz()), (0, 0));
        support.fill(&[1.0; 37]);
        assert_eq!(support.walk.len(), 4 + 5);
        assert_eq!(support.walk.capacity(), room);
    }

    /// The lemma every skipped term rests on (module docs, "Sparse inputs
    /// and signed zero"): a lane that starts at `+0.0` never holds `-0.0`,
    /// whatever finite products it absorbs, and on such a lane adding a
    /// skipped term's `w · ±0.0` changes no bit.
    #[test]
    fn a_lane_seeded_positive_zero_never_holds_negative_zero() {
        let neg_zero = (-0.0f32).to_bits();
        let weights = [1.5f32, -1.5, 0.0, -0.0, 1.0e30, f32::MIN_POSITIVE, -1.0e-41];
        let operands = [0.0f32, -0.0, 2.0, -2.0, 1.0e-41, -f32::MIN_POSITIVE];
        // Every lane value reachable in two terms from the seed, including
        // exact cancellation (`p + -p`) and products that underflow to a
        // signed zero.
        let mut reachable = vec![0.0f32];
        for _ in 0..2 {
            for lane in reachable.clone() {
                for w in weights {
                    for x in operands {
                        let next = lane + w * x;
                        assert_ne!(next.to_bits(), neg_zero, "{lane} + {w} * {x}");
                        reachable.push(next);
                    }
                }
            }
            reachable.sort_by(f32::total_cmp);
            reachable.dedup_by_key(|v| v.to_bits());
        }
        for lane in reachable {
            for w in weights {
                for zero in [0.0f32, -0.0] {
                    assert_eq!(
                        (lane + w * zero).to_bits(),
                        lane.to_bits(),
                        "{lane} + {w} * {zero}"
                    );
                }
            }
        }
    }

    #[test]
    fn gemv_t_matches_per_element_dot() {
        // Includes shapes past PACK_MIN_ELEMS: a single column never packs.
        for (k, m) in [(1, 1), (5, 3), (8, 16), (20, 13), (128, 128), (64, 70)] {
            let a = ramp(k * m, |i| (i as f32 * 0.23).sin() - 0.1);
            let x = ramp(k, |i| (i as f32 * 0.17).cos() + 0.3);
            let mut out = vec![0.0f32; m];
            gemv_t_into(&mut out, &a, k, m, &x);
            for i in 0..m {
                let col: Vec<f32> = (0..k).map(|kk| a[kk * m + i]).collect();
                let want = dot_reference(&col, &x);
                assert_eq!(out[i].to_bits(), want.to_bits(), "({k},{m}) at {i}");
            }
        }
    }

    #[test]
    fn gemv_batch_matches_unbatched_calls_bitwise() {
        // Dense and mostly-zero operand vectors in one batch.
        let (rows, cols, batch) = (9, 40, 5);
        let a = ramp(batch * rows * cols, |i| (i as f32 * 0.03).sin());
        let mut x = ramp(batch * cols, |i| (i as f32 * 0.19).cos());
        for (i, v) in x.iter_mut().enumerate() {
            // Items 1 and 3 get blocky sparsity past their first chunk.
            let item = i / cols;
            if (item == 1 || item == 3) && i % cols >= LANES {
                *v = 0.0;
            }
        }
        let mut batched = vec![0.0f32; batch * rows];
        gemv_batch_into(&mut batched, &a, rows, cols, &x, batch);
        for i in 0..batch {
            let mut single = vec![0.0f32; rows];
            gemv_into(
                &mut single,
                &a[i * rows * cols..(i + 1) * rows * cols],
                rows,
                cols,
                &x[i * cols..(i + 1) * cols],
            );
            assert_eq!(
                batched[i * rows..(i + 1) * rows]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                single.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "item {i}"
            );
        }
    }

    #[test]
    fn gemv_t_acc_matches_set_then_add_bitwise() {
        for (k, m) in [(1, 1), (5, 3), (8, 16), (20, 13), (64, 70)] {
            let a = ramp(k * m, |i| (i as f32 * 0.23).sin() - 0.1);
            let x = ramp(k, |i| (i as f32 * 0.17).cos() + 0.3);
            let mut set = vec![0.0f32; m];
            gemv_t_into(&mut set, &a, k, m, &x);
            let mut acc = ramp(m, |i| (i as f32 * 0.31).sin() * 0.7);
            let want: Vec<u32> = acc
                .iter()
                .zip(set.iter())
                .map(|(&p, &v)| (p + v).to_bits())
                .collect();
            gemv_t_acc_into(&mut acc, &a, k, m, &x);
            assert_eq!(
                acc.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want,
                "({k},{m})"
            );
        }
    }
}
