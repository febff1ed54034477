//! Deterministic lane-blocked SIMD kernels.
//!
//! Every contraction in the crate (dot products, GEMV, GEMM in all three
//! transpose layouts) is built on one accumulation contract:
//!
//! * Partial sums live in a fixed array of [`LANES`]` = 8` accumulators.
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
//! portable kernel by proptest.
//!
//! # Sparse inputs and signed zero
//!
//! The GEMV kernel may skip terms whose `x[k]` operand is `0.0` (positive
//! or negative zero). For finite inputs this is bit-exact, not merely
//! approximate: a lane accumulator seeded at `+0.0` can never become `-0.0`
//! (adding `-0.0` leaves any value unchanged, and exact cancellation yields
//! `+0.0` under round-to-nearest), so adding `a * 0.0 == ±0.0` to a lane is
//! a bitwise no-op. NaN and infinity operands are outside the kernel
//! contract (they would turn `±0.0` products into NaN).

/// Number of parallel accumulator lanes in every contraction kernel.
pub const LANES: usize = 8;

/// Minimum contraction length before the GEMV sparse path is considered;
/// below this the zero-scan costs more than the skipped multiplies save.
const SPARSE_MIN_COLS: usize = 16;

/// Fraction (numerator/denominator of 3/4) of aligned `LANES`-wide chunks
/// that must be entirely zero before the sparse GEMV path dispatches.
/// Measured on the estimator's masked-feature vectors: ablation masks zero
/// out entire API groups (contiguous runs), so masked inputs are either
/// dense (training) or blockily zero (counterfactual queries) — chunk
/// granularity matches what the sparse kernel can actually skip, and a high
/// threshold keeps the dense path branch-free for the common case.
const SPARSE_NUM: usize = 3;
const SPARSE_DEN: usize = 4;

/// Reduces the eight lane accumulators in the fixed tree order
/// `((l0+l1) + (l2+l3)) + ((l4+l5) + (l6+l7))`.
///
/// This exact association is part of the kernel contract; every dispatch
/// path (portable, AVX2, sparse) funnels through it.
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
/// # Panics
///
/// Panics (in debug builds) if the slices differ in length.
#[inline]
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

/// Lane-blocked dot product that skips aligned `LANES`-wide chunks of `b`
/// that are entirely zero (plus zero terms in the ragged tail).
///
/// Bit-identical to [`dot_portable`] for finite inputs: skipped terms
/// contribute `a * ±0.0 == ±0.0`, which is a bitwise no-op on a lane
/// accumulator that started at `+0.0` (see the module docs for the signed
/// zero argument). Skipping at chunk granularity keeps the non-skipped
/// work vectorizable — one branch per `LANES` terms instead of one per
/// term, so blocky zero runs (masked-out feature groups) are elided at
/// full speed while mixed chunks run the same lane loop as the dense
/// kernel. Used by the sparse GEMV path.
#[inline]
pub fn dot_sparse(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "kernel::dot_sparse: length mismatch");
    let mut acc = [0.0f32; LANES];
    let main = a.len() - a.len() % LANES;
    let (a_main, a_tail) = a.split_at(main);
    let (b_main, b_tail) = b.split_at(main);
    for (ca, cb) in a_main.chunks_exact(LANES).zip(b_main.chunks_exact(LANES)) {
        if cb.iter().all(|&v| v == 0.0) {
            continue;
        }
        for j in 0..LANES {
            acc[j] += ca[j] * cb[j];
        }
    }
    for (j, (&x, &y)) in a_tail.iter().zip(b_tail.iter()).enumerate() {
        if y != 0.0 {
            acc[j] += x * y;
        }
    }
    reduce(acc)
}

/// Explicit AVX2 kernels, runtime-gated. Same lane assignment and reduction
/// order as the portable path: eight vertical lanes accumulated with
/// separate `_mm256_mul_ps` + `_mm256_add_ps` (no FMA — the portable scalar
/// code does not contract the multiply-add, so neither may this path), then
/// the shared scalar [`reduce`] tree. The only `unsafe` in the crate; the
/// bit-identity contract is enforced by `tests/prop_kernels.rs`.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use super::{reduce, LANES};
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };

    /// Whether the running CPU supports AVX2 (cached after first probe).
    pub fn available() -> bool {
        use std::sync::OnceLock;
        static AVX2: OnceLock<bool> = OnceLock::new();
        *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }

    /// AVX2 dot product; caller must have checked [`available`].
    ///
    /// # Safety
    ///
    /// Requires AVX2 support on the running CPU.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
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
    pub unsafe fn gemm_row_block(out_blk: &mut [f32], a_row: &[f32], b: *const f32, stride: usize) {
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

    /// One `LANES`-wide block of `a`'s columns contracted against column
    /// `j` of `b` for `out = a^T * b`:
    /// `vals[ii] = sum_kk a[kk * stride + ii] * b[kk * n + j]`, where `a`
    /// points at the block's first column (strided view of the left
    /// operand, or a packed slab with `stride == LANES`).
    ///
    /// Mirror of [`gemm_row_block`] with the broadcast on `b`'s side; the
    /// caller scatters `vals` into `out`'s column-strided layout.
    ///
    /// # Safety
    ///
    /// Requires AVX2, `LANES` floats readable at `a + kk * stride` for
    /// every `kk < k`, and `(k - 1) * n + j < b.len()` when `k > 0`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemm_tn_block(
        vals: &mut [f32; LANES],
        a: *const f32,
        stride: usize,
        b: &[f32],
        n: usize,
        j: usize,
        k: usize,
    ) {
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
                // SAFETY: $kk < k; the caller guarantees LANES floats are
                // readable at a + $kk * stride, and that column j of `b`
                // exists in every row.
                let bv = _mm256_set1_ps(*b.get_unchecked($kk * n + j));
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
}

/// AVX2 dot product when the path is compiled in *and* the CPU supports it;
/// `None` otherwise. Exposed so the kernel-equivalence proptest can pit it
/// directly against [`dot_portable`] regardless of what [`dot`] dispatches.
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

/// Lane-blocked dot product: dispatches to the AVX2 path when available,
/// the portable autovectorized path otherwise. Both produce identical bits.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    dot_avx2(a, b).unwrap_or_else(|| dot_portable(a, b))
}

/// Returns `true` when `x` is zero-laden enough for the sparse GEMV path:
/// at least [`SPARSE_MIN_COLS`] long with >= 3/4 of its aligned
/// `LANES`-wide chunks entirely zero. Chunk (not element) granularity
/// matches what [`dot_sparse`] can actually skip: scattered zeros inside
/// live chunks save nothing, so they must not trigger the dispatch.
#[inline]
fn sparse_worthwhile(x: &[f32]) -> bool {
    if x.len() < SPARSE_MIN_COLS {
        return false;
    }
    let chunks = x.len() / LANES;
    // The GEMV sparse path tracks live chunks in a u128 mask; longer
    // vectors stay on the dense path rather than growing the mask.
    if chunks == 0 || chunks > u128::BITS as usize {
        return false;
    }
    let zero_chunks = x
        .chunks_exact(LANES)
        .filter(|c| c.iter().all(|&v| v == 0.0))
        .count();
    zero_chunks * SPARSE_DEN >= chunks * SPARSE_NUM
}

/// GEMV: `out[i] = a_row_i . x` for a row-major `(rows, cols)` matrix `a`.
///
/// Dispatches per call: if `x` is blockily zero (>= 3/4 of its aligned
/// `LANES`-chunks entirely zero — the shape telemetry-measured ablation
/// masks produce) the sparse dot kernel runs and a `kernel.sparse_hits`
/// counter fires; otherwise the dense lane-blocked dot runs. Both paths
/// produce identical bits for finite inputs.
///
/// # Panics
///
/// Panics (in debug builds) on shape mismatch.
pub fn gemv_into(out: &mut [f32], a: &[f32], rows: usize, cols: usize, x: &[f32]) {
    debug_assert_eq!(a.len(), rows * cols, "kernel::gemv: bad matrix length");
    debug_assert_eq!(out.len(), rows, "kernel::gemv: bad output length");
    debug_assert_eq!(x.len(), cols, "kernel::gemv: bad vector length");
    if sparse_worthwhile(x) {
        deeprest_telemetry::counter("kernel.sparse_hits", 1);
        // `x` is shared by every row, so the zero scan happens once: bit c
        // of `live` marks an aligned chunk with at least one nonzero.
        // Rows then visit only live chunks (ascending, preserving the
        // contract order; skipped chunks are bitwise no-ops — see the
        // module docs) plus the ragged tail.
        let main = cols - cols % LANES;
        let mut live: u128 = 0;
        for (c, chunk) in x[..main].chunks_exact(LANES).enumerate() {
            if chunk.iter().any(|&v| v != 0.0) {
                live |= 1u128 << c;
            }
        }
        for (o, row) in out.iter_mut().zip(a.chunks_exact(cols)) {
            let mut acc = [0.0f32; LANES];
            let mut m = live;
            while m != 0 {
                let c = m.trailing_zeros() as usize;
                m &= m - 1;
                let base = c * LANES;
                let ca: &[f32; LANES] = row[base..base + LANES].try_into().unwrap();
                let cb: &[f32; LANES] = x[base..base + LANES].try_into().unwrap();
                for j in 0..LANES {
                    acc[j] += ca[j] * cb[j];
                }
            }
            for (j, (&rv, &xv)) in row[main..].iter().zip(x[main..].iter()).enumerate() {
                if xv != 0.0 {
                    acc[j] += rv * xv;
                }
            }
            *o = reduce(acc);
        }
        return;
    }
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

/// GEMM, no transposes: `out = a * b` with `a` `(m, k)`, `b` `(k, n)`, all
/// row-major.
///
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

/// GEMM with transposed right operand: `out = a * b^T` with `a` `(m, k)`,
/// `b` `(n, k)`, without materializing the transpose.
///
/// Every output element is a dot of two contiguous rows, so this simply runs
/// the dispatching [`dot`] kernel per element — the per-element accumulation
/// order is identical to [`gemm_into`] on a materialized transpose, so the
/// results are bit-for-bit the same.
pub fn gemm_nt_into(out: &mut [f32], a: &[f32], m: usize, k: usize, b: &[f32], n: usize) {
    debug_assert_eq!(a.len(), m * k, "kernel::gemm_nt: bad lhs length");
    debug_assert_eq!(b.len(), n * k, "kernel::gemm_nt: bad rhs length");
    debug_assert_eq!(out.len(), m * n, "kernel::gemm_nt: bad output length");
    if n == 1 {
        // `b` is a single `k`-length row shared by every output element, so
        // this is exactly [`gemv_into`]'s shape — the same `n == 1` fix
        // `gemm_tn` got its dedicated [`gemv_t_into`] path for. The GEMV
        // dispatch (sparse / AVX2 / portable) is bit-identical to the
        // per-element dot below for finite inputs.
        gemv_into(out, a, m, k, b);
        return;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if avx2::available() {
            for i in 0..m {
                let a_row = &a[i * k..(i + 1) * k];
                let out_row = &mut out[i * n..(i + 1) * n];
                for (o, b_row) in out_row.iter_mut().zip(b.chunks_exact(k.max(1))) {
                    // SAFETY: AVX2 support was just verified at runtime.
                    #[allow(unsafe_code)]
                    {
                        *o = unsafe { avx2::dot(a_row, b_row) };
                    }
                }
            }
            return;
        }
    }
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (o, b_row) in out_row.iter_mut().zip(b.chunks_exact(k.max(1))) {
            *o = dot_portable(a_row, b_row);
        }
    }
}

/// Accumulating `a * b^T`: `out[i*n + j] += a_row_i . b_row_j` with `a`
/// `(m, k)` and `b` `(n, k)`, both row-major.
///
/// Each contribution runs the dispatching [`dot`] kernel on two contiguous
/// rows — the exact per-element bits of [`gemm_nt_into`] — so
/// `gemm_nt_acc_into(out, ..)` is bit-identical to `gemm_nt_into(tmp, ..)`
/// followed by `out += tmp`, without the temporary. The analytic training
/// backward uses this for outer-product weight gradients (`d ⊗ x^T` is the
/// `k == 1` case) accumulated across timesteps.
pub fn gemm_nt_acc_into(out: &mut [f32], a: &[f32], m: usize, k: usize, b: &[f32], n: usize) {
    debug_assert_eq!(a.len(), m * k, "kernel::gemm_nt_acc: bad lhs length");
    debug_assert_eq!(b.len(), n * k, "kernel::gemm_nt_acc: bad rhs length");
    debug_assert_eq!(out.len(), m * n, "kernel::gemm_nt_acc: bad output length");
    if k == 1 {
        // Rank-1 outer product: a length-1 dot is `0.0 + a·b` (the
        // zero-seeded lane accumulator absorbs the product and the tree
        // reduce adds only `+0.0`s), so `(a·b) + 0.0` reproduces its bits
        // exactly — including the `-0.0 → +0.0` normalization — without a
        // kernel-dispatch call per output element. This path carries the
        // analytic backward's per-timestep weight gradients, where the
        // per-element `dot` overhead would dominate the whole sweep.
        for (av, out_row) in a.iter().zip(out.chunks_exact_mut(n.max(1))) {
            for (o, &bv) in out_row.iter_mut().zip(b.iter()) {
                *o += (av * bv) + 0.0;
            }
        }
        return;
    }
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (o, b_row) in out_row.iter_mut().zip(b.chunks_exact(k.max(1))) {
            *o += dot(a_row, b_row);
        }
    }
}

/// GEMM with transposed left operand: `out = a^T * b` with `a` `(k, m)`,
/// `b` `(k, n)`, without materializing the transpose.
///
/// One `LANES`-wide block of `a`'s columns contracted against column `j`
/// of `b`: `vals[ii] = sum_kk a[off + kk * stride + ii] * b[kk * n + j]`,
/// following the contract accumulation order. `stride` is `m` for a
/// strided view of the left operand or `LANES` for a packed slab.
#[inline]
#[allow(clippy::too_many_arguments)] // mirrors the raw-pointer AVX2 kernel signature
fn gemm_tn_block(
    vals: &mut [f32; LANES],
    a: &[f32],
    off: usize,
    stride: usize,
    b: &[f32],
    n: usize,
    j: usize,
    k: usize,
) {
    debug_assert!(k == 0 || off + (k - 1) * stride + LANES <= a.len());
    #[cfg(target_arch = "x86_64")]
    if avx2::available() {
        // SAFETY: AVX2 verified at runtime; the debug assertion above
        // states the in-bounds contract the callers uphold.
        #[allow(unsafe_code)]
        unsafe {
            avx2::gemm_tn_block(vals, a.as_ptr().add(off), stride, b, n, j, k);
        }
        return;
    }
    let chunks = k / LANES;
    let mut acc = [[0.0f32; LANES]; LANES];
    for c in 0..chunks {
        for (l, acc_l) in acc.iter_mut().enumerate() {
            let kk = c * LANES + l;
            let bv = b[kk * n + j];
            let base = off + kk * stride;
            let a_blk: &[f32; LANES] = a[base..base + LANES].try_into().unwrap();
            for ii in 0..LANES {
                acc_l[ii] += a_blk[ii] * bv;
            }
        }
    }
    for (l, kk) in (chunks * LANES..k).enumerate() {
        let bv = b[kk * n + j];
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

/// The final partial (`w < LANES`) block of `a`-column rows of
/// `out = a^T * b`; dynamic-width, same accumulation order.
fn gemm_tn_partial_rows(out: &mut [f32], a: &[f32], k: usize, m: usize, b: &[f32], n: usize) {
    let ib = m - m % LANES;
    if ib == m {
        return;
    }
    let w = m - ib;
    let chunks = k / LANES;
    for j in 0..n {
        let mut acc = [[0.0f32; LANES]; LANES];
        for c in 0..chunks {
            for (l, acc_l) in acc.iter_mut().enumerate() {
                let kk = c * LANES + l;
                let bv = b[kk * n + j];
                let a_blk = &a[kk * m + ib..kk * m + ib + w];
                for (ii, &av) in a_blk.iter().enumerate() {
                    acc_l[ii] += av * bv;
                }
            }
        }
        for (l, kk) in (chunks * LANES..k).enumerate() {
            let bv = b[kk * n + j];
            let a_blk = &a[kk * m + ib..kk * m + ib + w];
            for (ii, &av) in a_blk.iter().enumerate() {
                acc[l][ii] += av * bv;
            }
        }
        for ii in 0..w {
            out[(ib + ii) * n + j] = reduce(core::array::from_fn(|l| acc[l][ii]));
        }
    }
}

/// Transposed GEMV: `out = a^T * x` with `a` `(k, m)` row-major and `x` a
/// `k`-vector, without materializing the transpose.
///
/// The packed `gemm_tn` path is a pessimization here: packing gathers a
/// strided `LANES`-column slab of `a` that a single right-hand column then
/// uses exactly once, so the copy is pure overhead (it roughly doubles the
/// memory traffic and is the reason `matmul/tn/128x128x1` trailed
/// `matmul/nn` ~3×). Instead each `LANES`-wide block of `a`'s columns is
/// contracted directly from the strided operand — per row of `a` that is
/// one contiguous `LANES`-float load, so the walk streams `a` row-major
/// once per block. The accumulation order is the shared `gemm_tn_block`
/// tile (term `kk` in lane `kk % LANES`, tree `reduce`), so the bits are
/// identical to [`gemm_tn_into`]'s packed path and to [`gemm_into`] on a
/// materialized transpose.
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
/// assignment or `+=`). Full-width blocks run the shared
/// [`gemm_tn_block`] tile; the ragged tail replays
/// [`gemm_tn_partial_rows`]'s dynamic-width tile with `n == 1`, so element
/// bits are independent of which `store` is used.
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
        gemm_tn_block(&mut vals, a, ib, m, x, 1, 0, k);
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

/// The output is produced in `LANES`-wide blocks of `a`'s columns; for each
/// block the contraction walks `a` row-major (reading `LANES` consecutive
/// elements of each row), carrying the same `[k-lane][column]` register tile
/// as [`gemm_into`], so per-element bits match [`gemm_into`] on a
/// materialized transpose. Blocks are walked block-outer / column-inner so
/// one block's slab of `a` (`k * LANES` floats) stays cache-resident while
/// `b`'s columns stream past it; large strided slabs are packed contiguously
/// first, exactly as in [`gemm_into`]. The backward pass's `A^T * g` GEMV-T
/// (`n == 1`) dispatches to the dedicated [`gemv_t_into`], which never packs
/// (a single column reuses nothing, so packing is pure overhead).
pub fn gemm_tn_into(out: &mut [f32], a: &[f32], k: usize, m: usize, b: &[f32], n: usize) {
    debug_assert_eq!(a.len(), k * m, "kernel::gemm_tn: bad lhs length");
    debug_assert_eq!(b.len(), k * n, "kernel::gemm_tn: bad rhs length");
    debug_assert_eq!(out.len(), m * n, "kernel::gemm_tn: bad output length");
    if n == 1 {
        gemv_t_into(out, a, k, m, b);
        return;
    }
    let mut vals = [0.0f32; LANES];
    if k <= PACK_MAX_K && k * m >= PACK_MIN_ELEMS && m >= LANES {
        // Both operands are strided here (`a` by `m`, `b`'s broadcast
        // column walk by `n`), so both get packed: the `a` slab once per
        // row block, the `b` slab per column block inside it.
        let mut a_slab = [0.0f32; LANES * PACK_MAX_K];
        let mut b_slab = [0.0f32; LANES * PACK_MAX_K];
        let mut ib = 0;
        while ib + LANES <= m {
            for kk in 0..k {
                let src: &[f32; LANES] = a[kk * m + ib..kk * m + ib + LANES].try_into().unwrap();
                a_slab[kk * LANES..(kk + 1) * LANES].copy_from_slice(src);
            }
            let mut jb = 0;
            while jb + LANES <= n {
                for kk in 0..k {
                    let src: &[f32; LANES] =
                        b[kk * n + jb..kk * n + jb + LANES].try_into().unwrap();
                    b_slab[kk * LANES..(kk + 1) * LANES].copy_from_slice(src);
                }
                for g in 0..LANES {
                    gemm_tn_block(&mut vals, &a_slab, 0, LANES, &b_slab, LANES, g, k);
                    for (ii, &v) in vals.iter().enumerate() {
                        out[(ib + ii) * n + jb + g] = v;
                    }
                }
                jb += LANES;
            }
            for j in jb..n {
                gemm_tn_block(&mut vals, &a_slab, 0, LANES, b, n, j, k);
                for (ii, &v) in vals.iter().enumerate() {
                    out[(ib + ii) * n + j] = v;
                }
            }
            ib += LANES;
        }
    } else {
        let mut ib = 0;
        while ib + LANES <= m {
            for j in 0..n {
                gemm_tn_block(&mut vals, a, ib, m, b, n, j, k);
                for (ii, &v) in vals.iter().enumerate() {
                    out[(ib + ii) * n + j] = v;
                }
            }
            ib += LANES;
        }
    }
    gemm_tn_partial_rows(out, a, k, m, b, n);
}

/// Batched GEMV over packed per-item slabs: item `i` of `batch` computes
/// `out[i*rows .. (i+1)*rows] = a_i * x_i`, where `a_i` is the `i`-th
/// row-major `(rows, cols)` matrix in the contiguous weight slab `a` and
/// `x_i` the `i`-th `cols`-vector in the contiguous operand slab `x`.
///
/// This is the serving hot loop's entry point: one call advances a whole
/// shard of experts against their packed gate weights. Each item runs the
/// exact [`gemv_into`] dispatch (sparse / AVX2 / portable, decided per
/// item on its own operand vector), so every output element carries the
/// same bits as an unbatched call — the batch form buys the contiguous
/// slab layout and a single bounds-checked entry, not a different
/// accumulation order.
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

/// Batched GEMM over packed per-item slabs: item `i` of `batch` computes
/// `out_i = a_i * b_i` with `a_i` `(m, k)` and `b_i` `(k, n)`, all
/// row-major and packed contiguously per item.
///
/// Each item runs the exact [`gemm_into`] tile walk, so per-element bits
/// match the unbatched kernel; see [`gemv_batch_into`] for the contract
/// argument.
///
/// # Panics
///
/// Panics (in debug builds) on slab length mismatch.
pub fn gemm_batch_into(
    out: &mut [f32],
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    batch: usize,
) {
    debug_assert_eq!(a.len(), batch * m * k, "kernel::gemm_batch: bad lhs slab");
    debug_assert_eq!(b.len(), batch * k * n, "kernel::gemm_batch: bad rhs slab");
    debug_assert_eq!(out.len(), batch * m * n, "kernel::gemm_batch: bad output");
    for i in 0..batch {
        gemm_into(
            &mut out[i * m * n..(i + 1) * m * n],
            &a[i * m * k..(i + 1) * m * k],
            m,
            k,
            &b[i * k * n..(i + 1) * k * n],
            n,
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
            assert_eq!(dot(&a, &b).to_bits(), want.to_bits(), "n={n} dispatch");
            if let Some(v) = dot_avx2(&a, &b) {
                assert_eq!(v.to_bits(), want.to_bits(), "n={n} avx2");
            }
        }
    }

    #[test]
    fn sparse_dot_is_bit_identical_to_dense() {
        for n in [5, 16, 33, 100] {
            let a = ramp(n, |i| i as f32 * 0.25 - 4.0);
            let mut b = ramp(n, |i| (i as f32 * 0.4).sin());
            // Zero out most entries, including negative zeros.
            for (i, v) in b.iter_mut().enumerate() {
                if i % 5 != 0 {
                    *v = if i % 2 == 0 { 0.0 } else { -0.0 };
                }
            }
            assert_eq!(
                dot_sparse(&a, &b).to_bits(),
                dot_portable(&a, &b).to_bits(),
                "n={n}"
            );
        }
    }

    #[test]
    fn gemv_sparse_dispatch_matches_dense_bits() {
        let rows = 7;
        let cols = 40;
        let a = ramp(rows * cols, |i| (i as f32 * 0.01 - 1.0).tanh());
        let mut x = ramp(cols, |i| i as f32 - 17.0);
        for (i, v) in x.iter_mut().enumerate() {
            // Blocky sparsity: chunk 0 stays mixed (live and zero terms),
            // chunks 1..5 are entirely zero -> 4/5 chunks above the 3/4
            // dispatch threshold.
            if i >= LANES || i % 3 == 1 {
                *v = 0.0;
            }
        }
        assert!(sparse_worthwhile(&x));
        let mut sparse = vec![0.0f32; rows];
        gemv_into(&mut sparse, &a, rows, cols, &x);
        let dense: Vec<f32> = a.chunks_exact(cols).map(|r| dot_portable(r, &x)).collect();
        assert_eq!(
            sparse.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            dense.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn dense_vectors_stay_on_dense_path() {
        assert!(!sparse_worthwhile(&ramp(64, |i| i as f32 + 1.0)));
        // Short vectors never take the sparse path even when all-zero.
        assert!(!sparse_worthwhile(&[0.0; SPARSE_MIN_COLS - 1]));
        // Scattered zeros (7/8 elements zero but every chunk live) save
        // nothing at chunk granularity, so they must not dispatch either.
        let scattered = ramp(64, |i| if i % 8 == 0 { 1.0 } else { 0.0 });
        assert!(!sparse_worthwhile(&scattered));
        // Blocky zeros of the same density do.
        let blocky = ramp(64, |i| if i < LANES { 1.0 } else { 0.0 });
        assert!(sparse_worthwhile(&blocky));
    }

    #[test]
    fn gemm_matches_per_element_dot() {
        for (m, k, n) in [(1, 1, 1), (2, 3, 4), (7, 9, 11), (8, 16, 8), (5, 20, 13)] {
            let a = ramp(m * k, |i| (i as f32 * 0.3).sin() * 2.0);
            let b = ramp(k * n, |i| (i as f32 * 0.7).cos() - 0.2);
            let mut out = vec![0.0f32; m * n];
            gemm_into(&mut out, &a, m, k, &b, n);
            for i in 0..m {
                for j in 0..n {
                    let col: Vec<f32> = (0..k).map(|kk| b[kk * n + j]).collect();
                    let want = dot_reference(&a[i * k..(i + 1) * k], &col);
                    assert_eq!(
                        out[i * n + j].to_bits(),
                        want.to_bits(),
                        "({m},{k},{n}) at ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn gemv_t_matches_per_element_dot() {
        // Includes shapes that would (k*m >= PACK_MIN_ELEMS) and would not
        // have taken the packed gemm_tn path before the dedicated GEMV-T.
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
            // The gemm_tn entry point must dispatch to the same bits.
            let mut via_tn = vec![0.0f32; m];
            gemm_tn_into(&mut via_tn, &a, k, m, &x, 1);
            assert_eq!(
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                via_tn.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn gemv_batch_matches_unbatched_calls_bitwise() {
        // Mix of dense and blockily-zero operand vectors so different items
        // dispatch to different paths inside one batch.
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
    fn gemm_batch_matches_unbatched_calls_bitwise() {
        let (m, k, n, batch) = (4, 7, 5, 3);
        let a = ramp(batch * m * k, |i| (i as f32 * 0.11).sin() * 1.5);
        let b = ramp(batch * k * n, |i| (i as f32 * 0.07).cos() - 0.4);
        let mut batched = vec![0.0f32; batch * m * n];
        gemm_batch_into(&mut batched, &a, m, k, &b, n, batch);
        for i in 0..batch {
            let mut single = vec![0.0f32; m * n];
            gemm_into(
                &mut single,
                &a[i * m * k..(i + 1) * m * k],
                m,
                k,
                &b[i * k * n..(i + 1) * k * n],
                n,
            );
            assert_eq!(
                batched[i * m * n..(i + 1) * m * n]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                single.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "item {i}"
            );
        }
    }

    #[test]
    fn gemm_nt_matches_per_element_dot() {
        // Includes `n == 1` shapes, which dispatch to the dedicated GEMV
        // path, and `k == 1` outer products (the backward's weight grads).
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 2),
            (9, 7, 11),
            (16, 8, 1),
            (13, 20, 1),
            (5, 1, 7),
        ] {
            let a = ramp(m * k, |i| (i as f32 * 0.29).sin() + 0.2);
            let b = ramp(n * k, |i| (i as f32 * 0.17).cos() - 0.3);
            let mut out = vec![0.0f32; m * n];
            gemm_nt_into(&mut out, &a, m, k, &b, n);
            for i in 0..m {
                for j in 0..n {
                    let want = dot_reference(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
                    assert_eq!(
                        out[i * n + j].to_bits(),
                        want.to_bits(),
                        "({m},{k},{n}) at ({i},{j})"
                    );
                }
            }
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

    #[test]
    fn gemm_nt_acc_matches_set_then_add_bitwise() {
        for (m, k, n) in [(1, 1, 1), (3, 5, 2), (9, 7, 11), (16, 8, 1), (3, 1, 4)] {
            let a = ramp(m * k, |i| (i as f32 * 0.29).sin() + 0.2);
            let b = ramp(n * k, |i| (i as f32 * 0.17).cos() - 0.3);
            let mut set = vec![0.0f32; m * n];
            gemm_nt_into(&mut set, &a, m, k, &b, n);
            let mut acc = ramp(m * n, |i| (i as f32 * 0.41).cos() * 0.5);
            let want: Vec<u32> = acc
                .iter()
                .zip(set.iter())
                .map(|(&p, &v)| (p + v).to_bits())
                .collect();
            gemm_nt_acc_into(&mut acc, &a, m, k, &b, n);
            assert_eq!(
                acc.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want,
                "({m},{k},{n})"
            );
        }
    }

    #[test]
    fn gemm_tn_matches_per_element_dot() {
        for (m, k, n) in [(1, 1, 1), (3, 5, 2), (9, 7, 11), (16, 8, 1), (13, 20, 1)] {
            let a = ramp(k * m, |i| (i as f32 * 0.21).sin() + 0.4);
            let b = ramp(k * n, |i| (i as f32 * 0.13).cos() * 1.5);
            let mut out = vec![0.0f32; m * n];
            gemm_tn_into(&mut out, &a, k, m, &b, n);
            for i in 0..m {
                for j in 0..n {
                    let lhs: Vec<f32> = (0..k).map(|kk| a[kk * m + i]).collect();
                    let rhs: Vec<f32> = (0..k).map(|kk| b[kk * n + j]).collect();
                    let want = dot_reference(&lhs, &rhs);
                    assert_eq!(
                        out[i * n + j].to_bits(),
                        want.to_bits(),
                        "({m},{k},{n}) at ({i},{j})"
                    );
                }
            }
        }
    }
}
