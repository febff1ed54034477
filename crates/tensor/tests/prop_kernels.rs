//! Property-based proof of the kernel layer's bit-identity contract.
//!
//! Every dispatch path of the lane-blocked kernels — portable
//! autovectorized and explicit AVX2, and the support-driven transposed GEMV
//! whatever terms it leaves out — must produce *identical bits* for the same
//! finite operands, across randomized shapes including ragged tails
//! (`len % LANES != 0`) and zero-laden inputs (both `+0.0` and `-0.0`). This
//! is what lets the GEMV/GEMM dispatchers pick a path per call without ever
//! perturbing training, and what keeps `crates/core/tests/determinism.rs`
//! honest on AVX2 hardware.

use deeprest_tensor::kernel::{
    dot_avx2, dot_portable, gemm_into, gemv_batch_into, gemv_into, gemv_t_acc_into,
    gemv_t_batch_into, gemv_t_into, gemv_t_support_portable, outer_acc_steps_into,
    outer_acc_steps_portable, Support,
};
use proptest::prelude::*;

/// Finite values with a heavy dose of exact zeros of both signs, so the
/// signed-zero argument is exercised constantly.
fn zero_laden() -> impl Strategy<Value = f32> {
    prop_oneof![Just(0.0f32), Just(-0.0f32), Just(0.0f32), -4.0f32..4.0,]
}

/// Count-vector-like operands for the support kernel: mostly exact zeros of
/// both signs, a few denormals (non-zero, so they belong to the support),
/// the rest ordinary values.
fn mostly_zero() -> impl Strategy<Value = f32> {
    prop_oneof![
        Just(0.0f32),
        Just(-0.0f32),
        Just(0.0f32),
        Just(0.0f32),
        Just(1.0e-41f32),
        Just(-f32::MIN_POSITIVE / 2.0),
        -4.0f32..4.0,
    ]
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Same-length operand pairs with lengths sweeping well past several
/// `LANES` boundaries, tails included.
fn operand_pairs() -> impl Strategy<Value = Vec<(f32, f32)>> {
    proptest::collection::vec((zero_laden(), zero_laden()), 0..=70usize)
}

fn split(pairs: Vec<(f32, f32)>) -> (Vec<f32>, Vec<f32>) {
    pairs.into_iter().unzip()
}

/// The row-major `(cols, rows)` transpose of a row-major `(rows, cols)`
/// matrix.
fn transpose(a: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    (0..cols * rows)
        .map(|i| a[(i % rows) * cols + i / rows])
        .collect()
}

/// Asserts `gemm_into`'s `(m, k) · (k, n)` product, element by element,
/// equal to `dot_portable` of row `i` of `a` and column `j` of `b`.
fn assert_gemm_is_per_element_dot(a: &[f32], m: usize, k: usize, b: &[f32], n: usize) {
    let mut out = vec![f32::NAN; m * n];
    gemm_into(&mut out, a, m, k, b, n);
    let bt = transpose(b, k, n); // (n, k): column j of `b` is row j
    for i in 0..m {
        for j in 0..n {
            let want = dot_portable(&a[i * k..(i + 1) * k], &bt[j * k..(j + 1) * k]);
            assert_eq!(
                out[i * n + j].to_bits(),
                want.to_bits(),
                "({m}, {k}, {n}) at ({i}, {j})"
            );
        }
    }
}

/// One shape past `PACK_MIN_ELEMS` (`k * n >= 64 * 64`, `n >= LANES`), so
/// `gemm_into` packs its column slabs, with ragged `k` and `n` and signed
/// zeros in both operands.
#[test]
fn packed_gemm_matches_per_element_dot() {
    let (m, k, n) = (5, 67, 70);
    let value = |i: usize| match i % 5 {
        0 => 0.0,
        1 => -0.0,
        _ => ((i * 37) % 11) as f32 * 0.3 - 1.5,
    };
    let a: Vec<f32> = (0..m * k).map(value).collect();
    let b: Vec<f32> = (0..k * n).map(|i| value(i + 3)).collect();
    assert_gemm_is_per_element_dot(&a, m, k, &b, n);
}

/// `steps` rank-1 updates of the row-major `(m, n)` matrix `prior`,
/// `t = steps − 1` down to `0`: each adds the `k = 1` [`gemm_into`] of
/// `a_t = a[t * lda..][..m]` and `b_t = b[t * n..][..n]` element by element.
fn successive_rank_one(
    prior: &[f32],
    a: &[f32],
    lda: usize,
    b: &[f32],
    n: usize,
    steps: usize,
) -> Vec<f32> {
    let m = prior.len() / n;
    let mut out = prior.to_vec();
    let mut product = vec![0.0f32; m * n];
    for t in (0..steps).rev() {
        gemm_into(&mut product, &a[t * lda..][..m], m, 1, &b[t * n..][..n], n);
        for (o, &p) in out.iter_mut().zip(&product) {
            *o += p;
        }
    }
    out
}

/// The rank-`T` update against successive rank-1 updates where a NaN and
/// an infinity enter: a full tile and a ragged edge, `T = 3`, a NaN in one
/// step's left operand, `±∞` in another's right operand, and an `∞ · 0`
/// product.
#[test]
fn outer_acc_steps_propagates_non_finite_values_like_rank_one_updates() {
    let (m, n, steps) = (6, 11, 3);
    let mut a: Vec<f32> = (0..steps * m).map(|i| (i % 5) as f32 * 0.5 - 1.0).collect();
    let mut b: Vec<f32> = (0..steps * n)
        .map(|i| (i % 7) as f32 * 0.25 - 0.75)
        .collect();
    a[m + 2] = f32::NAN;
    b[2 * n + 9] = f32::INFINITY;
    b[2 * n + 3] = f32::NEG_INFINITY;
    a[2 * m] = 0.0;
    let prior: Vec<f32> = (0..m * n).map(|i| (i % 3) as f32 - 1.0).collect();
    let want = successive_rank_one(&prior, &a, m, &b, n, steps);
    let mut portable = prior.clone();
    outer_acc_steps_portable(&mut portable, &a, m, &b, steps);
    let mut got = prior;
    outer_acc_steps_into(&mut got, &a, m, &b, steps);
    assert!(want.iter().any(|v| v.is_nan()) && want.iter().any(|v| v.is_infinite()));
    assert_eq!(bits(&got), bits(&want));
    assert_eq!(bits(&got), bits(&portable));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn avx2_dot_is_bit_identical_to_portable(pairs in operand_pairs()) {
        let (a, b) = split(pairs);
        let want = dot_portable(&a, &b);
        if let Some(got) = dot_avx2(&a, &b) {
            prop_assert_eq!(
                got.to_bits(), want.to_bits(),
                "len {}: avx2 {} vs portable {}", a.len(), got, want
            );
        }
    }

    #[test]
    fn gemv_dispatch_never_changes_bits(
        rows in 1usize..9,
        cols in 1usize..41,
        seed in proptest::collection::vec(zero_laden(), 41 * 9 + 41),
    ) {
        // Carve the matrix and vector out of one generated pool so the
        // shapes stay independent of the value stream.
        let a: Vec<f32> = seed[..rows * cols].to_vec();
        let x: Vec<f32> = seed[seed.len() - cols..].to_vec();
        let mut out = vec![0.0f32; rows];
        gemv_into(&mut out, &a, rows, cols, &x);
        for (i, (o, row)) in out.iter().zip(a.chunks_exact(cols)).enumerate() {
            prop_assert_eq!(
                o.to_bits(),
                dot_portable(row, &x).to_bits(),
                "row {} of ({}, {})", i, rows, cols
            );
        }
    }

    /// Every element of `gemm_into` is the contract dot of its row and
    /// column — for `k = 1` outer products, `n = 1` columns, ragged sizes
    /// on both sides of a `LANES`-wide column block, and zero-laden
    /// operands. A product on a materialised transpose is one more such
    /// `gemm_into`, so this is also what the tape's backward rests on.
    #[test]
    fn gemm_matches_per_element_dot(
        m in 1usize..7,
        k in 1usize..25,
        n in 1usize..21,
        seed in proptest::collection::vec(zero_laden(), 7 * 25 + 25 * 21),
    ) {
        let a: Vec<f32> = seed[..m * k].to_vec();
        let b: Vec<f32> = seed[seed.len() - k * n..].to_vec();
        assert_gemm_is_per_element_dot(&a, m, k, &b, n);
    }

    /// One rank-`T` update is, bit for bit, `T` successive rank-1 updates
    /// `t`-descending, each adding to every element what a `k = 1`
    /// `gemm_into` computes for it (`(a·b) + 0.0`) — for `T = 1` up, `m`
    /// and `n` ragged against the `4 × 8` tile, `a_t` a column range of a
    /// wider row, zero-laden operands of both signs, and a prior `out` that
    /// holds no `-0.0` (the arenas the trainer zero-fills). The dispatching
    /// entry (AVX2 where the CPU has it) equals the portable one.
    #[test]
    fn outer_acc_steps_matches_successive_rank_one_gemms(
        m in 1usize..14,
        n in 1usize..21,
        pad in 0usize..3,
        steps in 1usize..7,
        seed in proptest::collection::vec(zero_laden(), 6 * 16 + 6 * 20 + 13 * 20),
    ) {
        let lda = m + pad;
        let a: Vec<f32> = seed[..steps * lda].to_vec();
        let b: Vec<f32> = seed[96..96 + steps * n].to_vec();
        let prior: Vec<f32> = seed[seed.len() - m * n..]
            .iter()
            .map(|&v| if v == 0.0 { 0.0 } else { v })
            .collect();
        let want = successive_rank_one(&prior, &a, lda, &b, n, steps);
        let mut portable = prior.clone();
        outer_acc_steps_portable(&mut portable, &a, lda, &b, steps);
        let mut got = prior;
        outer_acc_steps_into(&mut got, &a, lda, &b, steps);
        let tag = format!("({m}, {n}) lda {lda} T {steps}");
        prop_assert_eq!(bits(&got), bits(&want), "{} vs rank-1 updates", &tag);
        prop_assert_eq!(bits(&got), bits(&portable), "{} vs portable", &tag);
    }

    #[test]
    fn gemv_t_matches_per_column_dot(
        k in 1usize..25,
        m in 1usize..35,
        seed in proptest::collection::vec(zero_laden(), 25 * 35 + 25),
    ) {
        let a: Vec<f32> = seed[..k * m].to_vec(); // (k, m)
        let x: Vec<f32> = seed[seed.len() - k..].to_vec();
        let mut out = vec![0.0f32; m];
        gemv_t_into(&mut out, &a, k, m, &x);
        for i in 0..m {
            let col: Vec<f32> = (0..k).map(|kk| a[kk * m + i]).collect();
            prop_assert_eq!(
                out[i].to_bits(),
                dot_portable(&col, &x).to_bits(),
                "({}, {}) at {}", k, m, i
            );
        }
    }

    #[test]
    fn gemv_batch_matches_unbatched_bits(
        rows in 1usize..7,
        cols in 1usize..25,
        batch in 1usize..6,
        seed in proptest::collection::vec(zero_laden(), 6 * (7 * 25 + 25)),
    ) {
        let mat = rows * cols;
        let a: Vec<f32> = seed[..batch * mat].to_vec();
        let x: Vec<f32> = seed[seed.len() - batch * cols..].to_vec();
        let mut batched = vec![0.0f32; batch * rows];
        gemv_batch_into(&mut batched, &a, rows, cols, &x, batch);
        for i in 0..batch {
            let mut single = vec![0.0f32; rows];
            gemv_into(
                &mut single,
                &a[i * mat..(i + 1) * mat],
                rows,
                cols,
                &x[i * cols..(i + 1) * cols],
            );
            prop_assert_eq!(
                batched[i * rows..(i + 1) * rows]
                    .iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                single.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "item {} of ({}, {}, {})", i, rows, cols, batch
            );
        }
    }

    #[test]
    fn gemv_t_acc_matches_set_then_add(
        k in 1usize..25,
        m in 1usize..35,
        seed in proptest::collection::vec(zero_laden(), 25 * 35 + 25 + 35),
    ) {
        let a: Vec<f32> = seed[..k * m].to_vec(); // (k, m)
        let x: Vec<f32> = seed[k * m..k * m + k].to_vec();
        let prior: Vec<f32> = seed[seed.len() - m..].to_vec();
        let mut set = vec![0.0f32; m];
        gemv_t_into(&mut set, &a, k, m, &x);
        let want: Vec<u32> = prior
            .iter()
            .zip(set.iter())
            .map(|(&p, &v)| (p + v).to_bits())
            .collect();
        let mut acc = prior;
        gemv_t_acc_into(&mut acc, &a, k, m, &x);
        prop_assert_eq!(
            acc.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want,
            "({}, {})", k, m
        );
    }

    /// The support-driven transposed GEMV over an input-major `(k, m)`
    /// matrix is, bit for bit, the row-major GEMV on the materialised
    /// transpose — for ragged `k` and `m`, signed zeros and denormals in
    /// `x`, and any support between the non-zeros of `x` and all of `0..k`
    /// (`cover` 0: `x` zeroed and nothing in it; 1: exactly the non-zeros;
    /// 2: every column; 3: a random superset). The dispatching entry equals
    /// its portable form, one batched call equals one call per item, and no
    /// support at all is the full walk.
    #[test]
    fn support_gemv_t_matches_gemv_on_materialized_transpose(
        k in 1usize..41,
        m in 1usize..29,
        batch in 1usize..4,
        cover in 0usize..4,
        weights in proptest::collection::vec(zero_laden(), 3 * 40 * 28),
        operands in proptest::collection::vec(mostly_zero(), 3 * 40),
        extra in proptest::collection::vec(0u8..2, 40),
    ) {
        let a: Vec<f32> = weights[..batch * k * m].to_vec(); // batch × (k, m)
        let mut x: Vec<f32> = operands[..batch * k].to_vec();
        if cover == 0 {
            x.fill(0.0);
        }
        // One support for the whole batch, filled from a vector that is
        // non-zero wherever any item is — and, to widen it, elsewhere.
        let live = |kk: usize| (0..batch).any(|i| x[i * k + kk] != 0.0);
        let covered: Vec<f32> = (0..k)
            .map(|kk| live(kk) || cover == 2 || (cover == 3 && extra[kk] == 1))
            .map(|listed| if listed { 1.0 } else { 0.0 })
            .collect();
        let mut support = Support::with_capacity(k);
        support.fill(&covered);
        prop_assert_eq!(support.dim(), k);
        prop_assert_eq!(support.nnz(), covered.iter().filter(|&&v| v != 0.0).count());

        let mut batched = vec![f32::NAN; batch * m];
        gemv_t_batch_into(&mut batched, &a, k, m, &x, Some(&support), batch);
        let mut dense = vec![f32::NAN; batch * m];
        gemv_t_batch_into(&mut dense, &a, k, m, &x, None, batch);
        prop_assert_eq!(bits(&batched), bits(&dense), "support {:?} vs none", &support);

        for i in 0..batch {
            let (a_i, x_i) = (&a[i * k * m..(i + 1) * k * m], &x[i * k..(i + 1) * k]);
            let got = bits(&batched[i * m..(i + 1) * m]);
            let tag = format!("item {i} of ({k}, {m}, {batch}), {support:?}");

            let at = transpose(a_i, k, m); // (m, k)
            let mut want = vec![f32::NAN; m];
            gemv_into(&mut want, &at, m, k, x_i);
            prop_assert_eq!(&got, &bits(&want), "{} vs row-major", &tag);

            let mut portable = vec![f32::NAN; m];
            gemv_t_support_portable(&mut portable, a_i, k, m, x_i, &support);
            prop_assert_eq!(&got, &bits(&portable), "{} vs portable", &tag);

            let mut single = vec![f32::NAN; m];
            gemv_t_batch_into(&mut single, a_i, k, m, x_i, Some(&support), 1);
            prop_assert_eq!(&got, &bits(&single), "{} vs unbatched", &tag);
        }
    }
}
