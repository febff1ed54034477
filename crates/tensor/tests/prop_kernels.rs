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
    self, dot_avx2, dot_portable, gemm_batch_into, gemm_into, gemm_nt_acc_into, gemm_nt_into,
    gemm_tn_into, gemv_batch_into, gemv_into, gemv_t_acc_into, gemv_t_batch_into, gemv_t_into,
    gemv_t_support_portable, Support,
};
use deeprest_tensor::Tensor;
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
        // The public dispatcher must agree with whichever path it picked.
        prop_assert_eq!(kernel::dot(&a, &b).to_bits(), want.to_bits());
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

    #[test]
    fn gemm_nt_matches_gemm_on_materialized_transpose(
        m in 1usize..7,
        k in 1usize..19,
        n in 1usize..7,
        seed in proptest::collection::vec(zero_laden(), 7 * 19 + 19 * 7),
    ) {
        let a: Vec<f32> = seed[..m * k].to_vec();
        let b: Vec<f32> = seed[seed.len() - n * k..].to_vec(); // (n, k)
        let bt = Tensor::from_vec(n, k, b.clone()).transpose(); // (k, n)
        let mut direct = vec![0.0f32; m * n];
        gemm_nt_into(&mut direct, &a, m, k, &b, n);
        let mut via_t = vec![0.0f32; m * n];
        gemm_into(&mut via_t, &a, m, k, bt.data(), n);
        prop_assert_eq!(
            direct.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            via_t.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "({}, {}, {})", m, k, n
        );
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
        // The gemm_tn entry point with n == 1 must dispatch here bit-exactly.
        let mut via_tn = vec![0.0f32; m];
        gemm_tn_into(&mut via_tn, &a, k, m, &x, 1);
        prop_assert_eq!(
            out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            via_tn.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
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
    fn gemm_batch_matches_unbatched_bits(
        m in 1usize..5,
        k in 1usize..9,
        n in 1usize..5,
        batch in 1usize..4,
        seed in proptest::collection::vec(zero_laden(), 4 * (5 * 9 + 9 * 5)),
    ) {
        let a: Vec<f32> = seed[..batch * m * k].to_vec();
        let b: Vec<f32> = seed[seed.len() - batch * k * n..].to_vec();
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
            prop_assert_eq!(
                batched[i * m * n..(i + 1) * m * n]
                    .iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                single.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "item {} of ({}, {}, {}, {})", i, m, k, n, batch
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

    #[test]
    fn gemm_nt_acc_matches_set_then_add(
        m in 1usize..7,
        k in 1usize..19,
        n in 1usize..7,
        seed in proptest::collection::vec(zero_laden(), 7 * 19 + 19 * 7 + 7 * 7),
    ) {
        let a: Vec<f32> = seed[..m * k].to_vec();
        let b: Vec<f32> = seed[m * k..m * k + n * k].to_vec(); // (n, k)
        let prior: Vec<f32> = seed[seed.len() - m * n..].to_vec();
        let mut set = vec![0.0f32; m * n];
        gemm_nt_into(&mut set, &a, m, k, &b, n);
        let want: Vec<u32> = prior
            .iter()
            .zip(set.iter())
            .map(|(&p, &v)| (p + v).to_bits())
            .collect();
        let mut acc = prior;
        gemm_nt_acc_into(&mut acc, &a, m, k, &b, n);
        prop_assert_eq!(
            acc.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want,
            "({}, {}, {})", m, k, n
        );
    }

    #[test]
    fn gemm_tn_matches_gemm_on_materialized_transpose(
        m in 1usize..7,
        k in 1usize..19,
        n in 1usize..7,
        seed in proptest::collection::vec(zero_laden(), 19 * 7 + 19 * 7),
    ) {
        let a: Vec<f32> = seed[..k * m].to_vec(); // (k, m)
        let b: Vec<f32> = seed[seed.len() - k * n..].to_vec(); // (k, n)
        let at = Tensor::from_vec(k, m, a.clone()).transpose(); // (m, k)
        let mut direct = vec![0.0f32; m * n];
        gemm_tn_into(&mut direct, &a, k, m, &b, n);
        let mut via_t = vec![0.0f32; m * n];
        gemm_into(&mut via_t, at.data(), m, k, &b, n);
        prop_assert_eq!(
            direct.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            via_t.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "({}, {}, {})", m, k, n
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

            let at = Tensor::from_vec(k, m, a_i.to_vec()).transpose(); // (m, k)
            let mut want = vec![f32::NAN; m];
            gemv_into(&mut want, at.data(), m, k, x_i);
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
