//! Quantile-regression loss helpers (Eqs. 5-6 of the paper).

/// The three quantiles evaluated by each expert head for a confidence level
/// `delta` (Eq. 6): median, lower limit `(1-δ)/2` and upper limit
/// `δ + (1-δ)/2`.
///
/// # Panics
///
/// Panics unless `0 < delta < 1`.
pub fn quantiles_for(delta: f32) -> [f32; 3] {
    assert!(
        (0.0..1.0).contains(&delta) && delta > 0.0,
        "quantiles_for: delta must be in (0, 1), got {delta}"
    );
    [0.5, (1.0 - delta) / 2.0, delta + (1.0 - delta) / 2.0]
}

/// Modulated pinball subgradient `∂ℓ/∂ŷ` for residual `u = y - ŷ`:
/// `-q` below the target, `1-q` above it, scaled by a per-quantile
/// `modulation` factor (the online-adaptation gradient modulation of
/// arXiv 2508.01635 — down-weight the head that is currently over-fit).
///
/// `modulation = 1.0` is a *bitwise* identity (IEEE-754 `1.0·x = x`), so
/// offline training through this helper stays bit-identical to the
/// unmodulated pinball backward.
#[inline]
pub(crate) fn pinball_grad(u: f32, quantile: f32, modulation: f32) -> f32 {
    modulation * if u >= 0.0 { -quantile } else { 1.0 - quantile }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deeprest_tape::Graph;
    use deeprest_tensor::{ParamStore, Tensor};

    /// Scalar pinball loss value, the reference the gradients integrate.
    fn pinball_value(delta: f32, quantile: f32) -> f32 {
        if delta >= 0.0 {
            quantile * delta
        } else {
            (quantile - 1.0) * delta
        }
    }

    #[test]
    fn quantiles_match_paper_delta_090() {
        let q = quantiles_for(0.90);
        assert!((q[0] - 0.5).abs() < 1e-6);
        assert!((q[1] - 0.05).abs() < 1e-6);
        assert!((q[2] - 0.95).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "delta must be in (0, 1)")]
    fn quantiles_reject_bad_delta() {
        let _ = quantiles_for(1.5);
    }

    #[test]
    fn pinball_value_is_asymmetric() {
        // At q = 0.95, predicting *below* the target costs 19x more than
        // predicting the same amount above it.
        assert!((pinball_value(1.0, 0.95) - 0.95).abs() < 1e-6);
        assert!((pinball_value(-1.0, 0.95) - 0.05).abs() < 1e-6);
    }

    #[test]
    fn minimizing_quantile_loss_recovers_quantiles() {
        // Train three constants against samples drawn from {0, 1} with equal
        // probability: q05 → 0, q95 → 1.
        let mut store = ParamStore::new();
        let p = store.add("p", Tensor::vector(vec![0.5, 0.5, 0.5]));
        let mut opt = crate::Sgd::new(0.05, 0.0);
        let samples: Vec<f32> = (0..200)
            .map(|i| if i % 2 == 0 { 0.0 } else { 1.0 })
            .collect();
        for _ in 0..200 {
            store.zero_grads();
            let mut g = Graph::new();
            let pv = g.param(&store, p);
            let mut terms = Vec::new();
            for &s in &samples {
                terms.push(g.pinball_fill(pv, s, &quantiles_for(0.90)));
            }
            let total = g.add_n(&terms);
            let loss = g.scale(total, 1.0 / samples.len() as f32);
            g.backward(loss, &mut store);
            opt.step(&mut store);
        }
        let v = store.value(p).data();
        assert!(v[1] < 0.2, "q05 should approach 0, got {}", v[1]);
        assert!(v[2] > 0.8, "q95 should approach 1, got {}", v[2]);
    }

    #[test]
    fn crossed_quantile_heads_get_uncrossing_gradients() {
        // A crossed prediction: the lower head (q05) sits above the target
        // while the upper head (q95) sits below it. The pinball gradients
        // must push the lower head down and the upper head up — i.e.
        // training uncrosses the interval rather than locking the crossing.
        let mut store = ParamStore::new();
        let p = store.add("p", Tensor::vector(vec![0.5, 0.9, 0.1]));
        let mut g = Graph::new();
        let pv = g.param(&store, p);
        let l = g.pinball_fill(pv, 0.5, &quantiles_for(0.90));
        // Median head: u = 0 → 0. Lower: u = -0.4 → (0.05-1)(-0.4) = 0.38.
        // Upper: u = 0.4 → 0.95·0.4 = 0.38.
        assert!((g.value(l).data()[0] - 0.76).abs() < 1e-6);
        g.backward(l, &mut store);
        let grad = store.grad(p).data();
        assert!(grad[1] > 0.0, "lower head must be pushed down: {}", grad[1]);
        assert!(grad[2] < 0.0, "upper head must be pushed up: {}", grad[2]);
        assert!((grad[1] - 0.95).abs() < 1e-6);
        assert!((grad[2] + 0.95).abs() < 1e-6);
    }

    #[test]
    fn vanishing_delta_collapses_to_the_median() {
        // As δ → 0 the interval has zero width: all three quantiles are the
        // median, and the loss degenerates to the symmetric |u|/2 for every
        // head.
        let q = quantiles_for(f32::EPSILON);
        for &qi in &q {
            assert!((qi - 0.5).abs() < 1e-6, "expected collapsed median, {qi}");
        }
        assert!((pinball_value(0.8, q[1]) - 0.4).abs() < 1e-6);
        assert!((pinball_value(-0.8, q[2]) - 0.4).abs() < 1e-6);
    }

    #[test]
    fn all_zero_targets_use_the_upper_subgradient() {
        // pred == target == 0 everywhere: loss is exactly zero, and the
        // u = 0 tie breaks to the u ≥ 0 branch, giving d/dpred = -q per row.
        let mut store = ParamStore::new();
        let p = store.add("p", Tensor::vector(vec![0.0, 0.0, 0.0]));
        let mut g = Graph::new();
        let pv = g.param(&store, p);
        let l = g.pinball_fill(pv, 0.0, &quantiles_for(0.90));
        assert_eq!(g.value(l).data()[0], 0.0);
        g.backward(l, &mut store);
        // Expected −q per row, with q as the f32 arithmetic of
        // `quantiles_for` produces it (e.g. (1−0.9)/2 ≠ 0.05 exactly).
        for (grad, q) in store.grad(p).data().iter().zip(quantiles_for(0.90)) {
            assert!((grad + q).abs() < 1e-6, "grad {grad} for quantile {q}");
        }
    }

    #[test]
    fn gradient_sign_is_correct_for_every_quantile() {
        // Below the target (u > 0) the gradient is -q (pull the prediction
        // up); above it (u < 0) the gradient is 1-q (push it down). The
        // asymmetry ratio is what makes each head estimate its quantile.
        for &q in &[0.05f32, 0.5, 0.95] {
            let mut store = ParamStore::new();
            let under = store.add("under", Tensor::vector(vec![-1.0]));
            let over = store.add("over", Tensor::vector(vec![1.0]));
            let mut g = Graph::new();
            let pu = g.param(&store, under);
            let po = g.param(&store, over);
            let lu = g.pinball(pu, Tensor::vector(vec![0.0]), &[q]);
            let lo = g.pinball(po, Tensor::vector(vec![0.0]), &[q]);
            let total = g.add(lu, lo);
            g.backward(total, &mut store);
            assert_eq!(store.grad(under).data(), &[-q]);
            assert_eq!(store.grad(over).data(), &[1.0 - q]);
        }
    }

    #[test]
    fn pinball_grad_unit_modulation_is_bitwise_identity() {
        for &q in &[0.05f32, 0.5, 0.95] {
            for &u in &[-1.5f32, -1e-30, 0.0, 1e-30, 2.5] {
                let base = if u >= 0.0 { -q } else { 1.0 - q };
                assert_eq!(pinball_grad(u, q, 1.0).to_bits(), base.to_bits());
            }
        }
    }

    #[test]
    fn pinball_grad_modulation_scales_magnitude_not_sign() {
        let g_full = pinball_grad(1.0, 0.95, 1.0);
        let g_half = pinball_grad(1.0, 0.95, 0.5);
        assert_eq!(g_half, 0.5 * g_full);
        assert!(g_full < 0.0 && g_half < 0.0);
        let g_over = pinball_grad(-1.0, 0.95, 0.25);
        assert_eq!(g_over, 0.25 * (1.0 - 0.95));
    }
}
