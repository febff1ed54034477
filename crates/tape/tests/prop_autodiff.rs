//! Property-based validation of the autodiff engine: analytic gradients of
//! randomly generated computation graphs must match central finite
//! differences, and the pinball loss must recover empirical quantiles.

use deeprest_tape::Graph;
use deeprest_tensor::{ParamStore, Tensor};
use proptest::prelude::*;

fn small_value() -> impl Strategy<Value = f32> {
    // Keep magnitudes moderate so finite differences stay well-conditioned.
    (-1.5f32..1.5).prop_map(|v| (v * 100.0).round() / 100.0)
}

fn vec_of(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(small_value(), len)
}

/// Builds `loss = mean((tanh(W·x) ⊙ σ(U·x) + 0.5·x)²)` — exercising matmul,
/// activations, Hadamard, scaling and reductions in one composite.
fn composite_loss(g: &mut Graph, store: &ParamStore, ids: &[deeprest_tensor::ParamId; 3]) -> f32 {
    let w = g.param(store, ids[0]);
    let u = g.param(store, ids[1]);
    let x = g.param(store, ids[2]);
    let wx = g.matmul(w, x);
    let th = g.tanh(wx);
    let ux = g.matmul(u, x);
    let sg = g.sigmoid(ux);
    let prod = g.mul(th, sg);
    let half_x = g.scale(x, 0.5);
    let s = g.add(prod, half_x);
    let sq = g.square(s);
    let loss = g.mean_all(sq);
    let v = g.value(loss).data()[0];
    g.backward(loss, &mut store.clone());
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn composite_gradients_match_finite_differences(
        w in vec_of(9),
        u in vec_of(9),
        x in vec_of(3),
    ) {
        let mut store = ParamStore::new();
        let ids = [
            store.add("w", Tensor::from_vec(3, 3, w)),
            store.add("u", Tensor::from_vec(3, 3, u)),
            store.add("x", Tensor::vector(x)),
        ];

        // Analytic gradients.
        let mut g = Graph::new();
        let wv = g.param(&store, ids[0]);
        let uv = g.param(&store, ids[1]);
        let xv = g.param(&store, ids[2]);
        let wx = g.matmul(wv, xv);
        let th = g.tanh(wx);
        let ux = g.matmul(uv, xv);
        let sg = g.sigmoid(ux);
        let prod = g.mul(th, sg);
        let half_x = g.scale(xv, 0.5);
        let s = g.add(prod, half_x);
        let sq = g.square(s);
        let loss = g.mean_all(sq);
        g.backward(loss, &mut store);

        // Numeric gradients via central differences on every parameter.
        let eps = 1e-3f32;
        for &id in &ids {
            let len = store.value(id).len();
            for i in 0..len {
                let mut plus = store.clone();
                plus.value_mut(id).data_mut()[i] += eps;
                let mut minus = store.clone();
                minus.value_mut(id).data_mut()[i] -= eps;
                let f = |s: &ParamStore| {
                    let mut g = Graph::new();
                    composite_loss(&mut g, s, &ids)
                };
                let numeric = (f(&plus) - f(&minus)) / (2.0 * eps);
                let analytic = store.grad(id).data()[i];
                prop_assert!(
                    (analytic - numeric).abs() <= 2e-2 * (1.0 + numeric.abs()),
                    "param {} elem {i}: analytic {analytic} vs numeric {numeric}",
                    store.name(id)
                );
            }
        }
    }

    #[test]
    fn pinball_sgd_recovers_the_requested_quantile(
        samples in proptest::collection::vec(0.0f32..1.0, 60..120),
        q_idx in 0usize..3,
    ) {
        let q = [0.25f32, 0.5, 0.9][q_idx];
        let mut store = ParamStore::new();
        let p = store.add("p", Tensor::scalar(0.5));
        for _ in 0..400 {
            store.zero_grads();
            let mut g = Graph::new();
            let pv = g.param(&store, p);
            let mut terms = Vec::new();
            for &s in &samples {
                terms.push(g.pinball(pv, Tensor::scalar(s), &[q]));
            }
            let total = g.add_n(&terms);
            let loss = g.scale(total, 1.0 / samples.len() as f32);
            g.backward(loss, &mut store);
            let grad = store.grad(p).data()[0];
            store.value_mut(p).data_mut()[0] -= 0.02 * grad;
        }
        let estimate = store.value(p).data()[0];
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let target = sorted[((q as f64) * (sorted.len() - 1) as f64) as usize];
        prop_assert!(
            (estimate - target).abs() < 0.15,
            "q={q}: estimate {estimate} vs empirical quantile {target}"
        );
    }

    #[test]
    fn matmul_matches_reference_implementation(
        a in vec_of(12),
        b in vec_of(20),
    ) {
        let mut g = Graph::new();
        let ta = g.constant(Tensor::from_vec(3, 4, a.clone()));
        let tb = g.constant(Tensor::from_vec(4, 5, b.clone()));
        let product = g.matmul(ta, tb);
        let c = g.value(product);
        for i in 0..3 {
            for j in 0..5 {
                let expected: f32 = (0..4).map(|k| a[i * 4 + k] * b[k * 5 + j]).sum();
                prop_assert!((c.get(i, j) - expected).abs() < 1e-4);
            }
        }
    }
}
