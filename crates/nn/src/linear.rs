//! Fully connected layer.

use deeprest_tensor::{ParamId, ParamStore};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::init;

/// A fully connected layer `y = W·x + b`.
///
/// Holds parameter handles only: the values live in the [`ParamStore`] and
/// the forward runs on [`crate::ExpertSlab`], which packs them.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Linear {
    /// Weight matrix handle, shape `(out_dim, in_dim)`.
    pub w: ParamId,
    /// Bias vector handle, shape `(out_dim, 1)`.
    pub b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a Xavier-initialized layer in `store`.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut R,
    ) -> Self {
        let w = store.add(
            format!("{name}.w"),
            init::xavier_uniform(out_dim, in_dim, rng),
        );
        let b = store.add(format!("{name}.b"), init::zeros(out_dim, 1));
        Self {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deeprest_tape::{BoundLinear, Graph};
    use deeprest_tensor::Tensor;
    use rand::SeedableRng;

    #[test]
    fn forward_computes_affine_map() {
        let mut store = ParamStore::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let layer = Linear::new(&mut store, "l", 2, 3, &mut rng);
        // Overwrite with known values.
        *store.value_mut(layer.w) = Tensor::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        *store.value_mut(layer.b) = Tensor::vector(vec![0.5, -0.5, 0.0]);

        let mut g = Graph::new();
        let bound = BoundLinear::bind(&mut g, &store, layer.w, layer.b);
        let x = g.constant(Tensor::vector(vec![2.0, 3.0]));
        let y = bound.forward(&mut g, x);
        assert_eq!(g.value(y).data(), &[2.5, 2.5, 5.0]);
    }

    #[test]
    fn gradients_flow_to_both_params() {
        let mut store = ParamStore::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let layer = Linear::new(&mut store, "l", 2, 2, &mut rng);
        let mut g = Graph::new();
        let bound = BoundLinear::bind(&mut g, &store, layer.w, layer.b);
        let x = g.constant(Tensor::vector(vec![1.0, -1.0]));
        let y = bound.forward(&mut g, x);
        let l = g.sum_all(y);
        g.backward(l, &mut store);
        assert_eq!(store.grad(layer.w).data(), &[1.0, -1.0, 1.0, -1.0]);
        assert_eq!(store.grad(layer.b).data(), &[1.0, 1.0]);
    }

    #[test]
    fn reusing_binding_accumulates_weight_grads() {
        let mut store = ParamStore::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let layer = Linear::new(&mut store, "l", 1, 1, &mut rng);
        let mut g = Graph::new();
        let bound = BoundLinear::bind(&mut g, &store, layer.w, layer.b);
        let x1 = g.constant(Tensor::scalar(2.0));
        let x2 = g.constant(Tensor::scalar(5.0));
        let y1 = bound.forward(&mut g, x1);
        let y2 = bound.forward(&mut g, x2);
        let s = g.add(y1, y2);
        let l = g.sum_all(s);
        g.backward(l, &mut store);
        assert_eq!(store.grad(layer.w).data(), &[7.0]);
        assert_eq!(store.grad(layer.b).data(), &[2.0]);
    }
}
