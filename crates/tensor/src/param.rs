//! Trainable parameter storage shared across unrolled computation graphs.

use serde::{Deserialize, Serialize};

use crate::Tensor;

/// Opaque handle to a parameter inside a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Index of the parameter inside its store.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Owns trainable parameter tensors and their accumulated gradients.
///
/// Parameters persist for the lifetime of a model while everything a
/// training step computes is transient, so they live here: layers hold
/// [`ParamId`]s, a trainer writes gradients into the store and an optimizer
/// updates the values in place, one pass per tensor
/// ([`ParamStore::values_grads_mut`]).
///
/// Serialised, a store is its values and names; every trainer zeroes the
/// gradients before it reads them, so they are not written out and a
/// loaded store starts them at zero.
#[derive(Clone, Debug, Serialize)]
pub struct ParamStore {
    values: Vec<Tensor>,
    #[serde(skip)]
    grads: Vec<Tensor>,
    names: Vec<String>,
}

impl Deserialize for ParamStore {
    /// Reads the values and names (a `grads` key from an older file is
    /// skipped). Lists of different lengths are an error here, not an
    /// out-of-bounds index at the first training step.
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        #[derive(Deserialize)]
        struct Wire {
            values: Vec<Tensor>,
            names: Vec<String>,
        }
        let Wire { values, names } = Wire::from_value(value)?;
        if values.len() != names.len() {
            return Err(serde::Error::custom(format!(
                "ParamStore: {} values but {} names",
                values.len(),
                names.len()
            )));
        }
        let grads = values
            .iter()
            .map(|v| Tensor::zeros(v.rows(), v.cols()))
            .collect();
        Ok(Self {
            values,
            grads,
            names,
        })
    }
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self {
            values: Vec::new(),
            grads: Vec::new(),
            names: Vec::new(),
        }
    }

    /// Registers a parameter with a diagnostic `name`, returning its handle.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let id = ParamId(self.values.len());
        self.grads.push(Tensor::zeros(value.rows(), value.cols()));
        self.values.push(value);
        self.names.push(name.into());
        id
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalar values across all parameters.
    pub fn scalar_count(&self) -> usize {
        self.values.iter().map(Tensor::len).sum()
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.values[id.0]
    }

    /// Mutable value of a parameter (used by optimizers).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.values[id.0]
    }

    /// Accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.grads[id.0]
    }

    /// Mutable gradient of a parameter.
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.grads[id.0]
    }

    /// Diagnostic name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Iterates over all parameter handles.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.values.len()).map(ParamId)
    }

    /// Resets every gradient to zero.
    pub fn zero_grads(&mut self) {
        for g in &mut self.grads {
            g.fill_zero();
        }
    }

    /// Global L2 norm over all gradients.
    pub fn grad_norm(&self) -> f32 {
        global_norm(self.grads.iter().map(Tensor::norm))
    }

    /// [`grad_norm`](Self::grad_norm) with the per-tensor norms computed
    /// across `pool` into `norms` (one slot per parameter). The norms are
    /// summed in parameter order, so the result has the serial bits at any
    /// width.
    ///
    /// # Panics
    ///
    /// Panics if `norms` does not hold one slot per parameter.
    pub fn grad_norm_with(&self, pool: &crate::pool::Pool, norms: &mut [f32]) -> f32 {
        assert_eq!(
            norms.len(),
            self.grads.len(),
            "ParamStore::grad_norm_with: bad norms"
        );
        let grads = &self.grads;
        pool.for_each_mut(norms, |i, n| *n = grads[i].norm());
        global_norm(norms.iter().copied())
    }

    /// Mutable access to every accumulated gradient, in parameter order.
    ///
    /// Lets optimizers sanitize or rescale gradients in one pass without
    /// materializing a list of ids (which would allocate every step).
    pub fn grads_mut(&mut self) -> &mut [Tensor] {
        &mut self.grads
    }

    /// Scales all gradients so the global norm is at most `max_norm`.
    ///
    /// Returns the pre-clipping norm. This is the standard remedy for the
    /// exploding gradients recurrent networks are prone to.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for g in &mut self.grads {
                g.scale_assign(scale);
            }
        }
        norm
    }

    /// All accumulated gradients, indexed by [`ParamId::index`].
    pub fn grads(&self) -> &[Tensor] {
        &self.grads
    }

    /// Every value and every gradient, both in parameter order: what an
    /// optimizer's one pass per tensor writes.
    pub fn values_grads_mut(&mut self) -> (&mut [Tensor], &mut [Tensor]) {
        (&mut self.values, &mut self.grads)
    }
}

/// `sqrt(Σ n²)` over per-tensor norms, summed in the order given.
fn global_norm(norms: impl Iterator<Item = f32>) -> f32 {
    norms.map(|n| n * n).sum::<f32>().sqrt()
}

impl Default for ParamStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut s = ParamStore::new();
        let a = s.add("a", Tensor::vector(vec![1.0, 2.0]));
        let b = s.add("b", Tensor::scalar(3.0));
        assert_eq!(s.len(), 2);
        assert_eq!(s.scalar_count(), 3);
        assert_eq!(s.value(a).data(), &[1.0, 2.0]);
        assert_eq!(s.name(b), "b");
        assert_eq!(s.grad(a).data(), &[0.0, 0.0]);
    }

    #[test]
    fn zero_and_clip_grads() {
        let mut s = ParamStore::new();
        let a = s.add("a", Tensor::vector(vec![0.0, 0.0]));
        *s.grad_mut(a) = Tensor::vector(vec![3.0, 4.0]);
        assert_eq!(s.grad_norm(), 5.0);

        let pre = s.clip_grad_norm(1.0);
        assert_eq!(pre, 5.0);
        assert!((s.grad_norm() - 1.0).abs() < 1e-6);

        s.zero_grads();
        assert_eq!(s.grad(a).data(), &[0.0, 0.0]);
    }

    #[test]
    fn clip_leaves_small_grads_alone() {
        let mut s = ParamStore::new();
        let a = s.add("a", Tensor::scalar(0.0));
        *s.grad_mut(a) = Tensor::scalar(0.5);
        s.clip_grad_norm(1.0);
        assert_eq!(s.grad(a).data(), &[0.5]);
    }
}
