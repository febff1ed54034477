//! Gated recurrent unit following Eq. 2 of the paper.

use deeprest_tensor::{ParamId, ParamStore};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::init;

/// A GRU cell with the paper's exact formulation (Eq. 2):
///
/// ```text
/// z_t = σ(W_z·x̃_t + U_z·h_{t-1} + b_z)         (update gate)
/// k_t = σ(W_k·x̃_t + U_k·h_{t-1} + b_k)         (reset gate)
/// h̃_t = tanh(W_h·x̃_t + U_h·(k_t ⊙ h_{t-1}) + b_h)
/// h_t = z_t ⊙ h_{t-1} + (1 - z_t) ⊙ h̃_t
/// ```
///
/// Holds parameter handles only: the recurrence itself runs packed, for a
/// whole range of experts at once, in [`crate::ExpertSlab::step_range`].
///
/// The `U` matrices and biases are independent of the input feature space —
/// the paper calls them the "application-independent part" and uses them for
/// the transfer-learning analysis of Fig. 21; see
/// [`GruCell::application_independent_params`].
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct GruCell {
    /// Update-gate input weights `W_z`, shape `(hidden, input)`.
    pub wz: ParamId,
    /// Update-gate recurrent weights `U_z`, shape `(hidden, hidden)`.
    pub uz: ParamId,
    /// Update-gate bias `b_z`.
    pub bz: ParamId,
    /// Reset-gate input weights `W_k`.
    pub wk: ParamId,
    /// Reset-gate recurrent weights `U_k`.
    pub uk: ParamId,
    /// Reset-gate bias `b_k`.
    pub bk: ParamId,
    /// Candidate input weights `W_h`.
    pub wh: ParamId,
    /// Candidate recurrent weights `U_h`.
    pub uh: ParamId,
    /// Candidate bias `b_h`.
    pub bh: ParamId,
    input_dim: usize,
    hidden_dim: usize,
}

impl GruCell {
    /// Registers a Xavier-initialized GRU cell in `store`.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        input_dim: usize,
        hidden_dim: usize,
        rng: &mut R,
    ) -> Self {
        let mut w = |suffix: &str| {
            store.add(
                format!("{name}.w{suffix}"),
                init::xavier_uniform(hidden_dim, input_dim, rng),
            )
        };
        let wz = w("z");
        let wk = w("k");
        let wh = w("h");
        let mut u = |suffix: &str| {
            store.add(
                format!("{name}.u{suffix}"),
                init::xavier_uniform(hidden_dim, hidden_dim, rng),
            )
        };
        let uz = u("z");
        let uk = u("k");
        let uh = u("h");
        let mut b =
            |suffix: &str| store.add(format!("{name}.b{suffix}"), init::zeros(hidden_dim, 1));
        let bz = b("z");
        let bk = b("k");
        let bh = b("h");
        Self {
            wz,
            uz,
            bz,
            wk,
            uk,
            bk,
            wh,
            uh,
            bh,
            input_dim,
            hidden_dim,
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden-state dimensionality.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Handles of the input-independent parameters (`U_*`, `b_*`), i.e. the
    /// part whose shape does not depend on the application's feature space.
    pub fn application_independent_params(&self) -> [ParamId; 6] {
        [self.uz, self.uk, self.uh, self.bz, self.bk, self.bh]
    }

    /// All nine parameter handles, gate by gate:
    /// `[W_z, U_z, b_z, W_k, U_k, b_k, W_h, U_h, b_h]`.
    pub fn param_ids(&self) -> [ParamId; 9] {
        [
            self.wz, self.uz, self.bz, self.wk, self.uk, self.bk, self.wh, self.uh, self.bh,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deeprest_tape::{BoundGruCell, Graph};
    use deeprest_tensor::Tensor;
    use rand::SeedableRng;

    fn cell(input: usize, hidden: usize) -> (ParamStore, GruCell) {
        let mut store = ParamStore::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let cell = GruCell::new(&mut store, "g", input, hidden, &mut rng);
        (store, cell)
    }

    #[test]
    fn hidden_state_stays_bounded() {
        let (store, cell) = cell(3, 4);
        let mut g = Graph::new();
        let bound = BoundGruCell::bind(&mut g, &store, cell.param_ids());
        let mut h = g.constant(Tensor::zeros(4, 1));
        for t in 0..50 {
            let x = g.constant(Tensor::vector(vec![t as f32, 1.0, -1.0]));
            h = bound.step(&mut g, x, h);
        }
        // h is a convex combination of h_prev and tanh output, so |h| ≤ 1.
        assert!(g.value(h).data().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn zero_input_zero_state_is_fixed_by_biases_only() {
        let (store, cell) = cell(2, 3);
        let mut g = Graph::new();
        let bound = BoundGruCell::bind(&mut g, &store, cell.param_ids());
        let h0 = g.constant(Tensor::zeros(3, 1));
        let x = g.constant(Tensor::zeros(2, 1));
        let h1 = bound.step(&mut g, x, h0);
        // With zero biases (the default init), tanh(0) = 0 so h stays 0.
        assert!(g.value(h1).data().iter().all(|v| v.abs() < 1e-6));
    }

    #[test]
    fn gradients_reach_all_nine_parameters() {
        let (mut store, cell) = cell(2, 3);
        let mut g = Graph::new();
        let bound = BoundGruCell::bind(&mut g, &store, cell.param_ids());
        let mut h = g.constant(Tensor::zeros(3, 1));
        for _ in 0..3 {
            let x = g.constant(Tensor::vector(vec![1.0, -0.5]));
            h = bound.step(&mut g, x, h);
        }
        let sq = g.square(h);
        let l = g.sum_all(sq);
        g.backward(l, &mut store);
        for id in cell.param_ids() {
            assert!(
                store.grad(id).norm() > 0.0,
                "no gradient for {}",
                store.name(id)
            );
        }
    }

    #[test]
    fn memory_retention_with_saturated_update_gate() {
        // Force z ≈ 1 via a huge positive bias: h_t ≈ h_{t-1} (pure memory).
        let (mut store, cell) = cell(1, 2);
        *store.value_mut(cell.bz) = Tensor::vector(vec![50.0, 50.0]);
        let mut g = Graph::new();
        let bound = BoundGruCell::bind(&mut g, &store, cell.param_ids());
        let mut h = g.constant(Tensor::vector(vec![0.7, -0.3]));
        for _ in 0..10 {
            let x = g.constant(Tensor::vector(vec![5.0]));
            h = bound.step(&mut g, x, h);
        }
        let out = g.value(h);
        assert!((out.data()[0] - 0.7).abs() < 1e-3);
        assert!((out.data()[1] + 0.3).abs() < 1e-3);
    }

    #[test]
    fn application_independent_part_excludes_input_weights() {
        let (_, cell) = cell(5, 4);
        let indep = cell.application_independent_params();
        assert!(!indep.contains(&cell.wz));
        assert!(!indep.contains(&cell.wk));
        assert!(!indep.contains(&cell.wh));
        assert!(indep.contains(&cell.uh));
    }
}
