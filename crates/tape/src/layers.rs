//! The estimator's two layers written op by op on the tape. They take
//! [`ParamId`]s rather than `deeprest-nn`'s layer structs, so that crate's
//! own unit tests can use them.

use deeprest_tensor::{ParamId, ParamStore};

use crate::{Graph, Var};

/// A GRU cell's nine parameters bound into one graph, reusable across every
/// unrolled step — gradient fan-in over time then falls out of the reverse
/// sweep.
#[derive(Clone, Copy, Debug)]
pub struct BoundGruCell {
    wz: Var,
    uz: Var,
    bz: Var,
    wk: Var,
    uk: Var,
    bk: Var,
    wh: Var,
    uh: Var,
    bh: Var,
}

impl BoundGruCell {
    /// Inserts the nine parameters as leaves, once. `ids` lists them gate by
    /// gate, `[W_z, U_z, b_z, W_k, U_k, b_k, W_h, U_h, b_h]` — the order of
    /// `deeprest_nn::GruCell::param_ids`.
    pub fn bind(g: &mut Graph, store: &ParamStore, ids: [ParamId; 9]) -> Self {
        let [wz, uz, bz, wk, uk, bk, wh, uh, bh] = ids.map(|id| g.param(store, id));
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
        }
    }

    /// Advances the recurrence one step, `h_t = GRU(x_t, h_{t-1})` per
    /// Eq. 2, in 11 nodes. `ExpertSlab::step_range` and the analytic
    /// backward reproduce exactly this op sequence, fused gates included.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `(input_dim, 1)` or `h_prev` is not
    /// `(hidden_dim, 1)`.
    pub fn step(&self, g: &mut Graph, x: Var, h_prev: Var) -> Var {
        let z = {
            let wx = g.matmul(self.wz, x);
            let uh = g.matmul(self.uz, h_prev);
            g.gate_sigmoid(wx, uh, self.bz)
        };
        let k = {
            let wx = g.matmul(self.wk, x);
            let uh = g.matmul(self.uk, h_prev);
            g.gate_sigmoid(wx, uh, self.bk)
        };
        let h_tilde = {
            let gated = g.mul(k, h_prev);
            let wx = g.matmul(self.wh, x);
            let uh = g.matmul(self.uh, gated);
            g.gate_tanh(wx, uh, self.bh)
        };
        g.lerp(z, h_prev, h_tilde)
    }
}

/// A fully connected layer `y = W·x + b` bound into one graph.
#[derive(Clone, Copy, Debug)]
pub struct BoundLinear {
    w: Var,
    b: Var,
}

impl BoundLinear {
    /// Inserts the weight and bias as leaves, once.
    pub fn bind(g: &mut Graph, store: &ParamStore, w: ParamId, b: ParamId) -> Self {
        Self {
            w: g.param(store, w),
            b: g.param(store, b),
        }
    }

    /// Computes `W·x + b`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an `(in_dim, 1)` column vector.
    pub fn forward(&self, g: &mut Graph, x: Var) -> Var {
        let wx = g.matmul(self.w, x);
        g.add(wx, self.b)
    }
}
