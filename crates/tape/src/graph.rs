//! The tape: nodes appended in topological order, swept once in reverse.

use deeprest_tensor::{kernel, ParamId, ParamStore, Tensor};

/// Handle to a node in a [`Graph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(usize);

/// The recorded operation that produced a node.
#[derive(Debug)]
enum Op {
    /// Leaf without gradient (inputs, targets, fixed masks).
    Constant,
    /// Leaf whose gradient flows back into a [`ParamStore`].
    Param(ParamId),
    /// Elementwise `a + b`.
    Add(Var, Var),
    /// Hadamard product `a ⊙ b`.
    Mul(Var, Var),
    /// Matrix product `a * b`.
    MatMul(Var, Var),
    /// Logistic sigmoid `σ(a)`.
    Sigmoid(Var),
    /// Hyperbolic tangent.
    Tanh(Var),
    /// `c * a` for a scalar `c`.
    Scale(Var, f32),
    /// Copy of `a` with one row-major element forced to `+0.0` — the
    /// attention self-exclusion mask.
    MaskOut(Var, usize),
    /// Elementwise square `a ⊙ a`.
    Square(Var),
    /// Vertical stack of column vectors.
    ConcatRows(Vec<Var>),
    /// Horizontal stack of column vectors into a matrix.
    ConcatCols(Vec<Var>),
    /// Sum of all elements, producing a `(1, 1)` scalar.
    SumAll(Var),
    /// Mean of all elements, producing a `(1, 1)` scalar.
    MeanAll(Var),
    /// Elementwise sum of same-shaped vars.
    AddN(Vec<Var>),
    /// Fused gate pre-activation + sigmoid: `σ(a + b + c)`.
    GateSigmoid(Var, Var, Var),
    /// Fused gate pre-activation + tanh: `tanh(a + b + c)`.
    GateTanh(Var, Var, Var),
    /// Fused convex mix `z ⊙ a + (1 - z) ⊙ b` (the GRU output gate).
    Lerp {
        /// Mixing gate in `(0, 1)`.
        z: Var,
        /// Branch weighted by `z`.
        a: Var,
        /// Branch weighted by `1 - z`.
        b: Var,
    },
    /// Pinball (quantile) loss summed over rows; see [`Graph::pinball`].
    Pinball {
        pred: Var,
        target: Tensor,
        quantiles: Vec<f32>,
    },
}

struct Node {
    value: Tensor,
    op: Op,
}

/// A computation tape.
///
/// Operations append nodes in topological order; [`Graph::backward`] sweeps
/// the tape in reverse, accumulating parameter gradients into the
/// [`ParamStore`] the parameters were read from. Build one graph per
/// forward/backward pass (per truncated-BPTT subsequence) and drop it.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        self.nodes.push(Node { value, op });
        Var(self.nodes.len() - 1)
    }

    /// Records a gradient-less leaf (model input, target, fixed mask).
    pub fn constant(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Constant)
    }

    /// Records a gradient-less leaf holding a copy of `t`.
    pub fn constant_copy(&mut self, t: &Tensor) -> Var {
        self.constant(t.clone())
    }

    /// Records an all-zero gradient-less leaf (initial hidden states,
    /// disabled-attention placeholders).
    pub fn constant_zeros(&mut self, rows: usize, cols: usize) -> Var {
        self.constant(Tensor::zeros(rows, cols))
    }

    /// Records a gradient-less leaf filled with `value`.
    pub fn constant_fill(&mut self, rows: usize, cols: usize, value: f32) -> Var {
        self.constant(full(rows, cols, value))
    }

    /// Records a trainable parameter leaf holding a copy of its current
    /// value in `store`. Gradients accumulate back into `store` on
    /// [`Graph::backward`].
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        self.push(store.value(id).clone(), Op::Param(id))
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let out = zip(self.value(a), self.value(b), |x, y| x + y);
        self.push(out, Op::Add(a, b))
    }

    /// Hadamard product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let out = zip(self.value(a), self.value(b), mul);
        self.push(out, Op::Mul(a, b))
    }

    /// Matrix product, on the lane-blocked kernels of
    /// [`deeprest_tensor::kernel`] (GEMV for vector right operands) — the
    /// contractions the packed forward is compared against.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions differ.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let out = matmul(self.value(a), self.value(b));
        self.push(out, Op::MatMul(a, b))
    }

    /// Logistic sigmoid: [`kernel::sigmoid`], the packed forward's.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let out = map(self.value(a), kernel::sigmoid);
        self.push(out, Op::Sigmoid(a))
    }

    /// Hyperbolic tangent: [`kernel::tanh`], the packed forward's.
    pub fn tanh(&mut self, a: Var) -> Var {
        let out = map(self.value(a), kernel::tanh);
        self.push(out, Op::Tanh(a))
    }

    /// Scalar scaling `c * a`.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let out = scale(self.value(a), c);
        self.push(out, Op::Scale(a, c))
    }

    /// Copy of `a` with the row-major element at `index` forced to `+0.0` —
    /// the cross-component attention self-exclusion mask (Eq. 4's
    /// `α_{i,i} = 0`). The gradient copies through everywhere except
    /// `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds for `a`.
    pub fn mask_out(&mut self, a: Var, index: usize) -> Var {
        assert!(
            index < self.value(a).len(),
            "Graph::mask_out: index {index} out of bounds for {} elements",
            self.value(a).len()
        );
        let mut out = self.value(a).clone();
        out.data_mut()[index] = 0.0;
        self.push(out, Op::MaskOut(a, index))
    }

    /// Elementwise square.
    pub fn square(&mut self, a: Var) -> Var {
        let out = map(self.value(a), |x| x * x);
        self.push(out, Op::Square(a))
    }

    /// Vertically stacks column vectors (the paper's `a || h` concatenation).
    ///
    /// # Panics
    ///
    /// Panics if any input is not a column vector.
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        let mut data = Vec::new();
        for &p in parts {
            let part = self.value(p);
            assert_eq!(
                part.cols(),
                1,
                "Graph::concat_rows: inputs must be column vectors"
            );
            data.extend_from_slice(part.data());
        }
        self.push(Tensor::vector(data), Op::ConcatRows(parts.to_vec()))
    }

    /// Stacks column vectors side by side into a matrix, enabling the
    /// cross-component attention `H_t · α` as one mat-vec.
    ///
    /// # Panics
    ///
    /// Panics if inputs are not identically sized column vectors.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "Graph::concat_cols: no inputs");
        let rows = self.value(parts[0]).rows();
        let mut out = Tensor::zeros(rows, parts.len());
        for (c, &p) in parts.iter().enumerate() {
            let part = self.value(p);
            assert_eq!(
                part.shape(),
                (rows, 1),
                "Graph::concat_cols: inputs must be ({rows}, 1) column vectors"
            );
            for (r, &v) in part.data().iter().enumerate() {
                out.set(r, c, v);
            }
        }
        self.push(out, Op::ConcatCols(parts.to_vec()))
    }

    /// Sum of all elements, yielding a scalar node.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let out = Tensor::scalar(self.value(a).data().iter().sum());
        self.push(out, Op::SumAll(a))
    }

    /// Mean of all elements, yielding a scalar node (zero for an empty
    /// input).
    pub fn mean_all(&mut self, a: Var) -> Var {
        let data = self.value(a).data();
        let mean = if data.is_empty() {
            0.0
        } else {
            data.iter().sum::<f32>() / data.len() as f32
        };
        let out = Tensor::scalar(mean);
        self.push(out, Op::MeanAll(a))
    }

    /// Elementwise sum of several same-shaped vars in one node: a copy of
    /// the first, the rest added in order.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or shapes differ.
    pub fn add_n(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "Graph::add_n: no inputs");
        let mut out = self.value(parts[0]).clone();
        for &p in &parts[1..] {
            out.add_assign(self.value(p));
        }
        self.push(out, Op::AddN(parts.to_vec()))
    }

    /// Fused `σ(a + b + c)` in a single node — the GRU gate pre-activation
    /// plus activation (Eq. 2). Values and gradients are bit-for-bit
    /// identical to the unfused `sigmoid(add(add(a, b), c))` chain: the
    /// per-element sum associates left, and the shared upstream term
    /// `g ⊙ y ⊙ (1 - y)` is what every operand of the chain receives.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn gate_sigmoid(&mut self, a: Var, b: Var, c: Var) -> Var {
        let out = self.fused_gate(a, b, c, kernel::sigmoid);
        self.push(out, Op::GateSigmoid(a, b, c))
    }

    /// Fused `tanh(a + b + c)` in a single node; see [`Graph::gate_sigmoid`].
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn gate_tanh(&mut self, a: Var, b: Var, c: Var) -> Var {
        let out = self.fused_gate(a, b, c, kernel::tanh);
        self.push(out, Op::GateTanh(a, b, c))
    }

    fn fused_gate(&self, a: Var, b: Var, c: Var, act: impl Fn(f32) -> f32) -> Tensor {
        let sum = zip(self.value(a), self.value(b), |x, y| x + y);
        zip(&sum, self.value(c), |s, z| act(s + z))
    }

    /// Fused convex mix `z ⊙ a + (1 - z) ⊙ b` — the GRU output gate
    /// (Eq. 2's `h_t = z_t ⊙ h_{t-1} + (1 - z_t) ⊙ h̃_t`) in one node.
    /// Per-element arithmetic and the backward formulas reproduce the
    /// unfused `mul`/`1 - z`/`mul`/`add` chain's operation order exactly,
    /// so results are bit-for-bit identical.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub(crate) fn lerp(&mut self, z: Var, a: Var, b: Var) -> Var {
        let (tz, ta, tb) = (self.value(z), self.value(a), self.value(b));
        let keep = zip(tz, ta, mul);
        let new = zip(tz, tb, |zi, bi| (1.0 - zi) * bi);
        let out = zip(&keep, &new, |x, y| x + y);
        self.push(out, Op::Lerp { z, a, b })
    }

    /// Pinball (quantile) loss summed over rows, in the standard orientation
    /// whose minimizer at quantile `q` is the `q`-th quantile of the targets.
    ///
    /// For each row `i`, with `u_i = target_i - pred_i` and quantile `q_i`:
    /// `Q(u|q) = q·u` when `u ≥ 0`, else `(q-1)·u`.
    ///
    /// Note: the paper's Eq. 5 writes the loss in terms of `Δ = ŷ - y` with
    /// the quantile factor on the `Δ ≥ 0` branch, which, taken literally,
    /// makes the head trained at `δ + (1-δ)/2` estimate the *lower* tail.
    /// We use the standard orientation so the Eq. 6 quantiles
    /// `{0.5, (1-δ)/2, δ+(1-δ)/2}` produce the intended
    /// (median, lower, upper) interval.
    ///
    /// # Panics
    ///
    /// Panics if `pred`, `target` and `quantiles` disagree on length, or if
    /// `pred` is not a column vector.
    pub fn pinball(&mut self, pred: Var, target: Tensor, quantiles: &[f32]) -> Var {
        let p = self.value(pred);
        assert_eq!(p.cols(), 1, "Graph::pinball: pred must be a column vector");
        assert_eq!(
            p.rows(),
            target.rows(),
            "Graph::pinball: pred and target length mismatch"
        );
        assert_eq!(
            p.rows(),
            quantiles.len(),
            "Graph::pinball: pred and quantile count mismatch"
        );
        let mut loss = 0.0;
        for ((&pi, &ti), &q) in p.data().iter().zip(target.data()).zip(quantiles) {
            let u = ti - pi;
            loss += if u >= 0.0 { q * u } else { (q - 1.0) * u };
        }
        self.push(
            Tensor::scalar(loss),
            Op::Pinball {
                pred,
                target,
                quantiles: quantiles.to_vec(),
            },
        )
    }

    /// [`Graph::pinball`] against a uniform target: every row of `pred` is
    /// scored against the same scalar `y` — the estimator's Eq. 6 term,
    /// three quantile heads against one ground-truth value per step.
    ///
    /// # Panics
    ///
    /// Panics if `pred` is not a column vector matching `quantiles` in
    /// length.
    pub fn pinball_fill(&mut self, pred: Var, y: f32, quantiles: &[f32]) -> Var {
        let target = full(self.value(pred).rows(), 1, y);
        self.pinball(pred, target, quantiles)
    }

    /// Runs the reverse sweep from scalar node `loss`, accumulating parameter
    /// gradients into `store` (gradients are *added*; call
    /// [`ParamStore::zero_grads`] between optimizer steps).
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a `(1, 1)` tensor.
    pub fn backward(&self, loss: Var, store: &mut ParamStore) {
        self.backward_with(loss, &mut |id, g| store.grad_mut(id).add_assign(g));
    }

    /// Like [`Graph::backward`], but accumulates into a detached
    /// [`GradBuffer`] instead of the store: each subsequence of a batch owns
    /// a private buffer, and the buffers are folded into the store in
    /// subsequence order afterwards ([`GradBuffer::absorb_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a `(1, 1)` tensor.
    pub fn backward_into(&self, loss: Var, buf: &mut GradBuffer) {
        self.backward_with(loss, &mut |id, g| buf.grads[id.index()].add_assign(g));
    }

    /// The reverse sweep, parameterized over the gradient sink. The order in
    /// which a node's gradient slot receives its contributions (highest
    /// consumer index first) is what `deeprest-nn`'s analytic backward
    /// replays, so it is part of the contract.
    fn backward_with(&self, loss: Var, sink: &mut dyn FnMut(ParamId, &Tensor)) {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "Graph::backward: loss must be scalar"
        );
        let nodes = &self.nodes;
        let mut slots: Vec<Option<Tensor>> = vec![None; loss.0 + 1];
        slots[loss.0] = Some(Tensor::scalar(1.0));
        let val = |v: Var| &nodes[v.0].value;

        for idx in (0..=loss.0).rev() {
            let Some(g) = slots[idx].take() else { continue };
            let y = &nodes[idx].value;
            match &nodes[idx].op {
                Op::Constant => {}
                Op::Param(id) => sink(*id, &g),
                Op::Add(a, b) => {
                    acc_ref(&mut slots, *a, &g);
                    acc_ref(&mut slots, *b, &g);
                }
                Op::Mul(a, b) => {
                    let (ga, gb) = (zip(&g, val(*b), mul), zip(&g, val(*a), mul));
                    acc(&mut slots, *a, ga);
                    acc(&mut slots, *b, gb);
                }
                Op::MatMul(a, b) => {
                    let ga = matmul(&g, &transpose(val(*b)));
                    let gb = matmul(&transpose(val(*a)), &g);
                    acc(&mut slots, *a, ga);
                    acc(&mut slots, *b, gb);
                }
                Op::Sigmoid(a) => acc(&mut slots, *a, zip(&g, y, dsigmoid)),
                Op::Tanh(a) => acc(&mut slots, *a, zip(&g, y, dtanh)),
                Op::Scale(a, c) => acc(&mut slots, *a, scale(&g, *c)),
                Op::MaskOut(a, index) => {
                    let mut ga = g.clone();
                    ga.data_mut()[*index] = 0.0;
                    acc(&mut slots, *a, ga);
                }
                Op::Square(a) => {
                    acc(&mut slots, *a, zip(&g, val(*a), |gi, xi| 2.0 * gi * xi));
                }
                Op::ConcatRows(parts) => {
                    let mut offset = 0;
                    for p in parts {
                        let rows = val(*p).rows();
                        let slice = g.data()[offset..offset + rows].to_vec();
                        acc(&mut slots, *p, Tensor::vector(slice));
                        offset += rows;
                    }
                }
                Op::ConcatCols(parts) => {
                    for (c, p) in parts.iter().enumerate() {
                        let col = (0..y.rows()).map(|r| g.get(r, c)).collect();
                        acc(&mut slots, *p, Tensor::vector(col));
                    }
                }
                Op::SumAll(a) => {
                    let (rows, cols) = val(*a).shape();
                    acc(&mut slots, *a, full(rows, cols, g.data()[0]));
                }
                Op::MeanAll(a) => {
                    let (rows, cols) = val(*a).shape();
                    let n = (rows * cols) as f32;
                    acc(&mut slots, *a, full(rows, cols, g.data()[0] / n));
                }
                Op::AddN(parts) => {
                    for p in parts {
                        acc_ref(&mut slots, *p, &g);
                    }
                }
                // Every summand of a fused pre-activation receives the same
                // σ'/tanh' upstream term, exactly as the unfused chain.
                Op::GateSigmoid(a, b, c) => {
                    let d = zip(&g, y, dsigmoid);
                    for v in [a, b, c] {
                        acc_ref(&mut slots, *v, &d);
                    }
                }
                Op::GateTanh(a, b, c) => {
                    let d = zip(&g, y, dtanh);
                    for v in [a, b, c] {
                        acc_ref(&mut slots, *v, &d);
                    }
                }
                Op::Lerp { z, a, b } => {
                    // dz = -(g ⊙ b) + g ⊙ a, built from the two products the
                    // unfused chain computes (sign flip is exact; addition
                    // commutes bitwise), so fused == unfused to the bit.
                    let mut dz = scale(&zip(&g, val(*b), mul), -1.0);
                    dz.add_assign(&zip(&g, val(*a), mul));
                    let da = zip(&g, val(*z), mul);
                    let db = zip(&g, val(*z), |gi, zi| gi * (1.0 - zi));
                    acc(&mut slots, *z, dz);
                    acc(&mut slots, *a, da);
                    acc(&mut slots, *b, db);
                }
                Op::Pinball {
                    pred,
                    target,
                    quantiles,
                } => {
                    // dL/dpred = -q when under the target, (1-q) above it;
                    // the subgradient at u = 0 uses the u ≥ 0 branch.
                    let gp = val(*pred)
                        .data()
                        .iter()
                        .zip(target.data())
                        .zip(quantiles)
                        .map(|((&pi, &ti), &q)| {
                            let d = if ti - pi >= 0.0 { -q } else { 1.0 - q };
                            g.data()[0] * d
                        })
                        .collect();
                    acc(&mut slots, *pred, Tensor::vector(gp));
                }
            }
        }
    }
}

/// `a · b`: `kernel::gemv_into` when `b` is a column, `kernel::gemm_into`
/// otherwise. Both carry the contract dot's bits per element, so a product
/// on a materialised transpose (the backward's `g · bᵀ`, `aᵀ · g`) has the
/// bits of every other way of contracting the same rows and columns.
fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(
        k,
        b.rows(),
        "Graph::matmul: inner dimensions differ ({:?} x {:?})",
        a.shape(),
        b.shape()
    );
    let mut out = vec![0.0; m * n];
    if n == 1 {
        kernel::gemv_into(&mut out, a.data(), m, k, b.data());
    } else {
        kernel::gemm_into(&mut out, a.data(), m, k, b.data(), n);
    }
    Tensor::from_vec(m, n, out)
}

fn transpose(a: &Tensor) -> Tensor {
    let (rows, cols) = a.shape();
    let data = (0..rows * cols)
        .map(|i| a.data()[(i % rows) * cols + i / rows])
        .collect();
    Tensor::from_vec(cols, rows, data)
}

fn map(a: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
    Tensor::from_vec(a.rows(), a.cols(), a.data().iter().map(|&v| f(v)).collect())
}

/// `f` elementwise over two same-shaped tensors.
///
/// # Panics
///
/// Panics if the shapes differ.
fn zip(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    assert_eq!(
        a.shape(),
        b.shape(),
        "Graph: shape mismatch {:?} vs {:?}",
        a.shape(),
        b.shape()
    );
    let data = a
        .data()
        .iter()
        .zip(b.data())
        .map(|(&x, &y)| f(x, y))
        .collect();
    Tensor::from_vec(a.rows(), a.cols(), data)
}

fn scale(a: &Tensor, c: f32) -> Tensor {
    map(a, |v| v * c)
}

fn full(rows: usize, cols: usize, value: f32) -> Tensor {
    Tensor::from_vec(rows, cols, vec![value; rows * cols])
}

fn mul(x: f32, y: f32) -> f32 {
    x * y
}

/// `g · σ'` from the activation's output `y`.
fn dsigmoid(g: f32, y: f32) -> f32 {
    g * y * (1.0 - y)
}

/// `g · tanh'` from the activation's output `y`.
fn dtanh(g: f32, y: f32) -> f32 {
    g * (1.0 - y * y)
}

/// Adds `g` into the slot for `v`, or moves it in when the slot is empty.
fn acc(slots: &mut [Option<Tensor>], v: Var, g: Tensor) {
    match &mut slots[v.0] {
        Some(existing) => existing.add_assign(&g),
        slot @ None => *slot = Some(g),
    }
}

/// [`acc`] from a borrowed gradient: copies only when the slot is empty.
fn acc_ref(slots: &mut [Option<Tensor>], v: Var, g: &Tensor) {
    match &mut slots[v.0] {
        Some(existing) => existing.add_assign(g),
        slot @ None => *slot = Some(g.clone()),
    }
}

/// A detached, parameter-shaped gradient accumulator.
///
/// Each subsequence of a batch runs its backward pass into its own
/// `GradBuffer` (no shared mutable state), and the buffers are then folded
/// into the owning [`ParamStore`] in subsequence order via
/// [`GradBuffer::absorb_into`]. Because the reduction order is the
/// subsequence order — not the thread schedule — accumulated gradients are
/// bit-for-bit identical at any thread count. A slot starts at `+0.0`, so a
/// `-0.0` partial sum is normalized when it lands; the analytic engine's
/// zero-initialized arenas do the same.
#[derive(Clone, Debug)]
pub struct GradBuffer {
    grads: Vec<Tensor>,
}

impl GradBuffer {
    /// A zeroed buffer with one gradient slot per parameter of `store`.
    pub fn zeros_like(store: &ParamStore) -> Self {
        let grads = store
            .ids()
            .map(|id| {
                let (rows, cols) = store.value(id).shape();
                Tensor::zeros(rows, cols)
            })
            .collect();
        Self { grads }
    }

    /// Resets every slot to zero, keeping allocations.
    pub fn zero(&mut self) {
        for g in &mut self.grads {
            g.fill_zero();
        }
    }

    /// Adds every slot into `store`'s accumulated gradients, one add per
    /// parameter.
    ///
    /// # Panics
    ///
    /// Panics if the buffer was built from a store with a different
    /// parameter layout.
    pub fn absorb_into(&self, store: &mut ParamStore) {
        assert_eq!(
            store.len(),
            self.grads.len(),
            "GradBuffer::absorb_into: buffer layout mismatch"
        );
        for (id, g) in store.ids().zip(&self.grads) {
            store.grad_mut(id).add_assign(g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(values: &[(&str, Tensor)]) -> (ParamStore, Vec<ParamId>) {
        let mut s = ParamStore::new();
        let ids = values.iter().map(|(n, t)| s.add(*n, t.clone())).collect();
        (s, ids)
    }

    /// Central finite-difference gradient of `f` w.r.t. parameter `id`.
    /// Perturbs one scratch store in place — no per-element store clones.
    fn numeric_grad(store: &ParamStore, id: ParamId, f: impl Fn(&ParamStore) -> f32) -> Tensor {
        let eps = 1e-3;
        let mut probe = store.clone();
        let shape = store.value(id).shape();
        let mut out = Tensor::zeros(shape.0, shape.1);
        for i in 0..store.value(id).len() {
            let orig = probe.value(id).data()[i];
            probe.value_mut(id).data_mut()[i] = orig + eps;
            let plus = f(&probe);
            probe.value_mut(id).data_mut()[i] = orig - eps;
            let minus = f(&probe);
            probe.value_mut(id).data_mut()[i] = orig;
            out.data_mut()[i] = (plus - minus) / (2.0 * eps);
        }
        out
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data().iter()) {
            assert!(
                (x - y).abs() <= tol * (1.0 + y.abs()),
                "gradient mismatch: analytic {x} vs numeric {y}"
            );
        }
    }

    #[test]
    fn matmul_gradients_match_finite_differences() {
        let (mut store, ids) = store_with(&[
            (
                "w",
                Tensor::from_vec(2, 3, vec![0.1, -0.2, 0.3, 0.5, 0.7, -0.4]),
            ),
            ("x", Tensor::vector(vec![1.0, -1.5, 2.0])),
        ]);
        let f = |s: &ParamStore| {
            let mut g = Graph::new();
            let w = g.param(s, ids[0]);
            let x = g.param(s, ids[1]);
            let y = g.matmul(w, x);
            let l = g.sum_all(y);
            g.value(l).data()[0]
        };
        let mut g = Graph::new();
        let w = g.param(&store, ids[0]);
        let x = g.param(&store, ids[1]);
        let y = g.matmul(w, x);
        let l = g.sum_all(y);
        g.backward(l, &mut store);

        assert_close(store.grad(ids[0]), &numeric_grad(&store, ids[0], f), 1e-2);
        assert_close(store.grad(ids[1]), &numeric_grad(&store, ids[1], f), 1e-2);
    }

    #[test]
    fn gru_like_composite_gradients() {
        // z = σ(Wx); h = z ⊙ tanh(Ux); loss = mean(h²) exercises most ops.
        let (mut store, ids) = store_with(&[
            ("w", Tensor::from_vec(2, 2, vec![0.3, -0.1, 0.4, 0.2])),
            ("u", Tensor::from_vec(2, 2, vec![-0.2, 0.6, 0.1, -0.5])),
        ]);
        let x = Tensor::vector(vec![0.8, -0.6]);
        let (w_id, u_id) = (ids[0], ids[1]);
        let f = {
            let x = x.clone();
            move |s: &ParamStore| {
                let mut g = Graph::new();
                let w = g.param(s, w_id);
                let u = g.param(s, u_id);
                let xv = g.constant(x.clone());
                let wx = g.matmul(w, xv);
                let z = g.sigmoid(wx);
                let ux = g.matmul(u, xv);
                let th = g.tanh(ux);
                let h = g.mul(z, th);
                let sq = g.square(h);
                let l = g.mean_all(sq);
                g.value(l).data()[0]
            }
        };
        let mut g = Graph::new();
        let w = g.param(&store, ids[0]);
        let u = g.param(&store, ids[1]);
        let xv = g.constant(x);
        let wx = g.matmul(w, xv);
        let z = g.sigmoid(wx);
        let ux = g.matmul(u, xv);
        let th = g.tanh(ux);
        let h = g.mul(z, th);
        let sq = g.square(h);
        let l = g.mean_all(sq);
        g.backward(l, &mut store);

        assert_close(store.grad(ids[0]), &numeric_grad(&store, ids[0], &f), 2e-2);
        assert_close(store.grad(ids[1]), &numeric_grad(&store, ids[1], &f), 2e-2);
    }

    #[test]
    fn concat_ops_route_gradients() {
        let (mut store, ids) = store_with(&[
            ("a", Tensor::vector(vec![1.0, 2.0])),
            ("b", Tensor::vector(vec![3.0, 4.0])),
        ]);
        let mut g = Graph::new();
        let a = g.param(&store, ids[0]);
        let b = g.param(&store, ids[1]);
        let rows = g.concat_rows(&[a, b]);
        // Weight rows so each part receives a distinct gradient.
        let w = g.constant(Tensor::vector(vec![1.0, 2.0, 3.0, 4.0]));
        let weighted = g.mul(rows, w);
        let l1 = g.sum_all(weighted);

        let cols = g.concat_cols(&[a, b]);
        let v = g.constant(Tensor::vector(vec![10.0, 100.0]));
        let mv = g.matmul(cols, v);
        let l2 = g.sum_all(mv);

        let l = g.add(l1, l2);
        g.backward(l, &mut store);

        assert_eq!(store.grad(ids[0]).data(), &[11.0, 12.0]);
        assert_eq!(store.grad(ids[1]).data(), &[103.0, 104.0]);
    }

    #[test]
    fn pinball_matches_definition_and_gradient() {
        let (mut store, ids) = store_with(&[("p", Tensor::vector(vec![0.5, 0.5, 0.5]))]);
        let target = Tensor::vector(vec![0.0, 1.0, 0.5]);
        let qs = [0.5, 0.05, 0.95];
        let mut g = Graph::new();
        let p = g.param(&store, ids[0]);
        let l = g.pinball(p, target.clone(), &qs);
        // Row 0: u = 0 - 0.5 < 0 → (0.5-1)·(-0.5) = 0.25.
        // Row 1: u = 1 - 0.5 ≥ 0 → 0.05·0.5 = 0.025.
        // Row 2: u = 0 → 0.
        assert!((g.value(l).data()[0] - 0.275).abs() < 1e-6);
        g.backward(l, &mut store);
        // Row 0 above target: 1-q = 0.5. Row 1 below: -0.05. Row 2 at: -0.95.
        assert_eq!(store.grad(ids[0]).data(), &[0.5, -0.05, -0.95]);
    }

    #[test]
    fn gradients_accumulate_across_backward_calls() {
        let (mut store, ids) = store_with(&[("a", Tensor::scalar(2.0))]);
        for _ in 0..3 {
            let mut g = Graph::new();
            let a = g.param(&store, ids[0]);
            let l = g.sum_all(a);
            g.backward(l, &mut store);
        }
        assert_eq!(store.grad(ids[0]).data(), &[3.0]);
        store.zero_grads();
        assert_eq!(store.grad(ids[0]).data(), &[0.0]);
    }

    #[test]
    fn fan_out_sums_gradients() {
        // loss = sum(a ⊙ a + a) ⇒ d/da = 2a + 1.
        let (mut store, ids) = store_with(&[("a", Tensor::vector(vec![1.0, -2.0]))]);
        let mut g = Graph::new();
        let a = g.param(&store, ids[0]);
        let sq = g.mul(a, a);
        let s = g.add(sq, a);
        let l = g.sum_all(s);
        g.backward(l, &mut store);
        assert_eq!(store.grad(ids[0]).data(), &[3.0, -3.0]);
    }

    #[test]
    fn scale_and_add_n() {
        let (mut store, ids) = store_with(&[("a", Tensor::vector(vec![0.5, -0.5]))]);
        let mut g = Graph::new();
        let a = g.param(&store, ids[0]);
        let sc = g.scale(a, 3.0); // [1.5, -1.5]
        let n = g.add_n(&[a, sc]);
        let l = g.sum_all(n);
        g.backward(l, &mut store);
        // d/da = 1 + 3.
        assert_eq!(store.grad(ids[0]).data(), &[4.0, 4.0]);
        assert_eq!(g.value(n).data(), &[2.0, -2.0]);
    }

    #[test]
    fn fused_gates_match_unfused_chain_bitwise() {
        let (mut store, ids) = store_with(&[
            ("a", Tensor::vector(vec![0.3, -1.2, 0.07])),
            ("b", Tensor::vector(vec![-0.5, 0.9, 2.3])),
            ("c", Tensor::vector(vec![0.01, -0.02, 0.4])),
        ]);
        let weight = Tensor::vector(vec![1.0, -2.0, 0.5]);

        // Unfused reference: sigmoid(add(add(a, b), c)) weighted and summed.
        let mut g1 = Graph::new();
        let (a1, b1, c1) = (
            g1.param(&store, ids[0]),
            g1.param(&store, ids[1]),
            g1.param(&store, ids[2]),
        );
        let s1 = g1.add(a1, b1);
        let s2 = g1.add(s1, c1);
        let sig = g1.sigmoid(s2);
        let th = g1.tanh(s2);
        let both = g1.add(sig, th);
        let w1 = g1.constant(weight.clone());
        let weighted = g1.mul(both, w1);
        let l1 = g1.sum_all(weighted);
        g1.backward(l1, &mut store);
        let reference_value = g1.value(both).clone();
        let reference_grads: Vec<Tensor> = ids.iter().map(|&id| store.grad(id).clone()).collect();

        // Fused path.
        store.zero_grads();
        let mut g2 = Graph::new();
        let (a2, b2, c2) = (
            g2.param(&store, ids[0]),
            g2.param(&store, ids[1]),
            g2.param(&store, ids[2]),
        );
        let sig = g2.gate_sigmoid(a2, b2, c2);
        let th = g2.gate_tanh(a2, b2, c2);
        let both = g2.add(sig, th);
        let w2 = g2.constant(weight);
        let weighted = g2.mul(both, w2);
        let l2 = g2.sum_all(weighted);
        g2.backward(l2, &mut store);

        assert_eq!(g2.value(both).data(), reference_value.data());
        for (id, reference) in ids.iter().zip(reference_grads.iter()) {
            assert_eq!(store.grad(*id).data(), reference.data());
        }
    }

    #[test]
    fn lerp_matches_unfused_chain_bitwise() {
        let (mut store, ids) = store_with(&[
            ("z", Tensor::vector(vec![0.2, 0.8, 0.5])),
            ("a", Tensor::vector(vec![1.0, -2.0, 0.3])),
            ("b", Tensor::vector(vec![-0.7, 0.4, 2.0])),
        ]);
        let weight = Tensor::vector(vec![0.5, -1.5, 3.0]);

        // Unfused reference: z ⊙ a + (1 - z) ⊙ b.
        let mut g1 = Graph::new();
        let (z1, a1, b1) = (
            g1.param(&store, ids[0]),
            g1.param(&store, ids[1]),
            g1.param(&store, ids[2]),
        );
        let keep = g1.mul(z1, a1);
        let ones = g1.constant_fill(3, 1, 1.0);
        let neg = g1.scale(z1, -1.0);
        let om = g1.add(ones, neg);
        let new = g1.mul(om, b1);
        let mix = g1.add(keep, new);
        let w1 = g1.constant(weight.clone());
        let weighted = g1.mul(mix, w1);
        let l1 = g1.sum_all(weighted);
        g1.backward(l1, &mut store);
        let reference_value = g1.value(mix).clone();
        let reference_grads: Vec<Tensor> = ids.iter().map(|&id| store.grad(id).clone()).collect();

        // Fused path.
        store.zero_grads();
        let mut g2 = Graph::new();
        let (z2, a2, b2) = (
            g2.param(&store, ids[0]),
            g2.param(&store, ids[1]),
            g2.param(&store, ids[2]),
        );
        let mix = g2.lerp(z2, a2, b2);
        let w2 = g2.constant(weight);
        let weighted = g2.mul(mix, w2);
        let l2 = g2.sum_all(weighted);
        g2.backward(l2, &mut store);

        assert_eq!(g2.value(mix).data(), reference_value.data());
        for (id, reference) in ids.iter().zip(reference_grads.iter()) {
            assert_eq!(store.grad(*id).data(), reference.data());
        }
    }

    #[test]
    fn fused_gate_gradients_match_finite_differences() {
        let (mut store, ids) = store_with(&[
            ("a", Tensor::vector(vec![0.3, -0.8])),
            ("b", Tensor::vector(vec![0.1, 0.5])),
            ("z", Tensor::vector(vec![0.4, 0.9])),
        ]);
        let f = |s: &ParamStore| {
            let mut g = Graph::new();
            let a = g.param(s, ids[0]);
            let b = g.param(s, ids[1]);
            let z = g.param(s, ids[2]);
            let gate = g.gate_sigmoid(a, b, z);
            let cand = g.gate_tanh(b, z, a);
            let mix = g.lerp(gate, cand, a);
            let sq = g.square(mix);
            let l = g.mean_all(sq);
            g.value(l).data()[0]
        };
        let mut g = Graph::new();
        let a = g.param(&store, ids[0]);
        let b = g.param(&store, ids[1]);
        let z = g.param(&store, ids[2]);
        let gate = g.gate_sigmoid(a, b, z);
        let cand = g.gate_tanh(b, z, a);
        let mix = g.lerp(gate, cand, a);
        let sq = g.square(mix);
        let l = g.mean_all(sq);
        g.backward(l, &mut store);

        for &id in &ids {
            assert_close(store.grad(id), &numeric_grad(&store, id, f), 2e-2);
        }
    }

    #[test]
    fn backward_allocates_no_graph_nodes() {
        let (mut store, ids) = store_with(&[("a", Tensor::vector(vec![1.0, -2.0]))]);
        let mut g = Graph::new();
        let a = g.param(&store, ids[0]);
        let sq = g.square(a);
        let l = g.sum_all(sq);
        let nodes_before = g.nodes.len();
        g.backward(l, &mut store);
        assert_eq!(
            g.nodes.len(),
            nodes_before,
            "backward must not grow the tape"
        );
    }

    #[test]
    fn backward_into_buffer_then_absorb_matches_direct() {
        let (mut store, ids) = store_with(&[("w", Tensor::vector(vec![0.5, -1.0]))]);
        let build = |g: &mut Graph, s: &ParamStore| {
            let w = g.param(s, ids[0]);
            let sq = g.square(w);
            g.sum_all(sq)
        };

        let mut g = Graph::new();
        let l = build(&mut g, &store);
        g.backward(l, &mut store);
        let direct = store.grad(ids[0]).clone();

        store.zero_grads();
        let mut buf = GradBuffer::zeros_like(&store);
        let mut g2 = Graph::new();
        let l2 = build(&mut g2, &store);
        g2.backward_into(l2, &mut buf);
        assert_eq!(store.grad(ids[0]).data(), &[0.0, 0.0]);
        buf.absorb_into(&mut store);
        assert_eq!(store.grad(ids[0]).data(), direct.data());

        buf.zero();
        assert_eq!(buf.grads[ids[0].index()].data(), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "loss must be scalar")]
    fn backward_rejects_non_scalar_loss() {
        let mut store = ParamStore::new();
        let id = store.add("a", Tensor::vector(vec![1.0, 2.0]));
        let mut g = Graph::new();
        let a = g.param(&store, id);
        g.backward(a, &mut store);
    }
}
