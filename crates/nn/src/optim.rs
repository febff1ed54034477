//! First-order optimizers over a [`ParamStore`].

use deeprest_fault as fault;
use deeprest_telemetry as telemetry;
use deeprest_tensor::{BufferPool, ParamStore, Pool, Tensor};

/// Emits the per-step telemetry shared by all optimizers. The gradient
/// norm is a full pass over every gradient tensor, so it is only computed
/// when a sink is installed.
fn record_step(store: &ParamStore) {
    if telemetry::enabled() {
        telemetry::counter("optim.steps", 1);
        telemetry::gauge("optim.grad_norm", f64::from(store.grad_norm()));
    }
}

/// Drops non-finite gradients before they can poison parameter state.
///
/// A NaN/Inf gradient — whether from a numeric blow-up or an injected
/// `optim.grad` fault — would propagate into every subsequent update of
/// that tensor (and, through momentum or Adam moments, persist forever).
/// The guard works at per-tensor granularity: any tensor containing a
/// non-finite element is zeroed for this step, which makes the update a
/// no-op for plain SGD and a pure decay for momentum/Adam state, both of
/// which stay finite. Healthy gradients are untouched, so fault-free
/// training remains bit-identical. Returns the number of zeroed tensors
/// (also published as the `optim.skipped_nonfinite` telemetry counter).
fn sanitize_grads(store: &mut ParamStore) -> u64 {
    let mut skipped = 0u64;
    for grad in store.grads_mut() {
        fault::poison_f32s("optim.grad", grad.data_mut());
        if grad.data().iter().any(|g| !g.is_finite()) {
            grad.fill_zero();
            skipped += 1;
        }
    }
    if skipped > 0 {
        telemetry::counter("optim.skipped_nonfinite", skipped);
    }
    skipped
}

/// Stochastic gradient descent with optional classical momentum.
///
/// The paper trains DeepRest with plain SGD at learning rate `0.001` (§5.1);
/// `momentum = 0.0` reproduces that setting.
#[derive(Debug)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient in `[0, 1)`; `0` disables momentum.
    pub momentum: f32,
    velocity: Vec<Tensor>,
    scratch: BufferPool,
}

impl Clone for Sgd {
    /// Clones the optimizer state; the clone starts with an empty scratch
    /// pool (recycled buffers are not shared).
    fn clone(&self) -> Self {
        Self {
            lr: self.lr,
            momentum: self.momentum,
            velocity: self.velocity.clone(),
            scratch: BufferPool::new(),
        }
    }
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(lr: f32, momentum: f32) -> Self {
        Self {
            lr,
            momentum,
            velocity: Vec::new(),
            scratch: BufferPool::new(),
        }
    }

    /// Applies one update `θ ← θ - lr·(v)` with `v ← momentum·v + grad`,
    /// then leaves gradients untouched (call [`ParamStore::zero_grads`]
    /// before the next accumulation).
    pub fn step(&mut self, store: &mut ParamStore) {
        self.step_with(store, &Pool::with_threads(1));
    }

    /// Like [`Sgd::step`], fanning the per-parameter updates out across
    /// `pool`. Each parameter's update touches only its own tensors, so the
    /// result is bit-identical to the serial [`Sgd::step`] at any width.
    pub fn step_with(&mut self, store: &mut ParamStore, pool: &Pool) {
        self.ensure_state(store);
        sanitize_grads(store);
        record_step(store);
        let lr = self.lr;
        if self.momentum > 0.0 {
            let momentum = self.momentum;
            let grads = store.grads();
            pool.for_each_mut(&mut self.velocity, |i, v| {
                v.scale_assign(momentum);
                v.add_assign(&grads[i]);
            });
            let velocity = &self.velocity;
            store.par_update(pool, |i, value, _| value.axpy(-lr, &velocity[i]));
        } else {
            store.par_update(pool, |_, value, grad| value.axpy(-lr, grad));
        }
    }

    fn ensure_state(&mut self, store: &ParamStore) {
        while self.velocity.len() < store.len() {
            let id = store.ids().nth(self.velocity.len()).expect("in range");
            let shape = store.value(id).shape();
            self.velocity
                .push(self.scratch.take_tensor(shape.0, shape.1));
        }
    }
}

/// Adam optimizer (Kingma & Ba), offered as a faster-converging alternative
/// to the paper's SGD; the experiment binaries expose it behind a flag.
#[derive(Debug)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    t: i32,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
    scratch: BufferPool,
}

impl Clone for Adam {
    /// Clones the optimizer state; the clone starts with an empty scratch
    /// pool (recycled buffers are not shared).
    fn clone(&self) -> Self {
        Self {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            t: self.t,
            m: self.m.clone(),
            v: self.v.clone(),
            scratch: BufferPool::new(),
        }
    }
}

impl Adam {
    /// Creates an Adam optimizer with the conventional betas `(0.9, 0.999)`.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
            scratch: BufferPool::new(),
        }
    }

    /// Applies one bias-corrected Adam update.
    pub fn step(&mut self, store: &mut ParamStore) {
        self.step_with(store, &Pool::with_threads(1));
    }

    /// Like [`Adam::step`], fanning the per-parameter moment and value
    /// updates out across `pool`. Updates are elementwise-independent, so
    /// the result is bit-identical to the serial path at any width.
    pub fn step_with(&mut self, store: &mut ParamStore, pool: &Pool) {
        self.ensure_state(store);
        sanitize_grads(store);
        record_step(store);
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t);
        let bc2 = 1.0 - self.beta2.powi(self.t);
        let (beta1, beta2) = (self.beta1, self.beta2);
        {
            let grads = store.grads();
            pool.for_each_mut(&mut self.m, |i, m| {
                m.scale_assign(beta1);
                m.axpy(1.0 - beta1, &grads[i]);
            });
            pool.for_each_mut(&mut self.v, |i, v| {
                v.scale_assign(beta2);
                // Fused g² update: rounds (g·g) first and then the scaled
                // add, exactly like the former materialize-then-axpy pair,
                // so the bits match while the per-step `grad_sq` tensor
                // allocation disappears.
                let one_minus_beta2 = 1.0 - beta2;
                for (v, &g) in v.data_mut().iter_mut().zip(grads[i].data().iter()) {
                    *v += one_minus_beta2 * (g * g);
                }
            });
        }
        let (m, v) = (&self.m, &self.v);
        let (lr, eps) = (self.lr, self.eps);
        store.par_update(pool, |idx, value, _| {
            let (m, v) = (&m[idx], &v[idx]);
            for i in 0..value.len() {
                let m_hat = m.data()[i] / bc1;
                let v_hat = v.data()[i] / bc2;
                value.data_mut()[i] -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        });
    }

    fn ensure_state(&mut self, store: &ParamStore) {
        while self.m.len() < store.len() {
            let id = store.ids().nth(self.m.len()).expect("in range");
            let shape = store.value(id).shape();
            self.m.push(self.scratch.take_tensor(shape.0, shape.1));
            self.v.push(self.scratch.take_tensor(shape.0, shape.1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizes `f(θ) = (θ - 3)²` and checks convergence.
    fn converges(mut step: impl FnMut(&mut ParamStore)) -> f32 {
        let mut store = ParamStore::new();
        let id = store.add("theta", Tensor::scalar(0.0));
        for _ in 0..500 {
            let theta = store.value(id).data()[0];
            *store.grad_mut(id) = Tensor::scalar(2.0 * (theta - 3.0));
            step(&mut store);
        }
        store.value(id).data()[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.05, 0.0);
        let theta = converges(|s| opt.step(s));
        assert!((theta - 3.0).abs() < 1e-3, "got {theta}");
    }

    #[test]
    fn sgd_with_momentum_converges() {
        let mut opt = Sgd::new(0.01, 0.9);
        let theta = converges(|s| opt.step(s));
        assert!((theta - 3.0).abs() < 1e-2, "got {theta}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.05);
        let theta = converges(|s| opt.step(s));
        assert!((theta - 3.0).abs() < 1e-2, "got {theta}");
    }

    #[test]
    fn parallel_step_matches_serial_bitwise() {
        fn build() -> ParamStore {
            let mut store = ParamStore::new();
            for p in 0..9 {
                let id = store.add(
                    format!("p{p}"),
                    Tensor::from_vec(3, 2, (0..6).map(|i| (p * 6 + i) as f32 * 0.17).collect()),
                );
                *store.grad_mut(id) =
                    Tensor::from_vec(3, 2, (0..6).map(|i| ((p + i) as f32).sin()).collect());
            }
            store
        }
        let pool = Pool::with_threads(4);
        for _ in 0..3 {
            let (mut serial, mut parallel) = (build(), build());
            let mut o1 = Sgd::new(0.05, 0.9);
            let mut o2 = Sgd::new(0.05, 0.9);
            o1.step(&mut serial);
            o2.step_with(&mut parallel, &pool);
            for id in serial.ids() {
                assert_eq!(serial.value(id).data(), parallel.value(id).data());
            }
            let (mut serial, mut parallel) = (build(), build());
            let mut o1 = Adam::new(0.01);
            let mut o2 = Adam::new(0.01);
            o1.step(&mut serial);
            o2.step_with(&mut parallel, &pool);
            for id in serial.ids() {
                assert_eq!(serial.value(id).data(), parallel.value(id).data());
            }
        }
    }

    #[test]
    fn non_finite_gradient_tensor_is_skipped_not_applied() {
        let mut store = ParamStore::new();
        let healthy = store.add("healthy", Tensor::scalar(1.0));
        let poisoned = store.add("poisoned", Tensor::scalar(1.0));
        *store.grad_mut(healthy) = Tensor::scalar(0.5);
        *store.grad_mut(poisoned) = Tensor::scalar(f32::NAN);
        let mut opt = Sgd::new(0.1, 0.0);
        opt.step(&mut store);
        assert_eq!(store.value(healthy).data()[0], 1.0 - 0.1 * 0.5);
        assert_eq!(
            store.value(poisoned).data()[0],
            1.0,
            "NaN gradient must leave the parameter untouched"
        );

        // Same guard protects Adam's moment state.
        let mut store = ParamStore::new();
        let p = store.add("p", Tensor::scalar(2.0));
        *store.grad_mut(p) = Tensor::scalar(f32::INFINITY);
        let mut opt = Adam::new(0.05);
        opt.step(&mut store);
        assert!(store.value(p).data()[0].is_finite());
        assert_eq!(store.value(p).data()[0], 2.0);
    }

    #[test]
    fn injected_gradient_poison_is_contained() {
        let plan = std::sync::Arc::new(
            deeprest_fault::FaultPlan::new(0)
                .always("optim.grad")
                .payload(0),
        );
        deeprest_fault::with_plan(plan, || {
            let mut store = ParamStore::new();
            let p = store.add("p", Tensor::scalar(1.0));
            *store.grad_mut(p) = Tensor::scalar(0.5);
            let mut opt = Sgd::new(0.1, 0.0);
            opt.step(&mut store);
            // The injected NaN zeroed the whole tensor: parameter unchanged,
            // still finite.
            assert_eq!(store.value(p).data()[0], 1.0);
        });
    }

    #[test]
    fn optimizers_handle_params_added_after_creation() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::scalar(1.0));
        let mut opt = Sgd::new(0.1, 0.5);
        *store.grad_mut(a) = Tensor::scalar(1.0);
        opt.step(&mut store);
        // A new parameter appears later; the optimizer must grow its state.
        let b = store.add("b", Tensor::scalar(2.0));
        store.zero_grads();
        *store.grad_mut(b) = Tensor::scalar(1.0);
        opt.step(&mut store);
        assert!(store.value(b).data()[0] < 2.0);
    }
}
