//! First-order optimizers over a [`ParamStore`], each step one fused pass
//! per tensor.
//!
//! A step visits each tensor once — the gradient clip's rescale, the
//! non-finite check, the moment updates and the value update back to back
//! while the tensor is in cache — and fans contiguous runs of tensors of
//! about equal size out over the pool. Each element's operations are the
//! per-tensor passes' roundings in their order (the `cfg(test)` reference
//! in this file), and no element depends on another, so the bits are the
//! same at any pool width.
//!
//! One probe needs an order: `optim.grad` poisons gradients by hit
//! number, and a plan's hits are counted in the order the probe is passed.
//! When a plan is armed the pass runs as one run, in parameter order, and
//! each tensor meets the probe after its rescale and before its finite
//! check, as it always did.

use deeprest_fault as fault;
use deeprest_telemetry as telemetry;
use deeprest_tensor::{BufferPool, ParamStore, Pool, Tensor};

use crate::split_front;

/// The bound every training step clips the global gradient norm to,
/// offline and online alike.
pub const GRAD_CLIP: f32 = 5.0;

/// Most runs one fused pass fans out as; a wider pool takes longer runs.
const MAX_RUNS: usize = 16;

/// Emits the per-step telemetry shared by all optimizers. The gradient
/// norm is a full pass over every gradient tensor, so it is only computed
/// when a sink is installed.
fn record_step(store: &ParamStore) {
    if telemetry::enabled() {
        telemetry::counter("optim.steps", 1);
        telemetry::gauge("optim.grad_norm", f64::from(store.grad_norm()));
    }
}

/// One rule's per-element update, with its constants for this step.
#[derive(Clone, Copy)]
enum Update {
    Sgd {
        lr: f32,
    },
    Momentum {
        lr: f32,
        momentum: f32,
    },
    Adam {
        lr: f32,
        beta1: f32,
        beta2: f32,
        eps: f32,
        bc1: f32,
        bc2: f32,
    },
}

impl Update {
    /// The whole step of one tensor: rescale by the clip's `scale` (if
    /// any) while folding finiteness over every element, then let an armed
    /// plan's `optim.grad` probe poison the gradient; zero the gradient
    /// when any element is non-finite (a plain SGD step is then a no-op,
    /// momentum and Adam state a pure decay, all finite); update. `first`
    /// is Sgd's velocity or Adam's first moment (empty for plain SGD),
    /// `second` Adam's second moment (empty otherwise). Returns whether the
    /// gradient was zeroed.
    fn tensor(
        self,
        scale: Option<f32>,
        value: &mut [f32],
        grad: &mut [f32],
        (first, second): (&mut [f32], &mut [f32]),
    ) -> bool {
        // Not `all`: a fold the compiler can run eight lanes wide.
        let all_finite = |grad: &[f32]| grad.iter().fold(true, |ok, g| ok & g.is_finite());
        let mut finite = match scale {
            Some(s) => grad.iter_mut().fold(true, |ok, g| {
                *g *= s;
                ok & g.is_finite()
            }),
            None => all_finite(grad),
        };
        if fault::enabled() {
            fault::poison_f32s("optim.grad", grad);
            finite = finite && all_finite(grad);
        }
        if !finite {
            grad.fill(0.0);
        }
        match self {
            Self::Sgd { lr } => {
                for (x, &g) in value.iter_mut().zip(grad.iter()) {
                    *x += (-lr) * g;
                }
            }
            Self::Momentum { lr, momentum } => {
                for ((x, v), &g) in value.iter_mut().zip(first).zip(grad.iter()) {
                    *v = (*v * momentum) + g;
                    *x += (-lr) * *v;
                }
            }
            Self::Adam {
                lr,
                beta1,
                beta2,
                eps,
                bc1,
                bc2,
            } => {
                let (one_minus_beta1, one_minus_beta2) = (1.0 - beta1, 1.0 - beta2);
                let state = first.iter_mut().zip(second);
                for ((x, (m, v)), &g) in value.iter_mut().zip(state).zip(grad.iter()) {
                    *m = (*m * beta1) + (one_minus_beta1 * g);
                    *v = (*v * beta2) + (one_minus_beta2 * (g * g));
                    *x -= (lr * (*m / bc1)) / ((*v / bc2).sqrt() + eps);
                }
            }
        }
        !finite
    }
}

/// A contiguous run of parameters, everything the fused pass writes for
/// them, and what it counted.
#[derive(Default)]
struct Run<'a> {
    values: &'a mut [Tensor],
    grads: &'a mut [Tensor],
    first: &'a mut [Tensor],
    second: &'a mut [Tensor],
    skipped: u64,
}

/// Tensor `j` of a rule's state, or nothing when the rule keeps none.
fn state_of(state: &mut [Tensor], j: usize) -> &mut [f32] {
    state.get_mut(j).map_or(&mut [], Tensor::data_mut)
}

/// One step of `update` over every parameter of `store` and the state
/// tensors (`first`, `second`; empty when the rule keeps none) parallel to
/// it: the clip's `scale`, the finite check and the update, one fused pass
/// per tensor fanned out in runs of about equal element count.
fn fused_step(
    store: &mut ParamStore,
    pool: &Pool,
    update: Update,
    scale: Option<f32>,
    state: (&mut [Tensor], &mut [Tensor]),
) {
    let (total, n) = (store.scalar_count(), store.len());
    // An armed plan counts `optim.grad` hits in the order the probe is
    // passed: one run, in parameter order, on this thread.
    let parts = if fault::enabled() {
        1
    } else {
        pool.threads().min(MAX_RUNS).min(n).max(1)
    };
    let (mut values, mut grads) = store.values_grads_mut();
    let (mut first, mut second) = state;
    let mut runs: [Run<'_>; MAX_RUNS] = Default::default();
    let (mut at, mut acc) = (0, 0);
    for (r, run) in runs[..parts].iter_mut().enumerate() {
        let start = at;
        while at < n && (r + 1 == parts || acc * parts < total * (r + 1)) {
            acc += values[at - start].len();
            at += 1;
        }
        let len = at - start;
        *run = Run {
            values: split_front(&mut values, len),
            grads: split_front(&mut grads, len),
            first: split_front(&mut first, len),
            second: split_front(&mut second, len),
            skipped: 0,
        };
    }
    pool.for_each_mut(&mut runs[..parts], |_, run| {
        for j in 0..run.values.len() {
            let skipped = update.tensor(
                scale,
                run.values[j].data_mut(),
                run.grads[j].data_mut(),
                (state_of(run.first, j), state_of(run.second, j)),
            );
            run.skipped += u64::from(skipped);
        }
    });
    let skipped = runs[..parts].iter().map(|r| r.skipped).sum::<u64>();
    if skipped > 0 {
        telemetry::counter("optim.skipped_nonfinite", skipped);
    }
    record_step(store);
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

    /// Like [`Sgd::step`], fanning the per-tensor passes out across
    /// `pool`. Each tensor's update touches only its own elements, so the
    /// result is bit-identical to the serial [`Sgd::step`] at any width.
    pub fn step_with(&mut self, store: &mut ParamStore, pool: &Pool) {
        self.apply(store, pool, None);
    }

    fn apply(&mut self, store: &mut ParamStore, pool: &Pool, scale: Option<f32>) {
        self.ensure_state(store);
        let (lr, momentum) = (self.lr, self.momentum);
        let (update, velocity): (_, &mut [Tensor]) = if momentum > 0.0 {
            (Update::Momentum { lr, momentum }, &mut self.velocity)
        } else {
            (Update::Sgd { lr }, &mut [])
        };
        fused_step(store, pool, update, scale, (velocity, &mut []));
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

    /// Like [`Adam::step`], fanning the per-tensor passes out across
    /// `pool`. Updates are elementwise-independent, so the result is
    /// bit-identical to the serial path at any width.
    pub fn step_with(&mut self, store: &mut ParamStore, pool: &Pool) {
        self.apply(store, pool, None);
    }

    fn apply(&mut self, store: &mut ParamStore, pool: &Pool, scale: Option<f32>) {
        self.ensure_state(store);
        self.t += 1;
        let update = Update::Adam {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            bc1: 1.0 - self.beta1.powi(self.t),
            bc2: 1.0 - self.beta2.powi(self.t),
        };
        fused_step(store, pool, update, scale, (&mut self.m, &mut self.v));
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

/// The update rule a training step applies
/// ([`AnalyticTrainer::step`](crate::AnalyticTrainer::step)) and the
/// scratch of its gradient clip.
#[derive(Debug)]
pub struct Optimizer {
    rule: Rule,
    /// One gradient norm per parameter: the clip's first pass.
    norms: Vec<f32>,
}

#[derive(Debug)]
enum Rule {
    Sgd(Sgd),
    Adam(Adam),
}

impl From<Sgd> for Optimizer {
    fn from(sgd: Sgd) -> Self {
        Self::of(Rule::Sgd(sgd))
    }
}

impl From<Adam> for Optimizer {
    fn from(adam: Adam) -> Self {
        Self::of(Rule::Adam(adam))
    }
}

impl Optimizer {
    fn of(rule: Rule) -> Self {
        Self {
            rule,
            norms: Vec::new(),
        }
    }

    /// One unclipped step of the rule, as its own `step_with`.
    pub fn step_with(&mut self, store: &mut ParamStore, pool: &Pool) {
        self.apply(store, pool, None);
    }

    /// Clips the global gradient norm at `max_norm` and steps, one fused
    /// pass per tensor: the bits of [`ParamStore::clip_grad_norm`] followed
    /// by [`step_with`](Self::step_with). The per-tensor norms are computed
    /// across `pool` and summed in parameter order. Returns the pre-clip
    /// norm.
    pub(crate) fn step_clipped(
        &mut self,
        store: &mut ParamStore,
        pool: &Pool,
        max_norm: f32,
    ) -> f32 {
        self.norms.resize(store.len(), 0.0);
        let norm = store.grad_norm_with(pool, &mut self.norms);
        let scale = (norm > max_norm && norm > 0.0).then(|| max_norm / norm);
        self.apply(store, pool, scale);
        norm
    }

    fn apply(&mut self, store: &mut ParamStore, pool: &Pool, scale: Option<f32>) {
        match &mut self.rule {
            Rule::Sgd(sgd) => sgd.apply(store, pool, scale),
            Rule::Adam(adam) => adam.apply(store, pool, scale),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// The per-tensor passes the fused step replaced, kept as its
    /// reference: the gradient clip, then the optimizers' sanitize (probe,
    /// then a short-circuit finite check per tensor) and their separate
    /// passes over velocity or moments and values.
    mod reference {
        use super::*;

        pub(super) fn clip_grad_norm(store: &mut ParamStore, max_norm: f32) -> f32 {
            let norm = store
                .grads()
                .iter()
                .map(|g| {
                    let n = g.norm();
                    n * n
                })
                .sum::<f32>()
                .sqrt();
            if norm > max_norm && norm > 0.0 {
                let scale = max_norm / norm;
                for g in store.values_grads_mut().1 {
                    g.scale_assign(scale);
                }
            }
            norm
        }

        fn sanitize_grads(store: &mut ParamStore) {
            for grad in store.values_grads_mut().1 {
                fault::poison_f32s("optim.grad", grad.data_mut());
                if grad.data().iter().any(|g| !g.is_finite()) {
                    grad.fill_zero();
                }
            }
        }

        fn zeros_like(store: &ParamStore) -> Vec<Tensor> {
            store
                .grads()
                .iter()
                .map(|g| Tensor::zeros(g.rows(), g.cols()))
                .collect()
        }

        pub(super) fn sgd(
            store: &mut ParamStore,
            velocity: &mut Vec<Tensor>,
            lr: f32,
            momentum: f32,
        ) {
            if velocity.is_empty() {
                *velocity = zeros_like(store);
            }
            sanitize_grads(store);
            let (values, grads) = store.values_grads_mut();
            if momentum > 0.0 {
                for (v, g) in velocity.iter_mut().zip(grads.iter()) {
                    v.scale_assign(momentum);
                    v.add_assign(g);
                }
                for (value, v) in values.iter_mut().zip(velocity.iter()) {
                    value.axpy(-lr, v);
                }
            } else {
                for (value, g) in values.iter_mut().zip(grads.iter()) {
                    value.axpy(-lr, g);
                }
            }
        }

        pub(super) fn adam(
            store: &mut ParamStore,
            (m, v, t): (&mut Vec<Tensor>, &mut Vec<Tensor>, &mut i32),
            lr: f32,
        ) {
            let (beta1, beta2, eps) = (0.9f32, 0.999f32, 1e-8f32);
            if m.is_empty() {
                *m = zeros_like(store);
                *v = zeros_like(store);
            }
            sanitize_grads(store);
            *t += 1;
            let bc1 = 1.0 - beta1.powi(*t);
            let bc2 = 1.0 - beta2.powi(*t);
            let (values, grads) = store.values_grads_mut();
            for (m, g) in m.iter_mut().zip(grads.iter()) {
                m.scale_assign(beta1);
                m.axpy(1.0 - beta1, g);
            }
            for (v, g) in v.iter_mut().zip(grads.iter()) {
                v.scale_assign(beta2);
                let one_minus_beta2 = 1.0 - beta2;
                for (v, &g) in v.data_mut().iter_mut().zip(g.data().iter()) {
                    *v += one_minus_beta2 * (g * g);
                }
            }
            for ((value, m), v) in values.iter_mut().zip(m.iter()).zip(v.iter()) {
                for i in 0..value.len() {
                    let m_hat = m.data()[i] / bc1;
                    let v_hat = v.data()[i] / bc2;
                    value.data_mut()[i] -= lr * m_hat / (v_hat.sqrt() + eps);
                }
            }
        }
    }

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

    fn bits(tensors: &[Tensor]) -> Vec<Vec<u32>> {
        tensors
            .iter()
            .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    /// A gradient element drawn with a heavy dose of the values the fused
    /// pass must treat exactly like the reference: zeros of both signs, NaN
    /// and infinities.
    fn laden(rng: &mut impl Rng, specials: bool) -> f32 {
        match rng.gen_range(0..16) {
            0 => 0.0,
            1 => -0.0,
            2 if specials => f32::NAN,
            3 if specials => f32::INFINITY,
            4 if specials => f32::NEG_INFINITY,
            _ => rng.gen_range(-3.0f32..3.0),
        }
    }

    /// A store of `tensors` parameters of ragged sizes (some empty).
    fn store_of(rng: &mut impl Rng, tensors: usize) -> ParamStore {
        let mut store = ParamStore::new();
        for p in 0..tensors {
            let (rows, cols) = (rng.gen_range(0..9), rng.gen_range(1..5));
            let values = (0..rows * cols)
                .map(|_| rng.gen_range(-1.0f32..1.0))
                .collect();
            store.add(format!("p{p}"), Tensor::from_vec(rows, cols, values));
        }
        store
    }

    fn set_grads(store: &mut ParamStore, rng: &mut impl Rng, specials: bool) {
        for grad in store.values_grads_mut().1 {
            // Most tensors finite, so updates happen; some poisoned.
            let poisoned = specials && rng.gen_range(0..3) == 0;
            for g in grad.data_mut() {
                *g = laden(rng, poisoned);
            }
        }
    }

    /// The rule a case draws, as a fused optimizer and a reference step.
    #[derive(Clone, Copy, Debug)]
    enum Drawn {
        Sgd,
        Momentum,
        Adam,
    }

    /// Optimizer state as bits: velocity, or both moments and the step.
    fn state_bits(opt: &Optimizer) -> Vec<Vec<Vec<u32>>> {
        match &opt.rule {
            Rule::Sgd(sgd) => vec![bits(&sgd.velocity)],
            Rule::Adam(adam) => vec![bits(&adam.m), bits(&adam.v), vec![vec![adam.t as u32]]],
        }
    }

    /// Steps one store through the fused clip-and-step and a copy through
    /// the reference passes, three times, asserting values, gradients and
    /// optimizer state bit-equal after each step.
    fn assert_fused_matches_reference(
        seed: u64,
        tensors: usize,
        rule: Drawn,
        clip: f32,
        threads: usize,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut fused = store_of(&mut rng, tensors);
        let mut reference = fused.clone();
        let pool = Pool::with_threads(threads);
        let (lr, momentum) = (0.05, 0.9);
        let mut opt = match rule {
            Drawn::Sgd => Optimizer::from(Sgd::new(lr, 0.0)),
            Drawn::Momentum => Optimizer::from(Sgd::new(lr, momentum)),
            Drawn::Adam => Optimizer::from(Adam::new(lr)),
        };
        let (mut m, mut v, mut t) = (Vec::new(), Vec::new(), 0);
        for step in 0..3 {
            set_grads(&mut fused, &mut rng, step != 1);
            for (r, f) in reference.values_grads_mut().1.iter_mut().zip(fused.grads()) {
                r.data_mut().copy_from_slice(f.data());
            }
            let norm = opt.step_clipped(&mut fused, &pool, clip);
            let want = reference::clip_grad_norm(&mut reference, clip);
            match rule {
                Drawn::Sgd => reference::sgd(&mut reference, &mut m, lr, 0.0),
                Drawn::Momentum => reference::sgd(&mut reference, &mut m, lr, momentum),
                Drawn::Adam => reference::adam(&mut reference, (&mut m, &mut v, &mut t), lr),
            }
            let case = format!("seed {seed} {rule:?} clip {clip} threads {threads} step {step}");
            assert_eq!(norm.to_bits(), want.to_bits(), "{case}: norm");
            assert_eq!(
                bits(fused.values_grads_mut().0),
                bits(reference.values_grads_mut().0),
                "{case}: values"
            );
            assert_eq!(
                bits(fused.grads()),
                bits(reference.grads()),
                "{case}: grads"
            );
            // Plain SGD keeps no state the step reads.
            let want_state = match rule {
                Drawn::Sgd => state_bits(&opt),
                Drawn::Momentum => vec![bits(&m)],
                Drawn::Adam => vec![bits(&m), bits(&v), vec![vec![t as u32]]],
            };
            assert_eq!(state_bits(&opt), want_state, "{case}: state");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The fused clip-and-step is the reference chain bit for bit, for
        /// every rule, with the clip active (a bound below any drawn norm)
        /// and inactive, at pool widths 1, 2 and 4.
        #[test]
        fn fused_step_matches_the_per_tensor_passes(
            seed in any::<u64>(),
            tensors in 1usize..24,
            rule in 0usize..3,
            active in any::<bool>(),
        ) {
            let rule = [Drawn::Sgd, Drawn::Momentum, Drawn::Adam][rule];
            let clip = if active { 0.25 } else { 1e30 };
            for threads in [1, 2, 4] {
                assert_fused_matches_reference(seed, tensors, rule, clip, threads);
            }
        }
    }

    /// With a plan armed, the `optim.grad` probe still sees every tensor
    /// in parameter order after the rescale: the same hits poison the same
    /// elements as in the reference chain.
    #[test]
    fn an_armed_probe_poisons_what_it_poisoned_before() {
        let plan = std::sync::Arc::new(deeprest_fault::FaultPlan::new(5).prob("optim.grad", 0.3));
        for (seed, rule) in [(1, Drawn::Sgd), (2, Drawn::Momentum), (3, Drawn::Adam)] {
            for threads in [1, 2, 4] {
                // One plan scope per path: each starts its hit count at 0.
                let fused = deeprest_fault::with_plan(plan.clone(), || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                    let mut store = store_of(&mut rng, 12);
                    set_grads(&mut store, &mut rng, false);
                    let mut opt = match rule {
                        Drawn::Sgd => Optimizer::from(Sgd::new(0.05, 0.0)),
                        Drawn::Momentum => Optimizer::from(Sgd::new(0.05, 0.9)),
                        Drawn::Adam => Optimizer::from(Adam::new(0.05)),
                    };
                    opt.step_clipped(&mut store, &Pool::with_threads(threads), 0.5);
                    store
                });
                let mut reference = deeprest_fault::with_plan(plan.clone(), || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                    let mut store = store_of(&mut rng, 12);
                    set_grads(&mut store, &mut rng, false);
                    reference::clip_grad_norm(&mut store, 0.5);
                    let (mut m, mut v, mut t) = (Vec::new(), Vec::new(), 0);
                    match rule {
                        Drawn::Sgd => reference::sgd(&mut store, &mut m, 0.05, 0.0),
                        Drawn::Momentum => reference::sgd(&mut store, &mut m, 0.05, 0.9),
                        Drawn::Adam => reference::adam(&mut store, (&mut m, &mut v, &mut t), 0.05),
                    }
                    store
                });
                let mut fused = fused;
                assert_eq!(
                    bits(fused.values_grads_mut().0),
                    bits(reference.values_grads_mut().0)
                );
                assert_eq!(bits(fused.grads()), bits(reference.grads()));
                assert!(reference
                    .grads()
                    .iter()
                    .any(|g| g.data().iter().all(|&v| v == 0.0) && !g.is_empty()));
            }
        }
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
