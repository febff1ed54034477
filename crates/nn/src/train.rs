//! Tape-free analytic training engine for the multi-expert estimator.
//!
//! The general autodiff tape records ~19 nodes per expert per timestep and
//! walks them one by one in the reverse sweep. This module replaces that hot
//! path with hand-derived truncated-BPTT over the packed [`ExpertSlab`],
//! which the trainer borrows per batch and never owns: the caller packs it
//! next to the store (see the slab's ownership note), and
//! [`AnalyticTrainer::step`] is the one training step over the two — the
//! backward below, then the gradient clip, the optimizer and the repack.
//!
//! * **Forward** — the slab's own forward (`mask_into` → `step_range` →
//!   `gather_hidden` → `heads`, the calls serving steps, each window with
//!   its support), run per timestep over a whole shard of experts, with
//!   [`GateStash`] arenas handed to the GRU step so the gate activations
//!   `z`, `k`, `h̃` (and the hidden states) land in preallocated strided
//!   arenas instead of tape nodes. Nothing of the forward is restated here.
//! * **Backward** — closed-form GRU gate gradients consume the stashed
//!   activations with transposed GEMVs (`gemv_t_into`, `gemv_t_acc_into`),
//!   walking timesteps in descending order exactly as the tape's reverse
//!   sweep would. Its pull-backs (`Wᵀ·d`, `Uᵀ·d`, `Sᵀ·g`) multiply by the
//!   *row-major* gate, recurrent and skip matrices, which is how the
//!   [`ParamStore`] holds them; the slab holds the same values input-major
//!   for the forward. So the forward reads the slab and the backward reads
//!   the store, and the two agree because the slab is repacked after every
//!   store write. Only the recurrence is per step: each step's weight-
//!   gradient operands (`d_t`, `x̃_t`, `h_{t-1}`, `k⊙h_{t-1}`, `g_y_t`,
//!   `cat_t`) go to per-job arenas, and each weight gradient lands once
//!   per subsequence as one rank-`T` update (`outer_acc_steps_into`); the
//!   cross-expert attention pull-back, which reads only phase B's `g_att`
//!   and `α`, is computed for a whole shard and every step before the
//!   sweep, one rank-`E` update per step (the source experts as the
//!   update's steps) against a row-major copy of `α`. The input pull-back
//!   `g_x̃` feeds only the mask gradient `g_x̃ ⊙ x`, so it is computed with
//!   the mask on and only on the blocks of the window's support.
//! * **The step** — after the backward, the fold writes each gradient
//!   from its arena blocks, then the clip's per-tensor norms and the
//!   optimizer's fused update ([`crate::Optimizer`]), each one pass per
//!   tensor fanned out over the pool, and the serial repack.
//!
//! # Bit-identity with the tape oracle
//!
//! The tape formulation is kept as a test-only differential oracle (the
//! dev-dependency `deeprest-tape`; driven here by
//! `tests/prop_analytic_train.rs` and at model level by `crates/core`'s
//! `#[cfg(test)]` `oracle.rs`), and this engine reproduces its accumulated
//! gradients *bit for bit*:
//!
//! * Every contraction runs the lane-blocked contract on the operands the
//!   tape's `matmul` and its backward (`g · bᵀ`, `aᵀ · g`) multiply, so each
//!   partial gradient carries identical bits.
//! * Per-parameter accumulation replays the tape's reverse-sweep order:
//!   timesteps descending, and within a gradient slot the exact operand
//!   order of the tape's node sequence (e.g. the carried-state gradient is
//!   `g⊙z`, then `+ (U_hᵀd_h̃)⊙k`-path, then `+ U_kᵀd_k`, then `+ U_zᵀd_z`).
//!   Moving an accumulation out of the step loop moves no addend: a weight
//!   gradient element still receives its step products `t`-descending, one
//!   add each, and each lane of the attention pull-back its source experts
//!   in descending order.
//! * The tape's kernels end every product of a rank-1 update (a `k = 1`
//!   dot) and of the attention fan-in in `+ 0.0`. Both sums here start at
//!   `+0.0` (zero-filled arenas, a zeroed accumulator) and so never hold
//!   `-0.0`, which is the one value on which adding `p` and adding
//!   `p + 0.0` differ: the engine adds `p` (`kernel`'s signed-zero lemma).
//! * The tape normalizes `-0.0` partial sums when a zero-initialized
//!   `GradBuffer` slot absorbs them; the fold writes the first batch
//!   position's arena value `+ 0.0` (the bits of adding it to a zeroed
//!   gradient) and adds the others in batch order, which performs the same
//!   normalization, and a zero's sign is the only thing that can differ
//!   mid-chain (IEEE-754 `x + ±0.0 = x` for `x ≠ 0`).
//! * Sharding never splits a contraction: experts are data-parallel except
//!   for the attention term, whose cross-expert sums are computed per
//!   target from a serially gathered global arena in a fixed
//!   expert-descending order. Gradients are therefore identical at any
//!   thread count, and the fold (every element takes the batch positions
//!   in order) matches the tape's per-subsequence `absorb` order.
//!
//! `tests/prop_analytic_train.rs` proves the equivalence property-based;
//! `crates/core/tests/determinism.rs` holds it end to end.

use std::ops::Range;

use deeprest_telemetry as telemetry;
use deeprest_tensor::kernel::{
    gemv_t_acc_into, gemv_t_into, gemv_t_live_acc_into, gemv_t_live_into, outer_acc_steps_into,
    Support,
};
use deeprest_tensor::{BufferPool, ParamStore, Pool};

use crate::optim::{Optimizer, GRAD_CLIP};
use crate::slab::{ExpertSlab, ExpertSpec, GateStash};

/// Static configuration of an [`AnalyticTrainer`].
#[derive(Clone, Copy, Debug)]
pub struct TrainerConfig {
    /// Feature dimensionality `d`.
    pub input_dim: usize,
    /// GRU hidden units `h`.
    pub hidden_dim: usize,
    /// Maximum truncated-BPTT subsequence length (the last subsequence of a
    /// series may be shorter).
    pub max_steps: usize,
    /// Number of persistent batch-position slots (the optimizer batch size
    /// capped by the subsequence count).
    pub batch_slots: usize,
    /// Whether the sigmoid feature mask is trained (`false` freezes it at
    /// all-ones with no gradient, matching the tape's ablation).
    pub api_mask: bool,
    /// Whether cross-expert attention is active.
    pub attention: bool,
    /// `Some(mask_l1 / (dim · experts))` when the L1 mask penalty is active
    /// (the tape's exact coefficient); `None` disables the penalty.
    pub penalty: Option<f32>,
    /// The three pinball-loss quantiles.
    pub quantiles: [f32; 3],
    /// Per-quantile gradient modulation applied in the pinball backward
    /// (arXiv 2508.01635): the loss *value* is untouched, only `∂ℓ/∂ŷ` of
    /// each head is scaled. `[1.0; 3]` is a bitwise no-op (IEEE-754
    /// `1.0·x = x`), preserving exact tape-oracle equivalence; online
    /// adaptation lowers the factor of a head that is currently over-fit.
    pub modulation: [f32; 3],
}

/// Per-batch-position training statistics, matching the tape path's
/// bookkeeping bit for bit.
#[derive(Clone, Debug)]
pub struct SlotStats {
    /// `loss · n_terms` for this subsequence (pre-batch-scale loss,
    /// including the mask penalty).
    pub loss_sum: f32,
    /// Number of pinball terms (`steps · experts`).
    pub n_terms: usize,
    /// Sum of pinball terms per expert, timestep-ascending.
    pub expert_sums: Vec<f32>,
}

/// Per-(batch position, shard) state: activation stashes, gradient arenas
/// and scratch. Everything is allocated once at trainer construction; a warm
/// training step performs zero heap allocations.
struct ShardJob {
    /// Index into the slab's shard plan, and that shard's expert range.
    shard: usize,
    lo: usize,
    count: usize,
    /// Subsequence start/window count for the current batch.
    start: usize,
    steps: usize,
    /// Upstream pinball seed `(1·scale)·(1/n_terms)` for the current batch.
    s2: f32,
    /// Mask-penalty seed `(1·scale)·penalty` (0 when inactive).
    s3: f32,
    scratch: BufferPool,
    // Forward and head stashes, strided `[t][expert][element]`.
    z: Vec<f32>,
    k: Vec<f32>,
    ht: Vec<f32>,
    h: Vec<f32>,
    terms: Vec<f32>,
    g_att: Vec<f32>,
    g_hh: Vec<f32>,
    // Rank-`T` operands that outlive one expert, `[expert][t][element]`
    // (`t` strided by `max_steps`): the head gradient `g_y_t` and `cat_t`.
    g_y: Vec<f32>,
    cat_steps: Vec<f32>,
    // One expert's phase-C operands, `[t][element]`: the gate gradients
    // `d_t = [d_z; d_k; d_h̃]`, `x̃_t`, `h_{t-1}` and `k⊙h_{t-1}`.
    d_steps: Vec<f32>,
    x_steps: Vec<f32>,
    hp_steps: Vec<f32>,
    gated_steps: Vec<f32>,
    /// The attention pull-back into every expert's carried state,
    /// `[t][expert][element]`.
    att_steps: Vec<f32>,
    // Gradient arenas, one block per expert in the shard.
    gw: Vec<f32>,
    gu_zk: Vec<f32>,
    gu_h: Vec<f32>,
    gbias: Vec<f32>,
    gmask: Vec<f32>,
    galpha: Vec<f32>,
    ghead_w: Vec<f32>,
    ghead_b: Vec<f32>,
    gskip_w: Vec<f32>,
    gskip_b: Vec<f32>,
    // Per-timestep work buffers.
    xbuf: Vec<f32>,
    /// Each timestep's support, filled by the forward (capacity `d`, so
    /// never regrown) and read again by the heads and the input pull-back.
    supports: Vec<Support>,
    hidden: Vec<f32>,
    cat: Vec<f32>,
    ybuf: Vec<f32>,
    gcat: Vec<f32>,
    zpre: Vec<f32>,
    ggated: Vec<f32>,
    gx: Vec<f32>,
    dh: Vec<f32>,
    dhp: Vec<f32>,
}

impl ShardJob {
    fn new(shard: usize, slab: &ExpertSlab, cfg: &TrainerConfig) -> Self {
        let (d, h, t) = (cfg.input_dim, cfg.hidden_dim, cfg.max_steps);
        let e_total = slab.experts();
        let range = slab.shards()[shard].clone();
        let c = range.len();
        let att_len = if cfg.attention { t * c * h } else { 0 };
        let skip_w_len = if slab.has_skip() { c * 3 * d } else { 0 };
        let skip_b_len = if slab.has_skip() { c * 3 } else { 0 };
        Self {
            shard,
            lo: range.start,
            count: c,
            start: 0,
            steps: 0,
            s2: 0.0,
            s3: 0.0,
            scratch: BufferPool::new(),
            z: vec![0.0; t * c * h],
            k: vec![0.0; t * c * h],
            ht: vec![0.0; t * c * h],
            h: vec![0.0; t * c * h],
            terms: vec![0.0; t * c],
            g_att: vec![0.0; att_len],
            g_hh: vec![0.0; t * c * h],
            g_y: vec![0.0; c * t * 3],
            cat_steps: vec![0.0; c * t * 2 * h],
            d_steps: vec![0.0; t * 3 * h],
            x_steps: vec![0.0; t * d],
            hp_steps: vec![0.0; t * h],
            gated_steps: vec![0.0; t * h],
            att_steps: vec![0.0; att_len],
            gw: vec![0.0; c * 3 * h * d],
            gu_zk: vec![0.0; c * 2 * h * h],
            gu_h: vec![0.0; c * h * h],
            gbias: vec![0.0; c * 3 * h],
            gmask: vec![0.0; if cfg.api_mask { c * d } else { 0 }],
            galpha: vec![0.0; if cfg.attention { c * e_total } else { 0 }],
            ghead_w: vec![0.0; c * 3 * 2 * h],
            ghead_b: vec![0.0; c * 3],
            gskip_w: vec![0.0; skip_w_len],
            gskip_b: vec![0.0; skip_b_len],
            xbuf: vec![0.0; c * d],
            supports: (0..t).map(|_| Support::with_capacity(d)).collect(),
            hidden: vec![0.0; c * h],
            cat: vec![0.0; c * 2 * h],
            ybuf: vec![0.0; c * 3],
            gcat: vec![0.0; 2 * h],
            zpre: vec![0.0; h],
            ggated: vec![0.0; h],
            gx: vec![0.0; d],
            dh: vec![0.0; h],
            dhp: vec![0.0; h],
        }
    }

    /// Resets the gradient arenas for a new optimizer step and records the
    /// subsequence bounds plus upstream seeds.
    fn arm(&mut self, start: usize, steps: usize, s1: f32, e_total: usize, cfg: &TrainerConfig) {
        self.start = start;
        self.steps = steps;
        let n_terms = steps * e_total;
        self.s2 = s1 * (1.0 / n_terms as f32);
        self.s3 = cfg.penalty.map_or(0.0, |c| s1 * c);
        for buf in [
            &mut self.gw,
            &mut self.gu_zk,
            &mut self.gu_h,
            &mut self.gbias,
            &mut self.galpha,
            &mut self.ghead_w,
            &mut self.ghead_b,
            &mut self.gskip_w,
            &mut self.gskip_b,
        ] {
            buf.fill(0.0);
        }
        // The tape seeds the mask-sigmoid slot with the penalty's `SumAll`
        // backward fill *before* the per-timestep contributions arrive
        // (highest node index first); pre-filling reproduces that exactly.
        self.gmask
            .fill(if cfg.penalty.is_some() { self.s3 } else { 0.0 });
        self.hidden.fill(0.0);
    }
}

/// A gradient arena of [`ShardJob`], one block per expert of the shard.
#[derive(Clone, Copy, Debug)]
enum Arena {
    Mask,
    W,
    Uzk,
    Uh,
    Bias,
    Alpha,
    HeadW,
    HeadB,
    SkipW,
    SkipB,
}

impl ShardJob {
    fn arena(&self, arena: Arena) -> &[f32] {
        match arena {
            Arena::Mask => &self.gmask,
            Arena::W => &self.gw,
            Arena::Uzk => &self.gu_zk,
            Arena::Uh => &self.gu_h,
            Arena::Bias => &self.gbias,
            Arena::Alpha => &self.galpha,
            Arena::HeadW => &self.ghead_w,
            Arena::HeadB => &self.ghead_b,
            Arena::SkipW => &self.gskip_w,
            Arena::SkipB => &self.gskip_b,
        }
    }
}

/// Where a parameter's gradient comes from: one block of one arena of the
/// shard that holds its expert, at every batch position.
#[derive(Clone, Copy, Debug)]
struct FoldSource {
    shard: usize,
    arena: Arena,
    at: usize,
}

/// The fold plan of `slab`'s swarm, indexed by parameter: each parameter
/// the backward trains, and the arena block it is folded from.
///
/// # Panics
///
/// Panics if two roles of the swarm share one parameter.
fn fold_plan(slab: &ExpertSlab, cfg: &TrainerConfig) -> Vec<Option<FoldSource>> {
    let (d, h, e_total) = (cfg.input_dim, cfg.hidden_dim, slab.experts());
    let mut plan = Vec::new();
    for (shard, range) in slab.shards().iter().enumerate() {
        for (c, spec) in slab.specs()[range.clone()].iter().enumerate() {
            let cell = &spec.cell;
            let mut roles = vec![
                (cell.wz, Arena::W, c * 3 * h * d),
                (cell.wk, Arena::W, c * 3 * h * d + h * d),
                (cell.wh, Arena::W, c * 3 * h * d + 2 * h * d),
                (cell.uz, Arena::Uzk, c * 2 * h * h),
                (cell.uk, Arena::Uzk, c * 2 * h * h + h * h),
                (cell.uh, Arena::Uh, c * h * h),
                (cell.bz, Arena::Bias, c * 3 * h),
                (cell.bk, Arena::Bias, c * 3 * h + h),
                (cell.bh, Arena::Bias, c * 3 * h + 2 * h),
                (spec.head.w, Arena::HeadW, c * 6 * h),
                (spec.head.b, Arena::HeadB, c * 3),
            ];
            if cfg.api_mask {
                roles.push((spec.mask, Arena::Mask, c * d));
            }
            if cfg.attention {
                roles.push((spec.alpha, Arena::Alpha, c * e_total));
            }
            if let Some(skip) = &spec.skip {
                roles.push((skip.w, Arena::SkipW, c * 3 * d));
                roles.push((skip.b, Arena::SkipB, c * 3));
            }
            for (id, arena, at) in roles {
                let i = id.index();
                if plan.len() <= i {
                    plan.resize(i + 1, None);
                }
                assert!(
                    plan[i].is_none(),
                    "AnalyticTrainer: parameter #{i} has two roles"
                );
                plan[i] = Some(FoldSource { shard, arena, at });
            }
        }
    }
    plan
}

/// One optimizer batch: subsequence `starts` into per-window feature rows
/// `xs` and per-expert target series `targets`.
#[derive(Clone, Copy, Debug)]
pub struct Batch<'a> {
    /// Feature rows, one per window.
    pub xs: &'a [Vec<f32>],
    /// Normalized targets, one series per expert.
    pub targets: &'a [Vec<f32>],
    /// Subsequence starts, one per batch position, in fold order.
    pub starts: &'a [usize],
}

/// The analytic trainer: every per-worker arena plus the backward over
/// them. The packed slab it trains is its owner's (see
/// `crate::slab`'s ownership note) and comes in with every
/// [`step`](Self::step); the slab's shard plan is the trainer's worker
/// partition. One instance serves a whole `fit` — arenas are allocated at
/// construction and reused by every batch of every epoch.
pub struct AnalyticTrainer {
    cfg: TrainerConfig,
    jobs: Vec<ShardJob>,
    /// Per batch slot: `H_t` gathered across shards, `[t][element][expert]`.
    hmats: Vec<Vec<f32>>,
    /// Per batch slot: attention-head gradients `[t][expert][element]`.
    g_att_all: Vec<Vec<f32>>,
    /// `α` row-major, `(experts, experts)`: row `e` is expert `e`'s
    /// attention over every expert, self entry zeroed (the tape's
    /// `mask_out`). Refreshed from the store every batch; empty without
    /// attention.
    alpha: Vec<f32>,
    /// Per parameter index: the arena block its gradient is folded from
    /// (`None`: not trained by the backward, so its gradient is zero).
    plan: Vec<Option<FoldSource>>,
    stats: Vec<SlotStats>,
}

impl AnalyticTrainer {
    /// Builds the trainer for `slab`'s geometry (expert count, shape, skip
    /// path, shard plan): allocates every arena for `cfg.batch_slots`
    /// persistent batch positions.
    ///
    /// # Panics
    ///
    /// Panics if `slab` is empty or its shape is not `cfg`'s.
    pub fn new(slab: &ExpertSlab, cfg: TrainerConfig) -> Self {
        let e = slab.experts();
        assert!(e > 0, "AnalyticTrainer: no experts");
        assert_eq!(
            (slab.input_dim(), slab.hidden_dim()),
            (cfg.input_dim, cfg.hidden_dim),
            "AnalyticTrainer: slab shape differs from the configured one"
        );
        let shard_count = slab.shards().len();

        let (h, t) = (cfg.hidden_dim, cfg.max_steps);
        let jobs = (0..cfg.batch_slots)
            .flat_map(|_| (0..shard_count).map(|s| ShardJob::new(s, slab, &cfg)))
            .collect();
        Self {
            jobs,
            hmats: (0..cfg.batch_slots).map(|_| vec![0.0; t * h * e]).collect(),
            g_att_all: (0..cfg.batch_slots)
                .map(|_| vec![0.0; if cfg.attention { t * e * h } else { 0 }])
                .collect(),
            alpha: vec![0.0; if cfg.attention { e * e } else { 0 }],
            plan: fold_plan(slab, &cfg),
            stats: (0..cfg.batch_slots)
                .map(|_| SlotStats {
                    loss_sum: 0.0,
                    n_terms: 0,
                    expert_sums: vec![0.0; e],
                })
                .collect(),
            cfg,
        }
    }

    /// Replaces the per-quantile gradient modulation for subsequent
    /// batches. `[1.0; 3]` restores the exact unmodulated pinball backward
    /// (bitwise — see [`TrainerConfig::modulation`]).
    pub fn set_modulation(&mut self, modulation: [f32; 3]) {
        self.cfg.modulation = modulation;
    }

    /// One optimizer step on one batch, the step every writer of a swarm's
    /// parameters trains through: forward and backward over `slab`, the
    /// batch's gradients written into `store` (the one `slab` was packed
    /// from), the global gradient norm clipped at [`GRAD_CLIP`], `opt`'s
    /// update, and `slab` repacked from the written store, so whoever
    /// steps the swarm next reads the parameters as they are. Each pass
    /// after the backward but the repack is one pass per tensor, fanned
    /// out across `pool`; every element's arithmetic is the serial chain's,
    /// so the step is bit-identical at any width. A warm step allocates
    /// nothing. Returns per-slot statistics in batch order.
    ///
    /// # Panics
    ///
    /// As [`run_batch`](Self::run_batch).
    pub fn step(
        &mut self,
        slab: &mut ExpertSlab,
        store: &mut ParamStore,
        opt: &mut Optimizer,
        pool: &Pool,
        batch: Batch<'_>,
    ) -> &[SlotStats] {
        let nb = self.backward(slab, store, pool, batch);
        opt.step_clipped(store, pool, GRAD_CLIP);
        slab.repack(store);
        &self.stats[..nb]
    }

    /// Runs forward + backward over `slab` for one optimizer batch of
    /// subsequence `starts` and writes the batch's gradients into `store`
    /// (the one `slab` was packed from) in a fixed order (batch position →
    /// shard → expert), so the result is bit-identical to the tape path at
    /// any thread count. Every gradient the backward does not train is
    /// zeroed. Returns per-slot statistics in batch order.
    ///
    /// Forward values come from `slab`, the backward's pull-back operands
    /// from `store` (module docs), so `slab` must be current for `store`:
    /// repacked since its last write. Debug builds refuse a stale slab
    /// (`ExpertSlab::is_current_for`).
    ///
    /// [`step`](Self::step) is this followed by the clip, the optimizer
    /// and the repack.
    ///
    /// # Panics
    ///
    /// Panics if `batch` exceeds the configured slot count, or `slab` is
    /// not shaped and sharded like the one the trainer was built for, or
    /// (in debug builds) is stale for `store`.
    pub fn run_batch(
        &mut self,
        slab: &ExpertSlab,
        store: &mut ParamStore,
        pool: &Pool,
        xs: &[Vec<f32>],
        targets: &[Vec<f32>],
        starts: &[usize],
    ) -> &[SlotStats] {
        let batch = Batch {
            xs,
            targets,
            starts,
        };
        let nb = self.backward(slab, store, pool, batch);
        &self.stats[..nb]
    }

    /// [`run_batch`](Self::run_batch)'s body; returns the batch size.
    fn backward(
        &mut self,
        slab: &ExpertSlab,
        store: &mut ParamStore,
        pool: &Pool,
        batch: Batch<'_>,
    ) -> usize {
        let Batch {
            xs,
            targets,
            starts,
        } = batch;
        let nb = starts.len();
        assert!(nb <= self.cfg.batch_slots, "run_batch: batch too large");
        let e_total = slab.experts();
        let shard_count = slab.shards().len();
        let planned = self.jobs.iter().map(|j| j.lo..j.lo + j.count);
        assert!(
            planned.eq(slab.shards().iter().cloned().cycle().take(self.jobs.len())),
            "run_batch: not the shard plan the trainer was built for"
        );
        debug_assert!(
            slab.is_current_for(store),
            "run_batch: slab is stale for the store (repack after writing parameters)"
        );
        let h = self.cfg.hidden_dim;
        let t_total = xs.len();
        // Backward seed of the batch-mean scale node: `1.0 · scale`.
        let s1 = 1.0f32 * (1.0 / nb as f32);

        let Self {
            cfg,
            jobs,
            hmats,
            g_att_all,
            alpha,
            plan,
            stats,
        } = self;

        for (b, &start) in starts.iter().enumerate() {
            let steps = (start + cfg.max_steps).min(t_total) - start;
            for s in 0..shard_count {
                jobs[b * shard_count + s].arm(start, steps, s1, e_total, cfg);
            }
        }
        let active = &mut jobs[..nb * shard_count];

        // Phase A — forward: advance every shard through its subsequence,
        // stashing gate activations and hidden states per timestep.
        let phase = telemetry::span("train.analytic.forward");
        pool.for_each_mut(active, |_, job| forward_stash(job, slab, xs));

        // Serial: gather the per-timestep hidden matrix `H_t` (rows =
        // elements, cols = experts) across shards for each batch position.
        for (b, hmat) in hmats.iter_mut().enumerate().take(nb) {
            for job in &active[b * shard_count..(b + 1) * shard_count] {
                let span = job.count * h;
                for t in 0..job.steps {
                    slab.gather_hidden(
                        job.lo..job.lo + job.count,
                        &job.h[t * span..(t + 1) * span],
                        &mut hmat[t * h * e_total..(t + 1) * h * e_total],
                    );
                }
            }
        }
        drop(phase);

        // Phase B — heads: attention, concat, quantile outputs, pinball
        // terms and the output stage's backward, timestep-descending.
        let phase = telemetry::span("train.analytic.heads");
        {
            let hmats = &*hmats;
            pool.for_each_mut(active, |i, job| {
                heads_sweep(job, cfg, slab, &hmats[i / shard_count], xs, targets);
            });
        }

        // Serial: publish every shard's attention-head gradients into the
        // per-batch-position global arena for the cross-expert backward,
        // and refresh the row-major `α` the pull-back multiplies by.
        if cfg.attention {
            for b in 0..nb {
                let dst = &mut g_att_all[b];
                for s in 0..shard_count {
                    let job = &active[b * shard_count + s];
                    for t in 0..job.steps {
                        for c in 0..job.count {
                            let e = job.lo + c;
                            dst[(t * e_total + e) * h..][..h]
                                .copy_from_slice(&job.g_att[(t * job.count + c) * h..][..h]);
                        }
                    }
                }
            }
            copy_alpha(alpha, store, slab.specs());
        }
        drop(phase);

        // Phase C — recurrent backward: per expert, walk timesteps in
        // descending order applying the closed-form gate gradients.
        let phase = telemetry::span("train.analytic.backward");
        {
            let (g_att_all, store, alpha) = (&*g_att_all, &*store, &alpha[..]);
            pool.for_each_mut(active, |i, job| {
                gru_sweep(
                    job,
                    cfg,
                    slab,
                    store,
                    alpha,
                    &g_att_all[i / shard_count],
                    xs,
                );
            });
        }
        drop(phase);

        // The fold, one pass per gradient tensor across the pool, then the
        // statistics, serially in the tape's subsequence order.
        let phase = telemetry::span("train.analytic.fold");
        {
            let (active, plan) = (&*active, &plan[..]);
            pool.for_each_mut(store.values_grads_mut().1, |i, grad| {
                fold(
                    grad.data_mut(),
                    plan.get(i).copied().flatten(),
                    active,
                    shard_count,
                );
            });
        }
        for (b, slot) in stats.iter_mut().enumerate().take(nb) {
            slot_stats(
                slot,
                cfg,
                slab,
                &active[b * shard_count..(b + 1) * shard_count],
            );
        }
        drop(phase);
        if telemetry::enabled() {
            telemetry::counter("train.analytic.batches", 1);
        }
        nb
    }
}

/// Phase A body: the slab forward's first two calls per timestep (masked
/// inputs → GRU step), stashing gates and hidden states, for one job.
fn forward_stash(job: &mut ShardJob, slab: &ExpertSlab, xs: &[Vec<f32>]) {
    let range = job.lo..job.lo + job.count;
    let span = job.count * slab.hidden_dim();
    for t in 0..job.steps {
        let at = t * span..(t + 1) * span;
        slab.mask_into(range.clone(), &xs[job.start + t], &mut job.xbuf);
        job.supports[t].fill(&xs[job.start + t]);
        slab.step_range(
            range.clone(),
            &job.xbuf,
            &job.supports[t],
            &mut job.hidden,
            &mut job.scratch,
            Some(GateStash {
                z: &mut job.z[at.clone()],
                k: &mut job.k[at.clone()],
                ht: &mut job.ht[at.clone()],
            }),
        );
        job.h[at].copy_from_slice(&job.hidden);
    }
}

/// Phase B body: the output stage for one job, timestep-descending — the
/// slab forward's [`ExpertSlab::heads`], then the pinball terms and the
/// output stage's backward. Head parameter gradients accumulate here (the
/// weights as one rank-`T` update per expert after the sweep); `g_y_t` is
/// stashed for the skip path's gradients and the attention-head and
/// carried-state gradients for phase C.
fn heads_sweep(
    job: &mut ShardJob,
    cfg: &TrainerConfig,
    slab: &ExpertSlab,
    hmat_b: &[f32],
    xs: &[Vec<f32>],
    targets: &[Vec<f32>],
) {
    let (h, t_max) = (cfg.hidden_dim, cfg.max_steps);
    let (lo, count) = (job.lo, job.count);
    let (e_total, has_skip) = (slab.experts(), slab.has_skip());
    let two_h = 2 * h;
    for t in (0..job.steps).rev() {
        let hmat_t = &hmat_b[t * h * e_total..(t + 1) * h * e_total];
        if has_skip {
            slab.mask_into(lo..lo + count, &xs[job.start + t], &mut job.xbuf);
        }
        slab.heads(
            job.shard,
            hmat_t,
            &job.h[t * count * h..(t + 1) * count * h],
            &job.xbuf,
            &job.supports[t],
            &mut job.cat,
            &mut job.ybuf,
            &mut job.scratch,
        );
        for c in 0..count {
            let e = lo + c;
            let target = targets[e][job.start + t];
            let mut term = 0.0f32;
            let gy = &mut job.g_y[(c * t_max + t) * 3..][..3];
            for (q, g) in gy.iter_mut().enumerate() {
                let qv = cfg.quantiles[q];
                let u = target - job.ybuf[c * 3 + q];
                term += if u >= 0.0 { qv * u } else { (qv - 1.0) * u };
                // Pinball backward: the upstream seed is known a priori
                // (`s2` per term), so the gradient is emitted in the same
                // sweep, scaled by the per-quantile modulation.
                *g = job.s2 * crate::loss::pinball_grad(u, qv, cfg.modulation[q]);
            }
            job.terms[t * count + c] = term;
        }
        for c in 0..count {
            let e = lo + c;
            let gy = &job.g_y[(c * t_max + t) * 3..][..3];
            for (dst, &g) in job.ghead_b[c * 3..][..3].iter_mut().zip(gy) {
                *dst += g;
            }
            job.cat_steps[(c * t_max + t) * two_h..][..two_h]
                .copy_from_slice(&job.cat[c * two_h..(c + 1) * two_h]);
            // g_cat = Wᵀ·g_y; the top half feeds the attention backward,
            // the bottom half joins the carried-state gradient in phase C.
            gemv_t_into(&mut job.gcat, slab.head_w_of(e), 3, two_h, gy);
            job.g_hh[(t * count + c) * h..][..h].copy_from_slice(&job.gcat[h..two_h]);
            if cfg.attention {
                job.g_att[(t * count + c) * h..][..h].copy_from_slice(&job.gcat[..h]);
                // g_α += H_tᵀ · g_att, timestep-descending like the tape's
                // attention matmul backward.
                gemv_t_acc_into(
                    &mut job.galpha[c * e_total..(c + 1) * e_total],
                    hmat_t,
                    h,
                    e_total,
                    &job.gcat[..h],
                );
            }
        }
    }
    let steps = job.steps;
    for c in 0..count {
        outer_acc_steps_into(
            &mut job.ghead_w[c * 3 * two_h..(c + 1) * 3 * two_h],
            &job.g_y[c * t_max * 3..],
            3,
            &job.cat_steps[c * t_max * two_h..][..steps * two_h],
            steps,
        );
    }
    if cfg.attention {
        // The tape's `mask_out` backward zeroes the self entry.
        for c in 0..count {
            job.galpha[c * e_total + lo + c] = 0.0;
        }
    }
}

/// Phase C body: the closed-form GRU backward for one job. Per expert,
/// timesteps descend; every accumulation replays the tape's reverse-sweep
/// operand order (see the module docs). The pull-backs read the row-major
/// weight matrices out of `store`, which `slab` is current for. What does
/// not depend on the recurrence is taken out of the step loop: the
/// attention pull-back of the whole job before it, `x̃_t` and `h_{t-1}` per
/// expert, and every weight gradient after it as one rank-`T` update per
/// family, with per-gate rows in the slab's pack order.
///
/// The input pull-back `g_x̃` (skip path, then `W_hᵀ`, `W_kᵀ`, `W_zᵀ`)
/// feeds nothing but the mask gradient `g ⊙ x`, so it is computed only
/// with the mask on, and then only on the blocks of the window's support:
/// a block where `x` is zero adds `±0.0` to a mask gradient that never
/// holds `-0.0`, which moves no bit (the kernel module's lemma; a
/// non-finite `g_x̃` at a zero of `x` is outside the contract, as in the
/// forward).
fn gru_sweep(
    job: &mut ShardJob,
    cfg: &TrainerConfig,
    slab: &ExpertSlab,
    store: &ParamStore,
    alpha: &[f32],
    g_att_b: &[f32],
    xs: &[Vec<f32>],
) {
    let (d, h, t_max) = (cfg.input_dim, cfg.hidden_dim, cfg.max_steps);
    let (lo, count, steps) = (job.lo, job.count, job.steps);
    let value = |id| store.value(id).data();
    if cfg.attention {
        let att = &mut job.att_steps[..steps * count * h];
        attention_pullback(att, alpha, g_att_b, lo..lo + count, slab.experts(), h);
    }
    for c in 0..count {
        let e = lo + c;
        let ExpertSpec { cell, skip, .. } = &slab.specs()[e];
        for t in 0..steps {
            let x = &xs[job.start + t];
            slab.mask_into(e..e + 1, x, &mut job.x_steps[t * d..(t + 1) * d]);
        }
        job.hp_steps[..h].fill(0.0);
        for t in 1..steps {
            job.hp_steps[t * h..(t + 1) * h]
                .copy_from_slice(&job.h[((t - 1) * count + c) * h..][..h]);
        }
        job.dh.fill(0.0);
        for t in (0..steps).rev() {
            let at = (t * count + c) * h;
            // Carried-state gradient entering step t: phase-C carry-over
            // (+0 at t = steps-1), then the head's `h` slice, then the
            // attention column — the tape's output-stage order.
            for (o, &g) in job.dh.iter_mut().zip(&job.g_hh[at..at + h]) {
                *o += g;
            }
            if cfg.attention {
                for (o, &g) in job.dh.iter_mut().zip(&job.att_steps[at..at + h]) {
                    *o += g;
                }
            }
            let gy = &job.g_y[(c * t_max + t) * 3..][..3];
            if skip.is_some() {
                for (dst, &g) in job.gskip_b[c * 3..][..3].iter_mut().zip(gy) {
                    *dst += g;
                }
            }
            let (z, k, htl) = (&job.z[at..at + h], &job.k[at..at + h], &job.ht[at..at + h]);
            let hp = &job.hp_steps[t * h..(t + 1) * h];
            let (d_zk, d_h) = job.d_steps[t * 3 * h..(t + 1) * 3 * h].split_at_mut(2 * h);
            let gated = &mut job.gated_steps[t * h..(t + 1) * h];
            // Elementwise gate backward, in the tape's per-node expressions:
            //   lerp: g_z_pre = (-(g·h̃)) + (g·h_prev); g_h_prev = g·z (set);
            //         g_h̃ = g·(1-z)
            //   tanh: d_h̃ = g_h̃ · (1 - h̃²)
            for i in 0..h {
                let g = job.dh[i];
                job.zpre[i] = (-(g * htl[i])) + (g * hp[i]);
                job.dhp[i] = g * z[i];
                let db = g * (1.0 - z[i]);
                d_h[i] = db * (1.0 - htl[i] * htl[i]);
                gated[i] = k[i] * hp[i];
            }
            // The reset-product gradient.
            gemv_t_into(&mut job.ggated, value(cell.uh), h, h, d_h);
            // mul(k, h_prev) backward, then the k gate's σ'.
            let (d_z, d_k) = d_zk.split_at_mut(h);
            for i in 0..h {
                job.dhp[i] += job.ggated[i] * k[i];
                d_k[i] = ((job.ggated[i] * hp[i]) * k[i]) * (1.0 - k[i]);
            }
            gemv_t_acc_into(&mut job.dhp, value(cell.uk), h, h, d_k);
            // z gate σ', then its U/W pullbacks.
            for ((dz, &zp), &zv) in d_z.iter_mut().zip(&job.zpre).zip(z) {
                *dz = (zp * zv) * (1.0 - zv);
            }
            gemv_t_acc_into(&mut job.dhp, value(cell.uz), h, h, d_z);
            let d_t = &job.d_steps[t * 3 * h..(t + 1) * 3 * h];
            for (o, &g) in job.gbias[c * 3 * h..(c + 1) * 3 * h].iter_mut().zip(d_t) {
                *o += g;
            }
            if cfg.api_mask {
                let (d_zk, d_h) = d_t.split_at(2 * h);
                let (d_z, d_k) = d_zk.split_at(h);
                mask_pullback(
                    &mut job.gmask[c * d..(c + 1) * d],
                    &mut job.gx,
                    (&xs[job.start + t], &job.supports[t]),
                    skip.map(|skip| (value(skip.w), gy)),
                    [
                        (value(cell.wh), d_h),
                        (value(cell.wk), d_k),
                        (value(cell.wz), d_z),
                    ],
                );
            }
            std::mem::swap(&mut job.dh, &mut job.dhp);
        }
        // Weight gradients: `[d_z; d_k; d_h̃] ⊗ x̃`, `[d_z; d_k] ⊗ h_{t-1}`,
        // `d_h̃ ⊗ (k⊙h_{t-1})` and the skip path's `g_y ⊗ x̃`.
        let (x_steps, hp_steps) = (&job.x_steps[..steps * d], &job.hp_steps[..steps * h]);
        let gw = &mut job.gw[c * 3 * h * d..(c + 1) * 3 * h * d];
        outer_acc_steps_into(gw, &job.d_steps, 3 * h, x_steps, steps);
        let gu_zk = &mut job.gu_zk[c * 2 * h * h..(c + 1) * 2 * h * h];
        outer_acc_steps_into(gu_zk, &job.d_steps, 3 * h, hp_steps, steps);
        let gu_h = &mut job.gu_h[c * h * h..(c + 1) * h * h];
        let gated_steps = &job.gated_steps[..steps * h];
        outer_acc_steps_into(gu_h, &job.d_steps[2 * h..], 3 * h, gated_steps, steps);
        if skip.is_some() {
            let gskip_w = &mut job.gskip_w[c * 3 * d..(c + 1) * 3 * d];
            outer_acc_steps_into(gskip_w, &job.g_y[c * t_max * 3..], 3, x_steps, steps);
        }
        if cfg.api_mask {
            // The mask-sigmoid node's σ' applies once, after all fan-in.
            for (g, &s) in job.gmask[c * d..(c + 1) * d]
                .iter_mut()
                .zip(slab.mask_of(e))
            {
                *g = (*g * s) * (1.0 - s);
            }
        }
    }
}

/// One expert-step's input pull-back, folded into its mask gradient
/// (`mul(mask_sig, x)`'s backward, timestep-descending on top of the
/// penalty pre-fill): `g_x̃ = Sᵀ·g_y + W_hᵀ·d_h̃ + W_kᵀ·d_k + W_zᵀ·d_z` in
/// that order (`skip` is `(S, g_y)` with the skip path), then `gmask +=
/// g_x̃ ⊙ x`, both only on the blocks of `x`'s support `live`. `gx` is
/// scratch: outside those blocks it holds whatever it held.
///
/// `g_x̃` feeds nothing but this product, which is `±0.0` wherever `x` is
/// zero, and `gmask` never holds `-0.0` (it starts at `+0.0` or at the
/// penalty's positive seed), so leaving a zero block out moves no bit of
/// `gmask` (the kernel module's lemma). A non-finite `g_x̃` at a zero of
/// `x` is outside the contract, as in the forward.
fn mask_pullback(
    gmask: &mut [f32],
    gx: &mut [f32],
    (x, live): (&[f32], &Support),
    skip: Option<(&[f32], &[f32])>,
    gates: [(&[f32], &[f32]); 3],
) {
    let d = x.len();
    match skip {
        Some((w, gy)) => gemv_t_live_into(gx, w, gy.len(), d, gy, live),
        None => {
            for block in live.blocks() {
                gx[block].fill(0.0);
            }
        }
    }
    for (w, g) in gates {
        gemv_t_live_acc_into(gx, w, g.len(), d, g, live);
    }
    for block in live.blocks() {
        for ((gm, &gxv), &xv) in gmask[block.clone()]
            .iter_mut()
            .zip(&gx[block.clone()])
            .zip(&x[block])
        {
            *gm += gxv * xv;
        }
    }
}

/// Copies every expert's `α` out of `store` into the rows of the
/// row-major `(experts, experts)` matrix `alpha`, self entries zeroed (the
/// tape's `mask_out`).
fn copy_alpha(alpha: &mut [f32], store: &ParamStore, specs: &[ExpertSpec]) {
    for (e, (row, spec)) in alpha.chunks_exact_mut(specs.len()).zip(specs).enumerate() {
        row.copy_from_slice(store.value(spec.alpha).data());
        row[e] = 0.0;
    }
}

/// The attention term of the carried-state gradient of experts `targets`
/// at every step of `att` (`[t][target][element]`): block `t` is
/// `Σ_{e' desc} α_{e'}[targets] ⊗ g_att_t[e']`, one rank-`E` update
/// ([`outer_acc_steps_into`], the source experts as its steps, taken
/// descending) of a zeroed block, whose left operand is columns `targets`
/// of the row-major `alpha`. Every element sums its products
/// `α(e' → e) · g_att_t[e'][r]` in the tape's order, from `+0.0`.
fn attention_pullback(
    att: &mut [f32],
    alpha: &[f32],
    g_att_b: &[f32],
    targets: Range<usize>,
    e_total: usize,
    h: usize,
) {
    for (t, block) in att.chunks_exact_mut(targets.len() * h).enumerate() {
        block.fill(0.0);
        let g_att_t = &g_att_b[t * e_total * h..(t + 1) * e_total * h];
        outer_acc_steps_into(block, &alpha[targets.start..], e_total, g_att_t, e_total);
    }
}

/// Writes one gradient tensor from its arena block at every batch
/// position of `jobs`, in batch order: the first position's value `+ 0.0`
/// (the bits of adding it to a zeroed gradient), then one add per further
/// position — the tape's `absorb` order. A tensor the backward does not
/// train is zeroed.
fn fold(grad: &mut [f32], source: Option<FoldSource>, jobs: &[ShardJob], shard_count: usize) {
    let Some(FoldSource { shard, arena, at }) = source else {
        grad.fill(0.0);
        return;
    };
    let mut slots = jobs.iter().skip(shard).step_by(shard_count);
    let Some(first) = slots.next() else {
        grad.fill(0.0);
        return;
    };
    let len = grad.len();
    for (g, &v) in grad.iter_mut().zip(&first.arena(arena)[at..at + len]) {
        *g = v + 0.0;
    }
    for job in slots {
        for (g, &v) in grad.iter_mut().zip(&job.arena(arena)[at..at + len]) {
            *g += v;
        }
    }
}

/// Recomputes one batch position's loss bookkeeping with the tape's exact
/// fold orders: pinball terms timestep-ascending then expert-ascending
/// (`add_n` copies the first part), the optional mask penalty, and
/// `loss_sum = loss · n_terms`.
fn slot_stats(stats: &mut SlotStats, cfg: &TrainerConfig, slab: &ExpertSlab, b_jobs: &[ShardJob]) {
    let e_total = slab.experts();
    let steps = b_jobs.first().map_or(0, |j| j.steps);
    let n_terms = steps * e_total;
    stats.n_terms = n_terms;
    stats.expert_sums.fill(0.0);
    let mut total = 0.0f32;
    let mut first = true;
    for t in 0..steps {
        // Jobs are in shard order, so this walks experts ascending.
        for job in b_jobs {
            let terms = &job.terms[t * job.count..(t + 1) * job.count];
            for (sum, &v) in stats.expert_sums[job.lo..].iter_mut().zip(terms) {
                *sum += v;
                if first {
                    total = v;
                    first = false;
                } else {
                    total += v;
                }
            }
        }
    }
    let mut loss = total * (1.0 / n_terms as f32);
    if let Some(cpen) = cfg.penalty {
        // `add_n` over per-expert `sum_all(σ(m))` scalars: copy the first,
        // add the rest; each inner sum folds ascending from 0.0 like
        // `Tensor::sum`.
        let mut mask_total = 0.0f32;
        for e in 0..e_total {
            let s: f32 = slab.mask_of(e).iter().sum();
            if e == 0 {
                mask_total = s;
            } else {
                mask_total += s;
            }
        }
        loss += mask_total * cpen;
    }
    stats.loss_sum = loss * n_terms as f32;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GruCell, Linear};
    use deeprest_tensor::Tensor;
    use rand::{Rng, SeedableRng};

    /// The attention pull-back as the step loop computed it before it was
    /// vectorised, kept as the reference: element `r` of step `t` is one
    /// scalar chain over the source experts, descending, each product
    /// passed through the tape's `p + 0.0` (a `k = 1` dot).
    fn attention_pullback_scalar(
        slab: &ExpertSlab,
        g_att_b: &[f32],
        e: usize,
        t: usize,
        r: usize,
    ) -> f32 {
        let (h, e_total) = (slab.hidden_dim(), slab.experts());
        let mut acc = 0.0f32;
        for (s, shard) in slab.shards().iter().enumerate().rev() {
            let alpha = slab.alpha_toward(s, e);
            for (e2, &a) in shard.clone().zip(alpha).rev() {
                let p = g_att_b[(t * e_total + e2) * h + r] * a;
                acc += p + 0.0;
            }
        }
        acc
    }

    /// A value drawn with a heavy dose of zeros of both signs.
    fn zero_laden(rng: &mut impl Rng) -> f32 {
        match rng.gen_range(0..4) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-2.0f32..2.0),
        }
    }

    /// The rank-`E` pull-back gives every element the bits of its scalar
    /// chain: ten experts in two shards, and twenty-three in three (8, 8
    /// and 7 targets over 23 source steps, counts no tile width divides),
    /// a hidden size no vector width divides, `g_att` and `α` laden with
    /// `±0.0`, and for expert 0 at step 0 a row whose every product is
    /// `-0.0` (the case the dropped `+ 0.0` is about).
    #[test]
    fn vector_attention_pullback_matches_the_scalar_chains_bitwise() {
        for (experts, threads) in [(10, 2), (23, 3)] {
            let (d, h, steps) = (3, 5, 4);
            let mut rng = rand::rngs::StdRng::seed_from_u64(11);
            let mut store = ParamStore::new();
            let specs: Vec<ExpertSpec> = (0..experts)
                .map(|i| {
                    let alpha: Vec<f32> = (0..experts).map(|_| zero_laden(&mut rng)).collect();
                    ExpertSpec {
                        mask: store.add(format!("m{i}"), Tensor::zeros(d, 1)),
                        cell: GruCell::new(&mut store, &format!("g{i}"), d, h, &mut rng),
                        alpha: store.add(format!("a{i}"), Tensor::vector(alpha)),
                        head: Linear::new(&mut store, &format!("h{i}"), 2 * h, 3, &mut rng),
                        skip: None,
                    }
                })
                .collect();
            let slab = ExpertSlab::pack(&store, &specs, true, true, threads);
            assert_eq!(slab.shards().len(), threads);
            let mut g_att: Vec<f32> = (0..steps * experts * h)
                .map(|_| zero_laden(&mut rng))
                .collect();
            // Zeros of the sign opposite to each `α(e2 → 0)`: products `-0.0`.
            for (s, shard) in slab.shards().iter().enumerate() {
                for (e2, &a) in shard.clone().zip(slab.alpha_toward(s, 0)) {
                    g_att[e2 * h] = if a.is_sign_negative() { 0.0 } else { -0.0 };
                }
            }
            let mut alpha = vec![f32::NAN; experts * experts];
            copy_alpha(&mut alpha, &store, &specs);
            for shard in slab.shards() {
                let count = shard.len();
                let mut att = vec![f32::NAN; steps * count * h];
                attention_pullback(&mut att, &alpha, &g_att, shard.clone(), experts, h);
                for (c, e) in shard.clone().enumerate() {
                    for t in 0..steps {
                        for r in 0..h {
                            let want = attention_pullback_scalar(&slab, &g_att, e, t, r);
                            assert_eq!(
                                att[(t * count + c) * h + r].to_bits(),
                                want.to_bits(),
                                "{experts} experts: e {e} t {t} r {r}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// [`mask_pullback`] as the step loop computed it before it walked the
    /// support: every output of every product, and every term of `g ⊙ x`.
    fn mask_pullback_full(
        gmask: &mut [f32],
        gx: &mut [f32],
        x: &[f32],
        skip: Option<(&[f32], &[f32])>,
        gates: [(&[f32], &[f32]); 3],
    ) {
        let d = x.len();
        match skip {
            Some((w, gy)) => gemv_t_into(gx, w, gy.len(), d, gy),
            None => gx.fill(0.0),
        }
        for (w, g) in gates {
            gemv_t_acc_into(gx, w, g.len(), d, g);
        }
        for ((gm, &gxv), &xv) in gmask.iter_mut().zip(gx.iter()).zip(x) {
            *gm += gxv * xv;
        }
    }

    /// The input pull-back over the support leaves the mask gradient with
    /// the full walk's bits: supports that are empty (zeros of both signs),
    /// single-term, dense, and live only in a ragged last block, with and
    /// without the skip path, gate gradients laden with `±0.0`, and mask
    /// gradients that start at `+0.0` or at a positive penalty seed.
    #[test]
    fn input_pullback_over_the_support_matches_the_full_walk_bitwise() {
        let (d, h) = (13, 5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let mut draw = |n: usize| -> Vec<f32> { (0..n).map(|_| zero_laden(&mut rng)).collect() };
        let (skip_w, gy) = (draw(3 * d), draw(3));
        let (w, g): (Vec<Vec<f32>>, Vec<Vec<f32>>) = (0..3).map(|_| (draw(h * d), draw(h))).unzip();
        let mut single = vec![0.0f32; d];
        single[4] = 2.5;
        let mut ragged = vec![-0.0f32; d];
        ragged[9] = 1.0;
        ragged[12] = -3.0;
        let windows = [
            (
                "empty",
                (0..d)
                    .map(|j| if j % 2 == 0 { 0.0 } else { -0.0 })
                    .collect(),
            ),
            ("single", single),
            (
                "dense",
                (0..d).map(|j| 0.5 + j as f32).collect::<Vec<f32>>(),
            ),
            ("ragged", ragged),
        ];
        let mut live = Support::with_capacity(d);
        for (name, x) in &windows {
            live.fill(x);
            for with_skip in [false, true] {
                for seed in [0.0f32, 0.125] {
                    let skip = with_skip.then_some((&skip_w[..], &gy[..]));
                    let gates = [
                        (&w[0][..], &g[0][..]),
                        (&w[1][..], &g[1][..]),
                        (&w[2][..], &g[2][..]),
                    ];
                    let (mut got, mut want) = (vec![seed; d], vec![seed; d]);
                    for _ in 0..2 {
                        mask_pullback(&mut got, &mut vec![f32::NAN; d], (x, &live), skip, gates);
                        mask_pullback_full(&mut want, &mut vec![0.0; d], x, skip, gates);
                    }
                    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{name}, skip {with_skip}, seed {seed}"
                    );
                }
            }
        }
    }

    /// The backward multiplies by the store's matrices and the forward by
    /// the slab's, so a store written since the last repack would train on
    /// two different sets of weights. Debug builds refuse it.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "slab is stale for the store")]
    fn run_batch_refuses_a_slab_packed_before_the_last_store_write() {
        use crate::loss::quantiles_for;
        let (d, h) = (3, 4);
        let mut store = ParamStore::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let off = store.add("off", Tensor::zeros(0, 0));
        let spec = ExpertSpec {
            mask: off,
            cell: GruCell::new(&mut store, "gru", d, h, &mut rng),
            alpha: off,
            head: Linear::new(&mut store, "head", 2 * h, 3, &mut rng),
            skip: None,
        };
        let cfg = TrainerConfig {
            input_dim: d,
            hidden_dim: h,
            max_steps: 2,
            batch_slots: 1,
            api_mask: false,
            attention: false,
            penalty: None,
            quantiles: quantiles_for(0.90),
            modulation: [1.0; 3],
        };
        let pool = Pool::with_threads(1);
        let slab = ExpertSlab::pack(&store, &[spec], false, false, 1);
        let mut trainer = AnalyticTrainer::new(&slab, cfg);
        let (xs, targets) = (vec![vec![1.0, 0.0, 2.0]; 2], vec![vec![0.5; 2]]);
        // Current: runs.
        trainer.run_batch(&slab, &mut store, &pool, &xs, &targets, &[0]);
        // One recurrent weight written and no repack: refused.
        store.value_mut(spec.cell.uh).data_mut()[1] += 0.25;
        trainer.run_batch(&slab, &mut store, &pool, &xs, &targets, &[0]);
    }
}
