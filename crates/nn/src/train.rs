//! Tape-free analytic training engine for the multi-expert estimator.
//!
//! The general autodiff tape records ~19 nodes per expert per timestep and
//! walks them one by one in the reverse sweep. This module replaces that hot
//! path with hand-derived truncated-BPTT over the packed [`ExpertSlab`],
//! which the trainer borrows per batch and never owns: the caller packs it
//! next to the store, steps the optimizer and repacks (see the slab's
//! ownership note), so the trainer is arenas plus the backward below.
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
//!   and `α`, is computed for every step before the sweep as `h`-wide
//!   vector updates.
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
//!   `GradBuffer` slot absorbs them; the engine's zero-initialized arenas
//!   folded through [`deeprest_tensor::ParamStore::grad_add_slice`] perform
//!   the same normalization, and a zero's sign is the only thing that can
//!   differ mid-chain (IEEE-754 `x + ±0.0 = x` for `x ≠ 0`).
//! * Sharding never splits a contraction: experts are data-parallel except
//!   for the attention term, whose cross-expert sums are computed per expert
//!   from a serially gathered global arena in a fixed expert-descending
//!   order. Gradients are therefore identical at any thread count, and the
//!   serial fold (batch position → shard → expert) matches the tape's
//!   per-subsequence `absorb` order.
//!
//! `tests/prop_analytic_train.rs` proves the equivalence property-based;
//! `crates/core/tests/determinism.rs` holds it end to end.

use deeprest_telemetry as telemetry;
use deeprest_tensor::kernel::{gemv_t_acc_into, gemv_t_into, outer_acc_steps_into, Support};
use deeprest_tensor::{BufferPool, ParamStore, Pool};

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
    // `d_t = [d_z; d_k; d_h̃]`, `x̃_t`, `h_{t-1}`, `k⊙h_{t-1}`, and the
    // attention pull-back into the carried state.
    d_steps: Vec<f32>,
    x_steps: Vec<f32>,
    hp_steps: Vec<f32>,
    gated_steps: Vec<f32>,
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
    /// The current timestep's support (capacity `d`, so never regrown).
    support: Support,
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
            att_steps: vec![0.0; if cfg.attention { t * h } else { 0 }],
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
            support: Support::with_capacity(d),
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

/// The analytic trainer: every per-worker arena plus the backward over
/// them. The packed slab it trains is its owner's (see
/// `crate::slab`'s ownership note) and comes in with every
/// [`run_batch`](Self::run_batch); the slab's shard plan is the trainer's
/// worker partition. One instance serves a whole `fit` — arenas are
/// allocated at construction and reused by every batch of every epoch.
pub struct AnalyticTrainer {
    cfg: TrainerConfig,
    jobs: Vec<ShardJob>,
    /// Per batch slot: `H_t` gathered across shards, `[t][element][expert]`.
    hmats: Vec<Vec<f32>>,
    /// Per batch slot: attention-head gradients `[t][expert][element]`.
    g_att_all: Vec<Vec<f32>>,
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

    /// Runs forward + backward over `slab` for one optimizer batch of
    /// subsequence `starts`, folding gradients into `store` (the one `slab`
    /// was packed from) in a fixed order (batch position → shard → expert)
    /// so the result is bit-identical to the tape path at any thread count.
    /// Returns per-slot statistics in batch order.
    ///
    /// Forward values come from `slab`, the backward's pull-back operands
    /// from `store` (module docs), so `slab` must be current for `store`:
    /// repacked since its last write. Debug builds refuse a stale slab
    /// (`ExpertSlab::is_current_for`).
    ///
    /// The caller owns the surrounding loop: `store.zero_grads()` before,
    /// gradient clipping / optimizer step / [`ExpertSlab::repack`] after.
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
        batch: &[usize],
    ) -> &[SlotStats] {
        let nb = batch.len();
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
            stats,
        } = self;

        for (b, &start) in batch.iter().enumerate() {
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
        // per-batch-position global arena for the cross-expert backward.
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
        }
        drop(phase);

        // Phase C — recurrent backward: per expert, walk timesteps in
        // descending order applying the closed-form gate gradients.
        let phase = telemetry::span("train.analytic.backward");
        {
            let (g_att_all, store) = (&*g_att_all, &*store);
            pool.for_each_mut(active, |i, job| {
                gru_sweep(job, cfg, slab, store, &g_att_all[i / shard_count], xs);
            });
        }
        drop(phase);

        // Serial fold + statistics, in the tape's subsequence order.
        let phase = telemetry::span("train.analytic.fold");
        for b in 0..nb {
            let b_jobs = &active[b * shard_count..(b + 1) * shard_count];
            fold_gradients(store, slab.specs(), cfg, b_jobs);
            slot_stats(&mut stats[b], cfg, slab, b_jobs);
        }
        drop(phase);
        if telemetry::enabled() {
            telemetry::counter("train.analytic.batches", 1);
        }
        &self.stats[..nb]
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
        job.support.fill(&xs[job.start + t]);
        slab.step_range(
            range.clone(),
            &job.xbuf,
            &job.support,
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
            job.support.fill(&xs[job.start + t]);
        }
        slab.heads(
            job.shard,
            hmat_t,
            &job.h[t * count * h..(t + 1) * count * h],
            &job.xbuf,
            &job.support,
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
/// not depend on the recurrence is taken out of the step loop: `x̃_t`,
/// `h_{t-1}` and the attention pull-back before it, and every weight
/// gradient after it as one rank-`T` update per family, with per-gate rows
/// in the slab's pack order.
fn gru_sweep(
    job: &mut ShardJob,
    cfg: &TrainerConfig,
    slab: &ExpertSlab,
    store: &ParamStore,
    g_att_b: &[f32],
    xs: &[Vec<f32>],
) {
    let (d, h, t_max) = (cfg.input_dim, cfg.hidden_dim, cfg.max_steps);
    let (lo, count, steps) = (job.lo, job.count, job.steps);
    let value = |id| store.value(id).data();
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
        if cfg.attention {
            attention_pullback(&mut job.att_steps[..steps * h], slab, g_att_b, e);
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
                for (o, &g) in job.dh.iter_mut().zip(&job.att_steps[t * h..(t + 1) * h]) {
                    *o += g;
                }
            }
            // g_x̃: skip path first (output stage), GRU gates appended below.
            let gy = &job.g_y[(c * t_max + t) * 3..][..3];
            if let Some(skip) = skip {
                gemv_t_into(&mut job.gx, value(skip.w), 3, d, gy);
                for (dst, &g) in job.gskip_b[c * 3..][..3].iter_mut().zip(gy) {
                    *dst += g;
                }
            } else {
                job.gx.fill(0.0);
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
            gemv_t_acc_into(&mut job.gx, value(cell.wh), h, d, d_h);
            // mul(k, h_prev) backward, then the k gate's σ'.
            let (d_z, d_k) = d_zk.split_at_mut(h);
            for i in 0..h {
                job.dhp[i] += job.ggated[i] * k[i];
                d_k[i] = ((job.ggated[i] * hp[i]) * k[i]) * (1.0 - k[i]);
            }
            gemv_t_acc_into(&mut job.dhp, value(cell.uk), h, h, d_k);
            gemv_t_acc_into(&mut job.gx, value(cell.wk), h, d, d_k);
            // z gate σ', then its U/W pullbacks.
            for ((dz, &zp), &zv) in d_z.iter_mut().zip(&job.zpre).zip(z) {
                *dz = (zp * zv) * (1.0 - zv);
            }
            gemv_t_acc_into(&mut job.dhp, value(cell.uz), h, h, d_z);
            gemv_t_acc_into(&mut job.gx, value(cell.wz), h, d, d_z);
            let d_t = &job.d_steps[t * 3 * h..(t + 1) * 3 * h];
            for (o, &g) in job.gbias[c * 3 * h..(c + 1) * 3 * h].iter_mut().zip(d_t) {
                *o += g;
            }
            if cfg.api_mask {
                // mul(mask_sig, x) backward: g ⊙ x, timestep-descending on
                // top of the penalty pre-fill.
                for ((gm, &gxv), &xv) in job.gmask[c * d..(c + 1) * d]
                    .iter_mut()
                    .zip(job.gx.iter())
                    .zip(&xs[job.start + t])
                {
                    *gm += gxv * xv;
                }
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

/// The attention term of expert `e`'s carried-state gradient at every step
/// of `att` (`[t][element]`): column `e` of `Σ_{e' desc} g_att[e'] ⊗ α_{e'}ᵀ`,
/// `att[t][r] = Σ_{e' desc} g_att_t[e'][r] · α(e' → e)`. Each row takes one
/// `h`-wide update per source expert, experts descending, so every lane
/// sums its products in the tape's order, from `+0.0`.
fn attention_pullback(att: &mut [f32], slab: &ExpertSlab, g_att_b: &[f32], e: usize) {
    let (h, e_total) = (slab.hidden_dim(), slab.experts());
    for (t, row) in att.chunks_exact_mut(h).enumerate() {
        row.fill(0.0);
        let g_att_t = &g_att_b[t * e_total * h..(t + 1) * e_total * h];
        for (s, shard) in slab.shards().iter().enumerate().rev() {
            let alpha = slab.alpha_toward(s, e);
            for (e2, &a) in shard.clone().zip(alpha).rev() {
                for (o, &g) in row.iter_mut().zip(&g_att_t[e2 * h..(e2 + 1) * h]) {
                    *o += g * a;
                }
            }
        }
    }
}

/// Folds one batch position's arenas into the store, expert-ascending with
/// per-expert parameters in registration order — one add per parameter per
/// batch position, exactly like the tape's `absorb`.
fn fold_gradients(
    store: &mut ParamStore,
    specs: &[ExpertSpec],
    cfg: &TrainerConfig,
    b_jobs: &[ShardJob],
) {
    let (d, h) = (cfg.input_dim, cfg.hidden_dim);
    for job in b_jobs {
        for c in 0..job.count {
            let spec = &specs[job.lo + c];
            if cfg.api_mask {
                store.grad_add_slice(spec.mask, &job.gmask[c * d..(c + 1) * d]);
            }
            let cell = &spec.cell;
            let gw = &job.gw[c * 3 * h * d..(c + 1) * 3 * h * d];
            store.grad_add_slice(cell.wz, &gw[..h * d]);
            store.grad_add_slice(cell.wk, &gw[h * d..2 * h * d]);
            store.grad_add_slice(cell.wh, &gw[2 * h * d..]);
            let gu = &job.gu_zk[c * 2 * h * h..(c + 1) * 2 * h * h];
            store.grad_add_slice(cell.uz, &gu[..h * h]);
            store.grad_add_slice(cell.uk, &gu[h * h..]);
            store.grad_add_slice(cell.uh, &job.gu_h[c * h * h..(c + 1) * h * h]);
            let gb = &job.gbias[c * 3 * h..(c + 1) * 3 * h];
            store.grad_add_slice(cell.bz, &gb[..h]);
            store.grad_add_slice(cell.bk, &gb[h..2 * h]);
            store.grad_add_slice(cell.bh, &gb[2 * h..]);
            if cfg.attention {
                let e_total = specs.len();
                store.grad_add_slice(spec.alpha, &job.galpha[c * e_total..(c + 1) * e_total]);
            }
            store.grad_add_slice(spec.head.w, &job.ghead_w[c * 6 * h..(c + 1) * 6 * h]);
            store.grad_add_slice(spec.head.b, &job.ghead_b[c * 3..(c + 1) * 3]);
            if let Some(skip) = &spec.skip {
                store.grad_add_slice(skip.w, &job.gskip_w[c * 3 * d..(c + 1) * 3 * d]);
                store.grad_add_slice(skip.b, &job.gskip_b[c * 3..(c + 1) * 3]);
            }
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

    /// `h`-wide vector updates over all steps give every element the bits
    /// of its scalar chain: ten experts in two shards, a hidden size no
    /// vector width divides, `g_att` and `α` laden with `±0.0`, and for
    /// expert 0 at step 0 a row whose every product is `-0.0` (the case the
    /// dropped `+ 0.0` is about).
    #[test]
    fn vector_attention_pullback_matches_the_scalar_chains_bitwise() {
        let (d, h, experts, steps) = (3, 5, 10, 4);
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
        let slab = ExpertSlab::pack(&store, &specs, true, true, 2);
        assert_eq!(slab.shards().len(), 2);
        let mut g_att: Vec<f32> = (0..steps * experts * h)
            .map(|_| zero_laden(&mut rng))
            .collect();
        // Zeros of the sign opposite to each `α(e2 → 0)`: products `-0.0`.
        for (s, shard) in slab.shards().iter().enumerate() {
            for (e2, &a) in shard.clone().zip(slab.alpha_toward(s, 0)) {
                g_att[e2 * h] = if a.is_sign_negative() { 0.0 } else { -0.0 };
            }
        }
        let mut att = vec![f32::NAN; steps * h];
        for e in 0..experts {
            attention_pullback(&mut att, &slab, &g_att, e);
            for t in 0..steps {
                for r in 0..h {
                    let want = attention_pullback_scalar(&slab, &g_att, e, t, r);
                    assert_eq!(
                        att[t * h + r].to_bits(),
                        want.to_bits(),
                        "e {e} t {t} r {r}"
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
