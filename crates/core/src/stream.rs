//! Stepwise (streaming) inference over a trained [`DeepRest`] model — the
//! crate's one forward pass.
//!
//! A [`StreamPredictor`] carries every expert's GRU hidden state across
//! windows and advances all experts by exactly one GRU step + attention +
//! head when a new window's features arrive: O(1) per window for online
//! serving. The batch queries ([`DeepRest::estimate_from_traces`],
//! [`DeepRest::estimate_traffic`], [`DeepRest::estimate_what_if`]) are the
//! same computation — each steps a predictor over its feature rows.
//!
//! # Batched stepping
//!
//! [`StreamPredictor::step`] is tape-free and batched: all experts' GRU
//! gate weights are packed once into contiguous
//! [`ExpertSlab`] storage, expert state is
//! sharded across the worker pool (contiguous expert ranges, at least
//! `MIN_EXPERTS_PER_SHARD` experts per shard), and one window advances as
//!
//! 1. per shard (parallel): mask the input, then three batched GEMVs over
//!    the packed gate stacks advance the shard's hidden states in place;
//! 2. serial barrier: the hidden columns are gathered into one
//!    `(hidden, experts)` matrix;
//! 3. per shard (parallel): cross-expert attention for the whole shard as
//!    **one** GEMM against the shard's packed attention columns, then one
//!    batched head GEMV (plus one batched skip GEMV when configured) and
//!    the scalar postprocessing.
//!
//! Per-shard scratch comes from a private
//! [`BufferPool`] arena, so after the first
//! window steady-state serving performs zero kernel allocations at any
//! thread count.
//!
//! # Bit-identity contract
//!
//! The model is trained on `subseq_len.max(2)`-window subsequences that
//! each start from a zero hidden state, so [`StreamPredictor::step`] resets
//! its carried state at the same chunk boundaries. Within a chunk it
//! performs the exact per-element float operations of the op-by-op
//! formulation (Eq. 1–4 on the autodiff tape):
//!
//! * stacking gate weight matrices vertically leaves every per-row dot
//!   unchanged (same terms, same kernel lane order);
//! * computing attention for `count` experts as one GEMM produces, per
//!   output element, the bits of the per-expert GEMV — the kernel contract
//!   fixes every element's accumulation order regardless of how many
//!   columns ride in one call;
//! * sharding never splits a contraction: experts are data-parallel until
//!   the serial hidden gather, so the shard count (and therefore
//!   `DEEPREST_THREADS`) cannot move a single rounding.
//!
//! That tape formulation is kept as a test-only oracle in
//! `crates/core/src/oracle.rs` (`#[cfg(test)]`): its unit tests prove
//! `step` bit-identical to the tape's chunked unroll across expert counts
//! and shard plans; `crates/core/tests/batched_stream.rs` covers shard
//! portability, quarantine isolation and the zero-allocation invariant.

use deeprest_fault as fault;
use deeprest_nn::ExpertSlab;
use deeprest_telemetry as telemetry;
use deeprest_tensor::{kernel, BufferPool, Pool};
use deeprest_trace::{Interner, Trace};
use serde::{Deserialize, Serialize};

use crate::estimator::Expert;
use crate::DeepRest;

/// Smallest expert range worth its own shard (and worker thread): below
/// this the per-window fan-out overhead outweighs the parallel work, so
/// small models run single-sharded on the caller's thread.
const MIN_EXPERTS_PER_SHARD: usize = 8;

/// One window's `(expected, lower, upper)` estimate for one expert, after
/// denormalization and the quantile-crossing guard — the streaming
/// counterpart of one element of a
/// [`PredictedSeries`](crate::PredictedSeries).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PointEstimate {
    /// Median (expected) utilization.
    pub expected: f64,
    /// Lower confidence limit.
    pub lower: f64,
    /// Upper confidence limit.
    pub upper: f64,
}

/// Serializable snapshot of a [`StreamPredictor`]'s carried state: the
/// stream position (window index) plus every expert's hidden vector.
/// Together with the model JSON this is everything needed to resume a
/// stream after a crash with bit-identical continuation.
///
/// The layout is expert-ordered (not shard-ordered), so snapshots are
/// portable across thread counts: a checkpoint taken at
/// `DEEPREST_THREADS=1` restores bit-identically into a 4-thread serve.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StreamSnapshot {
    /// Number of windows already consumed (the index of the next window).
    pub position: usize,
    /// Per-expert hidden state, in the model's expert (training) order.
    pub hidden: Vec<Vec<f32>>,
}

/// One contiguous expert range with everything its worker needs packed
/// locally: carried hidden states, precomputed mask activations, attention
/// columns, head/skip weights, and a private scratch arena. Shards never
/// read each other's state; the only cross-shard dataflow is the serial
/// hidden gather between the two parallel phases.
struct Shard {
    /// First expert (global index) in this shard.
    lo: usize,
    /// Number of experts in this shard.
    count: usize,
    /// Carried hidden states, `count * hidden_dim`, packed per expert.
    hidden: Vec<f32>,
    /// Masked inputs of the current window, `count * input_dim` (written
    /// in phase one, read again by the skip path in phase two).
    masked: Vec<f32>,
    /// Precomputed `σ(mask)` per expert (`count * input_dim`), or all ones
    /// when the API mask is disabled — same function of the same stored
    /// values the tape applied per step, so the bits match.
    mask_sig: Vec<f32>,
    /// Attention weight columns `(experts, count)`: column `c` is expert
    /// `lo + c`'s `α` with its self entry zeroed (the tape's `mask_out`).
    alpha_cols: Vec<f32>,
    /// Packed head weights, per expert `(3, 2 * hidden_dim)` row-major.
    head_w: Vec<f32>,
    /// Packed head biases, per expert 3 values.
    head_b: Vec<f32>,
    /// Packed skip weights `(3, input_dim)` per expert; empty when the
    /// linear skip is disabled.
    skip_w: Vec<f32>,
    /// Packed skip biases, per expert 3 values; empty without skip.
    skip_b: Vec<f32>,
    /// Finished estimates for this shard's experts, in expert order.
    out: Vec<PointEstimate>,
    /// Private scratch arena: all per-window buffers are taken from (and
    /// returned to) this pool, so warm steps allocate nothing.
    scratch: BufferPool,
}

impl Shard {
    /// Phase one: mask the window's features per expert and advance the
    /// shard's hidden states by one batched GRU step.
    fn advance(&mut self, slab: &ExpertSlab, x: &[f32]) {
        let d = slab.input_dim();
        for e in 0..self.count {
            let sig = &self.mask_sig[e * d..(e + 1) * d];
            let masked = &mut self.masked[e * d..(e + 1) * d];
            for i in 0..d {
                // The tape's `mul(mask_sig, x)` elementwise product.
                masked[i] = sig[i] * x[i];
            }
        }
        slab.step_range(
            self.lo,
            self.count,
            &self.masked,
            &mut self.hidden,
            &mut self.scratch,
        );
    }

    /// Phase two: attention (one GEMM for the whole shard), head and skip
    /// (batched GEMVs), and per-expert output postprocessing.
    fn heads(&mut self, experts: &[Expert], hmat: &[f32], h: usize, attention: bool) {
        let count = self.count;
        let e_count = experts.len();
        let two_h = 2 * h;
        // `BufferPool::take` hands the buffer back zeroed, which is exactly
        // the disabled-attention constant the tape used.
        let mut att = self.scratch.take(h * count);
        if attention && count > 0 {
            kernel::gemm_into(&mut att, hmat, h, e_count, &self.alpha_cols, count);
        }
        // cat_e = [att_e ; h_e] — the tape's concat_rows, as a gather from
        // the GEMM's column-strided output.
        let mut cat = self.scratch.take(count * two_h);
        for e in 0..count {
            for r in 0..h {
                cat[e * two_h + r] = att[r * count + e];
                cat[e * two_h + h + r] = self.hidden[e * h + r];
            }
        }
        let mut y = self.scratch.take(count * 3);
        kernel::gemv_batch_into(&mut y, &self.head_w, 3, two_h, &cat, count);
        for (yv, b) in y.iter_mut().zip(self.head_b.iter()) {
            *yv += b;
        }
        if !self.skip_w.is_empty() {
            let d = self.mask_sig.len() / count.max(1);
            let mut lin = self.scratch.take(count * 3);
            kernel::gemv_batch_into(&mut lin, &self.skip_w, 3, d, &self.masked, count);
            for (lv, b) in lin.iter_mut().zip(self.skip_b.iter()) {
                *lv += b;
            }
            for (yv, lv) in y.iter_mut().zip(lin.iter()) {
                *yv += lv;
            }
            self.scratch.put(lin);
        }
        for e in 0..count {
            self.out[e] = postprocess(&experts[self.lo + e], &y[e * 3..(e + 1) * 3]);
        }
        self.scratch.put(y);
        self.scratch.put(cat);
        self.scratch.put(att);
    }
}

/// Output postprocessing: denormalize, clamp negatives, guard against
/// quantile crossing.
fn postprocess(expert: &Expert, v: &[f32]) -> PointEstimate {
    let exp = expert.scaler.inverse(f64::from(v[0])).max(0.0);
    let lo = expert.scaler.inverse(f64::from(v[1])).max(0.0);
    let up = expert.scaler.inverse(f64::from(v[2])).max(0.0);
    let lo2 = lo.min(exp).min(up);
    let up2 = up.max(exp).max(lo);
    PointEstimate {
        expected: exp.clamp(lo2, up2),
        lower: lo2,
        upper: up2,
    }
}

/// Stateful O(1)-per-window inference over a trained model.
///
/// Create with [`DeepRest::stream_predictor`], feed per-window normalized
/// features (from [`DeepRest::window_features`]) to [`step`](Self::step),
/// and get back one [`PointEstimate`] per expert in
/// [`DeepRest::expert_keys`] order.
///
/// All experts advance together: weights are packed into contiguous slabs
/// at construction and every window runs a fixed number of batched kernel
/// calls (see the [module docs](self)), sharded across the model's worker
/// pool. Per-shard scratch arenas make warm steps allocation-free.
pub struct StreamPredictor<'m> {
    model: &'m DeepRest,
    /// All experts' GRU gate weights, packed once.
    slab: ExpertSlab,
    /// Expert state, sharded into contiguous ranges.
    shards: Vec<Shard>,
    /// The gathered `(hidden_dim, experts)` matrix of post-step hidden
    /// columns (the tape's `concat_cols`), rebuilt serially every window.
    hmat: Vec<f32>,
    pool: Pool,
    /// Batched kernel invocations per window — a constant of the model
    /// configuration, emitted as the `stream.step.kernel_ops` gauge so
    /// serving tests can assert the O(1) step cost.
    step_kernel_ops: f64,
    position: usize,
}

impl DeepRest {
    /// Starts a streaming predictor at position 0 with zero hidden state.
    pub fn stream_predictor(&self) -> StreamPredictor<'_> {
        StreamPredictor::new(self)
    }

    /// Extracts the normalized feature vector for one window of query
    /// traces — the per-window unit of the batch
    /// [`estimate_from_traces`](Self::estimate_from_traces) pipeline
    /// (symbol translation + Alg. 2 path counting + normalization), so
    /// streaming features are bit-identical to the batch extraction.
    pub fn window_features(&self, window: &[Trace], from: &Interner) -> Vec<f32> {
        let translated = self.translate_window(window, from);
        self.features.extract_normalized(&translated)
    }
}

impl<'m> StreamPredictor<'m> {
    fn new(model: &'m DeepRest) -> Self {
        let e_count = model.experts.len();
        let h = model.config.hidden_dim;
        let d = model.features.dim();
        let cells: Vec<_> = model.experts.iter().map(|ex| ex.gru).collect();
        let slab = ExpertSlab::pack(&model.store, &cells);
        let pool = model.pool();

        // Shard plan: at most one shard per pool thread, each at least
        // MIN_EXPERTS_PER_SHARD wide, so tiny models stay single-sharded
        // (and run inline on the caller's thread).
        let shard_count = pool
            .threads()
            .min(e_count.div_ceil(MIN_EXPERTS_PER_SHARD))
            .max(1);
        let chunk = e_count.div_ceil(shard_count).max(1);
        let has_skip = model.experts.iter().all(|ex| ex.skip.is_some());
        debug_assert!(
            has_skip || model.experts.iter().all(|ex| ex.skip.is_none()),
            "experts must uniformly have or lack the linear skip"
        );
        let mut shards = Vec::with_capacity(shard_count);
        let mut lo = 0;
        while lo < e_count {
            let count = chunk.min(e_count - lo);
            let mut mask_sig = Vec::with_capacity(count * d);
            let mut alpha_cols = vec![0.0f32; e_count * count];
            let mut head_w = Vec::with_capacity(count * 3 * 2 * h);
            let mut head_b = Vec::with_capacity(count * 3);
            let mut skip_w = Vec::new();
            let mut skip_b = Vec::new();
            for (c, ex) in model.experts[lo..lo + count].iter().enumerate() {
                if model.config.api_mask {
                    // The tape computed σ(mask) from the stored values on
                    // every step; the same function of the same values is
                    // computed once here — identical bits, once.
                    mask_sig.extend(
                        model
                            .store
                            .value(ex.mask)
                            .data()
                            .iter()
                            .map(|&x| 1.0 / (1.0 + (-x).exp())),
                    );
                } else {
                    mask_sig.extend(std::iter::repeat_n(1.0f32, d));
                }
                let alpha = model.store.value(ex.alpha).data();
                for (k, &a) in alpha.iter().enumerate() {
                    alpha_cols[k * count + c] = a;
                }
                // The tape's mask_out: an expert never attends to itself.
                alpha_cols[(lo + c) * count + c] = 0.0;
                head_w.extend_from_slice(model.store.value(ex.head.w).data());
                head_b.extend_from_slice(model.store.value(ex.head.b).data());
                if let Some(skip) = &ex.skip {
                    skip_w.extend_from_slice(model.store.value(skip.w).data());
                    skip_b.extend_from_slice(model.store.value(skip.b).data());
                }
            }
            shards.push(Shard {
                lo,
                count,
                hidden: vec![0.0; count * h],
                masked: vec![0.0; count * d],
                mask_sig,
                alpha_cols,
                head_w,
                head_b,
                skip_w,
                skip_b,
                out: vec![
                    PointEstimate {
                        expected: 0.0,
                        lower: 0.0,
                        upper: 0.0
                    };
                    count
                ],
                scratch: BufferPool::new(),
            });
            lo += count;
        }
        // 3 batched gate GEMVs + 1 attention GEMM + 1 head GEMV (+ 1 skip
        // GEMV) per shard per window; fixed by the model configuration.
        let per_shard = 3 + usize::from(model.config.attention) + 1 + usize::from(has_skip);
        let step_kernel_ops = (shards.len() * per_shard) as f64;
        Self {
            model,
            slab,
            shards,
            hmat: vec![0.0; h * e_count],
            pool,
            step_kernel_ops,
            position: 0,
        }
    }

    /// Number of windows consumed so far (the index of the next window).
    pub fn position(&self) -> usize {
        self.position
    }

    /// Number of shards the expert state is partitioned into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Resident bytes of packed weights and carried state per expert —
    /// the `deeprest capacity` tool's memory figure. Counts the gate
    /// slab, mask/attention/head/skip packs, hidden state, and the
    /// gathered hidden matrix; excludes transient scratch.
    pub fn state_bytes(&self) -> usize {
        let f = std::mem::size_of::<f32>();
        let shard_f32s: usize = self
            .shards
            .iter()
            .map(|s| {
                s.hidden.len()
                    + s.masked.len()
                    + s.mask_sig.len()
                    + s.alpha_cols.len()
                    + s.head_w.len()
                    + s.head_b.len()
                    + s.skip_w.len()
                    + s.skip_b.len()
            })
            .sum();
        self.slab.bytes() + (shard_f32s + self.hmat.len()) * f
    }

    /// Advances every expert by one window and returns the denormalized
    /// `(expected, lower, upper)` estimates in expert order.
    ///
    /// One iteration of the Eq. 1–4 unroll with the carried hidden state
    /// as the recurrence input, a reset to zero state at every
    /// `subseq_len.max(2)` chunk boundary (the training regime), and the
    /// output postprocessing. The test-only tape in `oracle.rs` is the
    /// reference for every float this produces.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the model's feature dimension.
    pub fn step(&mut self, x: &[f32]) -> Vec<PointEstimate> {
        let dim = self.model.features.dim();
        assert_eq!(
            x.len(),
            dim,
            "StreamPredictor::step: feature dim mismatch (got {}, model has {dim})",
            x.len()
        );
        let e_count = self.model.experts.len();
        let h = self.model.config.hidden_dim;

        // Training starts every `subseq_len.max(2)` chunk from a fresh zero
        // hidden state; inference keeps the same boundaries.
        let len = self.model.config.subseq_len.max(2);
        if self.position.is_multiple_of(len) {
            for s in &mut self.shards {
                s.hidden.fill(0.0);
            }
        }

        // Fault probe: `stream.step` panics mid-step, after the hidden
        // state may already have been mutated — callers that survive it
        // must roll back to a pre-step snapshot (serve's step_healed does).
        // Worker panics (the pool's `pool.worker` probe included) propagate
        // out of the phase fan-outs below and are handled the same way.
        fault::maybe_panic("stream.step");

        let Self {
            model,
            slab,
            shards,
            hmat,
            pool,
            ..
        } = self;
        let attention = model.config.attention;
        let experts = &model.experts;

        pool.for_each_mut(shards, |_, s| s.advance(slab, x));
        // Serial barrier: gather every expert's hidden column into the
        // shared (hidden, experts) matrix — the tape's concat_cols.
        for s in shards.iter() {
            for le in 0..s.count {
                let e = s.lo + le;
                for r in 0..h {
                    hmat[r * e_count + e] = s.hidden[le * h + r];
                }
            }
        }
        pool.for_each_mut(shards, |_, s| s.heads(experts, hmat, h, attention));

        let mut out = Vec::with_capacity(e_count);
        for s in self.shards.iter() {
            out.extend_from_slice(&s.out);
        }
        // Fault probe: `stream.hidden` poisons the carried state of one
        // expert (payload = expert index) or all experts, modeling a
        // numeric blow-up that persists across windows.
        if let Some(payload) = fault::armed("stream.hidden") {
            for s in &mut self.shards {
                for le in 0..s.count {
                    let e = s.lo + le;
                    if payload == fault::PAYLOAD_ALL || payload == e as u64 {
                        s.hidden[le * h..(le + 1) * h].fill(f32::NAN);
                    }
                }
            }
        }
        if telemetry::enabled() {
            telemetry::counter("stream.steps", 1);
            telemetry::gauge("stream.step.kernel_ops", self.step_kernel_ops);
            telemetry::gauge("stream.batch.shards", self.shards.len() as f64);
            telemetry::gauge("stream.batch.experts", e_count as f64);
        }
        self.position += 1;
        out
    }

    /// Whether every carried hidden value is finite. A `false` here means
    /// the predictor's state is poisoned: every future step would emit
    /// NaN, so callers should restore from a known-good snapshot rather
    /// than keep stepping.
    pub fn hidden_is_finite(&self) -> bool {
        self.shards
            .iter()
            .all(|s| s.hidden.iter().all(|v| v.is_finite()))
    }

    /// Indices of experts whose carried hidden state contains non-finite
    /// values (empty when [`hidden_is_finite`](Self::hidden_is_finite)).
    pub fn hidden_nonfinite_experts(&self) -> Vec<usize> {
        let h = self.model.config.hidden_dim;
        let mut bad = Vec::new();
        for s in &self.shards {
            for le in 0..s.count {
                if s.hidden[le * h..(le + 1) * h]
                    .iter()
                    .any(|v| !v.is_finite())
                {
                    bad.push(s.lo + le);
                }
            }
        }
        bad
    }

    /// Captures the carried state for crash recovery; feed to
    /// [`restore`](Self::restore) (with the same model) to resume with
    /// bit-identical continuation. Snapshots are expert-ordered and thus
    /// portable across shard/thread counts.
    pub fn snapshot(&self) -> StreamSnapshot {
        snapshot_shards(&self.shards, self.model.config.hidden_dim, self.position)
    }

    /// Rebuilds a predictor from a [`snapshot`](Self::snapshot).
    ///
    /// # Errors
    ///
    /// Returns a message when the snapshot's shape disagrees with the
    /// model (wrong expert count or hidden dimension) — the snapshot was
    /// taken against a different model.
    pub fn restore(model: &'m DeepRest, snap: &StreamSnapshot) -> Result<Self, String> {
        let e_count = model.experts.len();
        if snap.hidden.len() != e_count {
            return Err(format!(
                "snapshot has {} hidden states, model has {e_count} experts",
                snap.hidden.len()
            ));
        }
        let hidden_dim = model.config.hidden_dim;
        for (e, hv) in snap.hidden.iter().enumerate() {
            if hv.len() != hidden_dim {
                return Err(format!(
                    "snapshot hidden state {e} has dim {}, model has hidden_dim {hidden_dim}",
                    hv.len()
                ));
            }
        }
        let mut p = Self::new(model);
        p.position = snap.position;
        for s in &mut p.shards {
            for le in 0..s.count {
                s.hidden[le * hidden_dim..(le + 1) * hidden_dim]
                    .copy_from_slice(&snap.hidden[s.lo + le]);
            }
        }
        Ok(p)
    }

    /// Releases the model borrow, keeping the packed weights, shard plan
    /// and carried state as an opaque [`DetachedPredictor`].
    ///
    /// This is the continual-learning hand-off: an owner of a mutable
    /// model (`deeprest-adapt`'s pipeline) cannot hold a live predictor
    /// across its own mutation points, but repacking the slab every window
    /// would dwarf the step cost. `detach`/[`attach`](Self::attach) move
    /// the packed state out and back in O(1) — no repack, no copy.
    pub fn detach(self) -> DetachedPredictor {
        DetachedPredictor {
            slab: self.slab,
            shards: self.shards,
            hmat: self.hmat,
            pool: self.pool,
            step_kernel_ops: self.step_kernel_ops,
            position: self.position,
            experts: self.model.experts.len(),
            hidden_dim: self.model.config.hidden_dim,
            input_dim: self.model.features.dim(),
        }
    }

    /// Reattaches a [`DetachedPredictor`] to `model`, restoring a live
    /// predictor without repacking.
    ///
    /// The packed weights are *values copied at pack time*: the caller
    /// must reattach to the same model with unchanged parameters, or the
    /// steps will silently serve stale weights. After mutating the model
    /// (an online update), discard the detached state and rebuild via
    /// [`StreamPredictor::restore`] from a [`snapshot`](Self::snapshot)
    /// instead — that is the only repack an adaptation cycle pays.
    ///
    /// # Errors
    ///
    /// Returns a message when the detached state's geometry (expert count,
    /// hidden or feature dimension) disagrees with `model`.
    pub fn attach(model: &'m DeepRest, d: DetachedPredictor) -> Result<Self, String> {
        if d.experts != model.experts.len()
            || d.hidden_dim != model.config.hidden_dim
            || d.input_dim != model.features.dim()
        {
            return Err(format!(
                "detached predictor geometry ({} experts, h={}, d={}) does not match the model \
                 ({} experts, h={}, d={})",
                d.experts,
                d.hidden_dim,
                d.input_dim,
                model.experts.len(),
                model.config.hidden_dim,
                model.features.dim()
            ));
        }
        Ok(Self {
            model,
            slab: d.slab,
            shards: d.shards,
            hmat: d.hmat,
            pool: d.pool,
            step_kernel_ops: d.step_kernel_ops,
            position: d.position,
        })
    }
}

/// Packed serving state of a [`StreamPredictor`] with the model borrow
/// released — see [`StreamPredictor::detach`]. Opaque apart from its
/// carried state: [`StreamPredictor::attach`] it again to step.
pub struct DetachedPredictor {
    slab: ExpertSlab,
    shards: Vec<Shard>,
    hmat: Vec<f32>,
    pool: Pool,
    step_kernel_ops: f64,
    position: usize,
    experts: usize,
    hidden_dim: usize,
    input_dim: usize,
}

impl DetachedPredictor {
    /// Number of windows consumed so far (the index of the next window).
    pub fn position(&self) -> usize {
        self.position
    }

    /// The carried state, exactly as [`StreamPredictor::snapshot`] of the
    /// attached predictor would report it — readable without a model, so
    /// an owner holding only the detached form can checkpoint infallibly.
    pub fn snapshot(&self) -> StreamSnapshot {
        snapshot_shards(&self.shards, self.hidden_dim, self.position)
    }
}

/// Expert-ordered copy of the shards' carried hidden state.
fn snapshot_shards(shards: &[Shard], hidden_dim: usize, position: usize) -> StreamSnapshot {
    let mut hidden = Vec::with_capacity(shards.iter().map(|s| s.count).sum());
    for s in shards {
        for le in 0..s.count {
            hidden.push(s.hidden[le * hidden_dim..(le + 1) * hidden_dim].to_vec());
        }
    }
    StreamSnapshot { position, hidden }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeepRestConfig;
    use deeprest_metrics::{MetricKey, MetricsRegistry, ResourceKind, TimeSeries};
    use deeprest_trace::window::WindowedTraces;
    use deeprest_trace::SpanNode;

    /// Same miniature application the estimator tests train on: one API
    /// whose per-window request count drives one component's CPU + memory.
    fn tiny_dataset(windows: usize) -> (Interner, WindowedTraces, MetricsRegistry) {
        let mut i = Interner::new();
        let f = i.intern("Frontend");
        let read = i.intern("read");
        let api = i.intern("/read");
        let mut traces = WindowedTraces::with_windows(1.0, windows);
        let mut cpu = TimeSeries::zeros(0);
        let mut mem = TimeSeries::zeros(0);
        for t in 0..windows {
            let count = 3 + ((t % 16) as i32 - 8).unsigned_abs() as usize;
            for _ in 0..count {
                traces.windows[t].push(Trace::new(api, SpanNode::leaf(f, read)));
            }
            cpu.push(2.0 + 1.5 * count as f64);
            mem.push(64.0 + 0.5 * count as f64);
        }
        let mut metrics = MetricsRegistry::new();
        metrics.insert(MetricKey::new("Frontend", ResourceKind::Cpu), cpu);
        metrics.insert(MetricKey::new("Frontend", ResourceKind::Memory), mem);
        (i, traces, metrics)
    }

    fn trained(windows: usize) -> (Interner, WindowedTraces, DeepRest) {
        let (i, traces, metrics) = tiny_dataset(windows);
        let cfg = DeepRestConfig {
            hidden_dim: 12,
            epochs: 3,
            subseq_len: 16,
            batch_size: 4,
            ..DeepRestConfig::default()
        };
        let (model, _) = DeepRest::fit(&traces, &metrics, &i, cfg);
        (i, traces, model)
    }

    /// The hard contract: streaming estimates bit-equal the batch path,
    /// across multiple chunk-boundary resets (128 windows, subseq 16).
    #[test]
    fn streaming_matches_batch_bitwise() {
        let (i, traces, model) = trained(128);
        let batch = model.estimate_from_traces(&traces, &i);
        let keys = model.expert_keys();

        let mut stream = model.stream_predictor();
        for (t, window) in traces.windows.iter().enumerate() {
            let x = model.window_features(window, &i);
            let points = stream.step(&x);
            for (e, key) in keys.iter().enumerate() {
                let series = batch.get(key).unwrap();
                assert_eq!(
                    points[e].expected.to_bits(),
                    series.expected.get(t).to_bits(),
                    "expected mismatch at window {t} expert {key}"
                );
                assert_eq!(points[e].lower.to_bits(), series.lower.get(t).to_bits());
                assert_eq!(points[e].upper.to_bits(), series.upper.get(t).to_bits());
            }
        }
        assert_eq!(stream.position(), 128);
    }

    /// Checkpoint mid-stream (off a chunk boundary), restore, resume:
    /// outputs equal an uninterrupted run.
    #[test]
    fn snapshot_restore_resumes_bitwise() {
        let (i, traces, model) = trained(64);
        let xs: Vec<Vec<f32>> = traces
            .windows
            .iter()
            .map(|w| model.window_features(w, &i))
            .collect();

        let mut full = model.stream_predictor();
        let reference: Vec<_> = xs.iter().map(|x| full.step(x)).collect();

        let mut first = model.stream_predictor();
        for x in &xs[..29] {
            first.step(x);
        }
        let snap = first.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: StreamSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);

        let mut resumed = StreamPredictor::restore(&model, &back).unwrap();
        assert_eq!(resumed.position(), 29);
        for (t, x) in xs.iter().enumerate().skip(29) {
            assert_eq!(resumed.step(x), reference[t], "divergence at window {t}");
        }
    }

    #[test]
    fn restore_rejects_mismatched_snapshot() {
        let (_, _, model) = trained(32);
        let bad = StreamSnapshot {
            position: 1,
            hidden: vec![vec![0.0; 5]],
        };
        assert!(StreamPredictor::restore(&model, &bad).is_err());
        let bad_dim = StreamSnapshot {
            position: 1,
            hidden: vec![vec![0.0; 5], vec![0.0; 5]],
        };
        assert!(StreamPredictor::restore(&model, &bad_dim).is_err());
    }
}
