//! The packed expert swarm: every value the forward pass reads, packed
//! once, plus the forward itself.
//!
//! The tape formulation binds nine GRU parameters, a mask, an attention
//! vector and a head per expert and issues a dozen small GEMVs per expert
//! per window. [`ExpertSlab`] instead packs every expert's values out of
//! the [`ParamStore`] into contiguous slabs laid out the way the forward
//! multiplies by them. A matrix the forward multiplies a vector by is packed
//! **input-major** — one row per input, one column per output, the
//! transpose of the store's row-major `(out, in)` tensor — so the product is
//! a walk over inputs that can leave inputs out:
//!
//! ```text
//! w          : per expert  [W_z; W_k; W_h]ᵀ  (input, 3·hidden): row kk holds
//!                                            column kk of all three gates
//! u_zk       : per expert  [U_z; U_k]ᵀ       (hidden, 2·hidden)
//! u_h        : per expert  U_hᵀ              (hidden, hidden)
//! bias       : per expert  [b_z; b_k; b_h]   3·hidden values
//! mask_sig   : per expert  σ(m)              input values (ones when unmasked)
//! alpha_cols : per shard   (experts, count)  column c = α of expert lo + c,
//!                                            self entry zeroed
//! head_w/b   : per expert  (3, 2·hidden) + 3 row-major: three long rows
//! skip_w/b   : per expert  Sᵀ (input, 3) + 3 (empty without the skip path)
//! ```
//!
//! and plans the shards (contiguous expert ranges, one per worker) the
//! attention columns are grouped by. Each weight is held once; the backward
//! reads its row-major operands from the store the slab was packed from
//! (see [`crate::train`]). One window of Eq. 1–4 is then three calls per
//! shard, all over flat slices the caller owns:
//!
//! 1. [`ExpertSlab::mask_into`] — `x̃ = σ(m) ⊙ x` for a range of experts;
//! 2. [`ExpertSlab::step_range`] — one GRU step for the range as three
//!    [`deeprest_tensor::kernel::gemv_t_batch_into`] calls plus two fused
//!    elementwise passes, optionally stashing `z`/`k`/`h̃` for a backward;
//! 3. [`ExpertSlab::heads`] — cross-expert attention as **one** GEMM
//!    against the shard's columns, concat, one batched head GEMV (plus one
//!    batched skip GEMV) → the three raw quantile outputs per expert.
//!
//! Between 2 and 3 the caller gathers every shard's hidden columns into
//! `H_t` ([`ExpertSlab::gather_hidden`]) — the only cross-shard dataflow.
//! Serving (`deeprest-core`'s `StreamPredictor`) and training
//! ([`crate::AnalyticTrainer`]) both run exactly this sequence; what they
//! add is state (carried hidden vs. per-timestep stashes), never forward
//! arithmetic.
//!
//! **The support.** `x` is a vector of invocation-path counts (Alg. 2), and
//! a window exercises few of the application's paths, so most of it is
//! exactly zero — and `x̃ = σ(m) ⊙ x` is zero wherever `x` is, for every
//! expert, because a mask only scales. The two products that read `x̃`
//! (`[W_z; W_k; W_h]·x̃` in the step, `S·x̃` in the heads) therefore take
//! the window's *support*: the columns where `x ≠ 0`, a
//! [`Support`] the caller [`fill`](Support::fill)s from `x` once per window
//! and the whole swarm shares. They visit those rows of the input-major pack and no
//! others, so their cost is `nnz`, not `input`; a dense window is a support
//! that lists every column, and there is no other forward. The products
//! that read a hidden state (`[U_z; U_k]·h`, `U_h·(k ⊙ h)`) take no support
//! and skip nothing: a non-finite carried state must reach every output it
//! reaches on the tape.
//!
//! **Ownership.** A slab is a value copy of the parameters, so it lives
//! next to them: whoever owns the [`ParamStore`] owns its one slab
//! (`deeprest-core`'s model; the resrc-aware baseline's forecaster), packs
//! it once, and calls [`ExpertSlab::repack`] wherever it writes the store —
//! after an optimizer step, after a rollback. The slab remembers the
//! [`ExpertSpec`]s it was packed from, so a repack takes the store and
//! nothing else. Everyone else (predictors, trainers, what-if forks) reads
//! it by reference and owns only their own state.
//!
//! **Bit-identity.** Stacking the *columns* of input-major matrices does
//! not change any output element: column `i` of `[W_z; W_k; W_h]ᵀ` against
//! `x̃` is the contraction the unstacked row-major GEMV runs for row
//! `i mod hidden` — term `kk` into lane `kk mod 8`, ascending, one fixed
//! tree reduce (the kernel contract) — over the same operand values. A term
//! the support leaves out is `w · ±0.0`, which cannot change a lane that
//! started at `+0.0` when `w` is finite (the kernel module's signed-zero
//! lemma), so the support moves no bit either. Attention for `count`
//! experts as one GEMM produces, per output element, the bits of the
//! per-expert GEMV (the contract fixes every element's accumulation order
//! regardless of how many columns ride in one call). The elementwise math
//! reproduces the tape ops verbatim (`act((wx + uh) + b)` for the fused
//! gates, `(z·h) + ((1-z)·h̃)` for the output mix, `k·h` for the reset
//! product, `(W·cat + b) + (S·x̃ + b_s)` for the output), and a shard never
//! splits a contraction, so the forward is bit-for-bit the tape's at any
//! shard plan and any support. Asserted by this module's tests, `tests/
//! prop_analytic_train.rs`, and `deeprest-core`'s `oracle` unit tests.

use std::ops::Range;

use deeprest_tensor::kernel::{gemm_into, gemv_batch_into, gemv_t_batch_into, Support};
use deeprest_tensor::{BufferPool, ParamId, ParamStore};

use crate::{GruCell, Linear};

/// One shard per started group of this many experts (capped by the worker
/// count): below it the per-window fan-out overhead outweighs the parallel
/// work, so small swarms run single-sharded on the caller's thread.
const MIN_EXPERTS_PER_SHARD: usize = 8;

/// Parameter handles of one expert, in the estimator's architecture:
/// sigmoid feature mask → GRU → cross-expert attention → quantile head,
/// with an optional linear skip path from the masked features.
#[derive(Clone, Copy, Debug)]
pub struct ExpertSpec {
    /// Mask logits `m^{c,r}`, shape `(input_dim, 1)`. Ignored (mask treated
    /// as all-ones) when the slab is packed with `api_mask` off.
    pub mask: ParamId,
    /// Recurrent core.
    pub cell: GruCell,
    /// Attention weights over all experts, shape `(experts, 1)`; the self
    /// entry is masked out. Ignored when `attention` is off.
    pub alpha: ParamId,
    /// Output head mapping `(a_t || h_t)` to the three quantile outputs.
    pub head: Linear,
    /// Optional skip path from the masked features to the outputs. Must be
    /// uniformly present or absent across experts.
    pub skip: Option<Linear>,
}

/// The shard plan: `experts` split into contiguous, non-empty ranges, one
/// per worker but never more than one per started group of 8 experts
/// (`MIN_EXPERTS_PER_SHARD`).
pub fn plan_shards(experts: usize, threads: usize) -> Vec<Range<usize>> {
    let shards = threads.min(experts.div_ceil(MIN_EXPERTS_PER_SHARD)).max(1);
    let chunk = experts.div_ceil(shards).max(1);
    (0..experts)
        .step_by(chunk)
        .map(|lo| lo..(lo + chunk).min(experts))
        .collect()
}

/// Writes the row-major `(rows, cols)` matrix `src` transposed into columns
/// `at..at + rows` of the row-major `(cols, width)` matrix `dst`.
fn put_transposed(dst: &mut [f32], width: usize, at: usize, src: &[f32], rows: usize) {
    let cols = dst.len() / width;
    for (c, out) in dst.chunks_exact_mut(width).enumerate() {
        for (r, o) in out[at..at + rows].iter_mut().enumerate() {
            *o = src[r * cols + c];
        }
    }
}

/// Caller-owned arenas [`ExpertSlab::step_range`] records the gate
/// activations into (`count · hidden_dim` each): update gate `z`, reset
/// gate `k` and candidate `h̃` — what a closed-form backward consumes.
pub struct GateStash<'a> {
    /// Update gate `z`.
    pub z: &'a mut [f32],
    /// Reset gate `k`.
    pub k: &'a mut [f32],
    /// Candidate state `h̃`.
    pub ht: &'a mut [f32],
}

/// The packed expert swarm; see the [module docs](self).
#[derive(Clone, Debug)]
pub struct ExpertSlab {
    /// The handles the slab was packed from, in expert order: what
    /// [`repack`](Self::repack) re-reads and the backward folds into.
    specs: Vec<ExpertSpec>,
    experts: usize,
    input_dim: usize,
    hidden_dim: usize,
    api_mask: bool,
    attention: bool,
    has_skip: bool,
    shards: Vec<Range<usize>>,
    /// Per expert: `[W_z; W_k; W_h]` input-major, `(input, 3·hidden)`.
    w: Vec<f32>,
    /// Per expert: `[U_z; U_k]` input-major, `(hidden, 2·hidden)`.
    u_zk: Vec<f32>,
    /// Per expert: `U_h` input-major, `(hidden, hidden)`.
    u_h: Vec<f32>,
    /// Per expert: `[b_z; b_k; b_h]`, `3·hidden` values.
    bias: Vec<f32>,
    /// Per expert: `σ(mask)` (`input` values), all ones without the API
    /// mask — the function the tape applied per step, computed once.
    mask_sig: Vec<f32>,
    /// Per shard, back to back: `(experts, count)` row-major, column `c`
    /// holding expert `lo + c`'s `α` with its self entry zeroed (the tape's
    /// `mask_out`). Empty without attention.
    alpha_cols: Vec<f32>,
    /// Per expert: head weights `(3, 2·hidden)` row-major.
    head_w: Vec<f32>,
    /// Per expert: 3 head biases.
    head_b: Vec<f32>,
    /// Per expert: skip weights input-major, `(input, 3)`; empty without
    /// the skip path.
    skip_w: Vec<f32>,
    /// Per expert: 3 skip biases; empty without the skip path.
    skip_b: Vec<f32>,
}

impl ExpertSlab {
    /// Packs the current values of every expert's parameters out of
    /// `store` and plans shards for `threads` workers. The slab is a value
    /// copy that remembers `specs`: whoever writes the parameters
    /// [`repack`](Self::repack)s it afterwards (see the
    /// [module docs](self) on ownership).
    ///
    /// `api_mask` off packs an all-ones mask; `attention` off packs no
    /// attention columns and [`heads`](Self::heads) concatenates zeros.
    ///
    /// # Panics
    ///
    /// Panics with [`try_pack`](Self::try_pack)'s message if `specs` is not
    /// a swarm the slab can hold.
    pub fn pack(
        store: &ParamStore,
        specs: &[ExpertSpec],
        api_mask: bool,
        attention: bool,
        threads: usize,
    ) -> Self {
        Self::try_pack(store, specs, api_mask, attention, threads)
            .unwrap_or_else(|why| panic!("ExpertSlab: {why}"))
    }

    /// [`pack`](Self::pack) for handles that are outside input (read from a
    /// model file): checks them against `store` before reading through
    /// them.
    ///
    /// # Errors
    ///
    /// Returns what disagrees, naming the expert: the skip path on some
    /// experts only, or a handle the pack reads that is outside `store` or
    /// does not hold the element count the first expert's
    /// `(input_dim, hidden_dim)` gives its role (`mask` and `alpha` are not
    /// read when packed off).
    pub fn try_pack(
        store: &ParamStore,
        specs: &[ExpertSpec],
        api_mask: bool,
        attention: bool,
        threads: usize,
    ) -> Result<Self, String> {
        Self::check(store, specs, api_mask, attention)?;
        let e = specs.len();
        let d = specs.first().map_or(0, |s| s.cell.input_dim());
        let h = specs.first().map_or(0, |s| s.cell.hidden_dim());
        let has_skip = specs.first().is_some_and(|s| s.skip.is_some());
        let skip_len = if has_skip { e } else { 0 };
        let mut slab = Self {
            specs: specs.to_vec(),
            experts: e,
            input_dim: d,
            hidden_dim: h,
            api_mask,
            attention,
            has_skip,
            shards: plan_shards(e, threads),
            w: vec![0.0; e * 3 * h * d],
            u_zk: vec![0.0; e * 2 * h * h],
            u_h: vec![0.0; e * h * h],
            bias: vec![0.0; e * 3 * h],
            mask_sig: vec![1.0; e * d],
            alpha_cols: vec![0.0; if attention { e * e } else { 0 }],
            head_w: vec![0.0; e * 3 * 2 * h],
            head_b: vec![0.0; e * 3],
            skip_w: vec![0.0; skip_len * 3 * d],
            skip_b: vec![0.0; skip_len * 3],
        };
        slab.repack(store);
        Ok(slab)
    }

    /// [`try_pack`](Self::try_pack)'s check, before anything is read.
    fn check(
        store: &ParamStore,
        specs: &[ExpertSpec],
        api_mask: bool,
        attention: bool,
    ) -> Result<(), String> {
        let Some(first) = specs.first() else {
            return Ok(());
        };
        let (d, h) = (first.cell.input_dim(), first.cell.hidden_dim());
        for (e, spec) in specs.iter().enumerate() {
            if spec.skip.is_some() != first.skip.is_some() {
                return Err(format!(
                    "expert {e}: skip path must be uniform across experts"
                ));
            }
            let gates = spec.cell.param_ids().into_iter();
            let sized = gates
                .zip([h * d, h * h, h].into_iter().cycle())
                .chain([(spec.head.w, 6 * h), (spec.head.b, 3)])
                .chain(api_mask.then_some((spec.mask, d)))
                .chain(attention.then_some((spec.alpha, specs.len())))
                .chain(spec.skip.into_iter().flat_map(|s| [(s.w, 3 * d), (s.b, 3)]));
            for (id, want) in sized {
                let got = (id.index() < store.len()).then(|| store.value(id).len());
                if got != Some(want) {
                    return Err(format!(
                        "expert {e}: parameter #{} holds {got:?} values where {want} fit the \
                         {d}-input, {h}-unit swarm (experts must share one shape)",
                        id.index()
                    ));
                }
            }
        }
        Ok(())
    }

    /// Refreshes every packed value in place from the current values of the
    /// parameters the slab was packed from; performs no heap allocation.
    pub fn repack(&mut self, store: &ParamStore) {
        let (e_total, d, h) = (self.experts, self.input_dim, self.hidden_dim);
        let mut shard = 0;
        for (e, spec) in self.specs.iter().enumerate() {
            let cell = &spec.cell;
            let value = |id| store.value(id).data();
            let w = &mut self.w[e * 3 * h * d..(e + 1) * 3 * h * d];
            for (g, id) in [cell.wz, cell.wk, cell.wh].into_iter().enumerate() {
                put_transposed(w, 3 * h, g * h, value(id), h);
            }
            let u_zk = &mut self.u_zk[e * 2 * h * h..(e + 1) * 2 * h * h];
            for (g, id) in [cell.uz, cell.uk].into_iter().enumerate() {
                put_transposed(u_zk, 2 * h, g * h, value(id), h);
            }
            put_transposed(
                &mut self.u_h[e * h * h..(e + 1) * h * h],
                h,
                0,
                value(cell.uh),
                h,
            );
            for (g, id) in [cell.bz, cell.bk, cell.bh].into_iter().enumerate() {
                self.bias[(e * 3 + g) * h..][..h].copy_from_slice(value(id));
            }
            if self.api_mask {
                for (o, &m) in self.mask_sig[e * d..][..d].iter_mut().zip(value(spec.mask)) {
                    *o = sigmoid(m);
                }
            }
            if self.attention {
                while self.shards[shard].end <= e {
                    shard += 1;
                }
                let Range { start: lo, end: hi } = self.shards[shard];
                let (count, c) = (hi - lo, e - lo);
                let cols = &mut self.alpha_cols[e_total * lo..e_total * hi];
                for (k, &a) in value(spec.alpha).iter().enumerate() {
                    cols[k * count + c] = a;
                }
                // The tape's `mask_out`: an expert never attends to itself.
                cols[e * count + c] = 0.0;
            }
            self.head_w[e * 6 * h..][..6 * h].copy_from_slice(value(spec.head.w));
            self.head_b[e * 3..][..3].copy_from_slice(value(spec.head.b));
            if let Some(skip) = &spec.skip {
                put_transposed(
                    &mut self.skip_w[e * 3 * d..(e + 1) * 3 * d],
                    3,
                    0,
                    value(skip.w),
                    3,
                );
                self.skip_b[e * 3..][..3].copy_from_slice(value(skip.b));
            }
        }
    }

    /// The handles the slab was packed from, in expert order.
    pub fn specs(&self) -> &[ExpertSpec] {
        &self.specs
    }

    /// Spot check that the slab was repacked after the last write to
    /// `store`: one gate block (`W_z`) and one recurrent block (`U_h`) of
    /// the first and of the last expert hold `store`'s values bit for bit.
    /// Whoever reads forward values from the slab and their row-major
    /// counterparts from the store (the analytic backward) rests on this.
    pub fn is_current_for(&self, store: &ParamStore) -> bool {
        let (d, h) = (self.input_dim, self.hidden_dim);
        let ends = [0, self.experts.saturating_sub(1)];
        ends.into_iter().take(self.experts).all(|e| {
            let cell = &self.specs[e].cell;
            let (wz, uh) = (store.value(cell.wz).data(), store.value(cell.uh).data());
            let w = &self.w[e * 3 * h * d..(e + 1) * 3 * h * d];
            let u = &self.u_h[e * h * h..(e + 1) * h * h];
            (0..h).all(|i| {
                (0..d).all(|kk| w[kk * 3 * h + i].to_bits() == wz[i * d + kk].to_bits())
                    && (0..h).all(|j| u[j * h + i].to_bits() == uh[i * h + j].to_bits())
            })
        })
    }

    /// Number of packed experts.
    pub fn experts(&self) -> usize {
        self.experts
    }

    /// Input dimensionality shared by all packed experts.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden-state dimensionality shared by all packed experts.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Whether the experts carry the linear skip path.
    pub fn has_skip(&self) -> bool {
        self.has_skip
    }

    /// The planned shards: contiguous expert ranges covering `0..experts`.
    pub fn shards(&self) -> &[Range<usize>] {
        &self.shards
    }

    /// Batched kernel invocations of one window's forward: 3 gate GEMVs +
    /// 1 attention GEMM + 1 head GEMV (+ 1 skip GEMV) per shard — a
    /// constant of the packed configuration.
    pub fn kernel_ops(&self) -> usize {
        self.shards.len() * (4 + usize::from(self.attention) + usize::from(self.has_skip))
    }

    /// Total bytes of packed storage (the capacity tool's bytes-per-expert
    /// numerator).
    pub fn bytes(&self) -> usize {
        [
            &self.w,
            &self.u_zk,
            &self.u_h,
            &self.bias,
            &self.mask_sig,
            &self.alpha_cols,
            &self.head_w,
            &self.head_b,
            &self.skip_w,
            &self.skip_b,
        ]
        .iter()
        .map(|v| v.len())
        .sum::<usize>()
            * std::mem::size_of::<f32>()
    }

    /// Eq. 1 for `range`: writes `x̃_e = σ(m_e) ⊙ x` (the tape's
    /// `mul(mask_sig, x)`) packed per expert into `masked`
    /// (`range.len() · input_dim`).
    pub fn mask_into(&self, range: Range<usize>, x: &[f32], masked: &mut [f32]) {
        let d = self.input_dim;
        debug_assert_eq!(masked.len(), range.len() * d, "ExpertSlab: bad masked slab");
        for (c, e) in range.enumerate() {
            let row = &mut masked[c * d..(c + 1) * d];
            for ((o, &m), &xi) in row.iter_mut().zip(self.mask_of(e)).zip(x) {
                *o = m * xi;
            }
        }
    }

    /// Eq. 2 for `range`: advances the experts by one GRU step, in place.
    ///
    /// `xs` holds the experts' masked input vectors packed per expert
    /// (`count · input_dim`) and `support` the window's support, filled
    /// from the unmasked `x` (so every `x̃` is zero outside it); `hidden`
    /// holds their carried states
    /// (`count · hidden_dim`), overwritten with the new states. With a
    /// `stash` the gate activations of the step land in the caller's
    /// arenas; without one they live in scratch. Scratch is drawn from
    /// `scratch` and returned before the call ends, so a warm pool makes
    /// the step allocation-free.
    ///
    /// Exactly three batched GEMV calls; bit-identical to `count`
    /// invocations of the tape's `BoundGruCell::step` (see the
    /// [module docs](self)).
    ///
    /// # Panics
    ///
    /// Panics on a support filled from a vector of another length than
    /// `input_dim` and (in debug builds) on range, slab or arena length
    /// mismatch.
    pub fn step_range(
        &self,
        range: Range<usize>,
        xs: &[f32],
        support: &Support,
        hidden: &mut [f32],
        scratch: &mut BufferPool,
        stash: Option<GateStash<'_>>,
    ) {
        let (d, h) = (self.input_dim, self.hidden_dim);
        let (lo, count) = (range.start, range.len());
        debug_assert!(range.end <= self.experts, "ExpertSlab: range out of bounds");
        debug_assert_eq!(xs.len(), count * d, "ExpertSlab: bad input slab");
        debug_assert_eq!(hidden.len(), count * h, "ExpertSlab: bad hidden slab");

        let mut lent = None;
        let GateStash { z, k, ht } = match stash {
            Some(stash) => stash,
            None => {
                let [z, k, ht] = lent.insert([(); 3].map(|()| scratch.take(count * h)));
                GateStash { z, k, ht }
            }
        };
        debug_assert!(
            [z.len(), k.len(), ht.len()] == [count * h; 3],
            "ExpertSlab: bad gate arena"
        );

        // wx = [W_z; W_k; W_h] · x̃ over the support and
        // uzk = [U_z; U_k] · h_{t-1} over every hidden unit, for every
        // expert in the range: two batched GEMVs over the packed stacks.
        let mut wx = scratch.take(count * 3 * h);
        gemv_t_batch_into(
            &mut wx,
            &self.w[lo * 3 * h * d..range.end * 3 * h * d],
            d,
            3 * h,
            xs,
            Some(support),
            count,
        );
        let mut uzk = scratch.take(count * 2 * h);
        gemv_t_batch_into(
            &mut uzk,
            &self.u_zk[lo * 2 * h * h..range.end * 2 * h * h],
            h,
            2 * h,
            hidden,
            None,
            count,
        );

        // Gates and reset product, elementwise per expert:
        //   z = σ((wx_z + uh_z) + b_z), k = σ((wx_k + uh_k) + b_k),
        //   gated = k ⊙ h_{t-1}.
        let mut gated = scratch.take(count * h);
        for e in 0..count {
            let wx_e = &wx[e * 3 * h..];
            let uzk_e = &uzk[e * 2 * h..];
            let b_e = &self.bias[(lo + e) * 3 * h..];
            let h_e = &hidden[e * h..(e + 1) * h];
            for i in 0..h {
                let zi = sigmoid((wx_e[i] + uzk_e[i]) + b_e[i]);
                let ki = sigmoid((wx_e[h + i] + uzk_e[h + i]) + b_e[h + i]);
                z[e * h + i] = zi;
                k[e * h + i] = ki;
                gated[e * h + i] = ki * h_e[i];
            }
        }

        // uh = U_h · (k ⊙ h_{t-1}): the third batched GEMV.
        let mut uh = scratch.take(count * h);
        gemv_t_batch_into(
            &mut uh,
            &self.u_h[lo * h * h..range.end * h * h],
            h,
            h,
            &gated,
            None,
            count,
        );

        // h̃ = tanh((wx_h + uh) + b_h); h = z ⊙ h_{t-1} + (1 - z) ⊙ h̃.
        for e in 0..count {
            let wx_e = &wx[e * 3 * h..];
            let b_e = &self.bias[(lo + e) * 3 * h..];
            for i in 0..h {
                let hti = ((wx_e[2 * h + i] + uh[e * h + i]) + b_e[2 * h + i]).tanh();
                let zi = z[e * h + i];
                let hp = hidden[e * h + i];
                ht[e * h + i] = hti;
                hidden[e * h + i] = (zi * hp) + ((1.0 - zi) * hti);
            }
        }

        scratch.put(uh);
        scratch.put(gated);
        scratch.put(uzk);
        scratch.put(wx);
        for buf in lent.into_iter().flatten() {
            scratch.put(buf);
        }
    }

    /// Scatters `range`'s hidden states (`count · hidden_dim`, packed per
    /// expert) into their columns of the `(hidden_dim, experts)` matrix
    /// `hmat` — the tape's `concat_cols`. Every shard gathers into the same
    /// `hmat` before any shard runs [`heads`](Self::heads).
    pub fn gather_hidden(&self, range: Range<usize>, hidden: &[f32], hmat: &mut [f32]) {
        let (e_total, h) = (self.experts, self.hidden_dim);
        debug_assert_eq!(hidden.len(), range.len() * h, "ExpertSlab: bad hidden slab");
        debug_assert_eq!(hmat.len(), h * e_total, "ExpertSlab: bad hidden matrix");
        for (c, e) in range.enumerate() {
            for r in 0..h {
                hmat[r * e_total + e] = hidden[c * h + r];
            }
        }
    }

    /// Eq. 3–4 for shard `shard`: attention over the gathered `hmat` as one
    /// GEMM against the shard's columns, `cat_e = [a_e ; h_e]` (the tape's
    /// `concat_rows`), one batched head GEMV and — with the skip path — one
    /// batched skip GEMV over the shard's `masked` inputs.
    ///
    /// Writes `cat` (`count · 2·hidden_dim`, kept for the head backward)
    /// and the raw quantile outputs `y` (`count · 3`), associated exactly
    /// as the tape's add chain: `(W·cat + b) + (S·x̃ + b_s)`. `hidden` is
    /// the shard's post-step state; `masked` and its `support` (as in
    /// [`step_range`](Self::step_range)) are only read with the skip path.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) on slab length mismatch.
    #[allow(clippy::too_many_arguments)] // flat caller-owned slabs, one per operand
    pub fn heads(
        &self,
        shard: usize,
        hmat: &[f32],
        hidden: &[f32],
        masked: &[f32],
        support: &Support,
        cat: &mut [f32],
        y: &mut [f32],
        scratch: &mut BufferPool,
    ) {
        let (e_total, d, h) = (self.experts, self.input_dim, self.hidden_dim);
        let Range { start: lo, end: hi } = self.shards[shard];
        let count = hi - lo;
        let two_h = 2 * h;
        debug_assert_eq!(hidden.len(), count * h, "ExpertSlab: bad hidden slab");
        debug_assert_eq!(cat.len(), count * two_h, "ExpertSlab: bad concat slab");
        debug_assert_eq!(y.len(), count * 3, "ExpertSlab: bad output slab");

        // `take` hands the buffer back zeroed — exactly the constant the
        // tape concatenates when attention is disabled.
        let mut att = scratch.take(h * count);
        if self.attention {
            // a_e = H_t · α_e for the whole shard: one GEMM whose
            // per-element dots are bit-identical to the per-expert GEMV
            // against the same `H_t` rows and masked α column.
            let cols = &self.alpha_cols[e_total * lo..e_total * hi];
            gemm_into(&mut att, hmat, h, e_total, cols, count);
        }
        for c in 0..count {
            for r in 0..h {
                cat[c * two_h + r] = att[r * count + c];
                cat[c * two_h + h + r] = hidden[c * h + r];
            }
        }
        scratch.put(att);

        gemv_batch_into(
            y,
            &self.head_w[lo * 3 * two_h..hi * 3 * two_h],
            3,
            two_h,
            cat,
            count,
        );
        for (yv, b) in y.iter_mut().zip(&self.head_b[lo * 3..hi * 3]) {
            *yv += b;
        }
        if self.has_skip {
            let mut lin = scratch.take(count * 3);
            gemv_t_batch_into(
                &mut lin,
                &self.skip_w[lo * 3 * d..hi * 3 * d],
                d,
                3,
                masked,
                Some(support),
                count,
            );
            for ((yv, lv), b) in y.iter_mut().zip(&lin).zip(&self.skip_b[lo * 3..hi * 3]) {
                *yv += lv + b;
            }
            scratch.put(lin);
        }
    }

    /// Expert `e`'s packed `σ(mask)` (`input` values).
    pub fn mask_of(&self, e: usize) -> &[f32] {
        &self.mask_sig[e * self.input_dim..(e + 1) * self.input_dim]
    }

    /// Expert `e`'s head weights, row-major `(3, 2·hidden)`.
    pub fn head_w_of(&self, e: usize) -> &[f32] {
        let blk = 6 * self.hidden_dim;
        &self.head_w[e * blk..(e + 1) * blk]
    }

    /// The attention weights shard `shard`'s experts put on expert
    /// `target` (`count` values, self entry zero) — row `target` of the
    /// shard's packed columns, which is how the attention backward reads
    /// `α` without a second, row-major pack.
    pub fn alpha_toward(&self, shard: usize, target: usize) -> &[f32] {
        let Range { start: lo, end: hi } = self.shards[shard];
        &self.alpha_cols[self.experts * lo + target * (hi - lo)..][..hi - lo]
    }
}

/// The tape's logistic sigmoid, verbatim (`Graph::sigmoid` /
/// `Graph::gate_sigmoid` use this exact expression).
#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use deeprest_tape::{BoundGruCell, BoundLinear, Graph};
    use deeprest_tensor::Tensor;
    use rand::SeedableRng;

    /// `n` experts in the estimator's registration order.
    fn swarm(n: usize, input: usize, hidden: usize, skip: bool) -> (ParamStore, Vec<ExpertSpec>) {
        let mut store = ParamStore::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let specs = (0..n)
            .map(|i| ExpertSpec {
                mask: store.add(
                    format!("e{i}.mask"),
                    Tensor::rand_uniform(input, 1, -3.0, 3.0, &mut rng),
                ),
                cell: GruCell::new(&mut store, &format!("e{i}"), input, hidden, &mut rng),
                alpha: store.add(
                    format!("e{i}.alpha"),
                    Tensor::rand_uniform(n, 1, 0.0, 0.02, &mut rng),
                ),
                head: Linear::new(&mut store, &format!("e{i}.head"), 2 * hidden, 3, &mut rng),
                skip: skip
                    .then(|| Linear::new(&mut store, &format!("e{i}.skip"), input, 3, &mut rng)),
            })
            .collect();
        (store, specs)
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The 8-expert floor bounds the shard *count* (`⌈E/8⌉`: a swarm of up
    /// to 8 experts is never split), not every shard's width — 9 experts on
    /// 2 threads is a 5 + 4 split — so the width check below is balance.
    #[test]
    fn shard_plan_is_contiguous_nonempty_and_bounded() {
        for experts in [1usize, 7, 8, 9, 17, 64, 256] {
            for threads in [1usize, 2, 3, 4, 64] {
                let plan = plan_shards(experts, threads);
                let tag = format!("{experts} experts / {threads} threads: {plan:?}");
                assert_eq!(
                    plan.len(),
                    threads.min(experts.div_ceil(MIN_EXPERTS_PER_SHARD)),
                    "{tag}"
                );
                assert_eq!(plan[0].start, 0, "{tag}");
                assert_eq!(plan.last().unwrap().end, experts, "{tag}");
                assert!(plan.windows(2).all(|p| p[0].end == p[1].start), "{tag}");
                assert!(plan.iter().all(|r| !r.is_empty()), "{tag}");
                // Balanced: no shard is wider than the first, and only the
                // last may be narrower.
                let width = plan[0].len();
                assert!(
                    plan[..plan.len() - 1].iter().all(|r| r.len() == width),
                    "{tag}"
                );
                assert!(plan.last().unwrap().len() <= width, "{tag}");
            }
        }
        assert!(plan_shards(0, 4).is_empty());
    }

    /// The hard contract: a slab step over any expert range carries exactly
    /// the bits of the tape step across several windows of carried state —
    /// with or without a stash — and the stashed `z`/`k`/`h̃` are the tape's
    /// gate node values.
    #[test]
    fn step_range_is_bit_identical_to_tape_step_with_and_without_stash() {
        let (n, d, h) = (5, 7, 6);
        let (store, specs) = swarm(n, d, h, false);
        let slab = ExpertSlab::pack(&store, &specs, true, true, 1);
        assert_eq!(slab.experts(), n);

        let mut g = Graph::new();
        let bound: Vec<_> = specs
            .iter()
            .map(|s| BoundGruCell::bind(&mut g, &store, s.cell.param_ids()))
            .collect();
        let mut href: Vec<Tensor> = (0..n).map(|_| Tensor::zeros(h, 1)).collect();
        // Slab under test, advanced in two uneven ranges per window.
        let mut h_plain = vec![0.0f32; n * h];
        let mut h_stash = vec![0.0f32; n * h];
        let (mut z, mut k, mut ht) = (
            vec![0.0f32; n * h],
            vec![0.0f32; n * h],
            vec![0.0f32; n * h],
        );
        let mut scratch = BufferPool::new();
        let mut support = Support::with_capacity(d);

        for t in 0..4 {
            let x: Vec<f32> = (0..d).map(|i| ((t * d + i) as f32 * 0.3).sin()).collect();
            support.fill(&x);
            let xslab = x.repeat(n);
            for (lo, hi) in [(0, 2), (2, n)] {
                slab.step_range(
                    lo..hi,
                    &xslab[lo * d..hi * d],
                    &support,
                    &mut h_plain[lo * h..hi * h],
                    &mut scratch,
                    None,
                );
                slab.step_range(
                    lo..hi,
                    &xslab[lo * d..hi * d],
                    &support,
                    &mut h_stash[lo * h..hi * h],
                    &mut scratch,
                    Some(GateStash {
                        z: &mut z[lo * h..hi * h],
                        k: &mut k[lo * h..hi * h],
                        ht: &mut ht[lo * h..hi * h],
                    }),
                );
            }
            assert_eq!(
                bits(&h_plain),
                bits(&h_stash),
                "window {t}: stash moved the state"
            );

            for (e, spec) in specs.iter().enumerate() {
                // The tape step's own gate nodes, op for op.
                let cell = &spec.cell;
                let xv = g.constant(Tensor::vector(x.clone()));
                let hv = g.constant_copy(&href[e]);
                let gate = |g: &mut Graph, [w, u, b]: [ParamId; 3], operand| {
                    let (w, u, b) = (g.param(&store, w), g.param(&store, u), g.param(&store, b));
                    (g.matmul(w, xv), g.matmul(u, operand), b)
                };
                let (wx, uh, b) = gate(&mut g, [cell.wz, cell.uz, cell.bz], hv);
                let z_ref = g.gate_sigmoid(wx, uh, b);
                let (wx, uh, b) = gate(&mut g, [cell.wk, cell.uk, cell.bk], hv);
                let k_ref = g.gate_sigmoid(wx, uh, b);
                let gated = g.mul(k_ref, hv);
                let (wx, uh, b) = gate(&mut g, [cell.wh, cell.uh, cell.bh], gated);
                let ht_ref = g.gate_tanh(wx, uh, b);
                let next = bound[e].step(&mut g, xv, hv);
                href[e].clone_from(g.value(next));

                let at = e * h..(e + 1) * h;
                assert_eq!(
                    bits(&h_plain[at.clone()]),
                    bits(href[e].data()),
                    "h, expert {e}"
                );
                assert_eq!(
                    bits(&z[at.clone()]),
                    bits(g.value(z_ref).data()),
                    "z, expert {e}"
                );
                assert_eq!(
                    bits(&k[at.clone()]),
                    bits(g.value(k_ref).data()),
                    "k, expert {e}"
                );
                assert_eq!(bits(&ht[at]), bits(g.value(ht_ref).data()), "h̃, expert {e}");
            }
        }
    }

    /// One window through the slab from the carried `hidden` (expert
    /// order, advanced in place): mask → step → gather → heads, every shard
    /// of the plan, with `x`'s own support. Returns the raw outputs.
    fn slab_window(slab: &ExpertSlab, x: &[f32], hidden: &mut [f32]) -> Vec<f32> {
        let (n, d, h) = (slab.experts(), slab.input_dim(), slab.hidden_dim());
        let mut scratch = BufferPool::new();
        let mut support = Support::default();
        support.fill(x);
        let mut masked = vec![0.0f32; n * d];
        let mut hmat = vec![0.0f32; h * n];
        for r in slab.shards() {
            let (xs, hs) = (
                &mut masked[r.start * d..r.end * d],
                &mut hidden[r.start * h..r.end * h],
            );
            slab.mask_into(r.clone(), x, xs);
            slab.step_range(r.clone(), xs, &support, hs, &mut scratch, None);
            slab.gather_hidden(r.clone(), hs, &mut hmat);
        }
        let mut y = vec![0.0f32; n * 3];
        for (s, r) in slab.shards().iter().enumerate() {
            let mut cat = vec![0.0f32; r.len() * 2 * h];
            slab.heads(
                s,
                &hmat,
                &hidden[r.start * h..r.end * h],
                &masked[r.start * d..r.end * d],
                &support,
                &mut cat,
                &mut y[r.start * 3..r.end * 3],
                &mut scratch,
            );
        }
        y
    }

    /// The same window on the tape, op for op as the estimator's oracle
    /// unrolls it (Eq. 1–4 over the store's row-major parameters, dense):
    /// advances `hidden` and returns the raw outputs.
    fn tape_window(
        store: &ParamStore,
        specs: &[ExpertSpec],
        attention: bool,
        x: &[f32],
        hidden: &mut [Tensor],
    ) -> Vec<f32> {
        let g = &mut Graph::new();
        let h = specs[0].cell.hidden_dim();
        let xv = g.constant(Tensor::vector(x.to_vec()));
        let masked: Vec<_> = specs
            .iter()
            .map(|spec| {
                let m = g.param(store, spec.mask);
                let sig = g.sigmoid(m);
                g.mul(sig, xv)
            })
            .collect();
        let next: Vec<_> = specs
            .iter()
            .zip(&masked)
            .zip(hidden.iter())
            .map(|((spec, &xm), prev)| {
                let prev = g.constant_copy(prev);
                BoundGruCell::bind(g, store, spec.cell.param_ids()).step(g, xm, prev)
            })
            .collect();
        let hmat = g.concat_cols(&next);
        let mut y = Vec::with_capacity(specs.len() * 3);
        for (e, spec) in specs.iter().enumerate() {
            let att = if attention {
                let alpha = g.param(store, spec.alpha);
                let alpha = g.mask_out(alpha, e);
                g.matmul(hmat, alpha)
            } else {
                g.constant_zeros(h, 1)
            };
            let cat = g.concat_rows(&[att, next[e]]);
            let mut out = BoundLinear::bind(g, store, spec.head.w, spec.head.b).forward(g, cat);
            if let Some(skip) = &spec.skip {
                let lin = BoundLinear::bind(g, store, skip.w, skip.b).forward(g, masked[e]);
                out = g.add(out, lin);
            }
            y.extend_from_slice(g.value(out).data());
        }
        for (carried, &var) in hidden.iter_mut().zip(&next) {
            carried.clone_from(g.value(var));
        }
        y
    }

    /// A count-like window: `nnz` non-zero entries of `d`, their positions
    /// moving with `t`, a negative zero and a denormal among the rest.
    fn sparse_window(d: usize, nnz: usize, t: usize) -> Vec<f32> {
        let mut x = vec![0.0f32; d];
        for j in 0..nnz.min(d) {
            x[(j * d / nnz.max(1) + 5 * t) % d] = 1.0 + ((t + j) % 4) as f32;
        }
        if nnz < d {
            x[(d / 2 + t) % d] = if x[(d / 2 + t) % d] == 0.0 {
                -0.0
            } else {
                1.0e-41
            };
        }
        x
    }

    /// Neither the support nor the input-major layout reaches a float:
    /// whole windows through the slab — empty support, 1, 2 and 8 non-zero
    /// paths, dense — carry the tape's bits in every hidden state and every
    /// output, at ragged and aligned shapes, with and without the skip
    /// path, on one shard and on two.
    #[test]
    fn forward_is_bit_identical_to_tape_at_any_support() {
        let n = 10;
        for (d, h, skip) in [
            (67, 4, true),
            (67, 16, false),
            (128, 16, true),
            (128, 4, false),
        ] {
            let (store, specs) = swarm(n, d, h, skip);
            for threads in [1, 4] {
                let slab = ExpertSlab::pack(&store, &specs, true, true, threads);
                for nnz in [0, 1, 2, 8, d] {
                    let mut carried = vec![0.0f32; n * h];
                    let mut reference: Vec<Tensor> = (0..n).map(|_| Tensor::zeros(h, 1)).collect();
                    for t in 0..3 {
                        let x = sparse_window(d, nnz, t);
                        let y = slab_window(&slab, &x, &mut carried);
                        let want = tape_window(&store, &specs, true, &x, &mut reference);
                        let tag =
                            format!("d {d} h {h} skip {skip} threads {threads} nnz {nnz} t {t}");
                        assert_eq!(bits(&y), bits(&want), "outputs, {tag}");
                        let want_h: Vec<f32> =
                            reference.iter().flat_map(|r| r.data().to_vec()).collect();
                        assert_eq!(bits(&carried), bits(&want_h), "hidden, {tag}");
                    }
                }
            }
        }
    }

    /// The hidden side is never skipped: one expert's carried state set to
    /// NaN comes out NaN for that expert — state and outputs — and leaves
    /// every other expert the tape's bits, under a sparse window.
    #[test]
    fn a_nan_hidden_state_poisons_exactly_its_expert_under_a_sparse_window() {
        let (n, d, h, poisoned) = (10, 67, 16, 3);
        let (store, specs) = swarm(n, d, h, true);
        let x = sparse_window(d, 2, 1);
        for threads in [1, 4] {
            // Attention off: with it on, `H_t·α` carries the NaN column
            // into every expert's outputs, on the tape as here.
            let slab = ExpertSlab::pack(&store, &specs, true, false, threads);
            let mut carried = vec![0.25f32; n * h];
            carried[poisoned * h..(poisoned + 1) * h].fill(f32::NAN);
            let mut reference: Vec<Tensor> = carried
                .chunks(h)
                .map(|c| Tensor::vector(c.to_vec()))
                .collect();
            let y = slab_window(&slab, &x, &mut carried);
            let want = tape_window(&store, &specs, false, &x, &mut reference);
            for e in 0..n {
                let (got_h, got_y) = (&carried[e * h..(e + 1) * h], &y[e * 3..(e + 1) * 3]);
                if e == poisoned {
                    assert!(
                        got_h.iter().chain(got_y).all(|v| v.is_nan()),
                        "{got_h:?} {got_y:?}"
                    );
                } else {
                    assert_eq!(bits(got_h), bits(reference[e].data()), "hidden, expert {e}");
                    assert_eq!(
                        bits(got_y),
                        bits(&want[e * 3..(e + 1) * 3]),
                        "y, expert {e}"
                    );
                }
            }
        }
    }

    /// Mask → step → gather → heads over a two-shard plan equals the
    /// one-shard plan bit for bit, and a repack tracks updated parameters
    /// exactly like a fresh pack.
    #[test]
    fn forward_is_shard_plan_invariant_and_repack_matches_fresh_pack() {
        let (n, d, h) = (10, 4, 5);
        let (mut store, specs) = swarm(n, d, h, true);
        let forward = |slab: &ExpertSlab| {
            let x: Vec<f32> = (0..d).map(|i| (i as f32 * 0.7).cos()).collect();
            bits(&slab_window(slab, &x, &mut vec![0.0f32; n * h]))
        };

        let mut one = ExpertSlab::pack(&store, &specs, true, true, 1);
        let mut two = ExpertSlab::pack(&store, &specs, true, true, 4);
        assert_eq!((one.shards().len(), two.shards().len()), (1, 2));
        assert_eq!(one.kernel_ops(), 6);
        assert_eq!(two.kernel_ops(), 12);
        assert_eq!(forward(&one), forward(&two));

        // Perturb one value of every packed family, repack, compare with a
        // fresh pack.
        let before = forward(&one);
        for spec in &specs {
            let skip = spec.skip.as_ref().unwrap();
            for id in [spec.mask, spec.cell.wz, spec.alpha, spec.head.b, skip.w] {
                store.value_mut(id).data_mut()[0] += 0.5;
            }
        }
        one.repack(&store);
        two.repack(&store);
        let fresh = forward(&ExpertSlab::pack(&store, &specs, true, true, 4));
        assert_ne!(fresh, before);
        assert_eq!(forward(&one), fresh);
        assert_eq!(forward(&two), fresh);
    }

    #[test]
    fn warm_scratch_makes_steps_allocation_free() {
        use deeprest_telemetry::{self as telemetry, MemorySink};
        use std::sync::Arc;

        let (store, specs) = swarm(3, 4, 8, false);
        let slab = ExpertSlab::pack(&store, &specs, true, true, 1);
        let xs = vec![0.5f32; 3 * 4];
        let mut all = Support::default();
        all.fill(&xs[..4]);
        let mut hidden = vec![0.0f32; 3 * 8];
        let mut scratch = BufferPool::new();
        let sink = Arc::new(MemorySink::new());
        telemetry::with_sink(sink.clone(), || {
            slab.step_range(0..3, &xs, &all, &mut hidden, &mut scratch, None);
            let warm = sink.counter("kernel.alloc");
            for _ in 0..10 {
                slab.step_range(0..3, &xs, &all, &mut hidden, &mut scratch, None);
            }
            assert_eq!(
                sink.counter("kernel.alloc"),
                warm,
                "warm slab steps must not allocate"
            );
            assert!(sink.counter("kernel.scratch_reuse") >= 50);
        });
    }

    #[test]
    fn bytes_accounts_all_packed_values() {
        let (n, d, h) = (2, 3, 4);
        let (store, specs) = swarm(n, d, h, true);
        let slab = ExpertSlab::pack(&store, &specs, true, true, 1);
        let gates = 3 * h * d + 2 * h * h + h * h + 3 * h;
        let per_expert = gates + d + n + (6 * h + 3) + (3 * d + 3);
        assert_eq!(slab.bytes(), n * per_expert * 4);
    }

    #[test]
    #[should_panic(expected = "share one shape")]
    fn pack_rejects_mixed_shapes() {
        let (mut store, mut specs) = swarm(2, 3, 4, false);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        specs[1].cell = GruCell::new(&mut store, "b", 3, 5, &mut rng);
        ExpertSlab::pack(&store, &specs, true, true, 1);
    }

    /// Handles that came from a file: each way they can disagree with the
    /// store is an error naming the expert, and what a pack never reads
    /// (mask and alpha when packed off) is not checked.
    #[test]
    fn check_refuses_handles_the_store_cannot_serve() {
        let (mut store, specs) = swarm(3, 4, 5, true);
        assert_eq!(ExpertSlab::check(&store, &specs, true, true), Ok(()));

        let stray = ParamStore::new();
        let err = ExpertSlab::check(&stray, &specs, true, true).unwrap_err();
        assert!(err.contains("expert 0") && err.contains("None"), "{err}");

        let mut mixed = specs.clone();
        mixed[2].skip = None;
        let err = ExpertSlab::check(&store, &mixed, true, true).unwrap_err();
        assert!(err.contains("expert 2") && err.contains("skip"), "{err}");

        let mut crossed = specs.clone();
        crossed[1].head.w = specs[1].head.b;
        let err = ExpertSlab::check(&store, &crossed, true, true).unwrap_err();
        assert!(err.contains("expert 1") && err.contains("Some(3)"), "{err}");

        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut reshaped = specs.clone();
        reshaped[2].cell = GruCell::new(&mut store, "b", 4, 6, &mut rng);
        let err = ExpertSlab::check(&store, &reshaped, true, true).unwrap_err();
        assert!(
            err.contains("expert 2") && err.contains("one shape"),
            "{err}"
        );

        let off = store.add("off", Tensor::zeros(0, 0));
        let mut unmasked = specs.clone();
        for spec in &mut unmasked {
            (spec.mask, spec.alpha) = (off, off);
        }
        assert!(ExpertSlab::check(&store, &unmasked, true, false).is_err());
        assert!(ExpertSlab::check(&store, &unmasked, false, true).is_err());
        assert_eq!(ExpertSlab::check(&store, &unmasked, false, false), Ok(()));
    }
}
