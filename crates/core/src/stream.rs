//! Stepwise (streaming) inference over a trained [`DeepRest`] model — the
//! crate's one forward pass.
//!
//! A stream carries every expert's GRU hidden state across windows and
//! advances all experts by exactly one GRU step + attention + head when a
//! new window's features arrive: O(1) per window for online serving. The
//! batch queries ([`DeepRest::estimate_from_traces`],
//! [`DeepRest::estimate_traffic`], [`DeepRest::estimate_what_if`]) are the
//! same computation — each steps a predictor over its feature rows.
//!
//! # Who owns what
//!
//! Every value the forward reads — gate stacks, `σ(mask)`, attention
//! columns, head and skip weights — is packed into the model's one
//! [`deeprest_nn::ExpertSlab`], which also plans the shards (contiguous
//! expert ranges, one per pool worker) and owns the forward arithmetic;
//! training steps the very same calls. The model packs it when it comes
//! into being and repacks it wherever it writes its parameters, so a stream
//! owns no weights at all. What a stream owns is [`CarriedState`]: the
//! hidden vectors (reset at chunk boundaries), this window's support,
//! masked inputs and outputs, the `H_t` matrix, per-shard scratch and the
//! position.
//! Starting a stream, restoring one from a snapshot, forking a what-if off
//! one and rolling one back therefore copy hidden vectors and nothing else,
//! and any number of streams of one model share its pack.
//!
//! A [`CarriedState`] is stepped against a model handed in at the step, so
//! it outlives updates to a *mutable* model: `deeprest-serve`'s pipeline
//! keeps it in its window stages, apart from the driver that owns the model
//! (`deeprest-adapt`'s adapter updates it between windows), and the next
//! step reads whatever parameters the model holds then. [`StreamPredictor`]
//! is the same state bound to a borrowed model, for everyone whose model
//! stands still.
//!
//! # Batched stepping
//!
//! [`CarriedState::step`] is tape-free and batched. Around the slab's calls
//! it adds fault probes, telemetry and the output postprocessing. One window
//! advances as
//!
//! 1. per shard (parallel): `mask_into`, then `step_range` — three batched
//!    GEMVs over the packed gate stacks advance the shard's hidden states in
//!    place, the input-side one over the window's support only (the columns
//!    where `x` is non-zero, found once per window and shared by every
//!    shard);
//! 2. serial barrier: `gather_hidden` scatters the hidden columns into one
//!    `(hidden, experts)` matrix;
//! 3. per shard (parallel): `heads` — cross-expert attention for the whole
//!    shard as **one** GEMM, one batched head GEMV (plus one batched skip
//!    GEMV when configured) — then the scalar postprocessing.
//!
//! Per-shard scratch comes from a private
//! [`BufferPool`] arena, so after the first
//! window steady-state serving performs zero kernel allocations at any
//! thread count.
//!
//! # Bit-identity contract
//!
//! The model is trained on `subseq_len.max(2)`-window subsequences that
//! each start from a zero hidden state, so [`CarriedState::step`] resets
//! its hidden state at the same chunk boundaries. Within a chunk the slab
//! forward performs the exact per-element float operations of the op-by-op
//! formulation (Eq. 1–4 on the autodiff tape; see the `deeprest_nn::slab`
//! module docs for why), and sharding never splits a contraction: experts
//! are data-parallel until the serial hidden gather, so the shard count
//! (and therefore `DEEPREST_THREADS`) cannot move a single rounding.
//!
//! That tape formulation is kept as a test-only oracle in
//! `crates/core/src/oracle.rs` (`#[cfg(test)]`): its unit tests prove
//! `step` bit-identical to the tape's chunked unroll across expert counts
//! and shard plans; `crates/core/tests/batched_stream.rs` covers shard
//! portability, quarantine isolation and the zero-allocation invariant.

use deeprest_fault as fault;
use deeprest_telemetry as telemetry;
use deeprest_tensor::kernel::Support;
use deeprest_tensor::BufferPool;
use deeprest_trace::{Interner, Trace};
use serde::{Deserialize, Serialize};

/// Reads the message out of a panic that unwound from
/// [`CarriedState::step`]: the pool re-raises a failed chunk's own
/// payload, so callers that contain the step decode it with the pool's
/// decoder.
pub use deeprest_tensor::pool::panic_message;

use crate::features::translating;
use crate::model::Expert;
use crate::DeepRest;

/// One window's `(expected, lower, upper)` estimate for one expert, after
/// denormalization and the quantile-crossing guard — the streaming
/// counterpart of one element of a
/// [`PredictedSeries`](crate::PredictedSeries).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PointEstimate {
    /// Median (expected) utilization.
    pub expected: f64,
    /// Lower confidence limit.
    pub lower: f64,
    /// Upper confidence limit.
    pub upper: f64,
}

/// Serializable snapshot of a [`CarriedState`]: the
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

/// A rollback point of a [`CarriedState`]: its position and every hidden
/// value in one flat buffer, in expert order.
/// [`save`](CarriedState::save) overwrites it in place, so a caller that
/// keeps one and saves before every step allocates nothing once it is warm.
/// Only [`rollback`](CarriedState::rollback) reads it; a checkpoint or a
/// fork takes a [`StreamSnapshot`].
#[derive(Debug, Default)]
pub struct RollbackPoint {
    position: usize,
    hidden: Vec<f32>,
}

/// The carried state of one of the slab's shards (same index, same expert
/// range). Shards never read each other's state; the only cross-shard
/// dataflow is the serial hidden gather between the two parallel phases.
struct Shard {
    /// Carried hidden states, `count * hidden_dim`, packed per expert.
    hidden: Vec<f32>,
    /// Masked inputs of the current window, `count * input_dim` (written
    /// in phase one, read again by the skip path in phase two).
    masked: Vec<f32>,
    /// Finished estimates for this shard's experts, in expert order.
    out: Vec<PointEstimate>,
    /// Private scratch arena: all per-window buffers are taken from (and
    /// returned to) this pool, so warm steps allocate nothing.
    scratch: BufferPool,
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

/// Everything one stream carries from window to window — and everything a
/// stream owns; see the [module docs](self). Step it against the model it
/// was started on ([`step`](Self::step)); the weights it reads are that
/// model's, as they are at the step.
pub struct CarriedState {
    /// One per shard of the model's slab.
    shards: Vec<Shard>,
    /// The gathered `(hidden_dim, experts)` matrix of post-step hidden
    /// columns (the tape's `concat_cols`), rebuilt serially every window.
    hmat: Vec<f32>,
    /// This window's support: the columns where `x` is non-zero. Holds
    /// capacity for every column, so refilling it never allocates.
    support: Support,
    hidden_dim: usize,
    position: usize,
}

/// Stateful O(1)-per-window inference over a trained model: a
/// [`CarriedState`] bound to the model it steps.
///
/// Create with [`DeepRest::stream_predictor`], feed per-window normalized
/// features (from [`DeepRest::window_features`]) to [`step`](Self::step),
/// and get back one [`PointEstimate`] per expert in
/// [`DeepRest::expert_keys`] order.
pub struct StreamPredictor<'m> {
    model: &'m DeepRest,
    carried: CarriedState,
}

impl DeepRest {
    /// Starts a streaming predictor at position 0 with zero hidden state.
    pub fn stream_predictor(&self) -> StreamPredictor<'_> {
        StreamPredictor {
            model: self,
            carried: CarriedState::new(self),
        }
    }

    /// Extracts the normalized feature vector for one window of query
    /// traces named by `from` — the per-window unit of the batch
    /// [`estimate_from_traces`](Self::estimate_from_traces) pipeline: one
    /// walk of the traces as they arrived, symbols read through a per-call
    /// `from` → model memo, Alg. 2 path counting, normalization. Streaming
    /// features are bit-identical to the batch extraction.
    ///
    /// # Panics
    ///
    /// Panics if a walked span names a symbol outside `from`.
    pub fn window_features(&self, window: &[Trace], from: &Interner) -> Vec<f32> {
        let mut sym = translating(&self.interner, from);
        self.features
            .normalize(self.features.extract_with(window, &mut sym))
    }
}

impl CarriedState {
    /// Zero hidden state at position 0, shaped for `model`'s shard plan.
    pub fn new(model: &DeepRest) -> Self {
        let h = model.config.hidden_dim;
        let d = model.features.dim();
        let shards = model
            .slab
            .shards()
            .iter()
            .map(|range| Shard {
                hidden: vec![0.0; range.len() * h],
                masked: vec![0.0; range.len() * d],
                out: vec![PointEstimate::default(); range.len()],
                scratch: BufferPool::new(),
            })
            .collect();
        Self {
            shards,
            hmat: vec![0.0; h * model.experts.len()],
            support: Support::with_capacity(d),
            hidden_dim: h,
            position: 0,
        }
    }

    /// Number of windows consumed so far (the index of the next window).
    pub fn position(&self) -> usize {
        self.position
    }

    /// Whether this state is laid out for `model`'s shard plan and shape.
    fn fits(&self, model: &DeepRest) -> bool {
        let (h, d) = (model.config.hidden_dim, model.features.dim());
        let laid_out = self.shards.iter().map(|s| (s.hidden.len(), s.masked.len()));
        let planned = model.slab.shards().iter();
        (self.hidden_dim, self.hmat.len()) == (h, h * model.experts.len())
            && laid_out.eq(planned.map(|range| (range.len() * h, range.len() * d)))
    }

    /// Advances every expert of `model` by one window and returns the
    /// denormalized `(expected, lower, upper)` estimates in expert order.
    ///
    /// One iteration of the Eq. 1–4 unroll with the carried hidden state
    /// as the recurrence input, a reset to zero state at every
    /// `subseq_len.max(2)` chunk boundary (the training regime), and the
    /// output postprocessing. The test-only tape in `oracle.rs` is the
    /// reference for every float this produces.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the model's feature dimension, or
    /// the state was started on a model of another shape or shard plan.
    pub fn step(&mut self, model: &DeepRest, x: &[f32]) -> Vec<PointEstimate> {
        let dim = model.features.dim();
        assert_eq!(
            x.len(),
            dim,
            "StreamPredictor::step: feature dim mismatch (got {}, model has {dim})",
            x.len()
        );
        assert!(
            self.fits(model),
            "StreamPredictor::step: carried state was not started on this model's geometry"
        );
        let e_count = model.experts.len();
        let h = model.config.hidden_dim;

        // Training starts every `subseq_len.max(2)` chunk from a fresh zero
        // hidden state; inference keeps the same boundaries.
        let len = model.config.subseq_len.max(2);
        if self.position.is_multiple_of(len) {
            for s in &mut self.shards {
                s.hidden.fill(0.0);
            }
        }

        // Fault probe: `stream.step` panics mid-step, after the hidden
        // state may already have been mutated — callers that survive it
        // must roll back to a pre-step rollback point (serve's
        // `WindowStages::step` does).
        // Worker panics (the pool's `pool.worker` probe included) propagate
        // out of the phase fan-outs below and are handled the same way.
        fault::maybe_panic("stream.step");

        let Self {
            shards,
            hmat,
            support,
            ..
        } = self;
        let (slab, experts, pool) = (&model.slab, &model.experts, model.pool());
        let plan = slab.shards();
        support.fill(x);
        let support = &*support;

        pool.for_each_mut(shards, |i, s| {
            slab.mask_into(plan[i].clone(), x, &mut s.masked);
            slab.step_range(
                plan[i].clone(),
                &s.masked,
                support,
                &mut s.hidden,
                &mut s.scratch,
                None,
            );
        });
        // Serial barrier: every expert's hidden column into the shared
        // (hidden, experts) matrix.
        for (range, s) in plan.iter().zip(shards.iter()) {
            slab.gather_hidden(range.clone(), &s.hidden, hmat);
        }
        pool.for_each_mut(shards, |i, s| {
            let count = plan[i].len();
            let mut cat = s.scratch.take(count * 2 * h);
            let mut y = s.scratch.take(count * 3);
            slab.heads(
                i,
                hmat,
                &s.hidden,
                &s.masked,
                support,
                &mut cat,
                &mut y,
                &mut s.scratch,
            );
            let experts = &experts[plan[i].clone()];
            for ((out, expert), v) in s.out.iter_mut().zip(experts).zip(y.chunks_exact(3)) {
                *out = postprocess(expert, v);
            }
            s.scratch.put(y);
            s.scratch.put(cat);
        });

        let mut out = Vec::with_capacity(e_count);
        for s in shards.iter() {
            out.extend_from_slice(&s.out);
        }
        // Fault probe: `stream.hidden` poisons the carried state of one
        // expert (payload = expert index) or all experts, modeling a
        // numeric blow-up that persists across windows.
        if let Some(payload) = fault::armed("stream.hidden") {
            for (range, s) in plan.iter().zip(shards.iter_mut()) {
                for (c, e) in range.clone().enumerate() {
                    if payload == fault::PAYLOAD_ALL || payload == e as u64 {
                        s.hidden[c * h..(c + 1) * h].fill(f32::NAN);
                    }
                }
            }
        }
        if telemetry::enabled() {
            telemetry::counter("stream.steps", 1);
            // A constant of the model configuration: serving tests assert
            // the O(1) step cost on it.
            telemetry::gauge("stream.step.kernel_ops", slab.kernel_ops() as f64);
            telemetry::gauge("stream.batch.shards", plan.len() as f64);
            telemetry::gauge("stream.batch.experts", e_count as f64);
            // The density the step ran at: its input-side cost is
            // proportional to this, not to the feature dimension.
            telemetry::gauge("stream.step.nnz", support.nnz() as f64);
        }
        self.position += 1;
        out
    }

    /// Whether every carried hidden value is finite. A `false` here means
    /// the state is poisoned: every future step would emit NaN, so callers
    /// should restore from a known-good snapshot rather than keep stepping.
    pub fn hidden_is_finite(&self) -> bool {
        self.shards
            .iter()
            .all(|s| s.hidden.iter().all(|v| v.is_finite()))
    }

    /// The carried hidden vectors, one per expert in expert order.
    fn hidden_rows(&self) -> impl Iterator<Item = &[f32]> {
        let h = self.hidden_dim;
        self.shards
            .iter()
            .flat_map(move |s| (0..s.out.len()).map(move |c| &s.hidden[c * h..(c + 1) * h]))
    }

    /// Indices of experts whose carried hidden state contains non-finite
    /// values (empty when [`hidden_is_finite`](Self::hidden_is_finite)).
    pub fn hidden_nonfinite_experts(&self) -> Vec<usize> {
        self.hidden_rows()
            .enumerate()
            .filter(|(_, hidden)| hidden.iter().any(|v| !v.is_finite()))
            .map(|(e, _)| e)
            .collect()
    }

    /// Captures the carried state for crash recovery or a what-if fork;
    /// feed to [`restore`](Self::restore) (with the same model) to resume
    /// with bit-identical continuation. Snapshots are expert-ordered and
    /// thus portable across shard/thread counts.
    pub fn snapshot(&self) -> StreamSnapshot {
        StreamSnapshot {
            position: self.position,
            hidden: self.hidden_rows().map(<[f32]>::to_vec).collect(),
        }
    }

    /// Rebuilds the state from a [`snapshot`](Self::snapshot), laid out
    /// for `model`'s shard plan: copies the hidden vectors, nothing else.
    ///
    /// # Errors
    ///
    /// Returns a message when the snapshot's shape disagrees with the
    /// model (wrong expert count or hidden dimension) — the snapshot was
    /// taken against a different model.
    pub fn restore(model: &DeepRest, snap: &StreamSnapshot) -> Result<Self, String> {
        let (e_count, hidden_dim) = (model.experts.len(), model.config.hidden_dim);
        if snap.hidden.len() != e_count || snap.hidden.iter().any(|hv| hv.len() != hidden_dim) {
            let dims: Vec<usize> = snap.hidden.iter().map(Vec::len).collect();
            return Err(format!(
                "snapshot holds hidden states of dims {dims:?}, model has {e_count} experts of \
                 hidden_dim {hidden_dim}"
            ));
        }
        let hidden = snap.hidden.concat();
        Self::rollback(
            model,
            &RollbackPoint {
                position: snap.position,
                hidden,
            },
        )
    }

    /// Overwrites `point` with this state's position and hidden values.
    pub fn save(&self, point: &mut RollbackPoint) {
        point.position = self.position;
        point.hidden.clear();
        for s in &self.shards {
            point.hidden.extend_from_slice(&s.hidden);
        }
    }

    /// Rebuilds the state [`save`](Self::save)d in `point`, laid out for
    /// `model`'s shard plan: fresh buffers, the hidden values copied back.
    ///
    /// # Errors
    ///
    /// Returns a message when `point` holds another number of hidden
    /// values than `model` carries — it was saved against another model.
    pub fn rollback(model: &DeepRest, point: &RollbackPoint) -> Result<Self, String> {
        let mut state = Self::new(model);
        let carried: usize = state.shards.iter().map(|s| s.hidden.len()).sum();
        if point.hidden.len() != carried {
            return Err(format!(
                "rollback point holds {} hidden values, the model carries {carried}",
                point.hidden.len()
            ));
        }
        state.position = point.position;
        let mut from = point.hidden.as_slice();
        for s in &mut state.shards {
            let (head, rest) = from.split_at(s.hidden.len());
            s.hidden.copy_from_slice(head);
            from = rest;
        }
        Ok(state)
    }
}

impl<'m> StreamPredictor<'m> {
    /// Number of windows consumed so far (the index of the next window).
    pub fn position(&self) -> usize {
        self.carried.position
    }

    /// Number of shards the expert state is partitioned into.
    pub fn shard_count(&self) -> usize {
        self.carried.shards.len()
    }

    /// Resident bytes behind this stream — the `deeprest capacity` tool's
    /// memory figure: the model's packed slab (one per model, shared by
    /// all its streams) plus this stream's own hidden state, masked inputs
    /// and gathered hidden matrix; excludes transient scratch.
    pub fn state_bytes(&self) -> usize {
        let shards = self.carried.shards.iter();
        let own: usize = shards.map(|s| s.hidden.len() + s.masked.len()).sum();
        self.model.slab.bytes() + (own + self.carried.hmat.len()) * std::mem::size_of::<f32>()
    }

    /// [`CarriedState::step`] against the bound model.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the model's feature dimension.
    pub fn step(&mut self, x: &[f32]) -> Vec<PointEstimate> {
        self.carried.step(self.model, x)
    }

    /// See [`CarriedState::hidden_is_finite`].
    pub fn hidden_is_finite(&self) -> bool {
        self.carried.hidden_is_finite()
    }

    /// See [`CarriedState::hidden_nonfinite_experts`].
    pub fn hidden_nonfinite_experts(&self) -> Vec<usize> {
        self.carried.hidden_nonfinite_experts()
    }

    /// See [`CarriedState::snapshot`].
    pub fn snapshot(&self) -> StreamSnapshot {
        self.carried.snapshot()
    }

    /// A predictor over `model` resumed from a [`snapshot`](Self::snapshot).
    ///
    /// # Errors
    ///
    /// See [`CarriedState::restore`].
    pub fn restore(model: &'m DeepRest, snap: &StreamSnapshot) -> Result<Self, String> {
        CarriedState::restore(model, snap).map(|carried| Self { model, carried })
    }
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

    /// A rollback point, saved over again and again, puts the state back
    /// where the last save found it, bit for bit, and refuses another
    /// model's shape.
    #[test]
    fn a_rollback_point_puts_the_state_back_bitwise() {
        let (i, traces, model) = trained(64);
        let xs: Vec<Vec<f32>> = traces
            .windows
            .iter()
            .map(|w| model.window_features(w, &i))
            .collect();
        let mut state = CarriedState::new(&model);
        let mut point = RollbackPoint::default();
        for x in &xs[..29] {
            state.save(&mut point);
            state.step(&model, x);
        }
        state.save(&mut point);
        let saved = state.snapshot();
        let next = state.step(&model, &xs[29]);
        let mut back = CarriedState::rollback(&model, &point).unwrap();
        assert_eq!(back.snapshot(), saved);
        assert_eq!(back.step(&model, &xs[29]), next);

        point.hidden.pop();
        assert!(CarriedState::rollback(&model, &point).is_err());
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
