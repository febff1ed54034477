//! The autodiff-tape reference implementation — compiled only under
//! `#[cfg(test)]`.
//!
//! Release builds ship one forward ([`crate::stream::StreamPredictor::step`],
//! which every `estimate_*` entry point steps) and one backward
//! (`deeprest_nn::AnalyticTrainer`, behind `DeepRest::fit`). Both are
//! hand-batched over the packed expert slab; this module keeps the
//! straightforward formulation they were derived from — Eq. 1–4 and 6
//! written op by op on the general reverse-mode tape (`deeprest_tape::Graph`,
//! a dev-dependency) — so the unit tests below can prove the two agree bit
//! for bit:
//!
//! * [`DeepRest::fit_tape`] ≡ [`DeepRest::fit`]: training trajectory,
//!   trained parameters and `estimate_traffic` bits, SGD and Adam, any
//!   thread count;
//! * [`DeepRest::predict_tape`] ≡ stepping a `StreamPredictor`: every
//!   window, every expert count (including one) and every shard plan.

use std::collections::BTreeMap;

use deeprest_metrics::{MetricsRegistry, TimeSeries};
use deeprest_nn::loss::quantiles_for;
use deeprest_nn::{Adam, Sgd};
use deeprest_tape::{BoundGruCell, BoundLinear, GradBuffer, Graph, Var};
use deeprest_telemetry as telemetry;
use deeprest_tensor::Tensor;
use deeprest_trace::window::WindowedTraces;
use deeprest_trace::Interner;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::{DeepRest, DeepRestConfig, Estimates, OptimizerKind, PredictedSeries};

/// Per-epoch mean losses plus the per-expert split, as `TrainReport` and
/// `fit_incremental` report them.
type Losses = (Vec<f32>, BTreeMap<String, Vec<f32>>);

impl DeepRest {
    /// [`DeepRest::fit`] with the tape as the training engine: the same
    /// feature space, synthesizer and initial parameters (a zero-epoch
    /// fit), then `config.epochs` epochs of [`train_tape`](Self::train_tape).
    fn fit_tape(
        traces: &WindowedTraces,
        metrics: &MetricsRegistry,
        interner: &Interner,
        config: DeepRestConfig,
    ) -> (Self, Losses) {
        let untrained = DeepRestConfig {
            epochs: 0,
            ..config.clone()
        };
        let (mut model, _) = Self::fit(traces, metrics, interner, untrained);
        model.config = config;
        let epochs = model.config.epochs;
        let losses = model.fit_incremental_tape(traces, metrics, interner, epochs);
        (model, losses)
    }

    /// [`DeepRest::fit_incremental`] with the tape as the training engine.
    fn fit_incremental_tape(
        &mut self,
        traces: &WindowedTraces,
        metrics: &MetricsRegistry,
        interner: &Interner,
        epochs: usize,
    ) -> Losses {
        let (xs, targets) = self.training_inputs(traces, metrics, interner);
        self.train_tape(&xs, &targets, epochs)
    }

    /// Training on the autodiff tape: one graph per subsequence. Shuffles,
    /// batches, folds, clips and steps exactly like `train_epochs`.
    ///
    /// Batches fan out across the pool at subsequence granularity: each
    /// batch position owns a persistent [`JobSlot`] whose [`GradBuffer`] is
    /// reused every batch; the buffers are folded into the shared store in
    /// subsequence order, so training is bit-identical at any thread count.
    fn train_tape(
        &mut self,
        xs: &[Vec<f32>],
        targets: &[Vec<f32>],
        epochs: usize,
    ) -> (Vec<f32>, BTreeMap<String, Vec<f32>>) {
        let t = xs.len();
        let len = self.config.subseq_len.max(2);
        let starts: Vec<usize> = (0..t).step_by(len).collect();
        let quantiles = quantiles_for(self.config.delta);
        let pool = self.pool();
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x9e37_79b9);

        let mut sgd;
        let mut adam;
        enum Opt<'a> {
            S(&'a mut Sgd),
            A(&'a mut Adam),
        }
        let mut opt = match self.config.optimizer {
            OptimizerKind::Sgd { lr, momentum } => {
                sgd = Sgd::new(lr, momentum);
                Opt::S(&mut sgd)
            }
            OptimizerKind::Adam { lr } => {
                adam = Adam::new(lr);
                Opt::A(&mut adam)
            }
        };

        let xs_tensors: Vec<Tensor> = xs.iter().map(|x| Tensor::vector(x.clone())).collect();
        let mut epoch_losses = Vec::with_capacity(epochs);
        let e_count = self.experts.len();
        let expert_names: Vec<String> = self.experts.iter().map(|e| format!("{}", e.key)).collect();
        let mut expert_epoch_losses: Vec<Vec<f32>> = vec![Vec::with_capacity(epochs); e_count];

        // One persistent slot per batch position: a private gradient buffer
        // and the per-subsequence reduction state.
        let mut slots: Vec<JobSlot> = (0..self.config.batch_size.max(1).min(starts.len()))
            .map(|_| JobSlot {
                buf: GradBuffer::zeros_like(&self.store),
                terms: Vec::new(),
                mask_sums: Vec::new(),
                expert_sums: vec![0.0f32; e_count],
                loss_sum: 0.0,
                n_terms: 0,
            })
            .collect();
        let mut order = Vec::with_capacity(starts.len());

        for _epoch in 0..epochs {
            order.clear();
            order.extend_from_slice(&starts);
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0f32;
            let mut epoch_terms = 0usize;
            let mut epoch_expert_sums = vec![0.0f32; e_count];

            for batch in order.chunks(self.config.batch_size.max(1)) {
                self.store.zero_grads();
                // Forward + backward every subsequence concurrently, each
                // into its slot's private gradient buffer.
                let scale = 1.0 / batch.len() as f32;
                let this = &*self;
                pool.for_each_mut(&mut slots[..batch.len()], |i, slot| {
                    let g = &mut Graph::new();
                    slot.buf.zero();
                    slot.terms.clear();
                    slot.mask_sums.clear();
                    slot.expert_sums.fill(0.0);
                    let start = batch[i];
                    let end = (start + len).min(t);
                    let fwd = this.forward(g, &xs_tensors[start..end]);
                    for (step, row) in fwd.outputs.iter().enumerate() {
                        for (e, &y_var) in row.iter().enumerate() {
                            let y = targets[e][start + step];
                            let term = g.pinball_fill(y_var, y, &quantiles);
                            slot.expert_sums[e] += g.value(term).data()[0];
                            slot.terms.push(term);
                        }
                    }
                    slot.n_terms = slot.terms.len();
                    let total = g.add_n(&slot.terms);
                    let mut loss = g.scale(total, 1.0 / slot.n_terms as f32);
                    if this.config.mask_l1 > 0.0 && this.config.api_mask {
                        // L1 pressure on σ(m): suppress irrelevant paths.
                        let dim = this.features.dim().max(1);
                        slot.mask_sums
                            .extend(fwd.mask_sig.iter().map(|&m| g.sum_all(m)));
                        let mask_total = g.add_n(&slot.mask_sums);
                        let penalty = g.scale(
                            mask_total,
                            this.config.mask_l1 / (dim * this.experts.len()) as f32,
                        );
                        loss = g.add(loss, penalty);
                    }
                    let scaled = g.scale(loss, scale);
                    slot.loss_sum = g.value(loss).data()[0] * slot.n_terms as f32;
                    g.backward_into(scaled, &mut slot.buf);
                });

                // Fold gradients in subsequence order, then one step.
                for slot in &slots[..batch.len()] {
                    slot.buf.absorb_into(&mut self.store);
                    epoch_loss += slot.loss_sum;
                    epoch_terms += slot.n_terms;
                    for (acc, s) in epoch_expert_sums.iter_mut().zip(slot.expert_sums.iter()) {
                        *acc += s;
                    }
                }
                self.store.clip_grad_norm(self.config.grad_clip);
                match &mut opt {
                    Opt::S(o) => o.step_with(&mut self.store, &pool),
                    Opt::A(o) => o.step_with(&mut self.store, &pool),
                }
            }
            epoch_losses.push(epoch_loss / epoch_terms.max(1) as f32);
            // Each training step contributes exactly one pinball term per
            // expert, so every expert saw `epoch_terms / e_count` terms.
            let per_expert_terms = (epoch_terms / e_count.max(1)).max(1) as f32;
            for (e, sum) in epoch_expert_sums.iter().enumerate() {
                expert_epoch_losses[e].push(sum / per_expert_terms);
            }
            if telemetry::enabled() {
                telemetry::counter("train.epochs", 1);
                telemetry::gauge("train.epoch_loss", f64::from(*epoch_losses.last().unwrap()));
                for (name, series) in expert_names.iter().zip(expert_epoch_losses.iter()) {
                    telemetry::gauge(
                        format!("train.loss.{name}"),
                        f64::from(*series.last().unwrap()),
                    );
                }
            }
        }
        // The tape wrote the store directly; the analytic forward reads
        // the pack.
        self.slab.repack(&self.store);
        let expert_losses = expert_names.into_iter().zip(expert_epoch_losses).collect();
        (epoch_losses, expert_losses)
    }

    /// Unrolls all experts in lockstep over `xs`. `outputs[t][e]` is the
    /// three-quantile output var of expert `e` at step `t`; `mask_sig[e]` is
    /// the expert's sigmoid mask node (reused by the training regularizer).
    ///
    /// [`crate::stream::StreamPredictor::step`] mirrors one iteration of
    /// this unroll with carried hidden state.
    fn forward(&self, g: &mut Graph, xs: &[Tensor]) -> Forward {
        let e_count = self.experts.len();
        let hidden = self.config.hidden_dim;

        // Bind parameters once per graph.
        let mask_sig: Vec<Var> = self
            .experts
            .iter()
            .map(|ex| {
                if self.config.api_mask {
                    let m = g.param(&self.store, ex.mask);
                    g.sigmoid(m)
                } else {
                    // Ablation: an all-ones mask (features pass unchanged).
                    g.constant_fill(self.features.dim(), 1, 1.0)
                }
            })
            .collect();
        let gru_bound: Vec<_> = self
            .experts
            .iter()
            .map(|ex| BoundGruCell::bind(g, &self.store, ex.gru.param_ids()))
            .collect();
        let alpha_masked: Vec<Var> = self
            .experts
            .iter()
            .enumerate()
            .map(|(i, ex)| {
                let a = g.param(&self.store, ex.alpha);
                // Zero out the self entry: Eq. 3 sums over (c',r') ≠ (c,r).
                g.mask_out(a, i)
            })
            .collect();
        let head_bound: Vec<_> = self
            .experts
            .iter()
            .map(|ex| BoundLinear::bind(g, &self.store, ex.head.w, ex.head.b))
            .collect();
        let skip_bound: Vec<Option<_>> = self
            .experts
            .iter()
            .map(|ex| {
                ex.skip
                    .as_ref()
                    .map(|s| BoundLinear::bind(g, &self.store, s.w, s.b))
            })
            .collect();

        let mut h: Vec<Var> = (0..e_count).map(|_| g.constant_zeros(hidden, 1)).collect();
        let mut outputs = Vec::with_capacity(xs.len());

        let mut masked_x: Vec<Var> = Vec::with_capacity(e_count);
        for x in xs {
            let xv = g.constant_copy(x);
            masked_x.clear();
            for e in 0..e_count {
                let masked = g.mul(mask_sig[e], xv);
                h[e] = gru_bound[e].step(g, masked, h[e]);
                masked_x.push(masked);
            }
            // Cross-component attention: a_e = H_t · (α_e ⊙ self_mask).
            let hmat = g.concat_cols(&h);
            let row: Vec<Var> = (0..e_count)
                .map(|e| {
                    let att = if self.config.attention {
                        g.matmul(hmat, alpha_masked[e])
                    } else {
                        // Ablation: no cross-expert information flow.
                        g.constant_zeros(hidden, 1)
                    };
                    let cat = g.concat_rows(&[att, h[e]]);
                    let y = head_bound[e].forward(g, cat);
                    match &skip_bound[e] {
                        Some(skip) => {
                            let lin = skip.forward(g, masked_x[e]);
                            g.add(y, lin)
                        }
                        None => y,
                    }
                })
                .collect();
            outputs.push(row);
        }
        Forward { outputs, mask_sig }
    }

    /// Runs the tape forward pass (no gradients) over normalized features,
    /// chunked into training-length subsequences with fresh hidden state —
    /// the same regime the model was trained under. Chunk boundaries
    /// (`subseq_len.max(2)`) and per-output postprocessing (scaler inverse +
    /// quantile-crossing guard) are what
    /// [`crate::stream::StreamPredictor::step`] must reproduce.
    fn predict_tape(&self, xs: &[Vec<f32>]) -> Estimates {
        let t = xs.len();
        let len = self.config.subseq_len.max(2);
        let xs_tensors: Vec<Tensor> = xs.iter().map(|x| Tensor::vector(x.clone())).collect();

        // Fan the independent subsequence chunks out across the pool; chunk
        // outputs are concatenated in chunk order, so estimates are
        // thread-count invariant.
        let starts: Vec<usize> = (0..t).step_by(len).collect();
        let chunks: Vec<Vec<Vec<[f32; 3]>>> = self.pool().map(starts.len(), |i| {
            let g = &mut Graph::new();
            let start = starts[i];
            let end = (start + len).min(t);
            let fwd = self.forward(g, &xs_tensors[start..end]);
            fwd.outputs
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|&y_var| {
                            let v = g.value(y_var).data();
                            [v[0], v[1], v[2]]
                        })
                        .collect()
                })
                .collect()
        });
        let mut raw: Vec<Vec<[f32; 3]>> = vec![Vec::with_capacity(t); self.experts.len()];
        for chunk in &chunks {
            for row in chunk {
                for (e, v) in row.iter().enumerate() {
                    raw[e].push(*v);
                }
            }
        }

        let mut map = BTreeMap::new();
        for (e, expert) in self.experts.iter().enumerate() {
            let mut expected = Vec::with_capacity(t);
            let mut lower = Vec::with_capacity(t);
            let mut upper = Vec::with_capacity(t);
            for v in &raw[e] {
                let exp = expert.scaler.inverse(f64::from(v[0])).max(0.0);
                let lo = expert.scaler.inverse(f64::from(v[1])).max(0.0);
                let up = expert.scaler.inverse(f64::from(v[2])).max(0.0);
                // Guard against quantile crossing.
                let lo2 = lo.min(exp).min(up);
                let up2 = up.max(exp).max(lo);
                expected.push(exp.clamp(lo2, up2));
                lower.push(lo2);
                upper.push(up2);
            }
            map.insert(
                expert.key.clone(),
                PredictedSeries {
                    expected: TimeSeries::from_values(expected),
                    lower: TimeSeries::from_values(lower),
                    upper: TimeSeries::from_values(upper),
                    is_delta: expert.is_delta,
                },
            );
        }
        Estimates { map }
    }
}

/// Persistent per-batch-position training state: one private gradient
/// buffer and the reusable reduction vectors for one subsequence.
struct JobSlot {
    buf: GradBuffer,
    terms: Vec<Var>,
    mask_sums: Vec<Var>,
    expert_sums: Vec<f32>,
    loss_sum: f32,
    n_terms: usize,
}

/// The result of one unrolled forward pass.
struct Forward {
    /// `outputs[t][e]`: three-quantile output of expert `e` at step `t`.
    outputs: Vec<Vec<Var>>,
    /// Per-expert sigmoid mask nodes.
    mask_sig: Vec<Var>,
}

mod tests {
    use deeprest_metrics::{MetricKey, MetricsRegistry, ResourceKind, TimeSeries};
    use deeprest_trace::window::WindowedTraces;
    use deeprest_trace::{Interner, SpanNode, Trace};
    use deeprest_workload::ApiTraffic;
    use proptest::prelude::*;

    use crate::{DeepRest, DeepRestConfig, OptimizerKind};

    fn bits32(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn bits64(series: &TimeSeries) -> Vec<u64> {
        series.values().iter().map(|v| v.to_bits()).collect()
    }

    /// One API driving three metric series across two components, so masks,
    /// GRUs, cross-expert attention, heads, skip paths and the delta encoding
    /// of a cumulative resource are all live.
    fn training_dataset(windows: usize) -> (Interner, WindowedTraces, MetricsRegistry) {
        let mut i = Interner::new();
        let f = i.intern("Frontend");
        let s = i.intern("Storage");
        let read = i.intern("read");
        let write = i.intern("write");
        let api = i.intern("/read");
        let mut traces = WindowedTraces::with_windows(1.0, windows);
        let mut cpu = TimeSeries::zeros(0);
        let mut mem = TimeSeries::zeros(0);
        let mut disk = TimeSeries::zeros(0);
        let mut disk_level = 100.0;
        for t in 0..windows {
            let count = 2 + ((t % 12) as i32 - 6).unsigned_abs() as usize;
            for _ in 0..count {
                let root = SpanNode::with_children(f, read, vec![SpanNode::leaf(s, write)]);
                traces.windows[t].push(Trace::new(api, root));
            }
            cpu.push(2.0 + 1.5 * count as f64);
            mem.push(64.0 + 0.5 * count as f64);
            disk_level += 0.25 * count as f64;
            disk.push(disk_level);
        }
        let mut metrics = MetricsRegistry::new();
        metrics.insert(MetricKey::new("Frontend", ResourceKind::Cpu), cpu);
        metrics.insert(MetricKey::new("Frontend", ResourceKind::Memory), mem);
        metrics.insert(MetricKey::new("Storage", ResourceKind::DiskUsage), disk);
        (i, traces, metrics)
    }

    fn training_config(threads: usize, adam: bool) -> DeepRestConfig {
        let optimizer = if adam {
            OptimizerKind::Adam { lr: 0.005 }
        } else {
            OptimizerKind::Sgd {
                lr: 0.01,
                momentum: 0.9,
            }
        };
        DeepRestConfig {
            hidden_dim: 10,
            epochs: 4,
            subseq_len: 12,
            batch_size: 3,
            ..DeepRestConfig::default()
        }
        .with_seed(11)
        .with_optimizer(optimizer)
        .with_threads(threads)
    }

    fn assert_parameters_bitwise_equal(tape: &DeepRest, analytic: &DeepRest, tag: &str) {
        let pt = tape.parameters();
        let pa = analytic.parameters();
        assert_eq!(pt.len(), pa.len(), "{tag}: parameter count");
        for ((nt, vt), (na, va)) in pt.iter().zip(pa.iter()) {
            assert_eq!(nt, na, "{tag}: parameter order");
            assert_eq!(bits32(vt), bits32(va), "{tag}: parameter {nt} diverged");
        }
    }

    /// A fit on the analytic training engine must be bit-for-bit identical
    /// to a fit on the autodiff tape — same training trajectory, same
    /// trained parameters, same estimates — at any thread count.
    #[test]
    fn analytic_fit_is_bitwise_identical_to_tape_fit() {
        let (i, traces, metrics) = training_dataset(48);
        for adam in [true, false] {
            for threads in [1usize, 4] {
                let config = training_config(threads, adam);
                let (tape, (tape_losses, tape_expert_losses)) =
                    DeepRest::fit_tape(&traces, &metrics, &i, config.clone());
                let (analytic, ra) = DeepRest::fit(&traces, &metrics, &i, config);
                let tag = format!("adam={adam} threads={threads}");

                // Identical training trajectory, not merely a similar end state.
                assert_eq!(
                    bits32(&tape_losses),
                    bits32(&ra.epoch_losses),
                    "{tag}: epoch losses"
                );
                assert_eq!(tape_expert_losses.len(), ra.expert_losses.len());
                for (name, series_t) in &tape_expert_losses {
                    assert_eq!(
                        bits32(series_t),
                        bits32(&ra.expert_losses[name]),
                        "{tag}: per-expert losses for {name}"
                    );
                }

                assert_parameters_bitwise_equal(&tape, &analytic, &tag);

                // Identical hypothetical-traffic estimates, bit for bit.
                let traffic = ApiTraffic::new(vec!["/read".into()], 8, vec![vec![5.0]; 16]);
                let et = tape.estimate_traffic(&traffic, 3);
                let ea = analytic.estimate_traffic(&traffic, 3);
                assert_eq!(et.len(), ea.len(), "{tag}: estimate count");
                for ((kt, st), (ka, sa)) in et.iter().zip(ea.iter()) {
                    assert_eq!(kt, ka, "{tag}: estimate keys");
                    for (t, a) in [
                        (&st.expected, &sa.expected),
                        (&st.lower, &sa.lower),
                        (&st.upper, &sa.upper),
                    ] {
                        assert_eq!(bits64(t), bits64(a), "{tag}: estimates for {kt}");
                    }
                }
            }
        }
    }

    #[test]
    fn fit_incremental_continues_identically_on_tape_and_analytic() {
        let (i, traces, metrics) = training_dataset(48);
        let config = training_config(2, true);
        let (mut tape, _) = DeepRest::fit_tape(&traces, &metrics, &i, config.clone());
        let (mut analytic, _) = DeepRest::fit(&traces, &metrics, &i, config);
        let (tape_losses, tape_expert_losses) = tape.fit_incremental_tape(&traces, &metrics, &i, 2);
        let (analytic_losses, analytic_expert_losses) =
            analytic.fit_incremental(&traces, &metrics, &i, 2);
        assert_eq!(analytic_losses.len(), 2);
        assert!(analytic_losses.iter().all(|l| l.is_finite()));
        assert_eq!(analytic_expert_losses.len(), 3);
        assert_eq!(tape_expert_losses.len(), 3);
        assert_eq!(
            bits32(&tape_losses),
            bits32(&analytic_losses),
            "incremental losses"
        );
        assert_parameters_bitwise_equal(&tape, &analytic, "after fit_incremental");
    }

    /// A synthetic application with `components` services, each driven by
    /// its own API at its own phase, yielding `2 * components` experts (CPU
    /// and memory per component) — or one fewer when `drop_last_mem` trims
    /// the last component to CPU only (this is how the single-expert case
    /// is built).
    fn serving_dataset(
        windows: usize,
        components: usize,
        drop_last_mem: bool,
    ) -> (Interner, WindowedTraces, MetricsRegistry) {
        let mut i = Interner::new();
        let mut traces = WindowedTraces::with_windows(1.0, windows);
        let mut metrics = MetricsRegistry::new();
        for c in 0..components {
            let svc_name = format!("Svc{c}");
            let svc = i.intern(&svc_name);
            let op = i.intern(&format!("op{c}"));
            let api = i.intern(&format!("/api{c}"));
            let mut cpu = TimeSeries::zeros(0);
            let mut mem = TimeSeries::zeros(0);
            for t in 0..windows {
                let count = 2 + (t * (c + 3)) % 9;
                for _ in 0..count {
                    traces.windows[t].push(Trace::new(api, SpanNode::leaf(svc, op)));
                }
                cpu.push(1.5 + (0.8 + 0.2 * c as f64) * count as f64);
                mem.push(48.0 + 0.4 * count as f64);
            }
            metrics.insert(MetricKey::new(&svc_name, ResourceKind::Cpu), cpu);
            if !(drop_last_mem && c == components - 1) {
                metrics.insert(MetricKey::new(&svc_name, ResourceKind::Memory), mem);
            }
        }
        (i, traces, metrics)
    }

    /// For one expert count and shard plan: the batched step — driven
    /// window by window and through `estimate_from_traces` — agrees bit
    /// for bit with the tape's chunked unroll on every window.
    fn assert_step_matches_tape(components: usize, drop_last_mem: bool, threads: usize, seed: u64) {
        let (i, traces, metrics) = serving_dataset(48, components, drop_last_mem);
        let config = DeepRestConfig {
            hidden_dim: 8,
            epochs: 2,
            subseq_len: 12,
            batch_size: 3,
            ..DeepRestConfig::default()
        }
        .with_seed(seed)
        .with_threads(threads);
        let (model, _) = DeepRest::fit(&traces, &metrics, &i, config);
        let keys = model.expert_keys();
        assert_eq!(keys.len(), components * 2 - usize::from(drop_last_mem));

        let xs: Vec<Vec<f32>> = traces
            .windows
            .iter()
            .map(|w| model.window_features(w, &i))
            .collect();
        let tape = model.predict_tape(&xs);
        let batch = model.estimate_from_traces(&traces, &i);
        let mut batched = model.stream_predictor();
        assert_eq!(
            batched.shard_count(),
            threads.min(keys.len().div_ceil(8)),
            "shard plan"
        );
        for (t, x) in xs.iter().enumerate() {
            let got = batched.step(x);
            for (e, key) in keys.iter().enumerate() {
                let want = tape.get(key).unwrap();
                let want = [&want.expected, &want.lower, &want.upper].map(|s| s.get(t).to_bits());
                assert_eq!(
                    [got[e].expected, got[e].lower, got[e].upper].map(f64::to_bits),
                    want,
                    "window {t} expert {key}: step vs tape"
                );
                let series = batch.get(key).unwrap();
                assert_eq!(
                    [&series.expected, &series.lower, &series.upper].map(|s| s.get(t).to_bits()),
                    want,
                    "window {t} expert {key}: estimate_from_traces vs tape"
                );
            }
        }
    }

    /// The two corners the random shapes below may miss: a single expert,
    /// and ten experts split into two shards.
    #[test]
    fn single_expert_and_two_shard_plans_match_tape() {
        assert_step_matches_tape(1, true, 1, 7);
        assert_step_matches_tape(5, false, 4, 7);
    }

    proptest! {
        // Every case trains a model, so keep the case count low; the shapes
        // (expert count from 1 to 10, one or two shards via the thread
        // count) are what matter, not value-space volume.
        #![proptest_config(ProptestConfig::with_cases(5))]

        #[test]
        fn batched_step_is_bitwise_identical_to_tape_across_experts_and_shards(
            components in 1usize..6,
            drop_last_mem in any::<bool>(),
            threads in 1usize..5,
            seed in 0u64..100,
        ) {
            assert_step_matches_tape(components, drop_last_mem, threads, seed);
        }
    }
}
