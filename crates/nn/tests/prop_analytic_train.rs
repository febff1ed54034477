//! Differential proof that the analytic training engine is bit-identical to
//! the autodiff tape.
//!
//! The tape oracle below replays `deeprest-core`'s estimator graph verbatim
//! (same bind order, same node sequence, same loss fold) and accumulates
//! gradients through `backward_into` + `absorb`. The analytic engine must
//! produce the same accumulated gradients *bit for bit* — across randomized
//! dimensions, sequence lengths (including 1), expert counts (including 1),
//! ablations (mask / attention / skip / L1 penalty), saturated mask logits
//! that drive σ(m) to exactly 0.0 (exercising the sparse GEMV dispatch), and
//! worker pools of 1 and 4 threads.

use deeprest_nn::loss::quantiles_for;
use deeprest_nn::{Adam, AnalyticTrainer, ExpertSlab, ExpertSpec, GruCell, Linear, TrainerConfig};
use deeprest_tape::{BoundGruCell, BoundLinear, GradBuffer, Graph, Var};
use deeprest_tensor::{ParamStore, Pool, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Setup {
    store: ParamStore,
    specs: Vec<ExpertSpec>,
    d: usize,
    h: usize,
    api_mask: bool,
    attention: bool,
    mask_l1: f32,
    xs: Vec<Vec<f32>>,
    targets: Vec<Vec<f32>>,
    len: usize,
    batch: Vec<usize>,
}

/// Registers experts in the estimator's order (mask, GRU, α, head, skip per
/// expert) and synthesizes a dataset. `saturate_masks` drives some mask
/// logits to huge negatives so σ(m) underflows to exactly 0.0.
#[allow(clippy::too_many_arguments)]
fn build(
    seed: u64,
    d: usize,
    h: usize,
    e_count: usize,
    t_len: usize,
    len: usize,
    api_mask: bool,
    attention: bool,
    skip: bool,
    mask_l1: f32,
    saturate_masks: bool,
) -> Setup {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = ParamStore::new();
    let mut specs = Vec::with_capacity(e_count);
    for i in 0..e_count {
        let name = format!("x{i}");
        let logits = if saturate_masks && i % 2 == 0 {
            Tensor::rand_uniform(d, 1, -95.0, -90.0, &mut rng)
        } else {
            Tensor::rand_uniform(d, 1, -3.0, 3.0, &mut rng)
        };
        let mask = store.add(format!("{name}.mask"), logits);
        let cell = GruCell::new(&mut store, &name, d, h, &mut rng);
        let alpha = store.add(
            format!("{name}.alpha"),
            Tensor::rand_uniform(e_count, 1, 0.0, 0.02, &mut rng),
        );
        let head = Linear::new(&mut store, &format!("{name}.head"), 2 * h, 3, &mut rng);
        let skip = skip.then(|| Linear::new(&mut store, &format!("{name}.skip"), d, 3, &mut rng));
        specs.push(ExpertSpec {
            mask,
            cell,
            alpha,
            head,
            skip,
        });
    }
    // Zero-laden inputs keep the sparse path and signed-zero handling honest.
    let xs: Vec<Vec<f32>> = (0..t_len)
        .map(|_| {
            (0..d)
                .map(|_| {
                    if rng.gen_bool(0.3) {
                        0.0
                    } else {
                        rng.gen_range(-2.0f32..2.0)
                    }
                })
                .collect()
        })
        .collect();
    let targets: Vec<Vec<f32>> = (0..e_count)
        .map(|_| (0..t_len).map(|_| rng.gen_range(0.0f32..1.0)).collect())
        .collect();
    let batch: Vec<usize> = (0..t_len).step_by(len).take(3).collect();
    Setup {
        store,
        specs,
        d,
        h,
        api_mask,
        attention,
        mask_l1,
        xs,
        targets,
        len,
        batch,
    }
}

/// The tape oracle: one graph per batch position, replaying the estimator's
/// forward unroll and loss fold node for node, folded with `absorb` in batch
/// order. Returns `(loss_sum, n_terms, expert_sums)` per position.
fn tape_run(setup: &Setup, store: &mut ParamStore) -> Vec<(f32, usize, Vec<f32>)> {
    let Setup {
        specs,
        d,
        h: hidden,
        api_mask,
        attention,
        mask_l1,
        xs,
        targets,
        len,
        batch,
        ..
    } = setup;
    let (d, hidden, len) = (*d, *hidden, *len);
    let e_count = specs.len();
    let t = xs.len();
    let quantiles = quantiles_for(0.90);
    let xs_tensors: Vec<Tensor> = xs.iter().map(|x| Tensor::vector(x.clone())).collect();
    let scale = 1.0 / batch.len() as f32;
    store.zero_grads();
    let mut stats = Vec::new();
    let mut bufs = Vec::new();
    for &start in batch {
        let mut g = Graph::new();
        let mut buf = GradBuffer::zeros_like(store);
        let end = (start + len).min(t);

        let mask_sig: Vec<Var> = specs
            .iter()
            .map(|s| {
                if *api_mask {
                    let m = g.param(store, s.mask);
                    g.sigmoid(m)
                } else {
                    g.constant_fill(d, 1, 1.0)
                }
            })
            .collect();
        let gru_bound: Vec<_> = specs
            .iter()
            .map(|s| BoundGruCell::bind(&mut g, store, s.cell.param_ids()))
            .collect();
        let alpha_masked: Vec<Var> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let a = g.param(store, s.alpha);
                g.mask_out(a, i)
            })
            .collect();
        let head_bound: Vec<_> = specs
            .iter()
            .map(|s| BoundLinear::bind(&mut g, store, s.head.w, s.head.b))
            .collect();
        let skip_bound: Vec<_> = specs
            .iter()
            .map(|s| {
                s.skip
                    .as_ref()
                    .map(|l| BoundLinear::bind(&mut g, store, l.w, l.b))
            })
            .collect();

        let mut h: Vec<Var> = (0..e_count).map(|_| g.constant_zeros(hidden, 1)).collect();
        let mut outputs = Vec::with_capacity(end - start);
        let mut masked_x: Vec<Var> = Vec::with_capacity(e_count);
        for x in &xs_tensors[start..end] {
            let xv = g.constant_copy(x);
            masked_x.clear();
            for e in 0..e_count {
                let masked = g.mul(mask_sig[e], xv);
                h[e] = gru_bound[e].step(&mut g, masked, h[e]);
                masked_x.push(masked);
            }
            let hmat = g.concat_cols(&h);
            let row: Vec<Var> = (0..e_count)
                .map(|e| {
                    let att = if *attention {
                        g.matmul(hmat, alpha_masked[e])
                    } else {
                        g.constant_zeros(hidden, 1)
                    };
                    let cat = g.concat_rows(&[att, h[e]]);
                    let y = head_bound[e].forward(&mut g, cat);
                    match &skip_bound[e] {
                        Some(skip) => {
                            let lin = skip.forward(&mut g, masked_x[e]);
                            g.add(y, lin)
                        }
                        None => y,
                    }
                })
                .collect();
            outputs.push(row);
        }

        let mut terms = Vec::new();
        let mut expert_sums = vec![0.0f32; e_count];
        for (step, row) in outputs.iter().enumerate() {
            for (e, &y_var) in row.iter().enumerate() {
                let y = targets[e][start + step];
                let term = g.pinball_fill(y_var, y, &quantiles);
                expert_sums[e] += g.value(term).data()[0];
                terms.push(term);
            }
        }
        let n_terms = terms.len();
        let total = g.add_n(&terms);
        let mut loss = g.scale(total, 1.0 / n_terms as f32);
        if *mask_l1 > 0.0 && *api_mask {
            let mask_sums: Vec<Var> = mask_sig.iter().map(|&m| g.sum_all(m)).collect();
            let mask_total = g.add_n(&mask_sums);
            let penalty = g.scale(mask_total, mask_l1 / (d * e_count) as f32);
            loss = g.add(loss, penalty);
        }
        let scaled = g.scale(loss, scale);
        let loss_sum = g.value(loss).data()[0] * n_terms as f32;
        g.backward_into(scaled, &mut buf);
        bufs.push(buf);
        stats.push((loss_sum, n_terms, expert_sums));
    }
    for buf in &bufs {
        buf.absorb_into(store);
    }
    stats
}

/// Runs the analytic engine for the same batch on `threads` workers.
fn analytic_run(
    setup: &Setup,
    store: &mut ParamStore,
    threads: usize,
) -> Vec<(f32, usize, Vec<f32>)> {
    let pool = Pool::with_threads(threads);
    let cfg = TrainerConfig {
        input_dim: setup.d,
        hidden_dim: setup.h,
        max_steps: setup.len,
        batch_slots: setup.batch.len(),
        api_mask: setup.api_mask,
        attention: setup.attention,
        penalty: (setup.mask_l1 > 0.0 && setup.api_mask)
            .then(|| setup.mask_l1 / (setup.d * setup.specs.len()) as f32),
        quantiles: quantiles_for(0.90),
        modulation: [1.0; 3],
    };
    let slab = ExpertSlab::pack(
        store,
        &setup.specs,
        setup.api_mask,
        setup.attention,
        threads,
    );
    let mut trainer = AnalyticTrainer::new(&slab, cfg);
    store.zero_grads();
    trainer
        .run_batch(&slab, store, &pool, &setup.xs, &setup.targets, &setup.batch)
        .iter()
        .map(|s| (s.loss_sum, s.n_terms, s.expert_sums.clone()))
        .collect()
}

fn assert_identical(setup: &Setup, tag: &str) {
    let mut store_tape = setup.store.clone();
    let want_stats = tape_run(setup, &mut store_tape);
    for threads in [1usize, 4] {
        let mut store_a = setup.store.clone();
        let got_stats = analytic_run(setup, &mut store_a, threads);
        for ((wl, wn, we), (gl, gn, ge)) in want_stats.iter().zip(got_stats.iter()) {
            assert_eq!(wn, gn, "{tag}: n_terms, {threads} threads");
            assert_eq!(
                wl.to_bits(),
                gl.to_bits(),
                "{tag}: loss_sum {wl} vs {gl}, {threads} threads"
            );
            assert_eq!(
                we.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                ge.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{tag}: expert_sums, {threads} threads"
            );
        }
        for id in store_tape.ids() {
            assert_eq!(
                store_tape
                    .grad(id)
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                store_a
                    .grad(id)
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "{tag}: grad of {} differs on {threads} threads",
                store_tape.name(id)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn analytic_gradients_match_tape_bitwise(
        seed in any::<u64>(),
        d in 1usize..5,
        h in 1usize..4,
        e_count in 1usize..4,
        t_len in 1usize..8,
        len in 1usize..5,
        api_mask in any::<bool>(),
        attention in any::<bool>(),
        skip in any::<bool>(),
        penalized in any::<bool>(),
        saturate in any::<bool>(),
    ) {
        let mask_l1 = if penalized { 2e-3 } else { 0.0 };
        let setup = build(
            seed, d, h, e_count, t_len, len.min(t_len),
            api_mask, attention, skip, mask_l1, saturate,
        );
        assert_identical(&setup, "prop");
    }
}

/// Expert counts past `MIN_EXPERTS_PER_SHARD` split into real multi-shard
/// plans on a 4-thread pool; gradients must not move by a bit.
#[test]
fn multi_shard_plan_matches_tape_bitwise() {
    let setup = build(42, 3, 3, 10, 7, 4, true, true, true, 2e-3, true);
    assert_identical(&setup, "multi-shard");
}

/// The property draws `d < 8` and `h < 4`, so every weight-gradient block
/// it trains is narrower than one `4 × 8` tile of the rank-`T` update.
/// Here `d = 11` and `h = 9` give full tiles and ragged edges in each
/// block (`27 × 11`, `18 × 9`, `9 × 9`, `3 × 18`, `3 × 11`), over a ragged
/// last subsequence (7 windows in 3s) and attention across two shards.
#[test]
fn blocks_past_the_update_tile_match_tape_bitwise() {
    let setup = build(5, 11, 9, 10, 7, 3, true, true, true, 2e-3, false);
    assert_identical(&setup, "past-the-tile");
}

/// Single-timestep subsequences (the tail of a short series) exercise the
/// `t == 0` boundary of the backward sweep on both paths.
#[test]
fn single_step_subsequence_matches_tape_bitwise() {
    let setup = build(7, 4, 3, 2, 1, 1, true, true, true, 2e-3, false);
    assert_identical(&setup, "single-step");
}

/// Non-finite inputs poison the gradients on both paths; the optimizer's
/// sanitization must zero the same tensors so parameters stay bitwise equal
/// after a full Adam step.
#[test]
fn non_finite_inputs_sanitize_identically() {
    let mut setup = build(9, 3, 3, 2, 6, 3, true, true, true, 2e-3, false);
    setup.xs[1][0] = f32::NAN;
    setup.xs[3][2] = f32::INFINITY;

    let pool = Pool::with_threads(2);
    let mut store_tape = setup.store.clone();
    tape_run(&setup, &mut store_tape);
    store_tape.clip_grad_norm(5.0);
    let mut adam = Adam::new(0.005);
    adam.step_with(&mut store_tape, &pool);

    let mut store_a = setup.store.clone();
    analytic_run(&setup, &mut store_a, 2);
    store_a.clip_grad_norm(5.0);
    let mut adam_a = Adam::new(0.005);
    adam_a.step_with(&mut store_a, &pool);

    for id in store_tape.ids() {
        assert_eq!(
            store_tape
                .value(id)
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            store_a
                .value(id)
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            "post-step value of {} differs",
            store_tape.name(id)
        );
    }
}
