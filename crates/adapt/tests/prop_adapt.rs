//! Property tests for the adaptation loop's determinism contracts:
//!
//! * replay sampling is a pure function of `(seed, draw, len, k)` — stable,
//!   sorted, duplicate-free, in-range — so the staged batch order never
//!   depends on anything but checkpointed counters;
//! * for any update cadence, replay seed and mid-stream cut point, the
//!   checkpoint/restore trajectory is bit-identical to the uninterrupted
//!   one, and the whole run is bit-identical across worker thread counts.

mod common;

use std::sync::OnceLock;

use common::{
    adapt_config, assert_outputs_bitwise_equal, assert_params_bitwise_equal, dataset_with_drift,
    parameter_values, run_adaptive, train_config,
};
use deeprest_adapt::{AdaptiveCheckpoint, AdaptivePipeline, ReplayBuffer};
use deeprest_core::DeepRest;
use deeprest_metrics::MetricsRegistry;
use deeprest_trace::window::TimestampedTrace;
use deeprest_trace::Interner;
use proptest::prelude::*;

/// Training dominates the cost, so every property case shares one drifting
/// fixture: two models fitted under 1-thread and 3-thread pools (bit-equal
/// parameters, different pool plumbing) over a 56-window drifting stream.
struct Shared {
    serial: DeepRest,
    parallel: DeepRest,
    interner: Interner,
    metrics: MetricsRegistry,
    stream: Vec<TimestampedTrace>,
}

fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| {
        let (interner, traces, metrics) = dataset_with_drift(56, 24, 16, 0.35);
        let (serial, _) =
            DeepRest::fit(&traces, &metrics, &interner, train_config().with_threads(1));
        let (parallel, _) =
            DeepRest::fit(&traces, &metrics, &interner, train_config().with_threads(3));
        let stream = common::stream_of(&traces);
        Shared {
            serial,
            parallel,
            interner,
            metrics,
            stream,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sampling the replay buffer is deterministic and well-formed.
    #[test]
    fn replay_sampling_is_pure_and_well_formed(
        seed in any::<u64>(),
        draw in 0u64..1000,
        len in 0usize..24,
        k in 0usize..8,
    ) {
        let mut buf = ReplayBuffer::new(len.max(1));
        for s in 0..len {
            buf.push_copy(s * 8, &[s as f32; 4], &[s as f32; 2]);
        }
        let (mut scratch_a, mut out_a) = (Vec::new(), Vec::new());
        let (mut scratch_b, mut out_b) = (Vec::new(), Vec::new());
        buf.sample_into(seed, draw, k, &mut scratch_a, &mut out_a);
        buf.sample_into(seed, draw, k, &mut scratch_b, &mut out_b);
        // Pure: same inputs, same sample — arenas carry no hidden state.
        prop_assert_eq!(&out_a, &out_b);
        // Well-formed: sorted, unique, in range, right size.
        prop_assert_eq!(out_a.len(), k.min(len));
        prop_assert!(out_a.windows(2).all(|w| w[0] < w[1]), "sorted and unique");
        prop_assert!(out_a.iter().all(|&i| i < len), "in range");
        // Different draws decorrelate (not a fixed prefix) once there is
        // room to differ; equality is allowed, systematic equality is not —
        // checked only statistically by the spread of draws below.
        if len >= 2 && k >= 1 && k < len {
            let mut distinct = std::collections::BTreeSet::new();
            let (mut s, mut o) = (Vec::new(), Vec::new());
            for d in 0..16 {
                buf.sample_into(seed, d, k, &mut s, &mut o);
                distinct.insert(o.clone());
            }
            prop_assert!(distinct.len() > 1, "the schedule must vary across draws");
        }
    }

    /// For any cadence/seed/cut, a mid-adaptation checkpoint/restore is
    /// bit-identical to the uninterrupted run — outputs, counters, and the
    /// adapted parameters — and both are invariant to the pool width.
    #[test]
    fn adaptation_trajectory_survives_cuts_and_thread_counts(
        update_every in 1usize..4,
        sample_seed in any::<u64>(),
        cut_frac in 0.2f64..0.9,
    ) {
        let sh = shared();
        let mut config = adapt_config();
        config.update_every = update_every;
        config.sample_seed = sample_seed;

        // Reference: uninterrupted, 1-thread model.
        let (reference, expected) = run_adaptive(
            common::clone_model(&sh.serial),
            &sh.interner,
            &sh.metrics,
            &sh.stream,
            config,
        );
        prop_assert!(reference.updates_run() >= 1, "cases must exercise updates");
        let expected_params = parameter_values(reference.model());

        // Same trajectory on the pool-parallel twin.
        let (par, par_outputs) = run_adaptive(
            common::clone_model(&sh.parallel),
            &sh.interner,
            &sh.metrics,
            &sh.stream,
            config,
        );
        assert_outputs_bitwise_equal(&par_outputs, &expected);
        prop_assert_eq!(par.updates_run(), reference.updates_run());
        assert_params_bitwise_equal(&parameter_values(par.model()), &expected_params);

        // Cut anywhere mid-stream, checkpoint through the JSON codec,
        // restore, continue: still the same trajectory.
        let cut = ((sh.stream.len() as f64 * cut_frac) as usize).clamp(1, sh.stream.len() - 1);
        let mut first = AdaptivePipeline::new(
            common::clone_model(&sh.serial),
            &sh.interner,
            sh.metrics.clone(),
            config,
        );
        let mut outputs = Vec::new();
        for t in &sh.stream[..cut] {
            outputs.extend(first.ingest(t.clone()).expect("ingest"));
        }
        let json = first
            .checkpoint()
            .to_json()
            .expect("serialize");
        drop(first);
        let ckpt = AdaptiveCheckpoint::from_json(&json).expect("parse");
        let mut resumed =
            AdaptivePipeline::restore(&sh.interner, sh.metrics.clone(), config, ckpt)
                .expect("restore");
        for t in &sh.stream[cut..] {
            outputs.extend(resumed.ingest(t.clone()).expect("resumed ingest"));
        }
        outputs.extend(resumed.flush().expect("resumed flush"));
        assert_outputs_bitwise_equal(&outputs, &expected);
        prop_assert_eq!(resumed.updates_run(), reference.updates_run());
        prop_assert_eq!(resumed.updates_failed(), reference.updates_failed());
        assert_params_bitwise_equal(&parameter_values(resumed.model()), &expected_params);
    }
}

#[test]
fn replay_eviction_keeps_the_newest_segments() {
    let mut buf = ReplayBuffer::new(3);
    for s in 0..7 {
        buf.push_copy(s, &[s as f32; 2], &[s as f32; 2]);
    }
    assert_eq!(buf.len(), 3);
    let starts: Vec<usize> = buf.segments().iter().map(|s| s.start_window).collect();
    assert_eq!(starts, vec![4, 5, 6], "oldest segments are evicted first");
}
