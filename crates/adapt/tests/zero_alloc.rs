//! The steady-state allocation invariant of the online update step: after
//! one warm-up call has settled the trainer's recycled buffer pools, every
//! further [`OnlineUpdater::update`] performs **zero** kernel allocations —
//! the staging arenas, batch list and rollback snapshot are all
//! preallocated at construction.

mod common;

use std::sync::Arc;

use common::{clone_model, trained};
use deeprest_core::train::{OnlineUpdater, TrainSegment, SEGMENT_LEN};
use deeprest_telemetry::{self as telemetry, MemorySink};

/// Builds deterministic staged segments straight from the fixture's
/// feature/target spaces (contents don't matter for the alloc invariant).
fn staged(model: &deeprest_core::DeepRest, salt: f32) -> (Vec<f32>, Vec<f32>) {
    let dim = model.feature_space().dim();
    let experts = model.expert_count();
    let xs: Vec<f32> = (0..SEGMENT_LEN * dim)
        .map(|i| (i as f32 * 0.01 + salt).sin() * 0.5)
        .collect();
    let targets: Vec<f32> = (0..experts * SEGMENT_LEN)
        .map(|i| (i as f32 * 0.07 + salt).cos() * 0.3 + 0.5)
        .collect();
    (xs, targets)
}

#[test]
fn warm_update_steps_allocate_nothing() {
    let (trained_model, _, _, _) = trained(48);
    let mut model = clone_model(&trained_model);
    let mut updater = OnlineUpdater::new(&model);

    let seg_a = staged(&model, 0.1);
    let seg_b = staged(&model, 0.9);
    let segments = [
        TrainSegment {
            xs: &seg_a.0,
            targets: &seg_a.1,
        },
        TrainSegment {
            xs: &seg_b.0,
            targets: &seg_b.1,
        },
    ];

    // Warm-up: the first update populates the recycled pools.
    let warm_sink = Arc::new(MemorySink::new());
    telemetry::with_sink(warm_sink.clone(), || {
        updater
            .update(&mut model, &segments)
            .expect("warm-up update");
    });
    assert!(
        warm_sink.counter("kernel.alloc") > 0,
        "warm-up must allocate at least once, or the counter is dead"
    );

    // Steady state: three more updates, zero kernel allocations.
    let sink = Arc::new(MemorySink::new());
    telemetry::with_sink(sink.clone(), || {
        for _ in 0..3 {
            updater.update(&mut model, &segments).expect("warm update");
        }
    });
    assert_eq!(
        sink.counter("kernel.alloc"),
        0,
        "a warm update step must perform zero kernel allocations"
    );
    assert!(
        sink.counter("kernel.scratch_reuse") > 0,
        "steady state must be dominated by scratch reuse"
    );
    assert_eq!(sink.counter("adapt.update.steps"), 3);
}
