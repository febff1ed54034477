//! A panic raised inside a sharded step reaches [`ServeError::Step`] with
//! its own message, whichever pool thread ran the chunk that raised it —
//! and reaches the caller of a batch query, which steps the same predictor
//! without the pipeline's healing, as that same panic.
//!
//! Alone in its binary: `always("pool.worker")` is process-wide while
//! armed and would strike any other test that trains or serves meanwhile.

mod common;

use std::sync::Arc;

use common::{stream_of, trained_wide, WINDOW_SECS};
use deeprest_fault::{self as fault, FaultPlan};
use deeprest_serve::{Pipeline, ServeConfig, ServeError};

#[test]
fn persistent_step_panic_surfaces_its_own_message_at_two_threads() {
    // 10 experts at 2 threads: the step fans out over two shards, so a
    // `pool.worker` panic is raised inside a chunk, not on the way in.
    let (model, interner, traces, _) = trained_wide(24, 5, 2);
    assert_eq!(model.stream_predictor().shard_count(), 2);
    let stream = stream_of(&traces);
    let config = ServeConfig::default()
        .with_window_secs(WINDOW_SECS)
        .with_lateness_secs(2.0);
    for site in ["pool.worker", "stream.step"] {
        let plan = Arc::new(FaultPlan::new(17).always(site));
        let message = fault::with_plan(plan, || {
            let mut pipeline = Pipeline::new(&model, &interner, config);
            stream
                .iter()
                .find_map(|t| match pipeline.ingest(t.clone()) {
                    Err(ServeError::Step { message, .. }) => Some(message),
                    Ok(_) => None,
                    Err(other) => panic!("unexpected error: {other}"),
                })
                .expect("a persistent step fault must surface as ServeError::Step")
        });
        assert_eq!(message, format!("deeprest-fault: injected panic at {site}"));
    }

    // A batch estimate is a query, not a healed serve step: nothing catches
    // or retries, so even a one-shot fault unwinds out of it unchanged.
    let plan = Arc::new(FaultPlan::new(17).once("stream.step", 3));
    let payload = fault::with_plan(plan, || {
        std::panic::catch_unwind(|| model.estimate_from_traces(&traces, &interner))
    })
    .expect_err("the fourth window's step probe must unwind out of the query");
    assert_eq!(
        payload.downcast_ref::<String>().map(String::as_str),
        Some("deeprest-fault: injected panic at stream.step")
    );
}
