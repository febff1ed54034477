//! The control-loop hook: a what-if query forked off the live stream's
//! snapshot leaves serving untouched.

mod common;

use common::{stream_of, trained, WINDOW_SECS};
use deeprest_serve::{Pipeline, ServeConfig};
use deeprest_workload::ApiTraffic;

fn serve_config() -> ServeConfig {
    ServeConfig::default()
        .with_window_secs(WINDOW_SECS)
        .with_lateness_secs(2.0)
}

#[test]
fn tick_snapshot_answers_what_if_queries_without_disturbing_serving() {
    let (model, interner, traces, _) = trained(64);

    // Reference run: no snapshots at all.
    let mut reference = Pipeline::new(&model, &interner, serve_config());
    let mut expected = Vec::new();
    for t in stream_of(&traces) {
        expected.extend(reference.ingest(t).unwrap());
    }
    expected.extend(reference.flush().unwrap());

    // Live run: snapshot every 8 positions and fork a what-if query off each.
    let mut live = Pipeline::new(&model, &interner, serve_config());
    let hypothesis = ApiTraffic::new(vec!["/read".into()], 8, vec![vec![12.0]; 6]);
    let mut outputs = Vec::new();
    let mut what_ifs = Vec::new();
    let mut last = 0;
    for t in stream_of(&traces) {
        outputs.extend(live.ingest(t).unwrap());
        if live.position() >= last + 8 {
            last = live.position();
            let snapshot = live.snapshot();
            assert_eq!(snapshot.position, last);
            what_ifs.push(model.estimate_what_if(&snapshot, &hypothesis, 5).unwrap());
        }
    }
    outputs.extend(live.flush().unwrap());

    assert!(what_ifs.len() >= 6);
    // Forked queries leave the serving outputs bit-identical.
    common::assert_outputs_bitwise_equal(&outputs, &expected);
}
