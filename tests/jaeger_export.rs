//! The Jaeger writer on the benchmark's seed-17 documents: every window of
//! `replay_dense`'s simulated day and of `replay_wide`'s synthetic app.
//!
//! The writer's byte-for-byte oracle is the serde export it replaced, kept
//! under `cfg(test)` in `deeprest-trace` (`jaeger/oracle.rs`), where the
//! property tests difference the two. That oracle cannot see the simulator,
//! so the digests below were taken from it on these inputs, and the writer
//! must reproduce them. A deliberate change to the simulator or the workload
//! generator moves them; re-take them from the oracle on the new inputs.

use deeprest::sim::apps;
use deeprest::sim::engine::{simulate, SimConfig};
use deeprest::trace::window::WindowedTraces;
use deeprest::trace::{jaeger, Interner, SpanNode, Trace};
use deeprest::workload::WorkloadSpec;

/// Document count, total bytes and the FNV-1a digest of every document in
/// window order.
fn digest(traces: &WindowedTraces, names: &Interner) -> (usize, usize, u64) {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut bytes = 0;
    for window in &traces.windows {
        let doc = jaeger::export(window, names);
        bytes += doc.len();
        for &b in doc.as_bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    (traces.windows.len(), bytes, hash)
}

#[test]
fn the_dense_day_writes_as_serde_wrote_it() {
    let app = apps::social_network();
    let traffic = WorkloadSpec::new(480.0, app.default_mix())
        .with_days(1)
        .with_windows_per_day(96)
        .with_seed(17)
        .generate();
    let sim = simulate(&app, &traffic, &SimConfig::default().with_seed(17));
    assert_eq!(
        digest(&sim.traces, &sim.interner),
        (96, 113_539_205, 0xab8c_712c_ae92_1452)
    );
}

/// `replay_wide`'s app: 128 single-span services, eight calls a window
/// drawn by SplitMix64 from the seed.
#[test]
fn the_wide_app_writes_as_serde_wrote_it() {
    let mut names = Interner::new();
    let services: Vec<_> = (0..128)
        .map(|c| {
            (
                names.intern(&format!("Svc{c}")),
                names.intern(&format!("op{c}")),
                names.intern(&format!("/api{c}")),
            )
        })
        .collect();
    let mut state = 17_u64;
    let mut below = |n: u64| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n) as usize
    };
    let mut traces = WindowedTraces::with_windows(1.0, 192);
    for window in &mut traces.windows {
        for _ in 0..8 {
            let (service, operation, api) = services[below(128)];
            window.push(Trace::new(api, SpanNode::leaf(service, operation)));
        }
    }
    assert_eq!(
        digest(&traces, &names),
        (192, 1_234_494, 0xb880_2e8c_c2d7_cb74)
    );
}
