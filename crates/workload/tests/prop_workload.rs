//! Property-based tests for workload generation.

use deeprest_workload::{TrafficShape, WorkloadSpec};
use proptest::prelude::*;

fn arb_shape() -> impl Strategy<Value = TrafficShape> {
    prop_oneof![
        Just(TrafficShape::TwoPeak),
        Just(TrafficShape::Flat),
        Just(TrafficShape::SinglePeak),
        proptest::collection::vec(0.1f64..5.0, 4..16).prop_map(TrafficShape::Custom),
    ]
}

fn spec(users: f64, seed: u64, shape: TrafficShape, days: usize) -> WorkloadSpec {
    WorkloadSpec::new(
        users,
        vec![("/a".into(), 0.5), ("/b".into(), 0.3), ("/c".into(), 0.2)],
    )
    .with_seed(seed)
    .with_days(days)
    .with_windows_per_day(24)
    .with_shape(shape)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn traffic_is_non_negative_and_correctly_sized(
        users in 1.0f64..500.0,
        seed in any::<u64>(),
        shape in arb_shape(),
        days in 1usize..4,
    ) {
        let t = spec(users, seed, shape, days).generate();
        prop_assert_eq!(t.window_count(), days * 24);
        for w in 0..t.window_count() {
            prop_assert!(t.window(w).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn same_spec_same_traffic(users in 1.0f64..300.0, seed in any::<u64>()) {
        let a = spec(users, seed, TrafficShape::TwoPeak, 2).generate().total_series();
        let b = spec(users, seed, TrafficShape::TwoPeak, 2).generate().total_series();
        prop_assert_eq!(a.values(), b.values());
    }

    #[test]
    fn volume_is_roughly_proportional_to_users(
        users in 20.0f64..200.0,
        seed in any::<u64>(),
    ) {
        let base = spec(users, seed, TrafficShape::Flat, 2).generate().grand_total();
        let double = spec(users * 2.0, seed, TrafficShape::Flat, 2)
            .generate()
            .grand_total();
        let ratio = double / base.max(1e-9);
        prop_assert!((1.7..2.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn composition_tracks_mix_weights(seed in any::<u64>()) {
        let t = spec(100.0, seed, TrafficShape::TwoPeak, 3).generate();
        let comp = t.composition();
        let total: f64 = comp.iter().map(|(_, f)| f).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        let a = comp.iter().find(|(n, _)| n == "/a").unwrap().1;
        prop_assert!((a - 0.5).abs() < 0.08, "share of /a: {a}");
    }

    #[test]
    fn scale_is_exactly_linear(seed in any::<u64>(), factor in 0.1f64..5.0) {
        let t = spec(50.0, seed, TrafficShape::TwoPeak, 1).generate();
        let scaled = t.scale(factor);
        for w in 0..t.window_count() {
            prop_assert!((scaled.total_at(w) - factor * t.total_at(w)).abs() < 1e-9);
        }
    }

    #[test]
    fn shape_profiles_normalize_to_mean_one(
        shape in arb_shape(),
        wpd in 1usize..200,
    ) {
        let p = shape.profile(wpd);
        prop_assert_eq!(p.len(), wpd);
        let mean = p.iter().sum::<f64>() / wpd as f64;
        prop_assert!((mean - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn slice_then_extend_is_identity(seed in any::<u64>()) {
        let t = spec(80.0, seed, TrafficShape::TwoPeak, 2).generate();
        let mut head = t.slice(0..24);
        head.extend(&t.slice(24..48));
        let joined = head.total_series();
        let original = t.total_series();
        prop_assert_eq!(joined.values(), original.values());
    }
}
