//! The GRU's activations, `kernel::{sigmoid, tanh}`, through the entries the
//! packed forward calls, `kernel::gate_{sigmoid,tanh}_into`: the AVX2+FMA
//! twin under them gives the scalar port's bits, and the fused gates give
//! the scalar loop's. On x86_64 glibc the ports give libm's, the premise
//! every golden fixture recorded before the port rests on.
//!
//! The twin is checked through the gates with `-0.0` addends: `(x + −0) + −0`
//! keeps the bits of every input but a signalling NaN, which both sides
//! then quiet the same way, since the scalar reference takes the same sum.
//!
//! The tier-1 tests read about a million inputs: a fixed stride through all
//! 2³² bit patterns, every branch edge of the ported routines ±8 ULP, and
//! the special values. The exhaustive versions are `#[ignore]`d; run them
//! with `cargo test --release -p deeprest-tensor --test activations --
//! --ignored` (about a minute on two cores). The glibc checks are ignored
//! too: they hold for glibc 2.36, the libm the goldens were recorded with,
//! and another release may round differently.

use deeprest_tensor::kernel::{gate_sigmoid_into, gate_tanh_into, sigmoid, tanh};

type Gate = fn(&mut [f32], &[f32], &[f32], &[f32]);
type Act = fn(f32) -> f32;

/// Each fused gate entry with the activation it applies.
const GATES: [(&str, Gate, Act); 2] = [
    ("sigmoid", gate_sigmoid_into, sigmoid),
    ("tanh", gate_tanh_into, tanh),
];

/// A prime stride through the 2³² bit patterns: 1,047,817 inputs.
const STRIDE: usize = 4099;

/// Edges, as `|x|`, where a ported routine changes branch: `exp`'s
/// special cases (88, the overflow and underflow thresholds), `tanh`'s
/// (22, 1, 2⁻⁵⁵), and `expm1`'s (2⁻²⁵; 0.5, 1.5 and 27 · ln 2; the `k`
/// steps at 2.5, 22.5 and 56.5 · ln 2), the last both as they are and
/// halved, as `tanh` reaches them through `expm1(±2|x|)`.
fn edges() -> Vec<f32> {
    let ln2 = std::f32::consts::LN_2;
    let mut edges = vec![
        88.0,
        f32::from_bits(0x42b1_7217),
        f32::from_bits(0x42cf_f1b4),
        22.0,
        1.0,
        f32::from_bits(0x2400_0000),
    ];
    for expm1_edge in [
        f32::from_bits(0x3300_0000),
        0.5 * ln2,
        1.5 * ln2,
        2.5 * ln2,
        22.5 * ln2,
        27.0 * ln2,
        56.5 * ln2,
    ] {
        edges.extend([expm1_edge, 0.5 * expm1_edge]);
    }
    edges
}

/// The stride sample, every edge ±8 ULP in both signs, and ±0, subnormals,
/// ±∞ and NaNs (quiet and signalling, with payloads, both signs).
fn inputs() -> Vec<f32> {
    let mut bits: Vec<u32> = (0..=u32::MAX).step_by(STRIDE).collect();
    for edge in edges() {
        let b = edge.to_bits();
        bits.extend((b - 8..=b + 8).flat_map(|m| [m, m | 0x8000_0000]));
    }
    let specials = [
        0x0000_0000,
        0x0000_0001,
        0x0000_1234,
        0x007f_ffff,
        0x7f80_0000,
        0x7fc0_0000,
        0x7fc0_1234,
        0x7f80_0001,
        0x7fa5_a5a5,
        0x7fff_ffff,
    ];
    bits.extend(specials.iter().flat_map(|&b| [b, b | 0x8000_0000]));
    bits.into_iter().map(f32::from_bits).collect()
}

/// Whether the gates take the AVX2+FMA twin on this CPU. Elsewhere they run
/// the scalar loop, and the twin checks compare that loop with itself.
fn twin_present() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Positions where `gate`, run over the operands in one call, and
/// `act((a + b) + c)` per element differ in any bit, as (the sum's bits,
/// the scalar loop's, the gate's).
fn mismatches(gate: Gate, act: Act, a: &[f32], b: &[f32], c: &[f32]) -> Vec<(u32, u32, u32)> {
    let mut out = vec![0.0f32; a.len()];
    gate(&mut out, a, b, c);
    let sums = a.iter().zip(b).zip(c).map(|((&a, &b), &c)| (a + b) + c);
    sums.zip(&out)
        .filter(|&(x, &y)| act(x).to_bits() != y.to_bits())
        .map(|(x, &y)| (x.to_bits(), act(x).to_bits(), y.to_bits()))
        .collect()
}

#[test]
fn the_avx2_twin_gives_the_scalar_ports_bits() {
    if !twin_present() {
        eprintln!("no AVX2+FMA on this CPU: the twin is not exercised");
    }
    let x = inputs();
    assert!(x.len() > 1_000_000);
    let zeros = vec![-0.0f32; x.len()];
    for (name, gate, act) in GATES {
        // Any length: the ragged tail runs as one zero-padded block.
        for len in [x.len(), x.len() - 5] {
            let bad = mismatches(gate, act, &x[..len], &zeros[..len], &zeros[..len]);
            assert!(bad.is_empty(), "{name}: (x, scalar, avx2) {bad:x?}");
        }
    }
}

#[test]
fn fused_gates_give_the_scalar_loops_bits() {
    // Pre-activations across every branch, non-finite ones in every lane
    // position over the lengths.
    let pool = [
        0.3,
        -1.7,
        4.0,
        -9.5,
        25.0,
        -0.0,
        1.0e-20,
        60.0,
        -95.0,
        120.0,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -f32::NAN,
        2.5e-3,
        -44.0,
        0.75,
    ];
    let pick = |i: usize, salt: usize| pool[(i * 7 + salt * 5 + i / 3) % pool.len()];
    for h in [1, 3, 8, 12, 16, 20, 33] {
        let a: Vec<f32> = (0..h).map(|i| pick(i, 0)).collect();
        let b: Vec<f32> = (0..h).map(|i| pick(i, 1) * 0.5).collect();
        let c: Vec<f32> = (0..h).map(|i| pick(i, 2) * 0.25).collect();
        for (name, gate, act) in GATES {
            let bad = mismatches(gate, act, &a, &b, &c);
            assert!(bad.is_empty(), "{name} h={h}: (x, scalar, gate) {bad:x?}");
        }
    }
}

/// The σ and tanh every golden was recorded through: libm's.
#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
const LIBM: [(&str, Act, Act); 2] = [
    ("sigmoid", sigmoid, |x| 1.0 / (1.0 + (-x).exp())),
    ("tanh", tanh, f32::tanh),
];

/// The goldens' premise on the sample: on x86_64 glibc 2.36 the ports are
/// libm's σ and tanh, bit for bit.
#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
#[test]
#[ignore = "assumes glibc 2.36's expf and tanhf"]
fn the_ports_give_glibcs_bits() {
    for x in inputs() {
        for (name, port, libm) in LIBM {
            let (got, want) = (port(x).to_bits(), libm(x).to_bits());
            assert_eq!(got, want, "{name}({x:e} = {:#010x})", x.to_bits());
        }
    }
}

/// The sum of `mismatches` over all 2³² bit patterns, in blocks of 4,096
/// consecutive ones split over the available cores.
fn exhaustive(mismatches: impl Fn(&[f32]) -> usize + Sync) -> u64 {
    const BLOCK: u64 = 1 << 12;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let blocks = (1u64 << 32) / BLOCK;
    let mismatches = &mismatches;
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let (mut x, mut bad) = (vec![0.0f32; BLOCK as usize], 0);
                    for blk in (t..blocks).step_by(threads as usize) {
                        for (j, v) in x.iter_mut().enumerate() {
                            *v = f32::from_bits((blk * BLOCK) as u32 + j as u32);
                        }
                        bad += mismatches(&x) as u64;
                    }
                    bad
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    })
}

#[test]
#[ignore = "exhaustive: all 2^32 inputs, about 35 s on two cores in release"]
fn exhaustive_avx2_twin_gives_the_scalar_ports_bits() {
    assert!(twin_present(), "the exhaustive test needs AVX2 and FMA");
    let zeros = [-0.0f32; 1 << 12];
    for (name, gate, act) in GATES {
        let bad = exhaustive(|x| mismatches(gate, act, x, &zeros, &zeros).len());
        assert_eq!(bad, 0, "{name}: AVX2 twin and scalar port differ");
    }
}

#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
#[test]
#[ignore = "exhaustive: all 2^32 inputs, about 30 s on two cores in release; assumes glibc 2.36"]
fn exhaustive_ports_give_glibcs_bits() {
    for (name, port, libm) in LIBM {
        let bad = exhaustive(|x| {
            x.iter()
                .filter(|x| port(**x).to_bits() != libm(**x).to_bits())
                .count()
        });
        assert_eq!(bad, 0, "{name}: the port and this host's libm differ");
    }
}
