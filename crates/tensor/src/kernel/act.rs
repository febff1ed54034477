//! The GRU's activations: the workspace's one logistic sigmoid and one tanh.
//!
//! Both are ports, operation for operation, of the libm the golden fixtures
//! were recorded with (glibc 2.36 on x86_64):
//!
//! * [`exp`] is glibc's `expf` — the ARM optimized-routines algorithm — as
//!   glibc's FMA build runs it. It splits `x · 32/ln 2 = k + r`, takes
//!   `2^(k/32)` from a 32-entry table and `2^(r/32)` from a cubic, all in
//!   `f64`. That build contracts five multiply-adds into fused ones (`kd`,
//!   `r` and the cubic's three steps), so the port writes exactly those five
//!   as `f64::mul_add`. [`sigmoid`] is `1 / (1 + exp(−x))` on it, the
//!   expression every σ in the workspace was written as before.
//! * [`tanh`] is fdlibm's `tanhf` over fdlibm's five-coefficient `expm1f`,
//!   all in `f32`, nothing fused.
//!
//! On that libm the ports give `f32::exp` / `f32::tanh`'s bits on every
//! input (the ignored glibc tests here and in `tests/activations.rs`), so
//! every output recorded before them stands. Neither calls an approximation
//! from the host's libm (`f64::mul_add`, a libm call where FMA is not
//! compiled in, is correctly rounded by definition), so σ and tanh, and with
//! them the forward, the backward and the tape, carry the same bits on any
//! host.
//!
//! The AVX2+FMA twin runs the same operations in the same order on eight
//! lanes, the `f64` ones as two halves of four. It has no copy of the rare
//! branches: a lane outside its domain (`exp`'s argument `|x| ≥ 88` or NaN;
//! `tanh`'s NaN or ±∞) is computed by the scalar port. A ragged tail runs
//! as one more block, padded with zeros. [`gate_sigmoid_into`] and
//! [`gate_tanh_into`] take the twin whenever the CPU has AVX2 and FMA; the
//! bits are the scalar port's either way.

/// `2^(i/32)` for `i < 32`, less `i << 47`, as bit patterns: adding `k << 47`
/// to entry `k % 32` gives `2^(k/32)` for any integer `|k| < 150 · 32`
/// (glibc's `__exp2f_data.tab`).
const EXP2_TABLE: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];

/// `32 / ln 2` (`0x1.71547652b82fep+5`).
const INV_LN2_32: f64 = f64::from_bits(0x40471547652b82fe);
/// `0x1.8p52`: adding it rounds an `f64` of magnitude below `2^51` to an
/// integer, which then sits in the low bits of the sum.
const ROUND_SHIFT: f64 = f64::from_bits(0x4338000000000000);
/// The cubic for `2^(r/32) ≈ ((C0·r + C1)·r² + (C2·r + 1))`, `|r| ≤ 1/2`.
const EXP_C0: f64 = f64::from_bits(0x3ebc6af84b912394);
const EXP_C1: f64 = f64::from_bits(0x3f2ebfce50fac4f3);
const EXP_C2: f64 = f64::from_bits(0x3f962e42ff0c52d6);
/// Bits of `|x| = 88`, from which [`exp`] takes its special-case branches.
const EXP_SPECIAL: u32 = 0x42b0_0000;
/// Above `ln 2^128 ≈ 88.72` `expf` overflows to `+∞` …
const EXP_OVERFLOW: f32 = f32::from_bits(0x42b1_7217);
/// … and below `ln 2^-150 ≈ −103.97` it underflows to `+0`.
const EXP_UNDERFLOW: f32 = f32::from_bits(0xc2cf_f1b4);

/// fdlibm's `expm1f` constants: `ln 2` split in two, `1/ln 2`, and the
/// scaled coefficients `Q1..Q5` of its rational approximation.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);
/// `expm1f`'s argument-reduction edges, as bits of `|x|`: up to `0.5·ln 2`
/// no reduction (`k = 0`), below `1.5·ln 2` a reduction by one `ln 2`, and
/// below `2^-25` the argument is its own result.
const EXPM1_NO_REDUCTION: u32 = 0x3eb1_7218;
const EXPM1_ONE_LN2: u32 = 0x3f85_1592;
const EXPM1_TINY: u32 = 0x3300_0000;
/// `tanhf`'s edges, as bits of `|x|`: `22` (from there `±1`), `1` (which
/// `expm1f` form) and `2^-55` (below it `x · (1 + x)`).
const TANH_SATURATED: u32 = 0x41b0_0000;
const TANH_ONE: u32 = 0x3f80_0000;
const TANH_TINY: u32 = 0x2400_0000;

/// `eˣ` as glibc 2.36's `expf` computes it on a CPU with FMA.
/// `f64::mul_add` is one instruction where FMA is compiled in and a libm
/// call elsewhere; either way it rounds once.
fn exp(x: f32) -> f32 {
    if x.to_bits() & 0x7fff_ffff >= EXP_SPECIAL {
        if x == f32::NEG_INFINITY {
            return 0.0;
        }
        if x.is_nan() || x == f32::INFINITY {
            return x + x;
        }
        if x > EXP_OVERFLOW {
            return f32::INFINITY;
        }
        if x < EXP_UNDERFLOW {
            return 0.0;
        }
    }
    let xd = f64::from(x);
    let kd = INV_LN2_32.mul_add(xd, ROUND_SHIFT);
    let ki = kd.to_bits();
    let kd = kd - ROUND_SHIFT;
    let r = INV_LN2_32.mul_add(xd, -kd);
    let s = f64::from_bits(EXP2_TABLE[(ki % 32) as usize].wrapping_add(ki << 47));
    let z = EXP_C0.mul_add(r, EXP_C1);
    let r2 = r * r;
    let y = EXP_C2.mul_add(r, 1.0);
    let y = z.mul_add(r2, y);
    (y * s) as f32
}

/// The logistic sigmoid `1 / (1 + e^(−x))`, on a port of glibc 2.36's
/// `expf`.
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

/// `tanh x` as fdlibm's `tanhf` computes it (glibc 2.36's).
pub fn tanh(x: f32) -> f32 {
    let ix = x.to_bits() & 0x7fff_ffff;
    let negative = x.is_sign_negative();
    if ix >= 0x7f80_0000 {
        // tanh(±∞) = ±1; NaN stays NaN.
        return if negative {
            1.0 / x - 1.0
        } else {
            1.0 / x + 1.0
        };
    }
    let z = if ix >= TANH_SATURATED {
        // fdlibm's `1 − 1e-30`, which rounds to 1.
        1.0
    } else if ix < TANH_TINY {
        // ±0 included: 0 · (1 + 0) keeps the zero's sign.
        return x * (1.0 + x);
    } else if ix >= TANH_ONE {
        let t = expm1(2.0 * x.abs());
        1.0 - 2.0 / (t + 2.0)
    } else {
        let t = expm1(-2.0 * x.abs());
        -t / (t + 2.0)
    };
    if negative {
        -z
    } else {
        z
    }
}

/// `eˣ − 1` as fdlibm's `expm1f` computes it, on the arguments [`tanh`]
/// gives it: `x ∈ [2, 44)` or `x ∈ (−2, −2^-54]`. The branches only other
/// arguments reach (non-finite, overflow, `x < −27·ln 2`, `k = 1`) are left
/// out.
fn expm1(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    debug_assert!((-2.0..0.0).contains(&x) || (2.0..44.0).contains(&x));
    if hx < EXPM1_TINY {
        // fdlibm's `x − ((huge + x) − (huge + x))`: the difference is +0.
        return x;
    }
    let k: i32 = if hx <= EXPM1_NO_REDUCTION {
        0
    } else if hx < EXPM1_ONE_LN2 {
        -1
    } else {
        (INV_LN2 * x + if x < 0.0 { -0.5 } else { 0.5 }) as i32
    };
    let (x, c) = if k == 0 {
        (x, 0.0)
    } else {
        // t·ln2_hi is exact; for k = −1 this is fdlibm's `x + ln2_hi`,
        // `−ln2_lo` to the bit.
        let t = k as f32;
        let (hi, lo) = (x - t * LN2_HI, t * LN2_LO);
        let x = hi - lo;
        (x, (hi - x) - lo)
    };
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs);
    }
    let e = (x * (e - c) - c) - hxs;
    if k == -1 {
        return 0.5 * (x - e) - 0.5;
    }
    if k <= -2 || k > 56 {
        return scale_by_pow2(1.0 - (e - x), k) - 1.0;
    }
    if k < 23 {
        let t = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k));
        return scale_by_pow2(t - (e - x), k);
    }
    let t = f32::from_bits(((0x7f - k) as u32) << 23);
    scale_by_pow2((x - (e + t)) + 1.0, k)
}

/// `y · 2^k` by adding `k` to `y`'s exponent field, as fdlibm does.
fn scale_by_pow2(y: f32, k: i32) -> f32 {
    f32::from_bits((y.to_bits() as i32).wrapping_add(k << 23) as u32)
}

/// [`sigmoid`] or [`tanh`].
#[inline(always)]
fn act<const TANH: bool>(x: f32) -> f32 {
    if TANH {
        tanh(x)
    } else {
        sigmoid(x)
    }
}

/// `out[i] = σ((a[i] + b[i]) + c[i])`, the GRU's `z` and `k` gates with the
/// tape's association. Bit-identical to the scalar loop on every input.
///
/// # Panics
///
/// Panics if the operands are not all as long as `out`.
pub fn gate_sigmoid_into(out: &mut [f32], a: &[f32], b: &[f32], c: &[f32]) {
    gate_into::<false>(out, a, b, c);
}

/// `out[i] = tanh((a[i] + b[i]) + c[i])`, the GRU's candidate state;
/// see [`gate_sigmoid_into`].
///
/// # Panics
///
/// Panics if the operands are not all as long as `out`.
pub fn gate_tanh_into(out: &mut [f32], a: &[f32], b: &[f32], c: &[f32]) {
    gate_into::<true>(out, a, b, c);
}

fn gate_into<const TANH: bool>(out: &mut [f32], a: &[f32], b: &[f32], c: &[f32]) {
    assert!(
        [a.len(), b.len(), c.len()] == [out.len(); 3],
        "kernel::gate: operands of another length"
    );
    #[cfg(target_arch = "x86_64")]
    if super::avx2::fma_available() {
        // SAFETY: AVX2 and FMA support were just verified at runtime.
        #[allow(unsafe_code)]
        unsafe {
            avx2::gate::<TANH>(out, a, b, c);
        }
        return;
    }
    for (((o, &a), &b), &c) in out.iter_mut().zip(a).zip(b).zip(c) {
        *o = act::<TANH>((a + b) + c);
    }
}

/// The AVX2+FMA twin. Every function here runs the scalar port's IEEE
/// operations in the scalar port's order, lane by lane; where the port
/// branches, the twin computes each branch and selects. Calling in from
/// outside needs AVX2 and FMA on the running CPU, which every caller checks.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use super::super::LANES;
    use std::arch::x86_64::*;

    /// `act((a + b) + c)` in blocks of eight. The sums stay in registers:
    /// storing them and loading them back made a 16-unit gate (the step's)
    /// about 1.5× as slow.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn gate<const TANH: bool>(out: &mut [f32], a: &[f32], b: &[f32], c: &[f32]) {
        let main = out.len() - out.len() % LANES;
        let blocks = out[..main].chunks_exact_mut(LANES);
        let operands = a.chunks_exact(LANES).zip(b.chunks_exact(LANES));
        for (o, ((a, b), c)) in blocks.zip(operands.zip(c.chunks_exact(LANES))) {
            // SAFETY: `a`, `b` and `c` hold LANES floats each.
            let v = unsafe {
                let ab = _mm256_add_ps(_mm256_loadu_ps(a.as_ptr()), _mm256_loadu_ps(b.as_ptr()));
                _mm256_add_ps(ab, _mm256_loadu_ps(c.as_ptr()))
            };
            act8::<TANH>(o, v);
        }
        let tail = out.len() - main;
        if tail != 0 {
            // One more block, padded with zeros: a padding lane's sum is
            // +0, inside the domain, and its result is dropped. This beats
            // the scalar port, whose `mul_add`s are libm calls unless FMA
            // is compiled in.
            let mut x = [[0.0f32; LANES]; 3];
            for (x, operand) in x.iter_mut().zip([a, b, c]) {
                x[..tail].copy_from_slice(&operand[main..]);
            }
            let mut o = [0.0f32; LANES];
            gate::<TANH>(&mut o, &x[0], &x[1], &x[2]);
            out[main..].copy_from_slice(&o[..tail]);
        }
    }

    /// Stores `act(v)` into the eight floats of `out`, recomputing the lanes
    /// outside the twin's domain on the scalar port.
    #[target_feature(enable = "avx2,fma")]
    fn act8<const TANH: bool>(out: &mut [f32], v: __m256) {
        assert_eq!(out.len(), LANES);
        let (y, odd) = if TANH { tanh8(v) } else { sigmoid8(v) };
        // SAFETY: `out` holds LANES floats (asserted).
        unsafe { _mm256_storeu_ps(out.as_mut_ptr(), y) };
        if odd != 0 {
            let mut xs = [0.0f32; LANES];
            // SAFETY: `xs` holds LANES floats.
            unsafe { _mm256_storeu_ps(xs.as_mut_ptr(), v) };
            for (l, (o, &x)) in out.iter_mut().zip(&xs).enumerate() {
                if odd >> l & 1 != 0 {
                    *o = super::act::<TANH>(x);
                }
            }
        }
    }

    /// The sign bit in every lane.
    #[target_feature(enable = "avx2")]
    fn sign() -> __m256 {
        _mm256_set1_ps(-0.0)
    }

    /// `|x|`'s bits, lane by lane.
    #[target_feature(enable = "avx2")]
    fn abs_bits(x: __m256) -> __m256i {
        _mm256_castps_si256(_mm256_andnot_ps(sign(), x))
    }

    /// Lanes where the signed integer `a == b`, as a float mask.
    #[target_feature(enable = "avx2")]
    fn eq(a: __m256i, b: i32) -> __m256 {
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(a, _mm256_set1_epi32(b)))
    }

    /// Lanes where the signed integer `a > b`, as a float mask.
    #[target_feature(enable = "avx2")]
    fn gt(a: __m256i, b: i32) -> __m256 {
        _mm256_castsi256_ps(_mm256_cmpgt_epi32(a, _mm256_set1_epi32(b)))
    }

    /// Lanes where the signed integer `a < b`, as a float mask.
    #[target_feature(enable = "avx2")]
    fn lt(a: __m256i, b: i32) -> __m256 {
        _mm256_castsi256_ps(_mm256_cmpgt_epi32(_mm256_set1_epi32(b), a))
    }

    /// [`super::sigmoid`] on eight lanes, with the bit mask of the lanes
    /// whose `exp` argument takes a special-case branch.
    #[target_feature(enable = "avx2,fma")]
    fn sigmoid8(x: __m256) -> (__m256, i32) {
        let neg = _mm256_xor_ps(x, sign());
        let odd = _mm256_movemask_ps(gt(abs_bits(neg), super::EXP_SPECIAL as i32 - 1));
        let lo = exp4(_mm256_cvtps_pd(_mm256_castps256_ps128(neg)));
        let hi = exp4(_mm256_cvtps_pd(_mm256_extractf128_ps::<1>(neg)));
        let e = _mm256_insertf128_ps::<1>(_mm256_castps128_ps256(lo), hi);
        let one = _mm256_set1_ps(1.0);
        (_mm256_div_ps(one, _mm256_add_ps(one, e)), odd)
    }

    /// [`exp`](super::exp)'s main path on four lanes widened to
    /// `f64`, its five fused multiply-adds as `vfmadd`/`vfmsub`.
    #[target_feature(enable = "avx2,fma")]
    fn exp4(xd: __m256d) -> __m128 {
        let inv_ln2 = _mm256_set1_pd(super::INV_LN2_32);
        let shift = _mm256_set1_pd(super::ROUND_SHIFT);
        let kd = _mm256_fmadd_pd(inv_ln2, xd, shift);
        let ki = _mm256_castpd_si256(kd);
        let kd = _mm256_sub_pd(kd, shift);
        // The port's `mul_add(xd, −kd)`: negation is exact, so this rounds
        // the same sum once.
        let r = _mm256_fmsub_pd(inv_ln2, xd, kd);
        let index = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
        // SAFETY: every index is below 32, the table's length.
        let t = unsafe { _mm256_i64gather_epi64::<8>(super::EXP2_TABLE.as_ptr().cast(), index) };
        let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
        let z = _mm256_fmadd_pd(
            _mm256_set1_pd(super::EXP_C0),
            r,
            _mm256_set1_pd(super::EXP_C1),
        );
        let r2 = _mm256_mul_pd(r, r);
        let y = _mm256_fmadd_pd(_mm256_set1_pd(super::EXP_C2), r, _mm256_set1_pd(1.0));
        let y = _mm256_fmadd_pd(z, r2, y);
        _mm256_cvtpd_ps(_mm256_mul_pd(y, s))
    }

    /// [`super::tanh`] on eight lanes, with the bit mask of the NaN and ±∞
    /// lanes.
    #[target_feature(enable = "avx2,fma")]
    fn tanh8(x: __m256) -> (__m256, i32) {
        let ix = abs_bits(x);
        let odd = _mm256_movemask_ps(gt(ix, 0x7f7f_ffff));
        let at_least_one = gt(ix, super::TANH_ONE as i32 - 1);
        // 2·|x| from 1 up, −2·|x| below: `(−2)·|x|` rounds to `−(2·|x|)`.
        let twice = _mm256_mul_ps(_mm256_set1_ps(2.0), _mm256_castsi256_ps(ix));
        let t = expm1_8(_mm256_xor_ps(twice, _mm256_andnot_ps(at_least_one, sign())));
        let (one, two) = (_mm256_set1_ps(1.0), _mm256_set1_ps(2.0));
        let t2 = _mm256_add_ps(t, two);
        let from_one = _mm256_sub_ps(one, _mm256_div_ps(two, t2));
        let below_one = _mm256_div_ps(_mm256_xor_ps(t, sign()), t2);
        let z = _mm256_blendv_ps(below_one, from_one, at_least_one);
        let z = _mm256_blendv_ps(z, one, gt(ix, super::TANH_SATURATED as i32 - 1));
        let z = _mm256_xor_ps(z, _mm256_and_ps(x, sign()));
        let tiny = _mm256_mul_ps(x, _mm256_add_ps(one, x));
        (
            _mm256_blendv_ps(z, tiny, lt(ix, super::TANH_TINY as i32)),
            odd,
        )
    }

    /// [`super::expm1`] on eight lanes of its domain.
    #[target_feature(enable = "avx2,fma")]
    fn expm1_8(x: __m256) -> __m256 {
        let hx = abs_bits(x);
        let signed_half = _mm256_or_ps(_mm256_set1_ps(0.5), _mm256_and_ps(x, sign()));
        let rounded = _mm256_cvttps_epi32(_mm256_add_ps(
            _mm256_mul_ps(_mm256_set1_ps(super::INV_LN2), x),
            signed_half,
        ));
        let k = _mm256_blendv_epi8(
            rounded,
            _mm256_set1_epi32(-1),
            _mm256_castps_si256(lt(hx, super::EXPM1_ONE_LN2 as i32)),
        );
        let k = _mm256_andnot_si256(
            _mm256_castps_si256(lt(hx, super::EXPM1_NO_REDUCTION as i32 + 1)),
            k,
        );
        // With k = 0 the reduction leaves x as it is and c = +0, which is
        // what the port's unreduced branch uses.
        let t = _mm256_cvtepi32_ps(k);
        let hi = _mm256_sub_ps(x, _mm256_mul_ps(t, _mm256_set1_ps(super::LN2_HI)));
        let lo = _mm256_mul_ps(t, _mm256_set1_ps(super::LN2_LO));
        let xr = _mm256_sub_ps(hi, lo);
        let c = _mm256_sub_ps(_mm256_sub_ps(hi, xr), lo);

        let (one, half) = (_mm256_set1_ps(1.0), _mm256_set1_ps(0.5));
        let hfx = _mm256_mul_ps(half, xr);
        let hxs = _mm256_mul_ps(xr, hfx);
        let mut p = _mm256_set1_ps(super::Q5);
        for q in [super::Q4, super::Q3, super::Q2, super::Q1] {
            p = _mm256_add_ps(_mm256_set1_ps(q), _mm256_mul_ps(hxs, p));
        }
        let r1 = _mm256_add_ps(one, _mm256_mul_ps(hxs, p));
        let tt = _mm256_sub_ps(_mm256_set1_ps(3.0), _mm256_mul_ps(r1, hfx));
        let e = _mm256_mul_ps(
            hxs,
            _mm256_div_ps(
                _mm256_sub_ps(r1, tt),
                _mm256_sub_ps(_mm256_set1_ps(6.0), _mm256_mul_ps(xr, tt)),
            ),
        );
        // For k = 0 this is the port's `x·e − hxs`: e − (+0) and
        // x·e − (+0) change no bit.
        let e = _mm256_sub_ps(
            _mm256_sub_ps(_mm256_mul_ps(xr, _mm256_sub_ps(e, c)), c),
            hxs,
        );

        // The port's three `k`-scaled results, computed for every lane.
        let e_less_x = _mm256_sub_ps(e, xr);
        let wide = _mm256_sub_ps(scale_by_pow2(_mm256_sub_ps(one, e_less_x), k), one);
        let t_mid = _mm256_sub_epi32(
            _mm256_set1_epi32(0x3f80_0000),
            _mm256_srlv_epi32(_mm256_set1_epi32(0x0100_0000), k),
        );
        let mid = scale_by_pow2(_mm256_sub_ps(_mm256_castsi256_ps(t_mid), e_less_x), k);
        let t_high = _mm256_slli_epi32::<23>(_mm256_sub_epi32(_mm256_set1_epi32(0x7f), k));
        let high = scale_by_pow2(
            _mm256_add_ps(
                _mm256_sub_ps(xr, _mm256_add_ps(e, _mm256_castsi256_ps(t_high))),
                one,
            ),
            k,
        );
        let y = _mm256_blendv_ps(wide, mid, _mm256_andnot_ps(gt(k, 22), gt(k, 1)));
        let y = _mm256_blendv_ps(y, high, _mm256_andnot_ps(gt(k, 56), gt(k, 22)));
        let minus_one = _mm256_sub_ps(_mm256_mul_ps(half, _mm256_sub_ps(xr, e)), half);
        let y = _mm256_blendv_ps(y, minus_one, eq(k, -1));
        let y = _mm256_blendv_ps(y, _mm256_sub_ps(xr, e), eq(k, 0));
        _mm256_blendv_ps(y, x, lt(hx, super::EXPM1_TINY as i32))
    }

    /// [`super::scale_by_pow2`] on eight lanes.
    #[target_feature(enable = "avx2")]
    fn scale_by_pow2(y: __m256, k: __m256i) -> __m256 {
        _mm256_castsi256_ps(_mm256_add_epi32(
            _mm256_castps_si256(y),
            _mm256_slli_epi32::<23>(k),
        ))
    }
}

#[cfg(all(test, target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
mod tests {
    /// `exp` is glibc's `expf` on every input. This is the check that pins
    /// the five fusions: through σ the unfused form's two misses vanish.
    /// It holds on glibc 2.36, the libm the goldens were recorded with;
    /// another release may round differently.
    #[test]
    #[ignore = "exhaustive: all 2^32 inputs, about a minute in release; assumes glibc 2.36"]
    fn exp_is_glibcs_expf_on_every_input() {
        let bad = (0..=u32::MAX)
            .map(f32::from_bits)
            .filter(|x| super::exp(*x).to_bits() != x.exp().to_bits())
            .count();
        assert_eq!(bad, 0, "the port and this host's expf differ");
    }
}
