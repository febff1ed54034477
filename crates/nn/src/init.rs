//! Weight initialization schemes.

use deeprest_tensor::Tensor;
use rand::Rng;

/// Xavier/Glorot uniform initialization for a `(fan_out, fan_in)` weight
/// matrix: entries drawn from `U(-l, l)` with `l = sqrt(6 / (fan_in +
/// fan_out))`.
///
/// Keeps activation variance roughly constant through sigmoid/tanh layers,
/// which is what the GRU gates of Eq. 2 use.
pub fn xavier_uniform<R: Rng + ?Sized>(fan_out: usize, fan_in: usize, rng: &mut R) -> Tensor {
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    Tensor::rand_uniform(fan_out, fan_in, -limit, limit, rng)
}

/// Zero initialization, the conventional choice for bias vectors.
pub fn zeros(rows: usize, cols: usize) -> Tensor {
    Tensor::zeros(rows, cols)
}

/// Initialization for the API-aware mask logits `m^{c,r}` of Eq. 1.
///
/// Small positive logits make `σ(m) ≈ 0.5 + ε` at the start of training: all
/// invocation-path features pass through at half strength, and the optimizer
/// then amplifies the relevant ones toward 1 and suppresses the rest toward
/// 0, as described in §4.2.
pub fn mask_logits<R: Rng + ?Sized>(dim: usize, rng: &mut R) -> Tensor {
    Tensor::rand_uniform(dim, 1, 0.0, 0.2, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn xavier_respects_limit() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let t = xavier_uniform(64, 32, &mut rng);
        let limit = (6.0 / 96.0f32).sqrt();
        assert!(t.data().iter().all(|v| v.abs() <= limit));
        // Not degenerate: some spread.
        let max = t.data().iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let min = t.data().iter().copied().fold(f32::INFINITY, f32::min);
        assert!(max > 0.5 * limit);
        assert!(min < -0.5 * limit);
    }

    #[test]
    fn mask_logits_start_near_half_open() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let m = mask_logits(16, &mut rng);
        for &v in m.data() {
            let sig = 1.0 / (1.0 + (-v).exp());
            assert!((0.5..0.56).contains(&sig));
        }
    }

    #[test]
    fn zeros_shape() {
        assert_eq!(zeros(3, 1).data(), &[0.0, 0.0, 0.0]);
    }
}
