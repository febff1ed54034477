//! Small dense linear-algebra utilities: symmetric eigendecomposition and
//! principal component analysis.
//!
//! The paper's Fig. 21 projects the "application-independent part" of each
//! expert's GRU parameters onto 2-D with PCA and observes that MongoDB
//! experts cluster. Expert parameter vectors are long (tens of thousands of
//! scalars) while the number of experts is small, so [`pca`] uses the Gram
//! (dual) formulation: eigendecompose the `n × n` centered Gram matrix
//! instead of the `d × d` covariance.

use crate::Tensor;

/// Eigendecomposition of a symmetric matrix via cyclic Jacobi rotations.
///
/// Returns `(eigenvalues, eigenvectors)` sorted by descending eigenvalue;
/// eigenvector `i` is column `i` of the returned matrix.
///
/// # Panics
///
/// Panics if `m` is not square.
pub fn symmetric_eigen(m: &Tensor) -> (Vec<f32>, Tensor) {
    let n = m.rows();
    assert_eq!(n, m.cols(), "symmetric_eigen: matrix must be square");
    let mut a = m.clone();
    let mut v = identity(n);

    // Convergence is judged relative to the matrix's own magnitude: an
    // absolute cutoff would never fire for large-norm inputs (Gram matrices
    // of long parameter vectors easily reach 1e8+, where f32 off-diagonals
    // cannot shrink below ~norm·ε) and would stop too early for tiny ones.
    let frob: f32 = (0..n)
        .flat_map(|p| (0..n).map(move |q| (p, q)))
        .map(|(p, q)| {
            let x = m.get(p, q);
            x * x
        })
        .sum::<f32>()
        .sqrt();
    let tol = (frob * n as f32 * f32::EPSILON).max(f32::MIN_POSITIVE);

    // Cyclic Jacobi: sweep all off-diagonal pairs until they vanish.
    for _sweep in 0..100 {
        let mut off = 0.0f32;
        for p in 0..n {
            for q in (p + 1)..n {
                off += a.get(p, q).abs();
            }
        }
        if off < tol {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a.get(p, q);
                if apq.abs() < 1e-12 {
                    continue;
                }
                let app = a.get(p, p);
                let aqq = a.get(q, q);
                let theta = 0.5 * (aqq - app) / apq;
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Apply the rotation G(p, q, θ) on both sides: A ← GᵀAG.
                for k in 0..n {
                    let akp = a.get(k, p);
                    let akq = a.get(k, q);
                    a.set(k, p, c * akp - s * akq);
                    a.set(k, q, s * akp + c * akq);
                }
                for k in 0..n {
                    let apk = a.get(p, k);
                    let aqk = a.get(q, k);
                    a.set(p, k, c * apk - s * aqk);
                    a.set(q, k, s * apk + c * aqk);
                }
                for k in 0..n {
                    let vkp = v.get(k, p);
                    let vkq = v.get(k, q);
                    v.set(k, p, c * vkp - s * vkq);
                    v.set(k, q, s * vkp + c * vkq);
                }
            }
        }
    }

    let mut pairs: Vec<(f32, usize)> = (0..n).map(|i| (a.get(i, i), i)).collect();
    pairs.sort_by(|x, y| y.0.partial_cmp(&x.0).unwrap_or(std::cmp::Ordering::Equal));

    let eigenvalues: Vec<f32> = pairs.iter().map(|&(val, _)| val).collect();
    let mut vectors = Tensor::zeros(n, n);
    for (out_col, &(_, src_col)) in pairs.iter().enumerate() {
        for r in 0..n {
            vectors.set(r, out_col, v.get(r, src_col));
        }
    }
    (eigenvalues, vectors)
}

/// The result of a [`pca`] projection.
#[derive(Clone, Debug)]
pub struct Pca {
    /// Per-sample coordinates in the principal subspace (`n × k`, row per
    /// input sample).
    pub projected: Vec<Vec<f32>>,
    /// Variance explained by each retained component, in `[0, 1]`.
    pub explained_variance_ratio: Vec<f32>,
}

/// Projects `samples` (each a `d`-dimensional vector) onto their top `k`
/// principal components using the Gram-matrix trick.
///
/// Complexity is `O(n²·d + n³)` for `n` samples, independent of `d²`, which
/// makes it practical for a handful of experts with very long parameter
/// vectors.
///
/// # Panics
///
/// Panics if `samples` is empty, dimensions are inconsistent, or
/// `k > samples.len()`.
pub fn pca(samples: &[Vec<f32>], k: usize) -> Pca {
    let n = samples.len();
    assert!(n > 0, "pca: no samples");
    let d = samples[0].len();
    assert!(
        samples.iter().all(|s| s.len() == d),
        "pca: inconsistent sample dimensionality"
    );
    assert!(
        k <= n,
        "pca: cannot extract {k} components from {n} samples"
    );

    // Center the data.
    let mut mean = vec![0.0f64; d];
    for s in samples {
        for (m, &x) in mean.iter_mut().zip(s.iter()) {
            *m += f64::from(x);
        }
    }
    for m in &mut mean {
        *m /= n as f64;
    }
    let centered: Vec<Vec<f32>> = samples
        .iter()
        .map(|s| {
            s.iter()
                .zip(mean.iter())
                .map(|(&x, &m)| (f64::from(x) - m) as f32)
                .collect()
        })
        .collect();

    // Gram matrix G = X Xᵀ (n × n).
    let mut gram = Tensor::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            let dot: f32 = centered[i]
                .iter()
                .zip(centered[j].iter())
                .map(|(&a, &b)| a * b)
                .sum();
            gram.set(i, j, dot);
            gram.set(j, i, dot);
        }
    }

    let (eigenvalues, eigenvectors) = symmetric_eigen(&gram);
    let total: f32 = eigenvalues.iter().map(|&e| e.max(0.0)).sum();

    // Projection of sample i onto component c is √λ_c · U[i, c] where U are
    // the Gram eigenvectors: X·v_c = √λ_c · u_c for v_c = Xᵀu_c/√λ_c.
    let mut projected = vec![vec![0.0f32; k]; n];
    let mut ratio = Vec::with_capacity(k);
    for c in 0..k {
        let lambda = eigenvalues[c].max(0.0);
        let sqrt_l = lambda.sqrt();
        for (i, row) in projected.iter_mut().enumerate() {
            row[c] = sqrt_l * eigenvectors.get(i, c);
        }
        ratio.push(if total > 0.0 { lambda / total } else { 0.0 });
    }

    Pca {
        projected,
        explained_variance_ratio: ratio,
    }
}

fn identity(n: usize) -> Tensor {
    let mut m = Tensor::zeros(n, n);
    for i in 0..n {
        m.set(i, i, 1.0);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eigen_of_diagonal_matrix() {
        let m = Tensor::from_vec(3, 3, vec![3.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0]);
        let (vals, _) = symmetric_eigen(&m);
        assert!((vals[0] - 3.0).abs() < 1e-5);
        assert!((vals[1] - 2.0).abs() < 1e-5);
        assert!((vals[2] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn eigen_satisfies_definition() {
        let m = Tensor::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let (vals, vecs) = symmetric_eigen(&m);
        assert!((vals[0] - 3.0).abs() < 1e-5);
        assert!((vals[1] - 1.0).abs() < 1e-5);
        for (c, &val) in vals.iter().enumerate() {
            let v = [vecs.get(0, c), vecs.get(1, c)];
            let mut mv = [0.0; 2];
            crate::kernel::gemv_into(&mut mv, m.data(), 2, 2, &v);
            let lv = v.map(|x| x * val);
            for i in 0..2 {
                assert!((mv[i] - lv[i]).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn eigen_converges_for_large_magnitude_matrices() {
        // A Gram matrix of long parameter vectors: entries around 1e8. The
        // old absolute `off < 1e-9` cutoff could never fire here — f32
        // rounding keeps off-diagonals stuck near norm·ε ≈ 10 — so the
        // solver burned all 100 sweeps. The relative tolerance converges
        // and the eigenvalues scale exactly with the matrix.
        let s = 1e8f32;
        let m = Tensor::from_vec(2, 2, vec![2.0 * s, s, s, 2.0 * s]);
        let (vals, vecs) = symmetric_eigen(&m);
        assert!((vals[0] - 3.0 * s).abs() < 3.0 * s * 1e-5);
        assert!((vals[1] - s).abs() < s * 1e-5);
        // Eigenvectors stay orthonormal.
        for c in 0..2 {
            let norm = vecs.get(0, c).hypot(vecs.get(1, c));
            assert!((norm - 1.0).abs() < 1e-4, "column {c} norm {norm}");
        }
        let dot = vecs.get(0, 0) * vecs.get(0, 1) + vecs.get(1, 0) * vecs.get(1, 1);
        assert!(dot.abs() < 1e-4, "columns not orthogonal: {dot}");
    }

    #[test]
    fn eigen_of_tiny_magnitude_matrix_still_resolves() {
        // The relative tolerance must also not *overshoot* for tiny inputs:
        // eigenvalues around 1e-6 still come out in order.
        let s = 1e-6f32;
        let m = Tensor::from_vec(2, 2, vec![2.0 * s, s, s, 2.0 * s]);
        let (vals, _) = symmetric_eigen(&m);
        assert!((vals[0] - 3.0 * s).abs() < 3.0 * s * 1e-4);
        assert!((vals[1] - s).abs() < s * 1e-4);
    }

    #[test]
    fn pca_recovers_dominant_direction() {
        // Points spread along (1, 1, 0) with a little noise in (1, -1, 0).
        let samples: Vec<Vec<f32>> = (0..20)
            .map(|i| {
                let t = (i as f32 - 10.0) / 2.0;
                let noise = if i % 2 == 0 { 0.05 } else { -0.05 };
                vec![t + noise, t - noise, 0.0]
            })
            .collect();
        let result = pca(&samples, 2);
        assert!(result.explained_variance_ratio[0] > 0.99);
        // First coordinate should be monotone in t.
        let first: Vec<f32> = result.projected.iter().map(|p| p[0]).collect();
        let increasing = first.windows(2).all(|w| w[1] >= w[0]);
        let decreasing = first.windows(2).all(|w| w[1] <= w[0]);
        assert!(increasing || decreasing);
    }

    #[test]
    fn pca_separates_two_clusters() {
        let mut samples = Vec::new();
        for i in 0..5 {
            samples.push(vec![10.0 + 0.01 * i as f32, 10.0, 0.0, 1.0]);
            samples.push(vec![-10.0 - 0.01 * i as f32, -10.0, 0.5, -1.0]);
        }
        let result = pca(&samples, 1);
        let signs: Vec<bool> = result.projected.iter().map(|p| p[0] > 0.0).collect();
        // Alternating samples belong to opposite clusters.
        for pair in signs.chunks(2) {
            assert_ne!(pair[0], pair[1]);
        }
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn pca_rejects_empty_input() {
        let _ = pca(&[], 1);
    }
}
