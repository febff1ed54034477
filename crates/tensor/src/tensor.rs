//! The dense rank-2 tensor type.

use deeprest_telemetry as telemetry;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::kernel;

/// A dense, row-major, rank-2 `f32` tensor.
///
/// Column vectors are represented as `(n, 1)` tensors and scalars as `(1, 1)`.
/// All shape mismatches are programming errors and panic with a descriptive
/// message, mirroring the conventions of mainstream tensor libraries.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Tensor::from_vec: data length {} does not match shape ({rows}, {cols})",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a column vector `(n, 1)` from `data`.
    pub fn vector(data: Vec<f32>) -> Self {
        let rows = data.len();
        Self::from_vec(rows, 1, data)
    }

    /// Creates a `(1, 1)` scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Self::from_vec(1, 1, vec![value])
    }

    /// Creates a tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::from_vec(rows, cols, vec![0.0; rows * cols])
    }

    /// Creates a tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self::from_vec(rows, cols, vec![value; rows * cols])
    }

    /// Creates a tensor with entries drawn uniformly from `[lo, hi)`.
    pub fn rand_uniform<R: Rng + ?Sized>(
        rows: usize,
        cols: usize,
        lo: f32,
        hi: f32,
        rng: &mut R,
    ) -> Self {
        let data = (0..rows * cols).map(|_| rng.gen_range(lo..hi)).collect();
        Self::from_vec(rows, cols, data)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the row-major backing buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the row-major backing buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the backing buffer.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "Tensor::get: index ({r}, {c}) out of bounds for shape {:?}",
            self.shape()
        );
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn set(&mut self, r: usize, c: usize, value: f32) {
        assert!(
            r < self.rows && c < self.cols,
            "Tensor::set: index ({r}, {c}) out of bounds for shape {:?}",
            self.shape()
        );
        self.data[r * self.cols + c] = value;
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self::from_vec(
            self.rows,
            self.cols,
            self.data.iter().map(|&v| f(v)).collect(),
        )
    }

    /// Applies `f` elementwise to `self` and `other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_map(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Self {
        self.assert_same_shape(other, "zip_map");
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Self::from_vec(self.rows, self.cols, data)
    }

    /// Copies `src`'s shape and contents into `self`, reusing the backing
    /// allocation when it is large enough.
    pub fn copy_from(&mut self, src: &Self) {
        self.reshape_to(src.rows, src.cols);
        self.data.copy_from_slice(&src.data);
    }

    /// Reshapes in place to `(rows, cols)`, growing or shrinking the backing
    /// buffer as needed (new elements are zero). Existing capacity is
    /// reused; contents are unspecified unless the caller overwrites them.
    fn reshape_to(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Elementwise sum.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a + b)
    }

    /// Hadamard (elementwise) product.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn mul(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a * b)
    }

    /// Adds `other` into `self` in place.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, other: &Self) {
        self.assert_same_shape(other, "add_assign");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Adds `scale * other` into `self` in place (axpy).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, scale: f32, other: &Self) {
        self.assert_same_shape(other, "axpy");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += scale * b;
        }
    }

    /// Multiplies every element by `scale`, returning a new tensor.
    pub fn scale(&self, scale: f32) -> Self {
        self.map(|v| v * scale)
    }

    /// Multiplies every element by `scale` in place.
    pub fn scale_assign(&mut self, scale: f32) {
        for v in &mut self.data {
            *v *= scale;
        }
    }

    /// Sets every element to zero.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Matrix product `self * other`.
    ///
    /// Runs on the lane-blocked kernels of [`crate::kernel`]: every output
    /// element accumulates into eight fixed lanes (term `k` in lane `k % 8`,
    /// ascending `k`) reduced in a fixed tree order, so the bits are
    /// identical on every ISA and dispatch path. A `cols == 1` right operand
    /// dispatches to the GEMV fast path (the estimator's products are almost
    /// all matrix x vector).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Self) -> Self {
        let mut out = Tensor::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Tensor::matmul`] writing into `out` (resized in place, reusing its
    /// allocation). Bit-identical to the allocating form.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul_into(&self, other: &Self, out: &mut Self) {
        assert_eq!(
            self.cols,
            other.rows,
            "Tensor::matmul: inner dimensions differ ({:?} x {:?})",
            self.shape(),
            other.shape()
        );
        out.reshape_to(self.rows, other.cols);
        if other.cols == 1 {
            telemetry::counter("kernel.gemv", 1);
            kernel::gemv_into(&mut out.data, &self.data, self.rows, self.cols, &other.data);
        } else {
            telemetry::counter("kernel.gemm", 1);
            kernel::gemm_into(
                &mut out.data,
                &self.data,
                self.rows,
                self.cols,
                &other.data,
                other.cols,
            );
        }
    }

    /// Matrix product with transposed right operand: `self * other^T`,
    /// without materializing the transpose.
    ///
    /// Both operands are walked row-major (the contraction runs along rows
    /// of both), so every output element is a dot of two sequential streams
    /// — the cache-friendly layout for the backward pass's `g · B^T` outer
    /// products. Per-element lane-blocked accumulation order matches
    /// [`Tensor::matmul`] on a materialized transpose exactly, so results
    /// are bit-for-bit identical.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_nt(&self, other: &Self) -> Self {
        assert_eq!(
            self.cols,
            other.cols,
            "Tensor::matmul_nt: contraction dimensions differ ({:?} x {:?}^T)",
            self.shape(),
            other.shape()
        );
        if other.rows == 1 {
            telemetry::counter("kernel.gemv", 1);
        } else {
            telemetry::counter("kernel.gemm", 1);
        }
        let mut out = Tensor::zeros(self.rows, other.rows);
        kernel::gemm_nt_into(
            &mut out.data,
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.rows,
        );
        out
    }

    /// Matrix product with transposed left operand: `self^T * other`,
    /// without materializing the transpose.
    ///
    /// The contraction walks `self` row-major in lane-wide column blocks, so
    /// all three buffers stream sequentially; a single-column `other` (the
    /// backward pass's `A^T · g` GEMV-T) reads `self` exactly once.
    /// Per-element lane-blocked accumulation order matches
    /// [`Tensor::matmul`] on a materialized transpose exactly, so results
    /// are bit-for-bit identical.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != other.rows()`.
    pub fn matmul_tn(&self, other: &Self) -> Self {
        assert_eq!(
            self.rows,
            other.rows,
            "Tensor::matmul_tn: contraction dimensions differ ({:?}^T x {:?})",
            self.shape(),
            other.shape()
        );
        if other.cols == 1 {
            telemetry::counter("kernel.gemv", 1);
        } else {
            telemetry::counter("kernel.gemm", 1);
        }
        let mut out = Tensor::zeros(self.cols, other.cols);
        kernel::gemm_tn_into(
            &mut out.data,
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
        );
        out
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Self {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements; zero for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Euclidean (Frobenius) norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Largest element; negative infinity for an empty tensor.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Smallest element; positive infinity for an empty tensor.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Stacks column vectors vertically into one longer column vector.
    ///
    /// # Panics
    ///
    /// Panics if any input is not a column vector.
    pub fn concat_rows(parts: &[&Tensor]) -> Self {
        let mut data = Vec::new();
        for p in parts {
            assert_eq!(
                p.cols, 1,
                "Tensor::concat_rows: inputs must be column vectors"
            );
            data.extend_from_slice(&p.data);
        }
        Tensor::vector(data)
    }

    /// Places column vectors side by side into a `(rows, parts.len())` matrix.
    ///
    /// # Panics
    ///
    /// Panics if inputs are not column vectors of identical length.
    pub fn concat_cols(parts: &[&Tensor]) -> Self {
        assert!(!parts.is_empty(), "Tensor::concat_cols: no inputs");
        let rows = parts[0].rows;
        let cols = parts.len();
        let mut out = Tensor::zeros(rows, cols);
        for (c, p) in parts.iter().enumerate() {
            assert_eq!(
                (p.rows, p.cols),
                (rows, 1),
                "Tensor::concat_cols: inputs must be ({rows}, 1) column vectors"
            );
            for r in 0..rows {
                out.data[r * cols + c] = p.data[r];
            }
        }
        out
    }

    fn assert_same_shape(&self, other: &Self, op: &str) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "Tensor::{op}: shape mismatch {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.get(0, 2), 3.0);
        assert_eq!(t.get(1, 0), 4.0);
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
    }

    #[test]
    fn vector_and_scalar_shapes() {
        assert_eq!(Tensor::vector(vec![1.0, 2.0]).shape(), (2, 1));
        assert_eq!(Tensor::scalar(7.0).shape(), (1, 1));
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_bad_length() {
        let _ = Tensor::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn matmul_known_result() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_vector() {
        let m = Tensor::from_vec(2, 2, vec![1.0, -1.0, 2.0, 0.5]);
        let v = Tensor::vector(vec![4.0, 2.0]);
        let out = m.matmul(&v);
        assert_eq!(out.shape(), (2, 1));
        assert_eq!(out.data(), &[2.0, 9.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn matmul_rejects_mismatch() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose_bitwise() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for (m, k, n) in [(1, 1, 1), (2, 3, 4), (7, 5, 6), (16, 33, 9)] {
            let mut a = Tensor::rand_uniform(m, k, -2.0, 2.0, &mut rng);
            let b = Tensor::rand_uniform(n, k, -2.0, 2.0, &mut rng);
            // Zero operands must not disturb the lane-ordered bits.
            a.data_mut()[0] = 0.0;
            let fused = a.matmul_nt(&b);
            let reference = a.matmul(&b.transpose());
            assert_eq!(fused.data(), reference.data(), "shape ({m},{k},{n})");
        }
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose_bitwise() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for (m, k, n) in [(1, 1, 1), (3, 2, 4), (5, 7, 6), (33, 16, 9)] {
            let mut a = Tensor::rand_uniform(k, m, -2.0, 2.0, &mut rng);
            let b = Tensor::rand_uniform(k, n, -2.0, 2.0, &mut rng);
            a.data_mut()[0] = 0.0;
            let fused = a.matmul_tn(&b);
            let reference = a.transpose().matmul(&b);
            assert_eq!(fused.data(), reference.data(), "shape ({m},{k},{n})");
        }
    }

    #[test]
    #[should_panic(expected = "contraction dimensions differ")]
    fn matmul_nt_rejects_mismatch() {
        let _ = Tensor::zeros(2, 3).matmul_nt(&Tensor::zeros(2, 4));
    }

    #[test]
    fn transpose_round_trip() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let tt = t.transpose();
        assert_eq!(tt.shape(), (3, 2));
        assert_eq!(tt.get(2, 1), 6.0);
        assert_eq!(tt.transpose(), t);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::vector(vec![1.0, 2.0]);
        let b = Tensor::vector(vec![3.0, -4.0]);
        assert_eq!(a.add(&b).data(), &[4.0, -2.0]);
        assert_eq!(a.mul(&b).data(), &[3.0, -8.0]);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::vector(vec![1.0, 1.0]);
        a.axpy(2.0, &Tensor::vector(vec![3.0, -1.0]));
        assert_eq!(a.data(), &[7.0, -1.0]);
        a.scale_assign(0.5);
        assert_eq!(a.data(), &[3.5, -0.5]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(2, 2, vec![1.0, -2.0, 3.0, -4.0]);
        assert_eq!(t.sum(), -2.0);
        assert_eq!(t.mean(), -0.5);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -4.0);
        assert!((t.norm() - 30.0_f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn concat_rows_and_cols() {
        let a = Tensor::vector(vec![1.0, 2.0]);
        let b = Tensor::vector(vec![3.0, 4.0]);
        let stacked = Tensor::concat_rows(&[&a, &b]);
        assert_eq!(stacked.shape(), (4, 1));
        assert_eq!(stacked.data(), &[1.0, 2.0, 3.0, 4.0]);

        let side = Tensor::concat_cols(&[&a, &b]);
        assert_eq!(side.shape(), (2, 2));
        assert_eq!(side.data(), &[1.0, 3.0, 2.0, 4.0]);
    }

    #[test]
    fn matmul_into_reuses_allocation_and_matches() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        // Start from a wrong-shaped, over-sized output buffer.
        let mut out = Tensor::zeros(4, 4);
        let cap = out.data.capacity();
        a.matmul_into(&b, &mut out);
        assert_eq!(out.shape(), (2, 2));
        assert_eq!(out.data(), a.matmul(&b).data());
        assert_eq!(out.data.capacity(), cap, "must reuse the allocation");
    }

    #[test]
    fn rand_uniform_is_in_range() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let t = Tensor::rand_uniform(8, 8, -0.5, 0.5, &mut rng);
        assert!(t.data().iter().all(|v| (-0.5..0.5).contains(v)));
    }
}
