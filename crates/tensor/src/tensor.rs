//! The dense rank-2 tensor type.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense, row-major, rank-2 `f32` tensor.
///
/// Column vectors are represented as `(n, 1)` tensors and scalars as `(1, 1)`.
/// All shape mismatches are programming errors and panic with a descriptive
/// message, mirroring the conventions of mainstream tensor libraries.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Deserialize for Tensor {
    /// Reads `rows`, `cols` and `data`. Data that does not fill the shape
    /// exactly is an error here, not a short read later.
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        #[derive(Deserialize)]
        struct Wire {
            rows: usize,
            cols: usize,
            data: Vec<f32>,
        }
        let Wire { rows, cols, data } = Wire::from_value(value)?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(serde::Error::custom(format!(
                "Tensor: {} values do not fill shape ({rows}, {cols})",
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }
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

    /// Euclidean (Frobenius) norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
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
    fn axpy_and_scale() {
        let mut a = Tensor::vector(vec![1.0, 1.0]);
        a.axpy(2.0, &Tensor::vector(vec![3.0, -1.0]));
        assert_eq!(a.data(), &[7.0, -1.0]);
        a.scale_assign(0.5);
        assert_eq!(a.data(), &[3.5, -0.5]);
    }

    #[test]
    fn norm_is_frobenius() {
        let t = Tensor::from_vec(2, 2, vec![1.0, -2.0, 3.0, -4.0]);
        assert!((t.norm() - 30.0_f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn rand_uniform_is_in_range() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let t = Tensor::rand_uniform(8, 8, -0.5, 0.5, &mut rng);
        assert!(t.data().iter().all(|v| (-0.5..0.5).contains(v)));
    }
}
