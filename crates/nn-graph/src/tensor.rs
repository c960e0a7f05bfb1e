//! Tensor shapes and element types for the operator graph IR.
//!
//! The IR is a *performance* representation: tensors carry shapes and
//! element types but no data. Byte sizes are derived per [`DataType`] so the
//! same graph can be costed under different numerics (FP32 reference vs the
//! INT8/FP16 deployments the paper's submitters use).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Element type of a tensor.
///
/// MLPerf Mobile submissions span FP32 reference models, FP16 GPU
/// deployments and INT8/UINT8 quantized NPU deployments (paper Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DataType {
    /// 32-bit IEEE float — the reference numerics for all frozen models.
    F32,
    /// 16-bit IEEE float — used by GPU delegates, notably for MobileBERT.
    F16,
    /// Signed 8-bit affine-quantized integer (e.g. ENN, OpenVINO).
    I8,
    /// Unsigned 8-bit affine-quantized integer (e.g. SNPE, NNAPI).
    U8,
    /// 32-bit integer, used for indices and quantized accumulators.
    I32,
}

impl DataType {
    /// Size of one element in bytes.
    #[must_use]
    pub const fn size_bytes(self) -> usize {
        match self {
            DataType::F32 | DataType::I32 => 4,
            DataType::F16 => 2,
            DataType::I8 | DataType::U8 => 1,
        }
    }

    /// Whether this is an 8-bit quantized type.
    #[must_use]
    pub const fn is_quantized(self) -> bool {
        matches!(self, DataType::I8 | DataType::U8)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::F32 => "FP32",
            DataType::F16 => "FP16",
            DataType::I8 => "INT8",
            DataType::U8 => "UINT8",
            DataType::I32 => "INT32",
        };
        f.write_str(s)
    }
}

/// Shape of a tensor, stored as explicit dimensions.
///
/// Rank is at most 4 in every MLPerf Mobile reference model; we allow any
/// rank but provide NHWC convenience accessors for the common case.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from explicit dimensions.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero; zero-sized tensors are never valid
    /// in the reference models and almost always indicate a builder bug.
    #[must_use]
    pub fn new(dims: &[usize]) -> Self {
        assert!(
            dims.iter().all(|&d| d > 0),
            "shape dimensions must be positive, got {dims:?}"
        );
        Shape(dims.to_vec())
    }

    /// A scalar (rank-0) shape.
    #[must_use]
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// NHWC image tensor with batch 1.
    #[must_use]
    pub fn nhwc(h: usize, w: usize, c: usize) -> Self {
        Shape::new(&[1, h, w, c])
    }

    /// Sequence tensor `[1, len, hidden]` used by the NLP model.
    #[must_use]
    pub fn seq(len: usize, hidden: usize) -> Self {
        Shape::new(&[1, len, hidden])
    }

    /// The dimensions as a slice.
    #[must_use]
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (1 for scalars).
    #[must_use]
    pub fn elements(&self) -> usize {
        self.0.iter().product()
    }

    /// Byte size under the given element type.
    #[must_use]
    pub fn byte_size(&self, dtype: DataType) -> usize {
        self.elements() * dtype.size_bytes()
    }

    /// Height for an NHWC tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 4.
    #[must_use]
    pub fn height(&self) -> usize {
        assert_eq!(self.rank(), 4, "height() requires an NHWC tensor");
        self.0[1]
    }

    /// Width for an NHWC tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 4.
    #[must_use]
    pub fn width(&self) -> usize {
        assert_eq!(self.rank(), 4, "width() requires an NHWC tensor");
        self.0[2]
    }

    /// Channel count: the last dimension.
    ///
    /// # Panics
    ///
    /// Panics on scalars.
    #[must_use]
    pub fn channels(&self) -> usize {
        *self.0.last().expect("channels() requires rank >= 1")
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(&dims)
    }
}

/// A typed tensor descriptor: shape plus element type.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TensorDesc {
    /// Shape of the tensor.
    pub shape: Shape,
    /// Element type.
    pub dtype: DataType,
}

impl TensorDesc {
    /// Creates a descriptor.
    #[must_use]
    pub fn new(shape: Shape, dtype: DataType) -> Self {
        TensorDesc { shape, dtype }
    }

    /// Total byte size of the described tensor.
    #[must_use]
    pub fn byte_size(&self) -> usize {
        self.shape.byte_size(self.dtype)
    }
}

impl fmt::Display for TensorDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.dtype, self.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_sizes() {
        assert_eq!(DataType::F32.size_bytes(), 4);
        assert_eq!(DataType::F16.size_bytes(), 2);
        assert_eq!(DataType::I8.size_bytes(), 1);
        assert_eq!(DataType::U8.size_bytes(), 1);
        assert_eq!(DataType::I32.size_bytes(), 4);
    }

    #[test]
    fn dtype_classification() {
        assert!(DataType::I8.is_quantized());
        assert!(DataType::U8.is_quantized());
        assert!(!DataType::F16.is_quantized());
        assert!(!DataType::I32.is_quantized());
    }

    #[test]
    fn shape_elements_and_bytes() {
        let s = Shape::nhwc(224, 224, 3);
        assert_eq!(s.elements(), 224 * 224 * 3);
        assert_eq!(s.byte_size(DataType::F32), 224 * 224 * 3 * 4);
        assert_eq!(s.byte_size(DataType::U8), 224 * 224 * 3);
    }

    #[test]
    fn shape_accessors() {
        let s = Shape::nhwc(300, 320, 24);
        assert_eq!(s.height(), 300);
        assert_eq!(s.width(), 320);
        assert_eq!(s.channels(), 24);
        assert_eq!(s.rank(), 4);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.elements(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dim_rejected() {
        let _ = Shape::new(&[1, 0, 3]);
    }

    #[test]
    fn seq_shape() {
        let s = Shape::seq(384, 512);
        assert_eq!(s.dims(), &[1, 384, 512]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Shape::new(&[1, 2, 3]).to_string(), "[1x2x3]");
        assert_eq!(DataType::U8.to_string(), "UINT8");
        let d = TensorDesc::new(Shape::new(&[4]), DataType::F16);
        assert_eq!(d.to_string(), "FP16[4]");
    }
}
