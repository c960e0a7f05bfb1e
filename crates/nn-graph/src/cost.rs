//! Arithmetic and memory cost model for graph operators.
//!
//! Costs are computed once at graph-construction time from op attributes and
//! input shapes. Element counts (not bytes) are stored for activations and
//! weights so the same graph can be costed under any [`DataType`]: byte
//! traffic scales with precision, arithmetic count does not.

use crate::op::{Op, PoolKind};
use crate::tensor::{DataType, Shape, TensorDesc};
use serde::{Deserialize, Serialize};

/// Cost of executing one operator once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct OpCost {
    /// Multiply-accumulate count (0 for non-MAC ops).
    pub macs: u64,
    /// Total floating/fixed point operations (2·MACs for MAC ops, otherwise
    /// an op-specific estimate).
    pub flops: u64,
    /// Activation elements read (sum over inputs).
    pub input_elements: u64,
    /// Activation elements written.
    pub output_elements: u64,
    /// Parameter elements read (weights + biases).
    pub weight_elements: u64,
}

impl OpCost {
    /// Bytes of activation traffic (read + write) at the given precision.
    #[must_use]
    pub fn activation_bytes(&self, dtype: DataType) -> u64 {
        (self.input_elements + self.output_elements) * dtype.size_bytes() as u64
    }

    /// Bytes of parameter traffic at the given precision.
    #[must_use]
    pub fn weight_bytes(&self, dtype: DataType) -> u64 {
        self.weight_elements * dtype.size_bytes() as u64
    }

    /// Total memory traffic in bytes at the given precision.
    #[must_use]
    pub fn total_bytes(&self, dtype: DataType) -> u64 {
        self.activation_bytes(dtype) + self.weight_bytes(dtype)
    }

    /// Component-wise sum of two costs.
    #[must_use]
    pub fn combine(self, other: OpCost) -> OpCost {
        OpCost {
            macs: self.macs + other.macs,
            flops: self.flops + other.flops,
            input_elements: self.input_elements + other.input_elements,
            output_elements: self.output_elements + other.output_elements,
            weight_elements: self.weight_elements + other.weight_elements,
        }
    }
}

/// Computes the cost of `op` given its input descriptors and the output
/// shape the graph assigned to it.
///
/// # Panics
///
/// Panics if the inputs are inconsistent with the operator (e.g. a
/// convolution applied to a non-rank-4 tensor); the graph builder validates
/// shapes before calling this, so a panic indicates an IR construction bug.
#[must_use]
pub fn op_cost(op: &Op, inputs: &[&TensorDesc], output: &Shape) -> OpCost {
    let input_elements: u64 = inputs.iter().map(|d| d.shape.elements() as u64).sum();
    let output_elements = output.elements() as u64;
    match *op {
        Op::Conv2d { kernel, out_channels, .. } => {
            let in_c = inputs[0].shape.channels() as u64;
            let spatial = (output.height() * output.width()) as u64;
            let macs = spatial * out_channels as u64 * in_c * (kernel * kernel) as u64;
            let weights = (kernel * kernel) as u64 * in_c * out_channels as u64 + out_channels as u64;
            OpCost { macs, flops: 2 * macs, input_elements, output_elements, weight_elements: weights }
        }
        Op::DepthwiseConv2d { kernel, .. } => {
            let in_c = inputs[0].shape.channels() as u64;
            let spatial = (output.height() * output.width()) as u64;
            let macs = spatial * in_c * (kernel * kernel) as u64;
            let weights = (kernel * kernel) as u64 * in_c + in_c;
            OpCost { macs, flops: 2 * macs, input_elements, output_elements, weight_elements: weights }
        }
        Op::FullyConnected { out_features, .. } => {
            // Rank-3 inputs are time-distributed dense layers (TFLite
            // fully_connected broadcast over the sequence axis); the weight
            // is shared across tokens.
            let in_shape = &inputs[0].shape;
            let (tokens, in_features) = if in_shape.rank() == 3 {
                (in_shape.dims()[1] as u64, in_shape.channels() as u64)
            } else {
                (1, in_shape.elements() as u64)
            };
            let macs = tokens * in_features * out_features as u64;
            let weights = in_features * out_features as u64 + out_features as u64;
            OpCost { macs, flops: 2 * macs, input_elements, output_elements, weight_elements: weights }
        }
        Op::MatMul { k, n } => {
            // Batched: every output element costs k MACs.
            let macs = output_elements * k as u64;
            debug_assert_eq!(output.channels(), n, "MatMul output last dim must be n");
            OpCost { macs, flops: 2 * macs, input_elements, output_elements, weight_elements: 0 }
        }
        Op::Pool { kernel, kind, .. } => {
            let per_elem = match kind {
                PoolKind::Average => (kernel * kernel) as u64,
                PoolKind::Max => (kernel * kernel) as u64,
            };
            OpCost {
                macs: 0,
                flops: output_elements * per_elem,
                input_elements,
                output_elements,
                weight_elements: 0,
            }
        }
        Op::Softmax => OpCost {
            macs: 0,
            // exp + sub + div + two reductions, roughly.
            flops: 5 * output_elements,
            input_elements,
            output_elements,
            weight_elements: 0,
        },
        Op::LayerNorm => {
            let hidden = output.channels() as u64;
            OpCost {
                macs: 0,
                // mean, variance, normalize, scale+shift.
                flops: 8 * output_elements,
                input_elements,
                output_elements,
                weight_elements: 2 * hidden,
            }
        }
        Op::Eltwise { .. } => OpCost {
            macs: 0,
            flops: output_elements,
            input_elements,
            output_elements,
            weight_elements: 0,
        },
        Op::Concat | Op::Reshape { .. } => OpCost {
            macs: 0,
            flops: 0,
            input_elements,
            output_elements,
            weight_elements: 0,
        },
        Op::ResizeBilinear { .. } => OpCost {
            macs: 0,
            // 4 taps + 3 lerps per output element.
            flops: 8 * output_elements,
            input_elements,
            output_elements,
            weight_elements: 0,
        },
        Op::Embedding { vocab, hidden, seq } => OpCost {
            macs: 0,
            flops: 0,
            input_elements: seq as u64,
            output_elements,
            weight_elements: vocab as u64 * hidden as u64,
        },
        Op::Lstm { hidden } => {
            let in_shape = &inputs[0].shape;
            assert_eq!(in_shape.rank(), 3, "LSTM expects [1, seq, features]");
            let seq = in_shape.dims()[1] as u64;
            let in_features = in_shape.channels() as u64;
            let h = hidden as u64;
            // Input + recurrent projections into 4 gates, every timestep.
            let macs = seq * (in_features + h) * 4 * h;
            // Gate nonlinearities and the cell update: ~30 ops per cell.
            let flops = 2 * macs + 30 * seq * h;
            let weights = (in_features + h) * 4 * h + 4 * h;
            OpCost { macs, flops, input_elements, output_elements, weight_elements: weights }
        }
        Op::Nms { anchors, max_detections } => {
            // Per-class score sort + suppression over all anchors: the
            // notoriously slow TFLite-style detection post-processing
            // (cf. the AI-tax analysis the paper cites). The class count
            // comes from the decoded-box input layout [1, anchors, 4+C].
            let classes = inputs[0].shape.channels().saturating_sub(4).max(1) as u64;
            OpCost {
                macs: 0,
                flops: anchors as u64 * classes * 200
                    + (max_detections * max_detections) as u64 * 16,
                input_elements,
                output_elements,
                weight_elements: 0,
            }
        }
        Op::BoxDecode { anchors, classes } => OpCost {
            macs: 0,
            flops: anchors as u64 * (32 + classes as u64),
            input_elements,
            output_elements,
            weight_elements: 0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Activation, Padding};

    fn desc(dims: &[usize]) -> TensorDesc {
        TensorDesc::new(Shape::new(dims), DataType::F32)
    }

    #[test]
    fn conv_cost() {
        // 3x3 conv, 16 in -> 32 out channels, 112x112 output.
        let op = Op::Conv2d {
            kernel: 3,
            stride: 1,
            out_channels: 32,
            dilation: 1,
            padding: Padding::Same,
            activation: Activation::Relu6,
        };
        let input = desc(&[1, 112, 112, 16]);
        let out = Shape::nhwc(112, 112, 32);
        let c = op_cost(&op, &[&input], &out);
        assert_eq!(c.macs, 112 * 112 * 32 * 16 * 9);
        assert_eq!(c.flops, 2 * c.macs);
        assert_eq!(c.weight_elements, 9 * 16 * 32 + 32);
    }

    #[test]
    fn dwconv_cost_is_channel_linear() {
        let op = Op::DepthwiseConv2d {
            kernel: 3,
            stride: 1,
            dilation: 1,
            padding: Padding::Same,
            activation: Activation::Relu6,
        };
        let input = desc(&[1, 56, 56, 144]);
        let out = Shape::nhwc(56, 56, 144);
        let c = op_cost(&op, &[&input], &out);
        assert_eq!(c.macs, 56 * 56 * 144 * 9);
    }

    #[test]
    fn fc_cost() {
        let op = Op::FullyConnected { out_features: 1000, activation: Activation::None };
        let input = desc(&[1, 1280]);
        let out = Shape::new(&[1, 1000]);
        let c = op_cost(&op, &[&input], &out);
        assert_eq!(c.macs, 1280 * 1000);
        assert_eq!(c.weight_elements, 1280 * 1000 + 1000);
    }

    #[test]
    fn matmul_cost() {
        // 4 heads, 384x384 attention scores over head dim 64.
        let op = Op::MatMul { k: 64, n: 384 };
        let a = desc(&[4, 384, 64]);
        let b = desc(&[4, 64, 384]);
        let out = Shape::new(&[4, 384, 384]);
        let c = op_cost(&op, &[&a, &b], &out);
        assert_eq!(c.macs, 4 * 384 * 384 * 64);
        assert_eq!(c.weight_elements, 0);
    }

    #[test]
    fn reshape_moves_data_only() {
        let op = Op::Reshape { shape: Shape::new(&[1, 49, 1280]) };
        let input = desc(&[1, 7, 7, 1280]);
        let out = Shape::new(&[1, 49, 1280]);
        let c = op_cost(&op, &[&input], &out);
        assert_eq!(c.flops, 0);
        assert_eq!(c.input_elements, 7 * 7 * 1280);
    }

    #[test]
    fn embedding_weights_dominate() {
        let op = Op::Embedding { vocab: 30522, hidden: 128, seq: 384 };
        let ids = desc(&[1, 384]);
        let out = Shape::seq(384, 128);
        let c = op_cost(&op, &[&ids], &out);
        assert_eq!(c.weight_elements, 30522 * 128);
        assert_eq!(c.output_elements, 384 * 128);
    }

    #[test]
    fn bytes_scale_with_precision() {
        let op = Op::Eltwise { kind: crate::op::EltwiseKind::Add };
        let a = desc(&[1, 8, 8, 8]);
        let b = desc(&[1, 8, 8, 8]);
        let out = Shape::nhwc(8, 8, 8);
        let c = op_cost(&op, &[&a, &b], &out);
        assert_eq!(c.total_bytes(DataType::F32), 4 * c.total_bytes(DataType::I8));
        assert_eq!(c.total_bytes(DataType::F16), 2 * c.total_bytes(DataType::U8));
    }

    #[test]
    fn combine_adds_componentwise() {
        let a = OpCost { macs: 1, flops: 2, input_elements: 3, output_elements: 4, weight_elements: 5 };
        let b = OpCost { macs: 10, flops: 20, input_elements: 30, output_elements: 40, weight_elements: 50 };
        let c = a.combine(b);
        assert_eq!(c.macs, 11);
        assert_eq!(c.flops, 22);
        assert_eq!(c.input_elements, 33);
        assert_eq!(c.output_elements, 44);
        assert_eq!(c.weight_elements, 55);
    }
}
