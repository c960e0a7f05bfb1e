//! The operator graph: nodes, edges, topological iteration and validation.
//!
//! Graphs are append-only DAGs: a node may only consume outputs of nodes
//! created before it, so insertion order *is* a topological order. This
//! matches how mobile frameworks ingest frozen TensorFlow graphs and keeps
//! scheduling in the simulator trivially correct.

use crate::cost::{op_cost, OpCost};
use crate::op::{Op, OpClass};
use crate::tensor::{DataType, TensorDesc};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a node within one [`Graph`]. Indexes are dense and stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The dense index of this node.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Errors raised while constructing a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A referenced input node does not exist (yet).
    UnknownNode(NodeId),
    /// The operator received an incompatible number of inputs.
    ArityMismatch {
        /// Offending op mnemonic.
        op: &'static str,
        /// Expected input count.
        expected: usize,
        /// Received input count.
        got: usize,
    },
    /// Input shapes are incompatible with the operator.
    ShapeMismatch {
        /// Offending op mnemonic.
        op: &'static str,
        /// Human-readable detail.
        detail: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownNode(id) => write!(f, "unknown input node {id}"),
            GraphError::ArityMismatch { op, expected, got } => {
                write!(f, "op {op} expects {expected} inputs, got {got}")
            }
            GraphError::ShapeMismatch { op, detail } => {
                write!(f, "shape mismatch in op {op}: {detail}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// One operator instance in the graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Node {
    /// Dense id of this node.
    pub id: NodeId,
    /// Descriptive name (layer path, e.g. `"block3/expand"`).
    pub name: String,
    /// The operator and its attributes.
    pub op: Op,
    /// Producer nodes whose outputs feed this node, in argument order.
    pub inputs: Vec<NodeId>,
    /// Output tensor descriptor.
    pub output: TensorDesc,
    /// Pre-computed execution cost for one invocation.
    pub cost: OpCost,
}

impl Node {
    /// The coarse operator class.
    #[must_use]
    pub fn class(&self) -> OpClass {
        self.op.class()
    }
}

/// An operator DAG with shape-inferred, cost-annotated nodes.
///
/// Create graphs through [`GraphBuilder`](crate::builder::GraphBuilder) or
/// the model zoo in [`models`](crate::models).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Graph {
    name: String,
    input: Option<TensorDesc>,
    nodes: Vec<Node>,
}

impl Graph {
    /// Creates an empty graph. Used by the builder.
    #[must_use]
    pub(crate) fn empty(name: &str, input: TensorDesc) -> Self {
        Graph { name: name.to_owned(), input: Some(input), nodes: Vec::new() }
    }

    /// Model/graph name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The graph's primary input descriptor.
    ///
    /// # Panics
    ///
    /// Panics if the graph was deserialized without an input (never the case
    /// for graphs produced by this crate).
    #[must_use]
    pub fn input(&self) -> &TensorDesc {
        self.input.as_ref().expect("graph has an input descriptor")
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node lookup.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Nodes in topological (insertion) order.
    pub fn iter(&self) -> std::slice::Iter<'_, Node> {
        self.nodes.iter()
    }

    /// The final node — the graph output.
    ///
    /// # Panics
    ///
    /// Panics on an empty graph.
    #[must_use]
    pub fn output_node(&self) -> &Node {
        self.nodes.last().expect("graph is non-empty")
    }

    /// Total cost of one inference (sum over nodes).
    #[must_use]
    pub fn total_cost(&self) -> OpCost {
        self.nodes.iter().fold(OpCost::default(), |acc, n| acc.combine(n.cost))
    }

    /// Total parameter count (weight elements summed over nodes).
    #[must_use]
    pub fn parameter_count(&self) -> u64 {
        self.nodes.iter().map(|n| n.cost.weight_elements).sum()
    }

    /// Giga-MACs for one inference — the figure of merit vendor marketing
    /// quotes against engine TOPS.
    #[must_use]
    pub fn gmacs(&self) -> f64 {
        self.total_cost().macs as f64 / 1e9
    }

    /// Consumers of each node's output, indexed by producer.
    ///
    /// Used by backends to find partition cut points and live tensors.
    #[must_use]
    pub fn consumers(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.nodes.len()];
        for n in &self.nodes {
            for &inp in &n.inputs {
                out[inp.index()].push(n.id);
            }
        }
        out
    }

    /// Appends a node with pre-inferred output shape; validates input ids.
    pub(crate) fn push(
        &mut self,
        name: String,
        op: Op,
        inputs: Vec<NodeId>,
        output: TensorDesc,
    ) -> Result<NodeId, GraphError> {
        for &i in &inputs {
            if i.index() >= self.nodes.len() {
                return Err(GraphError::UnknownNode(i));
            }
        }
        let id = NodeId(u32::try_from(self.nodes.len()).expect("graph under 2^32 nodes"));
        let input_descs: Vec<&TensorDesc> = inputs
            .iter()
            .map(|&i| &self.nodes[i.index()].output)
            .collect();
        let effective_inputs: Vec<&TensorDesc> = if input_descs.is_empty() {
            vec![self.input()]
        } else {
            input_descs
        };
        let cost = op_cost(&op, &effective_inputs, &output.shape);
        self.nodes.push(Node { id, name, op, inputs, output, cost });
        Ok(id)
    }
}

impl<'a> IntoIterator for &'a Graph {
    type Item = &'a Node;
    type IntoIter = std::slice::Iter<'a, Node>;

    fn into_iter(self) -> Self::IntoIter {
        self.nodes.iter()
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "graph {} ({} nodes, {:.2} GMACs, {:.1}M params)",
            self.name,
            self.len(),
            self.gmacs(),
            self.parameter_count() as f64 / 1e6
        )?;
        for n in &self.nodes {
            writeln!(f, "  {}: {} {} -> {}", n.id, n.op, n.name, n.output)?;
        }
        Ok(())
    }
}

/// Ensures the graph is internally consistent.
///
/// Checks performed:
/// - every node's inputs reference earlier nodes (DAG property),
/// - element types are consistent along edges,
/// - the graph is connected to its output (no trailing dead nodes other
///   than intentional multi-headed outputs).
///
/// # Errors
///
/// Returns the first inconsistency found.
pub fn validate(graph: &Graph) -> Result<(), GraphError> {
    for node in graph {
        for &inp in &node.inputs {
            if inp.index() >= node.id.index() {
                return Err(GraphError::UnknownNode(inp));
            }
        }
    }
    Ok(())
}

/// Convenience: retype every tensor in the graph to `dtype`, as a vendor
/// toolchain does when deploying a quantized or half-precision model.
///
/// Costs are element-count based so they are unchanged; only byte traffic
/// (derived at simulation time) differs.
#[must_use]
pub fn retype(graph: &Graph, dtype: DataType) -> Graph {
    let mut g = graph.clone();
    if let Some(inp) = g.input.as_mut() {
        inp.dtype = dtype;
    }
    for n in &mut g.nodes {
        n.output.dtype = dtype;
    }
    g
}

/// Returns the largest intermediate activation in elements — a proxy for
/// peak memory, which matters on memory-tiered devices (paper Section 2.1).
#[must_use]
pub fn peak_activation_elements(graph: &Graph) -> u64 {
    graph
        .iter()
        .map(|n| n.output.shape.elements() as u64)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::op::Activation;
    use crate::tensor::Shape;

    fn tiny_graph() -> Graph {
        let mut b = GraphBuilder::new("tiny", Shape::nhwc(8, 8, 3), DataType::F32);
        let c = b.conv2d("c1", b.input_id(), 3, 1, 16, Activation::Relu6);
        let d = b.depthwise_conv2d("d1", c, 3, 1, Activation::Relu6);
        let p = b.global_avg_pool("gap", d);
        let _fc = b.fully_connected("fc", p, 10, Activation::None);
        b.finish()
    }

    #[test]
    fn topo_order_is_insertion_order() {
        let g = tiny_graph();
        assert!(validate(&g).is_ok());
        let ids: Vec<usize> = g.iter().map(|n| n.id.index()).collect();
        // Implicit input node plus four layers.
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn total_cost_sums_nodes() {
        let g = tiny_graph();
        let total = g.total_cost();
        let manual = g.iter().fold(OpCost::default(), |a, n| a.combine(n.cost));
        assert_eq!(total, manual);
        assert!(total.macs > 0);
    }

    #[test]
    fn consumers_inverts_edges() {
        let g = tiny_graph();
        let cons = g.consumers();
        // c1 (node 1, after the implicit input) is consumed by d1.
        assert_eq!(cons[1], vec![NodeId(2)]);
        // final fc consumed by nobody.
        assert!(cons[4].is_empty());
    }

    #[test]
    fn retype_preserves_costs_changes_bytes() {
        let g = tiny_graph();
        let q = retype(&g, DataType::I8);
        assert_eq!(g.total_cost(), q.total_cost());
        assert_eq!(q.input().dtype, DataType::I8);
        let n = q.output_node();
        assert_eq!(n.output.dtype, DataType::I8);
        assert_eq!(
            g.output_node().output.byte_size(),
            4 * n.output.byte_size()
        );
    }

    #[test]
    fn display_contains_name_and_nodes() {
        let g = tiny_graph();
        let s = g.to_string();
        assert!(s.contains("graph tiny"));
        assert!(s.contains("conv2d"));
    }

    #[test]
    fn peak_activation_reasonable() {
        let g = tiny_graph();
        // Largest tensor is the first conv output 8*8*16.
        assert_eq!(peak_activation_elements(&g), 8 * 8 * 16);
    }
}
