//! Operator-graph IR, cost model and model zoo for the MLPerf Mobile
//! reproduction.
//!
//! The crate provides a *performance-oriented* neural-network
//! representation: graphs carry shapes, element types and per-op
//! arithmetic/memory costs, but no weights. This is the unit the mobile
//! inference stack schedules — vendor SDKs and delegates partition these
//! graphs across SoC engines, and the simulator costs each placement.
//!
//! # Examples
//!
//! ```
//! use nn_graph::models::ModelId;
//!
//! let graph = ModelId::MobileNetEdgeTpu.build();
//! println!(
//!     "{}: {} ops, {:.2} GMACs, {:.1}M params",
//!     graph.name(),
//!     graph.len(),
//!     graph.gmacs(),
//!     graph.parameter_count() as f64 / 1e6,
//! );
//! # assert!(graph.gmacs() > 0.1);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod builder;
pub mod cost;
pub mod graph;
pub mod models;
pub mod op;
pub mod tensor;

pub use builder::GraphBuilder;
pub use cost::OpCost;
pub use graph::{Graph, GraphError, Node, NodeId};
pub use op::{Activation, Op, OpClass, Padding};
pub use tensor::{DataType, Shape, TensorDesc};
