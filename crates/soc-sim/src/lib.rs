//! Discrete-event simulator for heterogeneous mobile SoCs.
//!
//! The substrate under the MLPerf Mobile reproduction: compute engines with
//! roofline cost models, a catalog of the eight commercial platforms from
//! the paper's two submission rounds, inter-engine interconnects, a lumped
//! RC thermal model with DVFS throttling, energy accounting, and executors
//! for single-query (single-stream) and multi-stream batched (offline /
//! accelerator-level-parallel) inference.
//!
//! # Examples
//!
//! ```
//! use soc_sim::catalog::ChipId;
//! use soc_sim::engine::EngineKind;
//! use soc_sim::schedule::Schedule;
//! use soc_sim::executor::run_query;
//! use nn_graph::models::ModelId;
//! use nn_graph::DataType;
//!
//! let soc = ChipId::Dimensity1100.build();
//! let graph = nn_graph::graph::retype(&ModelId::MobileNetEdgeTpu.build(), DataType::U8);
//! let npu = soc.engine_of_kind(EngineKind::Npu).unwrap();
//! let schedule = Schedule::single(&graph, npu, DataType::U8, 0.0);
//! let mut state = soc.new_state(22.0);
//! let result = run_query(&soc, &graph, &schedule, &mut state);
//! assert!(result.latency.as_millis_f64() > 0.1);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod battery;
pub mod catalog;
pub mod dvfs;
pub mod engine;
pub mod executor;
pub mod fleet;
pub mod plan;
pub mod plan_batch;
pub mod power;
pub mod schedule;
pub mod search;
pub mod soc;
pub mod thermal;
pub mod time;

pub use battery::{BatterySpec, BatteryState};
pub use catalog::{ChipId, Generation};
pub use dvfs::DvfsLadder;
pub use engine::{EngineId, EngineKind, EngineSpec, EngineSpecBuilder};
pub use executor::{estimate_query_secs, run_offline, run_query, OfflineResult, QueryBreakdown, QueryResult};
pub use fleet::{sample_unit, DeviceUnit, FleetProfile};
pub use plan::{ExecMemo, OfflinePlan, QueryPlan, QueryStep, RateMemo, StreamPlan};
pub use plan_batch::{BatchPlan, BatchState};
pub use power::{EnergyMeter, EnergySnapshot};
pub use schedule::{Schedule, ScheduleError, Stage};
pub use search::{active_energy_j, CostModel, PartialAssign, SearchScore, SearchTarget};
pub use soc::{InterconnectSpec, Soc, SocState};
pub use thermal::{ThermalSpec, ThermalState};
pub use time::{SimDuration, SimInstant};
