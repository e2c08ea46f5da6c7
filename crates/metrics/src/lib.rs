//! # dcn-metrics — the evaluation metrics of the ABCCC paper
//!
//! Everything the comparison tables and figures need:
//!
//! * [`TopologyStats`] — structural counts, exact diameter / average path
//!   length (table T1, figures F1/F2/F5);
//! * [`routing_quality`] — native-routing stretch vs BFS-optimal;
//! * [`bisection`] — exact canonical-cut bisection via max-flow plus
//!   random-bipartition probing (figure F3);
//! * [`CostModel`] / [`Capex`] — the CAPEX model (table T2);
//! * [`expansion`] — per-family expansion ledgers: new spend vs legacy
//!   impact (figure F4);
//! * [`bounds`] — theoretical throughput ceilings the simulators must
//!   respect (asserted in tests).
//!
//! Sampled estimators for instances too large for exact all-pairs sweeps
//! live in [`netgraph::sample`].
//!
//! ```
//! use abccc::{Abccc, AbcccParams};
//! use dcn_metrics::{CostModel, TopologyStats};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let topo = Abccc::new(AbcccParams::new(4, 1, 2)?)?;
//! let stats = TopologyStats::measure(&topo);
//! assert_eq!(stats.diameter_server_hops, Some(4)); // (k+1) + m = 2 + 2
//! let capex = CostModel::default().capex(&stats);
//! assert!(capex.per_server() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bisection;
pub mod bounds;
mod cost;
pub mod design;
pub mod expansion;
pub mod load;
mod properties;

pub use cost::{Capex, CostModel};
pub use expansion::ExpansionLedger;
pub use properties::{routing_quality, RoutingQuality, TopologyStats};
