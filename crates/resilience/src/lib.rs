//! # dcn-resilience — seeded fault campaigns over ABCCC
//!
//! The resilience layer answers the operational question the topology
//! papers leave open: *how gracefully does the structure degrade?* It runs
//! **campaigns** — many independent, seeded trials of a fault scenario —
//! and aggregates per-trial **degradation reports**:
//!
//! * connectivity fraction (largest surviving component),
//! * route-completion rate of the configured [`Router`](abccc::Router),
//! * mean/max path stretch versus the fault-free closed-form distance,
//! * throughput retention under max-min fair allocation ([`dcn_sim`]),
//! * escalation-tier counts, attempt totals and deterministic backoff.
//!
//! Scenarios cover uniform element failures ([`ScenarioKind::Uniform`]),
//! correlated rack/level outages ([`ScenarioKind::CrossbarGroups`],
//! [`ScenarioKind::LevelSwitches`]) and time-stepped link flapping
//! ([`ScenarioKind::FlappingLinks`]). Trials run in parallel on
//! [`netgraph::par::map_indexed`], yet every number in the report depends
//! only on the campaign seed — per-trial RNG streams are derived by index
//! ([`netgraph::mix_seed_additive`]) and trials come back in index order,
//! so reports are byte-identical across runs and thread counts.
//!
//! Campaigns are topology-agnostic: hand [`CampaignConfig::run_on`] any
//! materialized [`Topology`](netgraph::Topology). An ABCCC instance is
//! driven through the configured router control plane (escalation tiers,
//! retry accounting); any other family — Jellyfish, Space Shuffle, the
//! trees and cubes of `dcn-baselines` — is driven through its native
//! fault-avoiding `route_avoiding` plane under the same seeded scenarios.
//!
//! ```
//! use abccc::{Abccc, AbcccParams};
//! use dcn_resilience::{CampaignConfig, ScenarioKind};
//!
//! # fn main() -> Result<(), netgraph::RouteError> {
//! let topo = Abccc::new(AbcccParams::new(3, 2, 2)?)?;
//! let report = CampaignConfig::new()
//!     .scenario(ScenarioKind::Uniform {
//!         server_rate: 0.05,
//!         switch_rate: 0.05,
//!         link_rate: 0.0,
//!     })
//!     .trials(4)
//!     .pairs_per_trial(32)
//!     .seed(7)
//!     .run_on(&topo)?;
//! assert_eq!(report.trials.len(), 4);
//! assert!(report.summary.route_completion > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
mod report;
mod scenario;

pub use campaign::{CampaignConfig, PairSampling, RouterSpec};
pub use report::{CampaignReport, CampaignSummary, TierCounts, TrialReport};
pub use scenario::ScenarioKind;
