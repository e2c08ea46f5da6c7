//! # dcn-workloads — traffic patterns and failure scenarios
//!
//! Deterministic, seedable generators for the workloads the ABCCC
//! evaluation runs: [`traffic`] produces `(src, dst)` flow sets (random
//! permutation, all-to-all, incast, one-to-many, uniform random, bisection
//! stress, MapReduce shuffle, elephant/mice), [`correlated`] builds
//! structured outages (rack loss, level loss, cable-bundle cuts),
//! [`trace`] replays CSV flow traces, and [`scenarios`] builds production
//! [`dcn_sim::Scenario`] values for the unified traffic engine
//! (collectives, incast, storage-reconstruction storms, diurnal load with
//! flash crowds). Uniform failures are a seeded
//! [`netgraph::FaultScenario`] chain.
//!
//! ```
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let pairs = dcn_workloads::traffic::random_permutation(64, &mut rng);
//! assert_eq!(pairs.len(), 64);
//! assert!(pairs.iter().all(|(s, d)| s != d));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod correlated;
pub mod scenarios;
pub mod trace;
pub mod traffic;

pub use trace::TraceFlow;
