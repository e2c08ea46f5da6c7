//! `dcn-sim` — the unified seeded discrete-event traffic engine.
//!
//! One event core and two fidelity backends, routing on the topology's own
//! algorithms:
//!
//! * **Core** — a binary-heap [`EventQueue`] keyed `(time, seq)` so event
//!   order is time-then-insertion, and [`SplitMix64`] per-entity RNG
//!   streams seeded by [`netgraph::mix_seed`].
//!   Nothing in the engine reads wall clocks or global RNG state, so every
//!   run is byte-deterministic at any thread count.
//! * **Fluid backend** — flows are rates under progressive-filling max-min
//!   fairness ([`max_min_allocation`]), recomputed event by event.
//! * **Packet backend** — store-and-forward with FIFO output queues, tail
//!   drop, and open-loop or AIMD injection.
//! * **Routing** — the topology's native `route`, and its
//!   `route_avoiding` once faults have fired.
//!
//! A [`Scenario`] describes traffic (flows in bulk-synchronous phases), a
//! fault timeline ([`FaultInjection`] — faults fire *mid-flow*), and a
//! [`Fidelity`]; [`TrafficEngine::run`] turns it into a
//! [`ScenarioReport`] with HDR FCT quantiles and byte-conservation
//! accounting.
//!
//! The historical `flowsim` ([`FlowSim`]) and `packetsim` ([`PacketSim`])
//! APIs live on as thin veneers over the same internals, and keep their
//! `flowsim.*`/`packetsim.*` span and metric names.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod fluid;
pub mod maxmin;
mod packet;
mod queue;
mod report;
mod rng;
mod scenario;
mod stats;

pub use engine::{EngineError, TrafficEngine};
pub use fluid::{FlowSim, FlowSimReport};
pub use maxmin::{max_min_allocation, DirectedLink};
pub use packet::{AimdConfig, FlowSpec, PacketSim, PacketSimConfig};
pub use queue::EventQueue;
pub use report::{retention, FctSummary, FlowResult, ScenarioReport};
pub use rng::SplitMix64;
pub use scenario::{FaultInjection, Fidelity, Scenario, ScenarioFlow, Transport};
pub use stats::{FlowOutcome, PacketSimReport};
