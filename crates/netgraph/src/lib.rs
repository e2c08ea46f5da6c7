//! # netgraph — graph substrate for server-centric data-center networks
//!
//! This crate is the foundation of the ABCCC reproduction. It provides:
//!
//! * [`Network`] — a typed multigraph whose nodes are either **servers** or
//!   **switches** and whose edges are physical cables with a capacity,
//! * [`FaultMask`] — a cheap overlay marking failed nodes/links without
//!   mutating the topology, and [`FaultScenario`] — the seedable builder
//!   every fault experiment constructs masks through,
//! * BFS-based metrics ([`bfs`]): hop distances, shortest paths, exact and
//!   sampled diameter / average path length (switch-transparent "server
//!   hops", the metric used throughout the ABCCC paper family),
//! * the all-pairs [`DistanceEngine`] ([`distance`]): CSR-backed 0–1 BFS
//!   with reusable scratch, work-stealing source distribution and a fused
//!   single sweep for diameter + average path length + eccentricity
//!   histogram + per-link shortest-path load,
//! * [`par::map_indexed`], the work-stealing, index-ordered parallel loop
//!   every sweep in the workspace runs on, and the seed mixers
//!   ([`mix_seed`]) that give each of its items its own RNG stream,
//! * exact minimum cuts via Dinic max-flow ([`maxflow`]): bisection width of
//!   a bipartition, pairwise edge/vertex connectivity,
//! * vertex-disjoint path extraction ([`paths`]),
//! * the [`Route`] type and the [`Topology`] trait implemented by every
//!   concrete network family (ABCCC, BCCC, BCube, DCell, fat-tree, …) so
//!   that the flow- and packet-level simulators work over any of them.
//!
//! ## Example
//!
//! ```
//! use netgraph::{Network, NodeKind};
//!
//! // A toy star: one switch connecting three servers.
//! let mut net = Network::new();
//! let s = [net.add_server(), net.add_server(), net.add_server()];
//! let sw = net.add_switch();
//! for &srv in &s {
//!     net.add_link(srv, sw, 1.0);
//! }
//! assert_eq!(net.server_count(), 3);
//! assert_eq!(net.switch_count(), 1);
//! assert_eq!(net.kind(sw), NodeKind::Switch);
//! let d = netgraph::bfs::server_hop_distances(&net, s[0], None);
//! assert_eq!(d[s[1].index()], 1); // server → switch → server is ONE hop
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod connectivity;
pub mod distance;
pub mod dot;
mod error;
mod fault;
mod graph;
pub mod maxflow;
mod mix;
pub mod par;
pub mod paths;
mod route;
pub mod sample;
mod scenario;
pub mod svg;

pub use distance::{AllPairsStats, BfsScratch, DistanceEngine, SourceStats};
pub use error::{NetworkError, RouteError};
pub use fault::FaultMask;
pub use graph::{Link, LinkId, Network, NodeId, NodeKind};
pub use mix::{mix_seed, mix_seed_additive};
pub use route::{AsAny, Route, Topology};
pub use scenario::FaultScenario;
