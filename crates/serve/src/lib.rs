//! # dcn-serve — serving the compiled FIB over the network
//!
//! `dcn-fib`'s [`RouteService`](dcn_fib::RouteService) answers a route
//! query in tens of nanoseconds, but only in-process. This crate puts a
//! real server in front of it, dependency-free:
//!
//! * [`wire`] — a compact, versioned, length-prefixed binary protocol:
//!   single, batched and VLB query ops, a fault-mask push op that drives
//!   the service's incremental invalidation, and an info op. Decoding is
//!   strict and total (typed [`WireError`](wire::WireError)s, never a
//!   panic) — pinned by property tests.
//! * [`RouteServer`] — a TCP front end: one thread per connection, which
//!   coalesces pipelined frames into one group and answers it itself, so
//!   concurrent connections supply the parallelism; per-connection
//!   in-flight budgets with typed `REJECT` replies, and graceful drain on
//!   shutdown. A group answers from one mask epoch even while a mask
//!   push is waiting.
//! * [`ServeClient`] — a small blocking client with pipelining
//!   primitives.
//! * [`loadgen`] — the built-in loopback load generator: fixed seed ⇒
//!   byte-identical reply digest at any shard, connection or thread
//!   count. The CI determinism gate and the `route_server` saturation
//!   experiment share this one code path.
//!
//! Telemetry: `serve.connections`, `serve.requests`, `serve.rejects`,
//! `serve.mask_pushes` counters; `serve.batch_size` and `serve.rtt_ns`
//! (HDR, p50/p99/p999) histograms; `serve.group_ns` execution timer.
//!
//! ## Example
//!
//! ```
//! use abccc::{Abccc, AbcccParams};
//! use dcn_fib::RouteService;
//! use dcn_serve::{RouteServer, ServeClient, ServeConfig};
//!
//! let topo = Abccc::new(AbcccParams::new(2, 1, 2).unwrap()).unwrap();
//! let svc = RouteService::compile(topo, 4).unwrap();
//! let server = RouteServer::spawn(svc, ServeConfig::default()).unwrap();
//! let mut client = ServeClient::connect(server.addr()).unwrap();
//! match client.query(0, 7).unwrap() {
//!     dcn_serve::wire::Reply::Route { outcome, .. } => {
//!         assert_eq!(outcome.nodes.first(), Some(&0));
//!         assert_eq!(outcome.nodes.last(), Some(&7));
//!     }
//!     other => panic!("unexpected reply {other:?}"),
//! }
//! let drained = server.shutdown();
//! assert_eq!(drained.connections, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
pub mod loadgen;
mod server;
pub mod wire;

pub use client::{ServeClient, ServeError};
pub use loadgen::{LoadgenConfig, LoadgenReport};
pub use server::{DrainReport, RouteServer, ServeConfig};
