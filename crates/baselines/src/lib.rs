//! # dcn-baselines — the comparison topologies of the ABCCC evaluation
//!
//! Full implementations (construction **and** native routing) of every
//! structure the ABCCC paper compares against:
//!
//! * [`BCube`] — the multi-port server-centric cube (SIGCOMM 2009); best
//!   diameter, worst expansion (every growth step retrofits a NIC into
//!   every server);
//! * [`Bccc`] — BCube Connected Crossbars, the dual-port predecessor;
//!   implemented as the verified `h = 2` degeneration of [`abccc::Abccc`];
//! * [`DCell`] — the recursively-defined server-centric network
//!   (SIGCOMM 2008) with native near-shortest `DCellRouting`;
//! * [`FatTree`] — the three-tier folded-Clos switch-centric baseline with
//!   deterministic ECMP routing;
//! * [`Hypercube`] — the generalized hypercube direct network, the
//!   "unlimited ports" end of the design space;
//! * [`Jellyfish`] — the seeded random r-regular switch graph (NSDI 2012)
//!   with k-shortest-path/ECMP routing, the strongest non-cube rival;
//! * [`SpaceShuffle`] — greedy routing over seeded random ring coordinates
//!   (ICNP 2014).
//!
//! All of them implement [`netgraph::Topology`], so the metrics engine and
//! both simulators treat them uniformly:
//!
//! ```
//! use dcn_baselines::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let t = BCube::new(BCubeParams::new(4, 1)?)?;
//! let route = t.route(netgraph::NodeId(0), netgraph::NodeId(15))?;
//! assert_eq!(route.server_hops(t.network()), 2);
//! # Ok(())
//! # }
//! ```
//!
//! The [`family`] module is the uniform construction surface: every family
//! registers a [`family::TopologyFamily`] descriptor, and text specs such
//! as `abccc:4,2,3` or `jellyfish:v=16,r=4` build any of them through
//! [`family::build_spec`] — no per-family match arms in consumers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bccc;
pub mod bccc_direct;
pub mod bcube;
pub mod dcell;
pub mod family;
pub mod fattree;
pub mod hypercube;
pub mod jellyfish;
pub mod spaceshuffle;

pub use bccc::{Bccc, BcccParams};
pub use bcube::{BCube, BCubeParams};
pub use dcell::{DCell, DCellParams};
pub use family::{FamilyParams, TopologyFamily};
pub use fattree::{FatTree, FatTreeParams};
pub use hypercube::{Hypercube, HypercubeParams};
pub use jellyfish::{Jellyfish, JellyfishParams};
pub use spaceshuffle::{SpaceShuffle, SpaceShuffleParams};

/// One-stop import: every family, its params, the [`family`] registry
/// entry points, and the [`netgraph::Topology`] trait they all implement.
pub mod prelude {
    pub use crate::family::{
        build_spec, families, find, parse_spec, size_for_budget, size_for_servers, FamilyParams,
        TopologyFamily,
    };
    pub use crate::{
        BCube, BCubeParams, Bccc, BcccParams, DCell, DCellParams, FatTree, FatTreeParams,
        Hypercube, HypercubeParams, Jellyfish, JellyfishParams, SpaceShuffle, SpaceShuffleParams,
    };
    pub use abccc::{Abccc, AbcccParams};
    pub use netgraph::Topology;
}

/// Cheap deterministic pair mix for the ECMP choices of the fat-tree and
/// Jellyfish baselines: which equal-cost next hop a `(src, dst)` pair
/// takes is a pure function of the pair.
pub(crate) fn ecmp_mix(a: u64, b: u64) -> u64 {
    let mut x = a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xD1B5_4A32_D192_ED03);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^ (x >> 29)
}
