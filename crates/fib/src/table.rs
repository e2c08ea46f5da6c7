//! Layout-polymorphic forwarding tables.
//!
//! [`RouteService`](crate::RouteService) and the CLI accept either FIB
//! layout; [`FibTable`] is the enum that lets them hold one without
//! generics leaking into every signature. Both variants honour the same
//! lookup contract — identical ports, walks and routes for the same
//! strategy, since the dense table is derived from the hierarchical one.

use crate::compile::{Fib, FibCompiler, FibError};
use crate::hier::HierFib;
use abccc::{Abccc, AbcccParams, PermStrategy};
use netgraph::{FaultMask, Network, NodeId, Route};

/// Which physical encoding a forwarding table uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FibLayout {
    /// One packed entry per `(source, destination)` pair, expanded from
    /// the hierarchical table: `4·N²` bytes and an O(N²) compile, O(1)
    /// lookups with no arithmetic. Kept for the experiments that record
    /// its size and compile time.
    Dense,
    /// Per-level digit sub-tables exploiting the suffix property:
    /// `O(V·levels + E)` bytes and an O(E) compile, O(levels) integer work
    /// per lookup. The default: what [`RouteService::compile`](crate::RouteService::compile)
    /// and the CLI serve from.
    Hier,
}

impl FibLayout {
    /// Stable lowercase label (CLI flag value, JSON field).
    pub fn label(self) -> &'static str {
        match self {
            FibLayout::Dense => "dense",
            FibLayout::Hier => "hier",
        }
    }

    /// Parses a [`label`](FibLayout::label).
    pub fn parse(s: &str) -> Option<FibLayout> {
        match s {
            "dense" => Some(FibLayout::Dense),
            "hier" => Some(FibLayout::Hier),
            _ => None,
        }
    }
}

impl std::fmt::Display for FibLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A compiled forwarding table in either layout, with a uniform lookup
/// surface delegating to [`Fib`] or [`HierFib`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FibTable {
    /// The dense `(source, destination)`-indexed table.
    Dense(Fib),
    /// The hierarchical digit-structured table.
    Hier(HierFib),
}

impl FibTable {
    /// Compiles `topo` with `strategy` into the requested layout.
    ///
    /// # Errors
    ///
    /// Same as [`FibCompiler::compile`] / [`FibCompiler::compile_hier`].
    pub fn compile(
        strategy: PermStrategy,
        layout: FibLayout,
        topo: &Abccc,
    ) -> Result<FibTable, FibError> {
        let compiler = FibCompiler::new(strategy);
        Ok(match layout {
            FibLayout::Dense => FibTable::Dense(compiler.compile(topo)?),
            FibLayout::Hier => FibTable::Hier(compiler.compile_hier(topo)?),
        })
    }

    /// The layout this table is stored in.
    pub fn layout(&self) -> FibLayout {
        match self {
            FibTable::Dense(_) => FibLayout::Dense,
            FibTable::Hier(_) => FibLayout::Hier,
        }
    }

    /// The strategy the table was compiled from.
    pub fn strategy(&self) -> PermStrategy {
        match self {
            FibTable::Dense(f) => f.strategy(),
            FibTable::Hier(f) => f.strategy(),
        }
    }

    /// The parameters of the topology the table was compiled for.
    pub fn params(&self) -> &AbcccParams {
        match self {
            FibTable::Dense(f) => f.params(),
            FibTable::Hier(f) => f.params(),
        }
    }

    /// Number of servers the table covers.
    pub fn servers(&self) -> u32 {
        match self {
            FibTable::Dense(f) => f.servers(),
            FibTable::Hier(f) => f.servers(),
        }
    }

    /// Table size in bytes (entries only).
    pub fn bytes(&self) -> usize {
        match self {
            FibTable::Dense(f) => f.bytes(),
            FibTable::Hier(f) => f.bytes(),
        }
    }

    /// The walk-length bound: most nodes any strategy's route can hold.
    pub(crate) fn max_nodes(&self) -> usize {
        let bound = match self {
            FibTable::Dense(f) => f.max_nodes(),
            FibTable::Hier(f) => f.max_nodes(),
        };
        bound as usize
    }

    /// The `(server port, switch port)` pair for a hop, or `None` on the
    /// diagonal.
    pub fn ports(&self, at: NodeId, toward: NodeId) -> Option<(u16, u16)> {
        match self {
            FibTable::Dense(f) => f.ports(at, toward),
            FibTable::Hier(f) => f.ports(at, toward),
        }
    }

    /// Walks the table from `src` to `dst`, appending the full node
    /// sequence to `nodes`. See [`Fib::walk_into`].
    pub fn walk_into(&self, net: &Network, src: NodeId, dst: NodeId, nodes: &mut Vec<NodeId>) {
        match self {
            FibTable::Dense(f) => f.walk_into(net, src, dst, nodes),
            FibTable::Hier(f) => f.walk_into(net, src, dst, nodes),
        }
    }

    /// The compiled route `src → dst` as a [`Route`].
    pub fn route(&self, net: &Network, src: NodeId, dst: NodeId) -> Route {
        match self {
            FibTable::Dense(f) => f.route(net, src, dst),
            FibTable::Hier(f) => f.route(net, src, dst),
        }
    }

    /// Walks `src → dst` under a fault mask, reporting whether every
    /// traversed element is alive. See [`Fib::walk_live_into`].
    pub fn walk_live_into(
        &self,
        net: &Network,
        mask: &FaultMask,
        src: NodeId,
        dst: NodeId,
        nodes: &mut Vec<NodeId>,
    ) -> bool {
        match self {
            FibTable::Dense(f) => f.walk_live_into(net, mask, src, dst, nodes),
            FibTable::Hier(f) => f.walk_live_into(net, mask, src, dst, nodes),
        }
    }
}

impl From<Fib> for FibTable {
    fn from(f: Fib) -> FibTable {
        FibTable::Dense(f)
    }
}

impl From<HierFib> for FibTable {
    fn from(f: HierFib) -> FibTable {
        FibTable::Hier(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_labels_roundtrip() {
        for layout in [FibLayout::Dense, FibLayout::Hier] {
            assert_eq!(FibLayout::parse(layout.label()), Some(layout));
            assert_eq!(layout.to_string(), layout.label());
        }
        assert_eq!(FibLayout::parse("sparse"), None);
    }
}
