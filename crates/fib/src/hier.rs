//! The compiled forwarding table: digit-structured per-server tables.
//!
//! A flat table with one packed entry per `(source, destination)` pair
//! needs `4·N²` bytes — an O(V²) wall long before the million-server
//! instances the ABCCC paper is about (10⁵ servers ⇒ 40 GB of table). But
//! such entries are massively redundant: by the suffix property, the next
//! hop out of a server depends only on (a) the *first* level its strategy
//! would correct and (b) which digit the destination holds at that level
//! — never on the full destination identity. [`HierFib`] stores exactly
//! that factorization:
//!
//! * per server, the egress port toward each *owned level switch* and
//!   toward its group crossbar (`O(V·levels)` entries);
//! * per level switch, the egress port toward the member holding each
//!   digit (`O(level-switch ports)` = one entry per level cable);
//! * per crossbar, the egress port toward each group position (one entry
//!   per crossbar cable).
//!
//! Total: `O(V·levels + E)` 16-bit entries — megabytes where the flat
//! table needs tens of gigabytes. The unit tests check its ports against
//! an oracle built on [`PermStrategy::order`], and its walks against
//! [`DigitRouter::route_addrs`](abccc::DigitRouter::route_addrs), for
//! every deterministic strategy.
//!
//! A walk decodes its endpoints once, into the destination's digits and a
//! bitmask of the levels where the two labels differ. Each hop then picks
//! its level with [`PermStrategy::first_of`] (the selection
//! [`PermStrategy::first`] makes too) from the mask and the current group
//! position, reads the switch it reaches as its own row index (a level
//! switch's id minus the first level switch's, a crossbar's id minus the
//! server count), and clears that level's bit or moves to the new
//! position. So a hop touches two `u16` cells and divides nothing; the
//! decode's O(levels) divisions are paid once per walk. [`HierFib::ports`]
//! answers one hop from the same decode.
//!
//! Port tables are filled by decoding the network's actual adjacency
//! lists (O(E) compile), not by assuming the generator's emission order —
//! if the builder ever reordered cables, compilation would still be
//! correct and the bit-equivalence tests would still pass.

use crate::compile::FibError;
use abccc::{Abccc, AbcccParams, CubeLabel, PermStrategy, ServerAddr, SwitchAddr};
use netgraph::{FaultMask, Network, NodeId, Route, Topology};

/// Sentinel for port cells no valid lookup dereferences (e.g. the
/// level-switch slot of a level the server does not own).
const NO_PORT: u16 = u16::MAX;

/// A compiled forwarding table: per-server, per-level digit sub-tables at
/// `O(V·levels + E)` memory, immutable and shareable across any number of
/// query threads without locks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierFib {
    strategy: PermStrategy,
    params: AbcccParams,
    servers: u32,
    max_nodes: u32,
    /// `params`' digit base, group size and level count, decoded once.
    n: u32,
    m: u32,
    levels: u32,
    /// Node id of the first level switch (servers + crossbars): a level
    /// switch's compact index is its id minus this.
    first_level_switch: u32,
    /// `owner[i]`: the group position that owns level `i`.
    owner: [u8; 32],
    /// Egress port of server `u` toward its group crossbar; empty when
    /// `m == 1` (the BCube endpoint has no crossbars).
    crossbar_sport: Vec<u16>,
    /// Egress port of server `u` toward the switch of level `i`:
    /// `[u · levels + i]`, [`NO_PORT`] where `u`'s position does not own
    /// level `i`.
    level_sport: Vec<u16>,
    /// Egress port of crossbar `x` toward group member `j`:
    /// `[x · m + j]`; empty when `m == 1`.
    crossbar_wport: Vec<u16>,
    /// Egress port of the level switch with compact index `s` toward the
    /// member whose level digit is `d`: `[s · n + d]` (the compact index
    /// is `level · rest_space + rest`, i.e. the switch's node id minus
    /// servers and crossbars).
    level_wport: Vec<u16>,
}

/// Compiles the table for `topo` by decoding its adjacency lists — O(E)
/// work, no per-destination sweep — under the `fib.compile` span, and
/// records `fib.compiles` and `fib.table_bytes`.
pub(crate) fn compile(strategy: PermStrategy, topo: &Abccc) -> Result<HierFib, FibError> {
    let _span = dcn_telemetry::span!("fib.compile");
    if let PermStrategy::Random(_) = strategy {
        return Err(FibError::UnsupportedStrategy {
            strategy: strategy.label(),
        });
    }
    let net = topo.network();
    for node in net.node_ids() {
        if net.degree(node) > usize::from(NO_PORT) {
            return Err(FibError::PortOverflow {
                node,
                degree: net.degree(node),
            });
        }
    }

    let p = *topo.params();
    let servers = p.server_count() as usize;
    let levels = p.levels() as usize;
    let m = p.group_size() as usize;
    let n = p.n() as usize;
    let crossbars = p.crossbar_count() as usize;
    let has_crossbars = m > 1;

    let mut crossbar_sport = vec![NO_PORT; if has_crossbars { servers } else { 0 }];
    let mut level_sport = vec![NO_PORT; servers * levels];
    let mut crossbar_wport = vec![NO_PORT; if has_crossbars { crossbars * m } else { 0 }];
    let mut level_wport = vec![NO_PORT; (p.level_switch_count() as usize) * n];

    // Server side: which port leads to the crossbar / each owned level.
    for u in 0..servers {
        let id = NodeId(u as u32);
        for (port, &(nb, _)) in net.neighbors(id).iter().enumerate() {
            match SwitchAddr::from_node_id(&p, nb) {
                SwitchAddr::Crossbar(_) => crossbar_sport[u] = port as u16,
                SwitchAddr::Level { level, .. } => {
                    level_sport[u * levels + level as usize] = port as u16;
                }
            }
        }
    }
    // Switch side: which port leads to each member / digit.
    for sw in 0..net.switch_count() {
        let id = NodeId((servers + sw) as u32);
        match SwitchAddr::from_node_id(&p, id) {
            SwitchAddr::Crossbar(label) => {
                let base = label.0 as usize * m;
                for (port, &(nb, _)) in net.neighbors(id).iter().enumerate() {
                    let member = ServerAddr::from_node_id(&p, nb);
                    debug_assert_eq!(member.label, label, "crossbar member label");
                    crossbar_wport[base + member.pos as usize] = port as u16;
                }
            }
            SwitchAddr::Level { level, .. } => {
                let base = (sw - crossbars) * n;
                for (port, &(nb, _)) in net.neighbors(id).iter().enumerate() {
                    let member = ServerAddr::from_node_id(&p, nb);
                    let d = member.label.digit(&p, level) as usize;
                    level_wport[base + d] = port as u16;
                }
            }
        }
    }

    let mut owner = [0u8; 32];
    for level in 0..p.levels() {
        owner[level as usize] = p.owner(level) as u8;
    }
    let fib = HierFib {
        strategy,
        params: p,
        servers: servers as u32,
        // Worst-case node count of any strategy's route: 4 nodes per
        // corrected level plus the final crossbar pair plus the source.
        max_nodes: 4 * p.levels() + 3,
        n: p.n(),
        m: p.group_size(),
        levels: p.levels(),
        first_level_switch: (servers + crossbars) as u32,
        owner,
        crossbar_sport,
        level_sport,
        crossbar_wport,
        level_wport,
    };
    dcn_telemetry::counter!("fib.compiles").inc();
    dcn_telemetry::gauge!("fib.table_bytes").set(fib.bytes() as i64);
    Ok(fib)
}

impl HierFib {
    /// The strategy the table was compiled from.
    pub fn strategy(&self) -> PermStrategy {
        self.strategy
    }

    /// The parameters of the topology the table was compiled for.
    pub fn params(&self) -> &AbcccParams {
        &self.params
    }

    /// Number of servers the table covers.
    pub fn servers(&self) -> u32 {
        self.servers
    }

    /// The walk-length bound: most nodes any strategy's route can hold.
    pub(crate) fn max_nodes(&self) -> u32 {
        self.max_nodes
    }

    /// Table size in bytes (port cells only).
    pub fn bytes(&self) -> usize {
        (self.crossbar_sport.len()
            + self.level_sport.len()
            + self.crossbar_wport.len()
            + self.level_wport.len())
            * std::mem::size_of::<u16>()
    }

    /// The `(server port, switch port)` pair for the hop out of `at`
    /// toward `toward`, or `None` on the diagonal.
    pub fn ports(&self, at: NodeId, toward: NodeId) -> Option<(u16, u16)> {
        let w = self.start(at, toward);
        let u = at.index();
        let label = u / self.m as usize;
        Some(match self.hop(&w)? {
            Hop::Level(level) => {
                // Without the network at hand, the switch's compact index
                // comes from the label rather than from its node id.
                let p = &self.params;
                let compact = u64::from(level) * p.rest_space()
                    + CubeLabel(label as u64).rest_index(p, level);
                (
                    self.level_sport[u * self.levels as usize + level as usize],
                    self.level_wport
                        [compact as usize * self.n as usize + w.digits[level as usize] as usize],
                )
            }
            Hop::Crossbar(target) => (
                self.crossbar_sport[u],
                self.crossbar_wport[label * self.m as usize + target as usize],
            ),
        })
    }

    /// Decodes a walk's endpoints once: the destination's digits and the
    /// levels where the two labels differ.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is not a server.
    fn start(&self, src: NodeId, dst: NodeId) -> Walk {
        assert!(
            src.0 < self.servers && dst.0 < self.servers,
            "fib walk {src}->{dst}: both endpoints must be servers"
        );
        let (n, m) = (self.n, self.m);
        let (mut a, mut b) = (src.0 / m, dst.0 / m);
        let mut w = Walk {
            mask: 0,
            pos: src.0 % m,
            dst_pos: dst.0 % m,
            digits: [0; 32],
        };
        for level in 0..self.levels {
            let d = b % n;
            if a % n != d {
                w.mask |= 1 << level;
            }
            w.digits[level as usize] = d;
            a /= n;
            b /= n;
        }
        w
    }

    /// The next hop of `w`, or `None` once it stands on the destination.
    #[inline]
    fn hop(&self, w: &Walk) -> Option<Hop> {
        if w.mask == 0 {
            // Same label, different position: one crossbar hop finishes.
            return (w.pos != w.dst_pos).then_some(Hop::Crossbar(w.dst_pos));
        }
        let owner = |level: u32| u32::from(self.owner[level as usize]);
        let level = self
            .strategy
            .first_of(w.mask, self.m, w.pos, w.dst_pos, owner);
        Some(if owner(level) == w.pos {
            // Correct the digit through the owned level switch.
            Hop::Level(level)
        } else {
            // Reach the owner through the group crossbar first.
            Hop::Crossbar(owner(level))
        })
    }

    /// The one table walk: appends `src → dst` to `nodes` and reports
    /// whether every traversed element is alive under `mask` (always
    /// `true` without one). Each hop reads the switch it reached, so no
    /// hop divides.
    #[inline]
    fn walk(
        &self,
        net: &Network,
        mask: Option<&FaultMask>,
        src: NodeId,
        dst: NodeId,
        nodes: &mut Vec<NodeId>,
    ) -> bool {
        let mut w = self.start(src, dst);
        let mut alive = mask.is_none_or(|f| f.node_alive(src));
        nodes.push(src);
        let mut cur = src;
        while let Some(hop) = self.hop(&w) {
            // The switch's port row is its node id minus its table's first
            // id; the column is the digit to set or the position to reach.
            let (sport, first_id, row_len, col, wports) = match hop {
                Hop::Level(level) => {
                    w.mask &= !(1 << level);
                    (
                        self.level_sport[cur.index() * self.levels as usize + level as usize],
                        self.first_level_switch,
                        self.n,
                        w.digits[level as usize],
                        &self.level_wport,
                    )
                }
                Hop::Crossbar(target) => {
                    w.pos = target;
                    (
                        self.crossbar_sport[cur.index()],
                        self.servers,
                        self.m,
                        target,
                        &self.crossbar_wport,
                    )
                }
            };
            let (via, l1) = net.neighbors(cur)[usize::from(sport)];
            let wport = wports[(via.0 - first_id) as usize * row_len as usize + col as usize];
            let (next, l2) = net.neighbors(via)[usize::from(wport)];
            if let Some(f) = mask {
                alive = alive
                    && f.link_alive(l1)
                    && f.node_alive(via)
                    && f.link_alive(l2)
                    && f.node_alive(next);
            }
            nodes.push(via);
            nodes.push(next);
            cur = next;
        }
        assert!(
            cur == dst,
            "fib walk {src}->{dst} ended at {cur} — corrupt table"
        );
        alive
    }

    /// Walks the table from `src` to `dst`, appending the full node
    /// sequence (servers and switches, `src` included) to `nodes`.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is not a server, or — the corruption guard —
    /// if the walk does not end at `dst`.
    pub fn walk_into(&self, net: &Network, src: NodeId, dst: NodeId, nodes: &mut Vec<NodeId>) {
        self.walk(net, None, src, dst, nodes);
    }

    /// The compiled route `src → dst` as a [`Route`].
    pub fn route(&self, net: &Network, src: NodeId, dst: NodeId) -> Route {
        let mut nodes = Vec::with_capacity(self.max_nodes as usize);
        self.walk_into(net, src, dst, &mut nodes);
        Route::new(nodes)
    }

    /// Walks `src → dst` under a fault mask, appending to `nodes` and
    /// reporting whether every traversed node and link is alive — the
    /// hot-path equivalent of `Route::validate(net, Some(mask))` for a
    /// structurally valid table walk.
    pub fn walk_live_into(
        &self,
        net: &Network,
        mask: &FaultMask,
        src: NodeId,
        dst: NodeId,
        nodes: &mut Vec<NodeId>,
    ) -> bool {
        self.walk(net, Some(mask), src, dst, nodes)
    }
}

/// A walk in progress, in the terms [`PermStrategy::first_of`] reads.
struct Walk {
    /// Levels where the current label still differs from the
    /// destination's.
    mask: u32,
    /// The current server's group position.
    pos: u32,
    dst_pos: u32,
    /// The destination's digits, level 0 first.
    digits: [u32; 32],
}

/// One server-switch-server hop of a walk.
enum Hop {
    /// Through the owned switch of this level, correcting its digit.
    Level(u32),
    /// Through the group crossbar to this position.
    Crossbar(u32),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::FibCompiler;
    use abccc::AbcccParams;

    #[test]
    fn hier_is_at_least_10x_smaller_beyond_a_thousand_servers() {
        let t = Abccc::new(AbcccParams::new(4, 2, 2).unwrap()).unwrap(); // m=3, 192 servers
        let hier = FibCompiler::shortest().compile(&t).unwrap();
        let all_pairs = 4 * t.params().server_count() as usize * t.params().server_count() as usize;
        assert!(
            all_pairs >= 10 * hier.bytes(),
            "all-pairs {all_pairs} vs hier {}",
            hier.bytes()
        );
    }
}
