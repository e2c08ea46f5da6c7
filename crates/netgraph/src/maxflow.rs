//! Exact minimum cuts via Dinic's max-flow algorithm.
//!
//! Used for: bisection width of a server bipartition (the paper's "bisection
//! bandwidth" in links), pairwise edge connectivity, and pairwise vertex
//! connectivity / vertex-disjoint path extraction (the "multiple parallel
//! paths" property of ABCCC).

use crate::{FaultMask, Network, NodeId};

/// Effectively-infinite capacity for auxiliary arcs.
const INF: u64 = u64::MAX / 4;

/// A directed flow network for Dinic's algorithm.
///
/// Build one with [`FlowGraph::new`], add arcs, then call
/// [`FlowGraph::max_flow`]. The structure can be reused only for a single
/// max-flow computation (capacities are consumed).
#[derive(Debug, Clone)]
pub struct FlowGraph {
    // Arc i and i^1 are a forward/backward residual pair.
    to: Vec<u32>,
    cap: Vec<u64>,
    head: Vec<Vec<u32>>,
}

impl FlowGraph {
    /// Creates a flow graph with `nodes` nodes and no arcs.
    pub fn new(nodes: usize) -> Self {
        FlowGraph {
            to: Vec::new(),
            cap: Vec::new(),
            head: vec![Vec::new(); nodes],
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.head.len()
    }

    /// Adds a directed arc `u → v` with capacity `cap` and returns its arc
    /// index (the reverse residual arc is `index ^ 1`).
    pub fn add_arc(&mut self, u: usize, v: usize, cap: u64) -> usize {
        let idx = self.to.len();
        self.to.push(v as u32);
        self.cap.push(cap);
        self.head[u].push(idx as u32);
        self.to.push(u as u32);
        self.cap.push(0);
        self.head[v].push(idx as u32 + 1);
        idx
    }

    /// Flow currently pushed along arc `idx` (readable after `max_flow`).
    pub fn flow_on(&self, idx: usize) -> u64 {
        self.cap[idx ^ 1]
    }

    /// Total number of arcs (forward and residual).
    pub fn arc_count(&self) -> usize {
        self.to.len()
    }

    /// The head (target node) of arc `idx`.
    pub fn arc_head(&self, idx: usize) -> usize {
        self.to[idx] as usize
    }

    /// Indices of the arcs leaving node `u` (forward and residual).
    pub fn out_arcs(&self, u: usize) -> &[u32] {
        &self.head[u]
    }

    fn bfs_levels(&self, s: usize, t: usize) -> Option<Vec<i32>> {
        let mut level = vec![-1i32; self.head.len()];
        level[s] = 0;
        let mut q = std::collections::VecDeque::new();
        q.push_back(s);
        while let Some(u) = q.pop_front() {
            for &ai in &self.head[u] {
                let ai = ai as usize;
                let v = self.to[ai] as usize;
                if self.cap[ai] > 0 && level[v] < 0 {
                    level[v] = level[u] + 1;
                    q.push_back(v);
                }
            }
        }
        if level[t] < 0 {
            None
        } else {
            Some(level)
        }
    }

    fn dfs_push(
        &mut self,
        u: usize,
        t: usize,
        pushed: u64,
        level: &[i32],
        it: &mut [usize],
    ) -> u64 {
        if u == t {
            return pushed;
        }
        while it[u] < self.head[u].len() {
            let ai = self.head[u][it[u]] as usize;
            let v = self.to[ai] as usize;
            if self.cap[ai] > 0 && level[v] == level[u] + 1 {
                let d = self.dfs_push(v, t, pushed.min(self.cap[ai]), level, it);
                if d > 0 {
                    self.cap[ai] -= d;
                    self.cap[ai ^ 1] += d;
                    return d;
                }
            }
            it[u] += 1;
        }
        0
    }

    /// Computes the maximum flow from `s` to `t`.
    ///
    /// # Panics
    ///
    /// Panics if `s == t`.
    pub fn max_flow(&mut self, s: usize, t: usize) -> u64 {
        assert_ne!(s, t, "source and sink must differ");
        let mut flow = 0u64;
        while let Some(level) = self.bfs_levels(s, t) {
            let mut it = vec![0usize; self.head.len()];
            loop {
                let pushed = self.dfs_push(s, t, INF, &level, &mut it);
                if pushed == 0 {
                    break;
                }
                flow += pushed;
            }
        }
        flow
    }

    /// After `max_flow`, returns for each node whether it is on the source
    /// side of the minimum cut.
    pub fn min_cut_side(&self, s: usize) -> Vec<bool> {
        let mut side = vec![false; self.head.len()];
        side[s] = true;
        let mut q = std::collections::VecDeque::new();
        q.push_back(s);
        while let Some(u) = q.pop_front() {
            for &ai in &self.head[u] {
                let ai = ai as usize;
                let v = self.to[ai] as usize;
                if self.cap[ai] > 0 && !side[v] {
                    side[v] = true;
                    q.push_back(v);
                }
            }
        }
        side
    }
}

/// Builds a unit-capacity (per physical link) flow graph over the alive part
/// of `net`, with two extra nodes: a super-source (`node_count`) and a
/// super-sink (`node_count + 1`).
fn link_flow_graph(net: &Network, mask: Option<&FaultMask>) -> FlowGraph {
    let mut fg = FlowGraph::new(net.node_count() + 2);
    for (i, link) in net.links().iter().enumerate() {
        let alive = match mask {
            None => true,
            Some(m) => m.edge_usable(net, crate::LinkId(i as u32)),
        };
        if alive {
            // Undirected edge of capacity 1: a pair of opposite unit arcs.
            fg.add_arc(link.a.index(), link.b.index(), 1);
            fg.add_arc(link.b.index(), link.a.index(), 1);
        }
    }
    fg
}

/// The minimum number of links whose removal disconnects server set `a`
/// from server set `b` (equivalently, the max number of link-disjoint paths
/// between the sets). Switches may fall on either side of the cut.
///
/// This is the exact "bisection width" when `a`/`b` is a balanced server
/// bipartition.
///
/// # Panics
///
/// Panics if `a` or `b` is empty or if they intersect.
pub fn min_link_cut(net: &Network, a: &[NodeId], b: &[NodeId]) -> u64 {
    assert!(
        !a.is_empty() && !b.is_empty(),
        "both sides must be non-empty"
    );
    let bset: std::collections::HashSet<_> = b.iter().collect();
    assert!(
        a.iter().all(|x| !bset.contains(x)),
        "sides must be disjoint"
    );
    let mut fg = link_flow_graph(net, None);
    let s = net.node_count();
    let t = net.node_count() + 1;
    for &x in a {
        fg.add_arc(s, x.index(), INF);
    }
    for &y in b {
        fg.add_arc(y.index(), t, INF);
    }
    fg.max_flow(s, t)
}

/// Exact bisection width for the bipartition given by `side`
/// (`side[server.index()] == true` ⇒ server is in part A). Only server
/// indices are read; switches are free.
pub fn bisection_width(net: &Network, side: &[bool]) -> u64 {
    let a: Vec<NodeId> = net.server_ids().filter(|n| side[n.index()]).collect();
    let b: Vec<NodeId> = net.server_ids().filter(|n| !side[n.index()]).collect();
    min_link_cut(net, &a, &b)
}

/// Maximum number of link-disjoint paths between two servers.
pub fn edge_connectivity_pair(net: &Network, s: NodeId, t: NodeId) -> u64 {
    min_link_cut(net, &[s], &[t])
}

/// Maximum number of internally vertex-disjoint paths between servers `s`
/// and `t` (node-splitting transform; every non-terminal node, including
/// switches, has unit vertex capacity). Under `mask`, failed elements are
/// excluded.
///
/// # Panics
///
/// Panics if `s == t`.
pub fn vertex_connectivity_pair(
    net: &Network,
    s: NodeId,
    t: NodeId,
    mask: Option<&FaultMask>,
) -> u64 {
    let (mut fg, s_out, t_in) = vertex_split_graph(net, s, t, mask, INF);
    fg.max_flow(s_out, t_in)
}

/// Builds the node-split graph: node v → (v_in = 2v, v_out = 2v+1) with a
/// unit internal arc (terminals and arcs get `term_cap`/INF as appropriate).
/// Returns `(graph, s_out, t_in)`.
pub(crate) fn vertex_split_graph(
    net: &Network,
    s: NodeId,
    t: NodeId,
    mask: Option<&FaultMask>,
    term_cap: u64,
) -> (FlowGraph, usize, usize) {
    assert_ne!(s, t, "endpoints must differ");
    let n = net.node_count();
    let mut fg = FlowGraph::new(2 * n);
    for v in 0..n {
        let id = NodeId(v as u32);
        let alive = mask.is_none_or(|m| m.node_alive(id));
        if !alive {
            continue;
        }
        let cap = if id == s || id == t { term_cap } else { 1 };
        fg.add_arc(2 * v, 2 * v + 1, cap);
    }
    for (i, link) in net.links().iter().enumerate() {
        let usable = mask.is_none_or(|m| m.edge_usable(net, crate::LinkId(i as u32)));
        if usable {
            fg.add_arc(2 * link.a.index() + 1, 2 * link.b.index(), 1);
            fg.add_arc(2 * link.b.index() + 1, 2 * link.a.index(), 1);
        }
    }
    (fg, 2 * s.index() + 1, 2 * t.index())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Network;

    #[test]
    fn unit_square_flow() {
        // s0 - s1
        //  |    |
        // s2 - s3   : two link-disjoint paths s0→s3
        let mut net = Network::new();
        let n: Vec<_> = (0..4).map(|_| net.add_server()).collect();
        net.add_link(n[0], n[1], 1.0);
        net.add_link(n[0], n[2], 1.0);
        net.add_link(n[1], n[3], 1.0);
        net.add_link(n[2], n[3], 1.0);
        assert_eq!(edge_connectivity_pair(&net, n[0], n[3]), 2);
        assert_eq!(vertex_connectivity_pair(&net, n[0], n[3], None), 2);
    }

    #[test]
    fn vertex_cut_tighter_than_edge_cut() {
        // Two triangles sharing a cut vertex m: edge connectivity 2, vertex 1.
        let mut net = Network::new();
        let a = net.add_server();
        let b = net.add_server();
        let m = net.add_server();
        let c = net.add_server();
        let d = net.add_server();
        net.add_link(a, b, 1.0);
        net.add_link(a, m, 1.0);
        net.add_link(b, m, 1.0);
        net.add_link(m, c, 1.0);
        net.add_link(m, d, 1.0);
        net.add_link(c, d, 1.0);
        assert_eq!(edge_connectivity_pair(&net, a, c), 2);
        assert_eq!(vertex_connectivity_pair(&net, a, c, None), 1);
    }

    #[test]
    fn star_bisection_width_is_half() {
        let mut net = Network::new();
        let servers: Vec<_> = (0..6).map(|_| net.add_server()).collect();
        let sw = net.add_switch();
        for &s in &servers {
            net.add_link(s, sw, 1.0);
        }
        let mut side = vec![false; net.node_count()];
        for s in &servers[..3] {
            side[s.index()] = true;
        }
        // Cheapest cut: sever the 3 links of one half.
        assert_eq!(bisection_width(&net, &side), 3);
    }

    #[test]
    fn mask_reduces_connectivity() {
        let mut net = Network::new();
        let n: Vec<_> = (0..4).map(|_| net.add_server()).collect();
        net.add_link(n[0], n[1], 1.0);
        net.add_link(n[0], n[2], 1.0);
        net.add_link(n[1], n[3], 1.0);
        net.add_link(n[2], n[3], 1.0);
        let mut mask = crate::FaultMask::new(&net);
        mask.fail_node(n[1]);
        assert_eq!(vertex_connectivity_pair(&net, n[0], n[3], Some(&mask)), 1);
    }

    #[test]
    fn min_cut_side_separates() {
        let mut fg = FlowGraph::new(4);
        fg.add_arc(0, 1, 3);
        fg.add_arc(1, 2, 1); // bottleneck
        fg.add_arc(2, 3, 3);
        assert_eq!(fg.max_flow(0, 3), 1);
        let side = fg.min_cut_side(0);
        assert!(side[0] && side[1] && !side[2] && !side[3]);
    }

    #[test]
    #[should_panic(expected = "must be non-empty")]
    fn empty_side_panics() {
        let mut net = Network::new();
        let a = net.add_server();
        let b = net.add_server();
        net.add_link(a, b, 1.0);
        min_link_cut(&net, &[], &[b]);
    }
}
