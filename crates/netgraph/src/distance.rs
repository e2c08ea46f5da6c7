//! The all-pairs server-hop distance engine.
//!
//! [`DistanceEngine`] runs 0–1 BFS (see [`crate::bfs`] for the metric) from
//! every server over the CSR adjacency with three structural optimizations
//! over naive per-source sweeps:
//!
//! * **Reusable scratch** ([`BfsScratch`]): distance/parent/queue buffers
//!   are allocated once per worker thread and reset with `fill`, so a
//!   source costs zero allocations.
//! * **Work stealing**: sources are spread over worker threads by
//!   [`crate::par::map_indexed`].
//! * **Fused accumulation**: diameter, average path length, the
//!   eccentricity histogram and (optionally) per-link shortest-path load
//!   are all folded into per-thread accumulators during the *same* sweep
//!   and merged at the end, where the seed implementation ran one full
//!   all-pairs sweep per metric.
//!
//! Per-link load counts, for every ordered server pair `(s, t)`, the links
//! of the *canonical* shortest path — the one [`crate::bfs::shortest_path`]
//! returns — so the engine's load vector matches routing every pair
//! individually, at a fraction of the cost (subtree counts over the BFS
//! parent tree instead of per-pair path walks).

use crate::{Network, NodeId};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};

/// Unreachable marker, identical to [`crate::bfs::UNREACHABLE`].
pub const UNREACHABLE: u32 = u32::MAX;

/// Reusable per-thread buffers for single-source 0–1 BFS.
///
/// Create once (per thread), pass to every
/// [`DistanceEngine::distances_into`] call; nothing allocates after the
/// first use on a given network size.
#[derive(Debug, Default)]
pub struct BfsScratch {
    /// Distance per node, [`UNREACHABLE`] where not reached.
    pub dist: Vec<u32>,
    /// BFS deque (0-weight edges go to the front, 1-weight to the back).
    deque: VecDeque<u32>,
    /// Parent node per node (`u32::MAX` = none/root).
    parent: Vec<u32>,
    /// Link to parent per node (`u32::MAX` = none/root).
    parent_link: Vec<u32>,
    /// Nodes in parent-tree BFS order (parents before children).
    order: Vec<u32>,
    /// Child-list heads / next pointers for the parent tree (index = node).
    child_head: Vec<u32>,
    child_next: Vec<u32>,
    /// Servers in the parent-tree subtree rooted at each node.
    subtree: Vec<u64>,
}

impl BfsScratch {
    /// Creates scratch sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn reset_dist(&mut self, n: usize) {
        if self.dist.len() != n {
            self.dist = vec![UNREACHABLE; n];
        } else {
            self.dist.fill(UNREACHABLE);
        }
        self.deque.clear();
    }

    fn reset_parents(&mut self, n: usize) {
        for v in [&mut self.parent, &mut self.parent_link] {
            if v.len() != n {
                *v = vec![u32::MAX; n];
            } else {
                v.fill(u32::MAX);
            }
        }
    }
}

/// Everything one fused all-pairs sweep produces.
#[derive(Debug, Clone, PartialEq)]
pub struct AllPairsStats {
    /// Exact diameter in server hops (max eccentricity).
    pub diameter: u32,
    /// Exact average server-hop path length over ordered server pairs.
    pub avg_path_length: f64,
    /// `ecc_histogram[e]` = number of servers with eccentricity `e`.
    pub ecc_histogram: Vec<u64>,
    /// Per-link traversal count over canonical shortest paths of all
    /// ordered server pairs; empty unless requested via
    /// [`DistanceEngine::all_pairs_with_load`].
    pub link_load: Vec<u64>,
}

/// What one single-source sweep contributes to the all-pairs statistics:
/// the source's eccentricity and its distance sum over every server.
///
/// This is exactly the per-source fold of the all-pairs sweep, exposed so
/// samplers ([`crate::sample`]) reuse the engine's traversal and
/// accumulation instead of duplicating them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceStats {
    /// Max server-hop distance from the source to any server.
    pub ecc: u32,
    /// Sum of server-hop distances from the source to every server.
    pub dist_sum: u64,
}

/// Folds the distances of one finished search over `servers`; `None` if
/// any of them is unreachable. Shared verbatim by the all-pairs
/// accumulator and [`DistanceEngine::source_stats_into`], so both agree
/// bit for bit.
fn fold_servers(
    scratch: &BfsScratch,
    servers: impl IntoIterator<Item = NodeId>,
) -> Option<SourceStats> {
    let mut ecc = 0u32;
    let mut dist_sum = 0u64;
    for t in servers {
        let d = scratch.dist[t.index()];
        if d == UNREACHABLE {
            return None;
        }
        ecc = ecc.max(d);
        dist_sum += u64::from(d);
    }
    Some(SourceStats { ecc, dist_sum })
}

/// All-pairs server-hop BFS driver over a [`Network`]'s CSR adjacency.
pub struct DistanceEngine<'a> {
    net: &'a Network,
    /// Flat per-node server flags: one cache-friendly byte per node in the
    /// BFS inner loop, instead of a `NodeKind` enum comparison per edge.
    is_server: Vec<bool>,
}

impl<'a> DistanceEngine<'a> {
    /// Creates an engine for `net`, building the CSR if needed.
    pub fn new(net: &'a Network) -> Self {
        net.csr(); // materialize before threads race on the OnceLock
        let is_server = net.node_ids().map(|v| net.is_server(v)).collect();
        DistanceEngine { net, is_server }
    }

    /// Single-source server-hop distances into reusable scratch.
    ///
    /// Equivalent to [`crate::bfs::server_hop_distances`] without a fault
    /// mask (identical relaxation order, hence identical distances), but
    /// allocation-free after the first call: read `scratch.dist` afterward.
    pub fn distances_into(&self, src: NodeId, scratch: &mut BfsScratch) {
        self.search(src, scratch, false);
    }

    /// One source's contribution to the all-pairs statistics — its
    /// eccentricity and distance sum over every server — using the same
    /// traversal and the same fold as [`DistanceEngine::all_pairs`].
    ///
    /// Returns `None` if some server is unreachable from `src`. This is
    /// the building block of the sampled estimators in [`crate::sample`]:
    /// `samples == server_count` recovers the exact sweep's inputs.
    pub fn source_stats_into(&self, src: NodeId, scratch: &mut BfsScratch) -> Option<SourceStats> {
        self.search(src, scratch, false);
        fold_servers(scratch, self.net.server_ids())
    }

    /// The fused sweep: diameter, average path length and eccentricity
    /// histogram in one parallel pass. `None` if fewer than two servers or
    /// some server pair is disconnected.
    pub fn all_pairs(&self) -> Option<AllPairsStats> {
        self.sweep(false)
    }

    /// [`DistanceEngine::all_pairs`] plus per-link canonical shortest-path
    /// load, still in a single pass.
    pub fn all_pairs_with_load(&self) -> Option<AllPairsStats> {
        self.sweep(true)
    }

    /// Core 0–1 BFS. Matches `bfs::server_hop_search` relaxation order
    /// exactly (CSR preserves per-node insertion order), so parent trees —
    /// and therefore canonical shortest paths — are identical.
    fn search(&self, src: NodeId, scratch: &mut BfsScratch, track_parents: bool) {
        let csr = self.net.csr();
        let n = self.net.node_count();
        scratch.reset_dist(n);
        if track_parents {
            scratch.reset_parents(n);
        }
        scratch.dist[src.index()] = 0;
        scratch.deque.push_back(src.0);
        while let Some(u) = scratch.deque.pop_front() {
            let du = scratch.dist[u as usize];
            for &(v, l) in csr.neighbors(NodeId(u)) {
                let w = u32::from(self.is_server[v.index()]);
                let nd = du + w;
                if nd < scratch.dist[v.index()] {
                    scratch.dist[v.index()] = nd;
                    if track_parents {
                        scratch.parent[v.index()] = u;
                        scratch.parent_link[v.index()] = l.0;
                    }
                    if w == 0 {
                        scratch.deque.push_front(v.0);
                    } else {
                        scratch.deque.push_back(v.0);
                    }
                }
            }
        }
    }

    fn sweep(&self, with_load: bool) -> Option<AllPairsStats> {
        let _sweep_span = dcn_telemetry::span!("netgraph.distance.all_pairs");
        dcn_telemetry::counter!("netgraph.distance.sweeps").inc();
        let net = self.net;
        let servers: Vec<NodeId> = net.server_ids().collect();
        let n_servers = servers.len();
        if n_servers < 2 {
            return None;
        }
        let disconnected = AtomicBool::new(false);
        let servers = &servers[..];
        let (_, workers) = crate::par::map_indexed(
            n_servers,
            0,
            || Worker {
                _span: dcn_telemetry::span!("netgraph.distance.worker"),
                scratch: BfsScratch::new(),
                acc: ThreadAcc::new(with_load, net.link_count()),
                sources: 0,
            },
            |w, i| {
                if disconnected.load(Ordering::Relaxed) {
                    return;
                }
                w.sources += 1;
                self.search(servers[i], &mut w.scratch, with_load);
                if !w
                    .acc
                    .absorb(net, servers, servers[i], &mut w.scratch, with_load)
                {
                    disconnected.store(true, Ordering::Relaxed);
                }
            },
            |w| (w.acc, w.sources),
        );
        if disconnected.load(Ordering::Relaxed) {
            return None;
        }
        // A draw beyond the static fair share is work the cursor
        // redistributed away from a slower worker.
        let fair = (n_servers / workers.len()) as u64;
        let merged = workers
            .into_iter()
            .map(|(acc, sources)| {
                record_worker_stats(sources, sources.saturating_sub(fair));
                acc
            })
            .reduce(ThreadAcc::merge)
            .expect("at least two servers, so at least one worker");
        Some(merged.finish(n_servers))
    }
}

/// One sweep worker's state: its span, reusable BFS buffers, fused
/// accumulator and how many sources it claimed.
struct Worker {
    _span: dcn_telemetry::SpanGuard,
    scratch: BfsScratch,
    acc: ThreadAcc,
    sources: u64,
}

/// Folds one finished worker's load-balance telemetry into the global
/// registry: total sources processed, the per-thread distribution (its
/// spread is the load-imbalance signal) and how many draws exceeded the
/// thread's static fair share (work stealing in action).
fn record_worker_stats(sources: u64, steals: u64) {
    if !dcn_telemetry::enabled() {
        return;
    }
    dcn_telemetry::counter!("netgraph.distance.sources").add(sources);
    dcn_telemetry::counter!("netgraph.distance.steals").add(steals);
    dcn_telemetry::histogram!("netgraph.distance.sources_per_thread").record(sources);
}

/// Per-thread fused accumulator: merges are sums and maxes, so combining
/// them in any order yields the same totals — results are deterministic
/// despite work stealing.
struct ThreadAcc {
    max_ecc: u32,
    dist_sum: u64,
    ecc_hist: Vec<u64>,
    link_load: Vec<u64>,
}

impl ThreadAcc {
    fn new(with_load: bool, link_count: usize) -> Self {
        ThreadAcc {
            max_ecc: 0,
            dist_sum: 0,
            ecc_hist: Vec::new(),
            link_load: if with_load {
                vec![0; link_count]
            } else {
                Vec::new()
            },
        }
    }

    /// Folds one finished source into the accumulator; `false` means some
    /// server was unreachable and the sweep must abort.
    fn absorb(
        &mut self,
        net: &Network,
        servers: &[NodeId],
        src: NodeId,
        scratch: &mut BfsScratch,
        with_load: bool,
    ) -> bool {
        let Some(stats) = fold_servers(scratch, servers.iter().copied()) else {
            return false;
        };
        let ecc = stats.ecc;
        self.max_ecc = self.max_ecc.max(ecc);
        self.dist_sum += stats.dist_sum;
        if self.ecc_hist.len() <= ecc as usize {
            self.ecc_hist.resize(ecc as usize + 1, 0);
        }
        self.ecc_hist[ecc as usize] += 1;
        if with_load {
            accumulate_tree_load(net, scratch, src, &mut self.link_load);
        }
        true
    }

    fn finish(self, n_servers: usize) -> AllPairsStats {
        let pairs = n_servers as f64 * (n_servers as f64 - 1.0);
        AllPairsStats {
            diameter: self.max_ecc,
            avg_path_length: self.dist_sum as f64 / pairs,
            ecc_histogram: self.ecc_hist,
            link_load: self.link_load,
        }
    }

    fn merge(mut self, other: ThreadAcc) -> ThreadAcc {
        self.max_ecc = self.max_ecc.max(other.max_ecc);
        self.dist_sum += other.dist_sum;
        if self.ecc_hist.len() < other.ecc_hist.len() {
            self.ecc_hist.resize(other.ecc_hist.len(), 0);
        }
        for (a, b) in self.ecc_hist.iter_mut().zip(&other.ecc_hist) {
            *a += b;
        }
        for (a, b) in self.link_load.iter_mut().zip(&other.link_load) {
            *a += b;
        }
        self
    }
}

/// Adds, for every server `t` reached by the last search in `scratch`, one
/// traversal to each link on the parent-tree path root→`t`.
///
/// Instead of walking each path (O(servers × path length)), count servers
/// per subtree: a tree edge is traversed once per server strictly below
/// it. The parent tree is re-walked in BFS order (children found via
/// head/next lists built by one backward pass), then subtree counts flow
/// leaf→root in reverse order — O(nodes) total per source.
fn accumulate_tree_load(net: &Network, scratch: &mut BfsScratch, src: NodeId, load: &mut [u64]) {
    let n = net.node_count();
    for v in [&mut scratch.child_head, &mut scratch.child_next] {
        if v.len() != n {
            *v = vec![u32::MAX; n];
        } else {
            v.fill(u32::MAX);
        }
    }
    if scratch.subtree.len() != n {
        scratch.subtree = vec![0; n];
    } else {
        scratch.subtree.fill(0);
    }
    for v in 0..n as u32 {
        let p = scratch.parent[v as usize];
        if p != u32::MAX {
            scratch.child_next[v as usize] = scratch.child_head[p as usize];
            scratch.child_head[p as usize] = v;
        }
    }
    // Parents precede children in `order` regardless of 0-weight chains
    // (which break `dist`-based ordering).
    scratch.order.clear();
    scratch.order.push(src.0);
    let mut head = 0;
    while head < scratch.order.len() {
        let u = scratch.order[head];
        head += 1;
        let mut c = scratch.child_head[u as usize];
        while c != u32::MAX {
            scratch.order.push(c);
            c = scratch.child_next[c as usize];
        }
    }
    for &v in scratch.order.iter().rev() {
        let own = u64::from(net.is_server(NodeId(v)) && scratch.dist[v as usize] > 0);
        let total = scratch.subtree[v as usize] + own;
        let p = scratch.parent[v as usize];
        if p != u32::MAX {
            scratch.subtree[p as usize] += total;
            if total > 0 {
                load[scratch.parent_link[v as usize] as usize] += total;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs;
    use crate::Network;

    /// Two switch stars bridged by a server: (s0,s1)-swA-(b)-swB-(s2,s3).
    fn dumbbell() -> (Network, Vec<NodeId>) {
        let mut net = Network::new();
        let s0 = net.add_server();
        let s1 = net.add_server();
        let b = net.add_server();
        let s2 = net.add_server();
        let s3 = net.add_server();
        let swa = net.add_switch();
        let swb = net.add_switch();
        for &s in &[s0, s1, b] {
            net.add_link(s, swa, 1.0);
        }
        for &s in &[b, s2, s3] {
            net.add_link(s, swb, 1.0);
        }
        (net, vec![s0, s1, b, s2, s3, swa, swb])
    }

    #[test]
    fn fused_sweep_matches_known_dumbbell_metrics() {
        let (net, _) = dumbbell();
        let stats = DistanceEngine::new(&net).all_pairs().unwrap();
        assert_eq!(stats.diameter, 2);
        assert!((stats.avg_path_length - 1.4).abs() < 1e-12);
        // b has eccentricity 1; the four outer servers have 2.
        assert_eq!(stats.ecc_histogram, vec![0, 1, 4]);
        assert!(stats.link_load.is_empty());
    }

    #[test]
    fn scratch_reuse_matches_reference_bfs() {
        let (net, nodes) = dumbbell();
        let engine = DistanceEngine::new(&net);
        let mut scratch = BfsScratch::new();
        for &src in &nodes[..5] {
            engine.distances_into(src, &mut scratch);
            assert_eq!(scratch.dist, bfs::server_hop_distances(&net, src, None));
        }
    }

    #[test]
    fn tree_load_matches_per_pair_path_walks() {
        let (net, _) = dumbbell();
        let stats = DistanceEngine::new(&net).all_pairs_with_load().unwrap();
        let mut expected = vec![0u64; net.link_count()];
        for s in net.server_ids() {
            for t in net.server_ids() {
                if s == t {
                    continue;
                }
                let path = bfs::shortest_path(&net, s, t, None).unwrap();
                for w in path.windows(2) {
                    let l = net.find_link(w[0], w[1]).unwrap();
                    expected[l.index()] += 1;
                }
            }
        }
        assert_eq!(stats.link_load, expected);
    }

    #[test]
    fn disconnected_reports_none() {
        let mut net = Network::new();
        net.add_server();
        net.add_server();
        assert!(DistanceEngine::new(&net).all_pairs().is_none());
        let single = {
            let mut n = Network::new();
            n.add_server();
            n
        };
        assert!(DistanceEngine::new(&single).all_pairs().is_none());
    }
}
