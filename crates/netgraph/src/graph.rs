//! The core [`Network`] multigraph type and its identifiers.
//!
//! Adjacency is stored in **compressed sparse row** (CSR) form: one flat
//! `offsets` array and one packed `(NodeId, LinkId)` neighbor array, plus a
//! per-node neighbor-sorted mirror for O(log degree) link lookup. The CSR
//! is (re)built lazily from the link list on first adjacency query after a
//! mutation, so builders pay for construction exactly once.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// Index of a node (server or switch) inside a [`Network`].
///
/// `NodeId`s are dense: they run from `0` to `network.node_count() - 1`.
/// By crate-wide convention every topology builder adds **all servers
/// first**, so server ids occupy `0..server_count` (see
/// [`Network::is_servers_first`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the id as a `usize` index.
    ///
    /// ```
    /// # use netgraph::NodeId;
    /// assert_eq!(NodeId(7).index(), 7);
    /// ```
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Index of an undirected physical link (cable) inside a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(pub u32);

impl LinkId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// Whether a node is a server (traffic endpoint, may forward) or a switch
/// (pure crossbar, never a traffic endpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// A commodity server with a small number of NIC ports.
    Server,
    /// A commodity off-the-shelf (COTS) switch.
    Switch,
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeKind::Server => f.write_str("server"),
            NodeKind::Switch => f.write_str("switch"),
        }
    }
}

/// An undirected physical cable between two nodes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Capacity in abstract bandwidth units (the simulators treat this as
    /// Gbit/s). Must be finite and positive.
    pub capacity: f64,
}

impl Link {
    /// Given one endpoint of the link, returns the other.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of this link.
    #[inline]
    pub fn other_end(&self, from: NodeId) -> NodeId {
        if from == self.a {
            self.b
        } else if from == self.b {
            self.a
        } else {
            panic!("{from} is not an endpoint of link {self:?}");
        }
    }
}

/// Compressed-sparse-row adjacency, derived from a [`Network`]'s link list.
///
/// `neighbors[offsets[n]..offsets[n + 1]]` are node `n`'s
/// `(neighbor, link)` pairs in link-insertion order (matching the
/// port-stability guarantee of [`Network::neighbors`]); `sorted` holds the
/// same pairs per node but ordered by `(neighbor, link)`, which makes
/// neighbor→link lookup a binary search.
#[derive(Debug, Clone)]
pub(crate) struct Csr {
    pub(crate) offsets: Vec<u32>,
    pub(crate) neighbors: Vec<(NodeId, LinkId)>,
    /// Neighbor-sorted mirror for `find_link`, built lazily: large-scale
    /// traversal (BFS, FIB compilation) never touches it, so million-server
    /// instances skip its 8 bytes per directed edge entirely.
    sorted: OnceLock<Vec<(NodeId, LinkId)>>,
}

impl Csr {
    /// Builds the CSR by counting sort over the link store: O(V + E), two
    /// streamed passes over the endpoints, no per-node allocation and no
    /// intermediate `Vec<Link>`.
    fn build(node_count: usize, store: &LinkStore) -> Csr {
        let mut offsets = vec![0u32; node_count + 1];
        store.for_each_end(&mut |a, b| {
            offsets[a.index() + 1] += 1;
            offsets[b.index() + 1] += 1;
        });
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor: Vec<u32> = offsets[..node_count].to_vec();
        let mut neighbors = vec![(NodeId(0), LinkId(0)); store.len() * 2];
        let mut next = 0u32;
        store.for_each_end(&mut |a, b| {
            let id = LinkId(next);
            next += 1;
            neighbors[cursor[a.index()] as usize] = (b, id);
            cursor[a.index()] += 1;
            neighbors[cursor[b.index()] as usize] = (a, id);
            cursor[b.index()] += 1;
        });
        Csr {
            offsets,
            neighbors,
            sorted: OnceLock::new(),
        }
    }

    /// Node `n`'s `(neighbor, link)` pairs in link-insertion order.
    #[inline]
    pub(crate) fn neighbors(&self, n: NodeId) -> &[(NodeId, LinkId)] {
        &self.neighbors[self.offsets[n.index()] as usize..self.offsets[n.index() + 1] as usize]
    }

    /// The per-node neighbor-sorted mirror, built on first lookup.
    fn sorted(&self) -> &[(NodeId, LinkId)] {
        self.sorted.get_or_init(|| {
            let mut sorted = self.neighbors.clone();
            for n in 0..self.offsets.len() - 1 {
                sorted[self.offsets[n] as usize..self.offsets[n + 1] as usize]
                    .sort_unstable_by_key(|&(nb, l)| (nb.0, l.0));
            }
            sorted
        })
    }

    /// Binary search for the lowest-id link connecting `a` to `b`.
    ///
    /// Per-node insertion order has ascending link ids, so the lowest id is
    /// exactly the first match a linear scan of [`Csr::neighbors`] would
    /// find — parallel links resolve identically either way.
    fn find_link(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        let s =
            &self.sorted()[self.offsets[a.index()] as usize..self.offsets[a.index() + 1] as usize];
        let i = s.partition_point(|&(nb, _)| nb.0 < b.0);
        match s.get(i) {
            Some(&(nb, l)) if nb == b => Some(l),
            _ => None,
        }
    }
}

/// Physical storage behind a [`Network`]'s link list.
///
/// Builder-style code appends [`Link`]s one at a time (`Explicit`); the
/// streaming constructor [`Network::from_uniform_stream`] instead keeps only
/// the packed endpoint pairs plus one shared capacity (`Uniform`) — half the
/// bytes per cable, and the only representation the million-server `scale`
/// tier ever materializes.
#[derive(Debug, Clone)]
enum LinkStore {
    /// One heterogeneous `Link` per cable, append-friendly.
    Explicit(Vec<Link>),
    /// Packed `(a, b)` endpoint pairs, all cables sharing `capacity`.
    Uniform {
        ends: Vec<(NodeId, NodeId)>,
        capacity: f64,
    },
}

impl Default for LinkStore {
    fn default() -> Self {
        LinkStore::Explicit(Vec::new())
    }
}

impl LinkStore {
    #[inline]
    fn len(&self) -> usize {
        match self {
            LinkStore::Explicit(v) => v.len(),
            LinkStore::Uniform { ends, .. } => ends.len(),
        }
    }

    #[inline]
    fn get(&self, i: usize) -> Link {
        match self {
            LinkStore::Explicit(v) => v[i],
            LinkStore::Uniform { ends, capacity } => {
                let (a, b) = ends[i];
                Link {
                    a,
                    b,
                    capacity: *capacity,
                }
            }
        }
    }

    /// Streams every `(a, b)` endpoint pair in link-id order.
    fn for_each_end(&self, f: &mut dyn FnMut(NodeId, NodeId)) {
        match self {
            LinkStore::Explicit(v) => {
                for l in v {
                    f(l.a, l.b);
                }
            }
            LinkStore::Uniform { ends, .. } => {
                for &(a, b) in ends {
                    f(a, b);
                }
            }
        }
    }
}

/// A typed multigraph of servers, switches and cables.
///
/// The structure is append-only: nodes and links can be added but never
/// removed (failures are modelled with [`crate::FaultMask`] overlays, which
/// is both cheaper and closer to how the ABCCC paper treats faults — the
/// physical topology stays, elements merely stop forwarding).
///
/// The link list is the source of truth; adjacency lives in a lazily built
/// CSR array that mutations invalidate. Traversal code therefore sees one
/// flat cache-friendly array instead of per-node heap vectors.
#[derive(Debug, Clone, Default)]
pub struct Network {
    kinds: Vec<NodeKind>,
    server_count: usize,
    store: LinkStore,
    csr: OnceLock<Csr>,
    /// Lazily materialized `Vec<Link>` view of a `Uniform` store, so the
    /// `links()` slice API keeps working for legacy callers without the
    /// scale path paying for it up front.
    flat_links: OnceLock<Vec<Link>>,
}

impl Serialize for Network {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("kinds".to_string(), self.kinds.to_value()),
            ("server_count".to_string(), self.server_count.to_value()),
            ("links".to_string(), self.links().to_vec().to_value()),
        ])
    }
}

impl Deserialize for Network {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = match v {
            serde::Value::Map(m) => m,
            _ => return Err(serde::Error::expected("Network map")),
        };
        let net = Network {
            kinds: serde::__private::field(m, "kinds")?,
            server_count: serde::__private::field(m, "server_count")?,
            store: LinkStore::Explicit(serde::__private::field(m, "links")?),
            csr: OnceLock::new(),
            flat_links: OnceLock::new(),
        };
        for l in net.links() {
            if l.a.index() >= net.kinds.len() || l.b.index() >= net.kinds.len() {
                return Err(serde::Error(format!("link endpoint out of range: {l:?}")));
            }
        }
        Ok(net)
    }
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty network with capacity hints for `nodes` nodes and
    /// `links` links.
    pub fn with_capacity(nodes: usize, links: usize) -> Self {
        Network {
            kinds: Vec::with_capacity(nodes),
            server_count: 0,
            store: LinkStore::Explicit(Vec::with_capacity(links)),
            csr: OnceLock::new(),
            flat_links: OnceLock::new(),
        }
    }

    /// Builds a network **streamed** from a cable emitter, without ever
    /// holding a `Vec<Link>`: `servers` server nodes (ids `0..servers`),
    /// then `switches` switch nodes, then every `(a, b)` cable the emitter
    /// produces, all sharing one `capacity`.
    ///
    /// The emitter receives a sink closure and calls it once per cable; link
    /// ids follow emission order exactly, so topology generators keep their
    /// port-stability guarantee. Endpoints are stored as packed pairs (8
    /// bytes per cable instead of 24) and the sorted `find_link` mirror is
    /// deferred, which is what lets the `scale` preset materialize
    /// million-server instances.
    ///
    /// `links_hint` pre-sizes the endpoint array (exact counts come free
    /// from closed forms like `AbcccParams::wire_count`; an inexact hint is
    /// only a speed matter).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not strictly positive and finite, or if the
    /// emitter produces a self-loop or an out-of-range endpoint, or if more
    /// than `u32::MAX` links or nodes are requested.
    pub fn from_uniform_stream<F>(
        servers: usize,
        switches: usize,
        links_hint: usize,
        capacity: f64,
        mut emit: F,
    ) -> Network
    where
        F: FnMut(&mut dyn FnMut(NodeId, NodeId)),
    {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "link capacity must be positive and finite, got {capacity}"
        );
        let node_count = servers + switches;
        u32::try_from(node_count).expect("more than u32::MAX nodes");
        let mut kinds = Vec::with_capacity(node_count);
        kinds.resize(servers, NodeKind::Server);
        kinds.resize(node_count, NodeKind::Switch);
        let mut ends: Vec<(NodeId, NodeId)> = Vec::with_capacity(links_hint);
        emit(&mut |a, b| {
            assert!(a.index() < node_count, "node {a} out of range");
            assert!(b.index() < node_count, "node {b} out of range");
            assert_ne!(a, b, "self-loop link at {a}");
            ends.push((a, b));
        });
        u32::try_from(ends.len()).expect("more than u32::MAX links");
        Network {
            kinds,
            server_count: servers,
            store: LinkStore::Uniform { ends, capacity },
            csr: OnceLock::new(),
            flat_links: OnceLock::new(),
        }
    }

    /// The CSR adjacency, building it if a mutation invalidated it.
    #[inline]
    pub(crate) fn csr(&self) -> &Csr {
        self.csr
            .get_or_init(|| Csr::build(self.kinds.len(), &self.store))
    }

    /// Adds a server node and returns its id.
    pub fn add_server(&mut self) -> NodeId {
        self.server_count += 1;
        self.add_node(NodeKind::Server)
    }

    /// Adds a switch node and returns its id.
    pub fn add_switch(&mut self) -> NodeId {
        self.add_node(NodeKind::Switch)
    }

    fn add_node(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(u32::try_from(self.kinds.len()).expect("more than u32::MAX nodes"));
        self.kinds.push(kind);
        self.csr.take();
        id
    }

    /// Adds an undirected link between `a` and `b` with the given capacity
    /// and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if either node id is out of range, if `a == b` (self-loop
    /// cables do not exist in a data center), or if `capacity` is not
    /// strictly positive and finite.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, capacity: f64) -> LinkId {
        assert!(a.index() < self.kinds.len(), "node {a} out of range");
        assert!(b.index() < self.kinds.len(), "node {b} out of range");
        assert_ne!(a, b, "self-loop link at {a}");
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "link capacity must be positive and finite, got {capacity}"
        );
        let links = self.links_mut();
        let id = LinkId(u32::try_from(links.len()).expect("more than u32::MAX links"));
        links.push(Link { a, b, capacity });
        self.csr.take();
        id
    }

    /// The explicit link list for mutation, converting a compact uniform
    /// store back to the append-friendly representation first.
    fn links_mut(&mut self) -> &mut Vec<Link> {
        if matches!(self.store, LinkStore::Uniform { .. }) {
            let flat = self.links().to_vec();
            self.store = LinkStore::Explicit(flat);
            self.flat_links.take();
        }
        match &mut self.store {
            LinkStore::Explicit(v) => v,
            LinkStore::Uniform { .. } => unreachable!("converted above"),
        }
    }

    /// Number of nodes (servers + switches).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// Number of server nodes.
    #[inline]
    pub fn server_count(&self) -> usize {
        self.server_count
    }

    /// Number of switch nodes.
    #[inline]
    pub fn switch_count(&self) -> usize {
        self.kinds.len() - self.server_count
    }

    /// Number of links (cables).
    #[inline]
    pub fn link_count(&self) -> usize {
        self.store.len()
    }

    /// The kind of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    #[inline]
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.kinds[n.index()]
    }

    /// `true` if `n` is a server.
    #[inline]
    pub fn is_server(&self, n: NodeId) -> bool {
        self.kind(n) == NodeKind::Server
    }

    /// The neighbors of `n` as `(neighbor, connecting link)` pairs, in
    /// insertion order (ports are therefore stable across runs).
    #[inline]
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, LinkId)] {
        self.csr().neighbors(n)
    }

    /// The degree (number of attached cables) of node `n`.
    #[inline]
    pub fn degree(&self, n: NodeId) -> usize {
        let csr = self.csr();
        (csr.offsets[n.index() + 1] - csr.offsets[n.index()]) as usize
    }

    /// The link with id `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    #[inline]
    pub fn link(&self, l: LinkId) -> Link {
        self.store.get(l.index())
    }

    /// All links.
    ///
    /// For networks built by [`Network::from_uniform_stream`] this
    /// materializes (and caches) a `Vec<Link>` view on first call; code on
    /// the scale path should prefer [`Network::link`] / the adjacency API.
    #[inline]
    pub fn links(&self) -> &[Link] {
        match &self.store {
            LinkStore::Explicit(v) => v,
            LinkStore::Uniform { ends, capacity } => self.flat_links.get_or_init(|| {
                ends.iter()
                    .map(|&(a, b)| Link {
                        a,
                        b,
                        capacity: *capacity,
                    })
                    .collect()
            }),
        }
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.kinds.len() as u32).map(NodeId)
    }

    /// Iterator over all server node ids.
    pub fn server_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(move |&n| self.is_server(n))
    }

    /// Iterator over all switch node ids.
    pub fn switch_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(move |&n| !self.is_server(n))
    }

    /// The port (index into [`Network::neighbors`]) through which `from`
    /// reaches `to`, if they are adjacent. Ports are stable across runs
    /// because adjacency is kept in link-insertion order — this is what a
    /// compiled forwarding table stores instead of full node ids.
    #[inline]
    pub fn port_of(&self, from: NodeId, to: NodeId) -> Option<usize> {
        self.neighbors(from).iter().position(|&(n, _)| n == to)
    }

    /// Returns the link connecting `a` and `b`, if any (first match in `a`'s
    /// adjacency if parallel links exist).
    ///
    /// O(log degree) via the CSR's neighbor-sorted mirror; because per-node
    /// adjacency is appended in link-id order, the lowest-id parallel link
    /// this returns is the same one a first-match linear scan would pick.
    #[inline]
    pub fn find_link(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.csr().find_link(a, b)
    }

    /// `true` if every server id precedes every switch id — the crate-wide
    /// builder convention that lets simulators index per-server state by
    /// `NodeId` directly.
    pub fn is_servers_first(&self) -> bool {
        let first_switch = self
            .kinds
            .iter()
            .position(|&k| k == NodeKind::Switch)
            .unwrap_or(self.kinds.len());
        self.kinds[first_switch..]
            .iter()
            .all(|&k| k == NodeKind::Switch)
    }

    /// A histogram of switch radixes (degree → number of switches with that
    /// degree), used by the CAPEX cost model.
    pub fn switch_radix_histogram(&self) -> std::collections::BTreeMap<usize, usize> {
        let mut h = std::collections::BTreeMap::new();
        for sw in self.switch_ids() {
            *h.entry(self.degree(sw)).or_insert(0) += 1;
        }
        h
    }

    /// Maximum number of NIC ports used by any server.
    pub fn max_server_degree(&self) -> usize {
        self.server_ids().map(|s| self.degree(s)).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star() -> (Network, Vec<NodeId>, NodeId) {
        let mut net = Network::new();
        let servers: Vec<_> = (0..4).map(|_| net.add_server()).collect();
        let sw = net.add_switch();
        for &s in &servers {
            net.add_link(s, sw, 1.0);
        }
        (net, servers, sw)
    }

    #[test]
    fn counts_and_kinds() {
        let (net, servers, sw) = star();
        assert_eq!(net.node_count(), 5);
        assert_eq!(net.server_count(), 4);
        assert_eq!(net.switch_count(), 1);
        assert_eq!(net.link_count(), 4);
        assert!(net.is_server(servers[0]));
        assert!(!net.is_server(sw));
        assert!(net.is_servers_first());
    }

    #[test]
    fn adjacency_is_symmetric() {
        let (net, servers, sw) = star();
        for &s in &servers {
            assert_eq!(net.neighbors(s), &[(sw, net.find_link(s, sw).unwrap())]);
        }
        assert_eq!(net.degree(sw), 4);
        for &(nb, l) in net.neighbors(sw) {
            assert!(servers.contains(&nb));
            assert_eq!(net.link(l).other_end(sw), nb);
        }
    }

    #[test]
    fn port_of_matches_neighbor_order() {
        let (net, servers, sw) = star();
        // Switch ports follow link-insertion order: server i sits on port i.
        for (i, &s) in servers.iter().enumerate() {
            assert_eq!(net.port_of(sw, s), Some(i));
            assert_eq!(net.port_of(s, sw), Some(0));
            assert_eq!(net.neighbors(sw)[i].0, s);
        }
        assert_eq!(net.port_of(servers[0], servers[1]), None);
    }

    #[test]
    fn radix_histogram() {
        let (net, _, _) = star();
        let h = net.switch_radix_histogram();
        assert_eq!(h.get(&4), Some(&1));
        assert_eq!(h.len(), 1);
        assert_eq!(net.max_server_degree(), 1);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let mut net = Network::new();
        let s = net.add_server();
        net.add_link(s, s, 1.0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn bad_capacity_rejected() {
        let mut net = Network::new();
        let a = net.add_server();
        let b = net.add_server();
        net.add_link(a, b, 0.0);
    }

    #[test]
    fn parallel_links_allowed() {
        let mut net = Network::new();
        let a = net.add_server();
        let b = net.add_switch();
        let l1 = net.add_link(a, b, 1.0);
        let l2 = net.add_link(a, b, 1.0);
        assert_ne!(l1, l2);
        assert_eq!(net.degree(a), 2);
        // Lookup resolves parallel links to the lowest id, from both ends.
        assert_eq!(net.find_link(a, b), Some(l1));
        assert_eq!(net.find_link(b, a), Some(l1));
    }

    #[test]
    fn csr_rebuilds_after_mutation() {
        let mut net = Network::new();
        let a = net.add_server();
        let b = net.add_server();
        net.add_link(a, b, 1.0);
        assert_eq!(net.neighbors(a).len(), 1); // builds the CSR
        let c = net.add_server(); // invalidates it
        let l = net.add_link(a, c, 1.0);
        assert_eq!(net.neighbors(a), &[(b, LinkId(0)), (c, l)]);
        assert_eq!(net.find_link(c, a), Some(l));
        assert_eq!(net.find_link(b, c), None);
        assert_eq!(net.degree(c), 1);
    }

    #[test]
    fn serde_roundtrip_preserves_structure() {
        let (net, _, _) = star();
        let json = serde_json::to_string(&net).unwrap();
        let back: Network = serde_json::from_str(&json).unwrap();
        assert_eq!(back.node_count(), net.node_count());
        assert_eq!(back.server_count(), net.server_count());
        assert_eq!(back.link_count(), net.link_count());
        for n in net.node_ids() {
            assert_eq!(back.kind(n), net.kind(n));
            assert_eq!(back.neighbors(n), net.neighbors(n));
        }
    }

    /// The star topology built via the streaming constructor instead of
    /// `add_server`/`add_link` — same ids, same ports, same links.
    fn streamed_star() -> Network {
        Network::from_uniform_stream(4, 1, 4, 1.0, |sink| {
            for s in 0..4u32 {
                sink(NodeId(s), NodeId(4));
            }
        })
    }

    #[test]
    fn streamed_network_matches_builder_network() {
        let (built, servers, sw) = star();
        let streamed = streamed_star();
        assert_eq!(streamed.node_count(), built.node_count());
        assert_eq!(streamed.server_count(), built.server_count());
        assert_eq!(streamed.link_count(), built.link_count());
        assert!(streamed.is_servers_first());
        for n in built.node_ids() {
            assert_eq!(streamed.kind(n), built.kind(n));
            assert_eq!(streamed.neighbors(n), built.neighbors(n));
        }
        for i in 0..built.link_count() {
            assert_eq!(
                streamed.link(LinkId(i as u32)),
                built.link(LinkId(i as u32))
            );
        }
        // Port stability and lookup work identically.
        for (i, &s) in servers.iter().enumerate() {
            assert_eq!(streamed.port_of(sw, s), Some(i));
            assert_eq!(streamed.find_link(s, sw), built.find_link(s, sw));
        }
        // links() materializes a faithful flat view.
        assert_eq!(streamed.links(), built.links());
    }

    #[test]
    fn streamed_network_serde_roundtrip() {
        let streamed = streamed_star();
        let json = serde_json::to_string(&streamed).unwrap();
        let back: Network = serde_json::from_str(&json).unwrap();
        assert_eq!(back.node_count(), streamed.node_count());
        assert_eq!(back.link_count(), streamed.link_count());
        for n in streamed.node_ids() {
            assert_eq!(back.neighbors(n), streamed.neighbors(n));
        }
    }

    #[test]
    fn streamed_network_survives_mutation() {
        let mut net = streamed_star();
        assert_eq!(net.neighbors(NodeId(4)).len(), 4); // builds the CSR
        let extra = net.add_server(); // converts store, invalidates CSR
        let l = net.add_link(extra, NodeId(4), 2.0);
        assert_eq!(net.link_count(), 5);
        assert_eq!(net.degree(NodeId(4)), 5);
        assert_eq!(net.find_link(extra, NodeId(4)), Some(l));
        assert_eq!(net.link(l).capacity, 2.0);
        assert_eq!(net.link(LinkId(0)).capacity, 1.0);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn streamed_self_loop_rejected() {
        Network::from_uniform_stream(2, 0, 1, 1.0, |sink| sink(NodeId(1), NodeId(1)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn streamed_out_of_range_rejected() {
        Network::from_uniform_stream(2, 0, 1, 1.0, |sink| sink(NodeId(0), NodeId(9)));
    }

    #[test]
    fn servers_first_detects_interleaving() {
        let mut net = Network::new();
        net.add_server();
        net.add_switch();
        net.add_server();
        assert!(!net.is_servers_first());
    }
}
