//! The TCP front end over [`RouteService`]: framed requests in,
//! coalesced groups answered on the connection's thread, framed replies
//! out.
//!
//! # Threading model
//!
//! One accept loop plus one thread per accepted connection. A connection
//! thread does everything for its connection: framing, admission, the
//! route lookups ([`RouteService::query`] per item) and socket I/O. So
//! concurrent connections supply the parallelism, and the service's
//! shards only partition its patch cache. The accept loop blocks in
//! `accept`; shutdown sets the drain flag and wakes it with one
//! connection of its own, which the loop drops unserved.
//!
//! # Batching
//!
//! A connection reads one frame (blocking, with a short timeout so the
//! drain flag is noticed), then opportunistically drains every further
//! frame the client has already pipelined. All consecutive query-type
//! frames coalesce into **one** group answered under one read guard;
//! replies are written per frame, in arrival order. A mask push or info
//! request is a barrier: the pending group executes first, then the
//! barrier op.
//!
//! A batch frame's reply is written as it is answered: each pair walks
//! into one node buffer the whole group reuses
//! ([`RouteService::lookup_into`]), and a primary route goes from that
//! buffer straight into the frame, whose length is back-patched at the
//! end. Only fallbacks, patch-cache hits and errors
//! are built as [`WireOutcome`]s or [`WireRouteError`]s first. Single
//! QUERY and QUERY_VLB frames are answered through `query`/`query_vlb`.
//!
//! # Backpressure
//!
//! Admission is per connection and typed: a coalesced group admits
//! frames while the running item count stays within
//! [`ServeConfig::max_inflight`]; frames beyond it receive
//! [`RejectReason::Saturated`] replies (never silent drops), and a
//! single frame whose batch exceeds [`ServeConfig::max_batch`] receives
//! `BatchTooLarge`. Because rejection is a reply, a well-behaved client
//! (the load generator) bounds its pipeline window to the budget and
//! never triggers it — which is what keeps the CI harness digest
//! deterministic.
//!
//! # Epoch consistency
//!
//! The service sits behind an `RwLock`. A coalesced batch executes under
//! **one** read guard, and a mask push takes the write guard and bumps
//! the epoch counter — so a batch that started before a mask install
//! answers entirely from one epoch, never a mix (pinned by the
//! regression test in `tests/loopback.rs`).

use crate::wire::{
    peek_id, split_frame, BatchWriter, RejectReason, Reply, Request, WireError, WireOutcome,
    WireRouteError, DEFAULT_MAX_FRAME,
};
use dcn_fib::{Lookup, RouteService};
use netgraph::{FaultMask, LinkId, NodeId, Topology};
use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// Blocking-read timeout of a connection thread; bounds how long a drain
/// waits on an idle connection.
const READ_TIMEOUT: Duration = Duration::from_millis(20);

/// Tuning knobs of a [`RouteServer`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// TCP port to bind on 127.0.0.1 (0 = ephemeral).
    pub port: u16,
    /// Per-connection in-flight route-query budget: the largest number of
    /// items one coalesced group may admit before typed rejects.
    pub max_inflight: usize,
    /// Cap on a single `QueryBatch` frame's pair count.
    pub max_batch: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            port: 0,
            max_inflight: 4096,
            max_batch: 4096,
        }
    }
}

/// What a graceful [`RouteServer::shutdown`] drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Connection threads joined.
    pub connections: usize,
    /// Mask epoch at shutdown.
    pub epoch: u64,
}

/// State shared by the accept loop and every connection thread.
struct Shared {
    service: RwLock<RouteService>,
    epoch: AtomicU64,
    draining: AtomicBool,
    cfg: ServeConfig,
}

/// A running route-query server; dropping it without
/// [`RouteServer::shutdown`] detaches the connection threads (they exit
/// on the drain flag set by `Drop`).
pub struct RouteServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl std::fmt::Debug for RouteServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouteServer")
            .field("addr", &self.addr)
            .field("epoch", &self.epoch())
            .finish()
    }
}

impl RouteServer {
    /// Binds `127.0.0.1:port` and starts serving `service`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn spawn(service: RouteService, cfg: ServeConfig) -> std::io::Result<RouteServer> {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, cfg.port))?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            service: RwLock::new(service),
            epoch: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            cfg,
        });
        let conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || accept_loop(&listener, &shared, &conns))
        };
        Ok(RouteServer {
            addr,
            shared,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address (`127.0.0.1` with the ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound TCP port.
    pub fn port(&self) -> u16 {
        self.addr.port()
    }

    /// The current fault-mask epoch (bumped by every mask push).
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::SeqCst)
    }

    /// Drains and joins every thread: stops accepting, lets connection
    /// threads answer what they already buffered, then joins them all.
    /// Returns only once no server thread remains.
    pub fn shutdown(mut self) -> DrainReport {
        self.stop_accepting();
        let handles: Vec<_> = std::mem::take(&mut *self.conns.lock().expect("conn registry"));
        let connections = handles.len();
        for h in handles {
            let _ = h.join();
        }
        DrainReport {
            connections,
            epoch: self.epoch(),
        }
    }

    /// Sets the drain flag, wakes the blocking `accept` with one
    /// connection to the server's own address, and joins the accept loop.
    /// A failed connect woke nothing, so it skips the join rather than
    /// wait forever.
    fn stop_accepting(&mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            if TcpStream::connect(self.addr).is_ok() {
                let _ = h.join();
            }
        }
    }
}

impl Drop for RouteServer {
    fn drop(&mut self) {
        self.stop_accepting();
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    conns: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        // Checked before anything is served or counted, so the wake-up
        // connection of `stop_accepting` never is.
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { return };
        dcn_telemetry::counter!("serve.connections").inc();
        let shared = Arc::clone(shared);
        let h = std::thread::spawn(move || serve_conn(&shared, stream));
        conns.lock().expect("conn registry").push(h);
    }
}

/// A query-type frame waiting in the current coalesced group.
enum Pending {
    Query {
        id: u64,
        src: u32,
        dst: u32,
    },
    Vlb {
        id: u64,
        seed: u64,
        src: u32,
        dst: u32,
    },
    Batch {
        id: u64,
        pairs: Vec<(u32, u32)>,
    },
    Reject {
        id: u64,
        reason: RejectReason,
    },
}

impl Pending {
    fn items(&self) -> usize {
        match self {
            Pending::Query { .. } | Pending::Vlb { .. } => 1,
            Pending::Batch { pairs, .. } => pairs.len(),
            Pending::Reject { .. } => 0,
        }
    }
}

fn serve_conn(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let mut rbuf: Vec<u8> = Vec::with_capacity(16 * 1024);
    let mut chunk = [0u8; 64 * 1024];
    let mut wbuf: Vec<u8> = Vec::with_capacity(16 * 1024);
    loop {
        // One blocking read (timeout-bounded so the drain flag is seen).
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => rbuf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        // Opportunistic drain: pull every byte the client already sent,
        // so pipelined frames coalesce into one execution batch.
        if stream.set_nonblocking(true).is_ok() {
            loop {
                match stream.read(&mut chunk) {
                    Ok(0) => break,
                    Ok(n) => rbuf.extend_from_slice(&chunk[..n]),
                    Err(_) => break,
                }
            }
            let _ = stream.set_nonblocking(false);
            let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
        }
        if !process_buffer(shared, &mut rbuf, &mut wbuf, &mut stream) {
            return;
        }
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Decodes every complete frame in `rbuf`, executes them (coalescing
/// query groups), and writes the replies. Returns `false` when the
/// connection must close.
fn process_buffer(
    shared: &Shared,
    rbuf: &mut Vec<u8>,
    wbuf: &mut Vec<u8>,
    stream: &mut TcpStream,
) -> bool {
    let mut consumed = 0usize;
    let mut group: Vec<Pending> = Vec::new();
    let mut fatal = false;
    loop {
        let rest = &rbuf[consumed..];
        let frame = match split_frame(rest, DEFAULT_MAX_FRAME) {
            Ok(None) => break,
            Ok(Some((range, used))) => {
                let payload = &rest[range];
                consumed += used;
                payload
            }
            Err(_) => {
                // Length-prefix violation: the stream cannot be
                // resynchronized. Reject what we can address and close.
                flush_group(shared, &mut group, wbuf);
                Reply::Reject {
                    id: 0,
                    reason: RejectReason::Malformed,
                }
                .encode(wbuf);
                fatal = true;
                consumed = rbuf.len();
                break;
            }
        };
        match Request::decode(frame) {
            Ok(Request::Query { id, src, dst }) => group.push(Pending::Query { id, src, dst }),
            Ok(Request::QueryVlb { id, seed, src, dst }) => {
                group.push(Pending::Vlb { id, seed, src, dst });
            }
            Ok(Request::QueryBatch { id, pairs }) => {
                if pairs.len() > shared.cfg.max_batch {
                    group.push(Pending::Reject {
                        id,
                        reason: RejectReason::BatchTooLarge,
                    });
                } else {
                    group.push(Pending::Batch { id, pairs });
                }
            }
            Ok(Request::MaskPush {
                id,
                clear,
                nodes,
                links,
            }) => {
                // Barrier: the in-flight group answers from the old
                // epoch, then the mask installs under the write lock.
                flush_group(shared, &mut group, wbuf);
                wbuf_mask(shared, id, clear, &nodes, &links, wbuf);
            }
            Ok(Request::Info { id }) => {
                flush_group(shared, &mut group, wbuf);
                wbuf_info(shared, id, wbuf);
            }
            Err(WireError::BadVersion(_)) => {
                // Version mismatch is connection-fatal: the peer speaks a
                // different dialect and nothing else it sends is safe to
                // interpret.
                flush_group(shared, &mut group, wbuf);
                Reply::Reject {
                    id: peek_id(frame),
                    reason: RejectReason::BadVersion,
                }
                .encode(wbuf);
                fatal = true;
                break;
            }
            Err(WireError::BadOpcode(_)) => {
                dcn_telemetry::counter!("serve.rejects").inc();
                group.push(Pending::Reject {
                    id: peek_id(frame),
                    reason: RejectReason::BadOpcode,
                });
            }
            Err(_) => {
                dcn_telemetry::counter!("serve.rejects").inc();
                group.push(Pending::Reject {
                    id: peek_id(frame),
                    reason: RejectReason::Malformed,
                });
            }
        }
    }
    rbuf.drain(..consumed);
    flush_group(shared, &mut group, wbuf);
    let ok = wbuf.is_empty() || stream.write_all(wbuf).and_then(|()| stream.flush()).is_ok();
    wbuf.clear();
    !fatal && ok
}

/// Executes a coalesced group of query-type frames under one read guard
/// (= one mask epoch) and appends the replies in frame order.
fn flush_group(shared: &Shared, group: &mut Vec<Pending>, wbuf: &mut Vec<u8>) {
    if group.is_empty() {
        return;
    }
    let _t = dcn_telemetry::histogram!("serve.group_ns").start_timer();
    // Admission: frames stay whole; the running item count is the
    // connection's in-flight budget.
    let mut admitted = 0usize;
    let budget = shared.cfg.max_inflight;
    let decisions: Vec<bool> = group
        .iter()
        .map(|p| {
            let items = p.items();
            if matches!(p, Pending::Reject { .. }) {
                false
            } else if admitted + items <= budget {
                admitted += items;
                true
            } else {
                false
            }
        })
        .collect();
    dcn_telemetry::counter!("serve.requests").add(
        decisions
            .iter()
            .zip(group.iter())
            .filter(|(ok, p)| **ok && !matches!(p, Pending::Reject { .. }))
            .count() as u64,
    );
    dcn_telemetry::histogram!("serve.batch_size").record(admitted as u64);

    // One read guard for the whole group: every answer in it comes from
    // one mask epoch, even if a writer is already waiting.
    let svc = shared.service.read().expect("route service");
    // Every batch item walks into this one buffer.
    let mut nodes = Vec::new();
    for (p, ok) in group.iter().zip(&decisions) {
        match (p, ok) {
            (Pending::Reject { id, reason }, _) => {
                Reply::Reject {
                    id: *id,
                    reason: *reason,
                }
                .encode(wbuf);
            }
            (p, false) => {
                dcn_telemetry::counter!("serve.rejects").inc();
                let id = match p {
                    Pending::Query { id, .. }
                    | Pending::Vlb { id, .. }
                    | Pending::Batch { id, .. } => *id,
                    Pending::Reject { id, .. } => *id,
                };
                Reply::Reject {
                    id,
                    reason: RejectReason::Saturated,
                }
                .encode(wbuf);
            }
            (Pending::Query { id, src, dst }, true) => {
                encode_single(*id, &svc.query(NodeId(*src), NodeId(*dst)), wbuf);
            }
            (Pending::Batch { id, pairs }, true) => {
                let mut w = BatchWriter::new(wbuf, *id, pairs.len());
                for &(s, d) in pairs {
                    match svc.lookup_into(NodeId(s), NodeId(d), &mut nodes) {
                        Lookup::Primary => w.primary(&nodes),
                        Lookup::Owned(Ok(o)) => w.outcome(&WireOutcome::from_outcome(&o)),
                        Lookup::Owned(Err(e)) => w.error(&WireRouteError::from_error(&e)),
                    }
                }
                w.finish();
            }
            (Pending::Vlb { id, seed, src, dst }, true) => {
                let r = svc.query_vlb(*seed, NodeId(*src), NodeId(*dst));
                encode_single(*id, &r, wbuf);
            }
        }
    }
    group.clear();
}

fn encode_single(
    id: u64,
    r: &Result<abccc::RouteOutcome, netgraph::RouteError>,
    wbuf: &mut Vec<u8>,
) {
    match r {
        Ok(o) => Reply::Route {
            id,
            outcome: WireOutcome::from_outcome(o),
        }
        .encode(wbuf),
        Err(e) => Reply::Error {
            id,
            error: WireRouteError::from_error(e),
        }
        .encode(wbuf),
    }
}

/// Installs or clears a mask under the write lock and bumps the epoch.
fn wbuf_mask(
    shared: &Shared,
    id: u64,
    clear: bool,
    nodes: &[u32],
    links: &[u32],
    wbuf: &mut Vec<u8>,
) {
    let mut svc = shared.service.write().expect("route service");
    let reply = if clear {
        svc.clear_faults();
        let epoch = shared.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        Reply::MaskAck {
            id,
            incremental: false,
            retained: 0,
            dropped: 0,
            epoch,
        }
    } else {
        let net_nodes = svc.topo().network().node_count();
        let net_links = svc.topo().network().link_count();
        if nodes.iter().any(|&n| n as usize >= net_nodes)
            || links.iter().any(|&l| l as usize >= net_links)
        {
            dcn_telemetry::counter!("serve.rejects").inc();
            Reply::Reject {
                id,
                reason: RejectReason::Malformed,
            }
            .encode(wbuf);
            return;
        }
        let mut mask = FaultMask::new(svc.topo().network());
        for &n in nodes {
            mask.fail_node(NodeId(n));
        }
        for &l in links {
            mask.fail_link(LinkId(l));
        }
        let report = svc.apply_mask(mask);
        let epoch = shared.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        dcn_telemetry::counter!("serve.mask_pushes").inc();
        Reply::MaskAck {
            id,
            incremental: report.incremental,
            retained: report.retained as u64,
            dropped: report.dropped as u64,
            epoch,
        }
    };
    reply.encode(wbuf);
}

fn wbuf_info(shared: &Shared, id: u64, wbuf: &mut Vec<u8>) {
    let svc = shared.service.read().expect("route service");
    Reply::InfoAck {
        id,
        servers: u64::from(svc.table().servers()),
        shards: svc.shard_count() as u32,
        epoch: shared.epoch.load(Ordering::SeqCst),
        max_inflight: shared.cfg.max_inflight as u32,
    }
    .encode(wbuf);
}
