//! The `dcn-serve` wire protocol: compact length-prefixed binary frames.
//!
//! Every frame on the socket is
//!
//! ```text
//! [len: u32 LE] [version: u8] [opcode: u8] [id: u64 LE] [body …]
//! ```
//!
//! where `len` counts everything after itself (so `len ≥ 10`, the header
//! bytes) and is bounded by the peer's configured maximum frame size.
//! Requests and replies share the framing; opcodes with the high bit set
//! are replies. The `id` is chosen by the client and echoed verbatim in
//! the reply, which is what makes pipelining work: a client may have many
//! frames outstanding and match replies by id (the server answers each
//! frame in arrival order, so ids also come back in order per
//! connection).
//!
//! Decoding is strict and total: every byte of a frame body must be
//! consumed, every count field is bounded by the bytes that actually
//! follow it, and malformed input of any shape yields a typed
//! [`WireError`] — never a panic and never an allocation proportional to
//! a lying length field. The property tests in `tests/codec_props.rs`
//! pin round-tripping and the rejection behavior.

/// Protocol version carried in every frame.
pub const WIRE_VERSION: u8 = 1;

/// Bytes of the fixed header after the length prefix (version + opcode +
/// id).
pub const HEADER_BYTES: usize = 10;

/// Bytes of the length prefix itself.
pub const LEN_BYTES: usize = 4;

/// Default cap on `len` (one frame's post-prefix bytes): 1 MiB.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Request opcodes (high bit clear).
mod op {
    pub const QUERY: u8 = 0x01;
    pub const BATCH: u8 = 0x02;
    pub const VLB: u8 = 0x03;
    pub const MASK: u8 = 0x04;
    pub const INFO: u8 = 0x05;
    pub const ROUTE_OK: u8 = 0x81;
    pub const BATCH_OK: u8 = 0x82;
    pub const ERROR: u8 = 0x83;
    pub const REJECT: u8 = 0x84;
    pub const MASK_ACK: u8 = 0x85;
    pub const INFO_ACK: u8 = 0x86;
}

/// Why a frame could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ends before the frame does (streaming: read more).
    Incomplete {
        /// Total bytes the frame needs (prefix included).
        need: usize,
    },
    /// The peer closed mid-frame: the length prefix promised more bytes
    /// than ever arrived.
    Truncated {
        /// Bytes the length prefix promised.
        promised: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The length prefix exceeds the configured maximum frame size.
    Oversized {
        /// The declared post-prefix length.
        len: usize,
        /// The configured cap.
        max: usize,
    },
    /// The length prefix is smaller than the fixed header.
    Undersized {
        /// The declared post-prefix length.
        len: usize,
    },
    /// The frame's version byte is not [`WIRE_VERSION`].
    BadVersion(u8),
    /// Unknown opcode.
    BadOpcode(u8),
    /// The body does not parse: wrong size, lying count field, trailing
    /// bytes, or an out-of-range tag.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Incomplete { need } => write!(f, "incomplete frame (need {need} bytes)"),
            WireError::Truncated { promised, have } => {
                write!(f, "truncated frame ({have} of {promised} promised bytes)")
            }
            WireError::Oversized { len, max } => {
                write!(f, "oversized frame ({len} bytes, max {max})")
            }
            WireError::Undersized { len } => write!(f, "undersized frame ({len} bytes)"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadOpcode(o) => write!(f, "unknown opcode {o:#04x}"),
            WireError::Malformed(what) => write!(f, "malformed body: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A route answer on the wire (the serializable core of
/// [`RouteOutcome`](abccc::RouteOutcome)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireOutcome {
    /// Escalation tier, `0 = primary … 4 = bfs`
    /// ([`RouteTier`](abccc::RouteTier) order).
    pub tier: u8,
    /// Candidate routes examined.
    pub attempts: u32,
    /// Deterministic backoff units accrued.
    pub backoff_units: u64,
    /// The route's node ids, endpoints included.
    pub nodes: Vec<u32>,
}

impl WireOutcome {
    /// Lowers a router outcome onto the wire.
    pub fn from_outcome(o: &abccc::RouteOutcome) -> WireOutcome {
        WireOutcome {
            tier: match o.tier {
                abccc::RouteTier::Primary => 0,
                abccc::RouteTier::Deterministic => 1,
                abccc::RouteTier::RandomPerm => 2,
                abccc::RouteTier::Proxy => 3,
                abccc::RouteTier::Bfs => 4,
            },
            attempts: o.attempts,
            backoff_units: o.backoff_units,
            nodes: o.route.nodes().iter().map(|n| n.0).collect(),
        }
    }
}

/// A route failure on the wire (the serializable core of
/// [`RouteError`](netgraph::RouteError)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireRouteError {
    /// An endpoint id does not name a server.
    NotAServer(u32),
    /// No path exists between the endpoints under the installed mask.
    Unreachable {
        /// Source server.
        src: u32,
        /// Destination server.
        dst: u32,
    },
    /// The fallback ladder gave up.
    GaveUp {
        /// Source server.
        src: u32,
        /// Destination server.
        dst: u32,
        /// Detour attempts made.
        attempts: u32,
    },
    /// A server-side failure that does not map to the routing contract.
    Internal,
}

impl WireRouteError {
    /// Lowers a router error onto the wire.
    pub fn from_error(e: &netgraph::RouteError) -> WireRouteError {
        match e {
            netgraph::RouteError::NotAServer(n) => WireRouteError::NotAServer(n.0),
            netgraph::RouteError::Unreachable { src, dst } => WireRouteError::Unreachable {
                src: src.0,
                dst: dst.0,
            },
            netgraph::RouteError::GaveUp { src, dst, attempts } => WireRouteError::GaveUp {
                src: src.0,
                dst: dst.0,
                attempts: *attempts as u32,
            },
            _ => WireRouteError::Internal,
        }
    }
}

/// Why the server refused to execute a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The connection's in-flight budget is exhausted; retry later.
    Saturated,
    /// A single frame's batch exceeds the server's per-frame item cap.
    BatchTooLarge,
    /// The server is draining for shutdown.
    Draining,
    /// The frame's version byte is unsupported (connection-fatal).
    BadVersion,
    /// The frame's opcode is unknown.
    BadOpcode,
    /// The frame body did not decode.
    Malformed,
}

impl RejectReason {
    fn code(self) -> u8 {
        match self {
            RejectReason::Saturated => 1,
            RejectReason::BatchTooLarge => 2,
            RejectReason::Draining => 3,
            RejectReason::BadVersion => 4,
            RejectReason::BadOpcode => 5,
            RejectReason::Malformed => 6,
        }
    }

    fn parse(code: u8) -> Option<RejectReason> {
        Some(match code {
            1 => RejectReason::Saturated,
            2 => RejectReason::BatchTooLarge,
            3 => RejectReason::Draining,
            4 => RejectReason::BadVersion,
            5 => RejectReason::BadOpcode,
            6 => RejectReason::Malformed,
            _ => return None,
        })
    }

    /// Stable lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::Saturated => "saturated",
            RejectReason::BatchTooLarge => "batch_too_large",
            RejectReason::Draining => "draining",
            RejectReason::BadVersion => "bad_version",
            RejectReason::BadOpcode => "bad_opcode",
            RejectReason::Malformed => "malformed",
        }
    }
}

/// A client→server frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// One src→dst route query.
    Query {
        /// Client-chosen id, echoed in the reply.
        id: u64,
        /// Source server id.
        src: u32,
        /// Destination server id.
        dst: u32,
    },
    /// Many queries in one frame, answered by one [`Reply::Batch`].
    QueryBatch {
        /// Client-chosen id, echoed in the reply.
        id: u64,
        /// The (src, dst) pairs, answered in order.
        pairs: Vec<(u32, u32)>,
    },
    /// A Valiant-load-balanced two-stage query.
    QueryVlb {
        /// Client-chosen id, echoed in the reply.
        id: u64,
        /// VLB seed (per-pair RNG stream derives from it).
        seed: u64,
        /// Source server id.
        src: u32,
        /// Destination server id.
        dst: u32,
    },
    /// Install (or clear) a fault mask, driving the service's incremental
    /// invalidation.
    MaskPush {
        /// Client-chosen id, echoed in the reply.
        id: u64,
        /// `true` clears all faults; the id lists are then ignored.
        clear: bool,
        /// Failed node ids.
        nodes: Vec<u32>,
        /// Failed link ids.
        links: Vec<u32>,
    },
    /// Ask for server facts (servers, shards, epoch, budget).
    Info {
        /// Client-chosen id, echoed in the reply.
        id: u64,
    },
}

impl Request {
    /// The client-chosen frame id.
    pub fn id(&self) -> u64 {
        match self {
            Request::Query { id, .. }
            | Request::QueryBatch { id, .. }
            | Request::QueryVlb { id, .. }
            | Request::MaskPush { id, .. }
            | Request::Info { id } => *id,
        }
    }

    /// Route-query items this request admits against the in-flight budget.
    pub fn items(&self) -> usize {
        match self {
            Request::Query { .. } | Request::QueryVlb { .. } => 1,
            Request::QueryBatch { pairs, .. } => pairs.len(),
            Request::MaskPush { .. } | Request::Info { .. } => 0,
        }
    }

    /// Appends the full frame (length prefix included) to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Request::Query { id, src, dst } => {
                let mut f = Framer::new(out, op::QUERY, *id);
                f.u32(*src);
                f.u32(*dst);
                f.finish();
            }
            Request::QueryBatch { id, pairs } => {
                let mut f = Framer::new(out, op::BATCH, *id);
                f.u32(pairs.len() as u32);
                for &(s, d) in pairs {
                    f.u32(s);
                    f.u32(d);
                }
                f.finish();
            }
            Request::QueryVlb { id, seed, src, dst } => {
                let mut f = Framer::new(out, op::VLB, *id);
                f.u64(*seed);
                f.u32(*src);
                f.u32(*dst);
                f.finish();
            }
            Request::MaskPush {
                id,
                clear,
                nodes,
                links,
            } => {
                let mut f = Framer::new(out, op::MASK, *id);
                f.u8(u8::from(*clear));
                f.u32(nodes.len() as u32);
                f.u32(links.len() as u32);
                for &n in nodes {
                    f.u32(n);
                }
                for &l in links {
                    f.u32(l);
                }
                f.finish();
            }
            Request::Info { id } => Framer::new(out, op::INFO, *id).finish(),
        }
    }

    /// Decodes a frame payload (the `len`-counted bytes: version through
    /// body).
    ///
    /// # Errors
    ///
    /// Any [`WireError`] variant except `Incomplete`/`Oversized` (those
    /// belong to the stream splitter, [`split_frame`]).
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let (opcode, id, mut b) = header(payload)?;
        let req = match opcode {
            op::QUERY => Request::Query {
                id,
                src: b.u32()?,
                dst: b.u32()?,
            },
            op::BATCH => {
                let count = b.counted(8)?;
                let mut pairs = Vec::with_capacity(count);
                for _ in 0..count {
                    pairs.push((b.u32()?, b.u32()?));
                }
                Request::QueryBatch { id, pairs }
            }
            op::VLB => Request::QueryVlb {
                id,
                seed: b.u64()?,
                src: b.u32()?,
                dst: b.u32()?,
            },
            op::MASK => {
                let clear = match b.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::Malformed("mask clear flag")),
                };
                let nodes_n = b.counted(4)?;
                let links_n = b.counted(4)?;
                if nodes_n.saturating_add(links_n) * 4 != b.remaining() {
                    return Err(WireError::Malformed("mask id counts"));
                }
                let mut nodes = Vec::with_capacity(nodes_n);
                for _ in 0..nodes_n {
                    nodes.push(b.u32()?);
                }
                let mut links = Vec::with_capacity(links_n);
                for _ in 0..links_n {
                    links.push(b.u32()?);
                }
                Request::MaskPush {
                    id,
                    clear,
                    nodes,
                    links,
                }
            }
            op::INFO => Request::Info { id },
            other => return Err(WireError::BadOpcode(other)),
        };
        b.done()?;
        Ok(req)
    }
}

/// A server→client frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Answer to [`Request::Query`] / [`Request::QueryVlb`].
    Route {
        /// Echoed request id.
        id: u64,
        /// The route.
        outcome: WireOutcome,
    },
    /// Answer to [`Request::QueryBatch`]: one item per pair, in order.
    Batch {
        /// Echoed request id.
        id: u64,
        /// Per-pair outcomes.
        items: Vec<Result<WireOutcome, WireRouteError>>,
    },
    /// A route-level failure for a single-query request.
    Error {
        /// Echoed request id.
        id: u64,
        /// What went wrong.
        error: WireRouteError,
    },
    /// The server refused to execute the request (backpressure or a
    /// protocol violation).
    Reject {
        /// Echoed request id (0 when the id could not be parsed).
        id: u64,
        /// Why.
        reason: RejectReason,
    },
    /// Answer to [`Request::MaskPush`].
    MaskAck {
        /// Echoed request id.
        id: u64,
        /// Whether invalidation was incremental (mask covered the old one).
        incremental: bool,
        /// Patches kept.
        retained: u64,
        /// Patches dropped.
        dropped: u64,
        /// The new mask epoch.
        epoch: u64,
    },
    /// Answer to [`Request::Info`].
    InfoAck {
        /// Echoed request id.
        id: u64,
        /// Servers the FIB covers.
        servers: u64,
        /// Service shard count.
        shards: u32,
        /// Current mask epoch.
        epoch: u64,
        /// Per-connection in-flight item budget.
        max_inflight: u32,
    },
}

impl Reply {
    /// The echoed request id.
    pub fn id(&self) -> u64 {
        match self {
            Reply::Route { id, .. }
            | Reply::Batch { id, .. }
            | Reply::Error { id, .. }
            | Reply::Reject { id, .. }
            | Reply::MaskAck { id, .. }
            | Reply::InfoAck { id, .. } => *id,
        }
    }

    /// Appends the full frame (length prefix included) to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Reply::Route { id, outcome } => {
                let mut f = Framer::new(out, op::ROUTE_OK, *id);
                f.outcome(outcome);
                f.finish();
            }
            Reply::Batch { id, items } => {
                let mut w = BatchWriter::new(out, *id, items.len());
                for item in items {
                    match item {
                        Ok(o) => w.outcome(o),
                        Err(e) => w.error(e),
                    }
                }
                w.finish();
            }
            Reply::Error { id, error } => {
                let mut f = Framer::new(out, op::ERROR, *id);
                f.route_error(error);
                f.finish();
            }
            Reply::Reject { id, reason } => {
                let mut f = Framer::new(out, op::REJECT, *id);
                f.u8(reason.code());
                f.finish();
            }
            Reply::MaskAck {
                id,
                incremental,
                retained,
                dropped,
                epoch,
            } => {
                let mut f = Framer::new(out, op::MASK_ACK, *id);
                f.u8(u8::from(*incremental));
                f.u64(*retained);
                f.u64(*dropped);
                f.u64(*epoch);
                f.finish();
            }
            Reply::InfoAck {
                id,
                servers,
                shards,
                epoch,
                max_inflight,
            } => {
                let mut f = Framer::new(out, op::INFO_ACK, *id);
                f.u64(*servers);
                f.u32(*shards);
                f.u64(*epoch);
                f.u32(*max_inflight);
                f.finish();
            }
        }
    }

    /// Decodes a frame payload (the `len`-counted bytes).
    ///
    /// # Errors
    ///
    /// Same contract as [`Request::decode`].
    pub fn decode(payload: &[u8]) -> Result<Reply, WireError> {
        let (opcode, id, mut b) = header(payload)?;
        let reply = match opcode {
            op::ROUTE_OK => Reply::Route {
                id,
                outcome: b.outcome()?,
            },
            op::BATCH_OK => {
                let count = b.counted(1)?;
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    items.push(match b.u8()? {
                        0 => Ok(b.outcome()?),
                        1 => Err(b.route_error()?),
                        _ => return Err(WireError::Malformed("batch item tag")),
                    });
                }
                Reply::Batch { id, items }
            }
            op::ERROR => Reply::Error {
                id,
                error: b.route_error()?,
            },
            op::REJECT => Reply::Reject {
                id,
                reason: RejectReason::parse(b.u8()?)
                    .ok_or(WireError::Malformed("reject reason"))?,
            },
            op::MASK_ACK => Reply::MaskAck {
                id,
                incremental: match b.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::Malformed("mask ack flag")),
                },
                retained: b.u64()?,
                dropped: b.u64()?,
                epoch: b.u64()?,
            },
            op::INFO_ACK => Reply::InfoAck {
                id,
                servers: b.u64()?,
                shards: b.u32()?,
                epoch: b.u64()?,
                max_inflight: b.u32()?,
            },
            other => return Err(WireError::BadOpcode(other)),
        };
        b.done()?;
        Ok(reply)
    }
}

/// Splits one frame off the front of `buf`.
///
/// Returns `Ok(None)` when the buffer holds a prefix of a frame (read
/// more), or `Ok(Some((payload_range, consumed)))` where the payload is
/// `buf[LEN_BYTES..consumed]`.
///
/// # Errors
///
/// [`WireError::Oversized`] / [`WireError::Undersized`] when the length
/// prefix itself is invalid — the stream cannot be resynchronized and the
/// connection should be closed.
pub fn split_frame(
    buf: &[u8],
    max: usize,
) -> Result<Option<(std::ops::Range<usize>, usize)>, WireError> {
    if buf.len() < LEN_BYTES {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len < HEADER_BYTES {
        return Err(WireError::Undersized { len });
    }
    if len > max {
        return Err(WireError::Oversized { len, max });
    }
    let total = LEN_BYTES + len;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((LEN_BYTES..total, total)))
}

/// Parses the fixed header of a frame payload, returning the opcode, id
/// and a cursor over the body.
fn header(payload: &[u8]) -> Result<(u8, u64, Cursor<'_>), WireError> {
    if payload.len() < HEADER_BYTES {
        return Err(WireError::Truncated {
            promised: HEADER_BYTES,
            have: payload.len(),
        });
    }
    if payload[0] != WIRE_VERSION {
        return Err(WireError::BadVersion(payload[0]));
    }
    let opcode = payload[1];
    let id = u64::from_le_bytes(payload[2..10].try_into().expect("8 bytes"));
    Ok((opcode, id, Cursor(&payload[HEADER_BYTES..])))
}

/// Best-effort id extraction from a frame payload whose body may be
/// garbage — used to address typed rejects for malformed frames. Returns
/// 0 when even the header is short.
pub fn peek_id(payload: &[u8]) -> u64 {
    if payload.len() < HEADER_BYTES {
        return 0;
    }
    u64::from_le_bytes(payload[2..10].try_into().expect("8 bytes"))
}

/// Bounds-checked little-endian reader over a frame body.
struct Cursor<'a>(&'a [u8]);

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], WireError> {
        if self.0.len() < n {
            return Err(WireError::Truncated {
                promised: n,
                have: self.0.len(),
            });
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a count field and bounds it by the bytes remaining, assuming
    /// each counted element needs at least `min_elem_bytes` — a lying
    /// count can therefore never drive an allocation past the frame size.
    fn counted(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let count = self.u32()? as usize;
        if count.saturating_mul(min_elem_bytes) > self.0.len() {
            return Err(WireError::Malformed("count exceeds body"));
        }
        Ok(count)
    }

    fn remaining(&self) -> usize {
        self.0.len()
    }

    fn outcome(&mut self) -> Result<WireOutcome, WireError> {
        let tier = self.u8()?;
        if tier > 4 {
            return Err(WireError::Malformed("route tier"));
        }
        let attempts = self.u32()?;
        let backoff_units = self.u64()?;
        let n = self.counted(4)?;
        let mut nodes = Vec::with_capacity(n);
        for _ in 0..n {
            nodes.push(self.u32()?);
        }
        Ok(WireOutcome {
            tier,
            attempts,
            backoff_units,
            nodes,
        })
    }

    fn route_error(&mut self) -> Result<WireRouteError, WireError> {
        let code = self.u8()?;
        let a = self.u32()?;
        let b = self.u32()?;
        let attempts = self.u32()?;
        Ok(match code {
            1 => WireRouteError::NotAServer(a),
            2 => WireRouteError::Unreachable { src: a, dst: b },
            3 => WireRouteError::GaveUp {
                src: a,
                dst: b,
                attempts,
            },
            4 => WireRouteError::Internal,
            _ => return Err(WireError::Malformed("error code")),
        })
    }

    fn done(self) -> Result<(), WireError> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes"))
        }
    }
}

/// Writes a BATCH_OK frame one item at a time, so a server can encode
/// each answer as it comes instead of holding a [`Reply::Batch`]: the
/// item count, then the items, then the back-patched length prefix.
/// [`Reply::encode`] writes its batches through it too. The caller
/// appends exactly the `count` items it opened the frame with.
pub(crate) struct BatchWriter<'a>(Framer<'a>);

impl<'a> BatchWriter<'a> {
    /// Opens the reply to request `id`, of `count` items, at the end of
    /// `out`.
    pub(crate) fn new(out: &'a mut Vec<u8>, id: u64, count: usize) -> BatchWriter<'a> {
        let mut f = Framer::new(out, op::BATCH_OK, id);
        f.u32(count as u32);
        BatchWriter(f)
    }

    /// Appends a primary answer (tier 0, 1 attempt, no backoff) straight
    /// from its nodes: the bytes of
    /// `WireOutcome::from_outcome(&RouteOutcome::primary(route))`.
    pub(crate) fn primary(&mut self, nodes: &[netgraph::NodeId]) {
        self.0.u8(0);
        self.0.route(0, 1, 0, nodes.iter().map(|n| n.0));
    }

    /// Appends any answer.
    pub(crate) fn outcome(&mut self, o: &WireOutcome) {
        self.0.u8(0);
        self.0.outcome(o);
    }

    /// Appends a route failure.
    pub(crate) fn error(&mut self, e: &WireRouteError) {
        self.0.u8(1);
        self.0.route_error(e);
    }

    /// Back-patches the length prefix.
    pub(crate) fn finish(self) {
        self.0.finish();
    }
}

/// Little-endian frame writer: reserves the length prefix, appends the
/// header and body, then back-patches the prefix.
struct Framer<'a> {
    out: &'a mut Vec<u8>,
    start: usize,
}

impl<'a> Framer<'a> {
    fn new(out: &'a mut Vec<u8>, opcode: u8, id: u64) -> Framer<'a> {
        let start = out.len();
        out.extend_from_slice(&[0; LEN_BYTES]);
        out.push(WIRE_VERSION);
        out.push(opcode);
        out.extend_from_slice(&id.to_le_bytes());
        Framer { out, start }
    }

    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn outcome(&mut self, o: &WireOutcome) {
        self.route(o.tier, o.attempts, o.backoff_units, o.nodes.iter().copied());
    }

    /// The one layout of a route answer: tier, attempts, backoff units,
    /// then the counted node ids.
    fn route(
        &mut self,
        tier: u8,
        attempts: u32,
        backoff_units: u64,
        nodes: impl ExactSizeIterator<Item = u32>,
    ) {
        self.u8(tier);
        self.u32(attempts);
        self.u64(backoff_units);
        self.u32(nodes.len() as u32);
        for n in nodes {
            self.u32(n);
        }
    }

    fn route_error(&mut self, e: &WireRouteError) {
        let (code, a, b, attempts) = match e {
            WireRouteError::NotAServer(n) => (1, *n, 0, 0),
            WireRouteError::Unreachable { src, dst } => (2, *src, *dst, 0),
            WireRouteError::GaveUp { src, dst, attempts } => (3, *src, *dst, *attempts),
            WireRouteError::Internal => (4, 0, 0, 0),
        };
        self.u8(code);
        self.u32(a);
        self.u32(b);
        self.u32(attempts);
    }

    fn finish(self) {
        let len = (self.out.len() - self.start - LEN_BYTES) as u32;
        self.out[self.start..self.start + LEN_BYTES].copy_from_slice(&len.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: &Request) {
        let mut buf = Vec::new();
        req.encode(&mut buf);
        let (range, consumed) = split_frame(&buf, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(consumed, buf.len());
        assert_eq!(&Request::decode(&buf[range]).unwrap(), req);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(&Request::Query {
            id: 7,
            src: 1,
            dst: 2,
        });
        roundtrip_req(&Request::QueryBatch {
            id: u64::MAX,
            pairs: vec![(0, 0), (9, 4)],
        });
        roundtrip_req(&Request::QueryVlb {
            id: 1,
            seed: 99,
            src: 3,
            dst: 5,
        });
        roundtrip_req(&Request::MaskPush {
            id: 2,
            clear: false,
            nodes: vec![1, 2, 3],
            links: vec![9],
        });
        roundtrip_req(&Request::Info { id: 0 });
    }

    #[test]
    fn batch_writer_primary_items_encode_like_reply_batch() {
        let route = netgraph::Route::new(vec![
            netgraph::NodeId(3),
            netgraph::NodeId(40),
            netgraph::NodeId(5),
        ]);
        let primary = abccc::RouteOutcome::primary(route.clone());
        let error = WireRouteError::Unreachable { src: 3, dst: 9 };
        let mut want = Vec::new();
        Reply::Batch {
            id: 77,
            items: vec![
                Ok(WireOutcome::from_outcome(&primary)),
                Err(error),
                Ok(WireOutcome::from_outcome(&primary)),
            ],
        }
        .encode(&mut want);
        let mut got = Vec::new();
        let mut w = BatchWriter::new(&mut got, 77, 3);
        w.primary(route.nodes());
        w.error(&error);
        w.primary(route.nodes());
        w.finish();
        assert_eq!(got, want);
    }

    #[test]
    fn split_rejects_bad_lengths() {
        assert_eq!(split_frame(&[1, 2], DEFAULT_MAX_FRAME).unwrap(), None);
        let undersized = 3u32.to_le_bytes();
        assert!(matches!(
            split_frame(&undersized, DEFAULT_MAX_FRAME),
            Err(WireError::Undersized { len: 3 })
        ));
        let oversized = u32::MAX.to_le_bytes();
        assert!(matches!(
            split_frame(&oversized, 1024),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn decode_rejects_wrong_version_and_trailing_bytes() {
        let mut buf = Vec::new();
        Request::Query {
            id: 1,
            src: 2,
            dst: 3,
        }
        .encode(&mut buf);
        let (range, _) = split_frame(&buf, DEFAULT_MAX_FRAME).unwrap().unwrap();
        let mut payload = buf[range].to_vec();
        payload[0] = 9;
        assert_eq!(Request::decode(&payload), Err(WireError::BadVersion(9)));
        payload[0] = WIRE_VERSION;
        payload.push(0xFF);
        assert_eq!(
            Request::decode(&payload),
            Err(WireError::Malformed("trailing bytes"))
        );
    }
}
