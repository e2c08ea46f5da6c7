//! The route-server workloads: `abccc-cli serve 8 2 2 --port 0` (CLI
//! defaults: dense FIB, 8 shards, 4096-item in-flight budget) driven over
//! loopback TCP by one closed-loop `ServeClient` connection, from the
//! benchmark's main thread.
//!
//! | workload      | frames in flight | frame                      |
//! |---------------|------------------|----------------------------|
//! | `serve_bulk`  | 8                | 64-pair QUERY_BATCH        |
//! | `serve_faults`| 4                | 15×64-pair batch + 1 push  |
//!
//! Every reply frame is compared byte for byte with the encoding of
//! `ResilientRouter::new(RetryBudget::default()).route_explained(..)`,
//! computed before the timed window. The connection cycles through a
//! seeded schedule of frames whose expected replies are known, so the
//! oracle's cost does not grow with the run length.

use crate::json::{as_f64, as_str, field, Value};
use crate::proc::ServerProc;
use crate::quantile::Samples;
use crate::report::Outcome;
use crate::rng::Rng;
use crate::spans::{self, Span};
use abccc::{Abccc, AbcccParams, ResilientRouter, RetryBudget, RouteOutcome, RouteTier};
use dcn_fib::RouteService;
use dcn_serve::wire::{Reply, Request, WireOutcome, WireRouteError, LEN_BYTES};
use dcn_serve::ServeClient;
use netgraph::{FaultMask, LinkId, NodeId, RouteError, Topology};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::time::{Duration, Instant};

/// The served instance: ABCCC(8,2,2), 1,536 servers, a 9.4 MiB dense table.
const DIMS: [u32; 3] = [8, 2, 2];
/// The load runs in segments of about this many seconds; between two
/// segments it pauses while a fresh server is started, checked and
/// drained, so the starts behind `setup_s` span the whole run.
const SEGMENT_S: u64 = 3;
/// Batch frames in the `serve_bulk` schedule.
const BULK_FRAMES: usize = 2048;
/// Pairs per QUERY_BATCH frame.
const BATCH: usize = 64;
/// `serve_faults`: the seeded hot set the batches draw from.
const HOT_PAIRS: usize = 4096;
/// `serve_faults`: every 16th frame is a MASK_PUSH ...
const FRAMES_PER_PUSH: usize = 16;
/// ... and every 16th push is a clear (a repair).
const PUSHES_PER_REPAIR: usize = 16;
/// `serve_faults`: link failures each push adds to the accumulated set.
const LINKS_PER_PUSH: usize = 4;
/// `serve_faults`: distinct repair cycles before the schedule repeats.
const REPAIR_CYCLES: usize = 4;
/// Span names of the client calls.
const SEND: &str = "ServeClient::send_frame";
const RECV: &str = "ServeClient::recv_reply";
/// Traced runs alternate untraced and traced servers in slices this long.
const SLICE: Duration = Duration::from_millis(1000);
/// Untimed load on a fresh server before the first timed segment.
const WARMUP: Duration = Duration::from_secs(1);
/// `ops_per_s` is the median rate over blocks of this many consecutive
/// lookups (512 frames of 64). Fixed work per sample, not fixed time: a
/// stall of the host yields few blocks, so it moves the median only when
/// it holds up more than half the work, not half the run's time.
const BLOCK_LOOKUPS: u64 = 1 << 15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Bulk,
    Faults,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "serve_bulk" => Some(Kind::Bulk),
            "serve_faults" => Some(Kind::Faults),
            _ => None,
        }
    }

    fn window(self) -> usize {
        match self {
            Kind::Bulk => 8,
            Kind::Faults => 4,
        }
    }
}

/// What the reply to one scheduled frame must be.
enum Expect {
    /// The reply payload (version byte onwards) encoded with id 0.
    Payload(Vec<u8>),
    /// A MaskAck; its epoch is the count of pushes the server has seen.
    MaskAck {
        incremental: bool,
        retained: u64,
        dropped: u64,
    },
}

/// One scheduled frame with its oracle answer.
struct Frame {
    req: Request,
    expect: Expect,
    lookups: u64,
    /// Patch-cache fallbacks and hits the service contract implies.
    fallbacks: u64,
    hits: u64,
}

/// The connection's cyclic frame schedule.
struct Schedule {
    frames: Vec<Frame>,
    /// Largest patch-cache population the contract implies.
    patch_entries_max: usize,
}

fn topo() -> Abccc {
    let p = AbcccParams::new(DIMS[0], DIMS[1], DIMS[2]).expect("valid ABCCC dimensions");
    Abccc::new(p).expect("ABCCC(8,2,2) materializes")
}

fn oracle(
    topo: &Abccc,
    s: u32,
    d: u32,
    mask: Option<&FaultMask>,
) -> Result<RouteOutcome, RouteError> {
    ResilientRouter::new(RetryBudget::default()).route_explained(topo, NodeId(s), NodeId(d), mask)
}

fn wire_item(r: &Result<RouteOutcome, RouteError>) -> Result<WireOutcome, WireRouteError> {
    match r {
        Ok(o) => Ok(WireOutcome::from_outcome(o)),
        Err(e) => Err(WireRouteError::from_error(e)),
    }
}

/// The payload bytes (everything after the length prefix) of `reply`.
fn payload(reply: &Reply) -> Vec<u8> {
    let mut out = Vec::new();
    reply.encode(&mut out);
    out.split_off(LEN_BYTES)
}

/// Whether the compiled route of this pair is dead, so the service answers
/// it through its fallback ladder and patch cache.
fn needs_fallback(r: &Result<RouteOutcome, RouteError>) -> bool {
    !matches!(r, Ok(o) if o.tier == RouteTier::Primary)
}

/// The documented invalidation rule for a mask that covers the installed
/// one: a cached error stays (failure is monotone), a cached route stays
/// iff it is still fully alive.
fn survives(
    cached: &Result<RouteOutcome, RouteError>,
    net: &netgraph::Network,
    mask: &FaultMask,
) -> bool {
    match cached {
        Err(_) => true,
        Ok(o) => o.route.validate(net, Some(mask)).is_ok(),
    }
}

fn random_pair(rng: &mut Rng, servers: u64) -> (u32, u32) {
    let s = rng.below(servers);
    let d = (s + 1 + rng.below(servers - 1)) % servers;
    (s as u32, d as u32)
}

fn batch_frame(topo: &Abccc, pairs: Vec<(u32, u32)>) -> Frame {
    let items = pairs
        .iter()
        .map(|&(s, d)| wire_item(&oracle(topo, s, d, None)))
        .collect();
    Frame {
        expect: Expect::Payload(payload(&Reply::Batch { id: 0, items })),
        req: Request::QueryBatch { id: 0, pairs },
        lookups: BATCH as u64,
        fallbacks: 0,
        hits: 0,
    }
}

/// The seeded schedule of the workload's connection.
fn schedule(kind: Kind, topo: &Abccc, seed: u64) -> Schedule {
    let servers = topo.params().server_count();
    let mut rng = Rng::new(seed, 1);
    match kind {
        Kind::Bulk => Schedule {
            frames: (0..BULK_FRAMES)
                .map(|_| {
                    let pairs = (0..BATCH).map(|_| random_pair(&mut rng, servers)).collect();
                    batch_frame(topo, pairs)
                })
                .collect(),
            patch_entries_max: 0,
        },
        Kind::Faults => faults_schedule(topo, &mut rng),
    }
}

/// `serve_faults`: 15 batches from the hot set, then a push that adds
/// [`LINKS_PER_PUSH`] link failures to the accumulated set; every
/// [`PUSHES_PER_REPAIR`]th push clears. Answers follow the installed mask,
/// and a model of the documented patch-cache contract predicts each
/// MaskAck and the fallback/hit counts.
fn faults_schedule(topo: &Abccc, rng: &mut Rng) -> Schedule {
    let servers = topo.params().server_count();
    let net = topo.network();
    let links = net.link_count() as u64;
    let hot: Vec<(u32, u32)> = (0..HOT_PAIRS).map(|_| random_pair(rng, servers)).collect();
    let mut frames = Vec::new();
    let mut patch_entries_max = 0;
    for _ in 0..REPAIR_CYCLES {
        let mut failed: Vec<u32> = Vec::new();
        let mut mask: Option<FaultMask> = None;
        let mut patches: HashMap<(u32, u32), Result<RouteOutcome, RouteError>> = HashMap::new();
        let mut answers: HashMap<(u32, u32), Result<RouteOutcome, RouteError>> = HashMap::new();
        for push in 0..PUSHES_PER_REPAIR {
            for _ in 1..FRAMES_PER_PUSH {
                let pairs: Vec<(u32, u32)> = (0..BATCH)
                    .map(|_| hot[rng.below(HOT_PAIRS as u64) as usize])
                    .collect();
                let (mut fallbacks, mut hits) = (0, 0);
                let items = pairs
                    .iter()
                    .map(|&pair| {
                        let ans = answers
                            .entry(pair)
                            .or_insert_with(|| oracle(topo, pair.0, pair.1, mask.as_ref()));
                        if mask.is_some() && needs_fallback(ans) {
                            match patches.entry(pair) {
                                Entry::Occupied(_) => hits += 1,
                                Entry::Vacant(slot) => {
                                    fallbacks += 1;
                                    slot.insert(ans.clone());
                                }
                            }
                        }
                        wire_item(ans)
                    })
                    .collect();
                patch_entries_max = patch_entries_max.max(patches.len());
                frames.push(Frame {
                    expect: Expect::Payload(payload(&Reply::Batch { id: 0, items })),
                    req: Request::QueryBatch { id: 0, pairs },
                    lookups: BATCH as u64,
                    fallbacks,
                    hits,
                });
            }
            answers.clear();
            let (req, expect) = if push + 1 == PUSHES_PER_REPAIR {
                mask = None;
                patches.clear();
                (
                    Request::MaskPush {
                        id: 0,
                        clear: true,
                        nodes: Vec::new(),
                        links: Vec::new(),
                    },
                    Expect::MaskAck {
                        incremental: false,
                        retained: 0,
                        dropped: 0,
                    },
                )
            } else {
                while failed.len() < (push + 1) * LINKS_PER_PUSH {
                    let l = rng.below(links) as u32;
                    if !failed.contains(&l) {
                        failed.push(l);
                    }
                }
                let mut m = FaultMask::new(net);
                for &l in &failed {
                    m.fail_link(LinkId(l));
                }
                // The new mask covers the installed one (faults only
                // accumulate), so invalidation is incremental.
                let (mut retained, mut dropped) = (0, 0);
                patches.retain(|_, cached| {
                    let keep = survives(cached, net, &m);
                    if keep {
                        retained += 1;
                    } else {
                        dropped += 1;
                    }
                    keep
                });
                mask = Some(m);
                (
                    Request::MaskPush {
                        id: 0,
                        clear: false,
                        nodes: Vec::new(),
                        links: failed.clone(),
                    },
                    Expect::MaskAck {
                        incremental: true,
                        retained,
                        dropped,
                    },
                )
            };
            frames.push(Frame {
                req,
                expect,
                lookups: 0,
                fallbacks: 0,
                hits: 0,
            });
        }
    }
    Schedule {
        frames,
        patch_entries_max,
    }
}

fn set_id(req: &mut Request, new: u64) {
    match req {
        Request::Query { id, .. }
        | Request::QueryBatch { id, .. }
        | Request::QueryVlb { id, .. }
        | Request::MaskPush { id, .. }
        | Request::Info { id } => *id = new,
    }
}

/// Failed lookups in a reply that does not match its expected payload:
/// the differing items when both decode as equal-length batches, else
/// every lookup the frame carried (at least one operation).
fn failed_items(got: &[u8], want: &[u8], lookups: u64) -> u64 {
    if let (Ok(Reply::Batch { items: a, .. }), Ok(Reply::Batch { items: b, .. })) =
        (Reply::decode(got), Reply::decode(want))
    {
        if a.len() == b.len() {
            return a.iter().zip(&b).filter(|(x, y)| x != y).count().max(1) as u64;
        }
    }
    lookups.max(1)
}

/// Everything the connection observed.
#[derive(Default)]
pub struct ConnStats {
    pub frames: u64,
    pub lookups: u64,
    pub pushes: u64,
    pub failed: u64,
    /// Per answered frame: (seconds of load since the run started, pauses
    /// left out; round trip µs; lookups answered).
    pub log: Vec<(f64, f64, u64)>,
    pub fallbacks: u64,
    pub hits: u64,
    pub error: Option<String>,
}

impl ConnStats {
    /// Every frame's round trip, µs.
    fn rtt_us(&self) -> Samples {
        let mut s = Samples::default();
        for &(_, rtt, _) in &self.log {
            s.push(rtt);
        }
        s
    }
}

/// A resumable closed-loop connection over one schedule.
struct Conn<'s> {
    client: ServeClient,
    sched: &'s Schedule,
    reqs: Vec<Request>,
    next: usize,
    window: usize,
    inflight: VecDeque<(usize, u64, Instant)>,
    st: ConnStats,
    /// Client spans of the traced side, kept locally until the run ends.
    spans: Option<Vec<Span>>,
    /// Start of the current segment of load, and the seconds of load
    /// before it.
    epoch0: Instant,
    driven_s: f64,
    /// Self-test: flip one byte of this (1-based) reply before checking.
    corrupt_reply: Option<u64>,
}

impl<'s> Conn<'s> {
    fn new(client: ServeClient, sched: &'s Schedule, window: usize, traced: bool) -> Conn<'s> {
        Conn {
            client,
            sched,
            reqs: sched.frames.iter().map(|f| f.req.clone()).collect(),
            next: 0,
            window,
            inflight: VecDeque::with_capacity(window),
            st: ConnStats::default(),
            spans: traced.then(Vec::new),
            epoch0: Instant::now(),
            driven_s: 0.0,
            corrupt_reply: None,
        }
    }

    /// Keeps `window` frames in flight until `deadline`, then drains the
    /// frames still in flight.
    fn run_until(&mut self, deadline: Instant) {
        if self.st.error.is_some() {
            return;
        }
        while self.inflight.len() < self.window && Instant::now() < deadline {
            if !self.send() {
                return;
            }
        }
        while !self.inflight.is_empty() {
            if !self.recv() {
                return;
            }
            if Instant::now() < deadline && !self.send() {
                return;
            }
        }
    }

    fn send(&mut self) -> bool {
        let idx = self.next;
        self.next = (self.next + 1) % self.reqs.len();
        let id = self.client.next_id();
        set_id(&mut self.reqs[idx], id);
        let t0 = Instant::now();
        let r = self.client.send_frame(&self.reqs[idx]);
        let t1 = Instant::now();
        if let Some(sp) = &mut self.spans {
            sp.push(spans::span(SEND, id, t0, t1));
        }
        match r {
            Ok(()) => {
                self.inflight.push_back((idx, id, t0));
                true
            }
            Err(e) => {
                self.st.failed += self.sched.frames[idx].lookups.max(1);
                self.abort(format!("send_frame: {e}"));
                false
            }
        }
    }

    fn recv(&mut self) -> bool {
        let (idx, id, sent) = self.inflight.pop_front().expect("a frame in flight");
        let t0 = Instant::now();
        let r = self.client.recv_reply();
        let t1 = Instant::now();
        let frame = &self.sched.frames[idx];
        let mut got = match r {
            Ok((_, payload)) => payload,
            Err(e) => {
                self.st.failed += frame.lookups.max(1);
                self.abort(format!("recv_reply: {e}"));
                return false;
            }
        };
        if let Some(sp) = &mut self.spans {
            sp.push(spans::span(RECV, id, t0, t1));
        }
        let rtt = (t1 - sent).as_secs_f64() * 1e6;
        let t = (t1 - self.epoch0).as_secs_f64() + self.driven_s;
        self.st.log.push((t, rtt, frame.lookups));
        self.st.frames += 1;
        self.st.lookups += frame.lookups;
        self.st.fallbacks += frame.fallbacks;
        self.st.hits += frame.hits;
        if self.corrupt_reply == Some(self.st.frames) {
            let last = got.len() - 1;
            got[last] ^= 0x01;
        }
        let ack;
        let want: &[u8] = match &frame.expect {
            Expect::Payload(p) => p,
            Expect::MaskAck {
                incremental,
                retained,
                dropped,
            } => {
                self.st.pushes += 1;
                ack = payload(&Reply::MaskAck {
                    id: 0,
                    incremental: *incremental,
                    retained: *retained,
                    dropped: *dropped,
                    epoch: self.st.pushes,
                });
                &ack
            }
        };
        let same = got.len() == want.len()
            && got.len() >= 10
            && got[..2] == want[..2]
            && got[2..10] == id.to_le_bytes()
            && got[10..] == want[10..];
        if !same {
            self.st.failed += failed_items(&got, want, frame.lookups);
        }
        true
    }

    fn abort(&mut self, why: String) {
        for (idx, _, _) in self.inflight.drain(..) {
            self.st.failed += self.sched.frames[idx].lookups.max(1);
        }
        self.st.error = Some(why);
    }
}

/// A started server plus its connected client, and what starting cost.
struct Started {
    server: ServerProc,
    client: ServeClient,
    setup: Duration,
    connect_us: f64,
}

fn start(bin: &Path, extra: &[String]) -> Result<Started, String> {
    let mut args: Vec<String> = DIMS.iter().map(u32::to_string).collect();
    args.extend(["--port".into(), "0".into()]);
    args.extend_from_slice(extra);
    let t0 = Instant::now();
    let server = ServerProc::start(bin, &args)?;
    let c0 = Instant::now();
    let client = ServeClient::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    let connect_us = c0.elapsed().as_secs_f64() * 1e6;
    spans::record("ServeClient::connect", 0, c0);
    Ok(Started {
        server,
        client,
        setup: t0.elapsed(),
        connect_us,
    })
}

/// Checks the server's exit line against the one connection and the
/// pushes the benchmark made; returns a problem description on mismatch.
fn check_drain(line: &str, pushes: u64) -> Option<String> {
    let want = format!("drained 1 connection(s) at epoch {pushes}");
    (line != want).then(|| format!("server exit line {line:?}, expected {want:?}"))
}

/// Set-up measurements of one run, one sample per server start.
#[derive(Default)]
struct Setup {
    total_s: Samples,
    ready_s: Samples,
    connect_us: Samples,
}

impl Setup {
    fn add(&mut self, s: &Started) {
        self.total_s.push(s.setup.as_secs_f64());
        self.ready_s.push(s.server.ready.as_secs_f64());
        self.connect_us.push(s.connect_us);
    }
}

/// One set-up sample while the load pauses: starts a fresh server, opens
/// the connection, checks one query on it (so the server has accepted the
/// connection before it is told to drain) and drains it.
fn side_setup(
    bin: &Path,
    topo: &Abccc,
    setup: &mut Setup,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut s = start(bin, &[])?;
    setup.add(&s);
    let want = oracle(topo, 0, 1, None).map_err(|e| format!("oracle: {e}"))?;
    let got = s
        .client
        .query(0, 1)
        .map_err(|e| format!("set-up query: {e}"))?;
    out.attempted += 1;
    if !matches!(&got, Reply::Route { outcome, .. } if *outcome == WireOutcome::from_outcome(&want))
    {
        out.failed += 1;
    }
    drop(s.client);
    finish(s.server, 0, out)
}

/// Runs the connection until `deadline` and returns the wall time it took.
fn drive(conn: &mut Conn<'_>, deadline: Instant) -> Duration {
    let t0 = Instant::now();
    conn.epoch0 = t0;
    conn.run_until(deadline);
    let wall = t0.elapsed();
    conn.driven_s += wall.as_secs_f64();
    wall
}

/// Folds the connection's results into the outcome; returns its stats and
/// its client spans (traced side only).
fn collect(conn: Conn<'_>, out: &mut Outcome) -> (ConnStats, Vec<Span>) {
    let st = conn.st;
    if let Some(e) = &st.error {
        out.problems.push(e.clone());
    }
    out.attempted += st.lookups + st.pushes;
    out.failed += st.failed;
    (st, conn.spans.unwrap_or_default())
}

/// Drains a server after its run and checks its exit line.
fn finish(server: ServerProc, pushes: u64, out: &mut Outcome) -> Result<(), String> {
    let line = server.drain()?;
    out.attempted += 1;
    if let Some(p) = check_drain(&line, pushes) {
        out.failed += 1;
        out.problems.push(p);
    }
    Ok(())
}

/// The end-to-end run: tracing off everywhere. After [`WARMUP`] of
/// untimed load, the load runs for `seconds` in segments of about
/// [`SEGMENT_S`]; after each segment a fresh server is started and drained
/// (see [`side_setup`]).
pub fn run(
    kind: Kind,
    bin: &Path,
    seed: u64,
    seconds: u64,
    corrupt_reply: Option<u64>,
) -> Result<Outcome, String> {
    let topo = topo();
    let sched = schedule(kind, &topo, seed);
    let mut out = Outcome::default();
    let mut setup = Setup::default();
    let started = start(bin, &[])?;
    setup.add(&started);
    let Started { server, client, .. } = started;
    let mut conn = Conn::new(client, &sched, kind.window(), false);
    conn.corrupt_reply = corrupt_reply;
    // Warm-up replies are checked and counted, but not timed.
    drive(&mut conn, Instant::now() + WARMUP);
    conn.st.log.clear();
    conn.driven_s = 0.0;
    let segments = (seconds / SEGMENT_S).max(1);
    let segment = Duration::from_secs(seconds) / segments as u32;
    let mut wall = Duration::ZERO;
    for _ in 0..segments {
        wall += drive(&mut conn, Instant::now() + segment);
        side_setup(bin, &topo, &mut setup, &mut out)?;
    }
    let rss = server.peak_rss_bytes();
    let (st, _) = collect(conn, &mut out);
    finish(server, st.pushes, &mut out)?;
    let mut rtt_us = st.rtt_us();
    let timed_lookups: u64 = st.log.iter().map(|&(_, _, l)| l).sum();

    let mut rates = Samples::default();
    for r in block_rates(&st.log) {
        rates.push(r);
    }
    out.metric("ops_per_s", rates.median().unwrap_or(0.0), "1/s");
    out.quantile("latency_p50_us", &mut rtt_us, 0.5);
    let mut setup_total = setup.total_s;
    out.metric("setup_s", setup_total.median().unwrap_or(0.0), "s");
    out.metric("peak_rss_mb", rss.unwrap_or(0) as f64 / 1e6, "MB");
    out.notes.push(format!(
        "ops_per_s is the median of {} blocks of {BLOCK_LOOKUPS} lookups ({:.0}-{:.0}/s; {:.0}/s over the whole run)",
        rates.len(),
        rates.quantile(0.0).unwrap_or(0.0),
        rates.quantile(1.0).unwrap_or(0.0),
        timed_lookups as f64 / wall.as_secs_f64()
    ));
    out.notes.push(format!(
        "setup_s is the median of {} server starts ({:.3}-{:.3} s)",
        setup_total.len(),
        setup_total.quantile(0.0).unwrap_or(0.0),
        setup_total.quantile(1.0).unwrap_or(0.0),
    ));
    out.notes.push(format!(
        "latency from {} frame round trips; p99 {:.1} us (not gated, see README)",
        rtt_us.len(),
        rtt_us.quantile(0.99).unwrap_or(0.0)
    ));
    Ok(out)
}

/// Lookups answered per second over each block of [`BLOCK_LOOKUPS`]
/// consecutive lookups, in completion order, pauses left out.
fn block_rates(log: &[(f64, f64, u64)]) -> Vec<f64> {
    let mut rates = Vec::new();
    let (mut t0, mut n) = (0.0, 0);
    for &(t, _, l) in log {
        n += l;
        if n >= BLOCK_LOOKUPS {
            rates.push(n as f64 / (t - t0));
            (t0, n) = (t, 0);
        }
    }
    rates
}

/// Reads the program's `--metrics-out` JSON lines into name → line.
fn program_metrics(path: &Path) -> Result<HashMap<String, Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = HashMap::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with("{\"type\":\"span\""))
    {
        let v: Value = serde_json::from_str(line).map_err(|e| format!("metrics line: {e}"))?;
        if let Some(name) = field(&v, "name").and_then(as_str) {
            out.insert(name.to_string(), v.clone());
        }
    }
    Ok(out)
}

fn num(m: &HashMap<String, Value>, name: &str, key: &str) -> f64 {
    m.get(name)
        .and_then(|v| field(v, key))
        .and_then(as_f64)
        .unwrap_or(0.0)
}

/// The traced run: an untraced and a traced server (`--metrics-out`, plus
/// client spans) alternate in one-second slices over the same schedules,
/// with a fresh server started and drained about every [`SEGMENT_S`];
/// then the in-process probes run on the run's own inputs.
pub fn run_traced(
    kind: Kind,
    bin: &Path,
    tmp: &Path,
    seed: u64,
    seconds: u64,
) -> Result<Outcome, String> {
    let topo = topo();
    let sched = schedule(kind, &topo, seed);
    let mut out = Outcome::default();
    let mut setup = Setup::default();
    let plain = start(bin, &[])?;
    setup.add(&plain);
    let metrics_path = tmp.join("serve.metrics.jsonl");
    let traced = start(
        bin,
        &["--metrics-out".into(), metrics_path.display().to_string()],
    )?;
    let mut sides: Vec<(ServerProc, Conn<'_>, Duration)> = [(plain, false), (traced, true)]
        .into_iter()
        .map(|(s, tr)| {
            (
                s.server,
                Conn::new(s.client, &sched, kind.window(), tr),
                Duration::ZERO,
            )
        })
        .collect();
    let end = Instant::now() + Duration::from_secs(seconds);
    let mut next_setup = Instant::now() + Duration::from_secs(SEGMENT_S);
    while Instant::now() < end {
        for (_, conn, wall) in &mut sides {
            *wall += drive(conn, Instant::now() + SLICE);
        }
        if Instant::now() >= next_setup {
            side_setup(bin, &topo, &mut setup, &mut out)?;
            next_setup = Instant::now() + Duration::from_secs(SEGMENT_S);
        }
    }
    let mut rates = Vec::new();
    let mut stats = Vec::new();
    for (server, conn, wall) in sides {
        let (st, spans) = collect(conn, &mut out);
        finish(server, st.pushes, &mut out)?;
        rates.push(st.lookups as f64 / wall.as_secs_f64());
        stats.push((st, spans));
    }
    let (st, client_spans) = stats.pop().expect("the traced side ran");
    let (plain_st, _) = stats.pop().expect("the untraced side ran");
    let pm = program_metrics(&metrics_path)?;

    // The tail of the untraced side: printed for diagnosis, not gated.
    out.quantile("latency_p99_us", &mut plain_st.rtt_us(), 0.99);

    out.metric(
        "trace_overhead_pct",
        100.0 * (1.0 - rates[1] / rates[0]),
        "%",
    );
    let send = spans::durations(&client_spans, SEND)
        .median()
        .unwrap_or(0.0);
    let recv = spans::durations(&client_spans, RECV)
        .median()
        .unwrap_or(0.0);
    spans::record_all(client_spans);
    out.metric("serve.client.send_us", send, "us");
    out.metric("serve.client.recv_us", recv, "us");

    let probe0 = Instant::now();
    let (encode, decode, reply_bytes) = wire_probe(&sched);
    spans::record("probe: Request::encode / Reply::decode", 0, probe0);
    out.metric("serve.wire.encode_us", encode, "us");
    out.metric("serve.wire.decode_us", decode, "us");
    out.metric("serve.wire.reply_bytes", reply_bytes, "B");

    let group_us = num(&pm, "serve.group_ns", "p50") / 1e3;
    let groups = num(&pm, "serve.group_ns", "count");
    out.metric("serve.server.group_us", group_us, "us");
    out.metric(
        "serve.server.frames_per_group",
        if groups > 0.0 {
            num(&pm, "serve.requests", "value") / groups
        } else {
            0.0
        },
        "count",
    );
    out.metric(
        "serve.server.items_per_group",
        num(&pm, "serve.batch_size", "mean"),
        "count",
    );
    out.metric(
        "serve.server.rejects",
        num(&pm, "serve.rejects", "value"),
        "count",
    );
    let rtt = st.rtt_us().median().unwrap_or(0.0);
    if rtt > 0.0 {
        out.metric(
            "serve.unaccounted_pct",
            100.0 * (rtt - send - group_us - decode) / rtt,
            "%",
        );
    }

    fib_probe(kind, &topo, &sched, &mut out)?;
    out.metric(
        "serve.setup.ready_s",
        setup.ready_s.clone().median().unwrap_or(0.0),
        "s",
    );
    let mut connect = setup.connect_us;
    out.metric(
        "serve.setup.connect_us",
        connect.median().unwrap_or(0.0),
        "us",
    );

    if kind == Kind::Faults {
        let (fallbacks, hits) = (
            num(&pm, "fib.fallbacks", "value"),
            num(&pm, "fib.patch_hits", "value"),
        );
        out.metric("fib.fallbacks", fallbacks, "count");
        out.metric(
            "fib.patch_hit_ratio",
            if hits + fallbacks > 0.0 {
                hits / (hits + fallbacks)
            } else {
                0.0
            },
            "ratio",
        );
        out.metric(
            "fib.patch_entries_max",
            sched.patch_entries_max as f64,
            "count",
        );
        // The traced server saw exactly the frames the model answered, so
        // its counters must equal the model's: one checked operation.
        out.attempted += 1;
        if (fallbacks, hits) != (st.fallbacks as f64, st.hits as f64) {
            out.failed += 1;
            out.problems.push(format!(
                "patch-cache counters differ from the contract model: program {fallbacks} fallbacks / {hits} hits, model {} / {}",
                st.fallbacks, st.hits
            ));
        } else {
            out.notes.push(format!(
                "patch-cache counters equal the contract model: {fallbacks} fallbacks, {hits} hits"
            ));
        }
        out.notes.push("fib.patch_entries_max comes from the contract model; the program keeps only a last-value gauge".into());
    }
    out.notes.push(format!(
        "traced server: {:.0} lookups/s traced vs {:.0} untraced, {} frames, RTT p50 {rtt:.1} us",
        rates[1], rates[0], st.frames
    ));
    Ok(out)
}

/// Median µs of `Request::encode` and `Reply::decode` over the schedule's
/// frames, and the mean reply frame size in bytes.
fn wire_probe(sched: &Schedule) -> (f64, f64, f64) {
    let mut enc = Samples::default();
    let mut dec = Samples::default();
    let mut bytes = Samples::default();
    let mut buf = Vec::with_capacity(1024);
    for f in sched.frames.iter().take(4096) {
        buf.clear();
        let t0 = Instant::now();
        f.req.encode(&mut buf);
        enc.push(t0.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(&buf);
        if let Expect::Payload(p) = &f.expect {
            let t0 = Instant::now();
            let r = Reply::decode(std::hint::black_box(p));
            dec.push(t0.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(r.is_ok());
            bytes.push((p.len() + LEN_BYTES) as f64);
        }
    }
    (
        enc.median().unwrap_or(0.0),
        dec.median().unwrap_or(0.0),
        bytes.mean().unwrap_or(0.0),
    )
}

/// In-process `RouteService` probes on the run's own pairs and masks.
fn fib_probe(kind: Kind, topo: &Abccc, sched: &Schedule, out: &mut Outcome) -> Result<(), String> {
    let mut compile = Samples::default();
    let mut svc = None;
    for rep in 0..3 {
        let t0 = Instant::now();
        let s = RouteService::compile(topo.clone(), 8).map_err(|e| e.to_string())?;
        compile.push(t0.elapsed().as_secs_f64());
        spans::record("probe: RouteService::compile", rep, t0);
        svc = Some(s);
    }
    let mut svc = svc.expect("compiled");
    out.metric("fib.compile_s", compile.median().unwrap_or(0.0), "s");

    let pairs: Vec<(NodeId, NodeId)> = sched
        .frames
        .iter()
        .flat_map(|f| match &f.req {
            Request::QueryBatch { pairs, .. } => pairs.as_slice(),
            _ => &[],
        })
        .map(|&(s, d)| (NodeId(s), NodeId(d)))
        .take(1 << 16)
        .collect();
    // Per-pair walk cost, timed over chunks of 64 calls.
    let probe0 = Instant::now();
    let mut per_pair = Samples::default();
    for chunk in pairs.chunks(BATCH) {
        let t0 = Instant::now();
        for &(s, d) in chunk {
            std::hint::black_box(svc.query(s, d).is_ok());
        }
        per_pair.push(t0.elapsed().as_secs_f64() * 1e9 / chunk.len() as f64);
    }
    spans::record("probe: RouteService::query", 0, probe0);
    let query_ns = per_pair.median().unwrap_or(0.0);
    out.metric("fib.query_ns", query_ns, "ns");
    // The route-query items the connection keeps in flight.
    let n = kind.window() * BATCH;
    let probe0 = Instant::now();
    let mut batch = Samples::default();
    for chunk in pairs.chunks(n).filter(|c| c.len() == n).take(2048) {
        let t0 = Instant::now();
        std::hint::black_box(svc.query_batch(chunk).len());
        batch.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    spans::record("probe: RouteService::query_batch", n as u64, probe0);
    let batch_us = batch.median().unwrap_or(0.0);
    out.metric("fib.query_batch_us", batch_us, "us");
    if query_ns > 0.0 {
        out.metric(
            "fib.fanout_ratio",
            batch_us * 1e3 / n as f64 / query_ns,
            "ratio",
        );
    }

    if kind == Kind::Faults {
        // Replay the schedule in process: time each apply_mask, and each
        // query that misses the patch cache under the installed mask (the
        // cache is mirrored with the same contract model as the schedule).
        let probe0 = Instant::now();
        let net = topo.network();
        let mut apply = Samples::default();
        let mut fallback = Samples::default();
        let mut patched: HashMap<(u32, u32), Result<RouteOutcome, RouteError>> = HashMap::new();
        for f in &sched.frames {
            match &f.req {
                Request::MaskPush { clear: true, .. } => {
                    svc.clear_faults();
                    patched.clear();
                }
                Request::MaskPush { links, .. } => {
                    let mut m = FaultMask::new(net);
                    for &l in links {
                        m.fail_link(LinkId(l));
                    }
                    patched.retain(|_, cached| survives(cached, net, &m));
                    let t0 = Instant::now();
                    std::hint::black_box(svc.apply_mask(m));
                    apply.push(t0.elapsed().as_secs_f64() * 1e6);
                }
                Request::QueryBatch { pairs, .. } => {
                    for &(s, d) in pairs {
                        let t0 = Instant::now();
                        let r = svc.query(NodeId(s), NodeId(d));
                        let dt = t0.elapsed().as_secs_f64() * 1e6;
                        if svc.mask().is_some()
                            && needs_fallback(&r)
                            && !patched.contains_key(&(s, d))
                        {
                            fallback.push(dt);
                            patched.insert((s, d), r);
                        }
                    }
                }
                _ => {}
            }
        }
        spans::record("probe: fault schedule replay", 0, probe0);
        out.metric("fib.apply_mask_us", apply.median().unwrap_or(0.0), "us");
        out.metric("fib.fallback_us", fallback.median().unwrap_or(0.0), "us");
    }
    Ok(())
}
