//! The concurrent route-query service.
//!
//! [`RouteService`] answers src→dst queries from a compiled [`HierFib`]
//! on whichever thread asks. The healthy hot path is lock-free: a walk
//! over immutable tables, nothing shared but reads. Under an installed
//! fault mask the walk additionally checks liveness per hop; only when the
//! compiled route is actually broken does the query fall back to a full
//! [`ResilientRouter`] recomputation, whose outcome is memoized in a
//! per-shard patch cache so each broken pair pays the escalation ladder
//! once.
//!
//! Every lookup takes one path, [`RouteService::lookup_into`]: the walk
//! goes into a buffer the caller owns, and only an answer that is not the
//! walk itself (a fallback, a patch-cache hit or an error) comes back as
//! an owned outcome. [`RouteService::query`] wraps it in a fresh buffer
//! and a [`Route`]; a caller that reuses one buffer, like the route
//! server encoding a batch, allocates nothing per healthy pair.
//!
//! # Equivalence contract (pinned by the property tests)
//!
//! For every pair and mask, [`RouteService::query`] returns bit for bit
//! what `ResilientRouter::new(budget).route_explained(topo, src, dst,
//! mask)` returns — and on the healthy path that is also exactly
//! `DigitRouter::shortest()`'s route. This holds because the table is
//! compiled from the ladder's first rung
//! ([`PermStrategy::DestinationAware`], enforced at construction): a live
//! walk *is* the rung-0 hit (`Primary`, 1 attempt, no backoff), and a dead
//! walk means rung 0 fails, which is where the recomputation ladder starts.
//!
//! # Incremental invalidation contract
//!
//! Applying a new mask that [`FaultMask::covers`] the installed one (fault
//! accumulation, the common case during an outage) keeps every patch whose
//! cached route is still fully alive, and every cached error: under a
//! superset mask, ladder candidates rejected earlier stay rejected
//! (failure is monotone), so a cached outcome whose route survives is
//! exactly what recomputation would return, and `Unreachable`/`GaveUp`
//! can only stay that way. Any *repair* (non-superset mask) clears all
//! patches — cheap, because the compiled table itself never recompiles.

use crate::compile::{FibCompiler, FibError};
use crate::hier::HierFib;
use abccc::router::{check_endpoints, pair_seed};
use abccc::vlb::route_two_stage_with;
use abccc::{Abccc, PermStrategy, ResilientRouter, RetryBudget, RouteOutcome, ServerAddr};
use netgraph::{FaultMask, FaultScenario, NodeId, Route, RouteError, Topology};
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// What [`RouteService::apply_mask`] did to the patch caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidationReport {
    /// `true` when the new mask covered the installed one and patches were
    /// revalidated individually; `false` when a repair forced a full clear.
    pub incremental: bool,
    /// Patches kept (cached route still fully alive, or a cached error).
    pub retained: usize,
    /// Patches dropped for on-demand recomputation.
    pub dropped: usize,
}

/// What [`RouteService::lookup_into`] left for its caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// The caller's buffer holds the primary route: the compiled table's
    /// walk, alive end to end (tier 0, 1 attempt, no backoff).
    Primary,
    /// Any other answer, owned: a fresh fallback, a patch-cache hit or an
    /// error. The buffer's contents are then unspecified.
    Owned(Result<RouteOutcome, RouteError>),
}

type Patches = HashMap<(u32, u32), Result<RouteOutcome, RouteError>>;

/// One shard: a mutex-guarded memo of fallback outcomes for the pairs
/// hashed to it. Shards only serialize queries *within* a shard, and only
/// on the (already expensive) fallback path.
#[derive(Debug, Default)]
struct Shard {
    patches: Mutex<Patches>,
    /// `patches.len()`, stored under the lock after every change, so
    /// [`RouteService::patch_count`] sums shards without locking them.
    len: AtomicUsize,
}

impl Shard {
    /// Runs `f` on the locked cache, then republishes its length.
    fn update<R>(&self, f: impl FnOnce(&mut Patches) -> R) -> R {
        let mut patches = self.patches.lock().expect("patch cache");
        let out = f(&mut patches);
        // Relaxed: the count is a statistic and publishes no other data.
        self.len.store(patches.len(), Ordering::Relaxed);
        out
    }
}

/// A concurrently-queryable forwarding plane over a compiled [`HierFib`],
/// with its patch cache split into shards (see the module docs for the
/// equivalence and invalidation contracts).
#[derive(Debug)]
pub struct RouteService {
    topo: Abccc,
    table: HierFib,
    budget: RetryBudget,
    mask: Option<FaultMask>,
    shards: Vec<Shard>,
}

impl RouteService {
    /// Builds a service over an already-compiled table. `shards` is
    /// rounded up to a power of two and clamped to `[1, 1024]`.
    ///
    /// # Errors
    ///
    /// * [`FibError::ServiceRequiresShortest`] — the table is not
    ///   destination-aware (see the equivalence contract);
    /// * [`FibError::TopologyMismatch`] — the table was compiled for other
    ///   parameters than `topo`'s.
    pub fn with_table(topo: Abccc, table: HierFib, shards: usize) -> Result<Self, FibError> {
        if table.strategy() != PermStrategy::DestinationAware {
            return Err(FibError::ServiceRequiresShortest {
                strategy: table.strategy().label(),
            });
        }
        if table.params() != topo.params() {
            return Err(FibError::TopologyMismatch {
                table: *table.params(),
                topo: *topo.params(),
            });
        }
        let shard_count = shards.clamp(1, 1024).next_power_of_two();
        Ok(RouteService {
            topo,
            table,
            budget: RetryBudget::default(),
            mask: None,
            shards: (0..shard_count).map(|_| Shard::default()).collect(),
        })
    }

    /// Compiles the destination-aware table for `topo` and wraps it in a
    /// service — the one-call entry point. The compile is O(E), so a
    /// service starts in milliseconds at any size.
    ///
    /// # Errors
    ///
    /// Propagates [`FibCompiler::compile`] and [`RouteService::with_table`]
    /// failures.
    pub fn compile(topo: Abccc, shards: usize) -> Result<Self, FibError> {
        let table = FibCompiler::shortest().compile(&topo)?;
        RouteService::with_table(topo, table, shards)
    }

    /// Replaces the [`RetryBudget`] the faulted fallback escalates under.
    /// Clears the patch caches (cached outcomes embed the old budget's
    /// accounting).
    #[must_use]
    pub fn budget(mut self, budget: RetryBudget) -> Self {
        self.budget = budget;
        self.clear_patches();
        self
    }

    /// The topology the service routes over.
    pub fn topo(&self) -> &Abccc {
        &self.topo
    }

    /// The compiled table the service answers from.
    pub fn table(&self) -> &HierFib {
        &self.table
    }

    /// The currently installed fault mask, if any.
    pub fn mask(&self) -> Option<&FaultMask> {
        self.mask.as_ref()
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Cached fallback outcomes across all shards, summed without taking
    /// any shard's lock.
    pub fn patch_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.len.load(Ordering::Relaxed))
            .sum()
    }

    /// The shard a pair's patches live in.
    #[inline]
    fn shard_of(&self, src: NodeId, dst: NodeId) -> usize {
        // SplitMix64 finalizer over the pair — decorrelates shard choice
        // from id locality so patches spread evenly.
        let mut z = pair_seed(0x5A_4D17, src, dst).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        (z >> 32) as usize & (self.shards.len() - 1)
    }

    /// Routes `src → dst` from the compiled table (see the module docs for
    /// the exact equivalence to on-demand routing): [`RouteService::lookup_into`]
    /// into a buffer sized to the walk bound, copied into the route.
    ///
    /// # Errors
    ///
    /// Exactly [`ResilientRouter`]'s contract: [`RouteError::NotAServer`],
    /// [`RouteError::Unreachable`], or [`RouteError::GaveUp`] when the
    /// budget disables the BFS fallback.
    pub fn query(&self, src: NodeId, dst: NodeId) -> Result<RouteOutcome, RouteError> {
        let mut nodes = Vec::with_capacity(self.table.max_nodes() as usize);
        match self.lookup_into(src, dst, &mut nodes) {
            // Callers may keep many routes (a batch holds every answer), so
            // the route gets an allocation of exactly its length.
            Lookup::Primary => Ok(RouteOutcome::primary(Route::new(nodes.to_vec()))),
            Lookup::Owned(out) => out,
        }
    }

    /// The one lookup path: answers `src → dst` like
    /// [`RouteService::query`], but walks the compiled table into the
    /// caller's `nodes` (cleared first), so a caller that reuses one
    /// buffer allocates nothing for a primary answer. Under a mask, a
    /// walk that crosses a failed element falls back to the memoized
    /// ladder and the answer comes back owned.
    pub fn lookup_into(&self, src: NodeId, dst: NodeId, nodes: &mut Vec<NodeId>) -> Lookup {
        let _t = dcn_telemetry::histogram!("fib.lookup_ns").start_timer();
        dcn_telemetry::counter!("fib.lookups").inc();
        if let Err(e) = check_endpoints(&self.topo, src, dst, self.mask.as_ref()) {
            return Lookup::Owned(Err(e));
        }
        let net = self.topo.network();
        nodes.clear();
        match &self.mask {
            None => self.table.walk_into(net, src, dst, nodes),
            Some(mask) => {
                if !self.table.walk_live_into(net, mask, src, dst, nodes) {
                    return Lookup::Owned(self.fallback(src, dst, mask));
                }
            }
        }
        Lookup::Primary
    }

    /// The compiled-table-is-broken path: memoized full ladder.
    fn fallback(
        &self,
        src: NodeId,
        dst: NodeId,
        mask: &FaultMask,
    ) -> Result<RouteOutcome, RouteError> {
        let shard = &self.shards[self.shard_of(src, dst)];
        if let Some(hit) = shard
            .patches
            .lock()
            .expect("patch cache")
            .get(&(src.0, dst.0))
        {
            dcn_telemetry::counter!("fib.patch_hits").inc();
            return hit.clone();
        }
        dcn_telemetry::counter!("fib.fallbacks").inc();
        let outcome =
            ResilientRouter::new(self.budget).route_explained(&self.topo, src, dst, Some(mask));
        shard.update(|patches| patches.insert((src.0, dst.0), outcome.clone()));
        dcn_telemetry::gauge!("fib.patch_entries").set(self.patch_count() as i64);
        outcome
    }

    /// Answers a batch of queries in input order on the calling thread:
    /// exactly [`RouteService::query`] applied to each pair in turn.
    /// Callers that want parallelism run batches on several threads; the
    /// shards keep their patch caches apart.
    pub fn query_batch(&self, pairs: &[(NodeId, NodeId)]) -> Vec<Result<RouteOutcome, RouteError>> {
        let _span = dcn_telemetry::span!("fib.query_batch");
        dcn_telemetry::counter!("fib.batches").inc();
        pairs.iter().map(|&(s, d)| self.query(s, d)).collect()
    }

    /// Valiant load balancing from the compiled table: same per-pair RNG
    /// stream and stage semantics as `VlbRouter::new(seed)`, with both
    /// stages served by table walks instead of on-demand routing —
    /// bit-identical routes (the table is destination-aware, exactly the
    /// stage router VLB uses).
    ///
    /// # Errors
    ///
    /// `VlbRouter`'s contract: [`RouteError::NotAServer`],
    /// [`RouteError::Unreachable`] (dead endpoint), or
    /// [`RouteError::GaveUp`] when the produced route crosses a failed
    /// element (VLB is fault-oblivious).
    pub fn query_vlb(
        &self,
        seed: u64,
        src: NodeId,
        dst: NodeId,
    ) -> Result<RouteOutcome, RouteError> {
        dcn_telemetry::counter!("fib.vlb_lookups").inc();
        check_endpoints(&self.topo, src, dst, self.mask.as_ref())?;
        let p = self.topo.params();
        let net = self.topo.network();
        let mut rng = rand::rngs::StdRng::seed_from_u64(pair_seed(seed, src, dst));
        let (route, attempts) = route_two_stage_with(
            p,
            ServerAddr::from_node_id(p, src),
            ServerAddr::from_node_id(p, dst),
            &mut rng,
            |a, b| self.table.route(net, a.node_id(p), b.node_id(p)),
        );
        if let Some(m) = &self.mask {
            if route.validate(net, Some(m)).is_err() {
                return Err(RouteError::GaveUp {
                    src,
                    dst,
                    attempts: attempts as usize,
                });
            }
        }
        Ok(RouteOutcome {
            route,
            tier: abccc::RouteTier::Primary,
            attempts,
            backoff_units: 0,
        })
    }

    /// Installs a fault mask, patching incrementally when it covers the
    /// previous one (see the invalidation contract in the module docs).
    pub fn apply_mask(&mut self, mask: FaultMask) -> InvalidationReport {
        let incremental = match &self.mask {
            None => true, // no mask = no faults: anything covers it
            Some(old) => mask.covers(old),
        };
        let (mut retained, mut dropped) = (0usize, 0usize);
        if incremental {
            let net = self.topo.network();
            for shard in &self.shards {
                shard.update(|patches| {
                    patches.retain(|_, cached| {
                        let keep = match cached {
                            // Monotone: more faults cannot un-fail an error.
                            Err(_) => true,
                            // Still fully alive ⇒ recomputation would return
                            // the identical outcome (earlier ladder candidates
                            // stay rejected under a superset mask).
                            Ok(out) => out.route.validate(net, Some(&mask)).is_ok(),
                        };
                        if keep {
                            retained += 1;
                        } else {
                            dropped += 1;
                        }
                        keep
                    })
                });
            }
        } else {
            dropped = self.clear_patches();
        }
        dcn_telemetry::counter!("fib.invalidations").inc();
        dcn_telemetry::gauge!("fib.patch_entries").set(self.patch_count() as i64);
        self.mask = Some(mask);
        InvalidationReport {
            incremental,
            retained,
            dropped,
        }
    }

    /// Builds `scenario`'s mask for this topology and installs it via
    /// [`RouteService::apply_mask`].
    pub fn apply_scenario(&mut self, scenario: &FaultScenario) -> InvalidationReport {
        let mask = scenario.build(self.topo.network());
        self.apply_mask(mask)
    }

    /// Removes the fault mask and all patches: back to the lock-free
    /// healthy path.
    pub fn clear_faults(&mut self) {
        self.mask = None;
        self.clear_patches();
        dcn_telemetry::gauge!("fib.patch_entries").set(0);
    }

    fn clear_patches(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.update(|p| p.drain().count()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abccc::AbcccParams;

    fn service(n: u32, k: u32, h: u32, shards: usize) -> RouteService {
        let topo = Abccc::new(AbcccParams::new(n, k, h).unwrap()).unwrap();
        RouteService::compile(topo, shards).unwrap()
    }

    #[test]
    fn rejects_non_shortest_tables_and_size_mismatches() {
        let topo = Abccc::new(AbcccParams::new(2, 2, 2).unwrap()).unwrap();
        let ascending = FibCompiler::new(PermStrategy::Ascending)
            .compile(&topo)
            .unwrap();
        assert!(matches!(
            RouteService::with_table(topo.clone(), ascending, 4),
            Err(FibError::ServiceRequiresShortest { .. })
        ));

        let small = Abccc::new(AbcccParams::new(3, 1, 2).unwrap()).unwrap();
        let small_fib = FibCompiler::shortest().compile(&small).unwrap();
        assert!(matches!(
            RouteService::with_table(topo, small_fib, 4),
            Err(FibError::TopologyMismatch { .. })
        ));
    }

    #[test]
    fn rejects_a_table_of_another_topology_with_equal_server_count() {
        // Both have 32 servers, but their addresses decode differently:
        // serving one's table on the other used to panic mid-walk.
        let a = Abccc::new(AbcccParams::new(2, 3, 3).unwrap()).unwrap();
        let b = Abccc::new(AbcccParams::new(4, 1, 2).unwrap()).unwrap();
        assert_eq!(a.params().server_count(), b.params().server_count());
        for (table_topo, served) in [(&a, &b), (&b, &a)] {
            let table = FibCompiler::shortest().compile(table_topo).unwrap();
            let err = RouteService::with_table(served.clone(), table, 4).unwrap_err();
            assert_eq!(
                err,
                FibError::TopologyMismatch {
                    table: *table_topo.params(),
                    topo: *served.params(),
                }
            );
            assert!(err.to_string().contains(&table_topo.params().to_string()));
        }
    }

    /// `patch_count` read by locking every shard, the way it used to be.
    fn locked_patch_count(svc: &RouteService) -> usize {
        svc.shards
            .iter()
            .map(|s| s.patches.lock().expect("patch cache").len())
            .sum()
    }

    #[test]
    fn patch_count_tracks_the_maps_through_masks_repairs_and_clears() {
        let mut svc = service(3, 2, 2, 4);
        let servers = svc.topo().params().server_count() as u32;
        let pairs: Vec<(NodeId, NodeId)> = (0..servers)
            .flat_map(|s| (0..servers).step_by(7).map(move |d| (NodeId(s), NodeId(d))))
            .collect();
        let check = |svc: &RouteService, stage: &str| {
            svc.query_batch(&pairs);
            assert_eq!(svc.patch_count(), locked_patch_count(svc), "{stage}");
        };
        svc.apply_scenario(&FaultScenario::seeded(3).fail_servers_frac(0.05));
        check(&svc, "first mask");
        assert!(svc.patch_count() > 0, "the mask must force fallbacks");
        let mut more = svc.mask().unwrap().clone();
        more.fail_node(NodeId(servers)); // a switch: drops the patches through it
        let report = svc.apply_mask(more);
        assert!(report.incremental);
        assert_eq!(
            svc.patch_count(),
            locked_patch_count(&svc),
            "after superset"
        );
        check(&svc, "superset mask");
        let report = svc.apply_scenario(&FaultScenario::seeded(4).fail_switches_frac(0.05));
        assert!(!report.incremental);
        assert_eq!(svc.patch_count(), 0, "a repair clears every patch");
        check(&svc, "repaired mask");
        svc.clear_faults();
        assert_eq!(svc.patch_count(), 0);
        assert_eq!(locked_patch_count(&svc), 0);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(service(2, 1, 2, 0).shard_count(), 1);
        assert_eq!(service(2, 1, 2, 3).shard_count(), 4);
        assert_eq!(service(2, 1, 2, 8).shard_count(), 8);
    }

    #[test]
    fn healthy_queries_are_primary_and_batch_preserves_order() {
        let svc = service(2, 2, 2, 4);
        let n = svc.topo().params().server_count() as u32;
        let pairs: Vec<(NodeId, NodeId)> = (0..n)
            .flat_map(|s| (0..n).map(move |d| (NodeId(s), NodeId(d))))
            .collect();
        let batch = svc.query_batch(&pairs);
        assert_eq!(batch.len(), pairs.len());
        for (&(s, d), out) in pairs.iter().zip(&batch) {
            let out = out.as_ref().unwrap();
            assert_eq!(out.route.src(), s);
            assert_eq!(out.route.dst(), d);
            assert_eq!(out.tier, abccc::RouteTier::Primary);
            assert_eq!((out.attempts, out.backoff_units), (1, 0));
            assert_eq!(*out, svc.query(s, d).unwrap());
        }
    }

    #[test]
    fn rejects_switch_and_dead_endpoints_like_routers_do() {
        let mut svc = service(2, 2, 2, 2);
        let servers = svc.topo().params().server_count() as u32;
        // A switch, and an id past the last node.
        for bad in [NodeId(servers), NodeId(u32::MAX)] {
            assert_eq!(svc.query(bad, NodeId(0)), Err(RouteError::NotAServer(bad)));
            assert_eq!(svc.query(NodeId(0), bad), Err(RouteError::NotAServer(bad)));
        }
        svc.apply_scenario(&FaultScenario::seeded(0).fail_nodes([NodeId(3)]));
        assert!(matches!(
            svc.query(NodeId(3), NodeId(0)),
            Err(RouteError::Unreachable { .. })
        ));
    }

    #[test]
    fn fallback_is_memoized_and_superset_masks_keep_valid_patches() {
        let mut svc = service(3, 2, 2, 2);
        let (a, b) = (NodeId(0), NodeId(80));
        let primary = svc.query(a, b).unwrap().route;
        // Fail the primary route's interior: the pair needs a fallback.
        let interior: Vec<NodeId> = primary.nodes()[1..primary.nodes().len() - 1].to_vec();
        let report = svc.apply_scenario(&FaultScenario::seeded(0).fail_nodes(interior.clone()));
        assert!(report.incremental);
        let out = svc.query(a, b).unwrap();
        assert!(out.tier > abccc::RouteTier::Primary);
        assert_eq!(svc.patch_count(), 1);
        assert_eq!(svc.query(a, b).unwrap(), out); // served from the patch

        // Accumulate one more unrelated fault: the patch survives iff its
        // route is untouched.
        let mut more = svc.mask().unwrap().clone();
        let spare = svc
            .topo()
            .network()
            .server_ids()
            .find(|s| !out.route.nodes().contains(s) && *s != a && *s != b)
            .unwrap();
        more.fail_node(spare);
        let report = svc.apply_mask(more);
        assert!(report.incremental);
        assert_eq!((report.retained, report.dropped), (1, 0));
        assert_eq!(svc.query(a, b).unwrap(), out);

        // A repair clears everything.
        let report = svc.apply_scenario(&FaultScenario::seeded(1).fail_nodes([NodeId(7)]));
        assert!(!report.incremental);
        assert_eq!(svc.patch_count(), 0);

        svc.clear_faults();
        assert_eq!(svc.query(a, b).unwrap().route, primary);
    }
}
