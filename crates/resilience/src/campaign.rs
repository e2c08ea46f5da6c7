//! The campaign engine: configuration, parallel trial execution.

use crate::report::{CampaignReport, TierCounts, TrialReport};
use crate::ScenarioKind;
use abccc::{
    routing, Abccc, CubeLabel, DigitRouter, PermStrategy, ResilientRouter, RetryBudget,
    RouteOutcome, Router, ServerAddr, VlbRouter,
};
use dcn_sim::{max_min_allocation, DirectedLink};
use netgraph::{
    mix_seed_additive, FaultMask, Network, NetworkError, NodeId, Route, RouteError, Topology,
};
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Which [`Router`] a campaign drives.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RouterSpec {
    /// The escalating fault-tolerant router under a [`RetryBudget`].
    Resilient(RetryBudget),
    /// Fault-oblivious deterministic digit correction.
    Digit(PermStrategy),
    /// Fault-oblivious Valiant load balancing (per-pair seed given).
    Vlb {
        /// Seed of the per-pair intermediate streams.
        seed: u64,
    },
}

impl RouterSpec {
    pub(crate) fn build(&self) -> Box<dyn Router> {
        match *self {
            RouterSpec::Resilient(budget) => Box::new(ResilientRouter::new(budget)),
            RouterSpec::Digit(strategy) => Box::new(DigitRouter::new(strategy)),
            RouterSpec::Vlb { seed } => Box::new(VlbRouter::new(seed)),
        }
    }
}

/// How each trial samples its source→destination pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PairSampling {
    /// `pairs` uniform random ordered pairs per time step (self-pairs
    /// redrawn away by skipping, dead endpoints counted and skipped).
    UniformRandom {
        /// Pairs drawn per time step.
        pairs: usize,
    },
    /// A fresh random permutation over the surviving servers per step.
    Permutation,
    /// The adversarial convergent pattern (all `m` flows of every group
    /// correct the same digit), filtered to surviving endpoints.
    Convergent,
}

/// A configured, runnable fault campaign. Construct with
/// [`CampaignConfig::new`], chain the builder methods, then hand any
/// materialized [`Topology`] to [`run_on`].
///
/// The campaign is topology-agnostic: on an [`Abccc`] instance it drives
/// the configured [`RouterSpec`] control plane (escalation tiers, retry
/// accounting — exactly the historical behavior); on any other family it
/// drives the family's **native plane**, `Topology::route_avoiding`, so
/// Jellyfish, Space Shuffle and the rest degrade under the same seeded
/// scenarios without family-specific code here.
///
/// [`run_on`]: CampaignConfig::run_on
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// What breaks per trial.
    pub scenario: ScenarioKind,
    /// Which router carries the traffic.
    pub router: RouterSpec,
    /// How pairs are sampled.
    pub pairs: PairSampling,
    /// Independent trials.
    pub trials: usize,
    /// Campaign seed — the single source of all randomness.
    pub seed: u64,
    /// Worker threads (0 = all available cores).
    pub threads: usize,
    /// Whether to run the max-min throughput simulation per step.
    pub measure_throughput: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl CampaignConfig {
    /// A default campaign: 5% uniform server+switch faults, the resilient
    /// router with its default budget, 64 random pairs per trial, 8
    /// trials, seed 0, throughput measured.
    pub fn new() -> Self {
        CampaignConfig {
            scenario: ScenarioKind::Uniform {
                server_rate: 0.05,
                switch_rate: 0.05,
                link_rate: 0.0,
            },
            router: RouterSpec::Resilient(RetryBudget::default()),
            pairs: PairSampling::UniformRandom { pairs: 64 },
            trials: 8,
            seed: 0,
            threads: 0,
            measure_throughput: true,
        }
    }

    /// Sets the fault scenario.
    #[must_use]
    pub fn scenario(mut self, scenario: ScenarioKind) -> Self {
        self.scenario = scenario;
        self
    }

    /// Sets the router under test.
    #[must_use]
    pub fn router(mut self, router: RouterSpec) -> Self {
        self.router = router;
        self
    }

    /// Sets the pair-sampling policy.
    #[must_use]
    pub fn sampling(mut self, pairs: PairSampling) -> Self {
        self.pairs = pairs;
        self
    }

    /// Sets uniform-random sampling with `pairs` pairs per step.
    #[must_use]
    pub fn pairs_per_trial(self, pairs: usize) -> Self {
        self.sampling(PairSampling::UniformRandom { pairs })
    }

    /// Sets the number of independent trials.
    #[must_use]
    pub fn trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the campaign seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker-thread count (0 = all available cores). Never
    /// changes the report, only how fast it arrives.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables or disables the per-step max-min throughput simulation.
    #[must_use]
    pub fn measure_throughput(mut self, on: bool) -> Self {
        self.measure_throughput = on;
        self
    }

    /// Checks the configuration without running anything.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::Network`] wrapping the
    /// [`NetworkError::InvalidParameter`] that describes the first
    /// malformed field.
    pub fn validate(&self) -> Result<(), RouteError> {
        if self.trials == 0 {
            return Err(NetworkError::InvalidParameter {
                name: "trials",
                reason: "a campaign needs at least one trial".into(),
            }
            .into());
        }
        if let PairSampling::UniformRandom { pairs } = self.pairs {
            if pairs == 0 {
                return Err(NetworkError::InvalidParameter {
                    name: "pairs",
                    reason: "uniform sampling needs at least one pair per step".into(),
                }
                .into());
            }
        }
        Ok(())
    }

    /// Runs the campaign over an already-materialized topology of any
    /// family. ABCCC instances get the configured [`RouterSpec`] control
    /// plane; every other family is driven through its native
    /// [`Topology::route_avoiding`] plane.
    ///
    /// # Errors
    ///
    /// * [`RouteError::Network`] — invalid configuration, a cube-only
    ///   scenario or convergent sampling on a non-ABCCC topology;
    /// * [`RouteError::NotAServer`] — cannot happen from campaign-sampled
    ///   pairs, but propagated defensively.
    pub fn run_on(&self, topo: &(dyn Topology + Sync)) -> Result<CampaignReport, RouteError> {
        if let Some(cube) = topo.as_any().downcast_ref::<Abccc>() {
            self.run_with(cube, &|| self.router.build())
        } else {
            self.run_campaign(topo, &|| Plane::Native { topo })
        }
    }

    /// Runs the campaign with routers produced by an external factory
    /// instead of [`CampaignConfig::router`] — each worker thread builds
    /// its own router, so the factory must hand out equivalent instances.
    ///
    /// This is the hook for alternative data planes (e.g. `dcn-fib`'s
    /// compiled route service wrapped as a [`Router`]): the campaign's
    /// sampling, fault schedule and accounting stay byte-identical, only
    /// the per-pair routing call is swapped.
    ///
    /// # Errors
    ///
    /// Same contract as [`CampaignConfig::run_on`].
    pub fn run_with(
        &self,
        topo: &Abccc,
        router: &(dyn Fn() -> Box<dyn Router> + Sync),
    ) -> Result<CampaignReport, RouteError> {
        self.run_campaign(topo, &|| Plane::Abccc {
            topo,
            router: router(),
        })
    }

    /// Runs the trials, each worker on its own plane from `plane`.
    fn run_campaign<'a>(
        &self,
        topo: &dyn Topology,
        plane: &(dyn Fn() -> Plane<'a> + Sync),
    ) -> Result<CampaignReport, RouteError> {
        self.validate()?;
        self.scenario.validate_for(topo)?;
        if self.pairs == PairSampling::Convergent && !topo.as_any().is::<Abccc>() {
            return Err(NetworkError::InvalidParameter {
                name: "pairs",
                reason: format!(
                    "convergent sampling needs ABCCC cube labels; {} has none",
                    topo.name()
                ),
            }
            .into());
        }
        let _span = dcn_telemetry::span!("resilience.campaign");
        dcn_telemetry::counter!("resilience.campaigns").inc();
        let (results, _) = netgraph::par::map_indexed(
            self.trials,
            self.threads,
            plane,
            |plane, trial| run_trial(self, plane, trial),
            drop,
        );
        // The lowest failing trial's error, whatever the scheduling.
        let trials = results.into_iter().collect::<Result<Vec<_>, _>>()?;
        dcn_telemetry::counter!("resilience.trials").add(trials.len() as u64);
        Ok(CampaignReport::summarize(
            topo.name(),
            self.scenario.label().to_string(),
            plane().router_name(),
            self.seed,
            trials,
        ))
    }
}

/// Which routing plane a campaign drives over its topology. Every worker
/// owns one, so an ABCCC router is never shared between threads.
enum Plane<'a> {
    /// The ABCCC control plane: a [`RouterSpec`]/factory-built [`Router`]
    /// with escalation tiers and retry accounting. Hops are server hops,
    /// measured against the closed-form [`routing::distance`].
    Abccc {
        topo: &'a Abccc,
        router: Box<dyn Router>,
    },
    /// Any other family: its native fault-avoiding routing,
    /// [`Topology::route_avoiding`], one primary attempt per pair. Hops are
    /// link hops, measured against the family's fault-free
    /// [`Topology::route`] (the closed-form distance has no analogue here).
    Native { topo: &'a (dyn Topology + Sync) },
}

impl Plane<'_> {
    fn topology(&self) -> &dyn Topology {
        match self {
            Plane::Abccc { topo, .. } => *topo,
            Plane::Native { topo } => *topo,
        }
    }

    fn router_name(&self) -> String {
        match self {
            Plane::Abccc { router, .. } => router.name(),
            Plane::Native { .. } => "native".to_string(),
        }
    }

    /// Routes `src → dst` under the step's mask.
    fn route(
        &self,
        src: NodeId,
        dst: NodeId,
        mask: &FaultMask,
    ) -> Result<RouteOutcome, RouteError> {
        match self {
            Plane::Abccc { topo, router } => router.route(topo, src, dst, Some(mask)),
            Plane::Native { topo } => topo
                .route_avoiding(src, dst, mask)
                .map(RouteOutcome::primary),
        }
    }

    /// A routed pair's hops and its fault-free length, both in the plane's
    /// unit, plus the fault-free baseline route when `baseline` is set.
    fn measure(
        &self,
        src: NodeId,
        dst: NodeId,
        route: &Route,
        baseline: bool,
    ) -> Result<(u64, u64, Option<Route>), RouteError> {
        match self {
            Plane::Abccc { topo, router } => {
                let p = topo.params();
                let fault_free = routing::distance(p, topo.server_addr(src), topo.server_addr(dst));
                let base = if baseline {
                    Some(router.route_simple(topo, src, dst)?)
                } else {
                    None
                };
                Ok((routing::hops(route) as u64, fault_free, base))
            }
            Plane::Native { topo } => {
                let fault_free = topo.route(src, dst)?;
                let free_hops = fault_free.link_hops() as u64;
                let base = baseline.then_some(fault_free);
                Ok((route.link_hops() as u64, free_hops, base))
            }
        }
    }
}

/// Samples the pairs for one time step. Returns `(pairs, skipped)` where
/// `skipped` counts draws dropped because an endpoint was down.
fn sample_pairs(
    topo: &dyn Topology,
    mask: &FaultMask,
    sampling: PairSampling,
    seed: u64,
) -> (Vec<(NodeId, NodeId)>, usize) {
    let n = topo.server_count() as u64;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut skipped = 0usize;
    let mut out = Vec::new();
    match sampling {
        PairSampling::UniformRandom { pairs } => {
            for _ in 0..pairs {
                let s = NodeId(rng.gen_range(0..n) as u32);
                let d = NodeId(rng.gen_range(0..n) as u32);
                if s == d {
                    continue;
                }
                if !mask.node_alive(s) || !mask.node_alive(d) {
                    skipped += 1;
                    continue;
                }
                out.push((s, d));
            }
        }
        PairSampling::Permutation => {
            use rand::seq::SliceRandom;
            let alive: Vec<NodeId> = topo
                .network()
                .server_ids()
                .filter(|&s| mask.node_alive(s))
                .collect();
            skipped = n as usize - alive.len();
            let mut dsts = alive.clone();
            dsts.shuffle(&mut rng);
            out.extend(
                alive
                    .iter()
                    .zip(&dsts)
                    .filter(|(s, d)| s != d)
                    .map(|(&s, &d)| (s, d)),
            );
        }
        PairSampling::Convergent => {
            let p = topo
                .as_any()
                .downcast_ref::<Abccc>()
                .expect("convergent sampling validated for an ABCCC topology")
                .params();
            for raw in 0..p.label_space() {
                let label = CubeLabel(raw);
                let d0 = label.digit(p, 0);
                let dst_label = label.with_digit(p, 0, (d0 + 1) % p.n());
                for j in 0..p.group_size() {
                    let s = ServerAddr::new(p, label, j).node_id(p);
                    let d = ServerAddr::new(p, dst_label, j).node_id(p);
                    if !mask.node_alive(s) || !mask.node_alive(d) {
                        skipped += 1;
                        continue;
                    }
                    out.push((s, d));
                }
            }
        }
    }
    (out, skipped)
}

/// Σ of the finite max-min rates of `routes`, plus the worst finite rate.
fn allocate(net: &Network, routes: &[Route]) -> (f64, f64) {
    if routes.is_empty() {
        return (0.0, 0.0);
    }
    let flows: Vec<Vec<DirectedLink>> = routes
        .iter()
        .map(|r| DirectedLink::of_route(net, r))
        .collect();
    let rates = max_min_allocation(net, &flows);
    let finite: Vec<f64> = rates.into_iter().filter(|r| r.is_finite()).collect();
    if finite.is_empty() {
        return (0.0, 0.0);
    }
    let aggregate = finite.iter().sum();
    let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
    (aggregate, min)
}

/// One trial: every step's mask, pairs, routes and max-min allocations,
/// on whichever plane the worker drives.
fn run_trial(
    config: &CampaignConfig,
    plane: &Plane<'_>,
    trial: usize,
) -> Result<TrialReport, RouteError> {
    let _span = dcn_telemetry::span!("resilience.trial");
    let _trial_timer = dcn_telemetry::histogram!("resilience.trial_ns").start_timer();
    let topo = plane.topology();
    let net = topo.network();
    let trial_seed = mix_seed_additive(config.seed, trial as u64);
    let steps = config.scenario.steps();

    let mut failed_nodes = 0.0;
    let mut failed_links = 0.0;
    let mut connectivity = 0.0;
    let mut pairs_total = 0usize;
    let mut skipped = 0usize;
    let mut routed = 0usize;
    let mut unreachable = 0usize;
    let mut gave_up = 0usize;
    let mut tiers = TierCounts::default();
    let mut attempts_total = 0u64;
    let mut backoff_total = 0u64;
    let mut stretch_sum = 0.0f64;
    let mut max_stretch = 0.0f64;
    let mut hops_sum = 0u64;
    let mut aggregate = 0.0f64;
    let mut min_rate = 0.0f64;
    let mut retention = 0.0f64;

    for step in 0..steps {
        let mask = config.scenario.mask_for(topo, trial_seed, step);
        failed_nodes += mask.failed_node_count() as f64 / steps as f64;
        failed_links += mask.failed_link_count() as f64 / steps as f64;
        connectivity += netgraph::connectivity::largest_component_server_fraction(net, Some(&mask))
            / steps as f64;

        let pair_seed = mix_seed_additive(trial_seed, 0x5EED_0000 + step as u64);
        let (pairs, step_skipped) = sample_pairs(topo, &mask, config.pairs, pair_seed);
        pairs_total += pairs.len() + step_skipped;
        skipped += step_skipped;

        let mut survivors: Vec<Route> = Vec::with_capacity(pairs.len());
        let mut baseline: Vec<Route> = Vec::with_capacity(pairs.len());
        for &(s, d) in &pairs {
            let out = match plane.route(s, d, &mask) {
                Ok(out) => out,
                Err(RouteError::Unreachable { .. }) => {
                    unreachable += 1;
                    continue;
                }
                Err(RouteError::GaveUp { .. }) => {
                    gave_up += 1;
                    continue;
                }
                Err(e) => return Err(e),
            };
            routed += 1;
            tiers.record(out.tier);
            attempts_total += u64::from(out.attempts);
            backoff_total += out.backoff_units;
            let (hops, fault_free, base) =
                plane.measure(s, d, &out.route, config.measure_throughput)?;
            hops_sum += hops;
            let stretch = if fault_free == 0 {
                1.0
            } else {
                hops as f64 / fault_free as f64
            };
            stretch_sum += stretch;
            max_stretch = max_stretch.max(stretch);
            if let Some(base) = base {
                survivors.push(out.route);
                baseline.push(base);
            }
        }
        if config.measure_throughput {
            let (agg, min) = allocate(net, &survivors);
            let (base_agg, _) = allocate(net, &baseline);
            aggregate += agg / steps as f64;
            min_rate += min / steps as f64;
            retention += if base_agg == 0.0 { 1.0 } else { agg / base_agg } / steps as f64;
        } else {
            retention += 1.0 / steps as f64;
        }
    }

    dcn_telemetry::counter!("resilience.pairs_routed").add(routed as u64);
    dcn_telemetry::counter!("resilience.pairs_unroutable").add((unreachable + gave_up) as u64);
    dcn_telemetry::histogram!("resilience.trial_attempts").record(attempts_total);

    let decided = routed + unreachable + gave_up;
    Ok(TrialReport {
        trial,
        seed: trial_seed,
        steps,
        failed_nodes,
        failed_links,
        connectivity_fraction: connectivity,
        pairs_total,
        pairs_skipped_endpoint: skipped,
        routed,
        unreachable,
        gave_up,
        route_completion: if decided == 0 {
            1.0
        } else {
            routed as f64 / decided as f64
        },
        mean_stretch: if routed == 0 {
            0.0
        } else {
            stretch_sum / routed as f64
        },
        max_stretch,
        mean_hops: if routed == 0 {
            0.0
        } else {
            hops_sum as f64 / routed as f64
        },
        aggregate_rate: aggregate,
        min_rate,
        throughput_retention: retention,
        tier_counts: tiers,
        attempts_total,
        backoff_units_total: backoff_total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use abccc::AbcccParams;
    use dcn_baselines::prelude::*;

    fn cube() -> Abccc {
        Abccc::new(AbcccParams::new(3, 2, 2).unwrap()).unwrap()
    }

    fn base() -> CampaignConfig {
        CampaignConfig::new().trials(3).pairs_per_trial(24).seed(11)
    }

    #[test]
    fn reports_are_thread_count_independent() {
        let t = cube();
        let serial = base().threads(1).run_on(&t).unwrap();
        let parallel = base().threads(4).run_on(&t).unwrap();
        assert_eq!(serial, parallel);
    }

    /// Fails every pair whose source id is a multiple of 7 with an error
    /// outside the escalation ladder, which aborts the trial that drew it.
    struct Rejecting;

    impl Router for Rejecting {
        fn name(&self) -> String {
            "rejecting".into()
        }

        fn route(
            &self,
            topo: &Abccc,
            src: NodeId,
            dst: NodeId,
            mask: Option<&FaultMask>,
        ) -> Result<abccc::RouteOutcome, RouteError> {
            if src.0.is_multiple_of(7) {
                return Err(RouteError::NotAServer(src));
            }
            ResilientRouter::new(RetryBudget::default()).route(topo, src, dst, mask)
        }
    }

    #[test]
    fn failing_trials_report_the_same_error_at_any_thread_count() {
        let t = cube();
        let factory = || Box::new(Rejecting) as Box<dyn Router>;
        let config = base().trials(8).measure_throughput(false);
        let serial = config.threads(1).run_with(&t, &factory).unwrap_err();
        assert!(matches!(serial, RouteError::NotAServer(_)), "{serial}");
        for _ in 0..8 {
            let parallel = config.threads(4).run_with(&t, &factory).unwrap_err();
            assert_eq!(parallel, serial);
        }
    }

    #[test]
    fn zero_trials_is_invalid() {
        let e = base().trials(0).run_on(&cube()).unwrap_err();
        assert!(matches!(e, RouteError::Network(_)), "{e}");
    }

    #[test]
    fn digit_router_gives_up_instead_of_detourings() {
        let report = base()
            .router(RouterSpec::Digit(PermStrategy::DestinationAware))
            .measure_throughput(false)
            .run_on(&cube())
            .unwrap();
        // A fault-oblivious router never escalates.
        assert_eq!(report.summary.tier_counts.deterministic, 0);
        assert_eq!(report.summary.tier_counts.bfs, 0);
        assert_eq!(report.summary.unreachable, 0);
    }

    #[test]
    fn level_outage_caps_connectivity_at_one_over_n() {
        let report = CampaignConfig::new()
            .scenario(ScenarioKind::LevelSwitches { level: 0 })
            .trials(2)
            .pairs_per_trial(16)
            .measure_throughput(false)
            .run_on(&cube())
            .unwrap();
        let expect = 1.0 / 3.0;
        for t in &report.trials {
            assert!((t.connectivity_fraction - expect).abs() < 1e-12);
        }
        assert!(report.summary.route_completion < 1.0);
    }

    #[test]
    fn flapping_aggregates_over_steps() {
        let report = base()
            .scenario(ScenarioKind::FlappingLinks {
                rate: 0.05,
                steps: 3,
            })
            .measure_throughput(false)
            .run_on(&cube())
            .unwrap();
        for t in &report.trials {
            assert_eq!(t.steps, 3);
        }
        assert!(report.summary.route_completion > 0.9);
    }

    #[test]
    fn convergent_sampling_covers_every_group() {
        let p = AbcccParams::new(3, 2, 2).unwrap();
        let topo = Abccc::new(p).unwrap();
        let mask = FaultMask::new(topo.network());
        let (pairs, skipped) = sample_pairs(&topo, &mask, PairSampling::Convergent, 1);
        assert_eq!(skipped, 0);
        assert_eq!(
            pairs.len() as u64,
            p.label_space() * u64::from(p.group_size())
        );
    }

    #[test]
    fn native_plane_reports_are_thread_count_independent() {
        let t = Jellyfish::new(JellyfishParams::new(10, 3, 1, 7).unwrap()).unwrap();
        let serial = base().threads(1).run_on(&t).unwrap();
        let parallel = base().threads(4).run_on(&t).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial.router, "native");
        assert_eq!(serial.topology, t.name());
        assert!(serial.summary.routed > 0);
        // Every completed native route is a single primary attempt.
        assert_eq!(serial.summary.tier_counts.primary, serial.summary.routed);
        assert_eq!(serial.summary.attempts_total, serial.summary.routed);
    }

    #[test]
    fn native_plane_runs_space_shuffle_under_faults() {
        let t = SpaceShuffle::new(SpaceShuffleParams::new(8, 2, 1, 7).unwrap()).unwrap();
        let report = base().measure_throughput(false).run_on(&t).unwrap();
        assert!(report.summary.route_completion > 0.0);
        assert!(report.summary.mean_stretch >= 1.0 || report.summary.routed == 0);
    }

    #[test]
    fn native_plane_rejects_cube_only_configuration() {
        let t = Jellyfish::new(JellyfishParams::new(8, 3, 1, 7).unwrap()).unwrap();
        let cube_scenario = base()
            .scenario(ScenarioKind::CrossbarGroups { groups: 1 })
            .run_on(&t)
            .unwrap_err();
        assert!(matches!(cube_scenario, RouteError::Network(_)));
        let convergent = base()
            .sampling(PairSampling::Convergent)
            .run_on(&t)
            .unwrap_err();
        assert!(matches!(convergent, RouteError::Network(_)));
    }
}
