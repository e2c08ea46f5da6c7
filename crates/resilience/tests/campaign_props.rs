//! Campaign-engine invariants: seed determinism and the zero-fault
//! oracle.

use abccc::{Abccc, AbcccParams, PermStrategy, RetryBudget, RouteTier};
use dcn_baselines::{BCube, BCubeParams, DCell, DCellParams, FatTree, FatTreeParams};
use dcn_resilience::{CampaignConfig, PairSampling, RouterSpec, ScenarioKind};
use netgraph::Topology;
use proptest::prelude::*;

fn cube() -> Abccc {
    Abccc::new(AbcccParams::new(3, 2, 2).expect("params")).expect("topology")
}

fn config(seed: u64, rate_milli: u64, router: RouterSpec) -> CampaignConfig {
    CampaignConfig::new()
        .scenario(ScenarioKind::Uniform {
            server_rate: rate_milli as f64 / 1000.0,
            switch_rate: rate_milli as f64 / 1000.0,
            link_rate: 0.0,
        })
        .trials(3)
        .pairs_per_trial(16)
        .seed(seed)
        .router(router)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Identical seeds yield bit-identical degradation reports — including
    /// the serialized form — regardless of worker-thread count; different
    /// seeds diverge in the failure draw.
    #[test]
    fn identical_seeds_yield_bit_identical_reports(
        seed in 0u64..1000,
        rate_milli in 0u64..200,
        threads in 1usize..5,
    ) {
        let a = config(seed, rate_milli, RouterSpec::Resilient(RetryBudget::default()))
            .threads(1)
            .run_on(&cube())
            .expect("campaign");
        let b = config(seed, rate_milli, RouterSpec::Resilient(RetryBudget::default()))
            .threads(threads)
            .run_on(&cube())
            .expect("campaign");
        prop_assert_eq!(&a, &b);
        let ja = serde_json::to_string_pretty(&a).expect("serialize");
        let jb = serde_json::to_string_pretty(&b).expect("serialize");
        prop_assert_eq!(ja, jb);
    }

    /// Every router spec is deterministic under the campaign engine, not
    /// just the default one.
    #[test]
    fn all_router_specs_are_deterministic(seed in 0u64..500, which in 0usize..3) {
        let router = [
            RouterSpec::Resilient(RetryBudget::default()),
            RouterSpec::Digit(PermStrategy::DestinationAware),
            RouterSpec::Vlb { seed: 5 },
        ][which];
        let a = config(seed, 80, router).measure_throughput(false).run_on(&cube()).expect("campaign");
        let b = config(seed, 80, router).measure_throughput(false).run_on(&cube()).expect("campaign");
        prop_assert_eq!(a, b);
    }
}

/// Oracle: at a 0% fault rate every trial must match the fault-free
/// baseline exactly — full connectivity, full completion, stretch 1, full
/// throughput retention, every pair answered by the primary tier with one
/// attempt and no backoff — on the ABCCC plane and on native planes,
/// including BCube and DCell, which inherit `Topology::route_avoiding`.
#[test]
fn zero_fault_rate_matches_fault_free_baseline_exactly() {
    let fat_tree = FatTree::new(FatTreeParams::new(4).expect("params")).expect("topology");
    let bcube = BCube::new(BCubeParams::new(3, 1).expect("params")).expect("topology");
    let dcell = DCell::new(DCellParams::new(3, 1).expect("params")).expect("topology");
    let topologies: [&(dyn Topology + Sync); 4] = [&cube(), &fat_tree, &bcube, &dcell];
    for topo in topologies {
        let name = topo.name();
        let report = CampaignConfig::new()
            .scenario(ScenarioKind::Uniform {
                server_rate: 0.0,
                switch_rate: 0.0,
                link_rate: 0.0,
            })
            .trials(4)
            .pairs_per_trial(32)
            .seed(99)
            .run_on(topo)
            .expect("campaign");
        for t in &report.trials {
            assert_eq!(t.failed_nodes, 0.0);
            assert_eq!(t.failed_links, 0.0);
            assert_eq!(t.connectivity_fraction, 1.0);
            assert_eq!(t.pairs_skipped_endpoint, 0);
            assert_eq!(t.unreachable, 0);
            assert_eq!(t.gave_up, 0);
            assert_eq!(t.route_completion, 1.0);
            assert_eq!(t.mean_stretch, 1.0, "{name} trial {}", t.trial);
            assert_eq!(t.max_stretch, 1.0, "{name}");
            assert_eq!(t.throughput_retention, 1.0, "{name}");
            assert_eq!(t.tier_counts.total(), t.tier_counts.primary);
            assert_eq!(t.attempts_total, t.routed as u64);
            assert_eq!(t.backoff_units_total, 0);
        }
        assert_eq!(report.summary.route_completion, 1.0);
        assert_eq!(report.summary.mean_stretch, 1.0, "{name}");
        assert_eq!(report.summary.throughput_retention, 1.0, "{name}");
    }
}

/// The adversarial convergent pattern survives the campaign plumbing: VLB
/// keeps completing routes under uniform faults while reporting only
/// primary-tier outcomes (it never escalates).
#[test]
fn convergent_vlb_campaign_reports_primary_only() {
    let report = CampaignConfig::new()
        .scenario(ScenarioKind::Uniform {
            server_rate: 0.05,
            switch_rate: 0.0,
            link_rate: 0.0,
        })
        .sampling(PairSampling::Convergent)
        .router(RouterSpec::Vlb { seed: 3 })
        .trials(2)
        .measure_throughput(false)
        .seed(4)
        .run_on(&cube())
        .expect("campaign");
    let tiers = &report.summary.tier_counts;
    assert_eq!(tiers.total(), tiers.primary);
    assert!(report.summary.routed > 0);
    // RouteTier labels stay stable for downstream JSON consumers.
    assert_eq!(RouteTier::Proxy.label(), "proxy");
}
