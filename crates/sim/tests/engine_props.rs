//! Property tests for the unified traffic engine: fluid-vs-packet FCT
//! bracketing on lone flows, and byte conservation across the whole
//! scenario catalog.

use abccc::{Abccc, AbcccParams};
use dcn_sim::{Fidelity, PacketSimConfig, Scenario, ScenarioFlow, TrafficEngine};
use dcn_workloads::scenarios;
use netgraph::{NodeId, Topology};
use proptest::prelude::*;

fn small_topo() -> Abccc {
    Abccc::new(AbcccParams::new(3, 1, 2).expect("valid")).expect("build")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// On a lone flow the two fidelities bracket each other exactly:
    /// fluid FCT is the ideal `bytes * 8` ns at 1 Gbps, and the packet
    /// loop pays at most the store-and-forward pipeline on top of it.
    #[test]
    fn packet_fct_brackets_fluid_on_lone_flows(
        bytes in 1_500u64..400_000,
        pair in (any::<u32>(), any::<u32>()),
    ) {
        let topo = small_topo();
        let n = topo.network().server_count() as u32;
        let (src, dst) = (NodeId(pair.0 % n), NodeId(pair.1 % n));
        prop_assume!(src != dst);
        let engine = TrafficEngine::new(&topo);

        let mut fluid = Scenario::new("lone", 1, Fidelity::Fluid);
        fluid.flows.push(ScenarioFlow::bulk(src, dst, bytes));
        let fluid_fct = engine.run(&fluid).expect("fluid")
            .per_flow[0].fct_ns.expect("complete");
        prop_assert_eq!(fluid_fct, bytes * 8, "lone fluid flow runs at line rate");

        let mut packet = Scenario::new("lone", 1, Fidelity::packet_open());
        packet.flows.push(ScenarioFlow::bulk(src, dst, bytes));
        let packet_fct = engine.run(&packet).expect("packet")
            .per_flow[0].fct_ns.expect("complete");

        let cfg = PacketSimConfig::default();
        let per_hop = cfg.tx_time_ns() + cfg.prop_delay_ns;
        let hops = topo.route(src, dst).expect("route").link_hops() as u64;
        prop_assert!(
            packet_fct >= fluid_fct,
            "store-and-forward cannot beat the fluid ideal: {packet_fct} < {fluid_fct}"
        );
        prop_assert!(
            packet_fct <= fluid_fct + hops * per_hop,
            "lone packet flow exceeds the pipeline bound: \
             {packet_fct} > {fluid_fct} + {hops} * {per_hop}"
        );
    }

    /// Every catalog scenario conserves bytes on every seed
    /// (offered == delivered + dropped + killed, in aggregate and per
    /// flow), and reruns reproduce the identical report.
    #[test]
    fn catalog_conserves_bytes_and_reruns_identically(
        seed in any::<u64>(),
        which in 0usize..5,
    ) {
        let topo = small_topo();
        let n = topo.network().server_count();
        let engine = TrafficEngine::new(&topo);
        let name = scenarios::NAMES[which];
        let scenario = scenarios::by_name(name, n, seed).expect("catalog name");
        let report = engine.run(&scenario).expect("run");
        prop_assert!(report.conserves_bytes(), "{name} leaked bytes");
        prop_assert!(report.delivery_ratio() <= 1.0 + 1e-12);
        prop_assert!(report.completed <= report.flows);
        prop_assert!(report.makespan_ns > 0);
        let rerun = engine.run(&scenario).expect("rerun");
        prop_assert_eq!(report, rerun, "{} is not rerun-deterministic", name);
    }
}
