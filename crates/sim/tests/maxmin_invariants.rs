//! Integration invariants for the max-min fair allocator, cross-checked
//! against the telemetry counters it publishes: per-directed-link
//! allocation sums never exceed capacity, the published residual agrees,
//! and the round counters are consistent with the calls made.

use abccc::{Abccc, AbcccParams};
use dcn_sim::{max_min_allocation, DirectedLink, FlowSim};
use netgraph::{Route, Topology};
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// dcn-telemetry state is process-global: serialize the tests in this
/// binary that enable recording and read counter deltas.
static GUARD: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    GUARD.lock().unwrap_or_else(PoisonError::into_inner)
}

fn topo() -> Abccc {
    Abccc::new(AbcccParams::new(3, 2, 2).unwrap()).unwrap() // 81 servers
}

fn permutation_flows(topo: &Abccc, seed: u64) -> Vec<Vec<DirectedLink>> {
    let net = topo.network();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let pairs = dcn_workloads::traffic::random_permutation(net.server_count(), &mut rng);
    pairs
        .iter()
        .map(|&(s, d)| {
            let r: Route = topo.route(s, d).expect("fault-free route");
            DirectedLink::of_route(net, &r)
        })
        .collect()
}

/// Max-min's defining feasibility invariant: on every directed link the
/// allocated rates sum to at most the link capacity.
#[test]
fn allocations_never_oversubscribe_a_link() {
    let _l = lock();
    let t = topo();
    let net = t.network();
    let flows = permutation_flows(&t, 0xA110C);

    dcn_telemetry::set_enabled(true);
    let live = dcn_telemetry::enabled(); // false when built with `noop`
    let rates = max_min_allocation(net, &flows);
    dcn_telemetry::set_enabled(false);

    assert_eq!(rates.len(), flows.len());
    let mut per_link = vec![0.0f64; net.link_count() * 2];
    for (f, &rate) in flows.iter().zip(&rates) {
        assert!(rate.is_finite() && rate > 0.0, "rate {rate}");
        for dl in f {
            per_link[dl.index()] += rate;
        }
    }
    let mut worst = 0.0f64;
    for (i, link) in net.links().iter().enumerate() {
        for dir in [2 * i, 2 * i + 1] {
            let over = per_link[dir] - link.capacity;
            assert!(
                over <= 1e-6,
                "directed link {dir}: allocated {} > capacity {}",
                per_link[dir],
                link.capacity
            );
            worst = worst.max(over);
        }
    }
    // The allocator's own residual gauge must agree with the external
    // recomputation (it tracks the worst oversubscription it ever saw).
    if live {
        let residual = dcn_telemetry::registry()
            .float_gauge("flowsim.maxmin.residual")
            .get();
        assert!(
            residual <= 1e-6,
            "allocator reported residual {residual} but claims feasibility"
        );
        assert!(
            worst <= residual + 1e-6,
            "gauge under-reports: {worst} vs {residual}"
        );
    }
}

/// Every max-min call runs at least one progressive-filling round, and
/// the rounds histogram stays consistent with the calls counter.
#[test]
fn round_counters_are_consistent() {
    let _l = lock();
    let t = topo();
    let net = t.network();
    let flows = permutation_flows(&t, 0x20511D5);

    let reg = dcn_telemetry::registry();
    let calls_before = reg.counter("flowsim.maxmin.calls").get();
    let rounds_before = reg.counter("flowsim.maxmin.rounds").get();
    let hist_before = reg.histogram("flowsim.maxmin.rounds_per_call").count();

    dcn_telemetry::set_enabled(true);
    let live = dcn_telemetry::enabled();
    let calls = 3u64;
    for _ in 0..calls {
        let _ = max_min_allocation(net, &flows);
    }
    dcn_telemetry::set_enabled(false);

    if live {
        assert_eq!(
            reg.counter("flowsim.maxmin.calls").get() - calls_before,
            calls
        );
        assert_eq!(
            reg.histogram("flowsim.maxmin.rounds_per_call").count() - hist_before,
            calls
        );
        let rounds = reg.counter("flowsim.maxmin.rounds").get() - rounds_before;
        assert!(
            rounds >= calls,
            "each call must take ≥ 1 filling round, got {rounds} over {calls} calls"
        );
    }
}

/// The sim-level flow accounting matches its report: routed + unroutable
/// counters advance by exactly the pair count.
#[test]
fn simulator_flow_counters_match_report() {
    let _l = lock();
    let t = topo();
    let net = t.network();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let pairs = dcn_workloads::traffic::random_permutation(net.server_count(), &mut rng);

    let reg = dcn_telemetry::registry();
    let routed_before = reg.counter("flowsim.flows_routed").get();
    let unroutable_before = reg.counter("flowsim.flows_unroutable").get();

    dcn_telemetry::set_enabled(true);
    let live = dcn_telemetry::enabled();
    let report = FlowSim::new(&t).run(&pairs).expect("fault-free run");
    dcn_telemetry::set_enabled(false);

    assert_eq!(report.flows + report.unroutable, pairs.len());
    if live {
        let routed = reg.counter("flowsim.flows_routed").get() - routed_before;
        let unroutable = reg.counter("flowsim.flows_unroutable").get() - unroutable_before;
        assert_eq!(routed as usize, report.flows);
        assert_eq!(unroutable as usize, report.unroutable);
    }
}
