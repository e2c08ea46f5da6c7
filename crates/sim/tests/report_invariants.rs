//! Integration invariants for the packet-level report: aggregate totals
//! must equal the per-flow accounting, conservation must hold for every
//! flow (offered = delivered + dropped + in-flight-at-horizon), and the
//! telemetry counters must advance by exactly the report's totals.

use abccc::{Abccc, AbcccParams};
use dcn_sim::{FlowSpec, PacketSim, PacketSimConfig};
use netgraph::Topology;
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// dcn-telemetry state is process-global: serialize the tests in this
/// binary that enable recording and read counter deltas.
static GUARD: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    GUARD.lock().unwrap_or_else(PoisonError::into_inner)
}

fn run_shuffle(buffer_packets: u32) -> dcn_sim::PacketSimReport {
    let topo = Abccc::new(AbcccParams::new(3, 2, 2).unwrap()).unwrap();
    let n = topo.network().server_count();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x8E9);
    let pairs = dcn_workloads::traffic::shuffle(n, 6, 6, &mut rng);
    let specs: Vec<FlowSpec> = pairs
        .iter()
        .map(|&(s, d)| FlowSpec::bulk(s, d, 40))
        .collect();
    let cfg = PacketSimConfig {
        buffer_packets,
        ..Default::default()
    };
    PacketSim::new(&topo, cfg).run(&specs).expect("run")
}

/// Report totals are exactly the sums of the per-flow outcomes, and each
/// flow conserves packets.
#[test]
fn report_totals_match_per_flow_outcomes() {
    let _l = lock();
    // Tiny buffers so the congested shuffle actually drops packets and
    // the dropped-side accounting is exercised too.
    let report = run_shuffle(4);

    let delivered: u64 = report.per_flow.iter().map(|f| f.delivered).sum();
    let dropped: u64 = report.per_flow.iter().map(|f| f.dropped).sum();
    assert_eq!(report.delivered, delivered, "aggregate delivered");
    assert_eq!(report.dropped, dropped, "aggregate dropped");
    assert!(
        report.dropped > 0,
        "4-packet buffers must drop under 6×6 shuffle"
    );

    for f in &report.per_flow {
        assert!(
            f.delivered + f.dropped <= f.offered,
            "flow {:?}->{:?}: delivered {} + dropped {} > offered {}",
            f.src,
            f.dst,
            f.delivered,
            f.dropped,
            f.offered
        );
        if f.complete() {
            assert_eq!(f.delivered, f.offered);
            assert!(f.completion_ns <= report.makespan_ns);
        }
    }

    let loss = report.loss_rate();
    let expected = dropped as f64 / (delivered + dropped) as f64;
    assert!(
        (loss - expected).abs() < 1e-12,
        "loss_rate {loss} vs {expected}"
    );
}

/// The packetsim.delivered / packetsim.dropped / packetsim.events
/// counters advance by exactly what the report claims.
#[test]
fn counters_match_report() {
    let _l = lock();
    let reg = dcn_telemetry::registry();
    let delivered_before = reg.counter("packetsim.delivered").get();
    let dropped_before = reg.counter("packetsim.dropped").get();
    let events_before = reg.counter("packetsim.events").get();
    let runs_before = reg.counter("packetsim.runs").get();

    dcn_telemetry::set_enabled(true);
    let live = dcn_telemetry::enabled(); // false when built with `noop`
    let report = run_shuffle(64);
    dcn_telemetry::set_enabled(false);

    if live {
        assert_eq!(
            reg.counter("packetsim.delivered").get() - delivered_before,
            report.delivered
        );
        assert_eq!(
            reg.counter("packetsim.dropped").get() - dropped_before,
            report.dropped
        );
        assert_eq!(reg.counter("packetsim.runs").get() - runs_before, 1);
        // Every delivered packet takes ≥ 1 event; drops may or may not.
        let events = reg.counter("packetsim.events").get() - events_before;
        assert!(
            events >= report.delivered,
            "events {events} < delivered {}",
            report.delivered
        );
    }
}
