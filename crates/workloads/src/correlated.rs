//! Correlated failure scenarios.
//!
//! Real outages are not uniform coin flips: a power feed takes out a whole
//! rack (an ABCCC crossbar group), a bad firmware push takes out one switch
//! model (a whole level), a cable tray cut severs a bundle. These
//! generators produce such structured [`FaultMask`]s for the fault
//! experiments.

use netgraph::{FaultMask, FaultScenario, Network};
use rand::seq::SliceRandom;
use rand::Rng;

/// Fails `groups` whole ABCCC crossbar groups (rack-loss model): all `m`
/// servers of each chosen cube label plus its crossbar.
///
/// # Panics
///
/// Panics if `groups` exceeds the label space.
pub fn fail_abccc_groups(
    p: &abccc::AbcccParams,
    net: &Network,
    groups: usize,
    rng: &mut impl Rng,
) -> FaultMask {
    let labels: Vec<u64> = (0..p.label_space()).collect();
    assert!(groups <= labels.len(), "more groups than labels");
    let mut nodes = Vec::new();
    for &raw in labels.choose_multiple(rng, groups) {
        let label = abccc::CubeLabel(raw);
        for pos in 0..p.group_size() {
            nodes.push(abccc::ServerAddr::new(p, label, pos).node_id(p));
        }
        if p.group_size() > 1 {
            nodes.push(abccc::SwitchAddr::Crossbar(label).node_id(p));
        }
    }
    FaultScenario::seeded(0).fail_nodes(nodes).build(net)
}

/// Fails every switch of one ABCCC cube level (bad-firmware model).
///
/// Note: this is the correlated failure ABCCC *cannot* absorb — digit `i`
/// changes only across level-`i` switches, so the cube partitions into `n`
/// components keyed by that digit (asserted in tests). Deployments should
/// therefore diversify switch models/firmware across levels.
///
/// # Panics
///
/// Panics if `level > k`.
pub fn fail_abccc_level(p: &abccc::AbcccParams, net: &Network, level: u32) -> FaultMask {
    assert!(level <= p.k(), "level out of range");
    let switches =
        (0..p.rest_space()).map(|rest| abccc::SwitchAddr::Level { level, rest }.node_id(p));
    FaultScenario::seeded(0).fail_nodes(switches).build(net)
}

/// Fails a contiguous bundle of `count` cables starting at a random link
/// id (cable-tray cut model — builders lay related cables adjacently, and
/// our constructors emit them in structured order).
pub fn fail_cable_bundle(net: &Network, count: usize, rng: &mut impl Rng) -> FaultMask {
    if net.link_count() == 0 {
        return FaultMask::new(net);
    }
    let count = count.min(net.link_count());
    let start = rng.gen_range(0..net.link_count() - count + 1);
    let bundle = (start..start + count).map(|l| netgraph::LinkId(l as u32));
    FaultScenario::seeded(0).fail_links(bundle).build(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use abccc::{Abccc, AbcccParams};
    use netgraph::Topology;
    use rand::SeedableRng;

    fn setup() -> (AbcccParams, Abccc) {
        let p = AbcccParams::new(3, 2, 2).unwrap();
        let t = Abccc::new(p).unwrap();
        (p, t)
    }

    #[test]
    fn group_failure_takes_whole_racks() {
        let (p, t) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mask = fail_abccc_groups(&p, t.network(), 3, &mut rng);
        // 3 groups × (m servers + 1 crossbar).
        assert_eq!(
            mask.failed_node_count() as u64,
            3 * (u64::from(p.group_size()) + 1)
        );
        // Surviving servers stay mutually connected (parallel paths).
        assert!(netgraph::connectivity::servers_connected(
            t.network(),
            Some(&mask)
        ));
    }

    #[test]
    fn level_failure_partitions_the_cube_by_that_digit() {
        // A whole-level outage is the one correlated failure ABCCC cannot
        // route around: digit `i` can only change across level-`i`
        // switches, so the cube splits into `n` equal components.
        let (p, t) = setup();
        let mask = fail_abccc_level(&p, t.network(), 1);
        assert_eq!(mask.failed_node_count() as u64, p.rest_space());
        assert!(!netgraph::connectivity::servers_connected(
            t.network(),
            Some(&mask)
        ));
        let frac =
            netgraph::connectivity::largest_component_server_fraction(t.network(), Some(&mask));
        assert!((frac - 1.0 / f64::from(p.n())).abs() < 1e-12, "{frac}");
        // Servers sharing digit 1 remain mutually reachable.
        let a = abccc::ServerAddr::new(&p, abccc::CubeLabel(0), 0).node_id(&p);
        let same_digit =
            abccc::ServerAddr::new(&p, abccc::CubeLabel::from_digits(&p, &[2, 0, 2]), 1)
                .node_id(&p);
        assert!(netgraph::bfs::shortest_path(t.network(), a, same_digit, Some(&mask)).is_some());
    }

    #[test]
    fn bundle_cut_is_contiguous() {
        let (_, t) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mask = fail_cable_bundle(t.network(), 10, &mut rng);
        assert_eq!(mask.failed_link_count(), 10);
        assert_eq!(mask.failed_node_count(), 0);
    }
}
