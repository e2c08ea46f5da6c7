//! Campaign fault scenarios: what breaks, per trial.

use abccc::Abccc;
use netgraph::{mix_seed_additive, FaultMask, FaultScenario, NetworkError, Topology};
use serde::{Deserialize, Serialize};

/// What a single campaign trial breaks. Every variant materializes through
/// the seeded [`FaultScenario`] builder (or the correlated generators of
/// `dcn-workloads`, which do the same), so a trial's mask is a pure
/// function of its derived seed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ScenarioKind {
    /// Independent uniform failures: exactly `round(rate · population)`
    /// elements of each class, freshly drawn per trial.
    Uniform {
        /// Fraction of servers to fail (0.0–1.0).
        server_rate: f64,
        /// Fraction of switches to fail.
        switch_rate: f64,
        /// Fraction of links to fail.
        link_rate: f64,
    },
    /// Correlated rack loss: `groups` whole crossbar groups (all `m`
    /// servers of a cube label plus its crossbar switch), freshly chosen
    /// per trial.
    CrossbarGroups {
        /// How many groups go down together.
        groups: usize,
    },
    /// Correlated firmware loss: every switch of cube level `level`. The
    /// same deterministic outage in every trial — the cube partitions into
    /// `n` components (the failure ABCCC cannot absorb).
    LevelSwitches {
        /// The cube level whose switches all fail.
        level: u32,
    },
    /// Time-stepped flapping links: each of `steps` time steps draws a
    /// fresh uniform `rate` fraction of links down; per-trial metrics
    /// aggregate over the steps.
    FlappingLinks {
        /// Fraction of links down at any instant.
        rate: f64,
        /// Time steps per trial.
        steps: usize,
    },
}

impl ScenarioKind {
    /// Stable label for tables and telemetry.
    pub fn label(&self) -> &'static str {
        match self {
            ScenarioKind::Uniform { .. } => "uniform",
            ScenarioKind::CrossbarGroups { .. } => "crossbar_groups",
            ScenarioKind::LevelSwitches { .. } => "level_switches",
            ScenarioKind::FlappingLinks { .. } => "flapping_links",
        }
    }

    /// Time steps a trial of this scenario evaluates (1 for everything but
    /// flapping).
    pub fn steps(&self) -> usize {
        match self {
            ScenarioKind::FlappingLinks { steps, .. } => (*steps).max(1),
            _ => 1,
        }
    }

    /// Whether the scenario needs ABCCC cube structure (crossbar groups,
    /// level switches) rather than plain element populations.
    pub fn needs_cube(&self) -> bool {
        matches!(
            self,
            ScenarioKind::CrossbarGroups { .. } | ScenarioKind::LevelSwitches { .. }
        )
    }

    /// Checks rates and ranges against the topology the campaign will run
    /// on. Element-population scenarios (uniform, flapping) accept any
    /// [`Topology`]; the cube-structured scenarios (crossbar groups, level
    /// switches) require an ABCCC instance.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::InvalidParameter`] describing the first
    /// malformed field, or the scenario/topology mismatch.
    pub fn validate_for(&self, topo: &dyn Topology) -> Result<(), NetworkError> {
        let frac = |name: &'static str, v: f64| {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(NetworkError::InvalidParameter {
                    name,
                    reason: format!("must be in [0,1], got {v}"),
                })
            }
        };
        let cube = || {
            topo.as_any()
                .downcast_ref::<Abccc>()
                .ok_or_else(|| NetworkError::InvalidParameter {
                    name: "scenario",
                    reason: format!(
                        "{} requires an ABCCC topology, got {}",
                        self.label(),
                        topo.name()
                    ),
                })
        };
        match *self {
            ScenarioKind::Uniform {
                server_rate,
                switch_rate,
                link_rate,
            } => {
                frac("server_rate", server_rate)?;
                frac("switch_rate", switch_rate)?;
                frac("link_rate", link_rate)
            }
            ScenarioKind::CrossbarGroups { groups } => {
                let p = cube()?.params();
                if groups as u64 > p.label_space() {
                    return Err(NetworkError::InvalidParameter {
                        name: "groups",
                        reason: format!(
                            "{} groups exceed the label space {}",
                            groups,
                            p.label_space()
                        ),
                    });
                }
                Ok(())
            }
            ScenarioKind::LevelSwitches { level } => {
                let p = cube()?.params();
                if level > p.k() {
                    return Err(NetworkError::InvalidParameter {
                        name: "level",
                        reason: format!("level {level} out of range (k = {})", p.k()),
                    });
                }
                Ok(())
            }
            ScenarioKind::FlappingLinks { rate, steps } => {
                frac("rate", rate)?;
                if steps == 0 {
                    return Err(NetworkError::InvalidParameter {
                        name: "steps",
                        reason: "flapping needs at least one time step".into(),
                    });
                }
                Ok(())
            }
        }
    }

    /// Materializes the mask for time step `step` of the trial whose
    /// derived seed is `trial_seed`. Cube-structured scenarios must have
    /// passed [`ScenarioKind::validate_for`] first.
    pub(crate) fn mask_for(&self, topo: &dyn Topology, trial_seed: u64, step: usize) -> FaultMask {
        let net = topo.network();
        let seed = mix_seed_additive(trial_seed, step as u64);
        let cube = || {
            topo.as_any()
                .downcast_ref::<Abccc>()
                .expect("cube scenario validated for an ABCCC topology")
        };
        match *self {
            ScenarioKind::Uniform {
                server_rate,
                switch_rate,
                link_rate,
            } => FaultScenario::seeded(seed)
                .fail_servers_frac(server_rate)
                .fail_switches_frac(switch_rate)
                .fail_links_frac(link_rate)
                .build(net),
            ScenarioKind::CrossbarGroups { groups } => {
                use rand::SeedableRng;
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                dcn_workloads::correlated::fail_abccc_groups(cube().params(), net, groups, &mut rng)
            }
            ScenarioKind::LevelSwitches { level } => {
                dcn_workloads::correlated::fail_abccc_level(cube().params(), net, level)
            }
            ScenarioKind::FlappingLinks { rate, .. } => {
                FaultScenario::seeded(seed).fail_links_frac(rate).build(net)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abccc::AbcccParams;

    fn topo() -> Abccc {
        Abccc::new(AbcccParams::new(3, 2, 2).unwrap()).unwrap()
    }

    #[test]
    fn masks_are_seed_deterministic() {
        let t = topo();
        let kinds = [
            ScenarioKind::Uniform {
                server_rate: 0.1,
                switch_rate: 0.1,
                link_rate: 0.1,
            },
            ScenarioKind::CrossbarGroups { groups: 2 },
            ScenarioKind::LevelSwitches { level: 1 },
            ScenarioKind::FlappingLinks {
                rate: 0.05,
                steps: 3,
            },
        ];
        for k in kinds {
            assert_eq!(k.mask_for(&t, 9, 0), k.mask_for(&t, 9, 0), "{}", k.label());
        }
        // Flapping re-draws per step.
        let flap = ScenarioKind::FlappingLinks {
            rate: 0.05,
            steps: 3,
        };
        assert_ne!(flap.mask_for(&t, 9, 0), flap.mask_for(&t, 9, 1));
    }

    #[test]
    fn validate_rejects_malformed_fields() {
        let t = topo();
        assert!(ScenarioKind::Uniform {
            server_rate: 1.5,
            switch_rate: 0.0,
            link_rate: 0.0,
        }
        .validate_for(&t)
        .is_err());
        assert!(ScenarioKind::LevelSwitches { level: 9 }
            .validate_for(&t)
            .is_err());
        assert!(ScenarioKind::FlappingLinks {
            rate: 0.1,
            steps: 0
        }
        .validate_for(&t)
        .is_err());
        assert!(ScenarioKind::CrossbarGroups { groups: 1_000_000 }
            .validate_for(&t)
            .is_err());
        assert!(ScenarioKind::CrossbarGroups { groups: 2 }
            .validate_for(&t)
            .is_ok());
    }

    #[test]
    fn cube_scenarios_reject_non_cube_topologies() {
        use dcn_baselines::prelude::*;
        let t = Jellyfish::new(JellyfishParams::new(8, 3, 1, 7).unwrap()).unwrap();
        assert!(ScenarioKind::CrossbarGroups { groups: 1 }
            .validate_for(&t)
            .is_err());
        assert!(ScenarioKind::LevelSwitches { level: 0 }
            .validate_for(&t)
            .is_err());
        assert!(ScenarioKind::Uniform {
            server_rate: 0.1,
            switch_rate: 0.1,
            link_rate: 0.0,
        }
        .validate_for(&t)
        .is_ok());
        assert!(!ScenarioKind::Uniform {
            server_rate: 0.1,
            switch_rate: 0.1,
            link_rate: 0.0,
        }
        .needs_cube());
        assert!(ScenarioKind::LevelSwitches { level: 0 }.needs_cube());
    }
}
