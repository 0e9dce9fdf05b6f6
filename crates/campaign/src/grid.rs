//! Declarative sweep grids.
//!
//! A [`CampaignGrid`] is the cross product of seven axes — application ×
//! scale × execution mode × scheduler × failure behaviour × checkpoint
//! plan × seed — that expands into independent, deterministic
//! [`RunSpec`]s.  Built-in presets cover the CI smoke gate, a failure-rate
//! sweep, a scheduler comparison, a replication-vs-C/R grid and a broad
//! "full" grid; custom grids are plain struct literals.

use crate::spec::{FailureSpec, RunSpec};
use apps::{AppId, ExperimentScale};
use intra_replication::CheckpointPlan;
use ipr_core::SchedulerKind;
use replication::{ExecutionMode, FailureDomain, FailureRate};

/// A declarative sweep: the cross product of the seven axes below.
#[derive(Debug, Clone)]
pub struct CampaignGrid {
    /// Grid name (used in reports and output file names).
    pub name: String,
    /// Experiment scale shared by every run of the grid.
    pub scale: ExperimentScale,
    /// Applications to sweep.
    pub apps: Vec<AppId>,
    /// Execution modes to sweep.
    pub modes: Vec<ExecutionMode>,
    /// Schedulers to sweep.
    pub schedulers: Vec<SchedulerKind>,
    /// Failure behaviours to sweep.
    pub failures: Vec<FailureSpec>,
    /// Checkpoint plans to sweep (`None` = no checkpointing; the C/R axis
    /// of the replication-vs-C/R comparison).
    pub ckpts: Vec<Option<CheckpointPlan>>,
    /// Seeds to sweep (each seed is an independent replication of the whole
    /// grid point).
    pub seeds: Vec<u64>,
}

impl CampaignGrid {
    /// Expands the grid into its runs, in deterministic axis order
    /// (app-major, seed-minor).
    pub fn expand(&self) -> Vec<RunSpec> {
        let mut specs = Vec::new();
        for &app in &self.apps {
            for &mode in &self.modes {
                for &scheduler in &self.schedulers {
                    for &failure in &self.failures {
                        for &ckpt in &self.ckpts {
                            for &seed in &self.seeds {
                                specs.push(RunSpec {
                                    index: specs.len(),
                                    app,
                                    scale: self.scale,
                                    mode,
                                    scheduler,
                                    failure,
                                    seed,
                                    ckpt,
                                });
                            }
                        }
                    }
                }
            }
        }
        specs
    }

    /// The CI smoke grid: two applications, all three execution modes, with
    /// and without Poisson failures, at the tiny scale.  Small enough to run
    /// on every push, wide enough to cover the replication/recovery
    /// machinery end to end.
    pub fn smoke() -> Self {
        CampaignGrid {
            name: "smoke".to_string(),
            scale: ExperimentScale::Tiny,
            apps: vec![AppId::Hpccg, AppId::Gtc],
            modes: vec![
                ExecutionMode::Native,
                ExecutionMode::Replicated { degree: 2 },
                ExecutionMode::IntraParallel { degree: 2 },
            ],
            schedulers: vec![SchedulerKind::StaticBlock],
            failures: vec![
                FailureSpec::None,
                FailureSpec::Poisson {
                    rate: FailureRate::Constant(SMOKE_FAILURE_RATE),
                    horizon_s: SMOKE_FAILURE_HORIZON_S,
                },
            ],
            ckpts: vec![None],
            seeds: vec![43],
        }
    }

    /// Failure-model sweep: HPCCG under intra-parallelized replication with
    /// homogeneous and inhomogeneous (ramp, burst) Poisson arrivals at
    /// increasing rates, the fitted Weibull/log-normal MTBF hazards, and
    /// correlated node/rack failure domains.
    pub fn failures() -> Self {
        let h = SMOKE_FAILURE_HORIZON_S;
        CampaignGrid {
            name: "failures".to_string(),
            scale: ExperimentScale::Tiny,
            apps: vec![AppId::Hpccg],
            modes: vec![ExecutionMode::IntraParallel { degree: 2 }],
            schedulers: vec![SchedulerKind::StaticBlock],
            failures: vec![
                FailureSpec::None,
                FailureSpec::Poisson {
                    rate: FailureRate::Constant(0.5),
                    horizon_s: h,
                },
                FailureSpec::Poisson {
                    rate: FailureRate::Constant(2.0),
                    horizon_s: h,
                },
                FailureSpec::Poisson {
                    rate: FailureRate::Constant(5.0),
                    horizon_s: h,
                },
                FailureSpec::Poisson {
                    rate: FailureRate::Ramp {
                        start: 0.0,
                        end: 4.0,
                    },
                    horizon_s: h,
                },
                FailureSpec::Poisson {
                    rate: FailureRate::Burst {
                        base: 0.0,
                        peak: 8.0,
                        center: 0.5,
                        width: 0.25,
                    },
                    horizon_s: h,
                },
                // The fitted MTBF hazards, with one MTBF per horizon so a
                // tiny run sees about one expected failure per rank.
                FailureSpec::Poisson {
                    rate: FailureRate::weibull_hpc(h),
                    horizon_s: h,
                },
                FailureSpec::Poisson {
                    rate: FailureRate::lognormal_hpc(h),
                    horizon_s: h,
                },
                // Correlated domains: one event kills a whole node / rack.
                FailureSpec::Correlated {
                    domain: FailureDomain::Node,
                    rate: FailureRate::Constant(1.0),
                    horizon_s: h,
                },
                FailureSpec::Correlated {
                    domain: FailureDomain::Rack { nodes_per_rack: 2 },
                    rate: FailureRate::weibull_hpc(h),
                    horizon_s: h,
                },
            ],
            ckpts: vec![None],
            seeds: vec![42, 43, 44],
        }
    }

    /// Scheduler comparison on every application, intra mode only.
    pub(crate) fn schedulers() -> Self {
        CampaignGrid {
            name: "schedulers".to_string(),
            scale: ExperimentScale::Tiny,
            apps: AppId::ALL.to_vec(),
            modes: vec![ExecutionMode::IntraParallel { degree: 2 }],
            schedulers: SchedulerKind::ALL.to_vec(),
            failures: vec![FailureSpec::None],
            ckpts: vec![None],
            seeds: vec![42],
        }
    }

    /// The broad grid: every application, all three modes, two schedulers,
    /// failure-free and failing, at the small scale.  Gated per push with
    /// the `schedulers` grid (`make schedulers-smoke`).
    pub fn full() -> Self {
        CampaignGrid {
            name: "full".to_string(),
            scale: ExperimentScale::Small,
            apps: AppId::ALL.to_vec(),
            modes: vec![
                ExecutionMode::Native,
                ExecutionMode::Replicated { degree: 2 },
                ExecutionMode::IntraParallel { degree: 2 },
            ],
            schedulers: vec![SchedulerKind::StaticBlock, SchedulerKind::Adaptive],
            failures: vec![
                FailureSpec::None,
                FailureSpec::Poisson {
                    rate: FailureRate::Constant(0.2),
                    horizon_s: 5.0,
                },
            ],
            ckpts: vec![None],
            seeds: vec![42],
        }
    }

    /// The replication-vs-C/R grid (the paper's Figure 5 axis): HPCCG
    /// native and replicated, failure-free plus both fitted MTBF hazards,
    /// swept against no checkpointing and the fixed / Young / Daly
    /// interval policies.  The failure-free x Young/Daly points resolve to
    /// an infinite interval (never checkpoint), so the pure cross product
    /// stays meaningful.
    pub fn ckpt() -> Self {
        let h = SMOKE_FAILURE_HORIZON_S;
        CampaignGrid {
            name: "ckpt".to_string(),
            scale: ExperimentScale::Tiny,
            apps: vec![AppId::Hpccg],
            modes: vec![
                ExecutionMode::Native,
                ExecutionMode::Replicated { degree: 2 },
            ],
            schedulers: vec![SchedulerKind::StaticBlock],
            failures: vec![
                FailureSpec::None,
                FailureSpec::Poisson {
                    rate: FailureRate::weibull_hpc(h),
                    horizon_s: h,
                },
                FailureSpec::Poisson {
                    rate: FailureRate::lognormal_hpc(h),
                    horizon_s: h,
                },
            ],
            ckpts: vec![
                None,
                Some(CheckpointPlan::fixed(0.05, 0.005, 0.01)),
                Some(CheckpointPlan::young(0.005, 0.01)),
                Some(CheckpointPlan::daly(0.005, 0.01)),
            ],
            seeds: vec![42],
        }
    }

    /// The built-in grids, in listing order; each is named once, by the
    /// `name` its constructor sets.
    const BUILTINS: [fn() -> Self; 5] = [
        Self::smoke,
        Self::failures,
        Self::schedulers,
        Self::full,
        Self::ckpt,
    ];

    /// Looks up a built-in grid by name.
    pub fn by_name(name: &str) -> Option<Self> {
        Self::BUILTINS
            .iter()
            .map(|make| make())
            .find(|g| g.name == name)
    }

    /// Names of the built-in grids.
    pub fn builtin_names() -> Vec<String> {
        Self::BUILTINS.iter().map(|make| make().name).collect()
    }
}

/// Failure rate of the smoke grid's Poisson axis (crashes per rank per
/// virtual second), calibrated so that a tiny run (virtual makespan
/// 0.2–0.9 s) sees roughly one crash across its ranks.
pub(crate) const SMOKE_FAILURE_RATE: f64 = 0.5;

/// Horizon of the smoke grid's failure traces, in virtual seconds (covers
/// the whole tiny-scale run).
const SMOKE_FAILURE_HORIZON_S: f64 = 1.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_the_full_cross_product_with_stable_indices() {
        let grid = CampaignGrid::smoke();
        let specs = grid.expand();
        let expected = grid.apps.len()
            * grid.modes.len()
            * grid.schedulers.len()
            * grid.failures.len()
            * grid.ckpts.len()
            * grid.seeds.len();
        assert_eq!(specs.len(), expected);
        for (i, spec) in specs.iter().enumerate() {
            assert_eq!(spec.index, i);
        }
        // Expansion is deterministic.
        assert_eq!(grid.expand(), specs);
        // Run ids are unique.
        let mut ids: Vec<String> = specs.iter().map(RunSpec::id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), specs.len());
    }

    #[test]
    fn builtin_grids_resolve_by_name() {
        for name in CampaignGrid::builtin_names() {
            let grid = CampaignGrid::by_name(&name).unwrap();
            assert_eq!(grid.name, name);
            assert!(!grid.expand().is_empty());
        }
        assert!(CampaignGrid::by_name("nope").is_none());
    }

    #[test]
    fn every_builtin_grid_point_is_a_valid_experiment() {
        // The grids are typed, so the only way a spec could fail to convert
        // is an invalid axis combination; none of the built-ins has one.
        for name in CampaignGrid::builtin_names() {
            for spec in CampaignGrid::by_name(&name).unwrap().expand() {
                let experiment = spec.experiment().unwrap_or_else(|e| {
                    panic!("{}: {e}", spec.id());
                });
                assert_eq!(RunSpec::from_experiment(spec.index, &experiment), spec);
            }
        }
    }
}
