//! Seeded input generation: the program under test only ever receives the
//! `Experiment`s, `RunSpec`s and `WeakRunSpec`s built here, and the same
//! `--seed` always builds the same ones.

use apps::{AppId, ExperimentScale, WeakMode};
use campaign::{CampaignGrid, FailureSpec, RunSpec, WeakRunSpec};
use intra_replication::{CheckpointPlan, Experiment, FailurePlan};
use ipr_core::SchedulerKind;
use replication::{ExecutionMode, FailureDomain, FailureRate};

/// splitmix64: the harness's own generator, so input generation does not
/// depend on (or perturb) any random stream of the program under test.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for one `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        g.next();
        g
    }

    /// The next 64 random bits.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// First of the run seeds derived from `--seed` for one input stream.
/// Kept far below 2^53 because run seeds travel through JSON numbers.
pub fn base_seed(seed: u64, stream: u64) -> u64 {
    (SplitMix::new(seed, stream).next() % 1_000_000) * 1_000
}

/// The three execution modes every workload compares.
pub const MODES: [ExecutionMode; 3] = [
    ExecutionMode::Native,
    ExecutionMode::Replicated { degree: 2 },
    ExecutionMode::IntraParallel { degree: 2 },
];

/// The three engine-world modes, in the same order as [`MODES`].
pub const WEAK_MODES: [WeakMode; 3] = [WeakMode::Native, WeakMode::Replicated, WeakMode::Intra];

/// Scale of the timed `figs-thread` points and of the layer suite's
/// application runs: `figures fig6 small`, 4 logical ranks.
pub const FIGURE_SCALE: ExperimentScale = ExperimentScale::Small;

/// `figs-thread`: the twelve Figure 6 points (four applications × native /
/// replicated2 / intra2) at `scale`, in an order shuffled by the seed.
pub fn figure_points(seed: u64, scale: ExperimentScale) -> Vec<Experiment> {
    let base = base_seed(seed, 1);
    let mut points = Vec::new();
    for app in [
        AppId::AmgPcg27,
        AppId::AmgGmres7,
        AppId::Gtc,
        AppId::MiniGhost,
    ] {
        for mode in MODES {
            points.push(
                Experiment::builder()
                    .app(app)
                    .scale(scale)
                    .execution_mode(mode)
                    .scheduler(SchedulerKind::StaticBlock)
                    .seed(base + points.len() as u64)
                    .build()
                    .expect("figure points are valid experiments"),
            );
        }
    }
    SplitMix::new(seed, 2).shuffle(&mut points);
    points
}

/// `weak-engine`: one failure-free single-iteration run per mode at
/// `logical` ranks.
pub fn weak_specs(seed: u64, logical: usize) -> Vec<WeakRunSpec> {
    let base = base_seed(seed, 3);
    WEAK_MODES
        .iter()
        .enumerate()
        .map(|(index, &mode)| WeakRunSpec {
            index,
            logical,
            mode,
            iters: 1,
            failure: FailureSpec::None,
            seed: base,
        })
        .collect()
}

/// Specs one `sweep-serve` seed contributes: every application × mode ×
/// {static-block, adaptive} failure-free, plus the `ckpt` grid's
/// plan-bearing points — all at the tiny scale.
pub const SPECS_PER_SWEEP_SEED: usize = 48;

/// `sweep-serve`: one job (a spec list) per seed of the window
/// `first .. first + seeds`.
pub fn sweep_jobs(first: u64, seeds: usize) -> Vec<Vec<RunSpec>> {
    let ckpt_points: Vec<RunSpec> = CampaignGrid::ckpt()
        .expand()
        .into_iter()
        .filter(|s| s.ckpt.is_some())
        .collect();
    (first..first + seeds as u64)
        .map(|seed| {
            let mut specs = Vec::with_capacity(SPECS_PER_SWEEP_SEED);
            for app in AppId::ALL {
                for mode in MODES {
                    for scheduler in [SchedulerKind::StaticBlock, SchedulerKind::Adaptive] {
                        specs.push(RunSpec {
                            index: specs.len(),
                            app,
                            scale: ExperimentScale::Tiny,
                            mode,
                            scheduler,
                            failure: FailureSpec::None,
                            seed,
                            ckpt: None,
                        });
                    }
                }
            }
            for point in &ckpt_points {
                specs.push(RunSpec {
                    index: specs.len(),
                    seed,
                    ..point.clone()
                });
            }
            specs
        })
        .collect()
}

/// First seed of the `sweep-serve` cold window for `--seed`.
pub fn sweep_first_seed(seed: u64) -> u64 {
    base_seed(seed, 4)
}

/// MTBF grid of `faults-ckpt`, as multiples of the failure-free makespan.
pub const FAULT_MTBF_MULTIPLES: [f64; 3] = [0.5, 4.0, 32.0];

/// `faults-ckpt`, thread world: checkpointed HPCCG runs built like the
/// Figure 5 crossover study but seeded — native and replicated2 × MTBF
/// multiple × {exponential, Weibull} × two seeds, under a Daly plan with
/// C = T0/64, R = T0/32 and a failure horizon of 64·T0.  Every
/// failure-bearing thread-world run carries a plan (see KNOWN_HAZARDS.md).
pub fn fault_experiments(seed: u64, scale: ExperimentScale, t0_s: f64) -> Vec<Experiment> {
    let base = base_seed(seed, 5);
    let plan = CheckpointPlan::daly(t0_s / 64.0, t0_s / 32.0);
    let mut runs = Vec::new();
    for mode in [MODES[0], MODES[1]] {
        for multiple in FAULT_MTBF_MULTIPLES {
            let mtbf_s = multiple * t0_s;
            for rate in [
                FailureRate::Constant(1.0 / mtbf_s),
                FailureRate::weibull_hpc(mtbf_s),
            ] {
                for k in 0..2 {
                    runs.push(
                        Experiment::builder()
                            .app(AppId::Hpccg)
                            .scale(scale)
                            .execution_mode(mode)
                            .scheduler(SchedulerKind::StaticBlock)
                            .failures(FailurePlan::poisson_process(rate, 64.0 * t0_s))
                            .checkpointing(plan)
                            .seed(base + k)
                            .build()
                            .expect("checkpointed fault runs are valid experiments"),
                    );
                }
            }
        }
    }
    runs
}

/// The failure-free native HPCCG run whose makespan `T0` scales the
/// `faults-ckpt` failure rates and checkpoint costs.
pub fn fault_baseline(scale: ExperimentScale) -> Experiment {
    Experiment::builder()
        .app(AppId::Hpccg)
        .scale(scale)
        .execution_mode(ExecutionMode::Native)
        .scheduler(SchedulerKind::StaticBlock)
        .build()
        .expect("the baseline is a valid experiment")
}

/// `faults-ckpt`, event engine: crash-stop runs at `logical` ranks × three
/// modes × {per-rank Weibull, rack-of-8 correlated} × two seeds.
pub fn fault_engine_specs(seed: u64, logical: usize) -> Vec<WeakRunSpec> {
    let base = base_seed(seed, 6);
    let horizon_s = FailureSpec::DEFAULT_HORIZON_S;
    let mut specs = Vec::new();
    for mode in WEAK_MODES {
        for failure in [
            FailureSpec::Poisson {
                rate: FailureRate::weibull_hpc(horizon_s),
                horizon_s,
            },
            FailureSpec::Correlated {
                domain: FailureDomain::Rack { nodes_per_rack: 8 },
                rate: FailureRate::Constant(0.2),
                horizon_s,
            },
        ] {
            for k in 0..2 {
                specs.push(WeakRunSpec {
                    index: specs.len(),
                    logical,
                    mode,
                    iters: 2,
                    failure,
                    seed: base + k,
                });
            }
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Canonical rendering of every input `--seed` generates at full scale
    /// (with a fixed stand-in for the measured `T0`): what the determinism
    /// test compares byte for byte.
    fn canonical_inputs(seed: u64) -> String {
        let mut out = String::new();
        for e in figure_points(seed, ExperimentScale::Full) {
            out.push_str(&e.fingerprint_material());
            out.push('\n');
        }
        for s in weak_specs(seed, 5_000) {
            out.push_str(&s.id());
            out.push('\n');
        }
        for job in sweep_jobs(sweep_first_seed(seed), 4) {
            for s in job {
                out.push_str(&s.id());
                out.push('\n');
            }
        }
        for e in fault_experiments(seed, ExperimentScale::Full, 5.0) {
            out.push_str(&e.fingerprint_material());
            out.push('\n');
        }
        for s in fault_engine_specs(seed, 1_000) {
            out.push_str(&s.id());
            out.push('\n');
        }
        out
    }

    #[test]
    fn the_same_seed_generates_byte_identical_inputs() {
        assert_eq!(canonical_inputs(42), canonical_inputs(42));
        assert_ne!(canonical_inputs(42), canonical_inputs(43));
    }

    #[test]
    fn another_seed_changes_failure_traces_and_cache_fingerprints() {
        let crashes =
            |seed| fault_experiments(seed, ExperimentScale::Tiny, 1.0)[0].scheduled_crashes();
        assert_eq!(crashes(42), crashes(42));
        assert_ne!(crashes(42), crashes(43));
        let fingerprints = |seed| -> Vec<u64> {
            sweep_jobs(sweep_first_seed(seed), 1)[0]
                .iter()
                .map(campaign::fingerprint)
                .collect()
        };
        assert_eq!(fingerprints(42), fingerprints(42));
        assert!(fingerprints(42)
            .iter()
            .zip(fingerprints(43))
            .all(|(a, b)| *a != b));
    }

    #[test]
    fn input_sets_have_the_documented_shape() {
        let points = figure_points(42, ExperimentScale::Tiny);
        assert_eq!(points.len(), 12);
        // The seed moves the order, never the set.
        let mut a: Vec<String> = points
            .iter()
            .map(|e| format!("{}{}", e.app().name(), e.mode().label()))
            .collect();
        let mut b: Vec<String> = figure_points(43, ExperimentScale::Tiny)
            .iter()
            .map(|e| format!("{}{}", e.app().name(), e.mode().label()))
            .collect();
        assert_ne!(a, b);
        a.sort();
        b.sort();
        assert_eq!(a, b);
        let jobs = sweep_jobs(1_000, 3);
        assert_eq!(jobs.len(), 3);
        for job in &jobs {
            assert_eq!(job.len(), SPECS_PER_SWEEP_SEED);
            assert_eq!(job.iter().filter(|s| s.ckpt.is_some()).count(), 18);
            assert!(job.iter().enumerate().all(|(i, s)| s.index == i));
        }
        assert_eq!(fault_experiments(42, ExperimentScale::Tiny, 1.0).len(), 24);
        assert!(fault_experiments(42, ExperimentScale::Tiny, 1.0)
            .iter()
            .all(|e| e.ckpt().is_some() && !e.failures().is_none()));
        assert_eq!(fault_engine_specs(42, 64).len(), 12);
        assert_eq!(weak_specs(42, 64).len(), 3);
        assert!(base_seed(u64::MAX, 9) < (1 << 53));
    }
}
