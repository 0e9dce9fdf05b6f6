//! Weak-scaling sweeps on the event-driven engine.
//!
//! The classic campaign grid runs the paper's proxy applications with one OS
//! thread per simulated rank, which caps it at a few hundred ranks.  A
//! [`WeakSweep`] instead drives [`apps::run_weak_scaling`] — cooperative
//! rank state machines on `simmpi`'s discrete-event engine — so the sweep
//! axis is the *logical rank count itself*, from tens to hundreds of
//! thousands of ranks, in the paper's three configurations.
//!
//! Everything follows the campaign conventions: rows are deterministic
//! (byte-identical JSON run after run), their columns are declared once in
//! `COLUMNS` with the class [`crate::diff::diff_reports`] reads (virtual
//! times get its relative tolerance), and the host wall clock lives in the
//! informational `wall_time_ms` column that the golden gate ignores.

use crate::json::Json;
use crate::report::v1::{self, col, Cell, Column, Discrete, Informational, Metric};
use crate::spec::FailureSpec;
use apps::{run_weak_scaling, WeakMode, WeakScalingSpec};
use simcluster::SimTime;

/// One fully-determined weak-scaling run.
#[derive(Debug, Clone, PartialEq)]
pub struct WeakRunSpec {
    /// Position in the expanded sweep (stable across executions).
    pub index: usize,
    /// Logical rank count (physical = `logical * mode degree`).
    pub logical: usize,
    /// Execution configuration.
    pub mode: WeakMode,
    /// Solver iterations to model.
    pub iters: usize,
    /// Failure behaviour (crash times drawn per physical rank, exactly like
    /// the classic grid's Poisson axis).
    pub failure: FailureSpec,
    /// Seed of the failure traces.
    pub seed: u64,
}

impl WeakRunSpec {
    /// Unique, human-readable run id, a pure function of the configuration,
    /// e.g. `weak32-intra2-none-s42`.
    pub fn id(&self) -> String {
        format!(
            "weak{}-{}-{}-s{}",
            self.logical,
            self.mode.label(),
            self.failure.label(),
            self.seed
        )
    }

    /// Number of physical ranks the run simulates.
    pub fn procs(&self) -> usize {
        self.logical * self.mode.degree()
    }

    /// Per-rank crash times of this run: the first of each physical rank's
    /// [`FailureSpec::arrivals`] (an engine rank is crash-stop, so only its
    /// first arrival can fire) on the run's topology — the same one
    /// [`apps::run_weak_scaling`] places the ranks on — with the sampler,
    /// seed discipline and labels of the classic grid's failure axis.  A
    /// Poisson plan samples each rank only up to its first arrival
    /// ([`replication::HorizonRate::first_arrival`]); a correlated plan's
    /// arrivals are already one per rank.
    pub fn crashes(&self) -> Vec<(usize, SimTime)> {
        let topology = self
            .workload()
            .topology(&simcluster::MachineModel::grid5000_ib20g());
        let FailureSpec::Poisson { rate, horizon_s } = self.failure else {
            return self.failure.arrivals(&topology, self.seed);
        };
        // The horizon of `FailureSpec::arrivals`, so the times are its bit
        // for bit.
        let rate = rate.over(SimTime::from_secs(horizon_s).as_secs());
        (0..topology.num_procs())
            .filter_map(|rank| Some((rank, rate.first_arrival(self.seed, rank)?)))
            .collect()
    }

    /// The workload spec this run executes.
    pub fn workload(&self) -> WeakScalingSpec {
        WeakScalingSpec::new(self.logical, self.mode).with_iters(self.iters)
    }
}

/// A declarative weak-scaling sweep: the cross product of logical sizes ×
/// modes × failure behaviours × seeds.
#[derive(Debug, Clone)]
pub struct WeakSweep {
    /// Sweep name (used in reports and output file names).
    pub name: String,
    /// Logical rank counts to sweep.
    pub logical: Vec<usize>,
    /// Execution configurations to sweep.
    pub modes: Vec<WeakMode>,
    /// Solver iterations per run.
    pub iters: usize,
    /// Failure behaviours to sweep.
    pub failures: Vec<FailureSpec>,
    /// Seeds to sweep.
    pub seeds: Vec<u64>,
}

impl WeakSweep {
    /// Expands the sweep into its runs, in deterministic axis order
    /// (size-major, seed-minor).
    pub fn expand(&self) -> Vec<WeakRunSpec> {
        let mut specs = Vec::new();
        for &logical in &self.logical {
            for &mode in &self.modes {
                for &failure in &self.failures {
                    for &seed in &self.seeds {
                        specs.push(WeakRunSpec {
                            index: specs.len(),
                            logical,
                            mode,
                            iters: self.iters,
                            failure,
                            seed,
                        });
                    }
                }
            }
        }
        specs
    }

    /// The CI weak-scaling smoke sweep: two small sizes, all three modes,
    /// failure-free and failing.  Gated against
    /// `crates/campaign/golden/weak_scaling.json`.
    pub fn smoke() -> Self {
        WeakSweep {
            name: "weak-smoke".to_string(),
            logical: vec![8, 32],
            modes: vec![WeakMode::Native, WeakMode::Replicated, WeakMode::Intra],
            iters: 3,
            failures: vec![
                FailureSpec::None,
                FailureSpec::poisson(crate::grid::SMOKE_FAILURE_RATE),
            ],
            seeds: vec![42],
        }
    }

    /// 10k logical ranks (up to 20k physical), native vs intra,
    /// failure-free — the scale smoke that proves the engine runs four
    /// orders of magnitude past the thread-per-rank ceiling.
    fn scale_10k() -> Self {
        WeakSweep {
            name: "weak-10k".to_string(),
            logical: vec![10_000],
            modes: vec![WeakMode::Native, WeakMode::Intra],
            iters: 2,
            failures: vec![FailureSpec::None],
            seeds: vec![42],
        }
    }

    /// 100k logical ranks (200k physical), intra only, one iteration —
    /// the headline weak-scaling point (manual / bench use).
    fn scale_100k() -> Self {
        WeakSweep {
            name: "weak-100k".to_string(),
            logical: vec![100_000],
            modes: vec![WeakMode::Intra],
            iters: 1,
            failures: vec![FailureSpec::None],
            seeds: vec![42],
        }
    }

    /// One million logical ranks, native, one iteration — the headline
    /// scale point proving the event-driven engine holds a 1M-rank world
    /// (release-mode only; measured on a 2-vCPU guest the run is about 4 s
    /// of wall clock and a 0.17 GB peak resident set; gated against
    /// `crates/campaign/golden/weak_1m.json`, never on wall clock).
    fn scale_1m() -> Self {
        WeakSweep {
            name: "weak-1m".to_string(),
            logical: vec![1_000_000],
            modes: vec![WeakMode::Native],
            iters: 1,
            failures: vec![FailureSpec::None],
            seeds: vec![42],
        }
    }

    /// Weak scaling under realistic failure pressure: 1k logical ranks in
    /// all three modes, with the fitted Weibull MTBF hazard per rank and
    /// rack-correlated events (one rack = 8 nodes) — the sweep that shows
    /// replica-disjoint placement absorbing correlated losses at scale, and
    /// the only gated sweep whose replicated rows crash at that size.
    /// Gated against `crates/campaign/golden/weak_failures.json`.
    pub(crate) fn failures() -> Self {
        WeakSweep {
            name: "weak-failures".to_string(),
            logical: vec![1_000],
            modes: vec![WeakMode::Native, WeakMode::Replicated, WeakMode::Intra],
            iters: 2,
            failures: vec![
                FailureSpec::Poisson {
                    rate: replication::FailureRate::weibull_hpc(FailureSpec::DEFAULT_HORIZON_S),
                    horizon_s: FailureSpec::DEFAULT_HORIZON_S,
                },
                FailureSpec::Correlated {
                    domain: replication::FailureDomain::Rack { nodes_per_rack: 8 },
                    rate: replication::FailureRate::Constant(0.2),
                    horizon_s: FailureSpec::DEFAULT_HORIZON_S,
                },
            ],
            seeds: vec![42],
        }
    }

    /// The built-in sweeps, in listing order; each is named once, by the
    /// `name` its constructor sets.
    const BUILTINS: [fn() -> Self; 5] = [
        Self::smoke,
        Self::scale_10k,
        Self::scale_100k,
        Self::scale_1m,
        Self::failures,
    ];

    /// Looks up a built-in sweep by name.
    pub fn by_name(name: &str) -> Option<Self> {
        Self::BUILTINS
            .iter()
            .map(|make| make())
            .find(|s| s.name == name)
    }

    /// Names of the built-in sweeps.
    pub fn builtin_names() -> Vec<String> {
        Self::BUILTINS.iter().map(|make| make().name).collect()
    }
}

/// The aggregated result of one weak-scaling run.
#[derive(Debug, Clone, PartialEq)]
pub struct WeakRow {
    /// Run id ([`WeakRunSpec::id`]).
    pub id: String,
    /// Logical rank count.
    pub logical: usize,
    /// Mode label.
    pub mode: String,
    /// Failure label.
    pub failure: String,
    /// Failure-trace seed.
    pub seed: u64,
    /// Physical ranks simulated.
    pub procs: usize,
    /// Ranks that ran to completion.
    pub completed: usize,
    /// Ranks that crashed.
    pub crashed: usize,
    /// Ranks that ended in an error (deadlock, panic, invalid step).
    pub errored: usize,
    /// Crash events that actually fired within the run.
    pub failure_events: usize,
    /// Receives that resolved as peer failures across all ranks.
    pub holes: u64,
    /// Point-to-point messages injected.
    pub messages: u64,
    /// Engine dispatches consumed (informational: a diagnostic of the
    /// engine, deterministic but not a simulated result).
    pub dispatches: u64,
    /// Virtual makespan in seconds.
    pub makespan_s: f64,
    /// Mean per-rank virtual compute time in seconds.
    pub mean_compute_s: f64,
    /// Mean per-rank virtual communication time in seconds.
    pub mean_comm_s: f64,
    /// Mean per-rank virtual wait time in seconds.
    pub mean_wait_s: f64,
    /// Host wall clock of the run in milliseconds (informational, excluded
    /// from the golden gate).
    pub wall_time_ms: f64,
}

/// The aggregated result of one weak-scaling sweep execution.
#[derive(Debug, Clone, PartialEq)]
pub struct WeakReport {
    /// Sweep name.
    pub sweep: String,
    /// Per-run rows in sweep order.
    pub rows: Vec<WeakRow>,
}

impl WeakReport {
    /// The report as a JSON document; rendering it is byte-deterministic
    /// (modulo the informational `wall_time_ms`), which is what the golden
    /// weak-scaling gates compare against.
    pub fn to_json(&self) -> Json {
        let rows = self.rows.iter().map(|r| v1::row_to_json(COLUMNS, r));
        Json::obj(vec![
            ("schema", Json::Str(v1::SCHEMA.to_string())),
            ("sweep", Json::Str(self.sweep.clone())),
            ("runs", Json::Arr(rows.collect())),
        ])
    }
}

/// The columns of a [`WeakRow`], in JSON order.  `dispatches` (an engine
/// diagnostic) and `wall_time_ms` (the host clock) are informational: the
/// golden gates ignore them.
#[rustfmt::skip]
pub(crate) const COLUMNS: &[Column<WeakRow>] = &[
    col("id", Discrete, |r| Cell::Text(&r.id)),
    col("logical", Discrete, |r| Cell::Count(r.logical as u64)),
    col("mode", Discrete, |r| Cell::Text(&r.mode)),
    col("failure", Discrete, |r| Cell::Text(&r.failure)),
    col("seed", Discrete, |r| Cell::Count(r.seed)),
    col("procs", Discrete, |r| Cell::Count(r.procs as u64)),
    col("completed", Discrete, |r| Cell::Count(r.completed as u64)),
    col("crashed", Discrete, |r| Cell::Count(r.crashed as u64)),
    col("errored", Discrete, |r| Cell::Count(r.errored as u64)),
    col("failure_events", Discrete, |r| Cell::Count(r.failure_events as u64)),
    col("holes", Discrete, |r| Cell::Count(r.holes)),
    col("messages", Discrete, |r| Cell::Count(r.messages)),
    col("dispatches", Informational, |r| Cell::Count(r.dispatches)),
    col("makespan_s", Metric, |r| Cell::Num(r.makespan_s)),
    col("mean_compute_s", Metric, |r| Cell::Num(r.mean_compute_s)),
    col("mean_comm_s", Metric, |r| Cell::Num(r.mean_comm_s)),
    col("mean_wait_s", Metric, |r| Cell::Num(r.mean_wait_s)),
    col("wall_time_ms", Informational, |r| Cell::Num(r.wall_time_ms)),
];

/// Executes one weak-scaling run.
///
/// The second argument has no effect: it was the engine's worker count, and
/// the engine is now one loop.  It remains only because `benchmarks/` (which
/// a PR may not edit) passes it; it goes when that fence is next opened.
pub fn run_weak_spec(spec: &WeakRunSpec, _workers: usize) -> WeakRow {
    let started = std::time::Instant::now();
    let report = run_weak_scaling(&spec.workload(), &spec.crashes());
    let wall_time_ms = started.elapsed().as_secs_f64() * 1e3;
    let n = report.ranks.len().max(1) as f64;
    // Sums run in rank order, so the means are deterministic f64 results.
    let mean = |f: &dyn Fn(&simmpi::VirtualRankReport) -> f64| -> f64 {
        report.ranks.iter().map(f).sum::<f64>() / n
    };
    WeakRow {
        id: spec.id(),
        logical: spec.logical,
        mode: spec.mode.label().to_string(),
        failure: spec.failure.label(),
        seed: spec.seed,
        procs: spec.procs(),
        completed: report.num_completed(),
        crashed: report.num_crashed(),
        errored: report.errors().len(),
        failure_events: report.failures.len(),
        // Holes ride in the result fraction: `iters + holes * 1e-6`.
        holes: report
            .ranks
            .iter()
            .filter_map(|r| r.result)
            .map(|v| (v.fract() * 1e6).round() as u64)
            .sum(),
        messages: report.messages,
        dispatches: report.dispatches,
        makespan_s: report.makespan().as_secs(),
        mean_compute_s: mean(&|r| r.compute_time.as_secs()),
        mean_comm_s: mean(&|r| r.comm_time.as_secs()),
        mean_wait_s: mean(&|r| r.wait_time.as_secs()),
        wall_time_ms,
    }
}

/// Executes a whole sweep, run after run in expansion order.
///
/// The second argument has no effect and remains for the same reason as
/// [`run_weak_spec`]'s.
pub fn run_weak_sweep(sweep: &WeakSweep, _workers: usize) -> WeakReport {
    WeakReport {
        sweep: sweep.name.clone(),
        rows: sweep
            .expand()
            .iter()
            .map(|spec| run_weak_spec(spec, 0))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_deterministic_with_unique_ids() {
        let sweep = WeakSweep::smoke();
        let specs = sweep.expand();
        let expected =
            sweep.logical.len() * sweep.modes.len() * sweep.failures.len() * sweep.seeds.len();
        assert_eq!(specs.len(), expected);
        for (i, spec) in specs.iter().enumerate() {
            assert_eq!(spec.index, i);
        }
        assert_eq!(sweep.expand(), specs);
        let mut ids: Vec<String> = specs.iter().map(WeakRunSpec::id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), specs.len());
    }

    #[test]
    fn builtin_sweeps_resolve_by_name() {
        for name in WeakSweep::builtin_names() {
            let sweep = WeakSweep::by_name(&name).unwrap();
            assert_eq!(sweep.name, name);
            assert!(!sweep.expand().is_empty());
        }
        assert!(WeakSweep::by_name("nope").is_none());
    }

    #[test]
    fn crash_times_are_deterministic_and_respect_the_horizon() {
        let spec = WeakRunSpec {
            index: 0,
            logical: 16,
            mode: WeakMode::Intra,
            iters: 2,
            failure: FailureSpec::poisson(5.0),
            seed: 42,
        };
        let a = spec.crashes();
        assert_eq!(a, spec.crashes());
        assert!(!a.is_empty(), "rate 5.0 over 32 ranks must fire somewhere");
        for &(rank, t) in &a {
            assert!(rank < spec.procs());
            assert!(t < SimTime::from_secs(FailureSpec::DEFAULT_HORIZON_S));
        }
        assert!(spec_none_has_no_crashes());
    }

    #[test]
    fn crashes_are_the_first_arrival_of_each_rank() {
        let plans: Vec<FailureSpec> = WeakSweep::failures()
            .failures
            .into_iter()
            .chain(crate::CampaignGrid::failures().failures)
            .collect();
        let mut later_arrivals_dropped = 0;
        for failure in plans {
            for mode in [WeakMode::Native, WeakMode::Intra] {
                let spec = WeakRunSpec {
                    index: 0,
                    logical: 48,
                    mode,
                    iters: 2,
                    failure,
                    seed: 42,
                };
                let topology = spec
                    .workload()
                    .topology(&simcluster::MachineModel::grid5000_ib20g());
                assert_eq!(topology.num_procs(), spec.procs());
                let arrivals = failure.arrivals(&topology, spec.seed);
                let mut seen = std::collections::HashSet::new();
                let firsts: Vec<_> = arrivals
                    .iter()
                    .copied()
                    .filter(|&(rank, _)| seen.insert(rank))
                    .collect();
                assert_eq!(spec.crashes(), firsts, "{}", spec.id());
                for &(rank, first) in &firsts {
                    let earliest = arrivals.iter().filter(|a| a.0 == rank).map(|a| a.1).min();
                    assert_eq!(Some(first), earliest, "{} rank {rank}", spec.id());
                }
                later_arrivals_dropped += arrivals.len() - firsts.len();
            }
        }
        assert!(later_arrivals_dropped > 0, "no plan had a second arrival");
    }

    fn spec_none_has_no_crashes() -> bool {
        WeakRunSpec {
            index: 0,
            logical: 16,
            mode: WeakMode::Native,
            iters: 1,
            failure: FailureSpec::None,
            seed: 42,
        }
        .crashes()
        .is_empty()
    }

    #[test]
    fn compact_json_bytes_are_pinned() {
        let report = WeakReport {
            sweep: "weak-smoke".into(),
            rows: vec![WeakRow {
                id: "weak8-intra2-none-s42".into(),
                logical: 8,
                mode: "intra2".into(),
                failure: "none".into(),
                seed: 42,
                procs: 16,
                completed: 15,
                crashed: 1,
                errored: 0,
                failure_events: 1,
                holes: 2,
                messages: 96,
                dispatches: 400,
                makespan_s: 0.1 + 0.2,
                mean_compute_s: 1e-7,
                mean_comm_s: 0.125,
                mean_wait_s: 0.0,
                wall_time_ms: 3.5,
            }],
        };
        assert_eq!(
            report.to_json().render_compact(),
            "{\"schema\": \"ipr-report/1\", \"sweep\": \"weak-smoke\", \"runs\": [\
             {\"id\": \"weak8-intra2-none-s42\", \"logical\": 8, \"mode\": \"intra2\", \
             \"failure\": \"none\", \"seed\": 42, \"procs\": 16, \"completed\": 15, \
             \"crashed\": 1, \"errored\": 0, \"failure_events\": 1, \"holes\": 2, \
             \"messages\": 96, \"dispatches\": 400, \"makespan_s\": 0.30000000000000004, \
             \"mean_compute_s\": 0.0000001, \"mean_comm_s\": 0.125, \"mean_wait_s\": 0, \
             \"wall_time_ms\": 3.5}]}"
        );
    }

    #[test]
    fn a_small_row_is_reproducible_across_worker_counts() {
        let spec = WeakRunSpec {
            index: 0,
            logical: 12,
            mode: WeakMode::Intra,
            iters: 2,
            failure: FailureSpec::poisson(crate::grid::SMOKE_FAILURE_RATE),
            seed: 42,
        };
        // The second argument is the ignored compatibility one.
        let mut a = run_weak_spec(&spec, 1);
        let mut b = run_weak_spec(&spec, 4);
        // The wall clock measures the host; everything else, `dispatches`
        // included, is the simulation.
        a.wall_time_ms = 0.0;
        b.wall_time_ms = 0.0;
        assert_eq!(a, b);
        assert!(a.dispatches > 0);
        assert_eq!(a.procs, 24);
        assert_eq!(a.completed + a.crashed + a.errored, a.procs);
    }
}
