//! The unified experiment surface: one typed builder for every scenario.
//!
//! Before this module existed the workspace exposed four disjoint, partly
//! stringly-typed entry points — `simmpi::run_cluster` + hand-built
//! topologies, the `IntraSession` shim, `apps::driver::with_scheduler`
//! with `Option<&str>` scheduler names, and the campaign `RunSpec` grid.
//! [`Experiment`] folds them into a single typed façade:
//!
//! ```
//! use intra_replication::{Experiment, FailurePlan, Mode};
//! use intra_replication::apps::{AppId, ExperimentScale};
//! use intra_replication::core::SchedulerKind;
//!
//! let report = Experiment::builder()
//!     .app(AppId::Hpccg)
//!     .scale(ExperimentScale::Tiny)
//!     .mode(Mode::IntraReplication)
//!     .scheduler(SchedulerKind::Adaptive)
//!     .failures(FailurePlan::poisson(0.5))
//!     .seed(43)
//!     .build()
//!     .expect("valid experiment")
//!     .run()
//!     .expect("run");
//! assert_eq!(report.procs, 4); // 2 logical ranks x 2 replicas at tiny scale
//! assert!(report.completed() + report.crashed() + report.errored() == report.procs);
//! ```
//!
//! Validation happens at [`ExperimentBuilder::build`] and produces typed
//! [`enum@Error`] values — an unknown application name, a zero replica
//! count or a failure plan without replication cannot reach the runtime.
//! The same `Experiment` value is what the campaign engine expands its
//! sweep grids into, what the bench harness runs its figures through, and
//! what the examples are written against, so a new scenario axis lands in
//! exactly one place.

use crate::error::{Error, Result};
use apps::{run_app, AppContext, AppId, AppRunReport, AppWorkload, ExperimentScale};
use ckpt::{system_mtbf, CheckpointPlan, CkptSession, CkptStats};
use ipr_core::{IntraConfig, IntraError, IntraResult, SchedulerKind};
use replication::{
    CorrelatedPlan, ExecutionMode, FailureDomain, FailureInjector, FailureRate, ProtocolPoint,
};
use simcluster::{MachineModel, SimTime, Topology};
use simmpi::{run_cluster, ClusterConfig, ClusterReport};
use std::fmt;
use std::str::FromStr;

/// Replication mode of an experiment, without its degree
/// ([`ExperimentBuilder::mode`] takes the mode's default degree,
/// [`ExperimentBuilder::execution_mode`] any other).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Plain MPI: one physical process per logical rank, no fault
    /// tolerance ("Open MPI" in the paper's figures).
    NoReplication,
    /// Classic state-machine replication: every replica executes everything
    /// ("SDR-MPI").
    Replication,
    /// The paper's contribution: replicas share the work of intra-parallel
    /// sections ("intra").
    IntraReplication,
}

impl Mode {
    /// Compact label used in reports (`native` / `replicated` / `intra`,
    /// without the degree).
    pub fn label(self) -> &'static str {
        match self {
            Mode::NoReplication => "native",
            Mode::Replication => "replicated",
            Mode::IntraReplication => "intra",
        }
    }

    /// The mode at its default degree: 1 without replication, the paper's
    /// 2 with it.
    fn default_execution(self) -> ExecutionMode {
        match self {
            Mode::NoReplication => ExecutionMode::Native,
            Mode::Replication => ExecutionMode::Replicated { degree: 2 },
            Mode::IntraReplication => ExecutionMode::IntraParallel { degree: 2 },
        }
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl From<ExecutionMode> for Mode {
    fn from(mode: ExecutionMode) -> Self {
        match mode {
            ExecutionMode::Native => Mode::NoReplication,
            ExecutionMode::Replicated { .. } => Mode::Replication,
            ExecutionMode::IntraParallel { .. } => Mode::IntraReplication,
        }
    }
}

/// Failure behaviour of an experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailurePlan {
    /// No failures.
    None,
    /// Every physical rank draws its crash times from a Poisson process
    /// with the given intensity over `[0, horizon_s)` virtual seconds
    /// (deterministic per (run seed, rank); see
    /// [`replication::sample_failure_trace`]).
    Poisson {
        /// Intensity function of the arrival process.
        rate: FailureRate,
        /// Observation horizon in virtual seconds.
        horizon_s: f64,
    },
    /// Correlated failures: crash events are drawn per failure *domain
    /// group* (a node or a rack of the experiment's topology) and each
    /// event kills every rank co-located in the group at once
    /// (deterministic per (run seed, group); see
    /// [`replication::CorrelatedPlan`]).  This is the failure mode where
    /// replica placement matters: replica-disjoint placement survives any
    /// single-node loss.
    Correlated {
        /// What one event kills.
        domain: FailureDomain,
        /// Intensity function of the per-group event process.
        rate: FailureRate,
        /// Observation horizon in virtual seconds.
        horizon_s: f64,
    },
}

impl FailurePlan {
    /// Horizon used by the [`FailurePlan::poisson`] shorthand, in virtual
    /// seconds (covers a whole tiny-scale run).
    pub const DEFAULT_HORIZON_S: f64 = 1.0;

    /// No failures.
    pub fn none() -> Self {
        FailurePlan::None
    }

    /// Homogeneous Poisson crash arrivals at `rate` crashes per rank per
    /// virtual second over the default horizon.
    pub fn poisson(rate: f64) -> Self {
        FailurePlan::Poisson {
            rate: FailureRate::Constant(rate),
            horizon_s: Self::DEFAULT_HORIZON_S,
        }
    }

    /// Poisson crash arrivals with an explicit (possibly inhomogeneous)
    /// intensity function and horizon.
    pub fn poisson_process(rate: FailureRate, horizon_s: f64) -> Self {
        FailurePlan::Poisson { rate, horizon_s }
    }

    /// Correlated crash events at the given per-group intensity over the
    /// default horizon.
    pub(crate) fn correlated(domain: FailureDomain, rate: FailureRate) -> Self {
        FailurePlan::Correlated {
            domain,
            rate,
            horizon_s: Self::DEFAULT_HORIZON_S,
        }
    }

    /// Node-level correlated failures: each event kills every rank of one
    /// node (a correlated plan over [`FailureDomain::Node`]).
    pub fn node_failures(rate: FailureRate) -> Self {
        Self::correlated(FailureDomain::Node, rate)
    }

    /// Rack-level correlated failures: each event kills every rank on one
    /// rack of `nodes_per_rack` consecutive nodes.
    pub fn rack_failures(nodes_per_rack: usize, rate: FailureRate) -> Self {
        Self::correlated(FailureDomain::Rack { nodes_per_rack }, rate)
    }

    /// True if the plan injects no failures.
    pub fn is_none(&self) -> bool {
        matches!(self, FailurePlan::None)
    }

    /// The timed crashes the plan schedules for the ranks placed on
    /// `topology`, as `(physical rank, virtual crash time)` pairs — a pure
    /// function of `(plan, topology, seed)`.  Poisson plans contribute every
    /// arrival of each rank's trace, ranks ascending; correlated plans
    /// contribute the first event of every failure group, expanded to the
    /// group's co-located ranks, groups ascending.  Either way a rank's
    /// entries are adjacent and in time order.
    pub fn arrivals(&self, topology: &Topology, seed: u64) -> Vec<(usize, SimTime)> {
        match *self {
            FailurePlan::None => Vec::new(),
            FailurePlan::Poisson { rate, horizon_s } => {
                let horizon = SimTime::from_secs(horizon_s);
                // `horizon.as_secs()`, as in `sample_failure_trace`: the
                // traces stay bit-identical, and the majorant is computed
                // once for all ranks.
                let rate = rate.over(horizon.as_secs());
                (0..topology.num_procs())
                    .flat_map(|rank| rate.trace(seed, rank).into_iter().map(move |at| (rank, at)))
                    .collect()
            }
            FailurePlan::Correlated {
                domain,
                rate,
                horizon_s,
            } => CorrelatedPlan::new(domain, rate, SimTime::from_secs(horizon_s))
                .crashes(topology, seed),
        }
    }

    /// Compact label used in run ids and reports, e.g. `none`,
    /// `poisson-const-0.5-h2` or `corr-rack4-weibull-0.7-360-h1`.
    pub fn label(&self) -> String {
        match self {
            FailurePlan::None => "none".to_string(),
            FailurePlan::Poisson { rate, horizon_s } => {
                format!("poisson-{}-h{horizon_s}", rate.label())
            }
            FailurePlan::Correlated {
                domain,
                rate,
                horizon_s,
            } => format!("corr-{}-{}-h{horizon_s}", domain.label(), rate.label()),
        }
    }

    /// Parses the output of [`FailurePlan::label`].
    pub fn parse(s: &str) -> Option<Self> {
        if s == "none" {
            return Some(FailurePlan::None);
        }
        if let Some(rest) = s.strip_prefix("corr-") {
            let (domain_part, rest) = rest.split_once('-')?;
            let domain = FailureDomain::parse(domain_part)?;
            let h_at = rest.rfind("-h")?;
            let rate = FailureRate::parse(&rest[..h_at])?;
            let horizon_s = rest[h_at + 2..].parse::<f64>().ok()?;
            return Some(FailurePlan::Correlated {
                domain,
                rate,
                horizon_s,
            });
        }
        let rest = s.strip_prefix("poisson-")?;
        let h_at = rest.rfind("-h")?;
        let rate = FailureRate::parse(&rest[..h_at])?;
        let horizon_s = rest[h_at + 2..].parse::<f64>().ok()?;
        Some(FailurePlan::Poisson { rate, horizon_s })
    }
}

impl fmt::Display for FailurePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

impl FromStr for FailurePlan {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self> {
        FailurePlan::parse(s).ok_or_else(|| Error::InvalidSpec {
            what: "failure plan",
            input: s.to_string(),
        })
    }
}

/// One fully validated, runnable experiment: the typed product of every
/// scenario axis.  Built with [`Experiment::builder`]; executed with
/// [`Experiment::run`] (catalog applications) or [`Experiment::run_with`]
/// (custom per-process bodies).
#[derive(Debug, Clone, PartialEq)]
pub struct Experiment {
    app: AppId,
    scale: ExperimentScale,
    mode: ExecutionMode,
    scheduler: SchedulerKind,
    failures: FailurePlan,
    seed: u64,
    logical_procs: Option<usize>,
    tasks_per_section: Option<usize>,
    modeled_scale: Option<f64>,
    machine: MachineModel,
    injections: Vec<(usize, ProtocolPoint)>,
    ckpt: Option<CheckpointPlan>,
}

impl Experiment {
    /// Starts building an experiment.  [`ExperimentBuilder::app`] is the
    /// only mandatory axis.
    pub fn builder() -> ExperimentBuilder {
        ExperimentBuilder::default()
    }

    /// The application under test.
    pub fn app(&self) -> AppId {
        self.app
    }

    /// The scale preset (process counts and problem sizes).
    pub fn scale(&self) -> ExperimentScale {
        self.scale
    }

    /// The replication mode.
    pub fn mode(&self) -> Mode {
        Mode::from(self.mode)
    }

    /// The scheduler used inside intra-parallel sections.
    pub fn scheduler(&self) -> SchedulerKind {
        self.scheduler
    }

    /// The failure behaviour.
    pub fn failures(&self) -> FailurePlan {
        self.failures
    }

    /// The seed of the run's deterministic randomness.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The coordinated checkpoint/restart plan, if any.
    pub fn ckpt(&self) -> Option<CheckpointPlan> {
        self.ckpt
    }

    /// The system MTBF the checkpoint interval policies resolve against,
    /// in virtual seconds: the failure plan's fitted per-stream event rate
    /// summed over its independent streams (physical ranks for a Poisson
    /// plan, failure groups for a correlated plan).  Infinite without a
    /// failure plan.
    pub(crate) fn system_mtbf_s(&self) -> f64 {
        match self.failures {
            FailurePlan::None => f64::INFINITY,
            FailurePlan::Poisson { rate, horizon_s } => system_mtbf(rate, horizon_s, self.procs()),
            FailurePlan::Correlated {
                domain,
                rate,
                horizon_s,
            } => system_mtbf(rate, horizon_s, domain.num_groups(&self.topology())),
        }
    }

    /// The low-level execution mode (mode + degree).
    pub fn execution_mode(&self) -> ExecutionMode {
        self.mode
    }

    /// Number of logical processes the experiment simulates.
    pub fn logical_procs(&self) -> usize {
        self.logical_procs
            .unwrap_or_else(|| self.scale.fig6_logical_procs())
    }

    /// Number of physical processes the experiment simulates.
    pub fn procs(&self) -> usize {
        self.logical_procs() * self.mode.degree()
    }

    /// The catalog workload the scale maps to.
    pub(crate) fn workload(&self) -> AppWorkload {
        AppWorkload {
            grid_edge: self.scale.actual_grid_edge(),
            particles: self.scale.actual_particles(),
            iterations: self.scale.app_iterations(),
        }
    }

    /// The intra-runtime configuration the experiment applies on every
    /// process (the paper's configuration plus the typed scheduler and the
    /// optional granularity / modeled-scale overrides).
    fn intra_config(&self) -> IntraConfig {
        let mut config = IntraConfig::paper().with_scheduler_kind(self.scheduler);
        if let Some(n) = self.tasks_per_section {
            config = config.with_tasks_per_section(n);
        }
        if let Some(s) = self.modeled_scale {
            config = config.with_modeled_scale(s);
        }
        config
    }

    /// The physical placement of the experiment: replica-disjoint when
    /// replicated (so replicas of one logical rank never share a node,
    /// mirroring the paper), block placement otherwise.
    pub fn topology(&self) -> Topology {
        if self.mode.degree() > 1 {
            Topology::replica_disjoint(
                self.logical_procs(),
                self.mode.degree(),
                self.machine.cores_per_node,
            )
        } else {
            Topology::block(self.procs(), self.machine.cores_per_node)
        }
    }

    /// The cluster configuration of the experiment: the paper's machine
    /// model (or the configured override), replica-disjoint placement when
    /// replicated, and the experiment seed.
    fn cluster_config(&self) -> ClusterConfig {
        ClusterConfig::new(self.procs())
            .with_machine(self.machine)
            .with_topology(self.topology())
            .with_seed(self.seed)
    }

    /// The canonical fingerprint material of the experiment: a versioned,
    /// deterministic rendering of every axis that can influence the run's
    /// deterministic results.  Two experiments produce byte-identical
    /// deterministic reports if (and, for the axes the builder exposes,
    /// only if) their materials are equal — this is what the campaign's
    /// content-addressed run cache hashes (together with the report schema
    /// version and the code-determinism epoch; see
    /// `campaign::cache::fingerprint`).
    ///
    /// The six grid axes always appear; builder-only overrides
    /// (`logical_procs`, `tasks_per_section`, `modeled_scale`, hand-placed
    /// injections) and a non-default machine model are appended only when
    /// set, so a grid-default experiment and its campaign-`RunSpec`
    /// round-tripped twin (the PR 5 lossless conversion) yield the same
    /// material.
    pub fn fingerprint_material(&self) -> String {
        use fmt::Write as _;
        let mut m = String::from("ipr-experiment/1");
        let _ = write!(
            m,
            "|app={}|scale={}|mode={}|replicas={}|scheduler={}|failures={}|seed={}",
            self.app.name(),
            self.scale.name(),
            self.mode().label(),
            self.mode.degree(),
            self.scheduler,
            self.failures.label(),
            self.seed
        );
        if let Some(n) = self.logical_procs {
            let _ = write!(m, "|logical_procs={n}");
        }
        if let Some(n) = self.tasks_per_section {
            let _ = write!(m, "|tasks_per_section={n}");
        }
        if let Some(s) = self.modeled_scale {
            let _ = write!(m, "|modeled_scale={s}");
        }
        if self.machine != MachineModel::grid5000_ib20g() {
            let _ = write!(m, "|machine={:?}", self.machine);
        }
        if !self.injections.is_empty() {
            let _ = write!(m, "|injections={:?}", self.injections);
        }
        if let Some(plan) = self.ckpt {
            let _ = write!(m, "|ckpt={}", plan.label());
        }
        m
    }

    /// The timed crashes the failure plan schedules for this experiment,
    /// as `(physical rank, virtual crash time)` pairs — a pure function of
    /// the experiment axes (and in particular of the seed), computed
    /// without running anything: [`FailurePlan::arrivals`] on the
    /// experiment's placement and seed.  Hand-placed [`ExperimentBuilder::inject_failure`] points are not
    /// timed and do not appear here.
    pub fn scheduled_crashes(&self) -> Vec<(usize, SimTime)> {
        self.failures.arrivals(&self.topology(), self.seed)
    }

    /// Runs the experiment's catalog application on the simulated cluster
    /// and aggregates the per-rank outcomes.
    pub fn run(&self) -> Result<RunReport> {
        let app = self.app;
        let workload = self.workload();
        Ok(self.run_report(move |ctx| run_app(ctx, app, &workload)))
    }

    /// Runs a custom per-process body instead of a catalog application —
    /// the escape hatch used by the bench harness figures and the examples
    /// that drive hand-built sections.  The experiment still owns the
    /// cluster setup (machine, topology, seed), the failure plan and the
    /// intra configuration; `body` receives the ready [`AppContext`].
    pub fn run_with<T, F>(&self, body: F) -> Result<CustomRun<T>>
    where
        T: Send,
        F: Fn(&mut AppContext) -> IntraResult<T> + Send + Sync,
    {
        let report = self.launch(self.scheduled_crashes(), body);
        let makespan_s = report.makespan().as_secs();
        let failure_events = report.failures.len();
        let results = report
            .results
            .into_iter()
            .map(|per_rank| match per_rank {
                Ok(Ok((value, _stats))) => Ok(value),
                Ok(Err(e)) => Err(Error::from(e)),
                Err(panic) => Err(Error::Config(format!("rank panicked: {panic}"))),
            })
            .collect();
        Ok(CustomRun {
            results,
            makespan_s,
            failure_events,
        })
    }

    /// Executes the catalog (or custom) body and folds the cluster report
    /// into a [`RunReport`].
    fn run_report<F>(&self, body: F) -> RunReport
    where
        F: Fn(&mut AppContext) -> IntraResult<AppRunReport> + Send + Sync,
    {
        let started = std::time::Instant::now();
        let scheduled = self.scheduled_crashes();
        let scheduled_crashes = scheduled.len();
        let report = self.launch(scheduled, body);
        let makespan_s = report.makespan().as_secs();
        let failure_events = report.failures.len();
        let mut ckpt = None;
        let mut ranks = Vec::with_capacity(report.results.len());
        for per_rank in report.results {
            ranks.push(match per_rank {
                Ok(Ok((r, stats))) => {
                    // Every rank's session is advanced in lock-step, so the
                    // first completed rank's stats are the run's stats.
                    if ckpt.is_none() {
                        ckpt = stats;
                    }
                    RankOutcome::Completed(r)
                }
                Ok(Err(IntraError::Crashed)) => RankOutcome::Crashed,
                Ok(Err(e)) => RankOutcome::Failed(Error::from(e)),
                Err(panic) => RankOutcome::Panicked(panic),
            });
        }
        RunReport {
            procs: self.procs(),
            makespan_s,
            failure_events,
            scheduled_crashes,
            ranks,
            ckpt,
            // Rounded to whole microseconds so renderings stay compact.
            wall_time_ms: (started.elapsed().as_secs_f64() * 1e6).round() / 1e3,
        }
    }

    /// The per-rank checkpoint session of this experiment, when it has a
    /// plan, replaying its `scheduled` crashes: a pure function of the
    /// axes, so every rank's copy is identical.
    fn ckpt_session(&self, scheduled: &[(usize, SimTime)]) -> Option<CkptSession> {
        let plan = self.ckpt.as_ref()?;
        let crashes: Vec<(usize, f64)> = scheduled
            .iter()
            .map(|&(rank, at)| (rank, at.as_secs()))
            .collect();
        Some(CkptSession::new(
            plan,
            self.system_mtbf_s(),
            &crashes,
            self.logical_procs(),
            self.mode.degree(),
        ))
    }

    /// Runs `body` on every rank of the experiment's cluster under the
    /// `scheduled` crashes of its failure plan ([`Self::scheduled_crashes`],
    /// sampled once by the caller).
    fn launch<T, F>(
        &self,
        scheduled: Vec<(usize, SimTime)>,
        body: F,
    ) -> ClusterReport<IntraResult<(T, Option<CkptStats>)>>
    where
        T: Send,
        F: Fn(&mut AppContext) -> IntraResult<T> + Send + Sync,
    {
        let config = self.cluster_config();
        let mode = self.execution_mode();
        let intra = self.intra_config();
        let injections = self.injections.clone();
        // Under a checkpoint plan the scheduled crashes are consumed by the
        // rollback-recovery replay (as restart + re-executed time) instead
        // of killing ranks, so the timed injector stays disarmed.
        let session = self.ckpt_session(&scheduled);
        let crashes = if session.is_some() {
            Vec::new()
        } else {
            scheduled
        };
        run_cluster(&config, move |proc| {
            let injector = FailureInjector::none();
            for &(rank, at) in &crashes {
                if rank == proc.rank() {
                    injector.arm_at(rank, at);
                }
            }
            for &(rank, point) in &injections {
                if rank == proc.rank() {
                    injector.arm(rank, point);
                }
            }
            let mut ctx = AppContext::new(proc, mode, intra.clone(), injector)?;
            if let Some(session) = &session {
                ctx.set_checkpointing(session.clone());
            }
            let value = body(&mut ctx)?;
            let stats = ctx.finish_checkpointing()?;
            Ok((value, stats))
        })
    }
}

/// Builder for [`Experiment`]; validation happens in
/// [`ExperimentBuilder::build`] and yields typed [`enum@Error`] values.
#[derive(Debug, Clone, Default)]
#[must_use = "an ExperimentBuilder does nothing until build() is called"]
pub struct ExperimentBuilder {
    app: Option<AppId>,
    scale: Option<ExperimentScale>,
    mode: Option<ExecutionMode>,
    scheduler: Option<SchedulerKind>,
    failures: Option<FailurePlan>,
    seed: Option<u64>,
    logical_procs: Option<usize>,
    tasks_per_section: Option<usize>,
    modeled_scale: Option<f64>,
    machine: Option<MachineModel>,
    injections: Vec<(usize, ProtocolPoint)>,
    allow_unrecoverable_failures: bool,
    ckpt: Option<CheckpointPlan>,
}

impl ExperimentBuilder {
    /// Selects the application (mandatory; a name from outside the program
    /// resolves with [`AppId::parse`]).
    pub fn app(mut self, app: AppId) -> Self {
        self.app = Some(app);
        self
    }

    /// Selects the scale preset (default: [`ExperimentScale::Tiny`]).
    pub fn scale(mut self, scale: ExperimentScale) -> Self {
        self.scale = Some(scale);
        self
    }

    /// Selects the replication mode at its default degree, 1 without
    /// replication and 2 with it (default: [`Mode::IntraReplication`]).
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = Some(mode.default_execution());
        self
    }

    /// Sets the mode and degree together from a low-level [`ExecutionMode`].
    pub fn execution_mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = Some(mode);
        self
    }

    /// Selects the section scheduler (default:
    /// [`SchedulerKind::StaticBlock`], the paper's).
    pub fn scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = Some(scheduler);
        self
    }

    /// Sets the failure behaviour (default: [`FailurePlan::None`]).
    pub fn failures(mut self, failures: FailurePlan) -> Self {
        self.failures = Some(failures);
        self
    }

    /// Sets the seed of the run's deterministic randomness (default: 42,
    /// the cluster default).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Overrides the number of logical processes (default: the scale's
    /// application process count).
    pub fn logical_procs(mut self, n: usize) -> Self {
        self.logical_procs = Some(n);
        self
    }

    /// Overrides the number of tasks per intra-parallel section (default:
    /// the paper's 8).
    pub fn tasks_per_section(mut self, n: usize) -> Self {
        self.tasks_per_section = Some(n);
        self
    }

    /// Overrides the modeled-size scale factor of the intra runtime
    /// (default: 1.0; must be finite and positive).
    pub fn modeled_scale(mut self, scale: f64) -> Self {
        self.modeled_scale = Some(scale);
        self
    }

    /// Overrides the machine model (default: the paper's Grid'5000/IB-20G
    /// calibration).
    pub fn machine(mut self, machine: MachineModel) -> Self {
        self.machine = Some(machine);
        self
    }

    /// Arms a hand-placed crash: physical rank `rank` fails the first time
    /// it passes `point`.  Repeatable; composes with the failure plan.
    pub fn inject_failure(mut self, rank: usize, point: ProtocolPoint) -> Self {
        self.injections.push((rank, point));
        self
    }

    /// Enables coordinated checkpoint/restart: the failure plan's crashes
    /// are absorbed by rollback-recovery (restart cost plus re-executed
    /// work on every rank's virtual clock) instead of killing ranks, so a
    /// checkpointed [`Mode::NoReplication`] run with failures needs no
    /// [`ExperimentBuilder::allow_unrecoverable_failures`] opt-in.
    /// Composes with every replication mode — that pairing is exactly the
    /// paper's replication-vs-C/R efficiency comparison.  Incompatible
    /// with hand-placed [`ExperimentBuilder::inject_failure`] points
    /// (those are untimed and cannot be replayed).
    pub fn checkpointing(mut self, plan: CheckpointPlan) -> Self {
        self.ckpt = Some(plan);
        self
    }

    /// Opts into a failure plan without replication.  By default
    /// [`ExperimentBuilder::build`] rejects that combination with
    /// [`Error::UnrecoverableFailurePlan`] because an unreplicated rank
    /// cannot recover from any crash; campaigns measuring the unprotected
    /// baseline (how a native run dies) set this explicitly.
    pub fn allow_unrecoverable_failures(mut self) -> Self {
        self.allow_unrecoverable_failures = true;
        self
    }

    /// Validates the axes and produces the [`Experiment`].
    pub fn build(self) -> Result<Experiment> {
        let app = self.app.ok_or_else(|| {
            Error::Config("no application selected (use .app(AppId::...))".into())
        })?;
        let scale = self.scale.unwrap_or(ExperimentScale::Tiny);
        let mode = self
            .mode
            .unwrap_or_else(|| Mode::IntraReplication.default_execution());
        let invalid_replicas = Error::InvalidReplicas {
            mode: Mode::from(mode),
            replicas: mode.degree(),
        };
        if mode != ExecutionMode::Native && mode.degree() < 2 {
            return Err(invalid_replicas);
        }
        let failures = self.failures.unwrap_or(FailurePlan::None);
        // A checkpoint plan makes every crash recoverable (rollback instead
        // of rank death), so it lifts the native-mode opt-in requirement.
        if !failures.is_none()
            && mode == ExecutionMode::Native
            && !self.allow_unrecoverable_failures
            && self.ckpt.is_none()
        {
            return Err(Error::UnrecoverableFailurePlan);
        }
        if let Some(plan) = self.ckpt {
            if !plan.is_valid() {
                return Err(Error::Config(format!(
                    "checkpoint plan parameters must be finite and positive, got {plan:?}"
                )));
            }
            if !self.injections.is_empty() {
                return Err(Error::Config(
                    "hand-placed inject_failure points cannot be combined with \
                     checkpointing (they are untimed and cannot be replayed)"
                        .into(),
                ));
            }
        }
        if self.logical_procs == Some(0) {
            return Err(Error::NoLogicalProcs);
        }
        // `procs()` multiplies the two unchecked.
        let logical_procs = self
            .logical_procs
            .unwrap_or_else(|| scale.fig6_logical_procs());
        if logical_procs.checked_mul(mode.degree()).is_none() {
            return Err(invalid_replicas);
        }
        if self.tasks_per_section == Some(0) {
            return Err(Error::Config("tasks_per_section must be at least 1".into()));
        }
        if let Some(scale_factor) = self.modeled_scale {
            if !scale_factor.is_finite() || scale_factor <= 0.0 {
                return Err(Error::Config(format!(
                    "modeled_scale must be finite and positive, got {scale_factor}"
                )));
            }
        }
        validate_failure_plan(&failures)?;
        Ok(Experiment {
            app,
            scale,
            mode,
            scheduler: self.scheduler.unwrap_or(SchedulerKind::StaticBlock),
            failures,
            seed: self.seed.unwrap_or(42),
            logical_procs: self.logical_procs,
            tasks_per_section: self.tasks_per_section,
            modeled_scale: self.modeled_scale,
            machine: self.machine.unwrap_or_else(MachineModel::grid5000_ib20g),
            injections: self.injections,
            ckpt: self.ckpt,
        })
    }
}

/// Rejects failure plans whose declared parameters are out of domain.
/// `FailureRate::max_rate` clamps to zero, so a negative or NaN rate would
/// otherwise silently sample an empty trace while the run id still
/// advertises the bogus parameters.
fn validate_failure_plan(failures: &FailurePlan) -> Result<()> {
    let (rate, horizon_s) = match *failures {
        FailurePlan::None => return Ok(()),
        FailurePlan::Poisson { rate, horizon_s } => (rate, horizon_s),
        FailurePlan::Correlated {
            domain,
            rate,
            horizon_s,
        } => {
            if let FailureDomain::Rack { nodes_per_rack } = domain {
                if nodes_per_rack == 0 {
                    return Err(Error::Config(
                        "correlated rack domain needs nodes_per_rack >= 1".into(),
                    ));
                }
            }
            (rate, horizon_s)
        }
    };
    if !horizon_s.is_finite() || horizon_s <= 0.0 {
        return Err(Error::Config(format!(
            "failure horizon must be finite and positive, got {horizon_s}"
        )));
    }
    let invalid = |r: f64| !r.is_finite() || r < 0.0;
    // Shape-like parameters must additionally be strictly positive: a
    // Weibull with shape or scale 0 (or a LogNormal with sigma 0) is not a
    // distribution.
    let invalid_pos = |r: f64| !r.is_finite() || r <= 0.0;
    let rate_invalid = match rate {
        FailureRate::Constant(r) => invalid(r),
        FailureRate::Ramp { start, end } => invalid(start) || invalid(end),
        FailureRate::Burst {
            base,
            peak,
            center,
            width,
        } => invalid(base) || invalid(peak) || !center.is_finite() || invalid(width),
        FailureRate::Weibull { shape, scale_s } => invalid_pos(shape) || invalid_pos(scale_s),
        FailureRate::LogNormal { mu, sigma } => !mu.is_finite() || invalid_pos(sigma),
    };
    if rate_invalid {
        return Err(Error::Config(format!(
            "failure rate must be finite and within its parameter domain, got {rate:?}"
        )));
    }
    Ok(())
}

/// Per-rank outcome of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub enum RankOutcome {
    /// The rank completed the application and produced its report.
    Completed(AppRunReport),
    /// The rank crashed through failure injection.
    Crashed,
    /// The rank failed for any other reason (e.g. observing the unrecovered
    /// crash of a peer in an unreplicated run).
    Failed(Error),
    /// The rank's thread panicked (a bug, not a simulated failure).
    Panicked(String),
}

impl RankOutcome {
    /// The completed report, if the rank finished.
    pub fn report(&self) -> Option<&AppRunReport> {
        match self {
            RankOutcome::Completed(r) => Some(r),
            _ => None,
        }
    }
}

/// Aggregated result of [`Experiment::run`]: the per-rank outcomes plus the
/// cluster-level aggregates every consumer (campaign rows, figure tables,
/// examples) derives its numbers from.
#[derive(Debug, Clone, PartialEq)]
#[must_use = "a RunReport carries the experiment's results; dropping it silently loses them"]
pub struct RunReport {
    /// Physical processes simulated.
    pub procs: usize,
    /// Virtual makespan over the surviving ranks, in seconds.
    pub makespan_s: f64,
    /// Crash-stop failure events recorded by the cluster.
    pub failure_events: usize,
    /// Timed crashes the failure plan scheduled
    /// ([`Experiment::scheduled_crashes`]`().len()`), counted from the
    /// sample the run itself used.  A crash after its rank finished never
    /// fires, and a checkpoint plan replays them as rollbacks, so this can
    /// exceed `failure_events`.
    pub scheduled_crashes: usize,
    /// Per-rank outcomes, in world-rank order.
    pub ranks: Vec<RankOutcome>,
    /// Checkpoint/restart accounting, when the experiment had a
    /// checkpoint plan (identical on every rank by construction).
    pub ckpt: Option<CkptStats>,
    /// Host wall-clock time the simulation took, in milliseconds.
    /// *Informational only*: the single non-deterministic field.
    pub wall_time_ms: f64,
}

impl RunReport {
    /// Iterates over the reports of the ranks that completed, in rank order.
    fn completed_reports(&self) -> impl Iterator<Item = &AppRunReport> {
        self.ranks.iter().filter_map(RankOutcome::report)
    }

    /// Ranks that completed the application.
    pub fn completed(&self) -> usize {
        self.completed_reports().count()
    }

    /// Ranks that crashed through failure injection.
    pub fn crashed(&self) -> usize {
        self.ranks
            .iter()
            .filter(|o| matches!(o, RankOutcome::Crashed))
            .count()
    }

    /// Ranks that failed for any other reason (including panics).
    pub fn errored(&self) -> usize {
        self.ranks
            .iter()
            .filter(|o| matches!(o, RankOutcome::Failed(_) | RankOutcome::Panicked(_)))
            .count()
    }

    /// Mean virtual time inside intra-parallel sections over completed
    /// ranks, in seconds.
    pub fn mean_section_s(&self) -> f64 {
        let sum: f64 = self
            .completed_reports()
            .map(|r| r.sections.section_time.as_secs())
            .sum();
        sum / self.completed().max(1) as f64
    }

    /// Mean virtual update-drain time over completed ranks, in seconds.
    pub fn mean_update_drain_s(&self) -> f64 {
        let sum: f64 = self
            .completed_reports()
            .map(|r| r.sections.update_drain_time.as_secs())
            .sum();
        sum / self.completed().max(1) as f64
    }

    /// Makespan of the measured application region: the maximum per-rank
    /// `total_time` over completed ranks, in seconds (the figure harness's
    /// notion of execution time).
    pub fn app_time_s(&self) -> f64 {
        self.completed_reports()
            .map(|r| r.total_time.as_secs())
            .fold(0.0f64, f64::max)
    }

    /// Total tasks executed locally, summed over completed ranks.
    pub fn tasks_executed(&self) -> usize {
        self.completed_reports()
            .map(|r| r.sections.tasks_executed)
            .sum()
    }

    /// Total task results received from peer replicas.
    pub fn tasks_received(&self) -> usize {
        self.completed_reports()
            .map(|r| r.sections.tasks_received)
            .sum()
    }

    /// Total tasks re-executed because their owner crashed.
    pub fn tasks_reexecuted(&self) -> usize {
        self.completed_reports()
            .map(|r| r.sections.tasks_reexecuted)
            .sum()
    }

    /// Total modeled update bytes sent between replicas.
    pub fn update_bytes_sent(&self) -> usize {
        self.completed_reports()
            .map(|r| r.sections.update_bytes_sent)
            .sum()
    }

    /// Application verification value: the maximum absolute value over
    /// completed ranks (0 when no rank completed).
    pub fn verification(&self) -> f64 {
        self.completed_reports()
            .fold(0.0f64, |acc, r| acc.max(r.verification.abs()))
    }
}

/// Result of [`Experiment::run_with`]: one result per physical rank (in
/// rank order) plus the cluster-level aggregates.
#[derive(Debug)]
#[must_use = "a CustomRun carries the per-rank results; dropping it silently loses them"]
pub struct CustomRun<T> {
    /// Per-rank results: the body's return value, or the error that stopped
    /// the rank (crashes surface as
    /// `Error::Intra(IntraError::Crashed)`).
    pub results: Vec<Result<T>>,
    /// Virtual makespan over the surviving ranks, in seconds.
    pub makespan_s: f64,
    /// Crash-stop failure events recorded by the cluster.
    pub failure_events: usize,
}

impl<T> CustomRun<T> {
    /// Unwraps every per-rank result, panicking if any rank failed — for
    /// failure-free experiments.
    pub fn unwrap_results(self) -> Vec<T> {
        self.results
            .into_iter()
            .enumerate()
            .map(|(rank, r)| match r {
                Ok(value) => value,
                Err(e) => panic!("rank {rank} failed: {e}"),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_follow_the_paper() {
        let e = Experiment::builder().app(AppId::Hpccg).build().unwrap();
        assert_eq!(e.app(), AppId::Hpccg);
        assert_eq!(e.scale(), ExperimentScale::Tiny);
        assert_eq!(e.mode(), Mode::IntraReplication);
        assert_eq!(e.scheduler(), SchedulerKind::StaticBlock);
        assert_eq!(e.failures(), FailurePlan::None);
        assert_eq!(e.seed(), 42);
        assert_eq!(e.procs(), 2 * e.logical_procs());
        assert_eq!(
            e.execution_mode(),
            ExecutionMode::IntraParallel { degree: 2 }
        );
        assert_eq!(e.intra_config().scheduler.name(), "static-block");
    }

    #[test]
    fn build_without_an_app_is_a_config_error() {
        assert!(matches!(
            Experiment::builder().build(),
            Err(Error::Config(_))
        ));
    }

    #[test]
    fn replica_validation_is_typed() {
        for replicas in [0, 1] {
            for mode in [
                ExecutionMode::Replicated { degree: replicas },
                ExecutionMode::IntraParallel { degree: replicas },
            ] {
                let err = Experiment::builder()
                    .app(AppId::Hpccg)
                    .execution_mode(mode)
                    .build()
                    .unwrap_err();
                let mode = Mode::from(mode);
                assert_eq!(err, Error::InvalidReplicas { mode, replicas });
            }
        }
        // Degree 3 intra-replication is fine.
        let e = Experiment::builder()
            .app(AppId::Hpccg)
            .execution_mode(ExecutionMode::IntraParallel { degree: 3 })
            .build()
            .unwrap();
        assert_eq!(e.procs(), 3 * e.logical_procs());
    }

    #[test]
    fn failure_plans_without_replication_need_the_explicit_opt_in() {
        let builder = || {
            Experiment::builder()
                .app(AppId::Hpccg)
                .mode(Mode::NoReplication)
                .failures(FailurePlan::poisson(0.5))
        };
        assert_eq!(builder().build(), Err(Error::UnrecoverableFailurePlan));
        let e = builder().allow_unrecoverable_failures().build().unwrap();
        assert_eq!(e.mode(), Mode::NoReplication);
        assert!(!e.failures().is_none());
        // With replication the plan is fine without the opt-in.
        assert!(Experiment::builder()
            .app(AppId::Hpccg)
            .failures(FailurePlan::poisson(0.5))
            .build()
            .is_ok());
    }

    #[test]
    fn knob_validation_is_typed_not_clamped() {
        assert_eq!(
            Experiment::builder()
                .app(AppId::Hpccg)
                .logical_procs(0)
                .build(),
            Err(Error::NoLogicalProcs)
        );
        assert!(matches!(
            Experiment::builder()
                .app(AppId::Hpccg)
                .tasks_per_section(0)
                .build(),
            Err(Error::Config(_))
        ));
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                Experiment::builder()
                    .app(AppId::Hpccg)
                    .modeled_scale(bad)
                    .build(),
                Err(Error::Config(_))
            ));
        }
        assert!(matches!(
            Experiment::builder()
                .app(AppId::Hpccg)
                .failures(FailurePlan::poisson_process(
                    FailureRate::Constant(1.0),
                    0.0
                ))
                .build(),
            Err(Error::Config(_))
        ));
        // Negative or non-finite intensities are rejected on the declared
        // fields (the sampling majorant clamps to zero, which would
        // otherwise turn a bogus rate into a silent failure-free run).
        for bad_rate in [
            FailureRate::Constant(-0.5),
            FailureRate::Constant(f64::NAN),
            FailureRate::Ramp {
                start: -1.0,
                end: 2.0,
            },
            FailureRate::Burst {
                base: 0.1,
                peak: -4.0,
                center: 0.5,
                width: 0.25,
            },
        ] {
            assert!(
                matches!(
                    Experiment::builder()
                        .app(AppId::Hpccg)
                        .failures(FailurePlan::poisson_process(bad_rate, 1.0))
                        .build(),
                    Err(Error::Config(_))
                ),
                "{bad_rate:?} must be rejected"
            );
        }
    }

    #[test]
    fn failure_plan_labels_round_trip() {
        let plans = [
            FailurePlan::None,
            FailurePlan::poisson(0.5),
            FailurePlan::poisson_process(
                FailureRate::Ramp {
                    start: 0.0,
                    end: 1.5,
                },
                10.0,
            ),
        ];
        for plan in plans {
            assert_eq!(plan.label().parse::<FailurePlan>().unwrap(), plan);
            assert_eq!(plan.to_string(), plan.label());
        }
        assert!("poisson-const-0.5".parse::<FailurePlan>().is_err());
        assert_eq!(
            "bogus".parse::<FailurePlan>(),
            Err(Error::InvalidSpec {
                what: "failure plan",
                input: "bogus".into()
            })
        );
    }

    #[test]
    fn fitted_hazard_validation_rejects_out_of_domain_shapes() {
        // Shape-like parameters must be strictly positive and finite; a
        // Weibull with shape 0 or a LogNormal with sigma 0 is not a
        // distribution, so `build` must reject it instead of letting the
        // sampler quietly produce an empty or degenerate trace.
        for bad_rate in [
            FailureRate::Weibull {
                shape: 0.0,
                scale_s: 1.0,
            },
            FailureRate::Weibull {
                shape: -0.7,
                scale_s: 1.0,
            },
            FailureRate::Weibull {
                shape: f64::NAN,
                scale_s: 1.0,
            },
            FailureRate::Weibull {
                shape: 0.7,
                scale_s: 0.0,
            },
            FailureRate::LogNormal {
                mu: f64::NAN,
                sigma: 1.0,
            },
            FailureRate::LogNormal {
                mu: 0.0,
                sigma: 0.0,
            },
            FailureRate::LogNormal {
                mu: 0.0,
                sigma: -1.0,
            },
        ] {
            assert!(
                matches!(
                    Experiment::builder()
                        .app(AppId::Hpccg)
                        .failures(FailurePlan::poisson_process(bad_rate, 1.0))
                        .build(),
                    Err(Error::Config(_))
                ),
                "{bad_rate:?} must be rejected"
            );
        }
        // A negative LogNormal location is fine: mu is a log-space mean.
        assert!(Experiment::builder()
            .app(AppId::Hpccg)
            .failures(FailurePlan::poisson_process(
                FailureRate::LogNormal {
                    mu: -0.5,
                    sigma: 1.25,
                },
                1.0
            ))
            .build()
            .is_ok());
    }

    #[test]
    fn non_finite_burst_center_is_rejected() {
        // A NaN center never compares inside the window, so the sampler
        // would run at the base rate while `mean_events` still counts the
        // peak: the run id would advertise a burst that never happens.
        for label in [
            "poisson-burst-0.1-4-nan-0.2-h1",
            "poisson-burst-0.1-4-inf-0.2-h1",
        ] {
            let plan: FailurePlan = label.parse().unwrap();
            assert!(
                matches!(
                    Experiment::builder()
                        .app(AppId::Hpccg)
                        .failures(plan)
                        .build(),
                    Err(Error::Config(_))
                ),
                "{label} must be rejected"
            );
        }
    }

    #[test]
    fn correlated_plan_validation_is_typed() {
        // An empty rack is a domain with no groups — reject it up front.
        assert!(matches!(
            Experiment::builder()
                .app(AppId::Hpccg)
                .failures(FailurePlan::rack_failures(0, FailureRate::Constant(1.0)))
                .build(),
            Err(Error::Config(_))
        ));
        // The correlated rate itself goes through the same domain checks as
        // the per-rank plan.
        assert!(matches!(
            Experiment::builder()
                .app(AppId::Hpccg)
                .failures(FailurePlan::node_failures(FailureRate::Constant(-1.0)))
                .build(),
            Err(Error::Config(_))
        ));
        // A correlated plan in an unreplicated run is unrecoverable and
        // needs the same explicit opt-in as a per-rank plan.
        let native = || {
            Experiment::builder()
                .app(AppId::Hpccg)
                .mode(Mode::NoReplication)
                .failures(FailurePlan::node_failures(FailureRate::Constant(0.5)))
        };
        assert_eq!(native().build(), Err(Error::UnrecoverableFailurePlan));
        assert!(native().allow_unrecoverable_failures().build().is_ok());
    }

    #[test]
    fn correlated_plan_labels_round_trip() {
        let plans = [
            FailurePlan::node_failures(FailureRate::Constant(1.0)),
            FailurePlan::rack_failures(4, FailureRate::weibull_hpc(360.0)),
            FailurePlan::Correlated {
                domain: FailureDomain::Node,
                // Negative log-space location: the label contains `--`,
                // which the sign-aware number parser must round-trip.
                rate: FailureRate::LogNormal {
                    mu: -0.5,
                    sigma: 1.25,
                },
                horizon_s: 2.5,
            },
            FailurePlan::poisson_process(FailureRate::lognormal_hpc(360.0), 1.0),
        ];
        for plan in plans {
            assert_eq!(
                plan.label().parse::<FailurePlan>().unwrap(),
                plan,
                "label {:?} must round-trip",
                plan.label()
            );
        }
        assert_eq!(
            FailurePlan::node_failures(FailureRate::Constant(1.0)).label(),
            "corr-node-const-1-h1"
        );
        assert!("corr-shelf-const-1-h1".parse::<FailurePlan>().is_err());
        assert!("corr-rack4-const-1".parse::<FailurePlan>().is_err());
    }

    #[test]
    fn scheduled_crashes_follow_the_plan_and_placement() {
        // No plan, no crashes.
        let quiet = Experiment::builder().app(AppId::Hpccg).build().unwrap();
        assert!(quiet.scheduled_crashes().is_empty());
        // A hot node-level plan under replica-disjoint placement schedules
        // whole co-located rank groups, never a partial node.
        let e = Experiment::builder()
            .app(AppId::Hpccg)
            .failures(FailurePlan::node_failures(FailureRate::Constant(50.0)))
            .build()
            .unwrap();
        let crashes = e.scheduled_crashes();
        assert!(!crashes.is_empty());
        let topology = e.topology();
        for &(rank, at) in &crashes {
            for peer in topology.ranks_on(topology.node_of(rank)) {
                assert!(
                    crashes.contains(&(peer, at)),
                    "rank {rank}'s node peers must crash at the same instant"
                );
            }
        }
        // Deterministic in the seed.
        assert_eq!(crashes, e.scheduled_crashes());
        // The run reports the count of the one sample it used.
        assert_eq!(e.run().unwrap().scheduled_crashes, crashes.len());
        assert_eq!(quiet.run().unwrap().scheduled_crashes, 0);
    }

    #[test]
    fn poisson_arrivals_are_the_per_rank_traces_bit_for_bit() {
        // The plan computes one majorant for all ranks; every trace must
        // still be exactly what the per-rank sampler draws.
        let topology = Topology::block(8, 2);
        for rate in [
            FailureRate::Constant(3.0),
            FailureRate::Ramp {
                start: 0.5,
                end: 6.0,
            },
            FailureRate::weibull_hpc(0.5),
            FailureRate::lognormal_hpc(0.5),
        ] {
            let horizon_s = 1.37;
            let expected: Vec<_> = (0..8)
                .flat_map(|rank| {
                    let horizon = SimTime::from_secs(horizon_s);
                    replication::sample_failure_trace(rate, horizon, 42, rank)
                        .into_iter()
                        .map(move |at| (rank, at))
                })
                .collect();
            assert!(!expected.is_empty(), "{}", rate.label());
            let plan = FailurePlan::poisson_process(rate, horizon_s);
            assert_eq!(plan.arrivals(&topology, 42), expected, "{}", rate.label());
        }
    }

    #[test]
    fn fingerprint_material_is_canonical_and_axis_sensitive() {
        let base = || Experiment::builder().app(AppId::Hpccg).seed(7);
        let material = base().build().unwrap().fingerprint_material();
        // Stable for equal experiments.
        assert_eq!(material, base().build().unwrap().fingerprint_material());
        // Grid-default experiments carry no override markers: the material
        // is exactly the six-axis form.
        assert!(material.starts_with("ipr-experiment/1|app=hpccg|"));
        assert!(!material.contains("machine="));
        assert!(!material.contains("logical_procs="));
        // Every axis perturbation changes the material.
        let variants = [
            base().app(AppId::Gtc).build().unwrap(),
            base().scale(ExperimentScale::Small).build().unwrap(),
            base().mode(Mode::Replication).build().unwrap(),
            base()
                .execution_mode(ExecutionMode::IntraParallel { degree: 3 })
                .build()
                .unwrap(),
            base().scheduler(SchedulerKind::Adaptive).build().unwrap(),
            base().failures(FailurePlan::poisson(0.5)).build().unwrap(),
            base().seed(8).build().unwrap(),
            base().logical_procs(3).build().unwrap(),
            base().tasks_per_section(4).build().unwrap(),
            base().modeled_scale(2.0).build().unwrap(),
            base().machine(MachineModel::ideal()).build().unwrap(),
            base()
                .inject_failure(0, ProtocolPoint::SectionEnter { section: 0 })
                .build()
                .unwrap(),
            base()
                .checkpointing(CheckpointPlan::daly(0.01, 0.02))
                .build()
                .unwrap(),
        ];
        let mut materials: Vec<String> = variants
            .iter()
            .map(Experiment::fingerprint_material)
            .collect();
        materials.push(material);
        let unique: std::collections::BTreeSet<&String> = materials.iter().collect();
        assert_eq!(unique.len(), materials.len(), "{materials:#?}");
    }

    #[test]
    fn checkpointing_composes_with_native_failures_without_the_opt_in() {
        // C/R makes native-mode crashes recoverable: no
        // allow_unrecoverable_failures needed.
        let e = Experiment::builder()
            .app(AppId::Hpccg)
            .mode(Mode::NoReplication)
            .failures(FailurePlan::poisson(0.5))
            .checkpointing(CheckpointPlan::fixed(0.05, 0.005, 0.01))
            .build()
            .unwrap();
        assert!(e.ckpt().is_some());
        // Without a failure plan the interval policies resolve against an
        // infinite MTBF.
        let quiet = Experiment::builder()
            .app(AppId::Hpccg)
            .checkpointing(CheckpointPlan::young(0.01, 0.02))
            .build()
            .unwrap();
        assert_eq!(quiet.system_mtbf_s(), f64::INFINITY);
        // Out-of-domain plan parameters are rejected.
        assert!(matches!(
            Experiment::builder()
                .app(AppId::Hpccg)
                .checkpointing(CheckpointPlan::fixed(0.0, 0.01, 0.02))
                .build(),
            Err(Error::Config(_))
        ));
        // Hand-placed injections are untimed and cannot be replayed.
        assert!(matches!(
            Experiment::builder()
                .app(AppId::Hpccg)
                .checkpointing(CheckpointPlan::young(0.01, 0.02))
                .inject_failure(0, ProtocolPoint::SectionEnter { section: 0 })
                .build(),
            Err(Error::Config(_))
        ));
    }

    #[test]
    fn checkpointed_native_run_survives_crashes_and_accounts_overhead() {
        let base = || {
            Experiment::builder()
                .app(AppId::Hpccg)
                .mode(Mode::NoReplication)
                .failures(FailurePlan::poisson(2.0))
        };
        let e = base()
            .checkpointing(CheckpointPlan::fixed(0.02, 0.002, 0.004))
            .build()
            .unwrap();
        assert!(
            !e.scheduled_crashes().is_empty(),
            "the hot plan must schedule crashes for rollbacks to absorb"
        );
        let report = e.run().unwrap();
        // Every rank completes: crashes became rollbacks, not rank deaths.
        assert_eq!(report.completed(), report.procs);
        assert_eq!(report.crashed(), 0);
        let stats = report.ckpt.expect("checkpointed run reports stats");
        assert!(stats.recoveries > 0, "{stats:?}");
        assert!(stats.checkpoints > 0, "{stats:?}");
        assert!(stats.time_lost_s > 0.0 && stats.ckpt_overhead_s > 0.0);
        // The C/R overhead is on the virtual clock: slower than the same
        // experiment without failures and without checkpointing.
        let baseline = Experiment::builder()
            .app(AppId::Hpccg)
            .mode(Mode::NoReplication)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(baseline.ckpt.is_none());
        assert!(report.makespan_s > baseline.makespan_s);
        let eff = stats.efficiency(report.makespan_s, 1);
        assert!(eff > 0.0 && eff < 1.0, "{eff}");
        // Deterministic: an identical experiment reproduces the stats.
        assert_eq!(
            base()
                .checkpointing(CheckpointPlan::fixed(0.02, 0.002, 0.004))
                .build()
                .unwrap()
                .run()
                .unwrap()
                .ckpt,
            Some(stats)
        );
    }

    #[test]
    fn checkpointing_composes_with_replication() {
        // Replicated(2) + Daly under a fitted hazard: the session only
        // rolls back when both replicas of a logical rank are lost, but
        // the run still completes and reports stats.
        let e = Experiment::builder()
            .app(AppId::Hpccg)
            .mode(Mode::Replication)
            .failures(FailurePlan::poisson_process(
                FailureRate::weibull_hpc(0.5),
                1.0,
            ))
            .checkpointing(CheckpointPlan::daly(0.005, 0.01))
            .build()
            .unwrap();
        assert!(e.system_mtbf_s().is_finite());
        let report = e.run().unwrap();
        assert_eq!(report.completed(), report.procs);
        assert!(report.ckpt.is_some());
    }

    #[test]
    fn mode_round_trips_through_execution_mode() {
        for (mode, replicas) in [
            (Mode::NoReplication, 1),
            (Mode::Replication, 2),
            (Mode::IntraReplication, 2),
        ] {
            let exec = mode.default_execution();
            assert_eq!(Mode::from(exec), mode);
            assert_eq!(exec.degree(), replicas);
            let e = Experiment::builder()
                .app(AppId::Hpccg)
                .mode(mode)
                .build()
                .unwrap();
            assert_eq!(e.execution_mode(), exec);
        }
    }

    #[test]
    fn a_degree_whose_process_count_overflows_is_rejected_at_build() {
        let build = |degree| {
            Experiment::builder()
                .app(AppId::Hpccg)
                .execution_mode(ExecutionMode::IntraParallel { degree })
                .build()
        };
        // Built, never run: a thread-world run starts one thread per rank.
        let e = build(100_000).unwrap();
        assert_eq!(e.procs(), 100_000 * e.logical_procs());
        assert_eq!(
            build(usize::MAX).unwrap_err(),
            Error::InvalidReplicas {
                mode: Mode::IntraReplication,
                replicas: usize::MAX
            }
        );
    }
}
