//! Weak-scaling replication workload for the event-driven engine.
//!
//! The paper's measurements stop at 128 nodes, but its argument — that
//! sharing work between replicas beats classic duplicate-everything
//! replication — is about *supercomputer* scale, where failures are frequent
//! enough that replication is worth its cost.  This module models the
//! paper's three configurations as [`simmpi::RankProgram`] state machines so
//! the replication curves can be swept at 10k–1M logical ranks on the
//! event-driven engine ([`simmpi::run_virtual_cluster`]), far past the
//! thread-per-rank ceiling.
//!
//! Each iteration of the modeled SPMD solver performs, per rank:
//!
//! 1. a compute region (roofline-modeled; **halved** under
//!    intra-parallelization, because the two replicas split the work);
//! 2. *intra mode only*: an update exchange with the partner replica (each
//!    replica ships the half of the results it computed — the paper's
//!    task-update traffic);
//! 3. a halo exchange with the ring neighbours inside the rank's own
//!    replica set (sends posted before receives, so the ring cannot
//!    deadlock);
//! 4. a hypercube allreduce across the replica set (`ceil(log2 n)` rounds
//!    of pairwise exchanges — partners beyond the rank count sit out, which
//!    both sides of each pair agree on, so no round can deadlock).
//!
//! Classic replication (`Replicated`) runs the full computation and
//! communication in *both* replica sets; native runs one set.  All receives
//! name exact sources and tags.
//!
//! Failures are crash-stop: a receive naming a dead peer resolves as
//! [`RecvOutcome::PeerFailed`] and the survivor *continues with a hole* —
//! and, in intra mode, takes over the dead partner's compute share, which is
//! exactly the paper's failure handling (the surviving replica executes all
//! tasks of the logical process).

use ckpt::{CheckpointPlan, CkptSession, CkptStats};
use simcluster::{MachineModel, SimTime, Topology};
use simmpi::{
    run_virtual_cluster, EngineConfig, RankCtx, RankProgram, RecvOutcome, Step, Tag,
    VirtualClusterReport,
};
use std::sync::Arc;

/// Execution configuration of a weak-scaling run (the engine-world analogue
/// of `replication::ExecutionMode` with the paper's degree of 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeakMode {
    /// One replica set, full work per rank.
    Native,
    /// Two replica sets, each doing the full work (classic replication).
    Replicated,
    /// Two replica sets sharing the work and exchanging updates
    /// (the paper's intra-parallelization).
    Intra,
}

impl WeakMode {
    /// Replication degree of the mode.
    pub fn degree(self) -> usize {
        match self {
            WeakMode::Native => 1,
            WeakMode::Replicated | WeakMode::Intra => 2,
        }
    }

    /// Stable label used in run ids and reports.
    pub fn label(self) -> &'static str {
        match self {
            WeakMode::Native => "native",
            WeakMode::Replicated => "replicated2",
            WeakMode::Intra => "intra2",
        }
    }
}

/// Parameters of one weak-scaling run.
#[derive(Debug, Clone)]
pub struct WeakScalingSpec {
    /// Logical ranks (physical ranks = `logical * mode.degree()`).
    pub logical: usize,
    /// Execution configuration.
    pub mode: WeakMode,
    /// Solver iterations to model.
    pub iters: usize,
    /// Halo message size in bytes (per neighbour, per iteration).
    pub halo_bytes: usize,
    /// Allreduce contribution size in bytes (per round).
    pub allreduce_bytes: usize,
    /// Replica update-exchange size in bytes (intra mode only).
    pub update_bytes: usize,
    /// Flops of one full compute region (before work sharing).
    pub flops_per_iter: f64,
    /// Memory traffic of one full compute region in bytes.
    pub mem_bytes_per_iter: f64,
    /// Coordinated checkpoint/restart plan.  When set, crash events feed a
    /// deterministic rollback-recovery replay instead of killing ranks:
    /// every rank elapses the identical checkpoint/restart/re-execution
    /// charges at its iteration boundaries (see [`ckpt_charges`]).
    pub ckpt: Option<CheckpointPlan>,
    /// System MTBF in seconds the Young/Daly interval policies resolve
    /// against (ignored by fixed-interval plans; `INFINITY` = failure-free).
    pub ckpt_mtbf_s: f64,
}

impl WeakScalingSpec {
    /// A paper-flavoured default: a memory-bound stencil iteration with an
    /// 8 KiB halo, a scalar allreduce, and a 64 KiB replica update.
    pub fn new(logical: usize, mode: WeakMode) -> Self {
        WeakScalingSpec {
            logical,
            mode,
            iters: 3,
            halo_bytes: 8 << 10,
            allreduce_bytes: 8,
            update_bytes: 64 << 10,
            flops_per_iter: 2.0e7,
            mem_bytes_per_iter: 1.6e8,
            ckpt: None,
            ckpt_mtbf_s: f64::INFINITY,
        }
    }

    /// Attaches a coordinated checkpoint/restart plan, resolving Young/Daly
    /// intervals against the given system MTBF (pass `f64::INFINITY` for a
    /// failure-free overhead-only run).
    pub fn with_checkpointing(mut self, plan: CheckpointPlan, mtbf_s: f64) -> Self {
        self.ckpt = Some(plan);
        self.ckpt_mtbf_s = mtbf_s;
        self
    }

    /// Sets the iteration count.
    pub fn with_iters(mut self, iters: usize) -> Self {
        self.iters = iters;
        self
    }

    /// Number of physical ranks the run simulates.
    pub fn num_procs(&self) -> usize {
        self.logical * self.mode.degree()
    }

    /// The placement: block for native, replica-disjoint halves (the
    /// paper's requirement that replicas of one logical process never share
    /// a node) for the replicated modes.
    pub fn topology(&self, machine: &MachineModel) -> Topology {
        let cores = machine.cores_per_node.max(1);
        match self.mode {
            WeakMode::Native => Topology::block(self.logical, cores),
            WeakMode::Replicated | WeakMode::Intra => {
                Topology::replica_disjoint(self.logical, 2, cores)
            }
        }
    }
}

/// Tags used by the workload (all below `simmpi::RESERVED_TAG_BASE`).
const TAG_UPDATE: Tag = 1001;
/// Halo sent to the right neighbour ("from your left").
const TAG_HALO_R: Tag = 1002;
/// Halo sent to the left neighbour ("from your right").
const TAG_HALO_L: Tag = 1003;
/// Base tag of the allreduce rounds (round `k` uses `TAG_AR + k`).
const TAG_AR: Tag = 1100;

/// Program counter of the per-iteration state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pc {
    Compute,
    UpdateSend,
    UpdateRecv,
    HaloSendRight,
    HaloSendLeft,
    HaloRecvLeft,
    HaloRecvRight,
    AllreduceSend(u8),
    AllreduceRecv(u8),
    NextIter,
    Finished,
}

/// What every rank of one run reads and none writes, in one allocation.
struct RunShared {
    spec: WeakScalingSpec,
    /// Per-boundary checkpoint/restart charges (empty without a plan):
    /// `charges[i]` is elapsed after iteration `i` completes, identically
    /// on every rank, so the C/R protocol stays coordinated.
    charges: Arc<[f64]>,
    /// `spec.logical` and `spec.iters` in the width of the rank fields, and
    /// the allreduce rounds, `ceil(log2 logical)`.
    logical: u32,
    iters: u32,
    ar_rounds: u8,
}

/// One logical rank of the weak-scaling workload, as a cooperative state
/// machine.  A run holds one per physical rank, so it keeps only what
/// differs between ranks: 24 bytes.
struct WeakScalingProgram {
    run: Arc<RunShared>,
    /// Logical id within the replica set.
    l: u32,
    iter: u32,
    /// Receives that resolved as [`RecvOutcome::PeerFailed`] — data holes a
    /// real solver would paper over with its recovery protocol.
    holes: u32,
    pc: Pc,
    /// Replica set (0 or 1).
    rep: u8,
    /// Intra mode: the partner replica is still alive.  When it dies, this
    /// rank takes over the full compute share (the paper's failure
    /// handling: the surviving replica executes all tasks).
    partner_alive: bool,
}

const _: () = assert!(std::mem::size_of::<WeakScalingProgram>() <= 32);

impl WeakScalingProgram {
    /// The program of world rank `rank` in the run `run` describes.
    fn new(run: &Arc<RunShared>, rank: usize) -> Self {
        let logical = run.logical as usize;
        WeakScalingProgram {
            run: Arc::clone(run),
            l: (rank % logical) as u32,
            iter: 0,
            holes: 0,
            pc: Pc::Compute,
            rep: u8::try_from(rank / logical).expect("at most two replica sets"),
            partner_alive: true,
        }
    }

    fn world_of(&self, logical_id: u32) -> usize {
        usize::from(self.rep) * self.run.logical as usize + logical_id as usize
    }

    fn left(&self) -> usize {
        self.world_of(self.l.checked_sub(1).unwrap_or(self.run.logical - 1))
    }

    fn right(&self) -> usize {
        let r = self.l + 1;
        self.world_of(if r == self.run.logical { 0 } else { r })
    }

    fn partner(&self) -> usize {
        usize::from(1 - self.rep) * self.run.logical as usize + self.l as usize
    }

    /// Allreduce partner of round `k`, if it exists (`l ^ 2^k` may fall
    /// outside a non-power-of-two rank count; both sides of a pair agree on
    /// existence, so skipped rounds cannot deadlock).
    fn ar_peer(&self, round: u8) -> Option<usize> {
        let p = self.l ^ (1u32 << round);
        (p < self.run.logical).then(|| self.world_of(p))
    }
}

impl RankProgram for WeakScalingProgram {
    fn step(&mut self, ctx: &RankCtx) -> Step {
        // A receive from a crashed peer resolves as `PeerFailed`: the rank
        // records the hole and keeps going (crash-stop peers must not stall
        // the survivors).  In intra mode, losing the partner means this
        // replica takes over the full compute share from the next region on.
        if let Some(RecvOutcome::PeerFailed { src }) = ctx.last_recv() {
            self.holes = self.holes.checked_add(1).expect("fewer than 2^32 holes");
            if self.run.spec.mode == WeakMode::Intra && src == self.partner() {
                self.partner_alive = false;
            }
        }
        loop {
            match self.pc {
                Pc::Compute => {
                    let spec = &self.run.spec;
                    let sharing = spec.mode == WeakMode::Intra && self.partner_alive;
                    self.pc = if sharing {
                        Pc::UpdateSend
                    } else {
                        Pc::HaloSendRight
                    };
                    let share = if sharing { 0.5 } else { 1.0 };
                    return Step::Compute {
                        flops: spec.flops_per_iter * share,
                        mem_bytes: spec.mem_bytes_per_iter * share,
                    };
                }
                Pc::UpdateSend => {
                    self.pc = Pc::UpdateRecv;
                    return Step::Send {
                        dst: self.partner(),
                        tag: TAG_UPDATE,
                        bytes: self.run.spec.update_bytes,
                    };
                }
                Pc::UpdateRecv => {
                    self.pc = Pc::HaloSendRight;
                    return Step::Recv {
                        src: Some(self.partner()),
                        tag: Some(TAG_UPDATE),
                    };
                }
                Pc::HaloSendRight => {
                    self.pc = Pc::HaloSendLeft;
                    return Step::Send {
                        dst: self.right(),
                        tag: TAG_HALO_R,
                        bytes: self.run.spec.halo_bytes,
                    };
                }
                Pc::HaloSendLeft => {
                    self.pc = Pc::HaloRecvLeft;
                    return Step::Send {
                        dst: self.left(),
                        tag: TAG_HALO_L,
                        bytes: self.run.spec.halo_bytes,
                    };
                }
                Pc::HaloRecvLeft => {
                    self.pc = Pc::HaloRecvRight;
                    return Step::Recv {
                        src: Some(self.left()),
                        tag: Some(TAG_HALO_R),
                    };
                }
                Pc::HaloRecvRight => {
                    self.pc = Pc::AllreduceSend(0);
                    return Step::Recv {
                        src: Some(self.right()),
                        tag: Some(TAG_HALO_L),
                    };
                }
                Pc::AllreduceSend(round) => {
                    if round >= self.run.ar_rounds {
                        self.pc = Pc::NextIter;
                        continue;
                    }
                    match self.ar_peer(round) {
                        Some(peer) => {
                            self.pc = Pc::AllreduceRecv(round);
                            return Step::Send {
                                dst: peer,
                                tag: TAG_AR + Tag::from(round),
                                bytes: self.run.spec.allreduce_bytes,
                            };
                        }
                        None => {
                            self.pc = Pc::AllreduceSend(round + 1);
                            continue;
                        }
                    }
                }
                Pc::AllreduceRecv(round) => {
                    self.pc = Pc::AllreduceSend(round + 1);
                    return Step::Recv {
                        src: Some(self.ar_peer(round).expect("peer existed at send time")),
                        tag: Some(TAG_AR + Tag::from(round)),
                    };
                }
                Pc::NextIter => {
                    // Coordinated C/R boundary: every rank elapses the same
                    // precomputed charge (committed checkpoints, restarts,
                    // re-executed work), keeping the protocol in lock-step.
                    let charge = self.run.charges.get(self.iter as usize).map_or(0.0, |&c| c);
                    self.iter += 1;
                    self.pc = if self.iter >= self.run.iters {
                        Pc::Finished
                    } else {
                        Pc::Compute
                    };
                    if charge > 0.0 {
                        return Step::Elapse(SimTime::from_secs(charge));
                    }
                }
                Pc::Finished => return Step::Done,
            }
        }
    }

    /// Iterations completed plus `holes * 1e-6`: the integer part says how
    /// far the rank got, the fraction whether any receives resolved as
    /// peer failures (`0` = clean run).
    fn result(&self) -> Option<f64> {
        Some(f64::from(self.iter) + f64::from(self.holes) * 1e-6)
    }
}

/// The per-boundary checkpoint/restart charges of an engine-world run, and
/// the session's wasted-work accounting.  `None` without a plan.
///
/// The engine world replays the C/R protocol on a *nominal* timeline: the
/// modeled compute cost of one iteration (roofline time of the per-rank
/// region, halved under intra-parallelization) spaces the coordinated
/// boundaries, and the crash events drive the same deterministic
/// rollback-recovery replay as the thread world ([`ckpt::CkptSession`]).
/// The result is a charge vector of length `spec.iters` — entry `i` is the
/// extra virtual time (committed checkpoint, restarts, re-executed work)
/// every rank elapses after iteration `i`; the last boundary commits no
/// trailing checkpoint.  A pure function of the spec and the crash list.
pub fn ckpt_charges(
    spec: &WeakScalingSpec,
    crashes: &[(usize, SimTime)],
) -> Option<(Arc<[f64]>, CkptStats)> {
    let plan = spec.ckpt?;
    let machine = MachineModel::grid5000_ib20g();
    let share = if spec.mode == WeakMode::Intra {
        0.5
    } else {
        1.0
    };
    let iter_cost = machine
        .compute
        .region_time(spec.flops_per_iter * share, spec.mem_bytes_per_iter * share)
        .as_secs();
    let events: Vec<(usize, f64)> = crashes.iter().map(|&(r, t)| (r, t.as_secs())).collect();
    let mut session = CkptSession::new(
        &plan,
        spec.ckpt_mtbf_s,
        &events,
        spec.logical,
        spec.mode.degree(),
    );
    let mut charges = vec![0.0; spec.iters];
    let mut clock = 0.0;
    for (i, slot) in charges.iter_mut().enumerate() {
        clock += iter_cost;
        let extra = if i + 1 == spec.iters {
            session.finish(clock)
        } else {
            session.advance(clock)
        };
        clock += extra;
        *slot = extra;
    }
    Some((Arc::from(charges), session.stats()))
}

/// Runs a weak-scaling experiment on the event-driven engine, with
/// crash-stop failures injected at the given `(world rank, virtual time)`
/// points (typically sampled from a Poisson trace; see
/// `replication::sample_failure_trace`).
///
/// With a checkpoint plan attached ([`WeakScalingSpec::with_checkpointing`])
/// the crash events feed the rollback-recovery replay instead of killing
/// ranks: every rank completes, elapsing the identical C/R charges at its
/// iteration boundaries ([`ckpt_charges`] exposes the same vector and the
/// wasted-work accounting).
pub fn run_weak_scaling(
    spec: &WeakScalingSpec,
    crashes: &[(usize, SimTime)],
) -> VirtualClusterReport {
    let machine = MachineModel::grid5000_ib20g();
    let mut config = EngineConfig::new(spec.num_procs())
        .with_machine(machine)
        .with_topology(spec.topology(&machine));
    let charges = match ckpt_charges(spec, crashes) {
        Some((charges, _stats)) => charges,
        None => {
            config.crashes = crashes.to_vec();
            Arc::from(Vec::new())
        }
    };
    let logical = spec.logical.max(1);
    let run = Arc::new(RunShared {
        spec: spec.clone(),
        charges,
        logical: u32::try_from(logical).expect("fewer than 2^32 logical ranks"),
        iters: u32::try_from(spec.iters).expect("fewer than 2^32 iterations"),
        ar_rounds: (usize::BITS - (logical - 1).leading_zeros()) as u8,
    });
    run_virtual_cluster(&config, |rank| WeakScalingProgram::new(&run, rank))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmpi::RankEnd;

    #[test]
    fn native_ring_completes_at_modest_scale() {
        let spec = WeakScalingSpec::new(64, WeakMode::Native);
        let report = run_weak_scaling(&spec, &[]);
        assert_eq!(report.num_completed(), 64);
        assert!(report.errors().is_empty(), "{:?}", report.errors());
        assert!(report.makespan() > SimTime::ZERO);
        for r in &report.ranks {
            assert_eq!(r.result, Some(spec.iters as f64));
        }
    }

    #[test]
    fn all_modes_complete_on_non_power_of_two_counts() {
        for mode in [WeakMode::Native, WeakMode::Replicated, WeakMode::Intra] {
            for logical in [1usize, 2, 3, 24, 100] {
                let spec = WeakScalingSpec::new(logical, mode).with_iters(2);
                let report = run_weak_scaling(&spec, &[]);
                assert_eq!(
                    report.num_completed(),
                    spec.num_procs(),
                    "mode {:?} logical {logical}: {:?}",
                    mode,
                    report.errors()
                );
            }
        }
    }

    #[test]
    fn intra_mode_is_faster_than_replicated_and_includes_update_traffic() {
        let replicated = run_weak_scaling(&WeakScalingSpec::new(32, WeakMode::Replicated), &[]);
        let intra = run_weak_scaling(&WeakScalingSpec::new(32, WeakMode::Intra), &[]);
        // Work sharing halves the dominant compute term; the added update
        // exchange must not eat the whole gain on this workload.
        assert!(
            intra.makespan() < replicated.makespan(),
            "intra {:?} !< replicated {:?}",
            intra.makespan(),
            replicated.makespan()
        );
        // Update exchange is extra messages on top of the replicated set.
        assert!(intra.messages > replicated.messages);
    }

    #[test]
    fn results_are_identical_across_repeated_runs() {
        let spec = WeakScalingSpec::new(48, WeakMode::Intra);
        // Reports compare on every field, `dispatches` included.
        let base = run_weak_scaling(&spec, &[]);
        for _ in 0..2 {
            assert_eq!(run_weak_scaling(&spec, &[]), base);
        }
    }

    #[test]
    fn engine_checkpoint_replay_absorbs_a_crash_and_charges_every_rank() {
        let machine = MachineModel::grid5000_ib20g();
        let iter_cost = machine.compute.region_time(2.0e7, 1.6e8).as_secs();
        let plan = CheckpointPlan::fixed(0.6 * iter_cost, 0.01 * iter_cost, 0.02 * iter_cost);
        let spec = WeakScalingSpec::new(8, WeakMode::Native)
            .with_iters(4)
            .with_checkpointing(plan, f64::INFINITY);
        let crashes = vec![(3usize, SimTime::from_secs(1.5 * iter_cost))];

        let (charges, stats) = ckpt_charges(&spec, &crashes).unwrap();
        assert_eq!(charges.len(), 4);
        assert_eq!(stats.recoveries, 1, "{stats:?}");
        assert!(stats.checkpoints >= 2, "{stats:?}");
        assert!(stats.time_lost_s > 0.0);
        assert!(stats.ckpt_overhead_s > 0.0);

        let baseline = run_weak_scaling(
            &WeakScalingSpec::new(8, WeakMode::Native).with_iters(4),
            &[],
        );
        let report = run_weak_scaling(&spec, &crashes);
        // Rollback-recovery absorbs the crash: nobody dies, everybody pays.
        assert_eq!(report.num_crashed(), 0);
        assert_eq!(report.num_completed(), spec.num_procs());
        assert!(report.errors().is_empty(), "{:?}", report.errors());
        let extra: f64 = charges.iter().sum();
        let diff = report.makespan().as_secs() - baseline.makespan().as_secs();
        assert!(
            (diff - extra).abs() < 1e-9,
            "makespan grew by {diff}, charges total {extra}"
        );
    }

    #[test]
    fn engine_checkpoint_results_are_identical_across_repeated_runs() {
        // Ranks 5 and 21 are the two replicas of logical rank 5: a replica
        // defeat, so the replay must roll back even in a replicated mode.
        let plan = CheckpointPlan::fixed(0.01, 0.001, 0.002);
        let crashes = vec![
            (5usize, SimTime::from_secs(0.02)),
            (21usize, SimTime::from_secs(0.05)),
        ];
        let spec = WeakScalingSpec::new(16, WeakMode::Intra)
            .with_iters(3)
            .with_checkpointing(plan, f64::INFINITY);
        let base = run_weak_scaling(&spec, &crashes);
        assert_eq!(base.num_crashed(), 0);
        assert_eq!(base.num_completed(), spec.num_procs());
        for _ in 0..2 {
            assert_eq!(run_weak_scaling(&spec, &crashes), base);
        }
    }

    #[test]
    fn a_crash_degrades_neighbours_instead_of_hanging() {
        let spec = WeakScalingSpec::new(16, WeakMode::Intra).with_iters(4);
        // Kill one rank mid-run (virtual time inside the first iteration).
        let report = run_weak_scaling(&spec, &[(3, SimTime::from_secs(1e-4))]);
        assert_eq!(report.num_crashed(), 1);
        assert_eq!(report.ranks[3].end, RankEnd::Crashed);
        // Every survivor ran to completion (with holes), nobody deadlocked.
        assert_eq!(report.num_completed(), spec.num_procs() - 1);
        assert!(report.errors().is_empty(), "{:?}", report.errors());
        // The dead rank's partner (world rank 16 + 3) observed the failure
        // and took over the full compute share, so it computed more than a
        // survivor whose partner stayed alive.
        let partner = &report.ranks[16 + 3];
        let unaffected = &report.ranks[16 + 8];
        assert!(partner.result.unwrap().fract() > 0.0, "partner saw no hole");
        assert!(
            partner.compute_time > unaffected.compute_time,
            "partner {:?} !> unaffected {:?}",
            partner.compute_time,
            unaffected.compute_time
        );
        // Survivors all finished the full iteration count.
        for r in report.ranks.iter().filter(|r| !r.failed) {
            assert_eq!(
                r.result.unwrap().trunc(),
                spec.iters as f64,
                "rank {}",
                r.rank
            );
        }
    }
}
