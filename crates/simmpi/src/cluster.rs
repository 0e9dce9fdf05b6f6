//! Cluster launcher: spawns one OS thread per simulated physical process and
//! collects results and virtual-time breakdowns.
//!
//! Every rank gets its own thread (bodies are arbitrary blocking closures)
//! and the host scheduler runs them as it sees fit: a rank blocked in a
//! receive sleeps on its mailbox's condvar and costs nothing until a
//! matching delivery wakes it.  A run whose ranks have all parked or
//! returned cannot make progress; the router notices the moment the last
//! runner stops and ends every parked receive with `MpiError::Aborted`
//! ([`crate::router`], § Liveness), so a stuck run returns at once and the
//! same way every time.  That model serves the rank counts the
//! figures need (4–128); beyond that, use the event-driven engine
//! ([`crate::engine`]), which drops the thread-per-rank model entirely.

use crate::error::ConfigError;
use crate::proc::{ProcCore, ProcHandle};
use crate::router::Router;
use simcluster::{FailureEvent, FailureStatusBoard, MachineModel, SimTime, Topology};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Configuration of a simulated cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of physical processes (threads) to spawn.
    pub num_procs: usize,
    /// Machine model (compute + network calibration).
    pub machine: MachineModel,
    /// Placement of processes on nodes.  Defaults to block placement with
    /// `machine.cores_per_node` processes per node.
    pub topology: Option<Topology>,
    /// Global seed for deterministic per-process randomness.
    pub seed: u64,
}

impl ClusterConfig {
    /// A cluster of `num_procs` processes on the paper's Grid'5000/IB-20G
    /// machine model.
    pub fn new(num_procs: usize) -> Self {
        ClusterConfig {
            num_procs,
            machine: MachineModel::grid5000_ib20g(),
            topology: None,
            seed: 42,
        }
    }

    /// A cluster with a zero-cost machine model, for protocol-correctness
    /// tests that do not care about timing.
    pub fn ideal(num_procs: usize) -> Self {
        ClusterConfig {
            machine: MachineModel::ideal(),
            ..ClusterConfig::new(num_procs)
        }
    }

    /// Sets the machine model.
    pub fn with_machine(mut self, machine: MachineModel) -> Self {
        self.machine = machine;
        self
    }

    /// Sets an explicit topology.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn resolved_topology(&self) -> Topology {
        self.topology
            .clone()
            .unwrap_or_else(|| Topology::block(self.num_procs, self.machine.cores_per_node.max(1)))
    }
}

/// Per-process summary collected after the run.
#[derive(Debug, Clone)]
pub struct ProcReport {
    /// World rank.
    pub rank: usize,
    /// Final virtual time of the process.
    pub final_time: SimTime,
    /// Virtual time attributed to computation.
    pub compute_time: SimTime,
    /// Virtual time attributed to communication (incl. waiting).
    pub comm_time: SimTime,
    /// Virtual time spent blocked waiting for remote progress.
    pub wait_time: SimTime,
    /// True if the process was marked as crashed during the run.
    pub failed: bool,
}

/// Result of a cluster run.
#[derive(Debug)]
pub struct ClusterReport<R> {
    /// Per-rank closure results (`Err` carries the panic payload if the
    /// process panicked).
    pub results: Vec<Result<R, String>>,
    /// Per-rank virtual-time summaries.
    pub procs: Vec<ProcReport>,
    /// Failure history (injected crashes).
    pub failures: Vec<FailureEvent>,
}

impl<R> ClusterReport<R> {
    /// Virtual makespan: the largest final virtual time over the processes
    /// that did *not* crash (crashed processes stop early by construction).
    ///
    /// When *every* process crashed there are no survivors to take the
    /// maximum over; the makespan then falls back to [`max_time`] over the
    /// crashed processes instead of reporting `SimTime::ZERO` — a total-loss
    /// run must not look like an instantaneous perfect one in reports and
    /// benches.  Use [`all_crashed`] to detect the case explicitly.
    ///
    /// [`max_time`]: ClusterReport::max_time
    /// [`all_crashed`]: ClusterReport::all_crashed
    pub fn makespan(&self) -> SimTime {
        self.procs
            .iter()
            .filter(|p| !p.failed)
            .map(|p| p.final_time)
            .max()
            .unwrap_or_else(|| self.max_time())
    }

    /// True if every process crashed (total loss): there are processes, and
    /// all of them were marked failed.  In this case [`makespan`] reports
    /// the time the last process reached before dying.
    ///
    /// [`makespan`]: ClusterReport::makespan
    pub fn all_crashed(&self) -> bool {
        !self.procs.is_empty() && self.procs.iter().all(|p| p.failed)
    }

    /// Largest final virtual time over all processes.
    pub fn max_time(&self) -> SimTime {
        self.procs
            .iter()
            .map(|p| p.final_time)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Unwraps every per-rank result, panicking (with the original payload
    /// text) if any process panicked.
    pub fn unwrap_results(self) -> Vec<R> {
        self.results
            .into_iter()
            .enumerate()
            .map(|(rank, r)| match r {
                Ok(v) => v,
                Err(msg) => panic!("simulated process {rank} panicked: {msg}"),
            })
            .collect()
    }

    /// True if at least one process panicked.
    pub fn any_panicked(&self) -> bool {
        self.results.iter().any(|r| r.is_err())
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

/// Runs `body` once per simulated physical process and collects the results.
///
/// `body` receives a [`ProcHandle`] giving access to the world communicator,
/// virtual time and failure injection.  The call returns when
/// every process has returned or panicked; a run that can no longer make
/// progress is aborted (see the module docs).
pub fn run_cluster<R, F>(config: &ClusterConfig, body: F) -> ClusterReport<R>
where
    R: Send,
    F: Fn(ProcHandle) -> R + Send + Sync,
{
    match try_run_cluster(config, body) {
        Ok(report) => report,
        Err(e) => panic!("invalid cluster configuration: {e}"),
    }
}

/// [`run_cluster`] with the configuration validated up front: invalid
/// configurations (an empty cluster, a topology smaller than the cluster)
/// return a typed [`ConfigError`] before any thread is spawned, instead of
/// hanging or panicking.
pub fn try_run_cluster<R, F>(
    config: &ClusterConfig,
    body: F,
) -> Result<ClusterReport<R>, ConfigError>
where
    R: Send,
    F: Fn(ProcHandle) -> R + Send + Sync,
{
    if config.num_procs == 0 {
        return Err(ConfigError::NoProcesses);
    }
    let topology = config.resolved_topology();
    if topology.num_procs() < config.num_procs {
        return Err(ConfigError::TopologyTooSmall {
            covers: topology.num_procs(),
            ranks: config.num_procs,
        });
    }
    let failures = FailureStatusBoard::new(config.num_procs);
    let router = Arc::new(Router::for_rank_threads(config.num_procs, failures.clone()));
    let node_populations = topology.node_populations();

    let cores: Vec<Arc<ProcCore>> = (0..config.num_procs)
        .map(|rank| {
            Arc::new(ProcCore::new(
                rank,
                Arc::clone(&router),
                config.machine,
                topology.clone(),
                node_populations[topology.node_of(rank)],
                config.seed,
            ))
        })
        .collect();

    let results: Vec<Result<R, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = cores
            .iter()
            .map(|core| {
                let body = &body;
                scope.spawn(move || {
                    let out =
                        catch_unwind(AssertUnwindSafe(|| body(ProcHandle::new(Arc::clone(core)))))
                            .map_err(|payload| {
                                // Mark the rank as failed so peers blocked on it
                                // observe ProcessFailed instead of hanging.
                                let failures = core.router.failures();
                                failures.mark_failed(core.world_rank, core.now());
                                panic_message(payload)
                            });
                    core.router.rank_returned();
                    out
                })
            })
            .collect();

        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("join failed".to_string())))
            .collect()
    });

    let procs = cores
        .iter()
        .enumerate()
        .map(|(rank, core)| {
            let clock = &core.endpoint.lock().clock;
            ProcReport {
                rank,
                final_time: clock.now(),
                compute_time: clock.compute_time(),
                comm_time: clock.comm_time(),
                wait_time: clock.wait_time(),
                failed: failures.is_failed(rank),
            }
        })
        .collect();

    Ok(ClusterReport {
        results,
        procs,
        failures: failures.events(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cluster_is_a_typed_config_error() {
        let err = try_run_cluster(&ClusterConfig::ideal(0), |_proc| 0usize).unwrap_err();
        assert_eq!(err, crate::ConfigError::NoProcesses);
        assert_eq!(err.to_string(), "cluster needs at least one process");
    }

    /// Regression: an explicit topology placing fewer ranks than the cluster
    /// runs used to trip an `assert!` after the "up front" validation.
    #[test]
    fn undersized_topology_is_a_typed_config_error() {
        let config = ClusterConfig::ideal(4).with_topology(Topology::one_per_node(2));
        let err = try_run_cluster(&config, |_proc| 0usize).unwrap_err();
        assert_eq!(
            err,
            crate::ConfigError::TopologyTooSmall {
                covers: 2,
                ranks: 4
            }
        );
        assert_eq!(
            err.to_string(),
            "topology covers 2 ranks but the cluster has 4"
        );
    }

    /// No false positives: ranks that park and wake thousands of times in a
    /// ring plus a collective never look stuck — the count of running ranks
    /// cannot read zero while a wake-up is in flight.
    #[test]
    fn a_busy_healthy_run_is_never_aborted() {
        const RANKS: usize = 128;
        const ITERATIONS: u64 = 200;
        let report = run_cluster(&ClusterConfig::ideal(RANKS), |proc| {
            let world = proc.world();
            let (rank, size) = (world.rank(), world.size());
            let mut sum = 0.0;
            for i in 0..ITERATIONS {
                world.send(&[i as f64], (rank + 1) % size, 3).unwrap();
                let got: Vec<f64> = world.recv((rank + size - 1) % size, 3).unwrap();
                sum += world.allreduce_sum_f64(got[0]).unwrap();
            }
            (sum, Arc::clone(proc.core()))
        });
        for (sum, core) in report.unwrap_results() {
            assert_eq!(sum, (RANKS as u64 * (0..ITERATIONS).sum::<u64>()) as f64);
            assert!(!core.router.is_aborted());
        }
    }

    /// Regression: when every rank crashed, the makespan must report the
    /// last death time instead of `SimTime::ZERO` — a total-loss run used to
    /// look like a perfect instantaneous one.
    #[test]
    fn makespan_of_total_loss_run_reports_last_death_time() {
        let report = run_cluster(&ClusterConfig::ideal(2), |proc| {
            proc.charge_other(SimTime::from_secs(1.0 + proc.rank() as f64));
            proc.fail_here();
        });
        assert!(report.all_crashed());
        assert_eq!(report.makespan(), report.max_time());
        assert_eq!(report.makespan().as_secs(), 2.0);
    }

    /// The survivor filter is unchanged: crashed ranks still do not drag the
    /// makespan when at least one rank survived.
    #[test]
    fn makespan_still_ignores_crashed_ranks_when_survivors_exist() {
        let report = run_cluster(&ClusterConfig::ideal(2), |proc| {
            if proc.rank() == 0 {
                proc.charge_other(SimTime::from_secs(9.0));
                proc.fail_here();
            } else {
                proc.charge_other(SimTime::from_secs(3.0));
            }
        });
        assert!(!report.all_crashed());
        assert_eq!(report.makespan().as_secs(), 3.0);
        assert_eq!(report.max_time().as_secs(), 9.0);
    }
}
