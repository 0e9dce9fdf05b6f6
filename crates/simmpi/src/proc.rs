//! Per-process state and the user-facing process handle.

use crate::error::{MpiError, MpiResult};
use crate::router::Router;
use parking_lot::Mutex;
use simcluster::{Endpoint, MachineModel, SimTime, Topology};
use std::sync::Arc;

/// Internal per-process state shared by every communicator owned by one
/// simulated process.  One `ProcCore` exists per physical rank; it is only
/// ever touched from that rank's thread plus (read-only) from the report
/// collector once the run has finished, hence the plain mutex.
pub struct ProcCore {
    pub(crate) world_rank: usize,
    pub(crate) num_procs: usize,
    pub(crate) router: Arc<Router>,
    pub(crate) machine: MachineModel,
    pub(crate) topology: Topology,
    /// The rank's clock and sending channels, with the message-timing
    /// formulas — the same record the event engine keeps per rank.
    pub(crate) endpoint: Mutex<Endpoint>,
    pub(crate) seed: u64,
}

impl ProcCore {
    /// `node_population` is the number of ranks the topology places on this
    /// rank's node ([`Topology::node_populations`]).
    pub(crate) fn new(
        world_rank: usize,
        router: Arc<Router>,
        machine: MachineModel,
        topology: Topology,
        node_population: usize,
        seed: u64,
    ) -> Self {
        ProcCore {
            world_rank,
            num_procs: router.num_procs(),
            router,
            machine,
            topology,
            endpoint: Mutex::new(Endpoint::new(node_population)),
            seed,
        }
    }

    /// Charges the local clock for a compute region.
    pub(crate) fn charge_compute(&self, flops: f64, mem_bytes: f64) {
        let dt = self.machine.compute.region_time(flops, mem_bytes);
        self.endpoint.lock().clock.advance_compute(dt);
    }

    /// Charges the local clock for a plain memory copy of `bytes` bytes.
    pub(crate) fn charge_memcpy(&self, bytes: usize) {
        let dt = self.machine.compute.memcpy_time(bytes);
        self.endpoint.lock().clock.advance_compute(dt);
    }

    /// Current virtual time of this process.
    pub(crate) fn now(&self) -> SimTime {
        self.endpoint.lock().clock.now()
    }

    /// Models the injection of a message of `bytes` bytes towards `dest`;
    /// returns `(arrival, inject_done)`, see [`Endpoint::inject`].
    pub(crate) fn inject(&self, bytes: usize, dest: usize) -> (SimTime, SimTime) {
        let same_node = self.topology.same_node(self.world_rank, dest);
        let link = self.machine.link(same_node);
        self.endpoint.lock().inject(link, same_node, bytes)
    }

    /// Batched [`ProcCore::inject`]: one send per destination, in order,
    /// under a single lock acquisition; the per-destination arrival times
    /// are returned via `out`.
    pub(crate) fn inject_multi(&self, bytes: usize, dests: &[usize], out: &mut [SimTime]) {
        debug_assert_eq!(dests.len(), out.len());
        let mut endpoint = self.endpoint.lock();
        for (&dest, arrival) in dests.iter().zip(out.iter_mut()) {
            let same_node = self.topology.same_node(self.world_rank, dest);
            let link = self.machine.link(same_node);
            *arrival = endpoint.inject(link, same_node, bytes).0;
        }
    }

    /// Completes a receive whose message arrived (in virtual time) at
    /// `arrival` from world rank `src`.
    pub(crate) fn complete_recv(&self, arrival: SimTime, src: usize) {
        let same_node = self.topology.same_node(self.world_rank, src);
        let link = self.machine.link(same_node);
        self.endpoint.lock().complete_recv(link, arrival);
    }

    /// Returns an error if this process has been marked as failed.
    pub(crate) fn check_alive(&self) -> MpiResult<()> {
        if self.router.failures().is_failed(self.world_rank) {
            Err(MpiError::SelfFailed)
        } else {
            Ok(())
        }
    }
}

/// Handle given to the per-process closure by the cluster launcher.
///
/// It exposes the world communicator, virtual-time accounting, the machine
/// model, and this process's own liveness and crash injection — never a
/// peer's: a rank sees another rank's crash only as the
/// [`MpiError::ProcessFailed`] of a receive.  Cloning is cheap; all clones
/// refer to the same process.
#[derive(Clone)]
pub struct ProcHandle {
    core: Arc<ProcCore>,
}

impl ProcHandle {
    pub(crate) fn new(core: Arc<ProcCore>) -> Self {
        ProcHandle { core }
    }

    #[allow(dead_code)]
    pub(crate) fn core(&self) -> &Arc<ProcCore> {
        &self.core
    }

    /// World rank of this process.
    pub fn rank(&self) -> usize {
        self.core.world_rank
    }

    /// Total number of physical processes in the cluster.
    pub fn num_procs(&self) -> usize {
        self.core.num_procs
    }

    /// The world communicator (all physical processes).
    pub fn world(&self) -> crate::comm::Comm {
        crate::comm::Comm::world(Arc::clone(&self.core))
    }

    /// Current virtual time of this process.
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// Charges virtual time for a compute region described by its flop count
    /// and memory traffic (roofline model).
    pub fn charge_compute(&self, flops: f64, mem_bytes: f64) {
        self.core.charge_compute(flops, mem_bytes);
    }

    /// Charges virtual time for a memory copy of `bytes` bytes.
    pub fn charge_memcpy(&self, bytes: usize) {
        self.core.charge_memcpy(bytes);
    }

    /// Charges an explicit amount of virtual time as "other" (neither compute
    /// nor communication); used by applications to model phases that are not
    /// broken down.
    pub fn charge_other(&self, dt: SimTime) {
        self.core.endpoint.lock().clock.advance_other(dt);
    }

    /// The machine model in effect.
    pub fn machine(&self) -> &MachineModel {
        &self.core.machine
    }

    /// The process placement in effect.
    pub fn topology(&self) -> &Topology {
        &self.core.topology
    }

    /// Global seed configured for this run (use with
    /// [`simcluster::seeded_rng`] and the local rank for deterministic
    /// per-process randomness).
    pub fn seed(&self) -> u64 {
        self.core.seed
    }

    /// True if this process has been marked as crashed.
    pub fn is_failed(&self) -> bool {
        self.core.router.failures().is_failed(self.rank())
    }

    /// Injects a crash-stop failure of this process at the current virtual
    /// time: the failure board is updated and every blocked receiver in the
    /// cluster is woken so it can observe the failure.  The caller is
    /// expected to stop communicating afterwards (the runtime layers return
    /// early when they see `SelfFailed`).
    pub fn fail_here(&self) {
        let now = self.now();
        self.core.router.failures().mark_failed(self.rank(), now);
    }
}
