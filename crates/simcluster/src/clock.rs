//! Per-process virtual clocks.
//!
//! Every simulated physical process owns a [`VirtualClock`].  Compute regions
//! advance it by their modeled duration; the message-passing layer advances
//! it according to the LogP-style rules implemented in `simmpi`:
//!
//! * a send charges the sender its *occupancy* (overhead + serialization) and
//!   stamps the message with the sender's clock at the moment injection
//!   finished;
//! * a receive completes no earlier than `max(receiver clock, message
//!   arrival)`, where arrival = stamp + latency + size/bandwidth.
//!
//! For deterministic message-passing programs this conservative rule yields
//! the same virtual timeline as a full discrete-event simulation, while
//! letting every process run freely on its own OS thread.

use crate::model::NetworkModel;
use crate::time::SimTime;

/// A monotonically non-decreasing virtual clock owned by one simulated
/// process.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    now: SimTime,
    /// Total time attributed to compute regions.
    compute: SimTime,
    /// Total time attributed to communication (sender occupancy + waiting).
    comm: SimTime,
    /// Total time spent blocked waiting for messages that had not yet
    /// arrived (a subset of `comm`).
    wait: SimTime,
}

impl VirtualClock {
    /// A clock starting at time zero.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the clock by `dt`, attributing the time to computation.
    pub fn advance_compute(&mut self, dt: SimTime) {
        self.now += dt;
        self.compute += dt;
    }

    /// Advances the clock by `dt`, attributing the time to communication
    /// overhead (e.g. sender occupancy, receiver overhead).
    fn advance_comm(&mut self, dt: SimTime) {
        self.now += dt;
        self.comm += dt;
    }

    /// Advances the clock to `target` if it is in the future, attributing the
    /// jump to waiting for communication.  Returns the amount of time waited.
    pub fn wait_until(&mut self, target: SimTime) -> SimTime {
        if target > self.now {
            let waited = target - self.now;
            self.now = target;
            self.comm += waited;
            self.wait += waited;
            waited
        } else {
            SimTime::ZERO
        }
    }

    /// Advances the clock by `dt` without attributing it to either bucket
    /// (used for application phases we explicitly do not break down).
    pub fn advance_other(&mut self, dt: SimTime) {
        self.now += dt;
    }

    /// Total virtual time attributed to computation.
    pub fn compute_time(&self) -> SimTime {
        self.compute
    }

    /// Total virtual time attributed to communication (incl. waiting).
    pub fn comm_time(&self) -> SimTime {
        self.comm
    }

    /// Virtual time spent blocked waiting for remote progress.
    pub fn wait_time(&self) -> SimTime {
        self.wait
    }
}

/// One rank's timing state: its clock and the busy-until times of its two
/// sending channels.  Only the rank itself ever touches it, in either
/// execution world, and the two formulas below are the whole message-timing
/// model: a change to the network model is made here and nowhere else.
#[derive(Debug, Clone)]
pub struct Endpoint {
    /// The rank's clock.
    pub clock: VirtualClock,
    /// Busy-until time of the local copy engine (intra-node sends, which do
    /// not touch the network card).
    local_busy: SimTime,
    /// Busy-until time of this rank's share of the node NIC.
    nic_busy: SimTime,
    /// Number of ranks co-located on this rank's node.  The node's network
    /// card is fair-shared between them, so each rank sees `1/nic_sharing`
    /// of the inter-node bandwidth — this contention is what makes
    /// update-heavy kernels (waxpby) perform poorly under
    /// intra-parallelization in the paper's Figure 5a.  (A static fair share
    /// is used instead of a dynamically shared busy-until timestamp so that
    /// virtual time stays causally consistent regardless of host
    /// scheduling; the experiments are SPMD, so every co-located rank is
    /// communicating at the same points anyway.)
    nic_sharing: f64,
}

impl Endpoint {
    /// An endpoint at time zero on a node hosting `node_population` ranks
    /// (see [`crate::Topology::node_populations`]).
    pub fn new(node_population: usize) -> Self {
        Endpoint {
            clock: VirtualClock::new(),
            local_busy: SimTime::ZERO,
            nic_busy: SimTime::ZERO,
            nic_sharing: node_population.max(1) as f64,
        }
    }

    /// Models the injection of a message of `bytes` bytes over `link`.
    ///
    /// Returns `(arrival, inject_done)`: the virtual time at which the
    /// message is fully available at the destination, and the virtual time
    /// at which the sending channel (this rank's share of the node NIC for
    /// inter-node messages, the local copy engine for intra-node ones)
    /// finishes injecting it.  The channel serializes back-to-back sends
    /// while the sender's CPU is only charged the fixed per-message
    /// overhead, so computation posted after a non-blocking send overlaps
    /// with the transfer (the overlap the paper's implementation exploits
    /// when shipping task updates).
    #[inline]
    pub fn inject(
        &mut self,
        link: &NetworkModel,
        same_node: bool,
        bytes: usize,
    ) -> (SimTime, SimTime) {
        let send_overhead = SimTime::from_secs(link.send_overhead_s);
        let latency = SimTime::from_secs(link.latency_s);
        let (channel, occupancy) = if same_node {
            (&mut self.local_busy, link.sender_occupancy(bytes))
        } else {
            // Inter-node messages only get this rank's fair share of the
            // node's network card.
            let serialization = link.wire_time(bytes).saturating_sub(latency) * self.nic_sharing;
            (&mut self.nic_busy, send_overhead + serialization)
        };
        let inject_done = (*channel).max(self.clock.now()) + occupancy;
        *channel = inject_done;
        self.clock.advance_comm(send_overhead);
        (inject_done + latency, inject_done)
    }

    /// Completes a receive whose message arrived (in virtual time) at
    /// `arrival` over `link`: the conservative rule `max(clock, arrival)`
    /// plus the receiver overhead.
    #[inline]
    pub fn complete_recv(&mut self, link: &NetworkModel, arrival: SimTime) {
        self.clock.wait_until(arrival);
        self.clock.advance_comm(link.receiver_overhead());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl VirtualClock {
        fn since(&self, mark: SimTime) -> SimTime {
            self.now.saturating_sub(mark)
        }
    }

    #[test]
    fn starts_at_zero() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        assert_eq!(c.compute_time(), SimTime::ZERO);
        assert_eq!(c.comm_time(), SimTime::ZERO);
    }

    #[test]
    fn advance_attributes_time_to_buckets() {
        let mut c = VirtualClock::new();
        c.advance_compute(SimTime::from_secs(2.0));
        c.advance_comm(SimTime::from_secs(1.0));
        assert_eq!(c.now().as_secs(), 3.0);
        assert_eq!(c.compute_time().as_secs(), 2.0);
        assert_eq!(c.comm_time().as_secs(), 1.0);
        assert_eq!(c.wait_time(), SimTime::ZERO);
    }

    #[test]
    fn wait_until_only_moves_forward() {
        let mut c = VirtualClock::new();
        c.advance_compute(SimTime::from_secs(5.0));
        let waited = c.wait_until(SimTime::from_secs(3.0));
        assert_eq!(waited, SimTime::ZERO);
        assert_eq!(c.now().as_secs(), 5.0);
        let waited = c.wait_until(SimTime::from_secs(7.5));
        assert_eq!(waited.as_secs(), 2.5);
        assert_eq!(c.now().as_secs(), 7.5);
        assert_eq!(c.wait_time().as_secs(), 2.5);
        // waiting counts as communication time
        assert_eq!(c.comm_time().as_secs(), 2.5);
    }

    #[test]
    fn mark_and_since_measure_regions() {
        let mut c = VirtualClock::new();
        let m = c.now();
        c.advance_compute(SimTime::from_secs(1.0));
        c.advance_comm(SimTime::from_secs(0.5));
        assert_eq!(c.since(m).as_secs(), 1.5);
    }

    fn link() -> NetworkModel {
        NetworkModel {
            latency_s: 1.0,
            bandwidth_bytes_per_s: 100.0,
            send_overhead_s: 0.25,
            recv_overhead_s: 0.5,
        }
    }

    /// Back-to-back inter-node sends serialize on the rank's share of the
    /// NIC (4 ranks on the node: a quarter of the bandwidth) while the
    /// sender's clock only pays the fixed overheads.
    #[test]
    fn endpoint_serializes_inter_node_sends_on_the_nic_share() {
        let mut e = Endpoint::new(4);
        // 50 B at 100 B/s = 0.5 s of serialization, 2 s at a quarter share.
        assert_eq!(
            e.inject(&link(), false, 50),
            (SimTime::from_secs(3.25), SimTime::from_secs(2.25))
        );
        assert_eq!(e.clock.now().as_secs(), 0.25);
        // The second send queues behind the first on the channel.
        assert_eq!(
            e.inject(&link(), false, 50),
            (SimTime::from_secs(5.5), SimTime::from_secs(4.5))
        );
        assert_eq!(e.clock.now().as_secs(), 0.5);
        assert_eq!(e.clock.comm_time().as_secs(), 0.5);
    }

    /// Intra-node sends use the local copy engine at full bandwidth and do
    /// not queue behind the NIC.
    #[test]
    fn endpoint_keeps_the_two_channels_apart() {
        let mut e = Endpoint::new(4);
        let _ = e.inject(&link(), false, 50);
        assert_eq!(
            e.inject(&link(), true, 50),
            (SimTime::from_secs(2.0), SimTime::from_secs(1.0))
        );
    }

    #[test]
    fn endpoint_receive_completes_at_arrival_plus_overhead() {
        let mut e = Endpoint::new(1);
        e.complete_recv(&link(), SimTime::from_secs(2.0));
        assert_eq!(e.clock.now().as_secs(), 2.5);
        assert_eq!(e.clock.wait_time().as_secs(), 2.0);
        // A message that arrived in the past costs the overhead only.
        e.complete_recv(&link(), SimTime::from_secs(1.0));
        assert_eq!(e.clock.now().as_secs(), 3.0);
        assert_eq!(e.clock.wait_time().as_secs(), 2.0);
    }
}
