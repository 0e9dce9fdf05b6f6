//! Message envelopes.

use bytes::Bytes;
use simcluster::SimTime;

/// Identifier of a communicator, globally consistent across the processes
/// that are members of it (derived deterministically at `split_by` time).
pub type CommId = u64;

/// Message tag.  Application tags must stay below [`RESERVED_TAG_BASE`];
/// larger values are reserved for internal collective operations.
pub type Tag = u32;

/// First tag value reserved for internal use (collectives).
pub const RESERVED_TAG_BASE: Tag = 1 << 30;

/// A message in flight or queued at the destination's mailbox.
#[derive(Debug, Clone)]
pub(crate) struct Envelope {
    /// World rank of the sender.
    pub(crate) src_world: usize,
    /// World rank of the destination.
    pub(crate) dst_world: usize,
    /// Communicator the message was sent on.
    pub(crate) comm: CommId,
    /// Application or internal tag.
    pub(crate) tag: Tag,
    /// Actual payload carried (used for correctness).
    pub(crate) payload: Bytes,
    /// 8-byte frame head carried out-of-band, `Some` exactly for the
    /// envelopes of [`Comm::send_framed_multi`](crate::Comm::send_framed_multi).
    ///
    /// Protocol layers that prefix every message with a small fixed header
    /// (the replication channel's sequence number) would otherwise have to
    /// materialize `header ++ payload` in a fresh buffer for every send —
    /// one allocation and one full payload copy per message.  Carrying the
    /// head in the envelope instead lets all copies of a fan-out share one
    /// reference-counted payload with **zero** per-send copies.  A framed
    /// envelope is received with `Comm::recv_framed`, a plain one with the
    /// other receives; the other way round is a `TypeMismatch`.
    pub(crate) head: Option<u64>,
    /// Virtual time at which the message is fully available at the receiver:
    /// the sender charged the network model when it injected the message,
    /// for the modeled size (see `docs/ARCHITECTURE.md`, "Timing /
    /// efficiency methodology"), so the envelope carries only the result.
    pub(crate) arrival: SimTime,
}

impl Envelope {
    /// The `(communicator, source, tag)` mailbox lane this envelope queues
    /// in.  Envelopes of one lane are delivered and consumed strictly FIFO
    /// (MPI's non-overtaking guarantee); the router keeps one indexed queue
    /// per lane.
    pub(crate) fn lane_key(&self) -> LaneKey {
        (self.comm, self.src_world, self.tag)
    }
}

/// A mailbox lane identifier: `(communicator, source world rank, tag)`.
/// Every envelope belongs to exactly one lane (see [`Envelope::lane_key`]),
/// and every thread-world receive names exactly one: replication needs
/// send-deterministic programs, whose receives all name their source.
pub(crate) type LaneKey = (CommId, usize, Tag);

#[cfg(test)]
mod tests {
    use super::*;

    fn env(src: usize, comm: CommId, tag: Tag) -> Envelope {
        Envelope {
            src_world: src,
            dst_world: 0,
            comm,
            tag,
            payload: Bytes::new(),
            head: None,
            arrival: SimTime::ZERO,
        }
    }

    #[test]
    fn exact_match() {
        assert_eq!(env(2, 7, 5).lane_key(), (7, 2, 5));
    }

    #[test]
    fn comm_must_match() {
        assert_ne!(env(2, 7, 5).lane_key(), (8, 2, 5));
    }
}
