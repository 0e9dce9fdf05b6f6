//! Message envelopes.

use bytes::Bytes;
use simcluster::SimTime;

/// Identifier of a communicator, globally consistent across the processes
/// that are members of it (derived deterministically at `split`/`dup` time).
pub type CommId = u64;

/// Message tag.  Application tags must stay below [`RESERVED_TAG_BASE`];
/// larger values are reserved for internal collective operations.
pub type Tag = u32;

/// First tag value reserved for internal use (collectives).
pub const RESERVED_TAG_BASE: Tag = 1 << 30;

/// A message in flight or queued at the destination's mailbox.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// World rank of the sender.
    pub src_world: usize,
    /// World rank of the destination.
    pub dst_world: usize,
    /// Communicator the message was sent on.
    pub comm: CommId,
    /// Application or internal tag.
    pub tag: Tag,
    /// Actual payload carried (used for correctness).
    pub payload: Bytes,
    /// Optional 8-byte frame head carried out-of-band.
    ///
    /// Protocol layers that prefix every message with a small fixed header
    /// (the replication channel's sequence number) would otherwise have to
    /// materialize `header ++ payload` in a fresh buffer for every send —
    /// one allocation and one full payload copy per message.  Carrying the
    /// head in the envelope instead lets all copies of a fan-out share one
    /// reference-counted payload with **zero** per-send copies.  `None` for
    /// plain sends.  `Comm::recv_framed` splits either representation
    /// transparently; a plain `recv_payload` of a headed envelope
    /// re-materializes the contiguous frame (correctness fallback, off the
    /// hot path).
    pub head: Option<u64>,
    /// Number of bytes charged to the network model.  Usually equal to
    /// `payload.len()`, but paper-scale experiments can run the protocol on
    /// reduced actual arrays while charging the modeled size (see
    /// `docs/ARCHITECTURE.md`, "Timing / efficiency methodology").
    pub modeled_bytes: usize,
    /// Virtual time at which the message is fully available at the receiver.
    pub arrival: SimTime,
    /// Global sequence number (used only for deterministic tie-breaking and
    /// debugging).
    pub seq: u64,
}

impl Envelope {
    /// The `(communicator, source, tag)` mailbox lane this envelope queues
    /// in.  Envelopes of one lane are delivered and consumed strictly FIFO
    /// (MPI's non-overtaking guarantee); the router keeps one indexed queue
    /// per lane.
    pub fn lane_key(&self) -> LaneKey {
        (self.comm, self.src_world, self.tag)
    }

    /// True if this envelope matches the given selector.
    pub fn matches(&self, sel: &MatchSelector) -> bool {
        if self.comm != sel.comm {
            return false;
        }
        if let Some(src) = sel.src_world {
            if self.src_world != src {
                return false;
            }
        }
        if let Some(tag) = sel.tag {
            if self.tag != tag {
                return false;
            }
        }
        true
    }
}

/// A mailbox lane identifier: `(communicator, source world rank, tag)`.
/// Every envelope belongs to exactly one lane (see [`Envelope::lane_key`]).
pub type LaneKey = (CommId, usize, Tag);

/// Receiver-side matching criteria: communicator plus optional source and
/// tag wildcards (the equivalents of `MPI_ANY_SOURCE` / `MPI_ANY_TAG`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchSelector {
    /// Communicator to match on (always required).
    pub comm: CommId,
    /// World rank of the expected sender, or `None` for any source.
    pub src_world: Option<usize>,
    /// Expected tag, or `None` for any tag.
    pub tag: Option<Tag>,
}

impl MatchSelector {
    /// True if this selector is fully determined (no wildcard), i.e. it
    /// names exactly one mailbox lane.
    pub fn exact_lane(&self) -> Option<LaneKey> {
        match (self.src_world, self.tag) {
            (Some(src), Some(tag)) => Some((self.comm, src, tag)),
            _ => None,
        }
    }

    /// True if every envelope of lane `key` matches this selector (lane
    /// membership fully determines matching — the selector never inspects
    /// the payload).
    pub fn matches_lane(&self, key: &LaneKey) -> bool {
        self.comm == key.0
            && self.src_world.is_none_or(|s| s == key.1)
            && self.tag.is_none_or(|t| t == key.2)
    }
}

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
            modeled_bytes: 0,
            arrival: SimTime::ZERO,
            seq: 0,
        }
    }

    #[test]
    fn exact_match() {
        let e = env(2, 7, 5);
        assert!(e.matches(&MatchSelector {
            comm: 7,
            src_world: Some(2),
            tag: Some(5)
        }));
    }

    #[test]
    fn comm_must_match() {
        let e = env(2, 7, 5);
        assert!(!e.matches(&MatchSelector {
            comm: 8,
            src_world: None,
            tag: None
        }));
    }

    #[test]
    fn wildcards_match_anything() {
        let e = env(2, 7, 5);
        assert!(e.matches(&MatchSelector {
            comm: 7,
            src_world: None,
            tag: None
        }));
        assert!(e.matches(&MatchSelector {
            comm: 7,
            src_world: None,
            tag: Some(5)
        }));
        assert!(!e.matches(&MatchSelector {
            comm: 7,
            src_world: Some(3),
            tag: None
        }));
        assert!(!e.matches(&MatchSelector {
            comm: 7,
            src_world: Some(2),
            tag: Some(6)
        }));
    }
}
