//! Indexed mailbox state of the thread world's router.
//!
//! [`MailboxState`] implements the matching semantics of one mailbox:
//! envelopes queue in per-`(communicator, source, tag)` FIFO lanes, and a
//! receive names exactly one lane, so it is a single lane lookup plus a pop
//! — O(1) amortized regardless of how many unrelated messages are queued.
//! Per-lane FIFO is MPI's non-overtaking guarantee; nothing orders envelopes
//! across lanes, because no receive can observe that order.
//!
//! The event-driven engine ([`crate::engine`]) does not queue here: its
//! messages carry no payload and its inboxes stay a dozen messages deep, so
//! it keeps a flat queue of its own and scans it for the first message from
//! the named source with the named tag.

use crate::fxhash::FxBuildHasher;
use crate::message::{Envelope, LaneKey};
use std::collections::{HashMap, VecDeque};

/// The matching core of one mailbox: per-`(comm, src, tag)` FIFO lanes.
/// Not synchronized: the router wraps it in a mutex/condvar pair.  A lane is
/// dropped once drained, so the map holds no dead `(comm, src, tag)`
/// combinations and a lane present in it is never empty.
#[derive(Default)]
pub(crate) struct MailboxState {
    lanes: HashMap<LaneKey, VecDeque<Envelope>, FxBuildHasher>,
}

impl MailboxState {
    /// Queues an envelope at the back of its lane.
    pub(crate) fn push(&mut self, env: Envelope) {
        self.lanes.entry(env.lane_key()).or_default().push_back(env);
    }

    /// Number of envelopes currently queued (diagnostic; O(lanes)).
    pub(crate) fn queued(&self) -> usize {
        self.lanes.values().map(VecDeque::len).sum()
    }

    /// True if an envelope of lane `key` is queued.
    pub(crate) fn has(&self, key: &LaneKey) -> bool {
        self.lanes.contains_key(key)
    }

    /// Removes and returns the front envelope of lane `key`, if any.
    pub(crate) fn take(&mut self, key: &LaneKey) -> Option<Envelope> {
        let lane = self.lanes.get_mut(key)?;
        let env = lane.pop_front();
        if lane.is_empty() {
            self.lanes.remove(key);
        }
        env
    }
}
