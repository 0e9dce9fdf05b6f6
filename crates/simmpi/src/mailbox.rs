//! Indexed mailbox state of the thread world's router.
//!
//! [`MailboxState`] implements the matching semantics of one mailbox:
//! envelopes queue in per-`(communicator, source, tag)` FIFO lanes, each
//! stamped with an arrival id at [`push`](MailboxState::push).  An exact
//! receive (explicit source and tag) is a single lane lookup plus a pop —
//! O(1) amortized regardless of how many unrelated messages are queued —
//! while a wildcard receive scans the lanes.
//!
//! Matching is in **delivery order** (the order the envelopes were pushed):
//! with one OS thread per rank, delivery order is the natural analogue of a
//! flat mailbox scan.  Arrival ids are assigned in delivery order and each
//! lane's ids are strictly increasing, so the
//! earliest-delivered match is simply the matching lane front with the
//! smallest id.  Keeping *only* the lanes (no auxiliary delivery-order
//! index) makes a push a single map operation — the fabric's per-copy hot
//! path — at the cost of an O(lanes) scan per wildcard receive, which
//! profiling shows is the right trade: exact receives outnumber wildcards by
//! orders of magnitude in every workload in this repository.
//!
//! The event-driven engine ([`crate::engine`]) does not queue here: its
//! messages carry no payload and its inboxes stay a dozen messages deep, so
//! it keeps a flat queue of its own and matches wildcards in virtual arrival
//! order instead.

use crate::fxhash::FxBuildHasher;
use crate::message::{Envelope, LaneKey, MatchSelector};
use std::collections::{HashMap, VecDeque};

/// The matching core of one mailbox.  Not synchronized: the router wraps it
/// in a mutex/condvar pair.
#[derive(Default)]
pub(crate) struct MailboxState {
    /// Per-`(comm, src, tag)` FIFO lanes.  Values are `(arrival id,
    /// envelope)`; arrival ids are monotone within the mailbox, so a lane's
    /// ids are strictly increasing front to back.
    lanes: HashMap<LaneKey, VecDeque<(u64, Envelope)>, FxBuildHasher>,
    /// Next arrival id.
    next_arrival: u64,
    /// Number of envelopes currently queued.
    queued: usize,
}

impl MailboxState {
    /// Queues an envelope at the back of its lane, stamped with the next
    /// arrival id.
    pub(crate) fn push(&mut self, env: Envelope) {
        let id = self.next_arrival;
        self.next_arrival += 1;
        self.lanes
            .entry(env.lane_key())
            .or_default()
            .push_back((id, env));
        self.queued += 1;
    }

    /// Number of envelopes currently queued.
    pub(crate) fn queued(&self) -> usize {
        self.queued
    }

    /// True if an envelope matching `sel` is queued.
    pub(crate) fn has_match(&self, sel: &MatchSelector) -> bool {
        self.lanes.keys().any(|key| sel.matches_lane(key))
    }

    /// Pops the front envelope of one lane, dropping the lane once empty so
    /// the map does not accumulate dead `(comm, src, tag)` combinations.
    fn pop_lane(&mut self, key: &LaneKey) -> Option<Envelope> {
        let lane = self.lanes.get_mut(key)?;
        let (_, env) = lane.pop_front()?;
        if lane.is_empty() {
            self.lanes.remove(key);
        }
        self.queued -= 1;
        Some(env)
    }

    /// Removes and returns the earliest-**delivered** envelope matching
    /// `sel`, if any — the same envelope a front-to-back scan of a flat
    /// mailbox queue would select.
    pub(crate) fn take_match(&mut self, sel: &MatchSelector) -> Option<Envelope> {
        if let Some(key) = sel.exact_lane() {
            // Fully determined selector: the match, if any, is the lane
            // front (lanes are FIFO in delivery order).
            return self.pop_lane(&key);
        }
        // Wildcard: the earliest-delivered match is the matching lane front
        // with the smallest arrival id (ids are assigned in delivery order).
        let best = self
            .lanes
            .iter()
            .filter(|(key, _)| sel.matches_lane(key))
            .filter_map(|(key, lane)| lane.front().map(|&(id, _)| (id, *key)))
            .min_by_key(|&(id, _)| id)
            .map(|(_, key)| key)?;
        self.pop_lane(&best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use simcluster::SimTime;

    fn env_at(src: usize, arrival: f64) -> Envelope {
        Envelope {
            src_world: src,
            dst_world: 0,
            comm: 9,
            tag: 5,
            payload: Bytes::new(),
            head: None,
            modeled_bytes: 0,
            arrival: SimTime::from_secs(arrival),
            seq: 0,
        }
    }

    /// The router's discipline is delivery order even when virtual arrival
    /// order disagrees (the engine's inbox makes the opposite choice).
    #[test]
    fn wildcard_matches_in_delivery_order_not_arrival_order() {
        // Lane (src 1) delivered first but arrives later than lane (src 0).
        let mut mb = MailboxState::default();
        mb.push(env_at(1, 3.0));
        mb.push(env_at(0, 1.0));
        let any = MatchSelector {
            comm: 9,
            src_world: None,
            tag: None,
        };
        assert_eq!(mb.take_match(&any).unwrap().src_world, 1);
        assert_eq!(mb.take_match(&any).unwrap().src_world, 0);
        assert_eq!(mb.queued(), 0);
    }
}
