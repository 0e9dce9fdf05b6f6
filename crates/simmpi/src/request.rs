//! Non-blocking operation handles.
//!
//! Requests are deliberately lightweight: a send request remembers the
//! virtual time at which the local NIC finishes injecting the message, and a
//! receive request remembers the mailbox lane it will take from.
//! `Comm::wait_*` takes them by value, so a request cannot be waited on
//! twice.

use crate::message::LaneKey;
use simcluster::SimTime;

/// Handle for a pending (non-blocking) send.
#[derive(Debug)]
pub struct SendRequest {
    complete_at: SimTime,
}

impl SendRequest {
    pub(crate) fn new(complete_at: SimTime) -> Self {
        SendRequest { complete_at }
    }

    /// Virtual time at which the send completes locally.
    pub fn completion_time(&self) -> SimTime {
        self.complete_at
    }
}

/// Handle for a pending (non-blocking) receive.
#[derive(Debug)]
pub struct RecvRequest {
    lane: LaneKey,
}

impl RecvRequest {
    pub(crate) fn new(lane: LaneKey) -> Self {
        RecvRequest { lane }
    }

    /// The `(communicator, source world rank, tag)` lane this request
    /// receives from.
    pub fn selector(&self) -> &LaneKey {
        &self.lane
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_request_reports_completion_time() {
        let r = SendRequest::new(SimTime::from_secs(2.0));
        assert_eq!(r.completion_time().as_secs(), 2.0);
    }

    #[test]
    fn recv_request_carries_selector() {
        let r = RecvRequest::new((3, 1, 7));
        assert_eq!(*r.selector(), (3, 1, 7));
    }
}
