//! Non-blocking send handles.
//!
//! A send request is deliberately lightweight: it remembers the virtual time
//! at which the local NIC finishes injecting the message.
//! [`crate::Comm::waitall_send`] takes requests by value, so a request
//! cannot be waited on twice.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_request_reports_completion_time() {
        let r = SendRequest::new(SimTime::from_secs(2.0));
        assert_eq!(r.completion_time().as_secs(), 2.0);
    }
}
