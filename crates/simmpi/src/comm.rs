//! Communicators and point-to-point communication.
//!
//! A [`Comm`] is a group of physical processes with a private communication
//! context.  The world communicator contains every process;
//! [`Comm::split_by`] derives sub-communicators with deterministic, globally
//! consistent identifiers (all members perform the same sequence of
//! collective calls, as MPI requires, so they derive the same ids without
//! any exchange).
//!
//! Point-to-point operations follow MPI semantics: standard-mode sends are
//! buffered (they complete locally once the payload has been handed to the
//! "NIC"), every receive names one `(communicator, source, tag)` lane (the
//! programs replication supports are send-deterministic, so none needs
//! `MPI_ANY_SOURCE`), and message order is non-overtaking per lane.

use crate::datatype::{self, Pod};
use crate::error::{MpiError, MpiResult};
use crate::message::{CommId, Envelope, LaneKey, Tag, RESERVED_TAG_BASE};
use crate::proc::ProcCore;
use crate::request::SendRequest;
use bytes::Bytes;
use simcluster::SimTime;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifier of the world communicator.
pub const WORLD_COMM_ID: CommId = 1;

fn mix(a: u64, b: u64, c: u64) -> u64 {
    // SplitMix64-style mixing of (parent id, split counter, color) so every
    // member of a split derives the same child id without communication.
    let mut x = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(c.wrapping_mul(0x94D0_49BB_1331_11EB));
    x ^= x >> 31;
    x = x.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    x ^= x >> 29;
    x | 0x2 // never collide with WORLD_COMM_ID
}

/// A communicator: an ordered group of physical processes plus a private
/// matching context.
#[derive(Clone)]
pub struct Comm {
    core: Arc<ProcCore>,
    id: CommId,
    /// Communicator rank -> world rank.
    group: Arc<Vec<usize>>,
    /// This process's rank within the communicator.
    my_rank: usize,
    /// Per-process counter of collective operations on this communicator
    /// (all members stay in lockstep because collectives are collective).
    coll_seq: Arc<AtomicU64>,
    /// Per-process counter of split operations on this communicator.
    child_seq: Arc<AtomicU64>,
}

impl Comm {
    /// Builds the world communicator for a process.
    pub(crate) fn world(core: Arc<ProcCore>) -> Self {
        let n = core.num_procs;
        let rank = core.world_rank;
        Comm {
            core,
            id: WORLD_COMM_ID,
            group: Arc::new((0..n).collect()),
            my_rank: rank,
            coll_seq: Arc::new(AtomicU64::new(0)),
            child_seq: Arc::new(AtomicU64::new(0)),
        }
    }

    /// This process's rank within the communicator.
    pub fn rank(&self) -> usize {
        self.my_rank
    }

    /// Number of processes in the communicator.
    pub fn size(&self) -> usize {
        self.group.len()
    }

    /// The underlying per-process core (used by higher layers for timing).
    pub(crate) fn core(&self) -> &Arc<ProcCore> {
        &self.core
    }

    fn validate_rank(&self, r: usize) -> MpiResult<()> {
        if r < self.size() {
            Ok(())
        } else {
            Err(MpiError::InvalidRank {
                rank: r,
                size: self.size(),
            })
        }
    }

    fn validate_tag(tag: Tag) -> MpiResult<()> {
        if tag < RESERVED_TAG_BASE {
            Ok(())
        } else {
            Err(MpiError::InvalidCommunicator(format!(
                "application tag {tag} is in the reserved range"
            )))
        }
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Internal send of raw bytes on this communicator (used by collectives
    /// with reserved tags, hence no tag validation).
    pub(crate) fn send_bytes(
        &self,
        payload: Bytes,
        modeled_bytes: usize,
        dest: usize,
        tag: Tag,
    ) -> MpiResult<SendRequest> {
        self.validate_rank(dest)?;
        self.core.check_alive()?;
        let dst_world = self.group[dest];
        let (arrival, inject_done) = self.core.inject(modeled_bytes, dst_world);
        let env = Envelope {
            src_world: self.core.world_rank,
            dst_world,
            comm: self.id,
            tag,
            payload,
            head: None,
            arrival,
        };
        self.core.router.deliver(env);
        Ok(SendRequest::new(inject_done))
    }

    /// Sends one pre-serialized payload with an out-of-band 8-byte frame
    /// head to several destinations (the replica fan-out of the replication
    /// layer).
    ///
    /// Logically sends `head.to_le_bytes() ++ payload` to every destination,
    /// but carries the head out of band in the envelope so the
    /// shared payload buffer is never rewritten: a protocol that stamps a
    /// per-message sequence number onto an otherwise reused buffer performs
    /// zero payload copies per send.  Each destination's envelope clones the
    /// payload handle (for inline payloads a bounded memcpy, never an
    /// allocation).  Bit-identical in virtual time with one send per
    /// destination in order, but with the per-send fixed costs paid once:
    /// one rank/tag/liveness validation and one clock acquisition.  Receive
    /// with [`Comm::recv_framed`]; `modeled_bytes` must already include the
    /// head (the wire carries it).
    pub fn send_framed_multi(
        &self,
        head: u64,
        payload: &Bytes,
        dests: &[usize],
        tag: Tag,
        modeled_bytes: usize,
    ) -> MpiResult<()> {
        Self::validate_tag(tag)?;
        for &d in dests {
            self.validate_rank(d)?;
        }
        self.core.check_alive()?;
        // Inject per copy — each replica occupies the sending channel in
        // turn, exactly as the one-send-per-destination loop would, so every
        // arrival timestamp is unchanged — but under a single clock
        // acquisition.
        let mut world_buf = [0usize; 8];
        let mut world_vec;
        let dst_worlds: &mut [usize] = if dests.len() <= world_buf.len() {
            &mut world_buf[..dests.len()]
        } else {
            world_vec = vec![0usize; dests.len()];
            &mut world_vec[..]
        };
        for (w, &d) in dst_worlds.iter_mut().zip(dests.iter()) {
            *w = self.group[d];
        }
        let mut arr_buf = [SimTime::ZERO; 8];
        let mut arr_vec;
        let arrivals: &mut [SimTime] = if dests.len() <= arr_buf.len() {
            &mut arr_buf[..dests.len()]
        } else {
            arr_vec = vec![SimTime::ZERO; dests.len()];
            &mut arr_vec[..]
        };
        self.core.inject_multi(modeled_bytes, dst_worlds, arrivals);
        for (&dst_world, &arrival) in dst_worlds.iter().zip(arrivals.iter()) {
            let env = Envelope {
                src_world: self.core.world_rank,
                dst_world,
                comm: self.id,
                tag,
                payload: payload.clone(),
                head: Some(head),
                arrival,
            };
            self.core.router.deliver(env);
        }
        Ok(())
    }

    /// Blocking standard-mode send of a typed slice.
    ///
    /// The send is buffered: it returns once the payload has been handed to
    /// the NIC; the sender's clock is charged the per-message overhead while
    /// the serialization occupies the NIC in the background.
    pub fn send<T: Pod>(&self, buf: &[T], dest: usize, tag: Tag) -> MpiResult<()> {
        Self::validate_tag(tag)?;
        let bytes = datatype::to_payload(buf);
        let modeled = bytes.len();
        self.send_bytes(bytes, modeled, dest, tag)?;
        Ok(())
    }

    /// Non-blocking send that charges the network model for `modeled_bytes`
    /// instead of the actual payload size (paper-scale experiments run the
    /// protocol on reduced arrays, see `docs/ARCHITECTURE.md`).  Sends are
    /// buffered, so the payload may be reused at once; the returned request
    /// completes when the NIC has finished injecting the message
    /// ([`Comm::waitall_send`]).  Drop it for a blocking send.
    pub fn isend_with_modeled_size<T: Pod>(
        &self,
        buf: &[T],
        dest: usize,
        tag: Tag,
        modeled_bytes: usize,
    ) -> MpiResult<SendRequest> {
        Self::validate_tag(tag)?;
        let bytes = datatype::to_payload(buf);
        self.send_bytes(bytes, modeled_bytes, dest, tag)
    }

    /// Waits for all send requests: the sender's clock advances, request by
    /// request, to the point where the NIC finished injecting each message.
    pub fn waitall_send(&self, reqs: Vec<SendRequest>) -> MpiResult<()> {
        let mut endpoint = self.core.endpoint.lock();
        for r in reqs {
            endpoint.clock.wait_until(r.completion_time());
        }
        Ok(())
    }

    /// The mailbox lane of a receive from communicator rank `src`.
    fn lane(&self, src: usize, tag: Tag) -> MpiResult<LaneKey> {
        self.validate_rank(src)?;
        Ok((self.id, self.group[src], tag))
    }

    /// Takes the next envelope of lane `key` off this rank's mailbox,
    /// blocking until there is one, and charges its arrival to the clock.
    fn take(&self, key: &LaneKey) -> MpiResult<Envelope> {
        self.core.check_alive()?;
        let env = self.core.router.recv_blocking(self.core.world_rank, key)?;
        self.core.complete_recv(env.arrival, env.src_world);
        Ok(env)
    }

    /// Internal blocking receive of raw bytes (used by collectives with
    /// reserved tags, hence no tag validation).  A framed message on the
    /// lane is a [`MpiError::TypeMismatch`] (no sender produces one for a
    /// plain receive).
    pub(crate) fn recv_bytes(&self, src: usize, tag: Tag) -> MpiResult<Bytes> {
        let env = self.take(&self.lane(src, tag)?)?;
        match env.head {
            None => Ok(env.payload),
            Some(_) => Err(MpiError::TypeMismatch {
                bytes: 8 + env.payload.len(),
                elem_size: 8,
            }),
        }
    }

    /// Blocking receive of a raw payload from communicator rank `src`.
    ///
    /// Returns the payload as reference-counted [`Bytes`] — the receiver
    /// borrows the very buffer the sender serialized, so deserialization can
    /// be deferred, partial, or skipped entirely via
    /// [`crate::datatype::typed_view`].
    pub fn recv_payload(&self, src: usize, tag: Tag) -> MpiResult<Bytes> {
        Self::validate_tag(tag)?;
        self.recv_bytes(src, tag)
    }

    /// Blocking receive of a message sent with [`Comm::send_framed_multi`]:
    /// returns the 8-byte frame head and the message body separately, with
    /// zero copies.  A plain message on the lane is a
    /// [`MpiError::TypeMismatch`].
    pub fn recv_framed(&self, src: usize, tag: Tag) -> MpiResult<(u64, Bytes)> {
        Self::validate_tag(tag)?;
        let env = self.take(&self.lane(src, tag)?)?;
        match env.head {
            Some(head) => Ok((head, env.payload)),
            None => Err(MpiError::TypeMismatch {
                bytes: env.payload.len(),
                elem_size: 8,
            }),
        }
    }

    /// Blocking receive returning a freshly allocated typed vector.
    pub fn recv<T: Pod>(&self, src: usize, tag: Tag) -> MpiResult<Vec<T>> {
        Self::validate_tag(tag)?;
        datatype::from_bytes(&self.recv_bytes(src, tag)?)
    }

    // ------------------------------------------------------------------
    // Communicator management
    // ------------------------------------------------------------------

    /// Collectively splits the communicator: `f` maps every communicator
    /// rank to its `(color, key)`, and members with the caller's color form
    /// a new communicator ordered by `key` (ties broken by the parent rank).
    /// Like `MPI_Comm_split`, every member must call this, here with an
    /// equivalent function — the color table MPI exchanges internally is
    /// derived locally from it.  A one-color split is MPI's `dup`: the same
    /// group in a fresh matching context.
    pub fn split_by<F>(&self, f: F) -> MpiResult<Comm>
    where
        F: Fn(usize) -> (u64, u64),
    {
        let (my_color, _) = f(self.rank());
        let seq = self.child_seq.fetch_add(1, Ordering::Relaxed);
        let id = mix(self.id, seq, my_color);
        let mut members: Vec<(u64, usize)> = (0..self.size())
            .map(|r| (r, f(r)))
            .filter(|&(_, (c, _))| c == my_color)
            .map(|(r, (_, k))| (k, r))
            .collect();
        members.sort();
        let group: Vec<usize> = members.iter().map(|&(_, r)| self.group[r]).collect();
        let my_world = self.core.world_rank;
        let my_rank = group
            .iter()
            .position(|&w| w == my_world)
            .ok_or_else(|| MpiError::InvalidCommunicator("caller not in its own color".into()))?;
        Ok(Comm {
            core: Arc::clone(&self.core),
            id,
            group: Arc::new(group),
            my_rank,
            coll_seq: Arc::new(AtomicU64::new(0)),
            child_seq: Arc::new(AtomicU64::new(0)),
        })
    }

    /// Next reserved tag for an internal collective operation.
    pub(crate) fn next_collective_tag(&self) -> Tag {
        let seq = self.coll_seq.fetch_add(1, Ordering::Relaxed);
        RESERVED_TAG_BASE + (seq % ((u32::MAX - RESERVED_TAG_BASE) as u64)) as u32
    }
}
