//! The replicated communicator: logical channels + replica channels.
//!
//! With active replication, the application still thinks in terms of
//! *logical* MPI ranks.  On the logical channel implemented here, every
//! replica of the sending logical process sends a copy of each application
//! message to every replica of the destination logical process (copies
//! addressed to crashed replicas are dropped by the network).  Each copy
//! carries a per-channel sequence number; a receiver consumes the stream of
//! the lowest-id alive replica of the source and discards duplicates by
//! sequence number, so it can switch to another replica's stream at any
//! point after a failure without losing or re-delivering messages.  This is
//! the classic state-machine-replication messaging discipline (rMPI-style);
//! the paper's SDR-MPI optimizes the duplicate sends away using send
//! determinism, an optimization that is orthogonal to intra-parallelization
//! (the paper explicitly defers the consistency protocol to its ref. \[17\]).
//!
//! The sequence-number discipline relies on replicas emitting identical
//! message sequences per (destination, tag) channel — exactly the partial
//! (send) determinism assumption the paper makes for its applications.
//!
//! On top of the logical point-to-point channel, the one logical collective
//! the mini-applications call, the all-reduce, is a binomial reduce to
//! logical rank 0 followed by a binomial broadcast from it, so it inherits
//! the failover behaviour of the channel.
//!
//! Nothing here can ask whether a peer replica is alive: a crash is seen
//! only as the `ProcessFailed` of a receive on the crashed replica's stream.

use crate::mapping::ReplicaMapping;
use parking_lot::Mutex;
use simmpi::{Comm, FxBuildHasher, MpiError, MpiResult, Pod, Tag, RESERVED_TAG_BASE};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// First tag reserved for the replication layer's internal collectives.
/// Applications must keep their tags below this value.
const REPLICATION_TAG_BASE: Tag = RESERVED_TAG_BASE / 2;

/// Shared per-`(logical rank, tag)` sequence-number map (Fx-hashed: the
/// keys are small trusted integer tuples on the per-message hot path).
type SeqMap = Arc<Mutex<HashMap<(usize, Tag), u64, FxBuildHasher>>>;

/// Communicators and rank mapping for one physical process of a replicated
/// MPI application.
#[derive(Clone)]
pub struct ReplicatedComm {
    world: Comm,
    mapping: ReplicaMapping,
    /// All logical ranks within this process's replica set (communicator rank
    /// == logical rank).
    logical_comm: Comm,
    /// All replicas of this process's logical rank (communicator rank ==
    /// replica id).
    replica_comm: Comm,
    my_logical: usize,
    my_replica: usize,
    coll_seq: Arc<AtomicU64>,
    /// Next sequence number per outgoing (destination logical rank, tag)
    /// channel.
    send_seq: SeqMap,
    /// Next expected sequence number per incoming (source logical rank, tag)
    /// channel.
    recv_seq: SeqMap,
    /// Replica id whose stream is currently consumed, per source logical
    /// rank.  Advanced only when a receive from that replica reports
    /// `ProcessFailed` (its stream ran dry), never from a racy liveness
    /// query, so failover is deterministic in virtual time.
    src_replica: Arc<Mutex<HashMap<usize, usize, FxBuildHasher>>>,
}

impl ReplicatedComm {
    /// Builds the replicated communicator from the world communicator and a
    /// replication degree.  Every physical process must call this
    /// collectively.
    pub fn new(world: Comm, degree: usize) -> MpiResult<Self> {
        if degree == 0 {
            return Err(MpiError::InvalidCommunicator(
                "replication degree must be at least 1".into(),
            ));
        }
        if !world.size().is_multiple_of(degree) {
            return Err(MpiError::InvalidCommunicator(format!(
                "{} physical processes cannot host replicas of degree {}",
                world.size(),
                degree
            )));
        }
        let mapping = ReplicaMapping::from_physical(world.size(), degree);
        let my = world.rank();
        let my_logical = mapping.logical_of(my);
        let my_replica = mapping.replica_of(my);
        let logical_comm =
            world.split_by(|r| (mapping.replica_of(r) as u64, mapping.logical_of(r) as u64))?;
        let replica_comm =
            world.split_by(|r| (mapping.logical_of(r) as u64, mapping.replica_of(r) as u64))?;
        Ok(ReplicatedComm {
            world,
            mapping,
            logical_comm,
            replica_comm,
            my_logical,
            my_replica,
            coll_seq: Arc::new(AtomicU64::new(0)),
            send_seq: Arc::new(Mutex::new(HashMap::default())),
            recv_seq: Arc::new(Mutex::new(HashMap::default())),
            src_replica: Arc::new(Mutex::new(HashMap::default())),
        })
    }

    /// The world communicator (all physical processes).
    pub fn world(&self) -> &Comm {
        &self.world
    }

    /// Communicator over the logical ranks of this process's replica set.
    pub fn logical_comm(&self) -> &Comm {
        &self.logical_comm
    }

    /// Communicator over the replicas of this process's logical rank.  This
    /// is the "dedicated communicator" the intra-parallelization runtime uses
    /// to ship task updates.
    pub fn replica_comm(&self) -> &Comm {
        &self.replica_comm
    }

    /// Logical rank of this process (the rank the application sees).
    pub fn logical_rank(&self) -> usize {
        self.my_logical
    }

    /// Replica id of this process within its logical process.
    pub fn replica_id(&self) -> usize {
        self.my_replica
    }

    /// Number of logical processes.
    pub fn num_logical(&self) -> usize {
        self.mapping.num_logical()
    }

    /// Replication degree.
    pub fn degree(&self) -> usize {
        self.mapping.degree()
    }

    // ------------------------------------------------------------------
    // Logical point-to-point channel
    // ------------------------------------------------------------------

    /// Sends `buf` to logical process `dest_logical`.
    ///
    /// One sequence-numbered copy is sent to every replica of the
    /// destination; copies addressed to crashed replicas are dropped by the
    /// network, and the receivers discard duplicates, so the channel
    /// tolerates crash-stop failures of any subset of the replicas involved.
    pub fn send_logical<T: Pod>(&self, buf: &[T], dest_logical: usize, tag: Tag) -> MpiResult<()> {
        let modeled = std::mem::size_of_val(buf);
        self.send_logical_with_modeled_size(buf, dest_logical, tag, modeled)
    }

    /// [`ReplicatedComm::send_logical`] with an explicit modeled size charged
    /// to the network model (used by paper-scale experiments running on
    /// reduced actual arrays).
    pub fn send_logical_with_modeled_size<T: Pod>(
        &self,
        buf: &[T],
        dest_logical: usize,
        tag: Tag,
        modeled_bytes: usize,
    ) -> MpiResult<()> {
        // Serialized in one pass; sub-threshold bodies land in the payload's
        // inline representation and allocate nothing.
        let payload = simmpi::to_payload(buf);
        self.send_logical_payload(&payload, dest_logical, tag, modeled_bytes)
    }

    /// Zero-copy variant of [`ReplicatedComm::send_logical`]: sends a
    /// pre-serialized message body.
    ///
    /// This is the replicated analogue of MPI's persistent requests: an
    /// application that transmits (from) the same buffer every iteration
    /// serializes it once with [`simmpi::to_payload`] and hands the handle
    /// in here each send.  The channel's sequence number travels out-of-band
    /// in the message frame ([`simmpi::Comm::send_framed_multi`]), so a send
    /// costs no payload copy and no allocation at all — every replica copy
    /// shares the caller's buffer by reference count.  The wire-level
    /// modeled size is `modeled_bytes` plus the 8-byte frame head.
    pub fn send_logical_payload(
        &self,
        payload: &bytes::Bytes,
        dest_logical: usize,
        tag: Tag,
        modeled_bytes: usize,
    ) -> MpiResult<()> {
        if dest_logical >= self.num_logical() {
            return Err(MpiError::InvalidRank {
                rank: dest_logical,
                size: self.num_logical(),
            });
        }
        let seq = {
            let mut seqs = self.send_seq.lock();
            let entry = seqs.entry((dest_logical, tag)).or_insert(0);
            let s = *entry;
            *entry += 1;
            s
        };
        // One copy goes to *every* replica of the destination, alive or not:
        // the sender has no failure detector, so it must not consult the
        // (real-time-racy) failure board — doing so would make the charged
        // send time depend on thread scheduling.  Copies addressed to
        // crashed replicas are dropped by the network.  The copies share the
        // single framed buffer by reference count: the replica fan-out
        // performs O(1) payload allocations, not O(degree), and the whole
        // group goes through one batched router visit.
        let degree = self.degree();
        let mut dest_buf = [0usize; 8];
        let mut dest_vec;
        let dests: &mut [usize] = if degree <= dest_buf.len() {
            &mut dest_buf[..degree]
        } else {
            dest_vec = vec![0usize; degree];
            &mut dest_vec[..]
        };
        for (r, d) in dests.iter_mut().enumerate() {
            *d = self.mapping.physical_of(dest_logical, r);
        }
        self.world
            .send_framed_multi(seq, payload, dests, tag, modeled_bytes + 8)?;
        Ok(())
    }

    /// Receives the next message on the (source logical rank, tag) channel.
    ///
    /// The stream of one replica of the source is consumed, starting from
    /// replica 0; when a receive on that stream reports `ProcessFailed` (the
    /// replica crashed before sending the next expected message), the
    /// receiver fails over permanently to the next replica id.  Stale
    /// duplicates (already delivered through the previous replica's stream)
    /// are discarded by sequence number.  Failover is driven purely by the
    /// message streams — never by a real-time liveness query — so the
    /// virtual-time behaviour is deterministic.
    pub fn recv_logical<T: Pod>(&self, src_logical: usize, tag: Tag) -> MpiResult<Vec<T>> {
        let body = self.recv_logical_payload(src_logical, tag)?;
        simmpi::from_bytes(&body)
    }

    /// Zero-copy variant of [`ReplicatedComm::recv_logical`]: returns the
    /// message body as reference-counted bytes borrowing the very buffer the
    /// sender serialized (the 8-byte sequence frame is already stripped).
    /// Use [`simmpi::typed_view`] to read it as a typed slice without
    /// materializing a vector; the deserializing wrapper above is the
    /// convenience path.
    pub fn recv_logical_payload(&self, src_logical: usize, tag: Tag) -> MpiResult<bytes::Bytes> {
        if src_logical >= self.num_logical() {
            return Err(MpiError::InvalidRank {
                rank: src_logical,
                size: self.num_logical(),
            });
        }
        let expected = *self.recv_seq.lock().entry((src_logical, tag)).or_insert(0);
        loop {
            let src_replica = *self.src_replica.lock().entry(src_logical).or_insert(0);
            if src_replica >= self.degree() {
                // Every replica's stream ran dry: the logical process is gone.
                return Err(MpiError::ProcessFailed {
                    rank: self.mapping.physical_of(src_logical, self.degree() - 1),
                });
            }
            let phys = self.mapping.physical_of(src_logical, src_replica);
            let (seq, body) = match self.world.recv_framed(phys, tag) {
                Ok(framed) => framed,
                // The consumed stream ran dry mid-wait: fail over to the
                // next replica id (or error out once none is left).
                Err(MpiError::ProcessFailed { .. }) => {
                    let mut preferred = self.src_replica.lock();
                    let entry = preferred.entry(src_logical).or_insert(0);
                    if *entry == src_replica {
                        *entry += 1;
                    }
                    continue;
                }
                Err(e) => return Err(e),
            };
            if seq < expected {
                // Duplicate of a message already delivered through another
                // replica's stream: discard and keep looking.
                continue;
            }
            debug_assert_eq!(
                seq, expected,
                "gap in replicated channel: replicas are not send-deterministic"
            );
            self.recv_seq
                .lock()
                .insert((src_logical, tag), expected + 1);
            return Ok(body);
        }
    }

    // ------------------------------------------------------------------
    // Logical collectives (built on the logical channel)
    // ------------------------------------------------------------------

    fn next_coll_tag(&self) -> Tag {
        let seq = self.coll_seq.fetch_add(1, Ordering::Relaxed);
        REPLICATION_TAG_BASE
            + (seq % ((RESERVED_TAG_BASE - REPLICATION_TAG_BASE - 1) as u64)) as u32
    }

    /// Broadcast of `buf` from logical rank 0 over the logical processes
    /// (binomial tree on the logical channel).
    fn logical_bcast<T: Pod>(&self, buf: &mut Vec<T>) -> MpiResult<()> {
        let size = self.num_logical();
        let rank = self.my_logical;
        if size <= 1 {
            return Ok(());
        }
        let tag = self.next_coll_tag();
        let mut mask = 1usize;
        while mask < size {
            if rank & mask != 0 {
                *buf = self.recv_logical::<T>(rank - mask, tag)?;
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            if rank + mask < size {
                self.send_logical::<T>(buf, rank + mask, tag)?;
            }
            mask >>= 1;
        }
        Ok(())
    }

    /// Element-wise all-reduce over the logical processes (binomial reduce to
    /// logical rank 0 followed by a broadcast, both on the logical channel).
    fn logical_allreduce<T: Pod, F>(&self, data: &[T], op: F) -> MpiResult<Vec<T>>
    where
        F: Fn(T, T) -> T,
    {
        let size = self.num_logical();
        let rank = self.my_logical;
        let tag = self.next_coll_tag();
        let mut acc: Vec<T> = data.to_vec();
        let mut mask = 1usize;
        while mask < size {
            if rank & mask == 0 {
                let src = rank | mask;
                if src < size {
                    let incoming = self.recv_logical::<T>(src, tag)?;
                    if incoming.len() != acc.len() {
                        return Err(MpiError::TypeMismatch {
                            bytes: incoming.len() * T::SIZE,
                            elem_size: T::SIZE,
                        });
                    }
                    for (a, b) in acc.iter_mut().zip(incoming) {
                        *a = op(*a, b);
                    }
                }
            } else {
                let dst = rank & !mask;
                self.send_logical::<T>(&acc, dst, tag)?;
                break;
            }
            mask <<= 1;
        }
        self.logical_bcast(&mut acc)?;
        Ok(acc)
    }

    /// Sum all-reduce of one `f64` over the logical processes.
    pub fn logical_allreduce_sum_f64(&self, value: f64) -> MpiResult<f64> {
        Ok(self.logical_allreduce(&[value], |a, b| a + b)?[0])
    }
}
