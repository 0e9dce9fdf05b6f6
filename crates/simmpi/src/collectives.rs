//! Collective operations.
//!
//! The mini-applications of the paper need barriers, broadcasts, reductions,
//! all-reductions (HPCCG's `ddot`), gathers and scatters.  They are built on
//! the point-to-point layer with the classic binomial-tree / dissemination
//! algorithms, so their virtual-time cost scales as `O(log p)` rounds like a
//! production MPI.
//!
//! Every collective call consumes one reserved tag from the communicator's
//! collective sequence; since collectives are called in the same order by
//! every member (an MPI requirement), consecutive collectives can never
//! interfere even when some ranks run ahead of others.
//!
//! ## Host-side copy discipline
//!
//! Payloads move through the fabric as reference-counted [`Bytes`], so the
//! collectives serialize each distinct buffer exactly once per rank:
//! * `bcast` forwards the *received* payload handle to its children instead
//!   of re-serializing the deserialized buffer at every hop;
//! * `reduce` keeps one accumulation buffer and combines incoming payloads
//!   through a borrowed typed view ([`crate::datatype::typed_view`]) when
//!   alignment allows, falling back to one deserialization copy otherwise;
//! * `gather` decodes each received part directly into the assembly buffer;
//! * `scatter` serializes the root's buffer once and sends zero-copy
//!   sub-slices of that single allocation.
//!
//! None of this changes what is sent or when — payload sizes, message
//! counts and modeled bytes are identical to a copy-per-hop implementation,
//! so virtual-time results are unaffected.

use crate::comm::Comm;
use crate::datatype::{self, Pod};
use crate::error::{MpiError, MpiResult};
use crate::message::Tag;
use bytes::Bytes;

impl Comm {
    fn coll_send<T: Pod>(&self, buf: &[T], dest: usize, tag: Tag) -> MpiResult<()> {
        let bytes = Bytes::from(datatype::to_bytes(buf));
        let modeled = bytes.len();
        self.send_bytes(bytes, modeled, dest, tag)?;
        Ok(())
    }

    fn coll_send_payload(&self, payload: Bytes, dest: usize, tag: Tag) -> MpiResult<()> {
        let modeled = payload.len();
        self.send_bytes(payload, modeled, dest, tag)?;
        Ok(())
    }

    fn coll_recv<T: Pod>(&self, src: usize, tag: Tag) -> MpiResult<Vec<T>> {
        datatype::from_bytes(&self.recv_bytes(src, tag)?)
    }

    /// Synchronizes all members (dissemination algorithm, `ceil(log2 p)`
    /// rounds).
    pub fn barrier(&self) -> MpiResult<()> {
        let tag = self.next_collective_tag();
        let size = self.size();
        let rank = self.rank();
        if size <= 1 {
            return Ok(());
        }
        let mut step = 1usize;
        while step < size {
            let to = (rank + step) % size;
            let from = (rank + size - step) % size;
            self.coll_send::<u8>(&[1], to, tag)?;
            let _ = self.coll_recv::<u8>(from, tag)?;
            step <<= 1;
        }
        Ok(())
    }

    /// Broadcasts `buf` from `root` to every member (binomial tree).  On
    /// non-root ranks the buffer is overwritten with the root's data; it must
    /// already have the correct length.
    ///
    /// The payload is serialized exactly once (by the root); every
    /// intermediate rank forwards the received `Bytes` handle to its
    /// children, so an `O(log p)`-deep tree performs `O(1)` serializations
    /// total instead of one per hop.
    pub fn bcast<T: Pod>(&self, buf: &mut Vec<T>, root: usize) -> MpiResult<()> {
        let size = self.size();
        let rank = self.rank();
        if root >= size {
            return Err(MpiError::InvalidRank { rank: root, size });
        }
        if size <= 1 {
            return Ok(());
        }
        let tag = self.next_collective_tag();
        let vrank = (rank + size - root) % size;

        // Receive phase: find the bit where a parent sends to us.  Non-root
        // ranks keep the received payload handle for zero-copy forwarding.
        let mut payload: Option<Bytes> = None;
        let mut mask = 1usize;
        while mask < size {
            if vrank & mask != 0 {
                let src = (vrank - mask + root) % size;
                let incoming = self.recv_bytes(src, tag)?;
                *buf = datatype::from_bytes(&incoming)?;
                payload = Some(incoming);
                break;
            }
            mask <<= 1;
        }
        // Send phase: forward to children on every bit below the one where
        // we received (for the root, below the highest bit reached).
        mask >>= 1;
        if mask > 0 && payload.is_none() {
            // Root with at least one child: serialize once.
            payload = Some(Bytes::from(datatype::to_bytes(buf)));
        }
        while mask > 0 {
            if vrank + mask < size {
                let dst = (vrank + mask + root) % size;
                let p = payload.clone().expect("payload exists when children do");
                self.coll_send_payload(p, dst, tag)?;
            }
            mask >>= 1;
        }
        Ok(())
    }

    /// Element-wise reduction of `data` onto `root` using `op` (binomial
    /// tree).  Returns `Some(result)` on the root and `None` elsewhere.
    ///
    /// One accumulation buffer is reused across all combine steps; incoming
    /// contributions are combined through a borrowed typed view of the
    /// received payload when alignment allows, so a combine step allocates
    /// nothing.
    pub fn reduce<T: Pod, F>(&self, data: &[T], root: usize, op: F) -> MpiResult<Option<Vec<T>>>
    where
        F: Fn(T, T) -> T,
    {
        let size = self.size();
        let rank = self.rank();
        if root >= size {
            return Err(MpiError::InvalidRank { rank: root, size });
        }
        let tag = self.next_collective_tag();
        let vrank = (rank + size - root) % size;
        let mut acc: Vec<T> = data.to_vec();

        let mut mask = 1usize;
        while mask < size {
            if vrank & mask == 0 {
                let src_v = vrank | mask;
                if src_v < size {
                    let src = (src_v + root) % size;
                    let incoming = self.recv_bytes(src, tag)?;
                    if incoming.len() != acc.len() * T::SIZE {
                        return Err(MpiError::TypeMismatch {
                            bytes: incoming.len(),
                            elem_size: T::SIZE,
                        });
                    }
                    match datatype::typed_view::<T>(&incoming) {
                        Some(view) => {
                            for (a, &b) in acc.iter_mut().zip(view) {
                                *a = op(*a, b);
                            }
                        }
                        None => {
                            let values = datatype::from_bytes::<T>(&incoming)?;
                            for (a, b) in acc.iter_mut().zip(values) {
                                *a = op(*a, b);
                            }
                        }
                    }
                    // Charge the combine loop: one flop-equivalent per
                    // element, reading both operands and writing one.
                    self.core()
                        .charge_compute(acc.len() as f64, (acc.len() * 3 * T::SIZE) as f64);
                }
            } else {
                let dst_v = vrank & !mask;
                let dst = (dst_v + root) % size;
                self.coll_send::<T>(&acc, dst, tag)?;
                break;
            }
            mask <<= 1;
        }
        if rank == root {
            Ok(Some(acc))
        } else {
            Ok(None)
        }
    }

    /// Element-wise all-reduction: every member receives the reduction of all
    /// contributions (reduce to rank 0 followed by a broadcast).
    pub fn allreduce<T: Pod, F>(&self, data: &[T], op: F) -> MpiResult<Vec<T>>
    where
        F: Fn(T, T) -> T,
    {
        let reduced = self.reduce(data, 0, op)?;
        let mut buf = reduced.unwrap_or_else(|| data.to_vec());
        self.bcast(&mut buf, 0)?;
        Ok(buf)
    }

    /// Sum all-reduction of one `f64` (the reduction HPCCG's `ddot` needs).
    pub fn allreduce_sum_f64(&self, value: f64) -> MpiResult<f64> {
        Ok(self.allreduce(&[value], |a, b| a + b)?[0])
    }

    /// Max all-reduction of one `f64`.
    pub fn allreduce_max_f64(&self, value: f64) -> MpiResult<f64> {
        Ok(self.allreduce(&[value], f64::max)?[0])
    }

    /// Sum all-reduction of one `u64`.
    pub fn allreduce_sum_u64(&self, value: u64) -> MpiResult<u64> {
        Ok(self.allreduce(&[value], |a, b| a + b)?[0])
    }

    /// Gathers equally sized contributions onto `root` in rank order.
    /// Returns `Some(concatenated)` on the root and `None` elsewhere.
    ///
    /// Received parts are decoded straight into the assembly buffer — no
    /// temporary per-part vector.
    pub fn gather<T: Pod>(&self, data: &[T], root: usize) -> MpiResult<Option<Vec<T>>> {
        let size = self.size();
        let rank = self.rank();
        if root >= size {
            return Err(MpiError::InvalidRank { rank: root, size });
        }
        let tag = self.next_collective_tag();
        if rank == root {
            let mut out = Vec::with_capacity(data.len() * size);
            for r in 0..size {
                if r == rank {
                    out.extend_from_slice(data);
                } else {
                    let part = self.recv_bytes(r, tag)?;
                    datatype::extend_from_bytes(&part, &mut out)?;
                }
            }
            Ok(Some(out))
        } else {
            self.coll_send(data, root, tag)?;
            Ok(None)
        }
    }

    /// All-gather: every member receives the concatenation of all
    /// contributions in rank order.
    pub fn allgather<T: Pod>(&self, data: &[T]) -> MpiResult<Vec<T>> {
        let gathered = self.gather(data, 0)?;
        let mut buf = gathered.unwrap_or_default();
        if self.rank() != 0 {
            buf = Vec::new();
        }
        self.bcast(&mut buf, 0)?;
        Ok(buf)
    }

    /// Scatters `size()` equally sized chunks from `root`.  `chunks` is only
    /// read on the root and must contain `size() * chunk_len` elements.
    ///
    /// The root serializes the whole buffer once and every child receives a
    /// zero-copy sub-slice of that single allocation (this removes the
    /// chunk-copy-then-serialize double copy of the flat implementation).
    pub fn scatter<T: Pod>(
        &self,
        chunks: Option<&[T]>,
        chunk_len: usize,
        root: usize,
    ) -> MpiResult<Vec<T>> {
        let size = self.size();
        let rank = self.rank();
        if root >= size {
            return Err(MpiError::InvalidRank { rank: root, size });
        }
        let tag = self.next_collective_tag();
        if rank == root {
            let all = chunks.ok_or_else(|| {
                MpiError::InvalidCommunicator("scatter root must provide the data".into())
            })?;
            if all.len() != size * chunk_len {
                return Err(MpiError::InvalidCommunicator(format!(
                    "scatter data has {} elements, expected {}",
                    all.len(),
                    size * chunk_len
                )));
            }
            let payload = Bytes::from(datatype::to_bytes(all));
            let chunk_bytes = chunk_len * T::SIZE;
            for r in 0..size {
                if r != rank {
                    let slice = payload.slice(r * chunk_bytes..(r + 1) * chunk_bytes);
                    self.coll_send_payload(slice, r, tag)?;
                }
            }
            Ok(all[rank * chunk_len..(rank + 1) * chunk_len].to_vec())
        } else {
            self.coll_recv::<T>(root, tag)
        }
    }
}
