//! Collective operations.
//!
//! The mini-applications of the paper need barriers and all-reductions
//! (HPCCG's `ddot`).  They are built on the point-to-point layer with the
//! classic dissemination / binomial-tree algorithms — an all-reduction is a
//! reduction to rank 0 followed by a broadcast from it — so their
//! virtual-time cost scales as `O(log p)` rounds like a production MPI.
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
//! * the broadcast forwards the *received* payload handle to its children
//!   instead of re-serializing the deserialized buffer at every hop;
//! * the reduction keeps one accumulation buffer and combines incoming
//!   payloads through a borrowed typed view ([`crate::datatype::typed_view`])
//!   when alignment allows, falling back to one deserialization copy
//!   otherwise.
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

    /// Broadcasts `buf` from rank 0 to every member (binomial tree).  On
    /// the other ranks the buffer is overwritten with rank 0's data.
    ///
    /// The payload is serialized exactly once (by rank 0); every
    /// intermediate rank forwards the received `Bytes` handle to its
    /// children, so an `O(log p)`-deep tree performs `O(1)` serializations
    /// total instead of one per hop.
    fn bcast<T: Pod>(&self, buf: &mut Vec<T>) -> MpiResult<()> {
        let size = self.size();
        let rank = self.rank();
        if size <= 1 {
            return Ok(());
        }
        let tag = self.next_collective_tag();

        // Receive phase: find the bit where a parent sends to us.  Non-root
        // ranks keep the received payload handle for zero-copy forwarding.
        let mut payload: Option<Bytes> = None;
        let mut mask = 1usize;
        while mask < size {
            if rank & mask != 0 {
                let incoming = self.recv_bytes(rank - mask, tag)?;
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
            if rank + mask < size {
                let p = payload.clone().expect("payload exists when children do");
                self.coll_send_payload(p, rank + mask, tag)?;
            }
            mask >>= 1;
        }
        Ok(())
    }

    /// Element-wise reduction of `data` onto rank 0 using `op` (binomial
    /// tree).  Returns the accumulation buffer, which holds the result on
    /// rank 0 and a partial one elsewhere.
    ///
    /// One accumulation buffer is reused across all combine steps; incoming
    /// contributions are combined through a borrowed typed view of the
    /// received payload when alignment allows, so a combine step allocates
    /// nothing.
    fn reduce<T: Pod, F>(&self, data: &[T], op: F) -> MpiResult<Vec<T>>
    where
        F: Fn(T, T) -> T,
    {
        let size = self.size();
        let rank = self.rank();
        let tag = self.next_collective_tag();
        let mut acc: Vec<T> = data.to_vec();

        let mut mask = 1usize;
        while mask < size {
            if rank & mask == 0 {
                let src = rank | mask;
                if src < size {
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
                self.coll_send::<T>(&acc, rank & !mask, tag)?;
                break;
            }
            mask <<= 1;
        }
        Ok(acc)
    }

    /// Element-wise all-reduction: every member receives the reduction of all
    /// contributions (reduce to rank 0 followed by a broadcast).
    pub fn allreduce<T: Pod, F>(&self, data: &[T], op: F) -> MpiResult<Vec<T>>
    where
        F: Fn(T, T) -> T,
    {
        let mut buf = self.reduce(data, op)?;
        self.bcast(&mut buf)?;
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
}
