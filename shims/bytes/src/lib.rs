//! In-tree shim for `bytes`.
//!
//! The build environment has no crates.io access, so this crate provides the
//! one type the workspace uses: [`Bytes`], a cheaply-clonable immutable byte
//! buffer.  Two representations share the type:
//!
//! * **Inline** — payloads up to [`Bytes::INLINE_CAP`] bytes live directly
//!   in the value, so constructing, cloning, and dropping a small payload
//!   performs *zero* heap allocations.  This is what makes sub-threshold
//!   message sends allocation-free on the simulator's hot path.
//! * **Shared** — larger payloads are backed by `Arc<Vec<u8>>`, so `clone()`
//!   is a reference-count bump exactly like the real crate — which matters
//!   for the simulator, where a message payload is cloned once per
//!   destination replica — and `From<Vec<u8>>` *moves* the vector in without
//!   copying its bytes, exactly like the real crate's `Bytes::from(Vec<u8>)`.
//!
//! Equality, ordering, and hashing are by *content* (as in the real crate),
//! so the two representations are indistinguishable to users.

#![forbid(unsafe_code)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply-clonable immutable contiguous slice of memory.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
}

/// Backing storage of the inline representation.  Aligned to 8 bytes so a
/// freshly inlined payload (e.g. the body of a small message frame) can be
/// reinterpreted in place as `f64`/`u64` data without an alignment copy.
#[derive(Clone, Copy)]
#[repr(align(8))]
struct InlineBuf([u8; Bytes::INLINE_CAP]);

#[derive(Clone)]
enum Repr {
    /// Small payloads stored in the value itself; no heap allocation.
    Inline { len: u8, buf: InlineBuf },
    /// A reference-counted backing vector, shared by every clone.
    Shared(Arc<Vec<u8>>),
}

impl Bytes {
    /// Largest payload the inline representation holds.  Constructing a
    /// `Bytes` of at most this many bytes via [`Bytes::copy_from_slice`]
    /// allocates nothing.
    pub const INLINE_CAP: usize = 64;

    /// Creates an empty `Bytes` (no allocation).
    pub fn new() -> Self {
        Self {
            repr: Repr::Inline {
                len: 0,
                buf: InlineBuf([0; Self::INLINE_CAP]),
            },
        }
    }

    /// Creates `Bytes` by copying `data`; inline (allocation-free) when the
    /// payload fits [`Bytes::INLINE_CAP`].
    pub fn copy_from_slice(data: &[u8]) -> Self {
        if data.len() <= Self::INLINE_CAP {
            let mut buf = InlineBuf([0u8; Self::INLINE_CAP]);
            buf.0[..data.len()].copy_from_slice(data);
            Self {
                repr: Repr::Inline {
                    len: data.len() as u8,
                    buf,
                },
            }
        } else {
            Self::from_vec(data.to_vec())
        }
    }

    /// Builds a `Bytes` of exactly `len` bytes by handing `fill` a mutable,
    /// zero-initialised buffer to write, so a serializer can produce its
    /// frame in place instead of assembling a temporary vector:
    ///
    /// * `len <= INLINE_CAP` — `fill` writes the inline representation; no
    ///   heap allocation at all, and the buffer is 8-byte aligned.
    /// * anything larger — one zeroed `Vec` (a single allocation) that
    ///   becomes the shared representation without a copy.  Its alignment
    ///   is whatever the global allocator returns; callers that reinterpret
    ///   the bytes as wider elements must check it (`simmpi::typed_view`
    ///   does, and falls back to a copy).
    pub fn with_len(len: usize, fill: impl FnOnce(&mut [u8])) -> Self {
        if len <= Self::INLINE_CAP {
            let mut buf = InlineBuf([0u8; Self::INLINE_CAP]);
            fill(&mut buf.0[..len]);
            return Self {
                repr: Repr::Inline {
                    len: len as u8,
                    buf,
                },
            };
        }
        let mut v = vec![0u8; len];
        fill(&mut v);
        Self::from_vec(v)
    }

    fn from_vec(v: Vec<u8>) -> Self {
        Self {
            repr: Repr::Shared(Arc::new(v)),
        }
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Shared(data) => data.len(),
        }
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.repr {
            Repr::Inline { len, buf } => &buf.0[..*len as usize],
            Repr::Shared(data) => data,
        }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Self::from_vec(v)
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Self::copy_from_slice(s)
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(b: Box<[u8]>) -> Self {
        Self::from_vec(b.into_vec())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_ref().cmp(other.as_ref())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref() == other.as_slice()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        let v: Vec<u8> = iter.into_iter().collect();
        if v.len() <= Self::INLINE_CAP {
            Self::copy_from_slice(&v)
        } else {
            Self::from_vec(v)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_clone_shares() {
        let b = Bytes::from(vec![1u8, 2, 3, 4]);
        let c = b.clone();
        assert_eq!(b, c);
        assert_eq!(b.len(), 4);
        assert_eq!(&b[..], &[1, 2, 3, 4]);
    }

    #[test]
    fn equality_is_by_content_across_representations() {
        // An inline value and an equal-content shared view compare equal,
        // hash equal, and order consistently.
        let inline = Bytes::copy_from_slice(&[9u8, 8, 7]);
        let shared = Bytes::from(vec![9u8, 8, 7]);
        assert_eq!(inline, shared);
        assert_eq!(inline.cmp(&shared), std::cmp::Ordering::Equal);
        use std::collections::hash_map::DefaultHasher;
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        inline.hash(&mut h1);
        shared.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn inline_payloads_are_word_aligned() {
        // Typed zero-copy views over small message bodies depend on the
        // inline buffer being at least 8-byte aligned.
        for n in [1, 8, 16, Bytes::INLINE_CAP] {
            let b = Bytes::copy_from_slice(&vec![7u8; n]);
            assert_eq!(b.as_ref().as_ptr() as usize % 8, 0, "len {n}");
        }
    }

    #[test]
    fn with_len_round_trips_across_representations() {
        // Spans the inline (<= 64) and Vec-backed paths.
        for n in [0, 1, 64, 65, 1000, 100_000] {
            let b = Bytes::with_len(n, |buf| {
                for (i, x) in buf.iter_mut().enumerate() {
                    *x = (i % 251) as u8;
                }
            });
            assert_eq!(b.len(), n);
            assert!(b.iter().enumerate().all(|(i, &x)| x == (i % 251) as u8));
            let c = b.clone();
            assert_eq!(b, c);
        }
    }

    #[test]
    fn with_len_hands_fill_a_zeroed_buffer() {
        for n in [1, Bytes::INLINE_CAP, Bytes::INLINE_CAP + 1, 4096] {
            let b = Bytes::with_len(n, |buf| assert!(buf.iter().all(|&x| x == 0)));
            assert_eq!(b, vec![0u8; n]);
        }
    }

    #[test]
    fn inline_boundary_round_trips() {
        for n in [
            0,
            1,
            Bytes::INLINE_CAP - 1,
            Bytes::INLINE_CAP,
            Bytes::INLINE_CAP + 1,
            200,
        ] {
            let v: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
            let b = Bytes::copy_from_slice(&v);
            assert_eq!(b.len(), n);
            assert_eq!(b, v);
            assert_eq!(b.is_empty(), n == 0);
        }
    }
}
