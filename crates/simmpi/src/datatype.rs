//! Typed message buffers.
//!
//! MPI moves raw bytes; applications move typed arrays.  The [`Pod`] trait
//! marks the plain-old-data element types the runtime knows how to
//! (de)serialize by direct memory reinterpretation: fixed-size numeric types
//! with no padding and no invalid bit patterns.
//!
//! The `unsafe` blocks in this module are the workspace's only unsafe code
//! outside the `alloc-counter` shim.  They are sound because:
//! * `Pod` is sealed (its supertrait lives in a private module, so no other
//!   crate can implement it) and is implemented only for the numeric
//!   primitives `f64`, `f32`, `i64`, `i32`, `u64`, `u32`, `u16`, `i16`, `u8`
//!   and `usize`, all of which are valid for every bit pattern and have no
//!   padding;
//! * byte views never outlive the borrowed slice, and typed views
//!   ([`typed_view`]) are only produced when the byte buffer is aligned for
//!   `T` (checked at runtime) on little-endian targets;
//! * bulk deserialization copies raw bytes into a freshly allocated,
//!   properly aligned `Vec<T>` (or an existing `&mut [T]`), which is defined
//!   for any `Pod` type on little-endian targets regardless of the *source*
//!   buffer's alignment; the element-wise `from_le_bytes` path remains the
//!   portable fallback.

use crate::error::{MpiError, MpiResult};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of payload bytes materialized (actually copied) by the
/// conversion functions of this module.  This is the host-side copy traffic
/// of the simulator itself — *not* a virtual-time quantity — and exists purely
/// for observability: the fabric microbenchmarks (`ipr-bench::fabric`) read it
/// to report how many bytes each messaging pattern really copies, which is
/// how the zero-copy invariants of the payload path are kept honest.
static COPIED_BYTES: AtomicU64 = AtomicU64::new(0);

/// Total payload bytes copied by this module since process start (or the last
/// [`reset_copied_bytes`]).  Monotonic, process-wide, updated with relaxed
/// atomics — use only for benchmarking/diagnostics, never for protocol
/// decisions.
pub fn copied_bytes() -> u64 {
    COPIED_BYTES.load(Ordering::Relaxed)
}

/// Resets the [`copied_bytes`] counter to zero.  Benchmark harness use only.
pub fn reset_copied_bytes() {
    COPIED_BYTES.store(0, Ordering::Relaxed)
}

#[inline]
fn note_copied(bytes: usize) {
    COPIED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

mod sealed {
    /// The private supertrait that seals [`super::Pod`].
    pub trait Sealed {}
}

/// Marker trait for element types that can be shipped by reinterpreting their
/// memory.  See the module documentation for the safety argument.
///
/// The trait is sealed: [`from_bytes`], [`copy_into`] and [`typed_view`]
/// would turn arbitrary bytes into an invalid value of a type with padding or
/// invalid bit patterns, so no type outside this module may implement it.
///
/// ```compile_fail
/// #[derive(Clone, Copy)]
/// struct Padded {
///     flag: bool,
///     value: u64,
/// }
///
/// impl simmpi::Pod for Padded {
///     const SIZE: usize = 16;
///     fn write_le(&self, _out: &mut Vec<u8>) {}
///     fn read_le(_bytes: &[u8]) -> Self {
///         Padded { flag: false, value: 0 }
///     }
/// }
/// ```
pub trait Pod: sealed::Sealed + Copy + Send + Sync + 'static {
    /// Size of one element in bytes.
    const SIZE: usize;
    /// Serializes one element into little-endian bytes.
    fn write_le(&self, out: &mut Vec<u8>);
    /// Deserializes one element from little-endian bytes.
    ///
    /// # Panics
    /// Panics if `bytes.len() < Self::SIZE`; callers always slice exactly.
    fn read_le(bytes: &[u8]) -> Self;
}

macro_rules! impl_pod {
    ($($t:ty),*) => {
        $(
            impl sealed::Sealed for $t {}
            impl Pod for $t {
                const SIZE: usize = std::mem::size_of::<$t>();
                fn write_le(&self, out: &mut Vec<u8>) {
                    out.extend_from_slice(&self.to_le_bytes());
                }
                fn read_le(bytes: &[u8]) -> Self {
                    let mut buf = [0u8; std::mem::size_of::<$t>()];
                    buf.copy_from_slice(&bytes[..std::mem::size_of::<$t>()]);
                    <$t>::from_le_bytes(buf)
                }
            }
        )*
    };
}

impl_pod!(f64, f32, i64, i32, u64, u32, u16, i16, u8);

impl sealed::Sealed for usize {}
impl Pod for usize {
    const SIZE: usize = 8;
    fn write_le(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(*self as u64).to_le_bytes());
    }
    fn read_le(bytes: &[u8]) -> Self {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&bytes[..8]);
        u64::from_le_bytes(buf) as usize
    }
}

/// Serializes a typed slice into a byte vector (little-endian).
///
/// On little-endian targets with native-endian layout this is a straight
/// `memcpy`; the element-wise path is kept as the portable fallback.
pub fn to_bytes<T: Pod>(data: &[T]) -> Vec<u8> {
    // Wire size, not in-memory size: they differ for `usize` on 32-bit.
    let mut out = Vec::with_capacity(data.len() * T::SIZE);
    to_bytes_into(data, &mut out);
    out
}

/// Appends the little-endian serialization of `data` to `out`: the building
/// block behind [`to_bytes`].
fn to_bytes_into<T: Pod>(data: &[T], out: &mut Vec<u8>) {
    note_copied(data.len() * T::SIZE);
    if wire_layout_matches::<T>() {
        // SAFETY: `T: Pod` guarantees `T` is a plain numeric type valid for
        // any bit pattern with no padding; viewing its memory as bytes is
        // therefore always defined.  The view does not outlive `data`.
        let bytes: &[u8] = unsafe {
            std::slice::from_raw_parts(data.as_ptr().cast::<u8>(), std::mem::size_of_val(data))
        };
        out.extend_from_slice(bytes);
    } else {
        out.reserve(data.len() * T::SIZE);
        for x in data {
            x.write_le(out);
        }
    }
}

/// Serializes a typed slice directly into a payload [`bytes::Bytes`] with one
/// copy: [`bytes::Bytes::with_len`] hands out the inline representation when
/// the wire size fits [`bytes::Bytes::INLINE_CAP`] — *zero* heap allocations
/// for the whole send-side payload path — and one buffer that becomes the
/// payload without a further copy otherwise.
pub fn to_payload<T: Pod>(data: &[T]) -> bytes::Bytes {
    if !wire_layout_matches::<T>() {
        // Portable element-wise fallback (big-endian targets, wire sizes
        // that differ from in-memory sizes).
        return bytes::Bytes::from(to_bytes(data));
    }
    note_copied(data.len() * T::SIZE);
    bytes::Bytes::with_len(std::mem::size_of_val(data), |buf| {
        // SAFETY: same argument as `to_bytes_into` — `T: Pod` is a plain
        // numeric type valid for any bit pattern with no padding, and the
        // byte view does not outlive `data`.
        let raw: &[u8] = unsafe {
            std::slice::from_raw_parts(data.as_ptr().cast::<u8>(), std::mem::size_of_val(data))
        };
        buf.copy_from_slice(raw);
    })
}

/// True when `T`'s in-memory layout equals its little-endian wire format —
/// the precondition of every bulk-`memcpy` / reinterpretation fast path in
/// this module.  False on big-endian targets, and false whenever the
/// declared wire size differs from the in-memory size (`usize` is always 8
/// bytes on the wire, so on a 32-bit target it must take the element-wise
/// path).
fn wire_layout_matches<T: Pod>() -> bool {
    cfg!(target_endian = "little") && T::SIZE == std::mem::size_of::<T>()
}

/// Zero-copy reinterpretation of a byte buffer as a typed slice.
///
/// Returns `Some(view)` exactly when no copy is needed to read the buffer as
/// `[T]`, that is when all three hold:
/// * the target is little-endian (and `T`'s wire size is its in-memory
///   size, true for every `Pod` type on 64-bit targets);
/// * `bytes.len() % T::SIZE == 0`;
/// * `bytes.as_ptr()` is aligned for `T`.
///
/// The view then equals [`from_bytes`]`(bytes)`.  Returns `None`
/// otherwise — callers fall back to [`from_bytes`].  Receive paths
/// use this to *borrow* typed data straight out of a shared payload (e.g.
/// the reduction combine loop), skipping the deserialization copy entirely.
pub fn typed_view<T: Pod>(bytes: &[u8]) -> Option<&[T]> {
    if !wire_layout_matches::<T>() {
        return None;
    }
    if !bytes.len().is_multiple_of(T::SIZE) {
        return None;
    }
    if !(bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<T>()) {
        return None;
    }
    // SAFETY: the wire layout equals the in-memory layout
    // (`wire_layout_matches`), the buffer is aligned for `T` (checked
    // above), its length is an exact multiple of `T::SIZE ==
    // size_of::<T>()`, and `T: Pod` is valid for every bit pattern.  The
    // view borrows `bytes` and cannot outlive it.
    Some(unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<T>(), bytes.len() / T::SIZE) })
}

/// Deserializes a byte buffer into a typed vector.
///
/// Returns [`MpiError::TypeMismatch`] if the byte length is not a multiple of
/// the element size.  On little-endian targets the copy is a single bulk
/// `memcpy` into the (correctly aligned) fresh vector; no alignment
/// assumption is made about the incoming bytes.
pub fn from_bytes<T: Pod>(bytes: &[u8]) -> MpiResult<Vec<T>> {
    if !bytes.len().is_multiple_of(T::SIZE) {
        return Err(MpiError::TypeMismatch {
            bytes: bytes.len(),
            elem_size: T::SIZE,
        });
    }
    note_copied(bytes.len());
    let n = bytes.len() / T::SIZE;
    let mut out: Vec<T> = Vec::with_capacity(n);
    if wire_layout_matches::<T>() {
        // SAFETY: the destination was allocated with capacity for `n`
        // elements and is properly aligned for `T`; `n * T::SIZE ==
        // bytes.len()` bytes are copied, which is exactly `n` elements
        // because `T::SIZE == size_of::<T>()` (`wire_layout_matches`), and
        // every bit pattern is a valid `T` (`Pod`), so `set_len(n)` exposes
        // only initialized values.
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                out.as_mut_ptr().cast::<u8>(),
                n * T::SIZE,
            );
            out.set_len(n);
        }
    } else {
        for i in 0..n {
            out.push(T::read_le(&bytes[i * T::SIZE..(i + 1) * T::SIZE]));
        }
    }
    Ok(out)
}

/// Deserializes a byte buffer into an existing typed slice.
///
/// The destination must have exactly the right number of elements.  Errors,
/// checked in this order, leave `dst` untouched:
/// * [`MpiError::TypeMismatch`] when `bytes.len()` is not a multiple of
///   `T::SIZE`;
/// * [`MpiError::Truncated`] when the destination is too short;
/// * [`MpiError::TypeMismatch`] when the destination is too long.
pub fn copy_into<T: Pod>(bytes: &[u8], dst: &mut [T]) -> MpiResult<()> {
    if !bytes.len().is_multiple_of(T::SIZE) {
        return Err(MpiError::TypeMismatch {
            bytes: bytes.len(),
            elem_size: T::SIZE,
        });
    }
    let n = bytes.len() / T::SIZE;
    if n > dst.len() {
        return Err(MpiError::Truncated {
            got: bytes.len(),
            capacity: dst.len() * T::SIZE,
        });
    }
    if n < dst.len() {
        return Err(MpiError::TypeMismatch {
            bytes: bytes.len(),
            elem_size: T::SIZE,
        });
    }
    note_copied(bytes.len());
    if wire_layout_matches::<T>() {
        // SAFETY: `dst` has exactly `n` elements (checked above) of size
        // `size_of::<T>() == T::SIZE` (`wire_layout_matches`), so copying
        // `n * T::SIZE == bytes.len()` bytes over it stays in bounds, and
        // every bit pattern is a valid `T` (`Pod`).
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                dst.as_mut_ptr().cast::<u8>(),
                bytes.len(),
            );
        }
    } else {
        for (i, slot) in dst.iter_mut().enumerate() {
            *slot = T::read_le(&bytes[i * T::SIZE..(i + 1) * T::SIZE]);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_round_trip() {
        let data = vec![1.5f64, -2.25, 0.0, f64::MAX, f64::MIN_POSITIVE];
        let bytes = to_bytes(&data);
        assert_eq!(bytes.len(), data.len() * 8);
        let back: Vec<f64> = from_bytes(&bytes).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn integer_round_trips() {
        let a = vec![1i32, -7, i32::MAX, i32::MIN];
        assert_eq!(from_bytes::<i32>(&to_bytes(&a)).unwrap(), a);
        let b = vec![0u64, 42, u64::MAX];
        assert_eq!(from_bytes::<u64>(&to_bytes(&b)).unwrap(), b);
        let c = vec![3usize, 0, usize::MAX];
        assert_eq!(from_bytes::<usize>(&to_bytes(&c)).unwrap(), c);
        let d = vec![1u8, 2, 255];
        assert_eq!(from_bytes::<u8>(&to_bytes(&d)).unwrap(), d);
    }

    #[test]
    fn empty_slices_are_fine() {
        let empty: Vec<f64> = Vec::new();
        let bytes = to_bytes(&empty);
        assert!(bytes.is_empty());
        assert!(from_bytes::<f64>(&bytes).unwrap().is_empty());
    }

    #[test]
    fn type_mismatch_is_detected() {
        let bytes = vec![0u8; 10];
        assert!(matches!(
            from_bytes::<f64>(&bytes),
            Err(MpiError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn copy_into_checks_sizes() {
        let data = vec![1.0f64, 2.0, 3.0];
        let bytes = to_bytes(&data);
        let mut exact = [0.0f64; 3];
        copy_into(&bytes, &mut exact).unwrap();
        assert_eq!(exact, [1.0, 2.0, 3.0]);

        let mut short = [0.0f64; 2];
        assert!(matches!(
            copy_into(&bytes, &mut short),
            Err(MpiError::Truncated { .. })
        ));

        let mut long = [0.0f64; 4];
        assert!(matches!(
            copy_into(&bytes, &mut long),
            Err(MpiError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn to_bytes_into_appends_after_existing_content() {
        let mut framed = vec![0xAAu8; 8];
        to_bytes_into(&[1.0f64, 2.0], &mut framed);
        assert_eq!(framed.len(), 8 + 16);
        assert_eq!(&framed[..8], &[0xAA; 8]);
        let back: Vec<f64> = from_bytes(&framed[8..]).unwrap();
        assert_eq!(back, vec![1.0, 2.0]);
    }

    #[test]
    fn typed_view_borrows_aligned_buffers_and_rejects_misaligned_ones() {
        let data = vec![1.5f64, -2.25, 8.0];
        let bytes = to_bytes(&data);
        // A Vec<u8> from to_bytes is at least 8-aligned on every mainstream
        // allocator, but don't rely on it: check whichever way it lands.
        match typed_view::<f64>(&bytes) {
            Some(view) => assert_eq!(view, &data[..]),
            None => assert_ne!((bytes.as_ptr() as usize) % std::mem::align_of::<f64>(), 0),
        }
        // u8 views are always aligned (on little-endian targets).
        if cfg!(target_endian = "little") {
            assert_eq!(typed_view::<u8>(&bytes).unwrap().len(), bytes.len());
            // An odd offset into an f64 buffer can never be an f64 view.
            assert!(typed_view::<f64>(&bytes[1..9]).is_none() || bytes.as_ptr() as usize % 8 == 7);
        }
        // Length mismatch is always rejected.
        assert!(typed_view::<f64>(&bytes[..10]).is_none());
    }

    #[test]
    fn copied_bytes_counter_tracks_conversions() {
        // The counter is process-global and sibling unit tests run in
        // parallel in this binary, so assert only deltas large enough that
        // their small conversions cannot account for them.
        const BIG: usize = 1 << 20;
        let data = vec![0u8; BIG];
        let before = copied_bytes();
        let bytes = to_bytes(&data);
        let back: Vec<u8> = from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), BIG);
        assert!(copied_bytes() - before >= 2 * BIG as u64);
        // Borrowing a view copies nothing payload-sized.
        let mid = copied_bytes();
        let view = typed_view::<u8>(&bytes).unwrap();
        assert_eq!(view.len(), BIG);
        assert!(
            copied_bytes() - mid < BIG as u64 / 2,
            "typed_view must not copy the buffer"
        );
    }

    #[test]
    fn to_payload_round_trips_across_the_inline_boundary() {
        // 8 f64 = 64 bytes (inline); 9 f64 = 72 bytes (heap).  Both must
        // produce exactly the `to_bytes` wire content.
        for elems in [0usize, 1, 8, 9, 100] {
            let data: Vec<f64> = (0..elems).map(|i| i as f64 * 1.25 - 3.0).collect();
            let payload = to_payload(&data);
            assert_eq!(payload.len(), elems * 8);
            assert_eq!(&payload[..], &to_bytes(&data)[..]);
            assert_eq!(from_bytes::<f64>(&payload).unwrap(), data);
        }
    }

    #[test]
    fn mixed_type_interpretation_is_consistent() {
        // 2 f64 == 16 bytes == 4 f32 worth of bytes; reinterpreting must fail
        // only when the length does not divide evenly.
        let data = vec![1.0f64, 2.0];
        let bytes = to_bytes(&data);
        assert_eq!(from_bytes::<f32>(&bytes).unwrap().len(), 4);
        assert!(from_bytes::<u64>(&bytes).is_ok());
    }
}
