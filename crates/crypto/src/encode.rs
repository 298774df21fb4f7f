//! Canonical, domain-separated byte encoding for signed material.
//!
//! Signatures must cover a deterministic serialization of a message, and
//! different message kinds must never collide byte-for-byte (otherwise a
//! signature on one kind could be replayed as another). The [`Encoder`]
//! enforces both: every compound starts with a domain tag, and all integers
//! are fixed-width big-endian.

/// Incremental canonical encoder.
///
/// # Examples
///
/// ```
/// use ba_crypto::Encoder;
///
/// let mut e = Encoder::new("committee");
/// e.u32(7);
/// e.bytes(b"payload");
/// let bytes = e.finish();
/// assert!(bytes.starts_with(b"ba/committee"));
/// ```
#[derive(Clone, Debug)]
pub struct Encoder {
    buf: Bytes,
}

/// The longest encoding kept inline, in an [`Encoder`] and in a
/// [`Statement`](crate::Statement): room for the fixed-size statements
/// the protocols sign most (gradecast value, echo and confirm at 34–37
/// bytes, committee membership at 25), so that encoding or resolving one
/// allocates nothing.
pub(crate) const INLINE: usize = 48;

/// Bytes kept inline up to [`INLINE`] long, and on the heap beyond.
#[derive(Clone)]
pub(crate) enum Bytes {
    /// The first `len` bytes of `buf`.
    Inline { len: u8, buf: [u8; INLINE] },
    /// Bytes that outgrew the inline buffer.
    Heap(Vec<u8>),
}

impl Bytes {
    /// Empty, and inline.
    pub(crate) fn new() -> Self {
        Bytes::Inline {
            len: 0,
            buf: [0; INLINE],
        }
    }

    /// Appends `more`, moving to the heap once the bytes outgrow the
    /// inline buffer.
    pub(crate) fn extend_from_slice(&mut self, more: &[u8]) {
        match self {
            Bytes::Inline { len, buf } => {
                let (start, end) = (usize::from(*len), usize::from(*len) + more.len());
                if end <= INLINE {
                    buf[start..end].copy_from_slice(more);
                    *len = end as u8;
                } else {
                    let mut heap = Vec::with_capacity(end.max(2 * INLINE));
                    heap.extend_from_slice(&buf[..start]);
                    heap.extend_from_slice(more);
                    *self = Bytes::Heap(heap);
                }
            }
            Bytes::Heap(heap) => heap.extend_from_slice(more),
        }
    }

    pub(crate) fn as_slice(&self) -> &[u8] {
        match self {
            Bytes::Inline { len, buf } => &buf[..usize::from(*len)],
            Bytes::Heap(heap) => heap,
        }
    }

    /// Keeps the first `len` bytes, and the buffer they are in.
    fn truncate(&mut self, len: usize) {
        assert!(len <= self.as_slice().len(), "truncating past the end");
        match self {
            Bytes::Inline { len: inline, .. } => *inline = len as u8,
            Bytes::Heap(heap) => heap.truncate(len),
        }
    }

    fn as_mut_slice(&mut self) -> &mut [u8] {
        match self {
            Bytes::Inline { len, buf } => &mut buf[..usize::from(*len)],
            Bytes::Heap(heap) => heap,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(bytes: &[u8]) -> Self {
        let mut copy = Bytes::new();
        copy.extend_from_slice(bytes);
        copy
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl Encoder {
    /// Starts an encoding under the given domain tag.
    pub fn new(domain: &str) -> Self {
        let mut enc = Encoder { buf: Bytes::new() };
        enc.domain(domain);
        enc
    }

    /// Writes a domain tag: `ba/`, the domain, and a zero byte.
    fn domain(&mut self, domain: &str) {
        self.buf.extend_from_slice(b"ba/");
        self.buf.extend_from_slice(domain.as_bytes());
        self.buf.extend_from_slice(&[0]);
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.extend_from_slice(&[v]);
        self
    }

    /// Appends a big-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a nested encodable value: a big-endian `u64` length, then
    /// the domain tag `ba/nested\0` followed by the value's
    /// [`Encodable::encode`] output; the length counts both.
    ///
    /// The value is encoded straight into this buffer, and the length
    /// prefix is filled in afterwards.
    pub fn nested<E: Encodable>(&mut self, v: &E) -> &mut Self {
        let prefix = self.len();
        self.u64(0);
        let start = self.len();
        self.domain("nested");
        v.encode(self);
        let len = (self.len() - start) as u64;
        self.buf.as_mut_slice()[prefix..start].copy_from_slice(&len.to_be_bytes());
        self
    }

    /// Appends a length-prefixed sequence of encodables.
    pub fn seq<E: Encodable>(&mut self, items: &[E]) -> &mut Self {
        self.u64(items.len() as u64);
        for item in items {
            self.nested(item);
        }
        self
    }

    /// Drops everything after the first `len` bytes and keeps the
    /// buffer, so that one encoder can build, one after another, several
    /// encodings that share a prefix without allocating for each.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `len` bytes have been encoded.
    pub fn truncate(&mut self, len: usize) -> &mut Self {
        self.buf.truncate(len);
        self
    }

    fn len(&self) -> usize {
        self.as_ref().len()
    }

    /// Finishes, returning the canonical bytes.
    pub fn finish(self) -> Vec<u8> {
        match self.buf {
            Bytes::Inline { .. } => self.as_ref().to_vec(),
            Bytes::Heap(heap) => heap,
        }
    }
}

/// The bytes encoded so far, without finishing: a short encoding is read
/// in place, with no allocation.
impl AsRef<[u8]> for Encoder {
    fn as_ref(&self) -> &[u8] {
        self.buf.as_slice()
    }
}

/// A type with a canonical byte encoding suitable for signing.
pub trait Encodable {
    /// Writes the canonical encoding of `self`.
    fn encode(&self, enc: &mut Encoder);
}

impl Encodable for u64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.u64(*self);
    }
}

impl Encodable for u32 {
    fn encode(&self, enc: &mut Encoder) {
        enc.u32(*self);
    }
}

impl Encodable for Vec<u8> {
    fn encode(&self, enc: &mut Encoder) {
        enc.bytes(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domains_separate() {
        let mut a = Encoder::new("alpha");
        a.u32(1);
        let mut b = Encoder::new("beta");
        b.u32(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn integers_are_fixed_width() {
        let mut a = Encoder::new("x");
        a.u32(1).u32(2);
        let mut b = Encoder::new("x");
        b.u64(4294967298); // Same raw bytes as (1u32, 2u32)? Must differ by width discipline.
        assert_eq!(a.finish(), b.finish(), "u32+u32 and u64 share byte layout by design; kinds must differ by domain or structure, which protocol encoders enforce with tags");
    }

    #[test]
    fn byte_strings_are_length_prefixed() {
        // ("ab", "c") must not collide with ("a", "bc").
        let mut a = Encoder::new("x");
        a.bytes(b"ab").bytes(b"c");
        let mut b = Encoder::new("x");
        b.bytes(b"a").bytes(b"bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn truncating_rebuilds_shared_prefixes_exactly() {
        // A one-item sequence stays inline and an eight-item one moves to
        // the heap: after truncating to a prefix, writing the rest again
        // gives the bytes a fresh encoder gives, inline or on the heap.
        for (first, second) in [(1, 1), (1, 8), (8, 1), (8, 8)] {
            let mut e = Encoder::new("x");
            e.u32(7);
            let head = e.as_ref().len();
            e.seq(&vec![1u64; first]);
            e.truncate(head).seq(&vec![2u64; second]);
            let mut fresh = Encoder::new("x");
            fresh.u32(7).seq(&vec![2u64; second]);
            assert_eq!(e.as_ref(), fresh.as_ref(), "{first} then {second} items");
        }
    }

    #[test]
    #[should_panic(expected = "truncating past the end")]
    fn truncating_cannot_grow() {
        let mut e = Encoder::new("x");
        let len = e.as_ref().len();
        e.truncate(len + 1);
    }

    #[test]
    fn sequences_are_length_prefixed() {
        let mut a = Encoder::new("x");
        a.seq(&[1u64, 2u64]);
        let mut b = Encoder::new("x");
        b.seq(&[1u64]);
        b.u64(2);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn long_encodings_move_to_the_heap_unchanged() {
        // Cross the inline limit inside one write, and inside a nested
        // value whose length prefix is filled in after the move.
        let mut e = Encoder::new("spill");
        e.bytes(&[7; INLINE]).seq(&[1u64, 2, 3]).u8(9);
        let mut expected = b"ba/spill\0".to_vec();
        expected.extend_from_slice(&(INLINE as u64).to_be_bytes());
        expected.extend_from_slice(&[7; INLINE]);
        expected.extend_from_slice(&3u64.to_be_bytes());
        for v in 1u64..=3 {
            expected.extend_from_slice(&(10 + 8u64).to_be_bytes());
            expected.extend_from_slice(b"ba/nested\0");
            expected.extend_from_slice(&v.to_be_bytes());
        }
        expected.push(9);
        assert_eq!(e.as_ref(), expected.as_slice());
        assert!(matches!(e.buf, Bytes::Heap(_)));
        assert_eq!(e.finish(), expected);

        let mut short = Encoder::new("gcast-echo");
        short.u64(1).u32(2).u64(3);
        assert_eq!(short.as_ref().len(), 34);
        assert!(matches!(short.buf, Bytes::Inline { .. }), "fits inline");
        let mut full = Encoder::new("x");
        full.bytes(&[0; INLINE - 13]);
        assert_eq!(full.as_ref().len(), INLINE);
        assert!(matches!(full.buf, Bytes::Inline { .. }), "exactly full");
    }

    #[test]
    fn encoding_is_deterministic() {
        let make = || {
            let mut e = Encoder::new("det");
            e.u8(3).u32(9).bytes(b"zz").seq(&[7u64, 8u64]);
            e.finish()
        };
        assert_eq!(make(), make());
    }
}
