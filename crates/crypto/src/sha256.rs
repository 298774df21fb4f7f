//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! A streaming [`Sha256`] hasher plus the one-shot [`sha256`] helper. The
//! implementation follows the specification directly: 512-bit blocks,
//! message schedule `W[0..64]`, eight working variables, and the standard
//! `K` constants. Test vectors from FIPS 180-4 / NIST CAVP are in the unit
//! tests.
//!
//! # Dispatch
//!
//! The block compression has two implementations with the same output:
//!
//! * [`compress_portable`], plain Rust straight from the specification.
//!   It is the reference, and the fallback on every other CPU.
//! * A compression on the x86-64 SHA extensions (SHA-NI), used when the
//!   CPU reports `sha`, `sse2`, `ssse3` and `sse4.1` at run time
//!   (`is_x86_feature_detected!`). It is the only `unsafe` code in the
//!   workspace, and it is reachable only through that check.
//!
//! Each hasher picks one when it is created; [`compress`] picks one per
//! call. There is no switch to force either: the unit tests run every
//! test vector through each implementation this CPU has, and compare the
//! two on random blocks.

/// First 32 bits of the fractional parts of the cube roots of the first
/// 64 primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash values: first 32 bits of the fractional parts of the
/// square roots of the first eight primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use ba_crypto::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(
///     hex(&digest),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
///
/// fn hex(bytes: &[u8]) -> String {
///     bytes.iter().map(|b| format!("{b:02x}")).collect()
/// }
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered toward the next 64-byte block.
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    total_len: u64,
    /// The block compression this hasher uses.
    compress: Compress,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256::resume(H0, 0)
    }

    /// A hasher that has absorbed `blocks` whole blocks, ending in the
    /// chaining value `midstate`.
    pub(crate) fn resume(midstate: [u32; 8], blocks: u64) -> Self {
        Sha256::resume_with(detect(), midstate, blocks)
    }

    fn resume_with(compress: Compress, midstate: [u32; 8], blocks: u64) -> Self {
        Sha256 {
            state: midstate,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: blocks * 64,
            compress,
        }
    }

    /// The chaining value, taken at a block boundary so that
    /// [`Sha256::resume`] can continue from it.
    pub(crate) fn midstate(&self) -> [u32; 8] {
        debug_assert_eq!(self.buf_len, 0, "midstate taken inside a block");
        self.state
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while rest.len() >= 64 {
            let (block, tail) = rest.split_at(64);
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            self.compress(&b);
            rest = tail;
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Completes the hash, returning the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, then the 64-bit big-endian length.
        self.update_padding();
        let mut len_block = [0u8; 8];
        len_block.copy_from_slice(&bit_len.to_be_bytes());
        self.buf[56..64].copy_from_slice(&len_block);
        let block = self.buf;
        self.compress(&block);

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn update_padding(&mut self) {
        // Appends 0x80 then zeros until 56 bytes remain in the final block.
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        let cur = self.buf_len;
        let pad_len = if cur < 56 { 56 - cur } else { 120 - cur };
        // Manually absorb padding without touching total_len.
        let mut rest: &[u8] = &pad[..pad_len];
        while !rest.is_empty() {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        debug_assert_eq!(self.buf_len, 56);
    }

    fn compress(&mut self, block: &[u8; 64]) {
        (self.compress)(&mut self.state, block);
    }
}

/// A block compression: absorbs one 64-byte block into a chaining value.
type Compress = fn(&mut [u32; 8], &[u8; 64]);

/// The fastest compression this CPU supports.
fn detect() -> Compress {
    #[cfg(target_arch = "x86_64")]
    if let Some(compress) = shani::detect() {
        return compress;
    }
    compress_portable
}

/// Absorbs one 64-byte block into the chaining value `state`, on the
/// SHA extensions if this CPU has them (see [Dispatch](self#dispatch)).
pub fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    detect()(state, block);
}

/// Absorbs one 64-byte block into the chaining value `state` in plain
/// Rust: the reference that [`compress`] must match.
pub fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    for (word, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(v);
    }
}

/// The compression on the SHA extensions. The intrinsics follow the
/// usual SHA-NI layout: the state is kept as the word pairs `ABEF` and
/// `CDGH`, and each `sha256rnds2` does two rounds.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani {
    use super::{Compress, K};
    use std::arch::x86_64::*;

    /// This compression, if the CPU has every feature it is compiled for.
    pub(super) fn detect() -> Option<Compress> {
        let detected = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        detected.then_some(compress as Compress)
    }

    /// Only [`detect`] hands this out, and only after the check above.
    fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        // SAFETY: `detect` returns this function only when the CPU reports
        // sha, sse2, ssse3 and sse4.1, the features `compress_ni` enables.
        unsafe { compress_ni(state, block) }
    }

    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn compress_ni(state: &mut [u32; 8], block: &[u8; 64]) {
        // SAFETY: sse2 is enabled here; each pointer is to 16 readable
        // bytes of `state` or `block`, and `loadu` needs no alignment.
        let (dcba, hgfe, mut w) = unsafe {
            let at = |i: usize| _mm_loadu_si128(block.as_ptr().add(16 * i).cast());
            (
                _mm_loadu_si128(state.as_ptr().cast()),
                _mm_loadu_si128(state.as_ptr().add(4).cast()),
                [at(0), at(1), at(2), at(3)],
            )
        };
        // Message words are big-endian.
        let swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        for quad in &mut w {
            *quad = _mm_shuffle_epi8(*quad, swap);
        }
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
        let (abef_in, cdgh_in) = (abef, cdgh);

        // Sixteen groups of four rounds; group `i` uses schedule words
        // `4i..4i + 4`, kept in `w[i % 4]`.
        for i in 0..16 {
            if i >= 4 {
                let (w4, w3, w2, w1) = (w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
                let sum = _mm_add_epi32(_mm_sha256msg1_epu32(w4, w3), _mm_alignr_epi8(w1, w2, 4));
                w[i % 4] = _mm_sha256msg2_epu32(sum, w1);
            }
            let k = _mm_set_epi32(
                K[4 * i + 3] as i32,
                K[4 * i + 2] as i32,
                K[4 * i + 1] as i32,
                K[4 * i] as i32,
            );
            let wk = _mm_add_epi32(w[i % 4], k);
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
        }

        let abef = _mm_add_epi32(abef, abef_in);
        let cdgh = _mm_add_epi32(cdgh, cdgh_in);
        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: sse2 is enabled here; each pointer is to 16 writable
        // bytes of `state`, and `storeu` needs no alignment.
        unsafe {
            _mm_storeu_si128(state.as_mut_ptr().cast(), dcba);
            _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), hgfe);
        }
    }
}

/// One-shot SHA-256 of `data`.
///
/// # Examples
///
/// ```
/// let d = ba_crypto::sha256(b"");
/// assert_eq!(d[0], 0xe3);
/// ```
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Every compression this CPU can run, by name. The SHA-NI one is
    /// left out, and the skip reported, on a CPU without it.
    fn compressions() -> Vec<(&'static str, Compress)> {
        #[cfg(target_arch = "x86_64")]
        let hardware = shani::detect();
        #[cfg(not(target_arch = "x86_64"))]
        let hardware: Option<Compress> = None;
        if hardware.is_none() {
            eprintln!("SHA-NI not detected: testing the portable compression only");
        }
        std::iter::once(("portable", compress_portable as Compress))
            .chain(hardware.map(|compress| ("sha-ni", compress)))
            .collect()
    }

    fn digest(compress: Compress, data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::resume_with(compress, H0, 0);
        h.update(data);
        h.finalize()
    }

    /// `data` hashes to `expected` through every compression, and through
    /// the dispatched one-shot helper.
    fn assert_vector(data: &[u8], expected: &str) {
        for (name, compress) in compressions() {
            assert_eq!(hex(&digest(compress, data)), expected, "{name}");
        }
        assert_eq!(hex(&sha256(data)), expected, "dispatched");
    }

    #[test]
    fn nist_vector_empty() {
        assert_vector(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn nist_vector_abc() {
        assert_vector(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn nist_vector_448_bits() {
        assert_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn nist_vector_896_bits() {
        assert_vector(
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
              hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        );
    }

    #[test]
    fn million_a() {
        for (name, compress) in compressions() {
            let mut h = Sha256::resume_with(compress, H0, 0);
            let chunk = [b'a'; 1000];
            for _ in 0..1000 {
                h.update(&chunk);
            }
            assert_eq!(
                hex(&h.finalize()),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{name}"
            );
        }
    }

    #[test]
    fn streaming_matches_one_shot_at_every_split_point() {
        let data: Vec<u8> = (0u16..300).map(|i| (i % 251) as u8).collect();
        let whole = sha256(&data);
        for (name, compress) in compressions() {
            for split in [0usize, 1, 55, 56, 63, 64, 65, 128, 200, 299, 300] {
                let mut h = Sha256::resume_with(compress, H0, 0);
                h.update(&data[..split]);
                h.update(&data[split..]);
                assert_eq!(h.finalize(), whole, "{name}, split at {split}");
            }
        }
    }

    #[test]
    fn padding_boundary_lengths() {
        // Lengths straddling the 56-byte padding boundary exercise the
        // two-block finalization path; a byte at a time, the buffer fills
        // through every offset.
        for len in 50..70usize {
            let data = vec![0xabu8; len];
            let whole = sha256(&data);
            for (name, compress) in compressions() {
                let mut h = Sha256::resume_with(compress, H0, 0);
                for byte in data.chunks(1) {
                    h.update(byte);
                }
                assert_eq!(h.finalize(), whole, "{name}, len {len}");
                assert_eq!(digest(compress, &data), whole, "{name}, len {len}");
            }
        }
    }

    #[test]
    fn compressions_agree_on_random_blocks() {
        // SplitMix64: a fixed seed gives the same 10,000 pairs on every run.
        let mut seed = 0x5eed_u64;
        let mut next = move || {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let all = compressions();
        for _ in 0..10_000 {
            let state: [u32; 8] = std::array::from_fn(|_| next() as u32);
            let block: [u8; 64] = std::array::from_fn(|_| next() as u8);
            let mut expected = state;
            compress_portable(&mut expected, &block);
            let mut dispatched = state;
            compress(&mut dispatched, &block);
            assert_eq!(
                dispatched, expected,
                "dispatched, {state:08x?} {block:02x?}"
            );
            for (name, compress) in &all {
                let mut got = state;
                compress(&mut got, &block);
                assert_eq!(got, expected, "{name}, {state:08x?} {block:02x?}");
            }
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha256(b"byzantine"), sha256(b"agreement"));
        assert_ne!(sha256(&[0u8]), sha256(&[0u8, 0u8]));
    }
}
