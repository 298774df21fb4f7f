//! HMAC-SHA256 (RFC 2104), validated against the RFC 4231 test vectors.

use crate::sha256::{sha256, Sha256};

const BLOCK: usize = 64;

/// An HMAC-SHA256 key with both padded key blocks already absorbed.
///
/// HMAC hashes `key ⊕ ipad` and `key ⊕ opad` in front of every message;
/// both are one full block, so the SHA-256 chaining values after them
/// depend on the key alone. `HmacKey` keeps those two midstates, and each
/// [`HmacKey::mac`] resumes from them: a message under 56 bytes then
/// costs two compressions instead of four.
///
/// There is deliberately no `Debug`: the midstates are key material.
#[derive(Clone)]
pub struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacKey {
    /// Prepares `key`. Keys longer than the 64-byte block are hashed
    /// first, per RFC 2104.
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            let digest = sha256(key);
            k[..32].copy_from_slice(&digest);
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let absorb = |pad: u8| {
            let mut h = Sha256::new();
            h.update(&k.map(|b| b ^ pad));
            h.midstate()
        };
        HmacKey {
            inner: absorb(0x36),
            outer: absorb(0x5c),
        }
    }

    /// Computes `HMAC-SHA256(key, message)`.
    pub fn mac(&self, message: &[u8]) -> [u8; 32] {
        let mut inner = Sha256::resume(self.inner, 1);
        inner.update(message);
        let mut outer = Sha256::resume(self.outer, 1);
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

/// Computes `HMAC-SHA256(key, message)`.
///
/// Keys longer than the 64-byte block are hashed first, per RFC 2104.
/// To MAC many messages under one key, prepare it once with
/// [`HmacKey::new`].
///
/// # Examples
///
/// ```
/// let tag = ba_crypto::hmac_sha256(b"key", b"message");
/// assert_eq!(tag.len(), 32);
/// assert_eq!(tag, ba_crypto::HmacKey::new(b"key").mac(b"message"));
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    HmacKey::new(key).mac(message)
}

/// Constant-time equality of two MAC tags.
///
/// Timing is irrelevant inside the simulator, but tag comparison is a
/// security-sensitive operation and the habit costs nothing.
pub fn tags_equal(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test case 1.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    // RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    // RFC 4231 test case 3: 20x 0xaa key, 50x 0xdd data.
    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    // RFC 4231 test case 6: key longer than the block size.
    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn different_keys_produce_different_tags() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
    }

    #[test]
    fn different_messages_produce_different_tags() {
        assert_ne!(hmac_sha256(b"k", b"m1"), hmac_sha256(b"k", b"m2"));
    }

    #[test]
    fn tags_equal_is_exact() {
        let a = hmac_sha256(b"k", b"m");
        let mut b = a;
        assert!(tags_equal(&a, &b));
        b[31] ^= 1;
        assert!(!tags_equal(&a, &b));
        assert!(!tags_equal(&a[..16], &a));
    }
}
