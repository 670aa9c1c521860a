//! HMAC-SHA-256 (RFC 2104), built on [`mod@crate::sha256`].

use crate::sha256::{Digest, Sha256};

const BLOCK_LEN: usize = 64;

/// Compute `HMAC-SHA256(key, message)`.
#[must_use]
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    // Keys longer than the block size are hashed first.
    let mut key_block = [0u8; BLOCK_LEN];
    if key.len() > BLOCK_LEN {
        let hashed = {
            let mut h = Sha256::new();
            h.update(key);
            h.finalize()
        };
        key_block[..32].copy_from_slice(&hashed.0);
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }

    let mut ipad = [0x36u8; BLOCK_LEN];
    let mut opad = [0x5cu8; BLOCK_LEN];
    for i in 0..BLOCK_LEN {
        ipad[i] ^= key_block[i];
        opad[i] ^= key_block[i];
    }

    let inner = {
        let mut h = Sha256::new();
        h.update(&ipad);
        h.update(message);
        h.finalize()
    };
    let mut h = Sha256::new();
    h.update(&opad);
    h.update(&inner.0);
    h.finalize()
}

/// Constant-time digest comparison (avoids leaking prefix length through
/// timing when verifying MACs).
#[must_use]
pub fn verify_mac(expected: &Digest, actual: &Digest) -> bool {
    let mut diff = 0u8;
    for (a, b) in expected.0.iter().zip(actual.0.iter()) {
        diff |= a ^ b;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc4231_case1() {
        let key = [0x0b; 20];
        let d = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            d.to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        let d = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            d.to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3() {
        let key = [0xaa; 20];
        let msg = [0xdd; 50];
        let d = hmac_sha256(&key, &msg);
        assert_eq!(
            d.to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_long_key() {
        // Test with a key larger than the block size (RFC 4231 case 6).
        let key = [0xaa; 131];
        let d = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            d.to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn verify_mac_matches() {
        let a = hmac_sha256(b"k", b"m");
        let b = hmac_sha256(b"k", b"m");
        let c = hmac_sha256(b"k", b"n");
        assert!(verify_mac(&a, &b));
        assert!(!verify_mac(&a, &c));
    }

    #[test]
    fn key_sensitivity() {
        assert_ne!(hmac_sha256(b"key1", b"m"), hmac_sha256(b"key2", b"m"));
    }
}
