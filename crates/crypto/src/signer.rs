//! Node authentication: signatures modelled as HMAC-SHA-256 under a shared
//! per-identity secret.
//!
//! The paper's blockchains use asymmetric signatures (X.509/ECDSA). Public
//! key crypto is out of scope for this reproduction (no external crates
//! allowed), so we substitute keyed MACs: every node holds a secret derived
//! from its identity and a cluster-wide provisioning secret, and verifiers
//! re-derive it. This gives real in-process tamper-evidence and the same
//! API shape (sign/verify with per-op CPU cost), while the *cost* of
//! asymmetric crypto is modelled separately by [`crate::cost::CryptoCost`].

use harmony_common::vtime;

use crate::hmac::{hmac_sha256, verify_mac};
use crate::sha256::Digest;
use crate::CryptoCost;

/// A signature over a message (a MAC digest plus the signer's id).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Signature {
    /// Identity of the signer.
    pub signer: u64,
    /// The MAC digest.
    pub mac: Digest,
}

/// Signing key held by one node.
#[derive(Clone, Debug)]
pub struct KeyPair {
    id: u64,
    secret: [u8; 32],
    cost: CryptoCost,
}

impl KeyPair {
    /// Derive the key pair for node `id` from the cluster provisioning
    /// secret. All nodes in one deployment share `provision`.
    #[must_use]
    pub fn derive(provision: &[u8], id: u64, cost: CryptoCost) -> KeyPair {
        let mac = hmac_sha256(provision, &id.to_le_bytes());
        KeyPair {
            id,
            secret: mac.0,
            cost,
        }
    }

    /// The node identity this key signs for.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Sign a message; charges the configured signing cost to virtual time.
    #[must_use]
    pub fn sign(&self, message: &[u8]) -> Signature {
        vtime::charge(self.cost.sign_ns);
        Signature {
            signer: self.id,
            mac: hmac_sha256(&self.secret, message),
        }
    }
}

/// Verifier that can check any node's signature (re-derives node secrets
/// from the provisioning secret, mirroring a CA that can validate all
/// certificates it issued).
#[derive(Clone, Debug)]
pub struct Verifier {
    provision: Vec<u8>,
    cost: CryptoCost,
}

impl Verifier {
    /// Build a verifier for a deployment.
    #[must_use]
    pub fn new(provision: &[u8], cost: CryptoCost) -> Verifier {
        Verifier {
            provision: provision.to_vec(),
            cost,
        }
    }

    /// Charge one verification's cost and check nothing: for a signature
    /// the caller made itself a moment ago, so skipping the check leaves
    /// virtual time where a verification puts it.
    pub fn charge_verify(&self) {
        vtime::charge(self.cost.verify_ns);
    }

    /// Verify `sig` over `message`; charges the verification cost.
    #[must_use]
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        vtime::charge(self.cost.verify_ns);
        let secret = hmac_sha256(&self.provision, &sig.signer.to_le_bytes());
        let expect = hmac_sha256(&secret.0, message);
        verify_mac(&expect, &sig.mac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (KeyPair, Verifier) {
        let cost = CryptoCost::default();
        (
            KeyPair::derive(b"cluster-secret", 7, cost),
            Verifier::new(b"cluster-secret", cost),
        )
    }

    #[test]
    fn sign_verify_roundtrip() {
        let (kp, v) = setup();
        let sig = kp.sign(b"block 9 header");
        assert!(v.verify(b"block 9 header", &sig));
    }

    #[test]
    fn tampered_message_rejected() {
        let (kp, v) = setup();
        let sig = kp.sign(b"payload");
        assert!(!v.verify(b"payload!", &sig));
    }

    #[test]
    fn forged_signer_rejected() {
        let (kp, v) = setup();
        let mut sig = kp.sign(b"payload");
        sig.signer = 8; // claim to be another node
        assert!(!v.verify(b"payload", &sig));
    }

    #[test]
    fn wrong_cluster_rejected() {
        let cost = CryptoCost::default();
        let kp = KeyPair::derive(b"cluster-A", 1, cost);
        let v = Verifier::new(b"cluster-B", cost);
        let sig = kp.sign(b"m");
        assert!(!v.verify(b"m", &sig));
    }

    #[test]
    fn signing_charges_vtime() {
        let (kp, v) = setup();
        harmony_common::vtime::take();
        let sig = kp.sign(b"m");
        let signed = harmony_common::vtime::take();
        assert_eq!(signed, CryptoCost::default().sign_ns);
        let _ = v.verify(b"m", &sig);
        assert_eq!(
            harmony_common::vtime::take(),
            CryptoCost::default().verify_ns
        );
    }
}
