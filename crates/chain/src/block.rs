//! Hash-chained blocks.
//!
//! Each block header carries the previous block's hash and a Merkle root
//! over the serialized transactions, and is MAC-signed by the ordering
//! service. "Since the input determines the final states in DCC, ensuring
//! a tamper-proof input guarantees the tamper-proof of the final state"
//! (§4) — so verification walks the chain backwards comparing hashes.

use harmony_common::codec::{Reader, Writer};
use harmony_common::{BlockId, Error, Result};
use harmony_crypto::{merkle_root, KeyPair, Sha256, Signature, Verifier};

/// Block header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockHeader {
    /// Block id (height).
    pub id: BlockId,
    /// Hash of the previous block (zero for the first block).
    pub prev_hash: harmony_crypto::Digest,
    /// Merkle root over the serialized transactions.
    pub txn_root: harmony_crypto::Digest,
    /// Orderer identity that sealed the block.
    pub sealer: u64,
    /// Orderer MAC over `(id, prev_hash, txn_root)`.
    pub signature: Signature,
}

impl BlockHeader {
    fn signing_bytes(
        id: BlockId,
        prev: &harmony_crypto::Digest,
        root: &harmony_crypto::Digest,
    ) -> Vec<u8> {
        let mut w = Writer::with_capacity(72);
        w.put_u64(id.0);
        w.put_raw(&prev.0);
        w.put_raw(&root.0);
        w.finish()
    }

    /// The block's own hash: SHA-256 over the header contents.
    #[must_use]
    pub fn hash(&self) -> harmony_crypto::Digest {
        let mut h = Sha256::new();
        h.update(&Self::signing_bytes(
            self.id,
            &self.prev_hash,
            &self.txn_root,
        ));
        h.update(&self.signature.mac.0);
        h.finalize()
    }
}

/// Bytes [`ChainBlock::encode`] writes before the transactions: id, two
/// digests, sealer, signer, MAC and the transaction count.
const ENCODED_HEADER_LEN: usize = 8 + 32 + 32 + 8 + 8 + 32 + 4;

/// A sealed block: header + serialized transactions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainBlock {
    /// The header.
    pub header: BlockHeader,
    /// Serialized transactions (codec wire format).
    pub txns: Vec<Vec<u8>>,
}

impl ChainBlock {
    /// Seal a block: compute the Merkle root and sign the header.
    #[must_use]
    pub fn seal(
        id: BlockId,
        prev_hash: harmony_crypto::Digest,
        txns: Vec<Vec<u8>>,
        sealer: &KeyPair,
    ) -> ChainBlock {
        let txn_root = merkle_root(&txns);
        let signature = sealer.sign(&BlockHeader::signing_bytes(id, &prev_hash, &txn_root));
        ChainBlock {
            header: BlockHeader {
                id,
                prev_hash,
                txn_root,
                sealer: sealer.id(),
                signature,
            },
            txns,
        }
    }

    /// Verify the block: orderer signature, Merkle root, and linkage to
    /// the expected previous hash.
    pub fn verify(
        &self,
        expected_prev: &harmony_crypto::Digest,
        verifier: &Verifier,
    ) -> Result<()> {
        if self.header.prev_hash != *expected_prev {
            return Err(Error::Corruption(format!(
                "block {} prev-hash mismatch",
                self.header.id
            )));
        }
        let root = merkle_root(&self.txns);
        if root != self.header.txn_root {
            return Err(Error::Corruption(format!(
                "block {} transaction root mismatch",
                self.header.id
            )));
        }
        let bytes = BlockHeader::signing_bytes(
            self.header.id,
            &self.header.prev_hash,
            &self.header.txn_root,
        );
        if !verifier.verify(&bytes, &self.header.signature) {
            return Err(Error::Corruption(format!(
                "block {} orderer signature invalid",
                self.header.id
            )));
        }
        Ok(())
    }

    /// Length of [`ChainBlock::encode`]'s output, from the field lengths
    /// alone: what a sender charges for a block without encoding it.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        ENCODED_HEADER_LEN + self.txns.iter().map(|t| 4 + t.len()).sum::<usize>()
    }

    /// Serialize for the block log.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(self.encoded_len());
        w.put_u64(self.header.id.0);
        w.put_raw(&self.header.prev_hash.0);
        w.put_raw(&self.header.txn_root.0);
        w.put_u64(self.header.sealer);
        w.put_u64(self.header.signature.signer);
        w.put_raw(&self.header.signature.mac.0);
        w.put_u32(u32::try_from(self.txns.len()).expect("txn count"));
        for t in &self.txns {
            w.put_bytes(t);
        }
        w.finish()
    }

    /// Deserialize from the block log.
    pub fn decode(bytes: &[u8]) -> Result<ChainBlock> {
        let mut r = Reader::new(bytes);
        let id = BlockId(r.get_u64()?);
        let prev_hash = harmony_crypto::Digest(r.get_raw(32)?.try_into().expect("32 bytes"));
        let txn_root = harmony_crypto::Digest(r.get_raw(32)?.try_into().expect("32 bytes"));
        let sealer = r.get_u64()?;
        let signer = r.get_u64()?;
        let mac = harmony_crypto::Digest(r.get_raw(32)?.try_into().expect("32 bytes"));
        let n = r.get_count(4)?; // a transaction is a u32 length + bytes
        let mut txns = Vec::with_capacity(n);
        for _ in 0..n {
            txns.push(r.get_bytes()?);
        }
        Ok(ChainBlock {
            header: BlockHeader {
                id,
                prev_hash,
                txn_root,
                sealer,
                signature: Signature { signer, mac },
            },
            txns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_crypto::CryptoCost;

    fn sealer() -> (KeyPair, Verifier) {
        (
            KeyPair::derive(b"orderer-secret", 1, CryptoCost::free()),
            Verifier::new(b"orderer-secret", CryptoCost::free()),
        )
    }

    fn sample(id: u64, prev: harmony_crypto::Digest) -> (ChainBlock, Verifier) {
        let (kp, v) = sealer();
        let txns = vec![b"txn-a".to_vec(), b"txn-b".to_vec()];
        (ChainBlock::seal(BlockId(id), prev, txns, &kp), v)
    }

    #[test]
    fn seal_verify_roundtrip() {
        let (block, v) = sample(1, harmony_crypto::Digest::ZERO);
        block.verify(&harmony_crypto::Digest::ZERO, &v).unwrap();
    }

    #[test]
    fn encode_decode_roundtrip() {
        let (block, v) = sample(3, harmony_crypto::Digest::ZERO);
        let decoded = ChainBlock::decode(&block.encode()).unwrap();
        assert_eq!(decoded, block);
        decoded.verify(&harmony_crypto::Digest::ZERO, &v).unwrap();
    }

    #[test]
    fn lying_txn_count_is_refused_before_allocating() {
        // The 124-byte body that used to abort a replica: a valid header,
        // then a transaction count of `u32::MAX` and nothing else.
        let (block, _) = sample(3, harmony_crypto::Digest::ZERO);
        let mut bytes = block.encode()[..120].to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = ChainBlock::decode(&bytes).unwrap_err();
        assert!(
            matches!(&err, harmony_common::Error::Corruption(m) if m.contains("count")),
            "{err}"
        );
    }

    #[test]
    fn tampered_txn_detected() {
        let (mut block, v) = sample(1, harmony_crypto::Digest::ZERO);
        block.txns[0] = b"evil".to_vec();
        assert!(matches!(
            block.verify(&harmony_crypto::Digest::ZERO, &v),
            Err(Error::Corruption(_))
        ));
    }

    #[test]
    fn wrong_prev_hash_detected() {
        let (block, v) = sample(2, harmony_crypto::sha256(b"other"));
        assert!(block.verify(&harmony_crypto::Digest::ZERO, &v).is_err());
    }

    #[test]
    fn forged_signature_detected() {
        let (mut block, v) = sample(1, harmony_crypto::Digest::ZERO);
        block.header.signature.mac.0[0] ^= 1;
        assert!(block.verify(&harmony_crypto::Digest::ZERO, &v).is_err());
    }

    #[test]
    fn chain_linkage() {
        let (kp, v) = sealer();
        let b1 = ChainBlock::seal(
            BlockId(1),
            harmony_crypto::Digest::ZERO,
            vec![b"x".to_vec()],
            &kp,
        );
        let b2 = ChainBlock::seal(BlockId(2), b1.header.hash(), vec![b"y".to_vec()], &kp);
        b1.verify(&harmony_crypto::Digest::ZERO, &v).unwrap();
        b2.verify(&b1.header.hash(), &v).unwrap();
        // Tampering with b1's contents breaks b2's linkage check.
        let mut evil = b1.clone();
        evil.txns[0] = b"evil".to_vec();
        let evil_resealed = ChainBlock::seal(
            BlockId(1),
            harmony_crypto::Digest::ZERO,
            evil.txns.clone(),
            &kp,
        );
        assert!(b2.verify(&evil_resealed.header.hash(), &v).is_err());
    }
}
