//! SHA-256 (FIPS 180-4), implemented from scratch — no external crate.
//!
//! Used for block hashes, Merkle trees, the authenticated state map and as
//! the compression function of HMAC.
//!
//! # Two compression paths, chosen from the CPU
//!
//! [`Sha256`] buffers at most one partial block and hands every run of
//! whole 64-byte blocks, straight from the caller's slice, to one
//! `compress_blocks(state, &[u8])`. That function has two bodies:
//!
//! * **the SHA extensions** of x86-64 (`sha256rnds2` / `sha256msg1` /
//!   `sha256msg2`), used whenever `is_x86_feature_detected!` reports `sha`,
//!   `ssse3` and `sse4.1` on the running CPU;
//! * **the scalar rounds** of the standard, used on every other x86-64 CPU
//!   and every other architecture, and kept as the reference the tests
//!   compare the hardware path against.
//!
//! Nothing else selects between them — no Cargo feature, configuration
//! field or environment variable — and both compute the same function, so a
//! digest never depends on the machine that produced it. The unit tests run
//! the NIST vectors and every padding edge through *both* bodies directly,
//! not through the dispatch, so the scalar one stays tested on a
//! SHA-capable host.
//!
//! # One-shot digests
//!
//! The state map, the Merkle tree and [`sha256()`] hash short messages of a
//! fixed layout: a map node is `0x03 ‖ three digests` (97 bytes), a map
//! leaf `0x02 ‖ len ‖ key ‖ len ‖ value`, a Merkle node `0x01 ‖ two
//! digests`. `sha256_concat` takes such a message as its parts, writes
//! them and the padding into one stack buffer and makes a single
//! `compress_blocks` call over every block, instead of a [`Sha256`]'s
//! buffered updates and its finalize (each compression call repeats the
//! CPU-feature test and a state round-trip). A message too long for the
//! buffer streams through [`Sha256`]. The tests check the one-shot path
//! against the streaming one on both compression bodies, at every key
//! length from 0 to 40 bytes and value length from 0 to 300 bytes. It is
//! safe code over the same `compress_blocks`, so the block below is still
//! the only `unsafe` one.
//!
//! # The one `unsafe` block
//!
//! The workspace denies `unsafe_code`; the private `sha_ni` module carries
//! its single `#[allow]`. The only unsafe operation in it is the call into
//! a `#[target_feature]` function, sound because the three features are
//! detected on the line before. The kernel itself is safe code: it forms no
//! raw pointer (message words are assembled from `chunks_exact(64)`
//! sub-slices and the state travels as `u32`s), so there is no alignment or
//! bounds argument to make.
//!
//! # Not the cost model
//!
//! Real hashing speed and the evaluation's *virtual* hashing cost are
//! separate things. [`CryptoCost`](crate::CryptoCost) models the paper's
//! 2016 Xeon and is deliberately not recalibrated to this kernel: every
//! virtual-time figure, abort decision and pinned root is unchanged by
//! which path runs. Checking the model against measured time is ROADMAP
//! item 5a.

use std::fmt;

/// A 256-bit digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// All-zero digest, used as the genesis block's "previous hash".
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Hex representation.
    #[must_use]
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}…", &self.to_hex()[..12])
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

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

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// Fresh hasher.
    #[must_use]
    pub fn new() -> Sha256 {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorb bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress_blocks);
    }

    /// Finish and produce the digest.
    #[must_use]
    pub fn finalize(self) -> Digest {
        self.finalize_with(compress_blocks)
    }

    /// [`Sha256::update`] over a given compression function (the tests run
    /// the scalar and the hardware one through the same buffering). Full
    /// blocks go to `compress` straight from `data`, as one run; only a
    /// partial head or tail is copied into `buf`.
    fn update_with(&mut self, mut data: &[u8], compress: impl Fn(&mut [u32; 8], &[u8])) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let (blocks, tail) = data.split_at(data.len() & !63);
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// [`Sha256::finalize`] over a given compression function. Padding is
    /// written in place: `0x80`, zeros up to the last eight bytes of a
    /// block (a second block if fewer than eight are left), then the
    /// message length in bits, big-endian.
    fn finalize_with(mut self, compress: impl Fn(&mut [u32; 8], &[u8])) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            compress(&mut self.state, &self.buf);
            self.buf = [0u8; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);
        digest_of(self.state)
    }
}

/// The digest a final state spells, word by word, big-endian.
fn digest_of(state: [u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    Digest(out)
}

/// Longest padded message the one-shot path lays out on the stack: four
/// blocks, so any message of up to 247 bytes.
const ONE_SHOT_BYTES: usize = 256;

/// SHA-256 of the concatenation of `parts`, without a [`Sha256`]: when
/// the message and its padding fit [`ONE_SHOT_BYTES`], they are written
/// into one stack buffer and compressed by a single `compress_blocks` call
/// (one CPU-feature test, one state load and store). Longer messages
/// stream. Same digest as hashing the parts one after another.
#[must_use]
#[inline]
pub(crate) fn sha256_concat(parts: &[&[u8]]) -> Digest {
    concat_with(parts, compress_blocks)
}

/// [`sha256_concat`] over a given compression function.
#[inline]
fn concat_with(parts: &[&[u8]], compress: impl Fn(&mut [u32; 8], &[u8])) -> Digest {
    let len: usize = parts.iter().map(|part| part.len()).sum();
    if len + 9 > ONE_SHOT_BYTES {
        let mut h = Sha256::new();
        for part in parts {
            h.update_with(part, &compress);
        }
        return h.finalize_with(compress);
    }
    let mut buf = [0u8; ONE_SHOT_BYTES];
    let mut at = 0;
    for part in parts {
        buf[at..at + part.len()].copy_from_slice(part);
        at += part.len();
    }
    // Padding: `0x80`, zeros, and the bit length in the last eight bytes
    // of the last block the message and those nine bytes need.
    buf[len] = 0x80;
    let end = (len + 9).next_multiple_of(64);
    buf[end - 8..end].copy_from_slice(&(len as u64 * 8).to_be_bytes());
    let mut state = H0;
    compress(&mut state, &buf[..end]);
    digest_of(state)
}

/// Compress a run of whole 64-byte blocks into `state`: with the CPU's SHA
/// extensions when it has them, with [`compress_blocks_scalar`] otherwise.
/// The choice is made from the CPU alone; both produce the same state.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if sha_ni::compress_blocks(state, blocks) {
        return;
    }
    compress_blocks_scalar(state, blocks);
}

/// The portable FIPS 180-4 rounds: the only path on CPUs without SHA
/// extensions, and the reference the hardware path is tested against.
fn compress_blocks_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert!(blocks.len().is_multiple_of(64));
    for block in blocks.chunks_exact(64) {
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
            let ch = (e & f) ^ (!e & g);
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
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// SHA-256 compression on the x86-64 SHA extensions: two rounds an
/// instruction, the message schedule in four vector registers, the state in
/// two across all the blocks of a call.
///
/// This module holds the workspace's only `unsafe` block (see the file's
/// module doc). Message words are assembled from `chunks_exact(64)`
/// sub-slices with `from_le_bytes` — the compiler folds each pair into one
/// unaligned 16-byte load — and the state enters and leaves as plain
/// `u32`s, so no pointer is ever formed and the one obligation left is the
/// instruction set itself, which the `unsafe` call discharges.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod sha_ni {
    use super::K;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8,
    };

    /// Compress `blocks` into `state` if this CPU has the SHA extensions
    /// (and the SSSE3 / SSE4.1 shuffles the kernel uses); otherwise leave
    /// `state` alone and return false.
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) -> bool {
        // `std` caches the CPUID result: each test is one relaxed load.
        let available = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        if available {
            // SAFETY: `kernel` is a safe function whose only requirement
            // is that the CPU executes the `sha`, `ssse3` and `sse4.1`
            // instructions it was compiled with (`sse2` is part of the
            // x86-64 baseline), and exactly those three were detected on
            // this CPU on the line above. It dereferences no raw pointer.
            unsafe { kernel(state, blocks) };
        }
        available
    }

    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn kernel(state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert!(blocks.len().is_multiple_of(64));
        // Lane 3 is the leftmost letter: `sha256rnds2` wants the state as
        // the two vectors ABEF and CDGH.
        let [a, b, c, d, e, f, g, h] = state.map(|w| w as i32);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        // Big-endian message words from little-endian lanes.
        let byte_swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // Schedule words W[t..t+4] from the sixteen before them, oldest first.
        let next = |w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i| {
            let partial = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
            _mm_sha256msg2_epu32(partial, w3)
        };
        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let load = |i: usize| {
                let half =
                    |at: usize| i64::from_le_bytes(block[at..at + 8].try_into().expect("8 bytes"));
                _mm_shuffle_epi8(_mm_set_epi64x(half(16 * i + 8), half(16 * i)), byte_swap)
            };
            // Rounds 4i..4i+4 on the schedule words `w`.
            let mut rounds = |i: usize, w: __m128i| {
                let k = _mm_set_epi32(
                    K[4 * i + 3] as i32,
                    K[4 * i + 2] as i32,
                    K[4 * i + 1] as i32,
                    K[4 * i] as i32,
                );
                let wk = _mm_add_epi32(w, k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            };
            let (mut w0, mut w1, mut w2, mut w3) = (load(0), load(1), load(2), load(3));
            rounds(0, w0);
            rounds(1, w1);
            rounds(2, w2);
            rounds(3, w3);
            for i in [4, 8, 12] {
                w0 = next(w0, w1, w2, w3);
                rounds(i, w0);
                w1 = next(w1, w2, w3, w0);
                rounds(i + 1, w1);
                w2 = next(w2, w3, w0, w1);
                rounds(i + 2, w2);
                w3 = next(w3, w0, w1, w2);
                rounds(i + 3, w3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        let lanes = |v: __m128i| {
            [
                _mm_extract_epi32(v, 3) as u32,
                _mm_extract_epi32(v, 2) as u32,
                _mm_extract_epi32(v, 1) as u32,
                _mm_extract_epi32(v, 0) as u32,
            ]
        };
        let ([a, b, e, f], [c, d, g, h]) = (lanes(abef), lanes(cdgh));
        *state = [a, b, c, d, e, f, g, h];
    }
}

/// One-shot SHA-256: one compression call for a message of up to 247
/// bytes (see `sha256_concat`).
#[must_use]
pub fn sha256(data: &[u8]) -> Digest {
    sha256_concat(&[data])
}

#[cfg(test)]
mod tests {
    use super::*;

    type Compress = fn(&mut [u32; 8], &[u8]);

    /// Every compression path this CPU can run, called directly: the
    /// scalar one always, so it stays tested on a SHA-capable host, and the
    /// hardware one wherever it exists, whatever the dispatch would pick.
    fn paths() -> Vec<(&'static str, Compress)> {
        let mut paths: Vec<(&'static str, Compress)> = vec![("scalar", compress_blocks_scalar)];
        #[cfg(target_arch = "x86_64")]
        if sha_ni::compress_blocks(&mut [0; 8], &[]) {
            paths.push(("sha-ni", |state, blocks| {
                assert!(sha_ni::compress_blocks(state, blocks));
            }));
        }
        if paths.len() == 1 {
            eprintln!("note: no SHA extensions on this CPU; only the scalar path is tested");
        }
        paths
    }

    /// Hash the concatenation of `parts`, one `update` each, on one path.
    fn digest_on(compress: Compress, parts: &[&[u8]]) -> Digest {
        let mut h = Sha256::new();
        for part in parts {
            h.update_with(part, compress);
        }
        h.finalize_with(compress)
    }

    #[test]
    fn nist_vectors() {
        // FIPS 180-4 / NIST CAVP known-answer tests.
        let vectors: [(&[u8], &str); 3] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ];
        for (message, hex) in vectors {
            assert_eq!(sha256(message).to_hex(), hex, "dispatched");
            for (path, compress) in paths() {
                assert_eq!(digest_on(compress, &[message]).to_hex(), hex, "{path}");
            }
        }
    }

    #[test]
    fn million_a() {
        let chunk = [b'a'; 1000];
        let parts = vec![chunk.as_slice(); 1000];
        for (path, compress) in paths() {
            assert_eq!(
                digest_on(compress, &parts).to_hex(),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{path}"
            );
        }
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let oneshot = digest_on(compress_blocks_scalar, &[&data]);
        assert_eq!(sha256(&data), oneshot);
        for (path, compress) in paths() {
            for split in [0, 1, 63, 64, 65, 4096, 9999] {
                let (head, tail) = data.split_at(split);
                assert_eq!(
                    digest_on(compress, &[head, tail]),
                    oneshot,
                    "{path} split {split}"
                );
            }
        }
    }

    #[test]
    fn padding_boundaries() {
        // Byte-at-a-time against one-shot around the padding edges: 55 is
        // the longest message whose padding fits its own block, 56..=63
        // need a second block, 64 is an empty tail; 119/120 are the same
        // edges one block on.
        for len in (50..70).chain([55, 56, 63, 64, 119, 120]) {
            let data = vec![0xAB; len];
            let bytes: Vec<&[u8]> = data.chunks(1).collect();
            let oneshot = digest_on(compress_blocks_scalar, &[&data]);
            for (path, compress) in paths() {
                assert_eq!(digest_on(compress, &bytes), oneshot, "{path} len {len}");
                assert_eq!(digest_on(compress, &[&data]), oneshot, "{path} len {len}");
            }
        }
    }

    #[test]
    fn paths_agree_on_every_length_and_split() {
        let mut rng = harmony_common::DetRng::new(0x5a);
        let data: Vec<u8> = (0..300).map(|_| rng.next_u64() as u8).collect();
        for len in 0..=300 {
            let message = &data[..len];
            let reference = digest_on(compress_blocks_scalar, &[message]);
            assert_eq!(sha256(message), reference, "dispatched, len {len}");
            for (path, compress) in paths() {
                for split in 0..=len {
                    let (head, tail) = message.split_at(split);
                    assert_eq!(
                        digest_on(compress, &[head, tail]),
                        reference,
                        "{path} len {len} split {split}"
                    );
                }
            }
        }
    }

    #[test]
    fn one_shot_equals_streaming_on_every_layout() {
        // The layouts the state map and the Merkle tree hash, on each path:
        // a map leaf for every key length 0..=40 and value length 0..=300
        // (every padding edge, and past the stack buffer into the
        // streaming fallback), a priority per key, a Merkle leaf per
        // payload length, and the two fixed-size interior nodes.
        let mut rng = harmony_common::DetRng::new(0x1e);
        let data: Vec<u8> = (0..340).map(|_| rng.next_u64() as u8).collect();
        let (keys, values) = data.split_at(40);
        let [a, b, c] = [0x11u8, 0x22, 0x33].map(|byte| [byte; 32]);
        for (path, compress) in paths() {
            let check = |parts: &[&[u8]], what: &str| {
                assert_eq!(
                    concat_with(parts, compress),
                    digest_on(compress_blocks_scalar, parts),
                    "{path} {what}"
                );
            };
            for klen in 0..=40 {
                let key = &keys[..klen];
                check(&[key], &format!("priority, key {klen}"));
                let klen_le = (klen as u32).to_le_bytes();
                for vlen in 0..=300 {
                    let vlen_le = (vlen as u32).to_le_bytes();
                    let leaf: [&[u8]; 5] = [&[0x02], &klen_le, key, &vlen_le, &values[..vlen]];
                    check(&leaf, &format!("map leaf, key {klen} value {vlen}"));
                }
            }
            for len in 0..=300 {
                check(&[&[0x00], &data[..len]], &format!("merkle leaf {len}"));
            }
            check(&[&[0x03], &a, &b, &c], "map node");
            check(&[&[0x01], &a, &b], "merkle node");
        }
    }

    #[test]
    fn zero_digest() {
        assert_eq!(Digest::ZERO.0, [0u8; 32]);
        assert_ne!(sha256(b""), Digest::ZERO);
    }
}
