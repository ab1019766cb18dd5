//! SipHash-1-3 with fixed keys: the hash of every digest, dataset
//! fingerprint and intent key. Those values are persisted (cache
//! snapshots, trace JSONL) or compared across processes, so their
//! hash must not change with the toolchain, as `std`'s unspecified
//! `DefaultHasher` may. SipHash (Aumasson & Bernstein, 2012) with one
//! compression and three finalization rounds, keys `(0, 0)`, reading
//! little-endian words, is what `DefaultHasher::new()` ran when the
//! workspace switched, so persisted values stayed valid. Values feed
//! it through [`std::hash::Hasher`] (integers as native-endian bytes
//! on the little-endian hosts the workspace runs on).

use std::hash::Hasher;

/// A SipHash-1-3 state under the keys `(0, 0)` (see the module docs).
/// `Copy`, so a rolling digest can live in a `Cell`.
#[derive(Debug, Clone, Copy)]
pub struct SipHasher13 {
    v: [u64; 4],
    /// Message bytes not yet compressed, little-endian in the low
    /// `ntail` bytes.
    tail: u64,
    ntail: usize,
    /// Total message length in bytes (only its low byte is used).
    length: usize,
}

impl Default for SipHasher13 {
    fn default() -> SipHasher13 {
        SipHasher13::new()
    }
}

impl SipHasher13 {
    /// A fresh state under the keys `(0, 0)`.
    #[inline]
    pub const fn new() -> SipHasher13 {
        SipHasher13 {
            v: [
                0x736f_6d65_7073_6575,
                0x646f_7261_6e64_6f6d,
                0x6c79_6765_6e65_7261,
                0x7465_6462_7974_6573,
            ],
            tail: 0,
            ntail: 0,
            length: 0,
        }
    }

    /// Absorb the `size` ≤ 8 message bytes whose little-endian word is
    /// `x`: what `write` absorbs for them, without a loop over bytes.
    #[inline]
    fn short_write(&mut self, x: u64, size: usize) {
        self.length = self.length.wrapping_add(size);
        self.tail |= x << (8 * self.ntail);
        let filled = self.ntail + size;
        if filled < 8 {
            self.ntail = filled;
            return;
        }
        compress(&mut self.v, self.tail);
        self.ntail = filled - 8;
        // The bytes of `x` that did not fit the word just absorbed.
        self.tail = x.checked_shr(8 * (size - self.ntail) as u32).unwrap_or(0);
    }
}

/// Absorb one message word: a SipRound between two XORs.
#[inline]
fn compress(v: &mut [u64; 4], m: u64) {
    v[3] ^= m;
    sip_round(v);
    v[0] ^= m;
}

/// One SipRound, its two halves interleaved (measured faster than one
/// half after the other).
#[inline]
fn sip_round(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[2] = v[2].wrapping_add(v[3]);
    v[1] = v[1].rotate_left(13) ^ v[0];
    v[3] = v[3].rotate_left(16) ^ v[2];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[1]);
    v[0] = v[0].wrapping_add(v[3]);
    v[1] = v[1].rotate_left(17) ^ v[2];
    v[3] = v[3].rotate_left(21) ^ v[0];
    v[2] = v[2].rotate_left(32);
}

/// Up to 8 bytes as a little-endian word.
#[inline]
fn load_le(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .rev()
        .fold(0, |word, &b| (word << 8) | u64::from(b))
}

// Every method is `#[inline]`: fingerprints hash one value at a time
// from other crates, and an out-of-line call per value made a float
// column several times slower to hash than under `DefaultHasher`.
impl Hasher for SipHasher13 {
    #[inline]
    fn write(&mut self, msg: &[u8]) {
        let mut rest = msg;
        if self.ntail > 0 {
            let fill = (8 - self.ntail).min(rest.len());
            self.short_write(load_le(&rest[..fill]), fill);
            if self.ntail > 0 {
                return;
            }
            rest = &rest[fill..];
        }
        self.length = self.length.wrapping_add(rest.len());
        let (words, rest) = rest.as_chunks::<8>();
        for word in words {
            compress(&mut self.v, u64::from_le_bytes(*word));
        }
        self.tail = load_le(rest);
        self.ntail = rest.len();
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.short_write(i.into(), 1);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.short_write(i, 8);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.short_write(i as u64, std::mem::size_of::<usize>());
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut v = self.v;
        compress(&mut v, ((self.length as u64 & 0xff) << 56) | self.tail);
        v[2] ^= 0xff;
        for _ in 0..3 {
            sip_round(&mut v);
        }
        v[0] ^ v[1] ^ v[2] ^ v[3]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn sip<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut h = SipHasher13::new();
        value.hash(&mut h);
        h.finish()
    }

    /// A straight-line SipHash-1-3 over a whole message, written
    /// independently of the streaming state.
    fn sip_bytes_reference(msg: &[u8]) -> u64 {
        let mut v = SipHasher13::new().v;
        let mut words = msg.chunks_exact(8);
        for w in &mut words {
            let m = u64::from_le_bytes(w.try_into().unwrap());
            v[3] ^= m;
            sip_round(&mut v);
            v[0] ^= m;
        }
        let mut last = [0u8; 8];
        last[..words.remainder().len()].copy_from_slice(words.remainder());
        last[7] = msg.len() as u8;
        let b = u64::from_le_bytes(last);
        v[3] ^= b;
        sip_round(&mut v);
        v[0] ^= b;
        v[2] ^= 0xff;
        for _ in 0..3 {
            sip_round(&mut v);
        }
        v[0] ^ v[1] ^ v[2] ^ v[3]
    }

    #[test]
    fn split_writes_hash_like_one_write() {
        let msg: Vec<u8> = (0u8..=40).collect();
        for split in 0..msg.len() {
            for split2 in split..msg.len() {
                let mut h = SipHasher13::new();
                h.write(&msg[..split]);
                h.write(&msg[split..split2]);
                h.write(&msg[split2..]);
                assert_eq!(h.finish(), sip_bytes_reference(&msg), "{split}/{split2}");
            }
        }
    }

    #[test]
    fn integer_writes_hash_like_their_bytes() {
        let (mut ints, mut bytes) = (SipHasher13::new(), SipHasher13::new());
        for i in 0..40u64 {
            let x = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            match i % 5 {
                0 => (
                    ints.write_u8(x as u8),
                    bytes.write(&(x as u8).to_le_bytes()),
                ),
                1 => (
                    ints.write_u16(x as u16),
                    bytes.write(&(x as u16).to_le_bytes()),
                ),
                2 => (
                    ints.write_u32(x as u32),
                    bytes.write(&(x as u32).to_le_bytes()),
                ),
                3 => (ints.write_u64(x), bytes.write(&x.to_le_bytes())),
                _ => (
                    ints.write_usize(x as usize),
                    bytes.write(&(x as usize).to_le_bytes()),
                ),
            };
            assert_eq!(ints.finish(), bytes.finish(), "after {i}");
        }
    }

    #[derive(Hash)]
    enum Shape {
        Dot,
        Line(u8),
        Box { w: i64, h: i64 },
    }

    /// Literals computed with `std`'s `DefaultHasher::new()` on rustc
    /// 1.95 (x86-64): the specification above reproduces them bit for
    /// bit, and any later change to it shows up here.
    #[test]
    fn pinned_values_match_the_former_std_hasher() {
        assert_eq!(SipHasher13::new().finish(), 0xd1fb_a762_150c_532c);
        let mut h = SipHasher13::new();
        h.write(b"dp-score-cache");
        assert_eq!(h.finish(), 0x53b0_86a3_3ac8_a845);
        assert_eq!(h.finish(), sip_bytes_reference(b"dp-score-cache"));
        assert_eq!(sip("zip_code"), 0x89a2_3cbb_5939_d6b1);
        assert_eq!(sip(&usize::MAX), 0x2f20_5be2_fec8_e38d);
        assert_eq!(sip(&7u8), 0xfff3_eb0c_7071_97bf);
        assert_eq!(sip(&-3i64), 0x9e4a_4351_09d1_03c9);
        let ints: Vec<u64> = (0..37).map(|i| i * 0x9e37_79b9).collect();
        assert_eq!(sip(&ints), 0x299c_8873_abb3_2540);
        let strs = vec!["a".to_string(), String::new(), "zïp".into()];
        assert_eq!(sip(&strs), 0x348f_64f9_e096_a97e);
        assert_eq!(sip(&(true, Some(4u32), None::<u8>)), 0xed31_ef3b_b605_b107);
        assert_eq!(sip(&Shape::Dot), 0xbd60_acb6_58c7_9e45);
        assert_eq!(sip(&Shape::Line(9)), 0x88a8_deb1_4c39_f3bd);
        assert_eq!(sip(&Shape::Box { w: -1, h: 2 }), 0xe520_4976_3e53_3322);
    }
}
