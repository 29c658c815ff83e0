//! SipHash-1-3 with a zero key: the set-selection hash of [`SetAssoc`].
//!
//! It hashes the same byte stream as std's `DefaultHasher::new()` (integers
//! are fed as their native-endian bytes), so both give the same value for
//! every key.  Keeping the algorithm in the tree pins the TLB, MMU-cache and
//! nTLB set indices, which std does not promise for its hasher, and lets
//! integer writes take a word-at-a-time path that std's byte-slice `write`
//! does not have.
//!
//! [`SetAssoc`]: crate::SetAssoc

use std::hash::Hasher;

/// Streaming SipHash-1-3 state (one compression round per message word,
/// three finalisation rounds).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SipHasher13 {
    v0: u64,
    v1: u64,
    v2: u64,
    v3: u64,
    /// Up to seven message bytes not yet compressed, little-endian.
    tail: u64,
    /// Valid bytes in `tail`.
    ntail: usize,
    /// Message bytes written so far.
    length: usize,
}

impl Default for SipHasher13 {
    /// The zero-key state.
    fn default() -> Self {
        Self {
            v0: 0x736f_6d65_7073_6575,
            v1: 0x646f_7261_6e64_6f6d,
            v2: 0x6c79_6765_6e65_7261,
            v3: 0x7465_6462_7974_6573,
            tail: 0,
            ntail: 0,
            length: 0,
        }
    }
}

impl SipHasher13 {
    #[inline(always)]
    fn round(&mut self) {
        self.v0 = self.v0.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(13) ^ self.v0;
        self.v0 = self.v0.rotate_left(32);
        self.v2 = self.v2.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(16) ^ self.v2;
        self.v0 = self.v0.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(21) ^ self.v0;
        self.v2 = self.v2.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(17) ^ self.v2;
        self.v2 = self.v2.rotate_left(32);
    }

    #[inline(always)]
    fn compress(&mut self, word: u64) {
        self.v3 ^= word;
        self.round();
        self.v0 ^= word;
    }

    /// Appends `size` (1 to 8) message bytes, given as the little-endian
    /// value `bytes`.
    #[inline(always)]
    fn short_write(&mut self, bytes: u64, size: usize) {
        debug_assert!((1..=8).contains(&size));
        self.length += size;
        self.tail |= bytes << (8 * self.ntail);
        let needed = 8 - self.ntail;
        if size < needed {
            self.ntail += size;
            return;
        }
        self.compress(self.tail);
        self.ntail = size - needed;
        self.tail = if needed < 8 { bytes >> (8 * needed) } else { 0 };
    }
}

impl Hasher for SipHasher13 {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.short_write(u64::from_le_bytes(word), chunk.len());
        }
    }

    // The integer widths the structures' keys use.  Each integer is the
    // little-endian reading of its native-endian bytes, which is what
    // `Hasher::write` would have been handed; other widths take `write`.
    #[inline(always)]
    fn write_u8(&mut self, i: u8) {
        self.short_write(u64::from(i), 1);
    }

    #[inline(always)]
    fn write_u32(&mut self, i: u32) {
        self.short_write(u64::from(i.to_le()), 4);
    }

    #[inline(always)]
    fn write_u64(&mut self, i: u64) {
        self.short_write(i.to_le(), 8);
    }

    #[inline(always)]
    fn finish(&self) -> u64 {
        let mut state = *self;
        let last = ((self.length as u64 & 0xff) << 56) | self.tail;
        state.compress(last);
        state.v2 ^= 0xff;
        state.round();
        state.round();
        state.round();
        state.v0 ^ state.v1 ^ state.v2 ^ state.v3
    }
}
