//! The journal's hash chain: a two-lane, word-at-a-time multiplicative
//! mixer over (predecessor hash ‖ payload length ‖ payload).
//!
//! Each journal record stores a [`ChainHash`] computed from the previous
//! record's hash and its own payload, so the whole file is one linked
//! commitment: flipping any single byte of any record — payload, length
//! prefix, or stored hash — breaks verification at that record, and the
//! records before it remain provably intact.
//!
//! # The mixer
//!
//! A [`Mixer`] holds two 64-bit lanes. It reads its input as
//! little-endian `u64` words, and for each word `w` each lane does
//!
//! ```text
//! h = (h ^ w) · M        (mod 2⁶⁴, M odd)
//! h = h ^ (h >> s)
//! ```
//!
//! with its own multiplier `M` and shift `s`. Both lanes advance in the
//! same loop: a lane's step waits on its own multiply, so two lanes cost
//! barely more than one, and the payload is walked once.
//!
//! **Why a changed word always changes both halves.** For a fixed word,
//! each of the three operations — XOR with a constant, multiplication by
//! an odd number modulo 2⁶⁴, XOR with the own right-shift — is a
//! bijection of the lane's state, so the step is one; and for a fixed
//! state, `h ^ w` is a bijection of the word. Two inputs that differ in
//! one word only therefore leave that step in different states, every
//! later step maps different states to different states, and the final
//! halves differ — in each lane on its own. This is the guarantee a
//! byte-at-a-time hash gives for a byte, restated for eight.
//!
//! **Why the fold.** Without `h ^= h >> s` the step is `(h ^ w) · M`,
//! and a flip of bit 63 of one word changes the state by exactly 2⁶³:
//! XOR and addition agree on the top bit, and 2⁶³ · M ≡ 2⁶³ for every
//! odd `M`. That difference survives every later step unchanged, so a
//! second bit-63 flip in any later word cancels it — in *both* lanes,
//! whatever their multipliers. The fold moves the top bits down where
//! the next multiply spreads them; the exhaustive two-flip test below
//! finds no cancelling pair with it and fails without it.
//!
//! **Why the length is mixed in.** A final partial word is zero-padded,
//! so `b"ab"` and `b"ab\0"` present the same words; mixing the byte
//! length in before the bytes tells them apart, and makes a sequence of
//! [`Mixer::bytes`] calls hash differently from one call over the
//! concatenation.
//!
//! The same mixer backs `setagree-core`'s stable cache keys — one hash
//! for every durable artifact in the workspace. It detects accidents
//! (torn writes, bit rot, a file that is not ours); it is not a
//! cryptographic commitment.

/// The `lo` lane's starting state (the FNV-1a offset basis).
const BASIS_LO: u64 = 0xCBF2_9CE4_8422_2325;
/// The `hi` lane's starting state.
const BASIS_HI: u64 = 0x6C62_272E_07BB_0142;
/// The lanes' multipliers: odd, so multiplying is a bijection.
const MUL_LO: u64 = 0xC2B2_AE3D_27D4_EB4F;
const MUL_HI: u64 = 0x9E37_79B9_7F4A_7C15;
/// How far each lane folds its high bits back.
const FOLD_LO: u32 = 29;
const FOLD_HI: u32 = 32;

/// A 128-bit chain link: the two lanes of a [`Mixer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChainHash {
    /// The `hi` lane.
    pub hi: u64,
    /// The `lo` lane.
    pub lo: u64,
}

/// The chain's starting point: the hash "before" the first record, fixed
/// so that two journals holding the same records hash identically.
pub const GENESIS: ChainHash = ChainHash {
    hi: BASIS_HI,
    lo: BASIS_LO,
};

/// The workspace's one durable hash: two multiplicative lanes fed one
/// little-endian `u64` word at a time (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct Mixer {
    hi: u64,
    lo: u64,
}

impl Default for Mixer {
    fn default() -> Self {
        Mixer::new()
    }
}

impl Mixer {
    /// A mixer in its fixed starting state.
    pub fn new() -> Self {
        Mixer {
            hi: BASIS_HI,
            lo: BASIS_LO,
        }
    }

    /// Mixes one word into both lanes.
    #[inline]
    pub fn word(&mut self, w: u64) {
        let hi = (self.hi ^ w).wrapping_mul(MUL_HI);
        let lo = (self.lo ^ w).wrapping_mul(MUL_LO);
        self.hi = hi ^ (hi >> FOLD_HI);
        self.lo = lo ^ (lo >> FOLD_LO);
    }

    /// Mixes a byte string in: its length, then its bytes as
    /// little-endian words, a final partial word zero-padded.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.word(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(last));
        }
    }

    /// The two lanes as they stand.
    pub fn finish(&self) -> ChainHash {
        ChainHash {
            hi: self.hi,
            lo: self.lo,
        }
    }
}

impl ChainHash {
    /// The next link: this link's two halves, then `payload` (length
    /// first), through a fresh [`Mixer`].
    #[must_use]
    pub fn extend(self, payload: &[u8]) -> ChainHash {
        let mut mixer = Mixer::new();
        mixer.word(self.hi);
        mixer.word(self.lo);
        mixer.bytes(payload);
        mixer.finish()
    }

    /// The hash's 16-byte wire form (`hi` then `lo`, little-endian).
    pub fn to_le_bytes(self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.hi.to_le_bytes());
        out[8..].copy_from_slice(&self.lo.to_le_bytes());
        out
    }

    /// Reads a hash back from its wire form.
    pub fn from_le_bytes(bytes: [u8; 16]) -> ChainHash {
        ChainHash {
            hi: u64::from_le_bytes(bytes[..8].try_into().expect("eight bytes")),
            lo: u64::from_le_bytes(bytes[8..].try_into().expect("eight bytes")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Six words of payload with no structure the mixer could like.
    fn six_words() -> Vec<u8> {
        (0..48u8)
            .map(|i| i.wrapping_mul(37).wrapping_add(11))
            .collect()
    }

    fn assert_both_halves_differ(a: ChainHash, b: ChainHash, what: &str) {
        assert!(a.hi != b.hi && a.lo != b.lo, "{what}: {a:?} vs {b:?}");
    }

    #[test]
    fn extend_is_deterministic_and_order_sensitive() {
        let a = GENESIS.extend(b"one").extend(b"two");
        let b = GENESIS.extend(b"one").extend(b"two");
        assert_eq!(a, b);
        assert_ne!(a, GENESIS.extend(b"two").extend(b"one"));
        assert_ne!(a.hi, a.lo, "the halves walk independently");
    }

    #[test]
    fn any_single_byte_flip_changes_the_hash() {
        let payload = b"the quick brown fox".to_vec();
        let baseline = GENESIS.extend(&payload);
        for i in 0..payload.len() {
            let mut tampered = payload.clone();
            tampered[i] ^= 0xFF;
            assert_ne!(GENESIS.extend(&tampered), baseline, "flip at {i}");
        }
    }

    /// The bijection argument, checked bit by bit over a payload of five
    /// whole words and a partial one.
    #[test]
    fn any_single_bit_flip_changes_both_halves() {
        let mut payload = six_words();
        payload.truncate(43);
        let baseline = GENESIS.extend(&payload);
        for bit in 0..payload.len() * 8 {
            let mut tampered = payload.clone();
            tampered[bit / 8] ^= 1 << (bit % 8);
            assert_both_halves_differ(GENESIS.extend(&tampered), baseline, &format!("bit {bit}"));
        }
    }

    /// The cancellation the fold prevents: without it, flipping bit 63
    /// of two different words leaves both halves as they were.
    #[test]
    fn no_two_bit_flips_in_different_words_cancel() {
        let payload = six_words();
        let baseline = GENESIS.extend(&payload);
        let flipped = |bits: [usize; 2]| {
            let mut tampered = payload.clone();
            for bit in bits {
                tampered[bit / 8] ^= 1 << (bit % 8);
            }
            GENESIS.extend(&tampered)
        };
        let bits = payload.len() * 8;
        for first in 0..bits {
            for second in (first / 64 + 1) * 64..bits {
                assert_both_halves_differ(
                    flipped([first, second]),
                    baseline,
                    &format!("bits {first} and {second}"),
                );
            }
        }
    }

    #[test]
    fn trailing_zero_bytes_change_the_link() {
        for payload in [&b""[..], b"ab", b"eight by", b"eight bytes and"] {
            let mut padded = payload.to_vec();
            for _ in 0..9 {
                padded.push(0);
                assert_both_halves_differ(
                    GENESIS.extend(&padded),
                    GENESIS.extend(payload),
                    &format!("{payload:?} padded to {} bytes", padded.len()),
                );
            }
        }
    }

    #[test]
    fn one_record_is_not_two_records_of_its_halves() {
        let whole = six_words();
        for cut in [0, 5, 8, 24, 47, 48] {
            let (a, b) = whole.split_at(cut);
            assert_both_halves_differ(
                GENESIS.extend(&whole),
                GENESIS.extend(a).extend(b),
                &format!("cut at {cut}"),
            );
        }
    }

    /// The durable format, pinned: a change of the mixer, its constants
    /// or `extend`'s framing must fail here rather than silently turn
    /// every journal on disk into a corrupted one.
    #[test]
    fn the_chain_format_is_pinned() {
        assert_eq!(
            GENESIS.extend(b"setagree"),
            ChainHash {
                hi: 0x5A57_6CD2_8EDA_2580,
                lo: 0x0B47_DDFC_C87D_B477,
            }
        );
    }

    #[test]
    fn wire_form_round_trips() {
        let h = GENESIS.extend(b"payload");
        assert_eq!(ChainHash::from_le_bytes(h.to_le_bytes()), h);
    }

    #[test]
    fn empty_payload_still_advances_the_chain() {
        assert_ne!(GENESIS.extend(b""), GENESIS);
        assert_ne!(GENESIS.extend(b"").extend(b""), GENESIS.extend(b""));
    }
}
