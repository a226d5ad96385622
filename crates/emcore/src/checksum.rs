//! Per-block checksums for the file-backed device.
//!
//! The `Directory` backend stores an 8-byte checksum alongside every block
//! and verifies it on read, turning silent device corruption (injected by a
//! [`crate::FaultPlan`] or real-world bit rot) into a detectable
//! [`crate::EmError::Corrupt`] instead of wrong answers.
//!
//! The function reads the input as little-endian `u64` words and runs four
//! independent lanes over them, word `i` feeding lane `i mod 4` through
//! `h ← rotl((h ^ w)·P, R)` with `P` odd. The lanes are independent, so the
//! four multiplies of each 32-byte stripe overlap instead of forming one
//! dependency chain per byte. The sub-32-byte tail (its last word
//! zero-padded) continues the lanes, the lanes fold into a state seeded
//! with the byte length, and one SplitMix64 round finalises.
//!
//! Every step — lane update, fold, finaliser — is a bijection in the state
//! and in the word it absorbs, so any change confined to one aligned 8-byte
//! word (a flipped bit, a smashed byte, a zeroed word) *always* changes the
//! checksum, not just with high probability. The rotation carries each
//! product's high bits back down, so that errors in two words of one lane
//! do not cancel along the multiply's carry chain. Wider damage (torn
//! writes, scribbled runs) has no such proof; like any well-mixed 64-bit
//! checksum it is expected to slip through with probability about 2⁻⁶⁴.
//! It is not cryptographic, and it is deterministic across platforms, so
//! on-disk files are verifiable anywhere.

/// Lane multiplier (odd, so `h ↦ h·P` is a bijection mod 2⁶⁴).
const P: u64 = 0x9E37_79B9_7F4A_7C15;
/// Lane rotation after each multiply.
const R: u32 = 29;
/// Per-lane initial states: distinct, so a word moved between lanes shows.
const SEEDS: [u64; 4] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];

#[inline(always)]
fn step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(P).rotate_left(R)
}

#[inline(always)]
fn word(b: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w[..b.len()].copy_from_slice(b);
    u64::from_le_bytes(w)
}

/// 64-bit checksum of a byte slice (four-lane word hash + SplitMix64
/// finaliser); see the module docs for its detection guarantee.
#[inline]
pub fn block_checksum(bytes: &[u8]) -> u64 {
    let mut lanes = SEEDS;
    let mut stripes = bytes.chunks_exact(32);
    for s in &mut stripes {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = step(*lane, word(&s[i * 8..i * 8 + 8]));
        }
    }
    for (lane, w) in lanes.iter_mut().zip(stripes.remainder().chunks(8)) {
        *lane = step(*lane, word(w));
    }
    let mut h = bytes.len() as u64;
    for lane in lanes {
        h = step(h, lane);
    }
    // SplitMix64 finaliser: full avalanche, so a one-bit flip changes
    // about half the stored bits.
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One full 8 KiB block with a byte pattern that differs per word.
    fn patterned() -> Vec<u8> {
        (0..8192u32).map(|i| (i * 31 + (i >> 8)) as u8).collect()
    }

    #[test]
    fn deterministic() {
        assert_eq!(block_checksum(b"hello"), block_checksum(b"hello"));
    }

    #[test]
    fn known_answers_pin_the_format() {
        // These values are the on-disk format: a change here makes every
        // stored block unreadable, and needs a journal format bump.
        let zeros = |n: usize| vec![0u8; n];
        let bytes = |n: usize| (0..n as u8).collect::<Vec<_>>();
        let cases: [(&str, Vec<u8>, u64); 7] = [
            ("empty", zeros(0), 0x872f_ae7b_0c21_86a7),
            ("one", bytes(1), 0x48a8_b7a0_7016_9b53),
            ("31", bytes(31), 0xc061_4e4d_28a1_e52f),
            ("32", bytes(32), 0xaa7f_7d10_b5ca_7f21),
            ("33", bytes(33), 0x797d_44a1_e22d_8aec),
            ("32 zeros", zeros(32), 0x8e91_db98_ead0_b356),
            ("8 KiB", patterned(), 0xa586_caea_c647_d127),
        ];
        for (name, input, want) in cases {
            assert_eq!(block_checksum(&input), want, "{name}");
        }
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let mut short_tail = patterned();
        short_tail.truncate(8192 - 5);
        // Every tail length after zero, one or two stripes, then full-block
        // buffers with and without a tail.
        let short = (1..=64u8).map(|n| (0..n).collect::<Vec<u8>>());
        for a in short.chain([vec![0u8; 128], patterned(), short_tail]) {
            let sum = block_checksum(&a);
            // Every bit of a short buffer, of the first stripe (each lane)
            // and of the last 64 bytes (the last stripe and any tail); one
            // bit per byte elsewhere, cycling through bit positions.
            for i in 0..a.len() {
                let every_bit = a.len() <= 128 || i < 32 || i >= a.len() - 64;
                for bit in 0..8 {
                    if !every_bit && bit != i % 8 {
                        continue;
                    }
                    let mut b = a.clone();
                    b[i] ^= 1 << bit;
                    assert_ne!(
                        sum,
                        block_checksum(&b),
                        "len {} byte {i} bit {bit}",
                        a.len()
                    );
                }
            }
        }
    }

    #[test]
    fn any_change_within_one_word_is_detected() {
        let a = patterned();
        let sum = block_checksum(&a);
        for w in (0..a.len() / 8)
            .step_by(37)
            .chain([0, 1, 2, 3, 1020, 1021, 1022, 1023])
        {
            for delta in [1u64, 0x80 << 56, u64::MAX, 0x0123_4567_89AB_CDEF] {
                let mut b = a.clone();
                let old = u64::from_le_bytes(b[w * 8..w * 8 + 8].try_into().unwrap());
                b[w * 8..w * 8 + 8].copy_from_slice(&(old ^ delta).to_le_bytes());
                assert_ne!(sum, block_checksum(&b), "word {w} delta {delta:#x}");
            }
        }
    }

    #[test]
    fn top_bit_flips_in_two_words_of_one_lane_do_not_cancel() {
        // Without the rotation, a flip of bit 63 only ever moves bit 63 of
        // the lane, so a second bit-63 flip four words later cancels it.
        let a = patterned();
        let mut b = a.clone();
        b[7] ^= 0x80;
        b[32 + 7] ^= 0x80;
        assert_ne!(block_checksum(&a), block_checksum(&b));
    }

    #[test]
    fn length_extension_distinct() {
        let sums: Vec<u64> = (0..=64).map(|n| block_checksum(&vec![0u8; n])).collect();
        for (i, a) in sums.iter().enumerate() {
            for (j, b) in sums.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "zero-filled lengths {i} and {j} collide");
            }
        }
    }
}
