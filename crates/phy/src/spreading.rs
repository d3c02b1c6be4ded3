//! Direct-sequence spread spectrum: the 16 pseudo-noise sequences of the
//! 2 450 MHz PHY and a hard-decision correlation receiver.
//!
//! Each 4-bit data symbol is mapped onto one of 16 nearly-orthogonal 32-chip
//! sequences (IEEE 802.15.4-2003, Table 24). Sequences are stored bit-packed
//! in a `u32` with chip `c0` in the least-significant bit.
//!
//! The standard's table has compact structure which we exploit and verify in
//! tests:
//!
//! * sequences 1–7 are cyclic shifts of sequence 0 by 4·k chips;
//! * sequences 8–15 are sequences 0–7 with every odd-indexed chip inverted
//!   (a conjugation in the half-sine O-QPSK constellation).

use crate::consts::CHIPS_PER_SYMBOL;

/// Chip sequence for data symbol 0, chips `c0..c31`, `c0` in the LSB.
///
/// The canonical chip string from the standard is
/// `1101 1001 1100 0011 0101 0010 0010 1110` (c0 first).
const SYMBOL0_CHIPS: u32 = pack_chips(*b"11011001110000110101001000101110");

/// Mask of the odd-indexed chips (`c1, c3, …, c31`).
const ODD_CHIP_MASK: u32 = 0xAAAA_AAAA;

/// Packs a 32-character ASCII chip string (`c0` first) into a `u32`.
const fn pack_chips(s: [u8; 32]) -> u32 {
    let mut word = 0u32;
    let mut i = 0;
    while i < 32 {
        if s[i] == b'1' {
            word |= 1 << i;
        }
        i += 1;
    }
    word
}

/// A 4-bit data symbol (one hexadecimal digit of the PSDU).
///
/// # Examples
///
/// ```
/// use wsn_phy::spreading::Symbol;
///
/// let s = Symbol::new(0xA).unwrap();
/// assert_eq!(s.value(), 0xA);
/// assert!(Symbol::new(16).is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u8);

impl Symbol {
    /// Creates a symbol from a nibble value; `None` if `v > 15`.
    #[inline]
    pub fn new(v: u8) -> Option<Self> {
        (v < 16).then_some(Symbol(v))
    }

    /// Returns the nibble value.
    #[inline]
    pub fn value(self) -> u8 {
        self.0
    }

    /// Iterates over all 16 symbols in order.
    pub fn all() -> impl Iterator<Item = Symbol> {
        (0u8..16).map(Symbol)
    }
}

/// A 32-chip pseudo-noise sequence, bit-packed with chip `c0` in the LSB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChipSequence(u32);

impl ChipSequence {
    /// Returns the chip sequence assigned to a data symbol by the standard.
    ///
    /// ```
    /// use wsn_phy::spreading::{ChipSequence, Symbol};
    ///
    /// let seq = ChipSequence::for_symbol(Symbol::new(0).unwrap());
    /// let chips: Vec<f64> = seq.antipodal().collect();
    /// assert_eq!(chips[0], 1.0); // c0 = 1
    /// assert_eq!(chips[2], -1.0); // c2 = 0
    /// ```
    #[inline]
    pub fn for_symbol(symbol: Symbol) -> Self {
        let base = symbol.value() & 0x7;
        let mut chips = SYMBOL0_CHIPS.rotate_left(4 * base as u32);
        if symbol.value() >= 8 {
            chips ^= ODD_CHIP_MASK;
        }
        ChipSequence(chips)
    }

    /// Creates a sequence from raw packed chips (`c0` in the LSB).
    #[inline]
    pub fn from_raw(chips: u32) -> Self {
        ChipSequence(chips)
    }

    /// Returns the Hamming distance to another sequence.
    #[inline]
    pub fn hamming_distance(self, other: ChipSequence) -> u32 {
        (self.0 ^ other.0).count_ones()
    }

    /// Returns the correlation (number of agreeing chips, `0..=32`).
    #[inline]
    pub fn correlation(self, other: ChipSequence) -> u32 {
        CHIPS_PER_SYMBOL - self.hamming_distance(other)
    }

    /// Iterates over chips as `±1.0` antipodal values (`1 → +1`).
    pub fn antipodal(self) -> impl Iterator<Item = f64> {
        (0..CHIPS_PER_SYMBOL).map(move |i| if (self.0 >> i) & 1 == 1 { 1.0 } else { -1.0 })
    }
}

/// Hard-decision despreader: returns the symbol whose sequence has maximum
/// correlation with the received chips.
///
/// Ties are broken toward the lowest symbol value so decoding is
/// deterministic.
///
/// # Examples
///
/// ```
/// use wsn_phy::spreading::{despread, ChipSequence, Symbol};
///
/// let tx = Symbol::new(0x7).unwrap();
/// let clean = ChipSequence::for_symbol(tx);
/// let rx = ChipSequence::from_raw(0xB744_AC39 ^ 0b1011); // three chips corrupted
/// assert_eq!(rx.hamming_distance(clean), 3);
/// assert_eq!(despread(rx), tx);
/// ```
pub fn despread(received: ChipSequence) -> Symbol {
    let mut best = Symbol(0);
    let mut best_corr = 0u32;
    for symbol in Symbol::all() {
        let corr = ChipSequence::for_symbol(symbol).correlation(received);
        if corr > best_corr {
            best_corr = corr;
            best = symbol;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Full Table 24 of IEEE 802.15.4-2003 (chips c0 first).
    const TABLE24: [&str; 16] = [
        "11011001110000110101001000101110",
        "11101101100111000011010100100010",
        "00101110110110011100001101010010",
        "00100010111011011001110000110101",
        "01010010001011101101100111000011",
        "00110101001000101110110110011100",
        "11000011010100100010111011011001",
        "10011100001101010010001011101101",
        "10001100100101100000011101111011",
        "10111000110010010110000001110111",
        "01111011100011001001011000000111",
        "01110111101110001100100101100000",
        "00000111011110111000110010010110",
        "01100000011101111011100011001001",
        "10010110000001110111101110001100",
        "11001001011000000111011110111000",
    ];

    fn seq_from_str(s: &str) -> ChipSequence {
        let mut raw = 0u32;
        for (i, c) in s.bytes().enumerate() {
            if c == b'1' {
                raw |= 1 << i;
            }
        }
        ChipSequence::from_raw(raw)
    }

    #[test]
    fn all_sixteen_sequences_match_standard_table() {
        for (i, expect) in TABLE24.iter().enumerate() {
            let sym = Symbol::new(i as u8).unwrap();
            let got = ChipSequence::for_symbol(sym);
            assert_eq!(
                got,
                seq_from_str(expect),
                "symbol {i}: got {got:?}, expected {expect}"
            );
        }
    }

    #[test]
    fn sequences_are_distinct() {
        for a in Symbol::all() {
            for b in Symbol::all() {
                if a != b {
                    assert_ne!(
                        ChipSequence::for_symbol(a),
                        ChipSequence::for_symbol(b),
                        "symbols {a:?} and {b:?} share a sequence"
                    );
                }
            }
        }
    }

    #[test]
    fn minimum_distance_supports_error_correction() {
        // The family's minimum pairwise Hamming distance, the
        // error-correction head-room of the hard-decision receiver: enough
        // to correct at least 5 chip errors per symbol.
        let mut min = CHIPS_PER_SYMBOL;
        for a in Symbol::all() {
            for b in Symbol::all() {
                if a < b {
                    let d =
                        ChipSequence::for_symbol(a).hamming_distance(ChipSequence::for_symbol(b));
                    min = min.min(d);
                }
            }
        }
        assert!(min >= 12);
    }

    #[test]
    fn despread_clean_chips_is_identity() {
        for s in Symbol::all() {
            assert_eq!(despread(ChipSequence::for_symbol(s)), s);
        }
    }

    #[test]
    fn despread_corrects_up_to_five_chip_errors() {
        // With d_min >= 12, any 5 chip errors leave the transmitted sequence
        // strictly closest.
        let corruption = 0b10010010_01000001_u32; // 5 bits set
        assert_eq!(corruption.count_ones(), 5);
        for s in Symbol::all() {
            let rx = ChipSequence::from_raw(ChipSequence::for_symbol(s).0 ^ corruption);
            assert_eq!(despread(rx), s, "symbol {s:?} not corrected");
        }
        // And every random pattern of at most five chip errors.
        let mut rng = crate::noise::SplitMix64::new(0xC41F);
        for case in 0..2000 {
            let s = Symbol::new((rng.next_u64() % 16) as u8).unwrap();
            let mut raw = ChipSequence::for_symbol(s).0;
            for _ in 0..rng.next_u64() % 6 {
                raw ^= 1 << (rng.next_u64() % 32);
            }
            assert_eq!(despread(ChipSequence::from_raw(raw)), s, "case {case}");
        }
    }

    #[test]
    fn mean_bit_errors_matches_closed_form() {
        // The mean number of bit errors of decoding to a uniformly random
        // wrong symbol: over all ordered pairs of distinct nibbles, the mean
        // Hamming distance is 4·8/15 + ... = 32/15 ≈ 2.1333.
        let mut total = 0u32;
        for a in Symbol::all() {
            for b in Symbol::all() {
                if a != b {
                    total += (a.value() ^ b.value()).count_ones();
                }
            }
        }
        let m = total as f64 / (16.0 * 15.0);
        assert!((m - 32.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn antipodal_maps_bits() {
        let s = ChipSequence::for_symbol(Symbol::new(0).unwrap());
        let v: Vec<f64> = s.antipodal().collect();
        assert_eq!(v.len(), 32);
        assert_eq!(v[0], 1.0); // c0 = 1
        assert_eq!(v[2], -1.0); // c2 = 0
    }

    #[test]
    fn correlation_and_distance_are_complementary() {
        let a = ChipSequence::for_symbol(Symbol::new(3).unwrap());
        let b = ChipSequence::for_symbol(Symbol::new(12).unwrap());
        assert_eq!(a.correlation(b) + a.hamming_distance(b), 32);
        assert_eq!(a.correlation(a), 32);
    }
}
