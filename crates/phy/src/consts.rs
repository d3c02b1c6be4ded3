//! Constants of the IEEE 802.15.4-2003 physical layer, 2 450 MHz band.
//!
//! All durations are also provided as [`Seconds`] helpers so the rest of the
//! workspace never hand-computes microsecond values.

use wsn_units::Seconds;

/// Chip rate of the 2 450 MHz DSSS PHY: 2 Mchip/s.
pub const CHIP_RATE_CHIPS_PER_SEC: f64 = 2_000_000.0;

/// Number of chips in one pseudo-noise sequence (one data symbol).
pub const CHIPS_PER_SYMBOL: u32 = 32;

/// Symbol period `T_S` = 16 µs.
pub const SYMBOL_PERIOD_US: f64 = 16.0;

/// Byte period `T_B` = 32 µs (two symbols per byte).
pub const BYTE_PERIOD_US: f64 = 32.0;

/// Number of channels in the 2 450 MHz band.
pub const NUM_CHANNELS_2450: u8 = 16;

/// Maximum data payload the paper works with (123 bytes), i.e. the MPDU
/// capacity left after the paper's 13-byte PHY+MAC overhead less the
/// preamble and SFD which precede the MPDU.
pub const MAX_PAPER_PAYLOAD: usize = 123;

/// PHY preamble length in bytes (4 bytes of zeros).
pub const PREAMBLE_BYTES: usize = 4;

/// Start-of-frame delimiter length in bytes.
pub const SFD_BYTES: usize = 1;

/// PHY header (frame length field) in bytes.
pub const PHR_BYTES: usize = 1;

/// Synchronization header (preamble + SFD) in bytes.
pub const SHR_BYTES: usize = PREAMBLE_BYTES + SFD_BYTES;

/// Returns the duration of a transmission of `n` symbols.
#[inline]
pub fn symbols(n: u32) -> Seconds {
    Seconds::from_micros(SYMBOL_PERIOD_US * n as f64)
}

/// Returns the duration of a transmission of `n` bytes.
#[inline]
pub fn bytes(n: usize) -> Seconds {
    Seconds::from_micros(BYTE_PERIOD_US * n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates_match_standard() {
        // 62.5 ksymbol/s from the chip rate, 250 kb/s from the byte period.
        assert_eq!(CHIP_RATE_CHIPS_PER_SEC / CHIPS_PER_SYMBOL as f64, 62_500.0);
        assert_eq!(8.0 / (BYTE_PERIOD_US * 1e-6), 250_000.0);
    }

    #[test]
    fn periods_match_paper() {
        assert!((symbols(1).micros() - 16.0).abs() < 1e-12);
        assert!((bytes(1).micros() - 32.0).abs() < 1e-12);
        // One symbol carries 32 chips at 2 Mchip/s: 16 µs. Consistency:
        let from_chips = CHIPS_PER_SYMBOL as f64 / CHIP_RATE_CHIPS_PER_SEC * 1e6;
        assert!((from_chips - SYMBOL_PERIOD_US).abs() < 1e-12);
    }

    #[test]
    fn packet_duration_helpers() {
        // The paper: a maximal 123-byte payload packet (133 bytes total)
        // takes 4.256 ms; a byte takes 32 µs.
        assert!((bytes(133).millis() - 4.256).abs() < 1e-9);
        assert!((symbols(20).micros() - 320.0).abs() < 1e-9);
    }

    #[test]
    fn header_sizes() {
        assert_eq!(SHR_BYTES, 5);
        assert_eq!(SHR_BYTES + PHR_BYTES, 6);
    }
}
