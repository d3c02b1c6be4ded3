//! The paper's packet-size and airtime accounting.
//!
//! The model and the simulator treat a frame only as a size and an
//! airtime. [`PacketLayout`] is the paper's accounting: a total PHY+MAC
//! overhead of `L_o = 13` bytes on top of the payload (preamble 4 + SFD 1 +
//! PHR 1 + frame control 2 + sequence 1 + short addresses 4), with the
//! 2-byte FCS not counted. Every equation of the paper is expressed in terms
//! of `L_o + L`, so counting the FCS here would shift every reproduced
//! figure. [`ack_duration`] and [`beacon_duration`] give the airtime of the
//! two fixed-size frames.

use core::fmt;

use wsn_units::Seconds;

use crate::consts::{self, BYTE_PERIOD_US, PHR_BYTES, SHR_BYTES};

/// Error raised by [`PacketLayout::with_payload`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The MPDU would exceed `aMaxPHYPacketSize` (127 bytes).
    TooLong(usize),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooLong(n) => {
                write!(f, "mpdu of {n} bytes exceeds aMaxPHYPacketSize (127)")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// The paper's PHY+MAC overhead `L_o` in bytes: preamble 4 + SFD 1 + PHR 1 +
/// frame control 2 + sequence 1 + short addresses 4. The paper does not count
/// the FCS.
pub const PAPER_OVERHEAD_BYTES: usize = 13;

/// Bytes of the packet that are acquired before bit decisions matter (the
/// synchronization preamble), excluded from error exposure in eq. (10).
pub const PAPER_PREAMBLE_BYTES: usize = 4;

/// The paper's packet-size accounting: a payload of `L` bytes plus the fixed
/// `L_o = 13`-byte overhead.
///
/// All model equations consume this type: `T_packet = (L_o + L)·T_B`
/// (eq. 3) and the error-exposed bit count `8·(L_packet − 4)` (eq. 10).
///
/// # Examples
///
/// ```
/// use wsn_phy::frame::PacketLayout;
///
/// let packet = PacketLayout::with_payload(120)?;
/// assert_eq!(packet.total_bytes(), 133);
/// assert!((packet.duration().millis() - 4.256).abs() < 1e-9);
/// assert_eq!(packet.error_exposed_bits(), 8 * 129);
/// # Ok::<(), wsn_phy::frame::FrameError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketLayout {
    payload_bytes: usize,
}

impl PacketLayout {
    /// Creates a layout for a payload of `L` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::TooLong`] if `L` exceeds the paper's maximum of
    /// 123 bytes.
    pub fn with_payload(payload_bytes: usize) -> Result<Self, FrameError> {
        if payload_bytes > consts::MAX_PAPER_PAYLOAD {
            return Err(FrameError::TooLong(
                payload_bytes.saturating_add(PAPER_OVERHEAD_BYTES),
            ));
        }
        Ok(PacketLayout { payload_bytes })
    }

    /// Payload size `L` in bytes.
    #[inline]
    pub fn payload_bytes(self) -> usize {
        self.payload_bytes
    }

    /// Payload size in bits.
    #[inline]
    pub fn payload_bits(self) -> usize {
        self.payload_bytes * 8
    }

    /// Total packet size `L_packet = L_o + L` in bytes.
    #[inline]
    pub fn total_bytes(self) -> usize {
        self.payload_bytes + PAPER_OVERHEAD_BYTES
    }

    /// On-air duration `T_packet = (L_o + L)·T_B` (paper eq. 3).
    #[inline]
    pub fn duration(self) -> Seconds {
        Seconds::from_micros(self.total_bytes() as f64 * BYTE_PERIOD_US)
    }

    /// Number of bits exposed to channel errors: `8·(L_packet − 4)`
    /// (paper eq. 10 — the preamble does not carry decodable data).
    #[inline]
    pub fn error_exposed_bits(self) -> u32 {
        8 * (self.total_bytes() - PAPER_PREAMBLE_BYTES) as u32
    }
}

/// On-air accounting for the acknowledgement frame: 5-byte MPDU plus SHR and
/// PHR, 11 bytes ⇒ 352 µs at 250 kb/s.
pub fn ack_layout_bytes() -> usize {
    SHR_BYTES + PHR_BYTES + 5
}

/// On-air duration of an acknowledgement frame.
pub fn ack_duration() -> Seconds {
    consts::bytes(ack_layout_bytes())
}

/// Default beacon frame accounting used by the model: 13-byte MPDU (frame
/// control 2 + sequence 1 + source PAN 2 + source short address 2 +
/// superframe spec 2 + GTS spec 1 + pending spec 1 + FCS 2) plus SHR and
/// PHR ⇒ 19 bytes ⇒ 608 µs. The paper does not state its beacon length;
/// this is the minimal standard-compliant beacon.
pub fn beacon_layout_bytes() -> usize {
    SHR_BYTES + PHR_BYTES + 13
}

/// On-air duration of the default beacon.
pub fn beacon_duration() -> Seconds {
    consts::bytes(beacon_layout_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_packet_layout() {
        let p = PacketLayout::with_payload(120).unwrap();
        assert_eq!(p.payload_bytes(), 120);
        assert_eq!(p.payload_bits(), 960);
        assert_eq!(p.total_bytes(), 133);
        assert!((p.duration().millis() - 4.256).abs() < 1e-9);
        assert_eq!(p.error_exposed_bits(), 1032);

        let max = PacketLayout::with_payload(123).unwrap();
        assert_eq!(max.total_bytes(), 136);
        assert!(PacketLayout::with_payload(124).is_err());
        assert_eq!(
            PacketLayout::with_payload(usize::MAX),
            Err(FrameError::TooLong(usize::MAX))
        );
        for payload in 0..=123 {
            let p = PacketLayout::with_payload(payload).unwrap();
            assert_eq!(p.total_bytes(), payload + 13);
            assert_eq!(p.payload_bits(), payload * 8);
            assert_eq!(p.error_exposed_bits() as usize, (payload + 9) * 8);
            assert!((p.duration().micros() - (payload as f64 + 13.0) * 32.0).abs() < 1e-9);
        }
    }

    #[test]
    fn ack_and_beacon_durations() {
        assert_eq!(ack_layout_bytes(), 11);
        assert!((ack_duration().micros() - 352.0).abs() < 1e-9);
        assert_eq!(beacon_layout_bytes(), 19);
        assert!((beacon_duration().micros() - 608.0).abs() < 1e-9);
    }

    #[test]
    fn error_display() {
        assert_eq!(
            FrameError::TooLong(130).to_string(),
            "mpdu of 130 bytes exceeds aMaxPHYPacketSize (127)"
        );
    }
}
