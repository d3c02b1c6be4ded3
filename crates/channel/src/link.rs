//! Link-budget arithmetic and the AWGN link abstraction.

use wsn_units::{DBm, Db, Probability, Seconds};

use wsn_phy::ber::BerModel;
use wsn_phy::frame::PacketLayout;

/// Received power `P_Rx = P_Tx − A` (paper eq. 2).
///
/// # Examples
///
/// ```
/// use wsn_channel::received_power;
/// use wsn_units::{DBm, Db};
///
/// assert_eq!(received_power(DBm::new(0.0), Db::new(88.0)), DBm::new(-88.0));
/// ```
#[inline]
pub fn received_power(tx_power: DBm, path_loss: Db) -> DBm {
    tx_power - path_loss
}

/// An AWGN link: a fixed path loss combined with a BER model.
///
/// This is the abstraction the analytical model consumes — for every
/// candidate transmit power it asks "what is the bit error probability over
/// this path?".
///
/// # Examples
///
/// ```
/// use wsn_channel::Link;
/// use wsn_phy::ber::EmpiricalCc2420Ber;
/// use wsn_phy::frame::PacketLayout;
/// use wsn_units::{DBm, Db};
///
/// let link = Link::new(EmpiricalCc2420Ber::paper(), Db::new(88.0));
/// let pr_bit = link.bit_error_probability(DBm::new(0.0));
/// assert!(pr_bit.value() > 0.0 && pr_bit.value() < 1e-3);
///
/// let packet = PacketLayout::with_payload(120)?;
/// let pr_e = link.packet_error_probability(DBm::new(0.0), packet);
/// assert!(pr_e.value() > pr_bit.value());
/// # Ok::<(), wsn_phy::frame::FrameError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Link<B> {
    ber: B,
    path_loss: Db,
}

impl<B: BerModel> Link<B> {
    /// Creates a link with the given BER model and path loss.
    pub fn new(ber: B, path_loss: Db) -> Self {
        Link { ber, path_loss }
    }

    /// The path loss of this link.
    pub fn path_loss(&self) -> Db {
        self.path_loss
    }

    /// Replaces the path loss, keeping the BER model.
    pub fn with_path_loss(mut self, path_loss: Db) -> Self {
        self.path_loss = path_loss;
        self
    }

    /// Received power for a given transmit power.
    pub fn received_power(&self, tx_power: DBm) -> DBm {
        received_power(tx_power, self.path_loss)
    }

    /// Bit error probability when transmitting at `tx_power`.
    pub fn bit_error_probability(&self, tx_power: DBm) -> Probability {
        self.ber
            .bit_error_probability(self.received_power(tx_power))
    }

    /// Packet error probability (paper eq. 10) at `tx_power`.
    pub fn packet_error_probability(&self, tx_power: DBm, packet: PacketLayout) -> Probability {
        self.ber
            .packet_error_probability(self.received_power(tx_power), packet)
    }

    /// Borrows the underlying BER model.
    pub fn ber_model(&self) -> &B {
        &self.ber
    }
}

/// The slow-fading validity condition of the paper's §3: the AWGN treatment
/// holds while a packet fits within the channel coherence time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelAssumptions {
    /// Channel coherence time (paper cites > 4 ms at 2.45 GHz without
    /// mobility).
    pub coherence_time: Seconds,
}

impl ChannelAssumptions {
    /// Fixed-wireless 2.45 GHz defaults; comfortably above the 4 ms maximal
    /// packet of the paper.
    pub fn fixed_wireless_2450() -> Self {
        ChannelAssumptions {
            coherence_time: Seconds::from_millis(20.0),
        }
    }

    /// `true` when a packet of the given duration experiences an
    /// effectively static channel.
    pub fn awgn_valid_for(&self, packet_duration: Seconds) -> bool {
        packet_duration <= self.coherence_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_phy::ber::EmpiricalCc2420Ber;

    #[test]
    fn budget_is_subtraction() {
        assert_eq!(
            received_power(DBm::new(-3.0), Db::new(85.0)),
            DBm::new(-88.0)
        );
    }

    #[test]
    fn link_maps_tx_power_to_error_rates() {
        let link = Link::new(EmpiricalCc2420Ber::paper(), Db::new(90.0));
        let strong = link.bit_error_probability(DBm::new(0.0));
        let weak = link.bit_error_probability(DBm::new(-15.0));
        assert!(weak.value() > strong.value());
        assert_eq!(link.received_power(DBm::new(0.0)), DBm::new(-90.0));
    }

    #[test]
    fn packet_error_grows_with_size() {
        let link = Link::new(EmpiricalCc2420Ber::paper(), Db::new(89.0));
        let small = PacketLayout::with_payload(10).unwrap();
        let large = PacketLayout::with_payload(120).unwrap();
        let pe_small = link.packet_error_probability(DBm::new(0.0), small);
        let pe_large = link.packet_error_probability(DBm::new(0.0), large);
        assert!(pe_large.value() > pe_small.value());
    }

    #[test]
    fn with_path_loss_rebinds() {
        let link = Link::new(EmpiricalCc2420Ber::paper(), Db::new(55.0));
        let harder = link.clone().with_path_loss(Db::new(95.0));
        assert!(
            harder.bit_error_probability(DBm::new(0.0)).value()
                > link.bit_error_probability(DBm::new(0.0)).value()
        );
        assert_eq!(harder.path_loss(), Db::new(95.0));
    }

    #[test]
    fn awgn_validity_window() {
        let a = ChannelAssumptions::fixed_wireless_2450();
        // Maximal paper packet: 4.256 ms — valid.
        assert!(a.awgn_valid_for(Seconds::from_millis(4.256)));
        assert!(!a.awgn_valid_for(Seconds::from_millis(25.0)));
    }
}
