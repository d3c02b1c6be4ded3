//! Link-budget arithmetic.

use wsn_units::{DBm, Db};

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_is_subtraction() {
        assert_eq!(
            received_power(DBm::new(-3.0), Db::new(85.0)),
            DBm::new(-88.0)
        );
    }
}
