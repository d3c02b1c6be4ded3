//! Guaranteed time slot (GTS) bookkeeping.
//!
//! The standard lets a coordinator dedicate up to seven tail slots of the
//! superframe to individual devices. The paper argues this "does not fit
//! well in a dense sensor network since the number of dedicated slots would
//! not be sufficient to accommodate several hundreds of nodes" — this
//! module makes that argument quantitative: [`GtsRegistry`] enforces the
//! hard 7-slot limit and [`max_gts_devices`] exposes it to the ablation
//! benchmarks.

use core::fmt;

/// Hard limit on simultaneously allocated GTS descriptors.
pub const MAX_GTS_DESCRIPTORS: usize = 7;

/// Maximum number of devices servable per superframe through GTS alone —
/// the quantity the paper contrasts with "several hundred" nodes.
pub const fn max_gts_devices() -> usize {
    MAX_GTS_DESCRIPTORS
}

/// A GTS descriptor: a device's reserved slot range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GtsDescriptor {
    /// Short address of the device owning the slots.
    pub short_address: u16,
    /// First superframe slot of the allocation (0–15).
    pub starting_slot: u8,
    /// Number of contiguous slots (1–15).
    pub length: u8,
}

/// Errors from GTS allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GtsError {
    /// All seven descriptors are in use.
    Exhausted,
    /// Requested slots collide with an existing allocation or the CAP.
    SlotUnavailable {
        /// First slot requested.
        starting_slot: u8,
        /// Number of slots requested.
        length: u8,
    },
    /// The device already holds an allocation.
    AlreadyAllocated(u16),
    /// Zero-length or out-of-range request.
    BadRequest,
}

impl fmt::Display for GtsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GtsError::Exhausted => write!(f, "all {MAX_GTS_DESCRIPTORS} GTS descriptors in use"),
            GtsError::SlotUnavailable {
                starting_slot,
                length,
            } => write!(
                f,
                "slots {starting_slot}..{} unavailable",
                starting_slot + length
            ),
            GtsError::AlreadyAllocated(addr) => {
                write!(f, "device 0x{addr:04X} already holds a GTS")
            }
            GtsError::BadRequest => write!(f, "invalid GTS request"),
        }
    }
}

impl std::error::Error for GtsError {}

/// Coordinator-side GTS allocation state.
///
/// Slots are allocated from the superframe tail (slot 15) downward, exactly
/// as the contention-free period grows in the standard.
///
/// # Examples
///
/// ```
/// use wsn_mac::gts::{GtsRegistry, MAX_GTS_DESCRIPTORS};
///
/// let mut registry = GtsRegistry::new(8); // keep at least 8 CAP slots
/// for device in 0..MAX_GTS_DESCRIPTORS as u16 {
///     registry.allocate(device, 1)?;
/// }
/// assert!(registry.allocate(99, 1).is_err()); // descriptor table full
/// # Ok::<(), wsn_mac::gts::GtsError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GtsRegistry {
    allocations: Vec<GtsDescriptor>,
    min_cap_slots: u8,
}

impl GtsRegistry {
    /// Creates a registry that always preserves `min_cap_slots` slots of
    /// contention access period (the standard mandates a minimum CAP).
    ///
    /// # Panics
    ///
    /// Panics if `min_cap_slots > 15` (slot 0 always belongs to the beacon
    /// and CAP).
    pub fn new(min_cap_slots: u8) -> Self {
        assert!(min_cap_slots <= 15, "at most 15 CAP slots exist");
        GtsRegistry {
            allocations: Vec::new(),
            min_cap_slots,
        }
    }

    /// Current allocations, latest last.
    pub fn allocations(&self) -> &[GtsDescriptor] {
        &self.allocations
    }

    /// First slot of the contention-free period (16 if no GTS).
    pub fn cfp_start_slot(&self) -> u8 {
        self.allocations
            .iter()
            .map(|d| d.starting_slot)
            .min()
            .unwrap_or(16)
    }

    /// Allocates `length` slots to `device`, growing the CFP downward.
    ///
    /// # Errors
    ///
    /// Fails when the descriptor table is full, the device already holds a
    /// GTS, the request is empty, or the CAP would shrink below the
    /// configured minimum.
    pub fn allocate(&mut self, device: u16, length: u8) -> Result<GtsDescriptor, GtsError> {
        if length == 0 || length > 15 {
            return Err(GtsError::BadRequest);
        }
        if self.allocations.len() >= MAX_GTS_DESCRIPTORS {
            return Err(GtsError::Exhausted);
        }
        if self.allocations.iter().any(|d| d.short_address == device) {
            return Err(GtsError::AlreadyAllocated(device));
        }
        let cfp_start = self.cfp_start_slot();
        if cfp_start < length || cfp_start - length < self.min_cap_slots {
            return Err(GtsError::SlotUnavailable {
                starting_slot: cfp_start.saturating_sub(length),
                length,
            });
        }
        let descriptor = GtsDescriptor {
            short_address: device,
            starting_slot: cfp_start - length,
            length,
        };
        self.allocations.push(descriptor);
        Ok(descriptor)
    }

    /// Releases the allocation of `device`; returns `true` if one existed.
    ///
    /// Allocations above the freed range slide down so the CFP stays
    /// contiguous (as the standard's coordinator re-packs on deallocation).
    pub fn deallocate(&mut self, device: u16) -> bool {
        let Some(idx) = self
            .allocations
            .iter()
            .position(|d| d.short_address == device)
        else {
            return false;
        };
        let freed = self.allocations.remove(idx);
        for d in &mut self.allocations {
            if d.starting_slot < freed.starting_slot {
                d.starting_slot += freed.length;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_grow_downward_from_slot_16() {
        let mut r = GtsRegistry::new(8);
        let a = r.allocate(0x0001, 2).unwrap();
        assert_eq!(a.starting_slot, 14);
        let b = r.allocate(0x0002, 3).unwrap();
        assert_eq!(b.starting_slot, 11);
        assert_eq!(r.cfp_start_slot(), 11);
    }

    #[test]
    fn seven_device_limit() {
        let mut r = GtsRegistry::new(1);
        for dev in 0..7u16 {
            r.allocate(dev, 1).unwrap();
        }
        assert_eq!(r.allocate(7, 1), Err(GtsError::Exhausted));
        // The paper's point: 7 « several hundred nodes.
        assert!(max_gts_devices() < 100);
    }

    #[test]
    fn cap_minimum_respected() {
        let mut r = GtsRegistry::new(12);
        r.allocate(1, 4).unwrap(); // slots 12..16
        assert!(matches!(
            r.allocate(2, 1),
            Err(GtsError::SlotUnavailable { .. })
        ));
    }

    #[test]
    fn duplicate_device_rejected() {
        let mut r = GtsRegistry::new(8);
        r.allocate(0x0042, 1).unwrap();
        assert_eq!(
            r.allocate(0x0042, 1),
            Err(GtsError::AlreadyAllocated(0x0042))
        );
    }

    #[test]
    fn bad_requests_rejected() {
        let mut r = GtsRegistry::new(8);
        assert_eq!(r.allocate(1, 0), Err(GtsError::BadRequest));
        assert_eq!(r.allocate(1, 16), Err(GtsError::BadRequest));
    }

    #[test]
    fn deallocate_repacks_cfp() {
        let mut r = GtsRegistry::new(4);
        r.allocate(1, 2).unwrap(); // 14..16
        r.allocate(2, 3).unwrap(); // 11..14
        r.allocate(3, 1).unwrap(); // 10..11
        assert!(r.deallocate(2));
        // Device 3's slots slide up by the freed 3 slots.
        let d3 = r
            .allocations()
            .iter()
            .find(|d| d.short_address == 3)
            .unwrap();
        assert_eq!(d3.starting_slot, 13);
        assert_eq!(r.cfp_start_slot(), 13);
        assert!(!r.deallocate(2), "double free reports false");
    }

    #[test]
    fn freed_slots_are_immediately_reusable() {
        // allocate → deallocate → reallocate: the freed space returns to
        // the CAP and a later allocation reuses it — churned GTS holders
        // must not leak descriptor slots for the rest of the run.
        let mut r = GtsRegistry::new(12);
        r.allocate(1, 2).unwrap(); // 14..16 — CAP floor reached
        r.allocate(2, 2).unwrap(); // 12..14
        assert!(matches!(
            r.allocate(3, 1),
            Err(GtsError::SlotUnavailable { .. })
        ));
        assert!(r.deallocate(1));
        assert_eq!(r.cfp_start_slot(), 14, "freed tail slots return to CAP");
        // The freed 2 slots service a new holder at the repacked tail.
        let c = r.allocate(3, 2).unwrap();
        assert_eq!(c.starting_slot, 12);
        assert_eq!(r.cfp_start_slot(), 12);
        assert_eq!(r.allocations().len(), 2);
        // And a departed holder can itself rejoin after churn.
        assert!(r.deallocate(2));
        let back = r.allocate(2, 2).unwrap();
        assert_eq!(back.starting_slot, 12);
        // Random interleavings never double-book a slot, exceed seven
        // descriptors or cut into the minimum CAP.
        let mut rng = wsn_phy::noise::SplitMix64::new(0x6752);
        for case in 0..200 {
            let mut r = GtsRegistry::new(8);
            for _ in 0..40 {
                let x = rng.next_u64();
                if x >> 63 == 1 {
                    r.deallocate((x % 12) as u16);
                } else {
                    let _ = r.allocate((x % 12) as u16, 1 + (x >> 8) as u8 % 3);
                }
                let mut used = 0u32;
                for a in r.allocations() {
                    let mask = ((1u32 << a.length) - 1) << a.starting_slot;
                    let in_cfp = a.starting_slot >= 8 && mask >> 16 == 0;
                    assert!(in_cfp, "case {case}: {a:?}");
                    assert_eq!(used & mask, 0, "case {case}: {:?}", r.allocations());
                    used |= mask;
                }
                assert!(r.allocations().len() <= 7, "case {case}");
            }
        }
    }

    #[test]
    fn error_display() {
        assert_eq!(
            GtsError::Exhausted.to_string(),
            "all 7 GTS descriptors in use"
        );
    }
}
