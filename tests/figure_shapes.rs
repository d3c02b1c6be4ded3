//! Integration tests asserting the qualitative *shapes* of every figure in
//! the paper's evaluation — the reproduction's acceptance criteria.

use ieee802154_energy::mac::BeaconOrder;
use ieee802154_energy::model::activation::ActivationModel;
use ieee802154_energy::model::contention::{ContentionModel, MonteCarloContention};
use ieee802154_energy::model::link_adaptation::LinkAdaptation;
use ieee802154_energy::model::packet_sizing::PacketSizing;
use ieee802154_energy::phy::ber::{BerModel, EmpiricalCc2420Ber};
use ieee802154_energy::phy::frame::PacketLayout;
use ieee802154_energy::radio::{RadioModel, TxPowerLevel};
use ieee802154_energy::units::{DBm, Db};

fn mc() -> MonteCarloContention {
    MonteCarloContention::figure6().with_superframes(16)
}

// --- Figure 4 ---

#[test]
fn fig4_ber_decays_exponentially_with_power() {
    let ber = EmpiricalCc2420Ber::paper();
    // On the paper's axis range the curve spans roughly 1e-6..1e-2 and each
    // +1 dB multiplies the BER by exp(-0.659) ≈ 0.517.
    let mut prev = ber.bit_error_probability(DBm::new(-94.0)).value();
    for p in -93..=-85 {
        let cur = ber.bit_error_probability(DBm::new(p as f64)).value();
        let ratio = cur / prev;
        assert!(
            (0.51..0.53).contains(&ratio),
            "decay per dB at {p} dBm was {ratio:.4}"
        );
        prev = cur;
    }
}

// --- Figure 6 ---

#[test]
fn fig6_all_metrics_degrade_with_load() {
    let packet = PacketLayout::with_payload(50).unwrap();
    let source = mc();
    let lo = source.stats(0.15, packet);
    let hi = source.stats(0.75, packet);
    assert!(hi.mean_contention > lo.mean_contention);
    assert!(hi.mean_ccas > lo.mean_ccas);
    assert!(hi.pr_collision.value() > lo.pr_collision.value());
    assert!(hi.pr_access_failure.value() > lo.pr_access_failure.value());
}

#[test]
fn fig6_small_packets_collide_more_at_equal_load() {
    // At equal airtime load, small packets mean more packets in flight and
    // more simultaneous contention endings.
    let source = mc();
    let small = source.stats(0.4, PacketLayout::with_payload(10).unwrap());
    let large = source.stats(0.4, PacketLayout::with_payload(100).unwrap());
    assert!(
        small.pr_collision.value() > large.pr_collision.value(),
        "10 B {:.3} vs 100 B {:.3}",
        small.pr_collision.value(),
        large.pr_collision.value()
    );
}

// --- Figure 7 ---

#[test]
fn fig7_energy_rises_with_loss_and_explodes_past_88db() {
    let study = LinkAdaptation::new(
        ActivationModel::paper_defaults(RadioModel::cc2420()),
        PacketLayout::with_payload(120).unwrap(),
        BeaconOrder::new(6).unwrap(),
    );
    let ber = EmpiricalCc2420Ber::paper();
    let source = mc();
    let e55 = study.best_level(Db::new(55.0), 0.42, &ber, &source);
    let e88 = study.best_level(Db::new(88.0), 0.42, &ber, &source);
    let e95 = study.best_level(Db::new(95.0), 0.42, &ber, &source);
    // Paper: 135 nJ/bit → 220 nJ/bit over 55..88 dB (≈ ×1.6), then the
    // link leaves the efficient region entirely.
    let ratio_88 = e88.energy_per_bit.joules() / e55.energy_per_bit.joules();
    assert!(
        (1.2..2.5).contains(&ratio_88),
        "55→88 dB energy ratio {ratio_88:.2}"
    );
    assert!(
        e95.energy_per_bit.joules() > 5.0 * e88.energy_per_bit.joules(),
        "past the efficient region energy must explode"
    );
    // Absolute band: same order of magnitude as the paper's 135–220 nJ/bit.
    let nj55 = e55.energy_per_bit.nanojoules();
    assert!((80.0..400.0).contains(&nj55), "E/bit(55 dB) = {nj55:.0} nJ");
}

#[test]
fn fig7_thresholds_insensitive_to_load() {
    let study = LinkAdaptation::new(
        ActivationModel::paper_defaults(RadioModel::cc2420()),
        PacketLayout::with_payload(120).unwrap(),
        BeaconOrder::new(6).unwrap(),
    );
    let ber = EmpiricalCc2420Ber::paper();
    let source = mc();
    let losses: Vec<Db> = (52..=94).map(|a| Db::new(a as f64)).collect();
    let lo = LinkAdaptation::thresholds(&study.sweep(&losses, 0.15, &ber, &source));
    let hi = LinkAdaptation::thresholds(&study.sweep(&losses, 0.70, &ber, &source));
    // Compare the threshold for each level present in both policies.
    for (a, level) in lo.thresholds() {
        if let Some((b, _)) = hi.thresholds().iter().find(|(_, l)| l == level) {
            assert!(
                (a.db() - b.db()).abs() <= 2.0,
                "threshold for {level} moved from {a} to {b}"
            );
        }
    }
}

// --- Figure 8 ---

#[test]
fn fig8_energy_per_bit_monotone_down_to_max_payload() {
    let study = PacketSizing::new(
        ActivationModel::paper_defaults(RadioModel::cc2420()),
        BeaconOrder::new(6).unwrap(),
        TxPowerLevel::Neg5,
        Db::new(75.0),
    );
    let ber = EmpiricalCc2420Ber::paper();
    let source = mc();
    let payloads: Vec<usize> = vec![10, 30, 60, 90, 120, 123];
    for load in [0.1, 0.42] {
        let points = study.sweep(&payloads, load, &ber, &source);
        for pair in points.windows(2) {
            assert!(
                pair[1].energy_per_bit < pair[0].energy_per_bit,
                "λ={load}: energy rose from {} B to {} B",
                pair[0].payload_bytes,
                pair[1].payload_bytes
            );
        }
        assert_eq!(PacketSizing::optimal_payload(&points), 123);
    }
}

// --- Improvement perspectives ---

#[test]
fn improvements_land_in_the_papers_bands() {
    use ieee802154_energy::model::case_study::CaseStudy;
    use ieee802154_energy::model::improvements::*;
    let study = CaseStudy::paper(ActivationModel::paper_defaults(RadioModel::cc2420()))
        .with_grid_points(15);
    let ber = EmpiricalCc2420Ber::paper();
    let source = mc();

    let fast = evaluate_variant(&study, faster_transitions_radio(0.5), &ber, &source);
    assert!(
        (0.04..0.20).contains(&fast.reduction()),
        "transition halving: {:.1} % (paper: 12 %)",
        fast.reduction() * 100.0
    );

    let scalable = evaluate_variant(&study, scalable_receiver_radio(0.5), &ber, &source);
    assert!(
        (0.05..0.25).contains(&scalable.reduction()),
        "scalable receiver: {:.1} % (paper: 15 %)",
        scalable.reduction() * 100.0
    );

    let both = evaluate_variant(&study, combined_radio(0.5, 0.5), &ber, &source);
    assert!(both.reduction() > fast.reduction().max(scalable.reduction()));
}
