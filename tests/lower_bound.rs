//! Lower-bound demonstrators: the `⌊t/k⌋ + 1` bound the paper cites from
//! Chaudhuri–Herlihy–Lynch–Tuttle is *tight* — protocols stopping one
//! round short are incorrect, which we exhibit constructively with chain
//! adversaries rather than prove topologically. Truncated protocols are
//! first-class scenarios (`Scenario::flood_set_truncated`), so the
//! violations show up as failed agreement in an ordinary `Report`.
//!
//! These tests guard the simulator as much as the protocols: an engine
//! that delivered messages too generously (or dropped the prefix
//! semantics) would make the violations unreachable and the positive
//! results above vacuous.

use setagree::core::Scenario;
use setagree::sync::{bounds, CrashSpec, FailurePattern};
use setagree::types::ProcessId;

/// For consensus (k = 1): the chain adversary defeats every flood-set
/// truncation below t + 1 rounds, while t + 1 always suffices.
#[test]
fn consensus_needs_t_plus_1_rounds() {
    for (n, t) in [(5usize, 3usize), (6, 4), (8, 5)] {
        // The hidden value 9 starts at the chain's head; everyone else
        // proposes 1.
        let inputs: Vec<u32> = (0..n).map(|i| if i == 0 { 9 } else { 1 }).collect();
        let chain = FailurePattern::chain(n, t);

        // One round short: the chain keeps the 9 inside the crashed prefix
        // plus the final carrier — someone decides 1, the carrier's heir
        // decides 9.
        let short = Scenario::flood_set_truncated(n, t, 1, t)
            .input(inputs.clone())
            .pattern(chain.clone())
            .run()
            .expect("short run");
        assert!(
            !short.satisfies_agreement(),
            "n={n}, t={t}: {t}-round floodset must split under the chain, got {:?}",
            short.decided_values()
        );

        // The full t + 1 rounds: consensus restored under the same chain.
        let full = Scenario::flood_set_truncated(n, t, 1, t + 1)
            .input(inputs)
            .pattern(chain)
            .run()
            .expect("full run");
        assert_eq!(
            full.decided_values().len(),
            1,
            "n={n}, t={t}: t+1 rounds must reach consensus"
        );
        assert!(full.satisfies_agreement());
    }
}

/// For k = 2: two parallel chains burn 2 crashes per round; ⌊t/2⌋ rounds
/// are beatable, ⌊t/2⌋ + 1 are not (three splinter values vs ≤ 2).
#[test]
fn two_set_agreement_needs_t_over_2_plus_1_rounds() {
    let n = 9;
    let t = 4;
    let k = 2;
    // Two hidden values 9 and 8 travel on disjoint chains: 9 along
    // p1 → p3 → survivors-prefix, 8 along p2 → p4 → …; everyone else
    // proposes 1.
    let inputs: Vec<u32> = (0..n)
        .map(|i| match i {
            0 => 9,
            1 => 8,
            _ => 1,
        })
        .collect();
    let mut pattern = FailurePattern::none(n);
    // Round 1: p1 whispers 9 to p3 only (prefix 3 = {p1, p2, p3}; p2 is the
    // other crasher); p2 whispers 8 to p4 only (prefix 4, the alive ones in
    // it being p3 — careful: prefix 4 reaches p3 AND p4).
    // Keep the chains disjoint by prefix arithmetic:
    //   p1 (idx 0) reaches p1..p3  → alive recipient: p3 (idx 2).
    //   p2 (idx 1) reaches p1..p4  → alive recipients: p3, p4. p3 now knows
    //   both 9 and 8; its estimate is max = 9; 8 still also at p4.
    pattern
        .crash(ProcessId::new(0), CrashSpec::new(1, 3))
        .unwrap();
    pattern
        .crash(ProcessId::new(1), CrashSpec::new(1, 4))
        .unwrap();
    // Round 2: p3 whispers {9} onward to p5 only (prefix 5); p4 whispers 8
    // to p5, p6 (prefix 6). After round 2 the extremal values live only in
    // p5/p6, everyone else still believes 1.
    pattern
        .crash(ProcessId::new(2), CrashSpec::new(2, 5))
        .unwrap();
    pattern
        .crash(ProcessId::new(3), CrashSpec::new(2, 6))
        .unwrap();

    // ⌊t/k⌋ = 2 rounds: p5 decides 9, p6 decides max(8, …) and the rest
    // decide 1 → three values > k.
    let short = Scenario::flood_set_truncated(n, t, k, bounds::classical(t, k) - 1)
        .input(inputs.clone())
        .pattern(pattern.clone())
        .run()
        .expect("short run");
    assert!(
        !short.satisfies_agreement(),
        "⌊t/k⌋ rounds must violate 2-agreement, got {:?}",
        short.decided_values()
    );

    // ⌊t/k⌋ + 1 = 3 rounds: the correct bound holds under the same pattern.
    let full = Scenario::flood_set_truncated(n, t, k, bounds::classical(t, k))
        .input(inputs)
        .pattern(pattern)
        .run()
        .expect("full run");
    assert!(
        full.satisfies_agreement(),
        "⌊t/k⌋+1 rounds must satisfy 2-agreement, got {:?}",
        full.decided_values()
    );
}

/// The chain constructor is well-formed: t crashes, one per round, each
/// reaching exactly its successor among the living.
#[test]
fn chain_adversary_shape() {
    let chain = FailurePattern::chain(7, 4);
    assert_eq!(chain.fault_count(), 4);
    for r in 1..=4 {
        assert_eq!(chain.crashes_by_round(r), r, "one crash per round");
        let spec = chain
            .spec(ProcessId::new(r - 1))
            .expect("p_r crashes in round r");
        assert_eq!(spec.round, r);
        assert_eq!(spec.after_sends, r + 1);
    }
}
