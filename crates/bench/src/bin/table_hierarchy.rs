//! Regenerates the **synchronous hierarchies** of Section 5:
//!
//! ```text
//! ℓ fixed:  S^0_t[ℓ] ⊂ S^1_t[ℓ] ⊂ … ⊂ S^t_t[ℓ]
//! d fixed:  S^d_t[1] ⊂ S^d_t[2] ⊂ … ⊂ S^d_t[n]
//! ```
//!
//! with, per member: the legality pair (x = t−d, ℓ), whether the trivial
//! all-vectors condition belongs (Theorem 8: ℓ > t−d), the size of its
//! maximal `max_ℓ` condition over a reference system, and the in-condition
//! round bound for a reference `k` — exhibiting the paper's size/speed
//! trade-off (larger families decide slower).
//!
//! ```text
//! cargo run -p setagree-bench --bin table_hierarchy
//! ```

use setagree_conditions::{counting, SdtParams};
use setagree_sync::bounds;

use setagree_bench::{MetricsDump, Table};

fn main() {
    let _metrics = MetricsDump::from_env();
    let t = 4;
    let ell = 2;
    let k = 2;
    let n_ref = 8;
    let m_ref = 4u32;

    println!("Hierarchy S^d_{t}[ℓ={ell}] (reference system n = {n_ref}, m = {m_ref}, k = {k})");
    println!();
    let chain = SdtParams::degree_chain(t, ell).expect("valid chain");
    let mut table = Table::new(vec![
        "member",
        "(x, ℓ)",
        "trivial ∈",
        "NB over ref",
        "R in-condition",
    ]);
    let mut last_nb = 0u128;
    let mut last_rounds = 0usize;
    let mut monotone = true;
    for s in &chain {
        let params = s.legality();
        let nb = counting::nb(n_ref, m_ref, params);
        let rounds = bounds::in_condition(s.degree(), ell, k);
        monotone &= nb >= last_nb && rounds >= last_rounds;
        last_nb = nb;
        last_rounds = rounds;
        table.row(vec![
            s.to_string(),
            params.to_string(),
            s.contains_trivial_condition().to_string(),
            nb.to_string(),
            format!("⌊(d+ℓ−1)/k⌋+1 = {rounds}"),
        ]);
    }
    println!("{table}");
    println!(
        "trade-off: family size and round bound both grow with d — {}",
        if monotone { "VERIFIED" } else { "FAILED" }
    );
    assert!(monotone);
    println!();

    // Inclusion verdicts along both chains.
    let mut incl = Table::new(vec!["chain", "inclusions strict & ordered"]);
    let deg_ok = chain
        .windows(2)
        .all(|w| w[0].included_in(&w[1]) == Some(true) && w[1].included_in(&w[0]) == Some(false));
    incl.row(vec![
        format!("S^d_{t}[ℓ={ell}], d = 0..{t}"),
        verify(deg_ok),
    ]);
    let ell_chain = SdtParams::ell_chain(t, 1, n_ref).expect("valid chain");
    let ell_ok = ell_chain
        .windows(2)
        .all(|w| w[0].included_in(&w[1]) == Some(true) && w[1].included_in(&w[0]) == Some(false));
    incl.row(vec![format!("S^1_{t}[ℓ], ℓ = 1..{n_ref}"), verify(ell_ok)]);
    println!("{incl}");
    assert!(deg_ok && ell_ok);
}

fn verify(ok: bool) -> String {
    if ok {
        "VERIFIED".into()
    } else {
        "FAILED".into()
    }
}
