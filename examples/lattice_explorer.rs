//! Explore the structure of the paper: the lattice of legality families
//! (Figure 1), the synchronous hierarchies `S^d_t[ℓ]` (Section 5) and the
//! size/speed trade-off they encode.
//!
//! ```text
//! cargo run --example lattice_explorer
//! ```

use setagree::conditions::counting;
use setagree::conditions::lattice::{self, FamilyRelation};
use setagree::conditions::{LegalityParams, SdtParams};
use setagree::sync::bounds;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let t = 5;
    let k = 2;
    let n = 10;
    let m = 6u32;

    println!("The ℓ-fixed hierarchy S^d_{t}[ℓ=2] and what each member buys you");
    println!("(reference system: n = {n}, m = {m}, agreement degree k = {k})");
    println!();
    println!(
        "{:<12} {:<12} {:>14} {:>10} {:>9}",
        "member", "(x, ℓ)", "|C_max|", "R in C", "trivial?"
    );
    for s in SdtParams::degree_chain(t, 2)? {
        let params = s.legality();
        let size = counting::nb(n, m, params);
        let r_in = bounds::in_condition(s.degree(), s.ell(), k);
        println!(
            "{:<12} {:<12} {:>14} {:>10} {:>9}",
            s.to_string(),
            params.to_string(),
            size,
            r_in,
            s.contains_trivial_condition()
        );
    }
    println!();
    println!("reading: larger d → more conditions (easier to satisfy) but slower decisions.");
    println!();

    println!("Family relations around (x, ℓ) = (2, 2):");
    let center = LegalityParams::new(2, 2)?;
    for (dx, dl) in [(1i64, 0i64), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)] {
        let x = (center.x() as i64 + dx).max(0) as usize;
        let l = (center.ell() as i64 + dl).max(1) as usize;
        let other = LegalityParams::new(x, l)?;
        if other == center {
            continue;
        }
        let rel = match lattice::relation(center, other) {
            FamilyRelation::Equal => "=",
            FamilyRelation::StrictlyIncluded => "⊊",
            FamilyRelation::StrictlyIncludes => "⊋",
            FamilyRelation::Incomparable => "∦",
        };
        println!("  F{center} {rel} F{other}");
    }
    println!();
    println!(
        "meet of F(3,1) and F(1,2): F{}   join: F{}",
        lattice::meet(LegalityParams::new(3, 1)?, LegalityParams::new(1, 2)?),
        lattice::join(LegalityParams::new(3, 1)?, LegalityParams::new(1, 2)?)
    );
    Ok(())
}
