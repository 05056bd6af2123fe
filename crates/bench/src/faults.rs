//! Parsing for the `--faults <seed>:<rate>` flag shared by the table
//! binaries.
//!
//! The pair seeds a uniform link-drop [`FaultPlan`]
//! (`FaultPlan::uniform_drop`); `rate` is parts per 10,000 per link per
//! round. The flag turns a binary's crash sweeps into omission sweeps
//! (`Adversary::Omission`), and because the plan participates in the
//! suite cache key, the omission cells join the cached / sharded /
//! journaled pipeline like any other cell.
//!
//! [`FaultPlan`]: setagree_sync::FaultPlan

use setagree_sync::fault::parse_seed_rate;

/// Extracts `--faults seed:rate` (or `--faults=seed:rate`) from `args`,
/// leaving every other argument in place for the caller's own parser.
///
/// # Errors
///
/// A human-readable message when the flag is present but malformed.
pub fn take_faults_flag(args: &mut Vec<String>) -> Result<Option<(u64, u32)>, String> {
    let mut faults = None;
    let mut rest = Vec::new();
    let mut drained = std::mem::take(args).into_iter();
    while let Some(arg) = drained.next() {
        let value = if let Some(v) = arg.strip_prefix("--faults=") {
            v.to_string()
        } else if arg == "--faults" {
            match drained.next() {
                Some(v) => v,
                None => return Err("--faults needs a value (seed:rate)".to_string()),
            }
        } else {
            rest.push(arg);
            continue;
        };
        match parse_seed_rate(&value) {
            Some(pair) => faults = Some(pair),
            None => {
                return Err(format!(
                    "malformed --faults `{value}` (expected <seed>:<rate>, rate in \
                     parts per 10,000)"
                ))
            }
        }
    }
    *args = rest;
    Ok(faults)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn extracts_the_flag_and_leaves_the_rest() {
        let mut args = strings(&["--shard", "0/2", "--faults", "7:2500"]);
        assert_eq!(take_faults_flag(&mut args), Ok(Some((7, 2500))));
        assert_eq!(args, strings(&["--shard", "0/2"]));

        let mut args = strings(&["--faults=42:100"]);
        assert_eq!(take_faults_flag(&mut args), Ok(Some((42, 100))));
        assert!(args.is_empty());

        let mut args = strings(&["--other"]);
        assert_eq!(take_faults_flag(&mut args), Ok(None));
        assert_eq!(args, strings(&["--other"]));
    }

    #[test]
    fn malformed_values_are_named() {
        assert!(take_faults_flag(&mut strings(&["--faults", "7"])).is_err());
        assert!(take_faults_flag(&mut strings(&["--faults", "a:b"])).is_err());
        assert!(take_faults_flag(&mut strings(&["--faults"])).is_err());
    }

    #[test]
    fn a_rate_past_the_scale_is_malformed() {
        assert_eq!(
            take_faults_flag(&mut strings(&["--faults", "7:10000"])),
            Ok(Some((7, 10_000)))
        );
        for value in ["7:10001", "7:25000"] {
            let err = take_faults_flag(&mut strings(&["--faults", value])).unwrap_err();
            assert!(err.contains(value), "{err}");
        }
    }
}
