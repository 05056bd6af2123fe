//! CPU time and peak memory of the benchmark process, from `/proc`.

use std::fs;

/// Linux reports process times in clock ticks of 1/100 s on every
/// supported configuration (`getconf CLK_TCK`).
const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime + cutime + cstime` in seconds out of one
/// `/proc/<pid>/stat` line: this process plus the children it has
/// waited for. The command name (field 2) may itself contain spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // after_comm starts at field 3 (state); utime is field 14.
    let ticks: Vec<u64> = after_comm
        .split_ascii_whitespace()
        .skip(11)
        .take(4)
        .map(|field| field.parse().ok())
        .collect::<Option<_>>()?;
    (ticks.len() == 4).then(|| ticks.iter().sum::<u64>() as f64 / TICKS_PER_SECOND)
}

/// The `VmHWM` (peak resident set) line of `/proc/<pid>/status`, in MB.
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn cpu_seconds() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .as_deref()
        .and_then(parse_cpu_seconds)
        .expect("/proc/self/stat is readable and well-formed on Linux")
}

pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .as_deref()
        .and_then(parse_peak_rss_mb)
        .expect("/proc/self/status carries VmHWM on Linux")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_fields_survive_a_hostile_command_name() {
        let stat = "4242 (set agree) bench) S 1 4242 4242 0 -1 4194304 \
                    900 0 0 0 150 25 7 3 20 0 3 0 12345 1000000 200 \
                    18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        // utime 150 + stime 25 + cutime 7 + cstime 3 = 185 ticks
        assert_eq!(parse_cpu_seconds(stat), Some(1.85));
        assert_eq!(parse_cpu_seconds("no parenthesis here"), None);
        assert_eq!(parse_cpu_seconds("1 (x) S 1 2 3"), None);
    }

    #[test]
    fn peak_rss_reads_vmhwm() {
        let status = "Name:\tbench\nVmPeak:\t  900000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(20.0));
        assert_eq!(parse_peak_rss_mb("Name:\tbench\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
