//! Host-speed correction for the two end-to-end time metrics.
//!
//! The reference box is a 2-vCPU VM on a shared host: the same
//! single-thread loop takes anywhere between 1× and 1.8× its best time
//! from one ten-second window to the next, and the guest sees no steal
//! time it could subtract. Ten raw runs of `large_n` spread 12–19 %
//! against a bound that may not exceed 25 %. So the untraced run times a
//! fixed reference kernel between ops (off the op clock) and reports
//! `cells_per_s` and `cpu_us_per_cell` as they would read on a host that
//! runs the kernel in [`NOMINAL_KERNEL_SECONDS`]. The raw values are
//! printed beside them; `benchmark/README.md` has the table of both.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel time of the host the reported times refer to: close to
/// the reference box's typical reading, so corrected and raw times are
/// of the same size.
pub const NOMINAL_KERNEL_SECONDS: f64 = 250e-6;

/// Read again once this much time has passed since the last reading.
const INTERVAL: Duration = Duration::from_millis(25);
/// Kernel repetitions per reading (≈ 2 ms): their mean, so that a host
/// that stalls the guest in bursts shows in the reading.
const REPEATS: u32 = 8;

const TABLE: usize = 8192;
const STEPS: usize = 60_000;

/// A fixed amount of single-thread work: integer mixing plus dependent
/// loads from a 64 KiB table.
fn kernel(table: &[u64; TABLE]) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..STEPS {
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = x.wrapping_add(table[(x >> 51) as usize]);
    }
    x
}

/// Kernel readings taken through a measured phase.
pub struct HostSpeed {
    table: Box<[u64; TABLE]>,
    /// Kernel seconds of each reading so far.
    readings: Vec<f64>,
    last: Instant,
}

impl HostSpeed {
    /// Starts with one reading.
    pub fn new() -> HostSpeed {
        let mut table = Box::new([0u64; TABLE]);
        for (index, slot) in table.iter_mut().enumerate() {
            *slot = (index as u64).wrapping_mul(0x94D0_49BB_1331_11EB) | 1;
        }
        let mut speed = HostSpeed {
            table,
            readings: Vec::new(),
            last: Instant::now(),
        };
        speed.read();
        speed
    }

    fn read(&mut self) {
        let started = Instant::now();
        for _ in 0..REPEATS {
            black_box(kernel(black_box(&self.table)));
        }
        self.readings
            .push(started.elapsed().as_secs_f64() / f64::from(REPEATS));
        self.last = Instant::now();
    }

    /// Call between ops: takes a reading when one is due.
    pub fn read_if_due(&mut self) {
        if self.last.elapsed() >= INTERVAL {
            self.read();
        }
    }

    /// How many times slower than the nominal host this one ran the
    /// kernel, on average over the phase. A time measured here reads
    /// `time ÷ slowdown` on the nominal host.
    pub fn slowdown(&self) -> f64 {
        slowdown(&self.readings)
    }
}

fn slowdown(readings: &[f64]) -> f64 {
    readings.iter().sum::<f64>() / readings.len() as f64 / NOMINAL_KERNEL_SECONDS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_host_twice_as_slow_reads_two() {
        let nominal = NOMINAL_KERNEL_SECONDS;
        assert_eq!(slowdown(&[nominal, nominal]), 1.0);
        assert_eq!(slowdown(&[nominal, 3.0 * nominal]), 2.0);
    }

    #[test]
    fn readings_are_spaced_by_the_interval() {
        let mut speed = HostSpeed::new();
        speed.read_if_due();
        assert_eq!(speed.readings.len(), 1, "none is due right after the first");
        std::thread::sleep(INTERVAL);
        speed.read_if_due();
        assert_eq!(speed.readings.len(), 2);
        assert!(speed.slowdown().is_finite() && speed.slowdown() > 0.0);
    }
}
