//! Lock-light observability for every execution tier: a metrics
//! registry of atomic [`Counter`]s / [`Gauge`]s / fixed-log-bucket
//! [`Histogram`]s, mergeable [`Snapshot`]s with a Prometheus-style text
//! rendering, and a structured-event layer (the [`Recorder`] trait,
//! span-style RAII timing guards, a bounded [`RingSink`]).
//!
//! The crate depends only on `std` — consistent with the offline
//! vendored build — so any crate in the workspace can instrument
//! itself without a dependency cycle.
//!
//! # The enablement gate
//!
//! All instrumentation is **off by default**. Every instrumented hot
//! path guards its work behind [`enabled()`] — a single relaxed atomic
//! load — so a disabled build takes no timestamps, allocates nothing,
//! and touches no shared cache lines beyond that one load. Flip it with
//! [`set_enabled`] or [`init_from_env`] (which honours
//! `SETAGREE_METRICS=<path|->`).
//!
//! # Quickstart
//!
//! ```
//! use setagree_obs as obs;
//!
//! obs::set_enabled(true);
//! let hits = obs::counter("suite_cache_hits", &[]);
//! hits.inc();
//! let latency = obs::histogram("suite_cell_latency_us", &[]);
//! latency.record(180);
//!
//! let snapshot = obs::global().snapshot();
//! assert!(snapshot.render().contains("suite_cache_hits 1"));
//!
//! // Snapshots merge (counters add, histograms add bucket-wise), so a
//! // harness can fold many children into one aggregated report:
//! let mut total = snapshot.clone();
//! total.merge(&snapshot);
//! assert!(total.render().contains("suite_cache_hits 2"));
//! # obs::set_enabled(false);
//! ```

mod metrics;
mod recorder;
mod registry;
mod snapshot;

pub use metrics::{bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, BUCKETS};
pub use recorder::{record, recorder, set_recorder, Event, NoopRecorder, Recorder, RingSink, Span};
pub use registry::{counter, gauge, global, histogram, Registry};
pub use snapshot::{HistogramData, MetricKind, MetricValue, Snapshot, SnapshotEntry};

use std::sync::atomic::{AtomicBool, Ordering};

/// The global enablement flag every instrumentation site checks first.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether instrumentation is live. One relaxed atomic load — this is
/// the entire hot-path cost of a disabled build.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns instrumentation on or off, process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Held by every unit test that flips the process-global gate, from its
/// first [`set_enabled`] to its last assertion: tests run on parallel
/// threads of one process, and one test's flip must not land between
/// another's flip and its check.
#[cfg(test)]
pub(crate) fn gate_held_by_test() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A test that failed while holding it poisons nothing of the gate's.
    GATE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Reads `SETAGREE_METRICS`; when set, enables instrumentation and
/// returns the dump target (`-` conventionally means "print to the
/// standard stream at exit", anything else is a file path).
pub fn init_from_env() -> Option<String> {
    let target = std::env::var("SETAGREE_METRICS").ok()?;
    if target.is_empty() {
        return None;
    }
    set_enabled(true);
    Some(target)
}

/// Writes a snapshot's rendering to the dump `target`: `-` to stderr,
/// anything else as a file path (created or truncated).
///
/// # Errors
///
/// Propagates the underlying I/O error when the target is a path.
pub fn dump(target: &str, snapshot: &Snapshot) -> std::io::Result<()> {
    if target == "-" {
        eprint!("{}", snapshot.render());
        Ok(())
    } else {
        std::fs::write(target, snapshot.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_gate_is_off_by_default_and_flips() {
        let _gate = gate_held_by_test();
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
    }
}
