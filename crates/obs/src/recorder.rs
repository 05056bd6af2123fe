//! The structured-event layer: the [`Recorder`] trait, span-style RAII
//! timing guards, and the bounded [`RingSink`].
//!
//! Events are tiny `Copy` records (static strings + integers — nothing
//! allocates on the hot path). When instrumentation is disabled the
//! global recorder is effectively no-op: [`record`] and
//! [`Span::start`] each cost one relaxed atomic load and nothing else —
//! a disabled span never takes a timestamp.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

use crate::metrics::Histogram;

/// One structured event: a subsystem, a name, and two free integer
/// slots. `Copy`, allocation-free, and sized for a ring buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The emitting subsystem (`"pool"`, `"tcp"`, `"suite"`, …).
    pub target: &'static str,
    /// What happened (`"round"`, `"redial"`, `"cell"`, …).
    pub name: &'static str,
    /// Elapsed microseconds for span events, `None` for point events.
    pub duration_us: Option<u64>,
    /// A free detail slot (round number, peer id, attempt count, …).
    pub detail: u64,
}

impl Event {
    /// A point event with no duration.
    pub fn point(target: &'static str, name: &'static str, detail: u64) -> Event {
        Event {
            target,
            name,
            duration_us: None,
            detail,
        }
    }
}

/// A sink for structured events.
///
/// ```
/// use setagree_obs::{Event, Recorder, RingSink};
///
/// let sink = RingSink::new(2);
/// sink.record(&Event::point("tcp", "redial", 1));
/// sink.record(&Event::point("tcp", "redial", 2));
/// sink.record(&Event::point("tcp", "redial", 3)); // evicts the oldest
/// let drained = sink.drain();
/// assert_eq!(drained.len(), 2);
/// assert_eq!(drained[0].detail, 2);
/// ```
pub trait Recorder: Send + Sync {
    /// Accepts one event. Must be cheap and must never block for long —
    /// it is called from protocol hot paths.
    fn record(&self, event: &Event);
}

/// The recorder that drops everything (the default).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn record(&self, _event: &Event) {}
}

/// A bounded ring buffer of the most recent events: new events evict
/// the oldest once `capacity` is reached, so a long-running process
/// keeps a fixed-size tail of its history.
#[derive(Debug)]
pub struct RingSink {
    capacity: usize,
    dropped: AtomicUsize,
    events: Mutex<VecDeque<Event>>,
}

impl RingSink {
    /// A ring holding at most `capacity` events (at least 1).
    pub fn new(capacity: usize) -> RingSink {
        let capacity = capacity.max(1);
        RingSink {
            capacity,
            dropped: AtomicUsize::new(0),
            events: Mutex::new(VecDeque::with_capacity(capacity)),
        }
    }

    /// Takes every buffered event, oldest first.
    pub fn drain(&self) -> Vec<Event> {
        let mut events = self.events.lock().unwrap_or_else(|e| e.into_inner());
        events.drain(..).collect()
    }

    /// How many events were evicted to make room since creation.
    pub fn dropped(&self) -> usize {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl Recorder for RingSink {
    fn record(&self, event: &Event) {
        let mut events = self.events.lock().unwrap_or_else(|e| e.into_inner());
        if events.len() == self.capacity {
            events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        events.push_back(*event);
    }
}

fn global_recorder() -> &'static RwLock<Arc<dyn Recorder>> {
    static RECORDER: OnceLock<RwLock<Arc<dyn Recorder>>> = OnceLock::new();
    RECORDER.get_or_init(|| RwLock::new(Arc::new(NoopRecorder)))
}

/// Installs the process-wide recorder (e.g. an `Arc<RingSink>` the
/// caller keeps a handle to for draining).
pub fn set_recorder(recorder: Arc<dyn Recorder>) {
    *global_recorder().write().unwrap_or_else(|e| e.into_inner()) = recorder;
}

/// The currently installed recorder.
pub fn recorder() -> Arc<dyn Recorder> {
    Arc::clone(&global_recorder().read().unwrap_or_else(|e| e.into_inner()))
}

/// Sends `event` to the installed recorder — if instrumentation is
/// enabled. Disabled cost: one relaxed atomic load.
#[inline]
pub fn record(event: Event) {
    if crate::enabled() {
        global_recorder()
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .record(&event);
    }
}

/// An RAII timing guard: measures from [`Span::start`] to drop, then
/// records the elapsed microseconds into an optional histogram and
/// emits a span [`Event`].
///
/// When instrumentation is disabled at `start`, the span holds no
/// timestamp and its drop does nothing — the whole span costs one
/// relaxed atomic load.
#[derive(Debug)]
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    target: &'static str,
    name: &'static str,
    detail: u64,
    start: Option<Instant>,
    histogram: Option<Arc<Histogram>>,
}

impl Span {
    /// Starts a span (takes a timestamp only when enabled).
    #[inline]
    pub fn start(target: &'static str, name: &'static str) -> Span {
        Span {
            target,
            name,
            detail: 0,
            start: crate::enabled().then(Instant::now),
            histogram: None,
        }
    }

    /// Routes the elapsed microseconds into `histogram` at drop. The
    /// handle is cloned only when the span is live, so a disabled span
    /// never touches the (process-shared) reference count.
    pub fn with_histogram(mut self, histogram: &Arc<Histogram>) -> Span {
        if self.start.is_some() {
            self.histogram = Some(Arc::clone(histogram));
        }
        self
    }

    /// Sets the event's free detail slot (round number, cell index, …).
    pub fn with_detail(mut self, detail: u64) -> Span {
        self.detail = detail;
        self
    }

    /// Elapsed microseconds so far (`None` when the span is disabled).
    pub fn elapsed_us(&self) -> Option<u64> {
        self.start
            .map(|s| u64::try_from(s.elapsed().as_micros()).unwrap_or(u64::MAX))
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(us) = self.elapsed_us() else {
            return;
        };
        if let Some(h) = &self.histogram {
            h.record(us);
        }
        record(Event {
            target: self.target,
            name: self.name,
            duration_us: Some(us),
            detail: self.detail,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_fifo() {
        let ring = RingSink::new(3);
        for i in 0..5 {
            ring.record(&Event::point("t", "e", i));
        }
        assert_eq!(ring.dropped(), 2);
        let details: Vec<u64> = ring.drain().iter().map(|e| e.detail).collect();
        assert_eq!(details, [2, 3, 4]);
        assert!(ring.drain().is_empty());
    }

    #[test]
    fn disabled_spans_take_no_timestamp() {
        let _gate = crate::gate_held_by_test();
        crate::set_enabled(false);
        let h = Arc::new(Histogram::new());
        let span = Span::start("test", "noop").with_histogram(&h);
        assert!(span.elapsed_us().is_none());
        assert_eq!(Arc::strong_count(&h), 1, "a dead span clones no handle");
    }

    #[test]
    fn enabled_spans_feed_their_histogram() {
        let _gate = crate::gate_held_by_test();
        crate::set_enabled(true);
        let h = Arc::new(Histogram::new());
        {
            let _span = Span::start("test", "timed").with_histogram(&h);
        }
        assert_eq!(h.count(), 1);
        crate::set_enabled(false);
    }
}
