//! The global sink registry and the default in-memory collector.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::event::TraceEvent;

/// A trace event paired with its simulation timestamp and its position
/// in the owning kernel's program order.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    /// Kernel lifetime nanoseconds at emission (monotone across reboots).
    pub t_ns: u64,
    /// Per-kernel sequence number; total order within a scope.
    pub seq: u64,
    /// The event itself.
    pub event: TraceEvent,
}

/// Receives per-kernel event buffers as each traced kernel is dropped.
///
/// The contract that keeps traces deterministic: a sink is handed each
/// kernel's *complete* buffer exactly once, keyed by its deterministic
/// scope name, and must not assume anything about the wall-clock order
/// of `flush` calls — rendering sorts scopes before emission.
pub trait TraceSink: Send + Sync + Debug {
    /// Accept the complete, program-ordered event buffer for one kernel.
    fn flush(&self, scope: &str, events: Vec<TimedEvent>);
}

static SINK: OnceLock<Arc<dyn TraceSink>> = OnceLock::new();
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Installs the process-wide trace sink and enables every hook.
///
/// Can only happen once per process; later calls are ignored (the bins
/// install a sink at startup, before any kernel exists).
pub fn install(sink: Arc<dyn TraceSink>) {
    if SINK.set(sink).is_ok() {
        ENABLED.store(true, Ordering::Release);
    }
}

/// Whether tracing is active. One relaxed load — this is the entire
/// cost of every hook in the simulation crates when tracing is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The installed sink, if any.
pub fn installed_sink() -> Option<Arc<dyn TraceSink>> {
    SINK.get().cloned()
}

/// The default collector: accumulates buffers keyed by scope name in a
/// sorted map, so draining yields a thread-schedule-independent order.
#[derive(Debug, Default)]
pub struct MemorySink {
    scopes: Mutex<BTreeMap<String, Vec<TimedEvent>>>,
}

impl MemorySink {
    /// A fresh, empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Removes and returns everything collected so far, sorted by scope.
    pub fn drain(&self) -> BTreeMap<String, Vec<TimedEvent>> {
        std::mem::take(&mut self.scopes.lock().expect("memory sink poisoned"))
    }
}

impl TraceSink for MemorySink {
    fn flush(&self, scope: &str, events: Vec<TimedEvent>) {
        let mut scopes = self.scopes.lock().expect("memory sink poisoned");
        // A scope name repeats only if the same experiment runs twice
        // between drains (the mode matrix drains after every run); append
        // so nothing is lost, keeping per-kernel program order intact.
        scopes.entry(scope.to_string()).or_default().extend(events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_orders_scopes_lexically() {
        let sink = MemorySink::new();
        let ev = |seq| TimedEvent {
            t_ns: seq,
            seq,
            event: TraceEvent::SchedExit { pid: seq as u32 },
        };
        sink.flush("fig4/k001", vec![ev(1)]);
        sink.flush("fig4/k000", vec![ev(0)]);
        let drained = sink.drain();
        let keys: Vec<&str> = drained.keys().map(String::as_str).collect();
        assert_eq!(keys, ["fig4/k000", "fig4/k001"]);
        assert!(sink.drain().is_empty());
    }
}
