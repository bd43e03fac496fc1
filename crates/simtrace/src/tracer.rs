//! Per-kernel event buffering and deterministic scope naming.
//!
//! Events are never written straight to the global sink: worker threads
//! finish experiments in wall-clock order, which must not leak into the
//! trace. Instead each traced kernel owns a [`KernelTracer`] that
//! buffers its events in program order, and flushes the complete buffer
//! on drop under a deterministic scope name (`{experiment}/k{NNN}`).
//! The sink keys buffers by scope, and rendering sorts scopes — so the
//! assembled trace depends only on the simulation, never on the OS
//! scheduler.

use std::cell::RefCell;
use std::sync::Mutex;

use crate::event::TraceEvent;
use crate::sink::TimedEvent;

#[derive(Debug)]
struct ScopeState {
    name: String,
    kernels: u32,
}

thread_local! {
    static SCOPE: RefCell<Option<ScopeState>> = const { RefCell::new(None) };
}

/// Restores the previous experiment scope — its name and its kernel
/// count — on drop.
#[derive(Debug)]
pub struct ScopeGuard {
    /// The scope this guard replaced; `None` when tracing was off and no
    /// scope was entered.
    prev: Option<Option<ScopeState>>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            SCOPE.with(|s| *s.borrow_mut() = prev);
        }
    }
}

/// Enters a named experiment scope on the current thread.
///
/// Every kernel created on this thread while the guard lives is traced
/// under `{name}/kNNN`, numbered in creation order. Kernels are only
/// constructed on experiment driver threads, and a driver runs wholly on
/// one thread, so a thread-local is sufficient and deterministic. Scopes
/// nest: when the guard drops, the enclosing scope resumes its numbering.
/// No-op when tracing is disabled.
pub fn scope(name: &str) -> ScopeGuard {
    if !crate::enabled() {
        return ScopeGuard { prev: None };
    }
    let entered = ScopeState {
        name: name.to_string(),
        kernels: 0,
    };
    ScopeGuard {
        prev: Some(SCOPE.with(|s| s.replace(Some(entered)))),
    }
}

/// Hands a freshly constructed kernel its tracer, if the current thread
/// is inside an experiment scope and tracing is enabled. Kernels built
/// outside any scope run untraced even when tracing is on — an unnamed
/// buffer could not be merged deterministically.
pub fn tracer_for_new_kernel() -> Option<KernelTracer> {
    if !crate::enabled() {
        return None;
    }
    SCOPE.with(|s| {
        let mut slot = s.borrow_mut();
        let state = slot.as_mut()?;
        let idx = state.kernels;
        state.kernels += 1;
        // Zero-padded so lexical scope order equals creation order.
        Some(KernelTracer::new(format!("{}/k{idx:03}", state.name)))
    })
}

#[derive(Debug, Default)]
struct Inner {
    seq: u64,
    /// Mode-exempt events number their own stream: a coalesced span is
    /// absent on a tick-stepped kernel, and letting it consume a
    /// portable sequence number would shift every later portable line
    /// against that reference — breaking the filtered byte-compare that
    /// the mode-exempt tag exists to enable.
    exempt_seq: u64,
    events: Vec<TimedEvent>,
}

/// One kernel's program-ordered event buffer.
///
/// Interior mutability because pseudo-fs reads observe the kernel
/// through `&Kernel`; the mutex is uncontended (a kernel is stepped by
/// one thread at a time) so emission stays cheap.
#[derive(Debug)]
pub struct KernelTracer {
    scope: String,
    inner: Mutex<Inner>,
}

impl KernelTracer {
    fn new(scope: String) -> KernelTracer {
        KernelTracer {
            scope,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The deterministic scope name this buffer flushes under.
    pub fn scope(&self) -> &str {
        &self.scope
    }

    /// Appends an event at the given kernel-lifetime timestamp.
    /// Portable and mode-exempt events are numbered independently (see
    /// `Inner::exempt_seq`); buffer order still totally orders the
    /// combined stream.
    pub fn emit(&self, t_ns: u64, event: TraceEvent) {
        let mut inner = self.inner.lock().expect("kernel tracer poisoned");
        let ctr = if event.group() == crate::Group::ModeExempt {
            &mut inner.exempt_seq
        } else {
            &mut inner.seq
        };
        let seq = *ctr;
        *ctr += 1;
        inner.events.push(TimedEvent { t_ns, seq, event });
    }
}

impl Drop for KernelTracer {
    fn drop(&mut self) {
        let events =
            std::mem::take(&mut self.inner.get_mut().expect("kernel tracer poisoned").events);
        if let Some(sink) = crate::installed_sink() {
            sink.flush(&self.scope, events);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_tracer_while_disabled() {
        let _guard = scope("unit");
        assert!(tracer_for_new_kernel().is_none());
    }

    #[test]
    fn emit_assigns_sequential_seq() {
        let tracer = KernelTracer::new("unit/k000".to_string());
        tracer.emit(5, TraceEvent::SchedExit { pid: 1 });
        tracer.emit(9, TraceEvent::SchedExit { pid: 2 });
        let inner = tracer.inner.lock().unwrap();
        assert_eq!(inner.events.len(), 2);
        assert_eq!(inner.events[0].seq, 0);
        assert_eq!(inner.events[1].seq, 1);
        assert_eq!(inner.events[1].t_ns, 9);
        drop(inner);
        // Dropping without an installed sink must not panic.
    }

    #[test]
    fn exempt_events_do_not_consume_portable_seq() {
        let tracer = KernelTracer::new("unit/k000".to_string());
        tracer.emit(5, TraceEvent::SchedExit { pid: 1 });
        tracer.emit(
            7,
            TraceEvent::CoalescedSpan {
                from_ns: 5,
                to_ns: 7,
            },
        );
        tracer.emit(9, TraceEvent::SchedExit { pid: 2 });
        let inner = tracer.inner.lock().unwrap();
        // The span numbers its own stream; the portable lines read
        // 0, 1 — exactly what a run without the span would produce.
        assert_eq!(inner.events[0].seq, 0);
        assert_eq!(inner.events[1].seq, 0);
        assert_eq!(inner.events[2].seq, 1);
    }
}
