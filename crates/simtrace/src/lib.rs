//! Deterministic observability for the simulation stack.
//!
//! The experiment pipelines run in parallel, coalesce quiescent
//! ticks, and survive injected faults — and until this crate the only
//! window into *why* a run behaved as it did was its final artifact.
//! `simtrace` adds three facilities, all designed around one invariant:
//! **observing a run must not change it, and equal seeds must produce
//! byte-identical observations**, regardless of worker count.
//!
//! * **Structured trace events** ([`TraceEvent`]): sim-timestamped records
//!   of scheduler decisions, pseudo-fs reads, namespace-mask denials,
//!   fault injections and degradations, coalesced-span jumps, RAPL
//!   samples, and placement/billing actions. Events are buffered *per
//!   kernel* ([`KernelTracer`]) in program order and flushed to the
//!   installed [`TraceSink`] keyed by a deterministic scope name, so the
//!   assembled trace never depends on OS thread scheduling.
//! * **Monotonic counters** ([`counters`]): named per-subsystem totals
//!   (reads per channel, faults injected vs. tolerated, re-scans, tick
//!   shapes, campaign outcomes) queryable as a sorted snapshot. Counters only
//!   ever sum, and addition commutes, so totals are deterministic even
//!   when increments race across worker threads.
//! * **A sim-time profiler** ([`profile`]): attributes *virtual* time and
//!   event counts to phases (`run`, `idle`, `reboot`, `probe`), rendered
//!   as a sorted self-profile table. Wall time never appears anywhere in
//!   this crate — timestamps are simulation nanoseconds only.
//!
//! # Determinism groups
//!
//! Every record carries a [`Group`]:
//!
//! * [`Group::Portable`] — identical bytes for any `--jobs` value, on
//!   coalescing kernels and on their tick-stepped reference, and on the
//!   lazy and the eager fleet calendar. The bulk of the trace.
//! * [`Group::ModeExempt`] — identical for any `--jobs` value, but
//!   differs *by design* between a coalescing kernel and its
//!   tick-stepped reference (a coalesced span jump exists only on the
//!   first, the stepped-tick count only on the second) and between the
//!   lazy and the eager calendar (pops, syncs). The compares across
//!   those, `tests/trace_counters.rs` and `tests/fleet_calendar.rs`,
//!   select the group with [`TraceEvent::group`] and
//!   [`counters::CounterEntry::group`]. The `mode-exempt` label also
//!   stays because the golden trace (`tests/golden/`) pins it.
//!
//! # Zero cost when disabled
//!
//! Nothing here runs until a sink is [`install`]ed: every hook in the
//! simulation crates is gated on [`enabled`] (one relaxed atomic load)
//! or on the kernel's `Option<KernelTracer>` being `Some`. The bench
//! gate runs with tracing disabled and must not move.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::iter_over_hash_type
)]

mod counter_store;
mod event;
mod profile_store;
mod render;
mod sink;
mod tracer;

pub use event::{Group, TraceEvent};
pub use render::{render_jsonl, render_summary};
pub use sink::{enabled, install, installed_sink, MemorySink, TimedEvent, TraceSink};
pub use tracer::{scope, tracer_for_new_kernel, KernelTracer, ScopeGuard};

/// Counter registry: monotonic named totals, grouped by determinism class.
pub mod counters {
    pub use crate::counter_store::{add, add_channel, add_exempt, snapshot, CounterEntry};
}

/// Sim-time self-profiler: virtual time and event counts per phase.
pub mod profile {
    pub use crate::profile_store::{record, snapshot, PhaseEntry};
}
