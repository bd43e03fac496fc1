//! Synchronous in-process taps over the observation stream.
//!
//! The trace sink ([`crate::TraceSink`]) is a *post-hoc* facility:
//! per-kernel buffers flush on drop and the assembled artifact is only
//! complete after the run. A provider-side online consumer (the
//! `detector` crate) instead needs every tenant-visible channel read
//! *as it happens*, in sim-time order. [`ReadTap`] is that contract: the
//! cloud driver invokes it inline at the observation point — on the
//! driver thread, in program order, with fleet-absolute timestamps —
//! never from a worker thread. A tap that derives its decisions
//! only from those arguments is therefore byte-deterministic across
//! `--jobs` and `--coalesce` modes.

/// A synchronous observer of per-tenant pseudo-file reads.
pub trait ReadTap: std::fmt::Debug + Send {
    /// One tenant read of `path` at fleet-absolute sim time `t_ns`.
    /// `denied` is true when the read failed with a masking denial
    /// (attempted probing of a closed channel — still signal).
    fn on_read(&mut self, t_ns: u64, tenant: u32, path: &str, denied: bool);
}
