//! Seed-derived scenario campaign fuzzer.
//!
//! The paper's channels only matter if the simulator stays correct under
//! the messy conditions of a real container cloud: tenants churning,
//! namespaces and cgroups created and destroyed at high rate, faults
//! firing mid-lifecycle. This crate derives a *whole scenario* — fleet
//! size, tenant mix, diurnal load, container churn rate, fault plan,
//! masking-policy matrix, coalescing mode, detector — from a single
//! `u64` seed, sweeps hundreds of them across `--jobs` lanes with
//! per-scenario panic isolation, and checks **metamorphic
//! oracles** rather than golden outputs:
//!
//! 1. **Masking monotonicity** — strengthening a masking policy never
//!    increases a channel's observable entropy (denied channels drop to
//!    zero, identically-masked channels stay byte-identical).
//! 2. **Mode invariance** — a scenario transcript digest is
//!    byte-identical with coalescing on and off, and on the lazy fleet
//!    calendar and the eager reference path.
//! 3. **Power monotonicity** — the synergistic power attack's peak
//!    aggregate power is monotone in the co-resident attacker count.
//! 4. **Churn soundness** — under high-rate create/destroy churn, reads
//!    of every live view never bump epochs, and recreated containers
//!    never see a stale namespace view.
//!
//! These relations hold for *every* seed, so no committed snapshot is
//! needed — which is what lets the campaign sweep arbitrary seeds. On a
//! violation (or a panic) the runner *shrinks*: it bisects the scenario
//! dimensions (hosts, tenants, churn cycles, fault plan) toward a
//! minimal failing seed-plus-overrides and reports a copy-pasteable
//! repro command.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::iter_over_hash_type
)]

pub mod oracles;
pub mod outcome;
pub mod runner;
pub mod scenario;
pub mod shrink;

pub use oracles::Violation;
pub use outcome::{CampaignOutcome, CampaignReport, Status};
pub use runner::{run, CampaignConfig, InjectedViolation};
pub use scenario::{Overrides, Scenario};
pub use shrink::ShrinkReport;
