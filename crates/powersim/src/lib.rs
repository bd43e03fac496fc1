//! Datacenter power infrastructure and the synergistic power attack (§IV).
//!
//! Models the power side of the paper's threat: racks of servers behind
//! oversubscribed branch circuit breakers ([`facility`]), benign diurnal
//! tenant load ([`trace`], calibrated to Fig. 2's 899–1199 W week), the
//! tenant-side RAPL power monitor ([`monitor`] — the exploit of Case
//! Study II's leakage), the three attack strategies compared in Fig. 3
//! ([`attack`]), and the co-residence-driven container aggregation of
//! §IV-C ([`orchestrate`]).

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::iter_over_hash_type
)]

pub mod attack;
pub mod capping;
pub mod facility;
pub mod monitor;
pub mod orchestrate;
pub mod stealth;
pub mod trace;

pub use attack::{
    calibrate, strike, surge_fleet, AttackCampaign, AttackOutcome, AttackStrategy,
    SURGE_WINDOW_START,
};
pub use capping::{capping_experiment, CappingOutcome, RackCapController};
pub use facility::{BreakerState, CircuitBreaker};
pub use monitor::RaplMonitor;
pub use orchestrate::{AggregationOutcome, Orchestrator};
pub use stealth::{classify, StealthPolicy, StealthVerdict, UtilizationTrace};
pub use trace::DiurnalTrace;
