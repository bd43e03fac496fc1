//! The ContainerLeaks detection framework (the paper's §III).
//!
//! Four pieces, mirroring Fig. 1 and the Table I/II analyses:
//!
//! * [`crossval`] — the cross-validation tool: recursively explore
//!   `procfs`/`sysfs` in a host context and a container context, align by
//!   path, and differentially classify every file as *namespaced*,
//!   *leaking*, *masked*, or *partially masked*.
//! * [`channels`] — the channel inventory: Table I's 21 leakage channels
//!   and Table II's 29 ranked rows, each with its leaked-information
//!   description, vulnerability flags, and the measurement recipes for
//!   the uniqueness/variation/manipulation metrics.
//! * [`metrics`] — empirical assessment of U/V/M and the joint Shannon
//!   entropy of Formula (1), producing the Table II ranking.
//! * [`coresidence`] — concrete co-residence detectors built on the
//!   channels (boot-id match, timer-list signatures, uptime deltas,
//!   trace correlation), evaluated against placement ground truth.
//! * [`inspect`] — the cloud inspector that regenerates the Table I
//!   exposure matrix across provider profiles CC1–CC5.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::iter_over_hash_type
)]

pub mod adaptive;
pub mod agreement;
pub mod channels;
pub mod coresidence;
pub mod covert;
pub mod crossval;
pub mod dos;
pub mod fingerprint;
pub mod harden;
pub mod inspect;
pub mod lab;
pub mod metrics;
pub mod parse;

pub use adaptive::{AdaptiveAttacker, AttackCost, AttackerMode, PROBE_SET};
pub use channels::{Channel, ManipulationKind, UniquenessKind, TABLE1_CHANNELS, TABLE2_CHANNELS};
pub use coresidence::{CoResDetector, CoResOutcome, CoResVerdict, DetectorKind};
pub use covert::{CovertLink, CovertMedium, CovertOutcome};
pub use crossval::{ChannelClass, CrossValidator, FileFinding, HostSnapshot};
pub use dos::{ExhaustionOutcome, MemExhaustion};
pub use fingerprint::{FingerprintMatch, HostFingerprint};
pub use harden::{Hardener, HardeningReport};
pub use inspect::{CloudInspector, Exposure};
pub use lab::{Lab, ReadAttempt};
pub use metrics::{joint_entropy, ChannelAssessment, Confidence, MetricsAssessor, Table2Row};
