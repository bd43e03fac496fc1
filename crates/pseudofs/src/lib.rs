//! Simulated `procfs`/`sysfs`: the pseudo-file layer containers read.
//!
//! Linux exposes kernel state to user space through memory-based pseudo
//! file systems; container runtimes mount `/proc` and `/sys` (read-only)
//! into every container. The ContainerLeaks paper's observation is that
//! each pseudo-file's *handler* decides whether to consult the caller's
//! namespaces — and many don't, leaking host-global state.
//!
//! This crate reproduces that architecture faithfully:
//!
//! * A [`View`] captures *who is reading*: the host, or a container with a
//!   namespace set, cgroup membership, and a cloud provider's
//!   [`MaskPolicy`].
//! * [`ROUTES`] is the one description of the tree: each [`Route`] pairs a
//!   path template (`/proc/{0}/status`) and the kernel dimensions its
//!   holes range over with its handler and the subsystems it reads.
//!   [`PseudoFs::read`] resolves a path to its route and runs the handler;
//!   a path no route matches does not exist. Handlers for the
//!   channels in the paper's Table I deliberately ignore the view's
//!   namespaces (reading global kernel state), while control files like
//!   `/proc/self/status`, `/proc/net/dev`, or `/proc/sys/kernel/hostname`
//!   are properly namespaced — giving the cross-validation detector both
//!   classes to discriminate.
//! * [`PseudoFs::list`] enumerates every readable path for a view, each
//!   route's template instantiated over its dimensions as the kernel's
//!   topology has them, which is what the paper's recursive-exploration
//!   tool walks. [`PseudoFs::count`] counts a route the view's policy
//!   decides whole by its size, without formatting a path, for callers
//!   that need only how many there are. [`PseudoFs::walk`] reads every
//!   listed path in one pass, through the same checks as a single read.
//! * A [`Handle`] resolves a path once for a reader that re-reads it (the
//!   1 Hz RAPL monitor); [`PseudoFs::read_handle_into`] runs every
//!   per-read check of [`PseudoFs::read_into`] and skips only the resolve.
//!
//! # Example
//!
//! ```
//! use pseudofs::{PseudoFs, View};
//! use simkernel::{Kernel, MachineConfig};
//!
//! let mut k = Kernel::new(MachineConfig::small_server(), 1);
//! k.advance_secs(2);
//! let fs = PseudoFs::new();
//! let host = View::host();
//! let uptime = fs.read(&k, &host, "/proc/uptime")?;
//! assert!(uptime.starts_with("2."));
//! # Ok::<(), pseudofs::FsError>(())
//! ```

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::iter_over_hash_type
)]

pub mod error;
mod faultfx;
pub mod fs;
pub mod registry;
pub mod render;
pub mod view;

pub use error::FsError;
pub use fs::{Handle, PseudoFs, LIST_DEPS};
pub use registry::{changed_mask_deps, route_for, Render, Route, ROUTES};
pub use view::{glob_match, Context, MaskAction, MaskPolicy, MaskRule, View};
