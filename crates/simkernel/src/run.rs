//! The run configuration: execution modes for newly built kernels and
//! clouds.
//!
//! Every mode here is an invisible optimization — a run's artifacts are
//! byte-identical under any setting, which is exactly what the CLI flags
//! exist to let CI check. A configuration is entered for a scope on the
//! current thread ([`RunConfig::enter`]); [`crate::Kernel::new`] and
//! `cloudsim::CloudConfig::new` read [`RunConfig::current`]. Outside any
//! scope they get the compiled defaults: coalescing on, automatic
//! sharding. Being thread-scoped rather than process-wide, two
//! configurations can run side by side in one process (the experiment
//! pool re-enters the caller's configuration on each worker).
//!
//! This is the only way to pick a mode. A kernel keeps the modes it was
//! built under for life, and a cloud keeps the configuration current
//! when its `CloudConfig` was made, rebooted hosts included; code that
//! wants another mode enters a configuration around construction.

use std::cell::Cell;
use std::marker::PhantomData;

/// Execution modes picked up by kernels and clouds built while the
/// configuration is entered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Event-horizon tick coalescing (see [`crate::Kernel::coalescing`]).
    pub coalesce: bool,
    /// Fleet shard count for new clouds; `0` = auto (rack-aligned
    /// shards of ~128 hosts).
    pub shards: usize,
}

impl RunConfig {
    /// The compiled defaults: coalescing on, auto sharding.
    pub const DEFAULT: RunConfig = RunConfig {
        coalesce: true,
        shards: 0,
    };

    /// The configuration in effect on the current thread.
    pub fn current() -> RunConfig {
        CURRENT.with(Cell::get)
    }

    /// Makes this the current thread's configuration until the returned
    /// guard drops, which restores the previous one. Guards nest.
    #[must_use = "the configuration is only in effect while the guard lives"]
    pub fn enter(self) -> RunConfigGuard {
        RunConfigGuard {
            prev: CURRENT.with(|c| c.replace(self)),
            _thread_bound: PhantomData,
        }
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig::DEFAULT
    }
}

thread_local! {
    static CURRENT: Cell<RunConfig> = const { Cell::new(RunConfig::DEFAULT) };
}

/// Restores the previously current [`RunConfig`] on drop. Not `Send`: it
/// must drop on the thread that entered it.
#[derive(Debug)]
pub struct RunConfigGuard {
    prev: RunConfig,
    _thread_bound: PhantomData<*const ()>,
}

impl Drop for RunConfigGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guards_nest_and_restore() {
        assert_eq!(RunConfig::current(), RunConfig::DEFAULT);
        let off = RunConfig {
            coalesce: false,
            shards: 8,
        };
        {
            let _outer = off.enter();
            assert_eq!(RunConfig::current(), off);
            {
                let _inner = RunConfig { shards: 1, ..off }.enter();
                assert_eq!(RunConfig::current().shards, 1);
            }
            assert_eq!(RunConfig::current(), off);
            // Other threads keep their own configuration.
            std::thread::spawn(|| assert_eq!(RunConfig::current(), RunConfig::DEFAULT))
                .join()
                .unwrap();
        }
        assert_eq!(RunConfig::current(), RunConfig::DEFAULT);
    }
}
