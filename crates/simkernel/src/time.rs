//! Virtual time.

use serde::{Deserialize, Serialize};

/// Nanoseconds per second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// `exp(-dt_s / tau_s)` for the last tick length one call site asked for.
/// A host ticks at one length for hours, so the `exp` runs when the length
/// changes, not every tick. Each memo serves one time constant: the key is
/// the tick length alone. A hit returns the very value a recomputation
/// would, so a memo moves no byte.
#[derive(Debug, Clone, Copy, Default)]
pub struct DecayMemo(Option<(u64, f64)>);

impl DecayMemo {
    /// The decay factor over `dt_ns` for time constant `tau_s`.
    pub fn get(&mut self, dt_ns: u64, tau_s: f64) -> f64 {
        match self.0 {
            Some((dt, decay)) if dt == dt_ns => decay,
            _ => {
                let dt_s = dt_ns as f64 / NANOS_PER_SEC as f64;
                let decay = (-dt_s / tau_s).exp();
                self.0 = Some((dt_ns, decay));
                decay
            }
        }
    }
}

/// The kernel's virtual clock.
///
/// Tracks nanoseconds since boot plus a wall-clock base (seconds since the
/// Unix epoch at boot), so uptime-style and btime-style channels can both be
/// served. Time only moves forward via [`Clock::advance`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Clock {
    since_boot_ns: u64,
    boot_wall_secs: u64,
}

impl Clock {
    /// Creates a clock whose boot instant is `boot_wall_secs` after the
    /// Unix epoch.
    pub fn new(boot_wall_secs: u64) -> Self {
        Clock {
            since_boot_ns: 0,
            boot_wall_secs,
        }
    }

    /// Nanoseconds elapsed since boot.
    pub fn since_boot_ns(&self) -> u64 {
        self.since_boot_ns
    }

    /// Whole seconds elapsed since boot.
    pub fn uptime_secs(&self) -> f64 {
        self.since_boot_ns as f64 / NANOS_PER_SEC as f64
    }

    /// Wall-clock seconds since the Unix epoch at boot (`btime`).
    pub fn boot_wall_secs(&self) -> u64 {
        self.boot_wall_secs
    }

    /// Current wall-clock seconds since the Unix epoch.
    pub fn wall_secs(&self) -> u64 {
        self.boot_wall_secs + self.since_boot_ns / NANOS_PER_SEC
    }

    /// Crash-reboots the clock: uptime restarts from zero and the boot
    /// instant (`btime`) advances to the current wall time plus
    /// `downtime_secs` of outage. Wall time never runs backwards.
    pub fn reboot(&mut self, downtime_secs: u64) {
        self.boot_wall_secs = self.wall_secs() + downtime_secs;
        self.since_boot_ns = 0;
    }

    /// Moves the clock forward by `dt_ns` nanoseconds.
    #[expect(
        clippy::expect_used,
        reason = "u128 nanosecond arithmetic cannot overflow within any representable \
            simulation horizon"
    )]
    pub fn advance(&mut self, dt_ns: u64) {
        self.since_boot_ns = self
            .since_boot_ns
            .checked_add(dt_ns)
            .expect("virtual clock overflow");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_monotonically() {
        let mut c = Clock::new(1_480_000_000);
        assert_eq!(c.since_boot_ns(), 0);
        c.advance(NANOS_PER_SEC * 3 / 2);
        assert_eq!(c.since_boot_ns(), 1_500_000_000);
        assert!((c.uptime_secs() - 1.5).abs() < 1e-9);
        assert_eq!(c.wall_secs(), 1_480_000_001);
        assert_eq!(c.boot_wall_secs(), 1_480_000_000);
    }

    #[test]
    fn wall_secs_floors_subsecond() {
        let mut c = Clock::new(100);
        c.advance(999_999_999);
        assert_eq!(c.wall_secs(), 100);
        c.advance(1);
        assert_eq!(c.wall_secs(), 101);
    }
}
