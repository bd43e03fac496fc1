//! Scenario derivation: one `u64` seed → a whole scenario.
//!
//! The grammar is deliberately flat — every dimension is drawn from its
//! own range with an independent RNG draw, in a fixed documented order —
//! so (a) the same seed always derives the same scenario, and (b) a
//! dimension can be overridden (for shrinking or repro) without
//! perturbing the others.

use cloudsim::CloudProfile;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A fully derived scenario: everything a campaign run needs, as plain
/// data. `Scenario::derive(seed).with(&overrides)` is the only
/// constructor path, so a `(seed, overrides)` pair *is* a scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// The defining seed; all randomness below derives from it.
    pub seed: u64,
    /// Physical hosts in the fleet (1..=4).
    pub hosts: usize,
    /// Distinct tenants launching instances (1..=5).
    pub tenants: usize,
    /// Container churn cycles in the churn-soundness loop (0..=24).
    pub churn_cycles: u32,
    /// Steps of the mode-invariance transcript (8..=16), each advancing
    /// 1–3 simulated seconds with churn and probes in between.
    pub transcript_steps: u32,
    /// Whether the standard fault plan is installed on every host.
    pub faults: bool,
    /// The provider profile (Table I masking-policy matrix axis).
    pub profile: CloudProfile,
    /// Baseline co-resident attacker (payload-host) count for the power
    /// oracle (1..=2; the oracle compares against one fewer).
    pub attackers: usize,
    /// Event-horizon tick coalescing for this scenario's kernels.
    pub coalesce: bool,
    /// Worker threads for this scenario's fleet stepping (1..=4).
    pub jobs: usize,
    /// Diurnal background demand level (0.10..0.45).
    pub demand: f64,
    /// Fleet shard count for the event calendar (1..=4).
    pub shards: usize,
    /// Whether the online leak detector (and its live masking-policy
    /// enforcement) is attached to this scenario's clouds (~25%).
    pub detector: bool,
}

impl Scenario {
    /// Derives the scenario for `seed` (before overrides).
    pub fn derive(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5ce0_a21d_0c4a_71e5);
        // Draw order is part of the derivation grammar: reordering these
        // lines would silently re-map every seed.
        let hosts = rng.random_range(1..5usize);
        let tenants = rng.random_range(1..6usize);
        let churn_cycles = rng.random_range(0..25u32);
        let transcript_steps = rng.random_range(8..17u32);
        let faults = rng.random_range(0..100u32) < 30;
        let profile = CloudProfile::COMMERCIAL[rng.random_range(0..CloudProfile::COMMERCIAL.len())];
        let attackers = rng.random_range(1..3usize);
        let coalesce = rng.random_range(0..2u32) == 0;
        // The retired render-cache mode. Nothing reads it, but the draw
        // stays so every seed keeps mapping to the same scenario.
        let _ = rng.random_range(0..2u32);
        let jobs = rng.random_range(1..5usize);
        let demand = 0.10 + 0.35 * rng.random::<f64>();
        // Appended after the PR-4-era dimensions so every seed keeps
        // deriving the same values for them.
        let shards = rng.random_range(1..5usize);
        // Appended after the shard dimension for the same reason.
        let detector = rng.random_range(0..4u32) == 0;
        Scenario {
            seed,
            hosts,
            tenants,
            churn_cycles,
            transcript_steps,
            faults,
            profile,
            attackers,
            coalesce,
            jobs,
            demand,
            shards,
            detector,
        }
    }

    /// Applies overrides on top of the derived values.
    #[must_use]
    pub fn with(mut self, o: &Overrides) -> Self {
        if let Some(h) = o.hosts {
            self.hosts = h.max(1);
        }
        if let Some(t) = o.tenants {
            self.tenants = t.max(1);
        }
        if let Some(c) = o.churn_cycles {
            self.churn_cycles = c;
        }
        if let Some(f) = o.faults {
            self.faults = f;
        }
        self
    }

    /// The copy-pasteable command reproducing exactly this scenario
    /// (seed plus whatever overrides are in force).
    pub fn repro_command(seed: u64, o: &Overrides) -> String {
        let mut cmd = format!(
            "cargo run --release -p containerleaks-experiments --bin campaign -- --seed {seed}"
        );
        if let Some(h) = o.hosts {
            cmd.push_str(&format!(" --hosts {h}"));
        }
        if let Some(t) = o.tenants {
            cmd.push_str(&format!(" --tenants {t}"));
        }
        if let Some(c) = o.churn_cycles {
            cmd.push_str(&format!(" --churn {c}"));
        }
        if let Some(f) = o.faults {
            cmd.push_str(&format!(" --faults {}", if f { "on" } else { "off" }));
        }
        cmd
    }

    /// One-line summary of the derived dimensions (report tables).
    pub fn summary(&self) -> String {
        format!(
            "{}h/{}t churn={} steps={} {} {} {}/j{} d={:.2} s{}{}",
            self.hosts,
            self.tenants,
            self.churn_cycles,
            self.transcript_steps,
            self.profile.slug(),
            if self.faults { "faulted" } else { "clean" },
            if self.coalesce { "co" } else { "tick" },
            self.jobs,
            self.demand,
            self.shards,
            if self.detector { " det" } else { "" },
        )
    }
}

/// Per-dimension overrides: `None` keeps the seed-derived value. The
/// shrinker reports minimal failing scenarios as a seed plus this.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct Overrides {
    /// Fleet size override.
    pub hosts: Option<usize>,
    /// Tenant count override.
    pub tenants: Option<usize>,
    /// Churn-cycle override.
    pub churn_cycles: Option<u32>,
    /// Fault-plan override (`false` = no faults).
    pub faults: Option<bool>,
}

impl Overrides {
    /// Whether no dimension is overridden.
    pub fn is_empty(&self) -> bool {
        *self == Overrides::default()
    }

    /// Compact display for reports (`-` when empty).
    pub fn summary(&self) -> String {
        if self.is_empty() {
            return "-".to_string();
        }
        let mut parts = Vec::new();
        if let Some(h) = self.hosts {
            parts.push(format!("hosts={h}"));
        }
        if let Some(t) = self.tenants {
            parts.push(format!("tenants={t}"));
        }
        if let Some(c) = self.churn_cycles {
            parts.push(format!("churn={c}"));
        }
        if let Some(f) = self.faults {
            parts.push(format!("faults={}", if f { "on" } else { "off" }));
        }
        parts.join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_a_pure_function_of_the_seed() {
        for seed in 0..50u64 {
            assert_eq!(Scenario::derive(seed), Scenario::derive(seed));
        }
        assert_ne!(Scenario::derive(1).summary(), Scenario::derive(2).summary());
    }

    #[test]
    fn dimensions_stay_in_their_documented_ranges() {
        let mut with_detector = 0usize;
        for seed in 0..500u64 {
            let s = Scenario::derive(seed);
            assert!((1..=4).contains(&s.hosts));
            assert!((1..=5).contains(&s.tenants));
            assert!(s.churn_cycles <= 24);
            assert!((8..=16).contains(&s.transcript_steps));
            assert!((1..=2).contains(&s.attackers));
            assert!((1..=4).contains(&s.jobs));
            assert!((0.10..0.45).contains(&s.demand));
            assert!((1..=4).contains(&s.shards));
            with_detector += usize::from(s.detector);
        }
        // ~25% of scenarios run with the online detector attached; both
        // arms of the dimension must actually occur in a sweep.
        assert!((50..=450).contains(&with_detector), "{with_detector}");
    }

    #[test]
    fn overrides_replace_only_named_dimensions() {
        let base = Scenario::derive(7);
        let o = Overrides {
            hosts: Some(1),
            faults: Some(false),
            ..Overrides::default()
        };
        let s = base.with(&o);
        assert_eq!(s.hosts, 1);
        assert!(!s.faults);
        assert_eq!(s.tenants, base.tenants);
        assert_eq!(s.churn_cycles, base.churn_cycles);
    }

    #[test]
    fn repro_command_names_only_overridden_dims() {
        let cmd = Scenario::repro_command(42, &Overrides::default());
        assert!(cmd.ends_with("--seed 42"));
        let o = Overrides {
            churn_cycles: Some(3),
            ..Overrides::default()
        };
        assert!(Scenario::repro_command(42, &o).contains("--churn 3"));
    }
}
