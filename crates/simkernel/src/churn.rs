//! Randomized container-environment churn driver.
//!
//! Adopts the HCBS-Test-Suite stress idiom — a seeded RNG walking a loop
//! of create → attach work → run → kill → destroy over cgroup/namespace
//! environments — directly at the kernel layer, so the exact teardown
//! paths ([`Kernel::kill`], [`Kernel::destroy_container_env`], namespace
//! pid release, cgroup removal, veth unregistration) get exercised at
//! fuzzable rates instead of only in hand-written lifecycles.
//!
//! Every decision is drawn from the injected [`StdRng`], so a plan is a
//! pure function of its seed: two kernels driven by the same plan make
//! identical calls in identical order, so a churn-soundness violation
//! the campaign finds replays exactly from its seed.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use workloads::models;

use crate::kernel::{ContainerEnv, Kernel, ProcessSpec};
use crate::process::HostPid;
use crate::time::NANOS_PER_SEC;

/// Tuning knobs for one churn run. All fields are plain data so a plan
/// can be derived from a campaign scenario and embedded in its repro.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnPlan {
    /// RNG seed; the entire event sequence is a pure function of it.
    pub seed: u64,
    /// Number of churn cycles ([`ChurnDriver::step`] calls) to run.
    pub cycles: u32,
    /// Ceiling on concurrently live container environments.
    pub max_live: usize,
    /// Processes spawned into each freshly created environment.
    pub procs_per_env: usize,
    /// Upper bound on the simulated time advanced after each cycle,
    /// milliseconds (each cycle draws uniformly from `1..=` this).
    pub advance_max_ms: u64,
}

impl ChurnPlan {
    /// A moderate default plan: 24 cycles, up to 4 live environments,
    /// 2 processes each, up to 250 simulated ms between events.
    pub fn new(seed: u64) -> Self {
        ChurnPlan {
            seed,
            cycles: 24,
            max_live: 4,
            procs_per_env: 2,
            advance_max_ms: 250,
        }
    }

    /// Sets the cycle count.
    #[must_use]
    pub fn cycles(mut self, n: u32) -> Self {
        self.cycles = n;
        self
    }

    /// Sets the live-environment ceiling (min 1).
    #[must_use]
    pub fn max_live(mut self, n: usize) -> Self {
        self.max_live = n.max(1);
        self
    }
}

/// Counts of the lifecycle events one churn run performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChurnStats {
    /// Container environments created.
    pub created: u64,
    /// Container environments destroyed.
    pub destroyed: u64,
    /// Processes spawned (initial and late attaches).
    pub spawned: u64,
    /// Processes killed individually (not via environment teardown).
    pub killed: u64,
    /// Total simulated nanoseconds advanced between events.
    pub advanced_ns: u64,
}

/// What a single churn cycle did — callers interleave probes on the
/// events they care about (e.g. re-read the pseudo-fs surface after
/// every teardown).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// A fresh environment was created (index into [`ChurnDriver::live`]).
    Created(usize),
    /// An extra process was spawned into a live environment.
    Spawned(usize),
    /// One process in a live environment was killed.
    Killed(usize),
    /// A live environment was destroyed (index it held before removal).
    Destroyed(usize),
}

/// The driver: owns the RNG, the live environment table, and the stats.
#[derive(Debug)]
pub struct ChurnDriver {
    plan: ChurnPlan,
    rng: StdRng,
    generation: u64,
    live: Vec<(ContainerEnv, Vec<HostPid>)>,
    stats: ChurnStats,
}

impl ChurnDriver {
    /// Creates a driver for `plan`. No kernel calls happen until
    /// [`ChurnDriver::step`].
    pub fn new(plan: ChurnPlan) -> Self {
        ChurnDriver {
            plan,
            rng: StdRng::seed_from_u64(plan.seed ^ 0xc4a2_11e5_c417_u64),
            generation: 0,
            live: Vec::new(),
            stats: ChurnStats::default(),
        }
    }

    /// The live environments with the host pids spawned into them.
    pub fn live(&self) -> &[(ContainerEnv, Vec<HostPid>)] {
        &self.live
    }

    /// Event counts so far.
    pub fn stats(&self) -> &ChurnStats {
        &self.stats
    }

    /// The monotone per-driver container generation counter (names are
    /// `churn-<generation>`, so recreated containers never alias).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    fn long_lived_workload(&mut self) -> workloads::WorkloadSpec {
        // Only non-terminating workloads: a self-exiting process would
        // make the live table depend on how far the kernel has ticked,
        // entangling the event sequence with timing.
        match self.rng.random_range(0..3u32) {
            0 => models::sleeper(),
            1 => models::idle_loop(),
            _ => models::web_service(0.1 + 0.3 * self.rng.random::<f64>()),
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "env creation on a kernel the driver owns only fails on cgroup bookkeeping \
            bugs; the campaign catches the panic per-scenario and reports it with a \
            repro seed instead of masking the bug"
    )]
    fn create(&mut self, k: &mut Kernel) -> ChurnEvent {
        self.generation += 1;
        let name = format!("churn-{}", self.generation);
        let env = k
            .create_container_env(&name)
            .expect("churn container creation");
        let mut pids = Vec::new();
        for i in 0..self.plan.procs_per_env {
            let w = self.long_lived_workload();
            let spec = ProcessSpec::new(format!("{name}-p{i}"), w).in_container(&env);
            if let Ok(pid) = k.spawn(spec) {
                pids.push(pid);
                self.stats.spawned += 1;
            }
        }
        self.live.push((env, pids));
        self.stats.created += 1;
        simtrace::counters::add("churn.envs_created", 1);
        ChurnEvent::Created(self.live.len() - 1)
    }

    /// Runs one churn cycle: a weighted lifecycle event followed by a
    /// short randomized advance, and reports what happened.
    #[expect(
        clippy::expect_used,
        reason = "destroying an env the driver itself created cannot miss; a failure is a \
            teardown bug the fuzzer must surface loudly (the campaign converts the panic \
            into a structured outcome)"
    )]
    pub fn step(&mut self, k: &mut Kernel) -> ChurnEvent {
        let roll = self.rng.random_range(0..100u32);
        let event = if self.live.is_empty() || (roll < 35 && self.live.len() < self.plan.max_live) {
            self.create(k)
        } else if roll < 55 {
            // Kill one process out of a random environment that has any.
            let candidates: Vec<usize> = (0..self.live.len())
                .filter(|i| !self.live[*i].1.is_empty())
                .collect();
            if candidates.is_empty() {
                self.create_or_spawn(k)
            } else {
                let idx = candidates[self.rng.random_range(0..candidates.len())];
                let pids = &mut self.live[idx].1;
                let victim = pids.swap_remove(self.rng.random_range(0..pids.len()));
                let _ = k.kill(victim);
                self.stats.killed += 1;
                simtrace::counters::add("churn.kills", 1);
                ChurnEvent::Killed(idx)
            }
        } else if roll < 80 {
            let idx = self.rng.random_range(0..self.live.len());
            let (env, _pids) = self.live.swap_remove(idx);
            // destroy_container_env reaps remaining members itself.
            k.destroy_container_env(&env)
                .expect("churn container teardown");
            self.stats.destroyed += 1;
            simtrace::counters::add("churn.envs_destroyed", 1);
            ChurnEvent::Destroyed(idx)
        } else {
            self.create_or_spawn(k)
        };
        let ms = self.rng.random_range(0..self.plan.advance_max_ms) + 1;
        k.advance(ms * (NANOS_PER_SEC / 1_000));
        self.stats.advanced_ns += ms * (NANOS_PER_SEC / 1_000);
        event
    }

    fn create_or_spawn(&mut self, k: &mut Kernel) -> ChurnEvent {
        if self.live.is_empty()
            || self.live.len() < self.plan.max_live && self.rng.random::<f64>() < 0.5
        {
            return self.create(k);
        }
        let idx = self.rng.random_range(0..self.live.len());
        let w = self.long_lived_workload();
        let name = format!("churn-late-{}", self.stats.spawned);
        let spec = ProcessSpec::new(name, w).in_container(&self.live[idx].0);
        if let Ok(pid) = k.spawn(spec) {
            self.live[idx].1.push(pid);
            self.stats.spawned += 1;
        }
        simtrace::counters::add("churn.spawns", 1);
        ChurnEvent::Spawned(idx)
    }

    /// Runs the plan's full cycle budget.
    pub fn run(&mut self, k: &mut Kernel) {
        for _ in 0..self.plan.cycles {
            self.step(k);
        }
    }

    /// Destroys every remaining live environment (end-of-scenario
    /// cleanup, itself a teardown stress).
    #[expect(
        clippy::expect_used,
        reason = "destroying an env the driver itself created cannot miss; a failure is a \
            teardown bug the fuzzer must surface loudly (the campaign converts the panic \
            into a structured outcome)"
    )]
    pub fn teardown_all(&mut self, k: &mut Kernel) {
        while let Some((env, _)) = self.live.pop() {
            k.destroy_container_env(&env).expect("churn final teardown");
            self.stats.destroyed += 1;
            simtrace::counters::add("churn.envs_destroyed", 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    #[test]
    fn same_plan_drives_twin_kernels_identically() {
        let plan = ChurnPlan::new(7).cycles(30);
        let mut ka = Kernel::new(MachineConfig::small_server(), 11);
        let mut kb = Kernel::new(MachineConfig::small_server(), 11);
        let mut da = ChurnDriver::new(plan);
        let mut db = ChurnDriver::new(plan);
        for _ in 0..plan.cycles {
            assert_eq!(da.step(&mut ka), db.step(&mut kb));
        }
        assert_eq!(da.stats(), db.stats());
        assert_eq!(ka.clock().since_boot_ns(), kb.clock().since_boot_ns());
        assert_eq!(da.live().len(), db.live().len());
    }

    #[test]
    fn churn_exercises_create_and_destroy() {
        let mut k = Kernel::new(MachineConfig::small_server(), 3);
        let mut d = ChurnDriver::new(ChurnPlan::new(42).cycles(60));
        d.run(&mut k);
        d.teardown_all(&mut k);
        let s = d.stats();
        assert!(s.created >= 3, "expected several creations, got {s:?}");
        assert_eq!(s.created, s.destroyed, "teardown_all must drain: {s:?}");
        assert!(d.live().is_empty());
    }

    #[test]
    fn teardown_keeps_registries_bounded() {
        let mut k = Kernel::new(MachineConfig::small_server(), 5);
        let ns_before = k.namespaces().len();
        let mut d = ChurnDriver::new(ChurnPlan::new(9).cycles(80).max_live(3));
        d.run(&mut k);
        d.teardown_all(&mut k);
        // Every container's seven namespaces must be gone again.
        assert_eq!(k.namespaces().len(), ns_before);
    }
}
