//! Core workload specification types.

use serde::{Deserialize, Serialize};

/// Broad class of a workload, used by experiment harnesses to pick
/// representative mixes and by documentation/reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadClass {
    /// Busy-waiting or near-idle loops (the paper's "idle loop written in C").
    Idle,
    /// Compute-dense integer workloads (Prime95, Dhrystone).
    ComputeInt,
    /// Floating-point heavy workloads (Whetstone, povray).
    ComputeFp,
    /// Memory-bound workloads with high cache-miss rates (stress --vm, mcf).
    MemoryBound,
    /// Mixed workloads (bzip2, gobmk).
    Mixed,
    /// Workloads crafted to maximize power draw (power viruses).
    PowerVirus,
    /// Kernel-intensive workloads (UnixBench syscall/pipe/exec tests).
    KernelIntensive,
}

/// One steady-state phase of a workload.
///
/// All rates are expressed *per CPU cycle of execution on a core*, so the
/// simulated scheduler can account work for arbitrary time slices: when a
/// process in this phase runs for `c` cycles, it retires
/// `c * instructions_per_cycle` instructions, suffers
/// `instructions * cache_miss_per_kilo_instr / 1000` cache misses, and so on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// Nominal duration of this phase in nanoseconds of *CPU time*
    /// (not wall time; a descheduled process does not progress).
    pub duration_ns: u64,
    /// Average retired instructions per core cycle (IPC). Typical range
    /// 0.3 (memory bound) to 2.5 (compute dense).
    pub instructions_per_cycle: f64,
    /// Last-level cache misses per 1000 retired instructions.
    pub cache_miss_per_kilo_instr: f64,
    /// Branch mispredictions per 1000 retired instructions.
    pub branch_miss_per_kilo_instr: f64,
    /// Fraction of retired instructions that are floating point, in `[0, 1]`.
    pub fp_ratio: f64,
    /// Resident memory touched by this phase, in bytes.
    pub mem_bytes: u64,
    /// Syscalls issued per second of CPU time.
    pub syscalls_per_sec: f64,
    /// Block-IO bytes per second of CPU time.
    pub io_bytes_per_sec: f64,
    /// Fraction of wall time the workload actually wants the CPU, in
    /// `(0, 1]`. A value below 1 models bursty or interactive programs.
    pub cpu_demand: f64,
}

impl Phase {
    /// A quiescent phase: negligible work, minimal footprint.
    pub fn quiescent(duration_ns: u64) -> Self {
        Phase {
            duration_ns,
            instructions_per_cycle: 0.05,
            cache_miss_per_kilo_instr: 0.1,
            branch_miss_per_kilo_instr: 0.2,
            fp_ratio: 0.0,
            mem_bytes: 4 << 20,
            syscalls_per_sec: 10.0,
            io_bytes_per_sec: 0.0,
            cpu_demand: 0.01,
        }
    }

    /// Validates physical plausibility of the phase parameters.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint (non-positive duration, IPC out of `(0, 8]`, negative
    /// rates, ratios outside `[0, 1]`, or demand outside `(0, 1]`).
    pub fn validate(&self) -> Result<(), String> {
        if self.duration_ns == 0 {
            return Err("phase duration must be positive".into());
        }
        if !(self.instructions_per_cycle > 0.0 && self.instructions_per_cycle <= 8.0) {
            return Err(format!(
                "instructions_per_cycle {} outside (0, 8]",
                self.instructions_per_cycle
            ));
        }
        if self.cache_miss_per_kilo_instr < 0.0 || self.branch_miss_per_kilo_instr < 0.0 {
            return Err("miss rates must be non-negative".into());
        }
        if !(0.0..=1.0).contains(&self.fp_ratio) {
            return Err(format!("fp_ratio {} outside [0, 1]", self.fp_ratio));
        }
        if !(self.cpu_demand > 0.0 && self.cpu_demand <= 1.0) {
            return Err(format!("cpu_demand {} outside (0, 1]", self.cpu_demand));
        }
        if self.syscalls_per_sec < 0.0 || self.io_bytes_per_sec < 0.0 {
            return Err("rates must be non-negative".into());
        }
        Ok(())
    }
}

/// Whether a workload loops over its phases forever or runs them once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Repeat {
    /// Cycle through the phases indefinitely (services, attack loops).
    Forever,
    /// Run the phase list once, then exit (benchmarks).
    Once,
}

/// A complete workload model: a named, classed sequence of phases.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    name: String,
    class: WorkloadClass,
    phases: Vec<Phase>,
    repeat: Repeat,
}

impl WorkloadSpec {
    /// Creates a workload from its parts.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or any phase fails [`Phase::validate`].
    /// Workload construction happens at experiment-definition time, where a
    /// malformed model is a programming error.
    #[expect(
        clippy::panic,
        reason = "documented constructor contract: a malformed workload model is a programming \
            error at experiment-definition time"
    )]
    pub fn new(
        name: impl Into<String>,
        class: WorkloadClass,
        phases: Vec<Phase>,
        repeat: Repeat,
    ) -> Self {
        assert!(!phases.is_empty(), "workload must have at least one phase");
        for (i, p) in phases.iter().enumerate() {
            if let Err(e) = p.validate() {
                panic!("phase {i} of workload invalid: {e}");
            }
        }
        WorkloadSpec {
            name: name.into(),
            class,
            phases,
            repeat,
        }
    }

    /// The workload's display name (e.g. `"prime"` or `"401.bzip2"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The workload's broad class.
    pub fn class(&self) -> WorkloadClass {
        self.class
    }

    /// The phase list.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Whether the workload loops.
    pub fn repeat(&self) -> Repeat {
        self.repeat
    }

    /// Total CPU time of one pass over the phases, in nanoseconds.
    pub fn pass_duration_ns(&self) -> u64 {
        self.phases.iter().map(|p| p.duration_ns).sum()
    }

    /// The phase in effect after `cpu_ns` nanoseconds of accumulated CPU
    /// time. For [`Repeat::Once`] workloads past their end, the final phase
    /// is returned (callers use [`PhaseCursor`] to detect completion).
    #[expect(
        clippy::expect_used,
        reason = "`new` rejects an empty phase list, so `last` always finds a phase"
    )]
    pub fn phase_at_progress(&self, cpu_ns: u64) -> &Phase {
        // Every progress lands in the only phase of a one-phase workload.
        if let [only] = self.phases.as_slice() {
            return only;
        }
        let pass = self.pass_duration_ns();
        let mut t = match self.repeat {
            Repeat::Forever => cpu_ns % pass,
            Repeat::Once => cpu_ns.min(pass.saturating_sub(1)),
        };
        for p in &self.phases {
            if t < p.duration_ns {
                return p;
            }
            t -= p.duration_ns;
        }
        self.phases.last().expect("non-empty phases")
    }

    /// Sets every phase's `cpu_demand` to `demand` in place, leaving the
    /// rest of the phase structure (durations, rates, name) untouched.
    /// Fleet drivers retarget long-lived background services every
    /// simulated interval; rebuilding the whole spec for a pure demand
    /// change would churn allocations in their hottest loop.
    ///
    /// # Panics
    ///
    /// Panics if `demand` is outside `(0, 1]`, mirroring
    /// [`Phase::validate`] at construction time.
    pub fn set_uniform_cpu_demand(&mut self, demand: f64) {
        assert!(
            demand > 0.0 && demand <= 1.0,
            "cpu_demand {demand} outside (0, 1]"
        );
        for p in &mut self.phases {
            p.cpu_demand = demand;
        }
    }

    /// Returns a copy of this workload scaled so that every phase's
    /// instruction rate is multiplied by `factor` (used to model frequency
    /// scaling or throttling).
    #[must_use]
    pub fn scaled_intensity(&self, factor: f64) -> WorkloadSpec {
        assert!(factor > 0.0, "intensity factor must be positive");
        let phases = self
            .phases
            .iter()
            .map(|p| Phase {
                instructions_per_cycle: (p.instructions_per_cycle * factor).min(8.0),
                ..p.clone()
            })
            .collect();
        WorkloadSpec {
            name: format!("{}@x{factor:.2}", self.name),
            class: self.class,
            phases,
            repeat: self.repeat,
        }
    }
}

/// Tracks a running process's position inside a [`WorkloadSpec`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseCursor {
    consumed_cpu_ns: u64,
}

impl PhaseCursor {
    /// A cursor at the beginning of the workload.
    pub fn new() -> Self {
        PhaseCursor { consumed_cpu_ns: 0 }
    }

    /// Total CPU time consumed so far, in nanoseconds.
    pub fn consumed_cpu_ns(&self) -> u64 {
        self.consumed_cpu_ns
    }

    /// Advances the cursor by `cpu_ns` of executed CPU time and reports
    /// whether a [`Repeat::Once`] workload has now finished.
    pub fn advance(&mut self, spec: &WorkloadSpec, cpu_ns: u64) -> bool {
        self.consumed_cpu_ns = self.consumed_cpu_ns.saturating_add(cpu_ns);
        matches!(spec.repeat(), Repeat::Once) && self.consumed_cpu_ns >= spec.pass_duration_ns()
    }

    /// The phase currently in effect.
    pub fn current_phase<'a>(&self, spec: &'a WorkloadSpec) -> &'a Phase {
        spec.phase_at_progress(self.consumed_cpu_ns)
    }
}

impl Default for PhaseCursor {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_phase() -> WorkloadSpec {
        WorkloadSpec::new(
            "t",
            WorkloadClass::Mixed,
            vec![
                Phase {
                    duration_ns: 100,
                    ..Phase::quiescent(100)
                },
                Phase {
                    duration_ns: 200,
                    instructions_per_cycle: 2.0,
                    ..Phase::quiescent(200)
                },
            ],
            Repeat::Forever,
        )
    }

    #[test]
    fn pass_duration_sums_phases() {
        assert_eq!(two_phase().pass_duration_ns(), 300);
    }

    #[test]
    fn phase_lookup_wraps_for_forever() {
        let w = two_phase();
        assert_eq!(w.phase_at_progress(0).duration_ns, 100);
        assert_eq!(w.phase_at_progress(99).duration_ns, 100);
        assert_eq!(w.phase_at_progress(100).duration_ns, 200);
        assert_eq!(w.phase_at_progress(299).duration_ns, 200);
        // wrap-around
        assert_eq!(w.phase_at_progress(300).duration_ns, 100);
        assert_eq!(w.phase_at_progress(701).duration_ns, 200);
    }

    #[test]
    fn phase_lookup_clamps_for_once() {
        let mut w = two_phase();
        w.repeat = Repeat::Once;
        assert_eq!(w.phase_at_progress(10_000).duration_ns, 200);
    }

    #[test]
    fn cursor_reports_completion_only_for_once() {
        let mut once = two_phase();
        once.repeat = Repeat::Once;
        let mut c = PhaseCursor::new();
        assert!(!c.advance(&once, 299));
        assert!(c.advance(&once, 1));

        let forever = two_phase();
        let mut c = PhaseCursor::new();
        assert!(!c.advance(&forever, 1_000_000));
    }

    #[test]
    fn scaled_intensity_caps_ipc() {
        let w = two_phase().scaled_intensity(100.0);
        for p in w.phases() {
            assert!(p.instructions_per_cycle <= 8.0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_phases_rejected() {
        let _ = WorkloadSpec::new("x", WorkloadClass::Idle, vec![], Repeat::Once);
    }

    #[test]
    fn validate_rejects_bad_ipc() {
        let mut p = Phase::quiescent(10);
        p.instructions_per_cycle = 0.0;
        assert!(p.validate().is_err());
        p.instructions_per_cycle = 9.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_demand() {
        let mut p = Phase::quiescent(10);
        p.cpu_demand = 0.0;
        assert!(p.validate().is_err());
        p.cpu_demand = 1.5;
        assert!(p.validate().is_err());
    }

    #[test]
    fn workload_spec_survives_serde_roundtrip() {
        let w = two_phase();
        let json = serde_json::to_string(&w).unwrap();
        let back: WorkloadSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(w, back);
    }

    #[test]
    fn validate_rejects_bad_fp_ratio() {
        let mut p = Phase::quiescent(10);
        p.fp_ratio = -0.1;
        assert!(p.validate().is_err());
        p.fp_ratio = 1.1;
        assert!(p.validate().is_err());
    }
}
