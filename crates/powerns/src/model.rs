//! Power modeling (§V-B2, Formula 2).
//!
//! ```text
//! M_core    = F(CM/C, BM/C) · I + α
//! M_dram    = β · CM + γ
//! M_package = M_core + M_dram + λ
//! ```
//!
//! with `F` a multiple linear regression over the per-instruction miss
//! rates plus a cycle term, so the core model is linear in the features
//! `[I, CM, BM, C, 1]` (`F·I = f0·I + f1·CM + f2·BM`, and the `C`
//! coefficient captures busy-time baseline power — the cycles are already
//! collected per Fig. 5's data-collection stage, so this stays within the
//! paper's measured inputs). The paper
//! motivates this over plain CPU-utilization models: energy is almost
//! strictly linear in retired instructions *per workload*, but the slope
//! varies with the workload's microarchitectural mix (Fig. 6) — the miss
//! rates recover the slope. Training runs the paper's calibration set
//! (idle loop, prime, libquantum, stress) and fits by least squares. The
//! fitted [`PowerModel`] is plain data the kernel holds once the namespace
//! is installed.

use serde::{Deserialize, Serialize};
use simkernel::kernel::ProcessSpec;
use simkernel::{Kernel, MachineConfig};
use workloads::WorkloadSpec;

pub use simkernel::PowerModel;

/// One training observation: per-interval counter deltas plus the
/// ground-truth RAPL energy deltas for the same interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelSample {
    /// Retired instructions in the interval.
    pub instructions: f64,
    /// Cache misses.
    pub cache_misses: f64,
    /// Branch misses.
    pub branch_misses: f64,
    /// CPU cycles.
    pub cycles: f64,
    /// Ground-truth core-domain energy, µJ.
    pub core_uj: f64,
    /// Ground-truth DRAM-domain energy, µJ.
    pub dram_uj: f64,
    /// Ground-truth package-domain energy, µJ.
    pub package_uj: f64,
}

impl ModelSample {
    fn core_features(&self) -> [f64; 5] {
        [
            self.instructions,
            self.cache_misses,
            self.branch_misses,
            self.cycles,
            1.0,
        ]
    }
}

/// Fits a [`PowerModel`] to training samples by least squares.
///
/// # Panics
///
/// Panics if fewer than 8 samples are supplied (the normal equations
/// would be singular) — training always produces hundreds.
pub fn fit(samples: &[ModelSample]) -> PowerModel {
    assert!(samples.len() >= 8, "need at least 8 training samples");
    let xs: Vec<[f64; 5]> = samples.iter().map(|s| s.core_features()).collect();
    let ys: Vec<f64> = samples.iter().map(|s| s.core_uj).collect();
    let core_coef = least_squares::<5>(&xs, &ys);

    let xd: Vec<[f64; 2]> = samples.iter().map(|s| [s.cache_misses, 1.0]).collect();
    let yd: Vec<f64> = samples.iter().map(|s| s.dram_uj).collect();
    let dram_coef = least_squares::<2>(&xd, &yd);

    let lambda_uj = samples
        .iter()
        .map(|s| s.package_uj - s.core_uj - s.dram_uj)
        .sum::<f64>()
        / samples.len() as f64;

    PowerModel {
        core_coef,
        dram_coef,
        lambda_uj,
    }
}

/// Ordinary least squares via normal equations + Gaussian elimination
/// with partial pivoting. `N` is small (2 or 4), so this is exact enough.
fn least_squares<const N: usize>(xs: &[[f64; N]], ys: &[f64]) -> [f64; N] {
    // Normalize features to comparable scales for conditioning.
    let mut scale = [0.0f64; N];
    for x in xs {
        for i in 0..N {
            scale[i] = scale[i].max(x[i].abs());
        }
    }
    for s in &mut scale {
        if *s == 0.0 {
            *s = 1.0;
        }
    }
    let mut ata = [[0.0f64; N]; N];
    let mut atb = [0.0f64; N];
    for (x, y) in xs.iter().zip(ys) {
        let xn: Vec<f64> = (0..N).map(|i| x[i] / scale[i]).collect();
        for i in 0..N {
            for j in 0..N {
                ata[i][j] += xn[i] * xn[j];
            }
            atb[i] += xn[i] * y;
        }
    }
    // Ridge epsilon for numerical safety.
    for (i, row) in ata.iter_mut().enumerate() {
        row[i] += 1e-9;
    }
    let sol = gauss_solve::<N>(&mut ata, &mut atb);
    let mut out = [0.0f64; N];
    for i in 0..N {
        out[i] = sol[i] / scale[i];
    }
    out
}

fn gauss_solve<const N: usize>(a: &mut [[f64; N]; N], b: &mut [f64; N]) -> [f64; N] {
    for col in 0..N {
        // Partial pivot.
        let mut pivot = col;
        for row in (col + 1)..N {
            if a[row][col].abs() > a[pivot][col].abs() {
                pivot = row;
            }
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        let diag = a[col][col];
        if diag.abs() < 1e-30 {
            continue;
        }
        for row in (col + 1)..N {
            let factor = a[row][col] / diag;
            let pivot_row = a[col];
            for (k, pivot) in pivot_row.iter().enumerate().skip(col) {
                a[row][k] -= factor * pivot;
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = [0.0f64; N];
    for col in (0..N).rev() {
        let mut sum = b[col];
        for k in (col + 1)..N {
            sum -= a[col][k] * x[k];
        }
        x[col] = if a[col][col].abs() < 1e-30 {
            0.0
        } else {
            sum / a[col][col]
        };
    }
    x
}

/// A (benchmark name, cumulative instructions or misses, cumulative
/// energy µJ) point series — the data behind Fig. 6 / Fig. 7.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EnergyCurve {
    /// Workload name.
    pub name: String,
    /// (x, energy µJ) samples; x = instructions (Fig. 6) or cache misses
    /// (Fig. 7).
    pub points: Vec<(f64, f64)>,
}

impl EnergyCurve {
    /// Least-squares slope of the curve (µJ per x-unit).
    pub fn slope(&self) -> f64 {
        let n = self.points.len() as f64;
        if n < 2.0 {
            return 0.0;
        }
        let (sx, sy): (f64, f64) = self
            .points
            .iter()
            .fold((0.0, 0.0), |(a, b), (x, y)| (a + x, b + y));
        let (mx, my) = (sx / n, sy / n);
        let mut num = 0.0;
        let mut den = 0.0;
        for (x, y) in &self.points {
            num += (x - mx) * (y - my);
            den += (x - mx) * (x - mx);
        }
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    }

    /// Coefficient of determination (R²) of the linear fit — the paper's
    /// "almost strictly linear" claim quantified.
    pub fn r_squared(&self) -> f64 {
        let slope = self.slope();
        let n = self.points.len() as f64;
        let my = self.points.iter().map(|(_, y)| y).sum::<f64>() / n;
        let mx = self.points.iter().map(|(x, _)| x).sum::<f64>() / n;
        let intercept = my - slope * mx;
        let mut ss_res = 0.0;
        let mut ss_tot = 0.0;
        for (x, y) in &self.points {
            let pred = slope * x + intercept;
            ss_res += (y - pred) * (y - pred);
            ss_tot += (y - my) * (y - my);
        }
        if ss_tot == 0.0 {
            1.0
        } else {
            1.0 - ss_res / ss_tot
        }
    }
}

/// Training driver: runs calibration workloads on a dedicated testbed
/// kernel, collecting [`ModelSample`]s per 1 s interval.
///
/// ```
/// use powerns::Trainer;
/// use simkernel::cgroup::PerfCounters;
///
/// let model = Trainer::new(1).train();
/// let busy = PerfCounters {
///     instructions: 8_000_000_000,
///     cache_misses: 400_000,
///     branch_misses: 3_000_000,
///     cycles: 3_400_000_000,
/// };
/// // One busy core-second costs a plausible number of joules.
/// let joules = model.core_uj(&busy) / 1e6;
/// assert!(joules > 1.0 && joules < 30.0);
/// ```
#[derive(Debug)]
pub struct Trainer {
    machine: MachineConfig,
    seed: u64,
    secs_per_workload: u64,
    faults: Option<simkernel::FaultPlan>,
}

/// Result of one checked calibration run: the accepted samples plus the
/// count of 1 s windows rejected because a RAPL accumulator reset (host
/// crash-reboot) fell inside them. A reset window's energy delta is
/// negative garbage; feeding it to the regression would bias every
/// coefficient, so the trainer drops the window and re-baselines.
#[derive(Debug, Clone)]
pub struct CalibrationRun {
    /// Accepted training observations.
    pub samples: Vec<ModelSample>,
    /// Windows discarded because a counter reset fell inside them.
    pub rejected_windows: u32,
}

impl Trainer {
    /// A trainer on the paper's i7-6700 testbed.
    pub fn new(seed: u64) -> Self {
        Trainer {
            machine: MachineConfig::testbed_i7_6700(),
            seed,
            secs_per_workload: 60,
            faults: None,
        }
    }

    /// Overrides the machine.
    #[must_use]
    pub fn machine(mut self, machine: MachineConfig) -> Self {
        self.machine = machine;
        self
    }

    /// Installs a fault plan on every training kernel (testing aid: lets
    /// the fault matrix calibrate under injected crash-reboots).
    #[must_use]
    pub fn faults(mut self, plan: simkernel::FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Collects training samples for one workload run solo in a container
    /// on a fresh kernel. Reset-spanning windows are silently dropped;
    /// use [`Trainer::collect_samples_checked`] to see how many.
    pub fn collect_samples(&self, workload: &WorkloadSpec) -> Vec<ModelSample> {
        self.collect_samples_checked(workload).samples
    }

    /// Collects training samples and reports rejected windows. A window
    /// whose ground-truth energy delta is negative spans an accumulator
    /// reset (the modeled crash-reboot zeroes RAPL); the window is
    /// rejected, the baseline re-anchored, and collection continues.
    #[expect(
        clippy::expect_used,
        reason = "trains on a freshly booted kernel, which always admits one container env, \
            its perf sampler and four workload copies"
    )]
    pub fn collect_samples_checked(&self, workload: &WorkloadSpec) -> CalibrationRun {
        let mut k = Kernel::new(self.machine.clone(), self.seed);
        let env = k.create_container_env("train").expect("container env");
        let perf = env.cgroups.perf_event;
        k.attach_perf_monitoring(perf).expect("perf attach");
        let mut perf_last = k.cgroups().perf_counters(perf).unwrap_or_default();
        // Four copies, as the paper runs multi-threaded benchmarks.
        for i in 0..4 {
            k.spawn(ProcessSpec::new(format!("w{i}"), workload.clone()).in_container(&env))
                .expect("training workload");
        }
        if let Some(plan) = &self.faults {
            k.install_faults(plan.clone());
        }
        let mut rapl_last = k.rapl().raw_totals();
        let mut samples = Vec::with_capacity(self.secs_per_workload as usize);
        let mut rejected = 0u32;
        for _ in 0..self.secs_per_workload {
            k.advance_secs(1);
            let perf_now = k.cgroups().perf_counters(perf).unwrap_or_default();
            let d = perf_now.delta_since(&perf_last);
            perf_last = perf_now;
            let rapl = k.rapl().raw_totals();
            let (core, dram, pkg) = (
                rapl.core_uj - rapl_last.core_uj,
                rapl.dram_uj - rapl_last.dram_uj,
                rapl.package_uj - rapl_last.package_uj,
            );
            if core < 0.0 || dram < 0.0 || pkg < 0.0 {
                rejected += 1;
            } else {
                samples.push(ModelSample {
                    instructions: d.instructions as f64,
                    cache_misses: d.cache_misses as f64,
                    branch_misses: d.branch_misses as f64,
                    cycles: d.cycles as f64,
                    core_uj: core,
                    dram_uj: dram,
                    package_uj: pkg,
                });
            }
            rapl_last = rapl;
        }
        CalibrationRun {
            samples,
            rejected_windows: rejected,
        }
    }

    /// Runs the full training campaign over the paper's calibration set
    /// and fits the model.
    pub fn train(&self) -> PowerModel {
        let mut set = workloads::models::training_set();
        set.push(workloads::models::sleeper()); // pins the idle baseline
        self.train_with(&set)
    }

    /// Fits a model on a custom calibration set. Production deployments
    /// should include workloads representative of the tenant mix: any
    /// systematic bias on the *dominant* load survives Formula 3's
    /// calibration as a small load-correlated ripple in every container's
    /// reading (see the `defense_fleet` experiment), and representative
    /// calibration is what shrinks it.
    pub fn train_with(&self, set: &[WorkloadSpec]) -> PowerModel {
        let mut samples = Vec::new();
        for w in set {
            samples.extend(self.collect_samples(w));
        }
        fit(&samples)
    }

    /// Generates a Fig. 6 / Fig. 7 curve for one workload: cumulative
    /// (instructions, core energy) and (cache misses, DRAM energy).
    pub fn energy_curves(&self, workload: &WorkloadSpec) -> (EnergyCurve, EnergyCurve) {
        let samples = self.collect_samples(workload);
        let mut instr = 0.0;
        let mut cm = 0.0;
        let mut core = 0.0;
        let mut dram = 0.0;
        let mut fig6 = Vec::new();
        let mut fig7 = Vec::new();
        for s in samples {
            instr += s.instructions;
            cm += s.cache_misses;
            core += s.core_uj;
            dram += s.dram_uj;
            fig6.push((instr, core));
            fig7.push((cm, dram));
        }
        (
            EnergyCurve {
                name: workload.name().to_string(),
                points: fig6,
            },
            EnergyCurve {
                name: workload.name().to_string(),
                points: fig7,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::cgroup::PerfCounters;
    use workloads::models;

    #[test]
    fn least_squares_recovers_exact_coefficients() {
        // y = 3x0 + 0.5x1 + 7
        let xs: Vec<[f64; 3]> = (0..50)
            .map(|i| [i as f64, (i * i % 17) as f64, 1.0])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x[0] + 0.5 * x[1] + 7.0).collect();
        let c = least_squares::<3>(&xs, &ys);
        assert!((c[0] - 3.0).abs() < 1e-6, "{c:?}");
        assert!((c[1] - 0.5).abs() < 1e-6, "{c:?}");
        assert!((c[2] - 7.0).abs() < 1e-5, "{c:?}");
    }

    #[test]
    fn fig6_curves_are_linear_with_distinct_slopes() {
        let trainer = Trainer::new(1001);
        let (prime6, _) = trainer.energy_curves(&models::prime());
        let (quantum6, _) = trainer.energy_curves(&models::libquantum());
        assert!(prime6.r_squared() > 0.99, "prime R² {}", prime6.r_squared());
        assert!(
            quantum6.r_squared() > 0.99,
            "libquantum R² {}",
            quantum6.r_squared()
        );
        // Energy per instruction differs with the workload mix: the
        // streaming benchmark pays far more per instruction.
        assert!(
            quantum6.slope() > prime6.slope() * 1.2,
            "slopes: quantum {} vs prime {}",
            quantum6.slope(),
            prime6.slope()
        );
    }

    #[test]
    fn fig7_dram_energy_linear_in_cache_misses() {
        let trainer = Trainer::new(1002);
        for w in [models::stress_vm(), models::libquantum()] {
            let (_, fig7) = trainer.energy_curves(&w);
            assert!(
                fig7.r_squared() > 0.98,
                "{} R² {}",
                w.name(),
                fig7.r_squared()
            );
            assert!(fig7.slope() > 0.0);
        }
    }

    #[test]
    fn trained_model_predicts_training_set_well() {
        let trainer = Trainer::new(1003);
        let model = trainer.train();
        // In-sample check on a fresh stress run.
        let samples = trainer.collect_samples(&models::stress_small());
        let (mut pred, mut truth) = (0.0, 0.0);
        for s in &samples {
            let d = PerfCounters {
                instructions: s.instructions as u64,
                cache_misses: s.cache_misses as u64,
                branch_misses: s.branch_misses as u64,
                cycles: s.cycles as u64,
            };
            pred += model.package_uj(&d);
            truth += s.package_uj;
        }
        let err = (pred - truth).abs() / truth;
        assert!(err < 0.12, "in-sample package error {err}");
    }

    #[test]
    fn calibration_rejects_reset_spanning_windows() {
        let base = Trainer::new(1005);
        let clean = base.collect_samples_checked(&models::prime());
        assert_eq!(clean.rejected_windows, 0, "fault-free run rejected windows");

        let faulted = Trainer::new(1005).faults(
            simkernel::FaultPlan::builder(1005)
                .horizon_secs(60)
                .reboot_at_secs(30)
                .build(),
        );
        let run = faulted.collect_samples_checked(&models::prime());
        assert_eq!(
            run.rejected_windows, 1,
            "exactly the reboot-spanning window is dropped"
        );
        assert_eq!(run.samples.len(), clean.samples.len() - 1);
        for s in &run.samples {
            assert!(
                s.core_uj >= 0.0 && s.dram_uj >= 0.0 && s.package_uj >= 0.0,
                "negative energy delta leaked into calibration: {s:?}"
            );
        }
        // The surviving samples still support a sane fit.
        let model = fit(&run.samples);
        let busy = PerfCounters {
            instructions: 8_000_000_000,
            cache_misses: 400_000,
            branch_misses: 3_000_000,
            cycles: 3_400_000_000,
        };
        let joules = model.core_uj(&busy) / 1e6;
        assert!(joules > 1.0 && joules < 30.0, "degraded fit: {joules} J");
    }

    #[test]
    fn model_is_monotone_in_work() {
        let model = Trainer::new(1004).train();
        let small = PerfCounters {
            instructions: 1_000_000_000,
            cache_misses: 1_000_000,
            branch_misses: 2_000_000,
            cycles: 2_000_000_000,
        };
        let big = PerfCounters {
            instructions: 8_000_000_000,
            cache_misses: 8_000_000,
            branch_misses: 16_000_000,
            cycles: 16_000_000_000,
        };
        assert!(model.package_uj(&big) > model.package_uj(&small));
        assert!(model.dram_uj(&big) > model.dram_uj(&small));
    }

    #[test]
    fn curve_math_on_synthetic_data() {
        let c = EnergyCurve {
            name: "t".into(),
            points: (0..20).map(|i| (i as f64, 2.0 * i as f64 + 5.0)).collect(),
        };
        assert!((c.slope() - 2.0).abs() < 1e-9);
        assert!((c.r_squared() - 1.0).abs() < 1e-12);
    }
}
