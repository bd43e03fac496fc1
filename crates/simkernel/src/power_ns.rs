//! The power-based namespace (§V-B3, Formula 3), kernel side.
//!
//! Installed with [`Kernel::power_namespace`](crate::Kernel::power_namespace),
//! the namespace keeps one energy accumulator per container env created
//! after install, keyed by the env's perf_event and cpuacct cgroups and
//! dropped when the env is destroyed. At every whole second since install
//! the kernel calibrates: it models the energy of each container and of
//! the whole host from their perf-counter deltas, then scales against the
//! RAPL delta,
//!
//! ```text
//! E_container += M_container / M_host × ΔE_RAPL
//! ```
//!
//! so modeling bias largely cancels (it appears in both numerator and
//! denominator), which is why the paper's Fig. 8 errors stay below 5 %.
//! The RAPL renderers serve a registered container its own accumulated
//! energy through the unchanged interface: the host-wide counter — the
//! synergistic attack's oracle — is gone from its view.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::cgroup::{CgroupForest, CgroupId, PerfCounters};
use crate::hw::{Hardware, PackageEnergy};
use crate::process::CgroupMembership;

/// The fitted per-container power model (Formula 2) as plain data:
/// coefficients over one interval's perf-counter deltas. Fitting lives
/// above the kernel, in the `powerns` trainer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Coefficients over `[I, CM, BM, C, 1]` (µJ).
    pub core_coef: [f64; 5],
    /// `[β, γ]` over `[CM, 1]` (µJ).
    pub dram_coef: [f64; 2],
    /// `λ`: package constant beyond core + dram (µJ per interval).
    pub lambda_uj: f64,
}

impl PowerModel {
    /// Modeled core energy for an interval's counter deltas, µJ.
    pub fn core_uj(&self, d: &PerfCounters) -> f64 {
        let features = [
            d.instructions as f64,
            d.cache_misses as f64,
            d.branch_misses as f64,
            d.cycles as f64,
            1.0,
        ];
        self.core_coef
            .iter()
            .zip(&features)
            .map(|(c, x)| c * x)
            .sum::<f64>()
            .max(0.0)
    }

    /// Modeled DRAM energy, µJ.
    pub fn dram_uj(&self, d: &PerfCounters) -> f64 {
        (self.dram_coef[0] * d.cache_misses as f64 + self.dram_coef[1]).max(0.0)
    }

    /// Modeled package energy (`M_core + M_dram + λ`), µJ.
    pub fn package_uj(&self, d: &PerfCounters) -> f64 {
        self.core_uj(d) + self.dram_uj(d) + self.lambda_uj.max(0.0)
    }
}

/// One container's calibrated energy, accumulated from zero at its
/// registration.
#[derive(Debug)]
pub struct ContainerEnergy {
    /// Core-domain energy, µJ.
    pub core_uj: f64,
    /// DRAM-domain energy, µJ.
    pub dram_uj: f64,
    /// Package-domain energy, µJ.
    pub package_uj: f64,
    /// Package-domain energy split by physical package, weighted by the
    /// container's per-CPU cpuacct deltas: a container pinned to socket 1
    /// accumulates in `intel-rapl:1`.
    pub per_package_uj: Vec<f64>,
    cpuacct: CgroupId,
    perf_last: PerfCounters,
    cpuacct_last: Vec<u64>,
}

impl ContainerEnergy {
    /// The value `intel-rapl:{pkg}/energy_uj` serves the container.
    pub fn package_energy_uj(&self, pkg: usize) -> u64 {
        self.per_package_uj.get(pkg).map_or(0, |v| *v as u64)
    }

    /// The value `intel-rapl:{pkg}:0/energy_uj` serves: the core energy
    /// split across packages as the package energy is.
    pub fn core_energy_uj(&self, pkg: usize) -> u64 {
        (self.core_uj as u64 as f64 * self.package_share(pkg)) as u64
    }

    /// The value `intel-rapl:{pkg}:1/energy_uj` serves: the DRAM energy
    /// split across packages as the package energy is.
    pub fn dram_energy_uj(&self, pkg: usize) -> u64 {
        (self.dram_uj as u64 as f64 * self.package_share(pkg)) as u64
    }

    fn package_share(&self, pkg: usize) -> f64 {
        let total = self.package_uj as u64;
        if total == 0 {
            return 0.0;
        }
        self.package_energy_uj(pkg) as f64 / total as f64
    }
}

/// The namespace state a kernel holds once installed.
#[derive(Debug)]
pub struct PowerNamespace {
    model: PowerModel,
    /// Lifetime instant of the next calibration.
    next_ns: u64,
    host_root: CgroupId,
    host_last: PerfCounters,
    rapl_last: PackageEnergy,
    /// Registered containers, keyed by their perf_event cgroup.
    containers: BTreeMap<CgroupId, ContainerEnergy>,
}

impl PowerNamespace {
    /// A namespace installed at lifetime instant `now_ns`, sampling the
    /// host through the root perf_event cgroup `host_root`.
    pub(crate) fn new(
        model: PowerModel,
        now_ns: u64,
        host_root: CgroupId,
        cgroups: &CgroupForest,
        hw: &Hardware,
    ) -> Self {
        PowerNamespace {
            model,
            next_ns: now_ns + crate::NANOS_PER_SEC,
            host_root,
            host_last: cgroups.perf_counters(host_root).unwrap_or_default(),
            rapl_last: hw.rapl().raw_totals(),
            containers: BTreeMap::new(),
        }
    }

    /// Lifetime instant of the next calibration.
    pub(crate) fn next_ns(&self) -> u64 {
        self.next_ns
    }

    /// Number of registered containers.
    pub fn container_count(&self) -> usize {
        self.containers.len()
    }

    /// The calibrated energy of the container env with cgroups `cg`, or
    /// `None` when the env is not registered.
    pub fn energy(&self, cg: &CgroupMembership) -> Option<&ContainerEnergy> {
        self.containers
            .get(&cg.perf_event)
            .filter(|c| c.cpuacct == cg.cpuacct)
    }

    /// Starts a container's accumulation from zero at the current counters.
    pub(crate) fn register(
        &mut self,
        cg: &CgroupMembership,
        cgroups: &CgroupForest,
        packages: usize,
    ) {
        self.containers.insert(
            cg.perf_event,
            ContainerEnergy {
                core_uj: 0.0,
                dram_uj: 0.0,
                package_uj: 0.0,
                per_package_uj: vec![0.0; packages],
                cpuacct: cg.cpuacct,
                perf_last: cgroups.perf_counters(cg.perf_event).unwrap_or_default(),
                cpuacct_last: cgroups
                    .cpuacct_usage_percpu(cg.cpuacct)
                    .map(<[u64]>::to_vec)
                    .unwrap_or_default(),
            },
        );
    }

    /// Drops a destroyed container's entry.
    pub(crate) fn unregister(&mut self, perf_event: CgroupId) {
        self.containers.remove(&perf_event);
    }

    /// One calibration interval (Formula 3), run at `next_ns`.
    pub(crate) fn calibrate(&mut self, cgroups: &CgroupForest, hw: &Hardware) {
        self.next_ns += crate::NANOS_PER_SEC;
        let rapl = hw.rapl().raw_totals();
        let d_core = rapl.core_uj - self.rapl_last.core_uj;
        let d_dram = rapl.dram_uj - self.rapl_last.dram_uj;
        let d_pkg = rapl.package_uj - self.rapl_last.package_uj;
        self.rapl_last = rapl;

        let host_now = cgroups.perf_counters(self.host_root).unwrap_or_default();
        let host_delta = host_now.delta_since(&self.host_last);
        self.host_last = host_now;
        let model = &self.model;
        let m_host_core = model.core_uj(&host_delta).max(1.0);
        let m_host_dram = model.dram_uj(&host_delta).max(1.0);
        let m_host_pkg = model.package_uj(&host_delta).max(1.0);

        for (perf, c) in &mut self.containers {
            let now = cgroups.perf_counters(*perf).unwrap_or_default();
            let d = now.delta_since(&c.perf_last);
            c.perf_last = now;
            let pkg_delta = (model.package_uj(&d) / m_host_pkg * d_pkg).max(0.0);
            c.core_uj += (model.core_uj(&d) / m_host_core * d_core).max(0.0);
            c.dram_uj += (model.dram_uj(&d) / m_host_dram * d_dram).max(0.0);
            c.package_uj += pkg_delta;

            // Split by where the container's CPU time landed this interval.
            let percpu = cgroups.cpuacct_usage_percpu(c.cpuacct).unwrap_or(&[]);
            let mut per_pkg_ns = vec![0u64; c.per_package_uj.len()];
            for (cpu, now) in percpu.iter().enumerate() {
                let last = c.cpuacct_last.get(cpu).copied().unwrap_or(0);
                if let Some(ns) = per_pkg_ns.get_mut(hw.package_of(cpu)) {
                    *ns += now.saturating_sub(last);
                }
            }
            let total_ns: u64 = per_pkg_ns.iter().sum();
            if total_ns > 0 {
                for (uj, ns) in c.per_package_uj.iter_mut().zip(&per_pkg_ns) {
                    *uj += pkg_delta * (*ns as f64 / total_ns as f64);
                }
            } else if let Some(first) = c.per_package_uj.first_mut() {
                // Idle container: its constant share lands on package 0.
                *first += pkg_delta;
            }
            c.cpuacct_last.clear();
            c.cpuacct_last.extend_from_slice(percpu);
        }
    }
}
