//! Energy accounting built on the power-based namespace (§V-B).
//!
//! The paper points out two operator-side uses of per-container power
//! data beyond closing the leak: "we can dynamically throttle the
//! computing power (or increase the usage fee) of containers that exceed
//! their predefined power thresholds. It is possible for container cloud
//! administrators to design a finer-grained billing model based on this
//! power-based namespace." Both are implemented here:
//!
//! * [`EnergyBilling`] meters each container's calibrated energy and
//!   prices it per kWh — two containers with identical CPU time but
//!   different microarchitectural behaviour pay different bills.
//! * [`PowerThrottle`] enforces a per-container power budget: a container
//!   whose average power exceeds its threshold for a grace period gets its
//!   processes throttled (frequency-capping, modeled as workload-intensity
//!   scaling); it is released once it behaves again.

use std::collections::{BTreeMap, HashMap};

use container_runtime::{ContainerId, Runtime};
use serde::{Deserialize, Serialize};
use simkernel::{HostPid, Kernel};

use crate::nsfs::container_energy_uj;

/// Per-kWh pricing for namespace-metered energy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyTariff {
    /// Dollars per kWh attributed to the container.
    pub usd_per_kwh: f64,
}

impl Default for EnergyTariff {
    fn default() -> Self {
        // Industrial rate plus facility overhead (PUE).
        EnergyTariff { usd_per_kwh: 0.16 }
    }
}

/// One container's energy bill.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyBill {
    /// Energy attributed so far, joules.
    pub joules: f64,
    /// Dollars owed.
    pub usd: f64,
}

/// Energy-metered billing over the power namespace.
#[derive(Debug)]
pub struct EnergyBilling {
    tariff: EnergyTariff,
    last_uj: HashMap<ContainerId, u64>,
    bills: HashMap<ContainerId, EnergyBill>,
}

impl EnergyBilling {
    /// Creates a meter with the given tariff.
    pub fn new(tariff: EnergyTariff) -> Self {
        EnergyBilling {
            tariff,
            last_uj: HashMap::new(),
            bills: HashMap::new(),
        }
    }

    /// Meters one interval: reads each container's calibrated energy from
    /// the kernel's namespace and charges the delta.
    pub fn meter(&mut self, kernel: &Kernel, runtime: &Runtime, containers: &[ContainerId]) {
        for id in containers {
            let Some(now_uj) = container_energy_uj(kernel, runtime, *id) else {
                continue;
            };
            let last = self.last_uj.entry(*id).or_insert(now_uj);
            let delta_uj = now_uj.saturating_sub(*last);
            *last = now_uj;
            let bill = self.bills.entry(*id).or_default();
            let joules = delta_uj as f64 / 1e6;
            bill.joules += joules;
            bill.usd += joules / 3.6e6 * self.tariff.usd_per_kwh;
        }
    }

    /// The bill for a container.
    pub fn bill(&self, id: ContainerId) -> EnergyBill {
        self.bills.get(&id).copied().unwrap_or_default()
    }
}

/// State of one container under power-budget enforcement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ThrottleState {
    /// Within budget.
    Normal,
    /// Over budget; processes frequency-capped.
    Throttled,
}

/// Per-container power-budget enforcement.
#[derive(Debug)]
pub struct PowerThrottle {
    budget_w: f64,
    grace_s: u64,
    throttle_factor: f64,
    over_for: HashMap<ContainerId, u64>,
    state: HashMap<ContainerId, ThrottleState>,
    last_uj: HashMap<ContainerId, u64>,
    member_pids: BTreeMap<ContainerId, Vec<HostPid>>,
}

impl PowerThrottle {
    /// A budget of `budget_w` watts per container, enforced after
    /// `grace_s` seconds over budget; throttling scales workload
    /// intensity by `throttle_factor`.
    pub fn new(budget_w: f64, grace_s: u64) -> Self {
        PowerThrottle {
            budget_w,
            grace_s,
            throttle_factor: 0.35,
            over_for: HashMap::new(),
            state: HashMap::new(),
            last_uj: HashMap::new(),
            member_pids: BTreeMap::new(),
        }
    }

    /// Registers the processes belonging to a container (the ones that get
    /// capped on a violation).
    pub fn watch(&mut self, id: ContainerId, pids: Vec<HostPid>) {
        self.member_pids.insert(id, pids);
        self.state.insert(id, ThrottleState::Normal);
    }

    /// Current enforcement state.
    pub fn state(&self, id: ContainerId) -> ThrottleState {
        self.state
            .get(&id)
            .copied()
            .unwrap_or(ThrottleState::Normal)
    }

    /// One enforcement interval of `dt_s` seconds: compares each watched
    /// container's average power against the budget and caps or releases.
    pub fn enforce(&mut self, kernel: &mut Kernel, runtime: &Runtime, dt_s: u64) {
        let ids: Vec<ContainerId> = self.member_pids.keys().copied().collect();
        for id in ids {
            let Some(now_uj) = container_energy_uj(kernel, runtime, id) else {
                continue;
            };
            let last = self.last_uj.entry(id).or_insert(now_uj);
            let watts = (now_uj.saturating_sub(*last)) as f64 / 1e6 / dt_s.max(1) as f64;
            *last = now_uj;

            let over = self.over_for.entry(id).or_insert(0);
            if watts > self.budget_w {
                *over += dt_s;
            } else {
                *over = 0;
            }
            let state = self.state.entry(id).or_insert(ThrottleState::Normal);
            match *state {
                ThrottleState::Normal if *over >= self.grace_s => {
                    *state = ThrottleState::Throttled;
                    self.apply(kernel, id, self.throttle_factor);
                }
                ThrottleState::Throttled if watts <= self.budget_w * 0.8 => {
                    *state = ThrottleState::Normal;
                    self.apply(kernel, id, 1.0 / self.throttle_factor);
                }
                _ => {}
            }
        }
    }

    fn apply(&self, kernel: &mut Kernel, id: ContainerId, factor: f64) {
        let Some(pids) = self.member_pids.get(&id) else {
            return;
        };
        for pid in pids {
            if let Some(p) = kernel.process(*pid) {
                let capped = frequency_cap(p.workload(), factor);
                let _ = kernel.set_workload(*pid, capped);
            }
        }
    }
}

/// Models a frequency cap: fewer cycles per second means both lower
/// effective instruction throughput and a smaller busy duty cycle.
fn frequency_cap(w: &workloads::WorkloadSpec, factor: f64) -> workloads::WorkloadSpec {
    let phases = w
        .phases()
        .iter()
        .map(|p| workloads::Phase {
            instructions_per_cycle: (p.instructions_per_cycle * factor).clamp(0.01, 8.0),
            cpu_demand: (p.cpu_demand * factor).clamp(0.01, 1.0),
            ..p.clone()
        })
        .collect();
    workloads::WorkloadSpec::new(
        format!("{}@cap{factor:.2}", w.name()),
        w.class(),
        phases,
        w.repeat(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Trainer;
    use container_runtime::ContainerSpec;
    use simkernel::MachineConfig;
    use std::sync::OnceLock;
    use workloads::models;

    fn model() -> &'static crate::PowerModel {
        static MODEL: OnceLock<crate::PowerModel> = OnceLock::new();
        MODEL.get_or_init(|| Trainer::new(7_001).train())
    }

    fn namespaced(seed: u64) -> (Kernel, Runtime) {
        let machine = MachineConfig::testbed_i7_6700();
        (
            Kernel::new(machine, seed).power_namespace(model().clone()),
            Runtime::new(),
        )
    }

    #[test]
    fn energy_billing_differs_for_equal_cpu_time() {
        let (mut k, mut rt) = namespaced(7_002);
        let hot = rt.create(&mut k, ContainerSpec::new("hot")).unwrap();
        let cool = rt.create(&mut k, ContainerSpec::new("cool")).unwrap();
        // Same CPU time (both saturate 2 cores), very different energy:
        // the power virus vs a low-IPC pointer chaser.
        for i in 0..2 {
            rt.exec(&mut k, hot, &format!("virus-{i}"), models::power_virus())
                .unwrap();
            rt.exec(&mut k, cool, &format!("chase-{i}"), models::mcf())
                .unwrap();
        }
        let mut billing = EnergyBilling::new(EnergyTariff::default());
        for _ in 0..60 {
            k.advance_secs(1);
            billing.meter(&k, &rt, &[hot, cool]);
        }
        let hot_cpu = rt.cpu_usage_ns(&k, hot).unwrap();
        let cool_cpu = rt.cpu_usage_ns(&k, cool).unwrap();
        let ratio = hot_cpu as f64 / cool_cpu as f64;
        assert!(
            (0.95..1.05).contains(&ratio),
            "cpu time should match: {ratio}"
        );

        let hot_bill = billing.bill(hot);
        let cool_bill = billing.bill(cool);
        assert!(
            hot_bill.usd > cool_bill.usd * 1.2,
            "energy billing must separate them: {hot_bill:?} vs {cool_bill:?}"
        );
        assert!(hot_bill.joules > 100.0, "{hot_bill:?}");
    }

    #[test]
    fn throttle_caps_offenders_and_releases_them() {
        let (mut k, mut rt) = namespaced(7_003);
        let greedy = rt.create(&mut k, ContainerSpec::new("greedy")).unwrap();
        let modest = rt.create(&mut k, ContainerSpec::new("modest")).unwrap();
        let mut greedy_pids = Vec::new();
        for i in 0..4 {
            greedy_pids.push(
                rt.exec(&mut k, greedy, &format!("v{i}"), models::power_virus())
                    .unwrap(),
            );
        }
        let modest_pid = rt
            .exec(&mut k, modest, "svc", models::web_service(0.2))
            .unwrap();

        let mut throttle = PowerThrottle::new(30.0, 3);
        throttle.watch(greedy, greedy_pids.clone());
        throttle.watch(modest, vec![modest_pid]);

        // Warm up, then enforce per second.
        k.advance_secs(2);
        for _ in 0..10 {
            k.advance_secs(1);
            throttle.enforce(&mut k, &rt, 1);
        }
        assert_eq!(throttle.state(greedy), ThrottleState::Throttled);
        assert_eq!(throttle.state(modest), ThrottleState::Normal);

        // Throttled power drops measurably.
        let e0 = container_energy_uj(&k, &rt, greedy).unwrap();
        k.advance_secs(10);
        let throttled_w = (container_energy_uj(&k, &rt, greedy).unwrap() - e0) as f64 / 1e6 / 10.0;
        assert!(throttled_w < 40.0, "still hot: {throttled_w} W");

        // The offender stops misbehaving: kill the viruses, release.
        for pid in &greedy_pids {
            let _ = k.kill(*pid);
        }
        for _ in 0..5 {
            k.advance_secs(1);
            throttle.enforce(&mut k, &rt, 1);
        }
        assert_eq!(throttle.state(greedy), ThrottleState::Normal);
    }

    #[test]
    fn billing_is_monotone_and_zero_for_unknown() {
        let (mut k, mut rt) = namespaced(7_004);
        let c = rt.create(&mut k, ContainerSpec::new("c")).unwrap();
        rt.exec(&mut k, c, "w", models::stress_small()).unwrap();
        let mut billing = EnergyBilling::new(EnergyTariff::default());
        let mut last = 0.0;
        for _ in 0..5 {
            k.advance_secs(1);
            billing.meter(&k, &rt, &[c]);
            let b = billing.bill(c);
            assert!(b.usd >= last);
            last = b.usd;
        }
        assert_eq!(
            billing.bill(container_runtime::ContainerId(999)),
            EnergyBill::default()
        );
    }
}
