//! The tenant-side RAPL power monitor.
//!
//! Exploits Case Study II: `/sys/class/powercap/intel-rapl:*/energy_uj` is
//! not namespaced, so a container reads the *host's* accumulated energy.
//! Sampling the counter at two instants and dividing by the interval gives
//! whole-host power — "monitoring power consumption through RAPL has
//! almost zero CPU utilization" (§IV-B), which is what makes the
//! synergistic attack nearly free under utilization billing.

use std::collections::HashMap;

use cloudsim::{Cloud, CloudError, InstanceId};
use pseudofs::Handle;
use simkernel::hw::RAPL_WRAP_UJ;

/// The `energy_uj` file of each RAPL package the monitor can probe.
const ENERGY_UJ_PATHS: [&str; 8] = [
    "/sys/class/powercap/intel-rapl:0/energy_uj",
    "/sys/class/powercap/intel-rapl:1/energy_uj",
    "/sys/class/powercap/intel-rapl:2/energy_uj",
    "/sys/class/powercap/intel-rapl:3/energy_uj",
    "/sys/class/powercap/intel-rapl:4/energy_uj",
    "/sys/class/powercap/intel-rapl:5/energy_uj",
    "/sys/class/powercap/intel-rapl:6/energy_uj",
    "/sys/class/powercap/intel-rapl:7/energy_uj",
];

/// Per-instance RAPL sampling state.
#[derive(Debug, Clone)]
pub struct RaplMonitor {
    last: HashMap<InstanceId, Vec<(u64, f64)>>,
    /// One handle per [`ENERGY_UJ_PATHS`] entry, opened once and re-read
    /// every sample, as a real monitor keeps its files open.
    energy_uj: [Handle; 8],
    /// The current sample's readings, reused across samples.
    readings: Vec<u64>,
    /// The text of the last `energy_uj` read, reused across reads.
    text: String,
    dropped: u64,
    resets: u64,
}

impl Default for RaplMonitor {
    fn default() -> Self {
        RaplMonitor {
            last: HashMap::new(),
            energy_uj: ENERGY_UJ_PATHS.map(Handle::open),
            readings: Vec::new(),
            text: String::new(),
            dropped: 0,
            resets: 0,
        }
    }
}

impl RaplMonitor {
    /// Creates a monitor.
    pub fn new() -> Self {
        RaplMonitor::default()
    }

    /// Samples host power (watts) as seen from `instance`, by differencing
    /// every package's `energy_uj` against the previous sample. Returns
    /// `None` on the first sample (no baseline yet).
    ///
    /// Degrades gracefully instead of corrupting the cost accounting:
    /// a transient read fault (sensor dropout) skips the sample and keeps
    /// the previous baseline. A backwards counter jump is read as a
    /// hardware wrap only when the previous sample sat near the top of the
    /// range *and* the implied wrap delta corresponds to a plausible
    /// package power; otherwise it is a crash-reboot reset and the monitor
    /// re-baselines rather than reporting an absurd wrap delta.
    ///
    /// # Errors
    ///
    /// Fails when the cloud masks the powercap tree (CC4/CC5) or the host
    /// lacks RAPL — exactly the situations §VII-A discusses.
    pub fn sample_watts(
        &mut self,
        cloud: &mut Cloud,
        instance: InstanceId,
        now_s: f64,
    ) -> Result<Option<f64>, CloudError> {
        // Discover package count by probing package 0, 1, ... until ENOENT.
        let readings = &mut self.readings;
        readings.clear();
        for (pkg, handle) in self.energy_uj.iter().enumerate() {
            match cloud.read_handle_into(instance, handle, &mut self.text) {
                Ok(()) => readings.push(self.text.trim().parse::<u64>().unwrap_or(0)),
                Err(e) if e.is_transient() => {
                    // Sensor dropout: drop this sample, keep the baseline.
                    self.dropped += 1;
                    simtrace::counters::add("faults.tolerated.rapl_dropped", 1);
                    return Ok(None);
                }
                Err(e) => {
                    if pkg == 0 {
                        return Err(e);
                    }
                    break;
                }
            }
        }
        let entry = self.last.entry(instance).or_default();
        let mut reset_seen = false;
        let result = if entry.len() == readings.len() {
            let mut total_uj = 0u64;
            let mut dt = 0.0f64;
            for ((last_uj, last_t), cur) in entry.iter().zip(readings.iter()) {
                let dt_r = now_s - last_t;
                let delta = if cur >= last_uj {
                    cur - last_uj
                } else {
                    // No package draws kilowatts: a backwards jump whose
                    // wrap interpretation implies one is a reboot reset.
                    const MAX_PLAUSIBLE_PKG_W: f64 = 2_000.0;
                    let wrapped = cur + RAPL_WRAP_UJ - last_uj;
                    if *last_uj >= RAPL_WRAP_UJ / 2
                        && dt_r > 0.0
                        && wrapped as f64 / 1e6 / dt_r < MAX_PLAUSIBLE_PKG_W
                    {
                        wrapped
                    } else {
                        reset_seen = true;
                        0
                    }
                };
                total_uj += delta;
                dt = dt_r;
            }
            if reset_seen || dt <= 0.0 {
                None
            } else {
                Some(total_uj as f64 / 1e6 / dt)
            }
        } else {
            None
        };
        if reset_seen {
            self.resets += 1;
            simtrace::counters::add("faults.tolerated.rapl_rebaseline", 1);
        }
        if simtrace::enabled() {
            if let Some(watts) = result {
                simtrace::counters::add("powersim.rapl_samples", 1);
                let host_id = cloud.instance(instance).map(|inst| inst.host());
                if let Some(host) = host_id.and_then(|h| cloud.host(h)) {
                    if let Some(tr) = host.kernel().tracer() {
                        tr.emit(
                            host.kernel().lifetime_ns(),
                            simtrace::TraceEvent::RaplSample {
                                instance: instance.0,
                                // Integer milliwatts: byte-stable in traces.
                                milliwatts: (watts * 1e3).round() as i64,
                            },
                        );
                    }
                }
            }
        }
        entry.clear();
        entry.extend(readings.iter().map(|&uj| (uj, now_s)));
        Ok(result)
    }

    /// Samples skipped because the sensor transiently failed to read.
    pub fn dropped_samples(&self) -> u64 {
        self.dropped
    }

    /// Counter resets (host crash-reboots) absorbed by re-baselining.
    pub fn resets_detected(&self) -> u64 {
        self.resets
    }

    /// Clears the baseline for an instance (after it was moved/replaced).
    pub fn reset(&mut self, instance: InstanceId) {
        self.last.remove(&instance);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim::{CloudConfig, CloudProfile, HostId, InstanceSpec};
    use workloads::models;

    #[test]
    fn monitor_tracks_host_package_power() {
        let mut cloud = Cloud::new(CloudConfig::new(CloudProfile::CC1).hosts(1), 61);
        let observer = cloud
            .launch("spy", InstanceSpec::new("obs").vcpus(1))
            .unwrap();
        cloud.advance_secs(2);
        let mut mon = RaplMonitor::new();
        assert_eq!(mon.sample_watts(&mut cloud, observer, 0.0).unwrap(), None);
        cloud.advance_secs(10);
        let idle_w = mon
            .sample_watts(&mut cloud, observer, 10.0)
            .unwrap()
            .unwrap();

        // A co-resident tenant starts heavy work: the observer sees it
        // without consuming any CPU itself.
        let victim = cloud.launch("victim", InstanceSpec::new("v")).unwrap();
        for i in 0..4 {
            cloud
                .exec(victim, &format!("p{i}"), models::prime())
                .unwrap();
        }
        cloud.advance_secs(10);
        let busy_w = mon
            .sample_watts(&mut cloud, observer, 20.0)
            .unwrap()
            .unwrap();
        assert!(
            busy_w > idle_w + 15.0,
            "observer blind to co-resident load: {idle_w} -> {busy_w}"
        );
        // Sanity: package power is less than wall power.
        assert!(busy_w < cloud.host_power_w(HostId(0)));
    }

    #[test]
    fn monitoring_costs_essentially_nothing() {
        let mut cloud = Cloud::new(CloudConfig::new(CloudProfile::CC1).hosts(1), 62);
        let observer = cloud
            .launch("spy", InstanceSpec::new("obs").vcpus(1))
            .unwrap();
        let mut mon = RaplMonitor::new();
        for t in 0..120 {
            cloud.advance_secs(1);
            let _ = mon.sample_watts(&mut cloud, observer, t as f64);
        }
        // Two minutes of monitoring bills only the base instance floor.
        let bill = cloud.bill("spy");
        assert!(bill.vcpu_seconds < 1.0, "monitoring used cpu: {bill:?}");
    }

    #[test]
    fn monitor_rebaselines_across_a_crash_reboot() {
        let mut cloud = Cloud::new(CloudConfig::new(CloudProfile::CC1).hosts(1), 64);
        let observer = cloud
            .launch("spy", InstanceSpec::new("obs").vcpus(1))
            .unwrap();
        cloud.advance_secs(2);
        cloud.install_faults(
            &simkernel::FaultPlan::builder(64)
                .horizon_secs(60)
                .reboot_at_secs(20)
                .build(),
        );
        let mut mon = RaplMonitor::new();
        let wall = cloud.host_power_w(HostId(0));
        for t in 0..40u64 {
            cloud.advance_secs(1);
            let w = mon
                .sample_watts(&mut cloud, observer, t as f64)
                .expect("rapl stays readable across the reboot");
            if let Some(w) = w {
                assert!(
                    w >= 0.0 && w < wall * 2.0,
                    "reset corrupted the estimate at t={t}: {w} W"
                );
            }
        }
        assert_eq!(
            mon.resets_detected(),
            1,
            "the mid-monitoring reboot should be absorbed as one re-baseline"
        );
    }

    #[test]
    fn monitor_skips_dropout_samples_without_losing_the_baseline() {
        let mut cloud = Cloud::new(CloudConfig::new(CloudProfile::CC1).hosts(1), 65);
        let observer = cloud
            .launch("spy", InstanceSpec::new("obs").vcpus(1))
            .unwrap();
        cloud.advance_secs(2);
        cloud.install_faults(
            &simkernel::FaultPlan::builder(65)
                .horizon_secs(90)
                .sensor_faults(18)
                .build(),
        );
        let mut mon = RaplMonitor::new();
        let wall = cloud.host_power_w(HostId(0));
        let mut good = 0u32;
        for t in 0..90u64 {
            cloud.advance_secs(1);
            match mon.sample_watts(&mut cloud, observer, t as f64) {
                Ok(Some(w)) => {
                    good += 1;
                    assert!(w >= 0.0 && w < wall * 2.0, "bad estimate at t={t}: {w} W");
                }
                Ok(None) => {}
                Err(e) => panic!("dropout must not surface as a hard error: {e}"),
            }
        }
        assert!(
            mon.dropped_samples() > 0,
            "the plan's dropout windows never hit the rapl path"
        );
        assert!(good > 40, "monitor lost too many samples: {good}");
    }

    #[test]
    fn masked_cloud_blocks_the_monitor() {
        let mut cloud = Cloud::new(CloudConfig::new(CloudProfile::CC4).hosts(1), 63);
        let observer = cloud.launch("spy", InstanceSpec::new("obs")).unwrap();
        cloud.advance_secs(1);
        let mut mon = RaplMonitor::new();
        assert!(mon.sample_watts(&mut cloud, observer, 1.0).is_err());
    }
}
