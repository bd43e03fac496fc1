//! Attack orchestration (§IV-C): aggregating containers onto one server.
//!
//! "We repeatedly create container instances and terminate instances that
//! are not on the same physical server" — verified through the
//! `timer_list` channel. The uptime channel then groups servers that were
//! installed and booted together (likely rack mates sharing a breaker).

use cloudsim::{Cloud, CloudError, InstanceId, InstanceSpec};
use serde::{Deserialize, Serialize};
use workloads::models;

use crate::monitor::RaplMonitor;

/// Result of an aggregation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AggregationOutcome {
    /// The reference instance plus every verified co-resident kept.
    pub kept: Vec<InstanceId>,
    /// Total instances launched (including the reference).
    pub launched: u32,
    /// Instances terminated as non-co-resident.
    pub terminated: u32,
}

/// The orchestration driver.
#[derive(Debug, Default)]
pub struct Orchestrator {
    sig_seq: u64,
}

impl Orchestrator {
    /// Creates an orchestrator.
    pub fn new() -> Self {
        Orchestrator::default()
    }

    /// Aggregates `target` co-resident instances (including the reference)
    /// for `tenant`, using timer-list signatures for verification, giving
    /// up after `max_launches`.
    ///
    /// # Errors
    ///
    /// Propagates launch/read failures (e.g. on clouds masking
    /// `timer_list`, where this orchestration is impossible).
    pub fn aggregate(
        &mut self,
        cloud: &mut Cloud,
        tenant: &str,
        target: usize,
        max_launches: u32,
    ) -> Result<AggregationOutcome, CloudError> {
        let reference = cloud.launch(tenant, InstanceSpec::new("ref"))?;
        cloud.exec(reference, "anchor", models::sleeper())?;
        let mut kept = vec![reference];
        let mut launched = 1u32;
        let mut terminated = 0u32;

        while kept.len() < target && launched < max_launches {
            let cand = cloud.launch(tenant, InstanceSpec::new(format!("probe-{launched}")))?;
            launched += 1;
            cloud.exec(cand, "prober", models::sleeper())?;
            self.sig_seq += 1;
            let sig = format!("aggsig-{:010x}", self.sig_seq * 0x9e3779b9);
            cloud.implant_timer(cand, &sig)?;
            cloud.advance_secs(1);
            let visible = cloud
                .read_file(reference, "/proc/timer_list")?
                .contains(&sig);
            if visible {
                kept.push(cand);
            } else {
                cloud.terminate(cand)?;
                terminated += 1;
            }
        }
        Ok(AggregationOutcome {
            kept,
            launched,
            terminated,
        })
    }

    /// Groups instances by similar host boot epochs, computed from the
    /// leaked `/proc/uptime` (instances read simultaneously: equal wall
    /// time, so uptime differences equal boot-time differences). Hosts
    /// booted within `tolerance_s` of each other — likely the same rack
    /// install — end up in one group.
    ///
    /// # Errors
    ///
    /// Propagates read failures.
    pub fn uptime_groups(
        &self,
        cloud: &mut Cloud,
        instances: &[InstanceId],
        tolerance_s: f64,
    ) -> Result<Vec<Vec<InstanceId>>, CloudError> {
        let mut uptimes = Vec::with_capacity(instances.len());
        for id in instances {
            let raw = cloud.read_file(*id, "/proc/uptime")?;
            let up: f64 = raw
                .split_whitespace()
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0.0);
            uptimes.push((*id, up));
        }
        uptimes.sort_by(|a, b| a.1.total_cmp(&b.1));
        let mut groups: Vec<Vec<InstanceId>> = Vec::new();
        let mut last_up = f64::NEG_INFINITY;
        for (id, up) in uptimes {
            if let Some(group) = groups
                .last_mut()
                .filter(|_| (up - last_up).abs() <= tolerance_s)
            {
                group.push(id);
            } else {
                groups.push(vec![id]);
            }
            last_up = up;
        }
        Ok(groups)
    }

    /// The §IV-C "insider" check: same booting epoch but different idle
    /// times means different-but-adjacent servers; identical idle times
    /// means the same server.
    ///
    /// # Errors
    ///
    /// Propagates read failures.
    pub fn same_server_by_uptime(
        &self,
        cloud: &mut Cloud,
        a: InstanceId,
        b: InstanceId,
    ) -> Result<bool, CloudError> {
        let mut read = |id| -> Result<(f64, f64), CloudError> {
            let raw = cloud.read_file(id, "/proc/uptime")?;
            let mut it = raw.split_whitespace();
            let up: f64 = it.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
            let idle: f64 = it.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
            Ok((up, idle))
        };
        let (ua, ia) = read(a)?;
        let (ub, ib) = read(b)?;
        Ok((ua - ub).abs() < 1.5 && (ia - ib).abs() < 32.0)
    }

    /// The full §IV-C end-game: place `count` instances on *distinct
    /// hosts of the same rack* as `reference`, using only leaked channels —
    /// uptime-epoch matching for rack membership (rack mates boot within
    /// the hour; racks differ by days) and boot-id distinctness for
    /// host-spreading. Non-matching candidates are terminated.
    ///
    /// # Errors
    ///
    /// Propagates launch/read failures.
    pub fn aggregate_rack(
        &mut self,
        cloud: &mut Cloud,
        tenant: &str,
        reference: InstanceId,
        count: usize,
        max_launches: u32,
    ) -> Result<AggregationOutcome, CloudError> {
        let uptime_of = |cloud: &mut Cloud, id: InstanceId| -> Result<f64, CloudError> {
            let raw = cloud.read_file(id, "/proc/uptime")?;
            Ok(raw
                .split_whitespace()
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0.0))
        };
        let boot_of = |cloud: &mut Cloud, id: InstanceId| -> Result<String, CloudError> {
            cloud.read_file(id, "/proc/sys/kernel/random/boot_id")
        };
        let ref_uptime = uptime_of(cloud, reference)?;
        let mut kept = vec![reference];
        let mut kept_boot_ids = vec![boot_of(cloud, reference)?];
        let mut launched = 1u32;
        let mut terminated = 0u32;
        while kept.len() < count && launched < max_launches {
            let cand = cloud.launch(tenant, InstanceSpec::new(format!("rk-{launched}")))?;
            launched += 1;
            // Simultaneous uptime reads: rack mates agree to within the
            // install-window tolerance (minutes-to-an-hour); other racks
            // are days apart. Elapsed time since the reference read is
            // bounded by this loop (< a few simulated seconds).
            let same_rack = (uptime_of(cloud, cand)? - ref_uptime).abs() < 2.0 * 3_600.0;
            let boot = boot_of(cloud, cand)?;
            let fresh_host = !kept_boot_ids.contains(&boot);
            if same_rack && fresh_host {
                kept.push(cand);
                kept_boot_ids.push(boot);
            } else {
                cloud.terminate(cand)?;
                terminated += 1;
            }
        }
        Ok(AggregationOutcome {
            kept,
            launched,
            terminated,
        })
    }

    /// Measures the Fig. 4 staircase: on a single host, add co-resident
    /// attack containers one at a time (4 Prime copies each) and record
    /// the host power after each addition. Returns `(baseline_w,
    /// after_each_container_w)`.
    ///
    /// # Errors
    ///
    /// Propagates launch failures.
    pub fn fig4_staircase(
        &mut self,
        cloud: &mut Cloud,
        containers: usize,
    ) -> Result<(f64, Vec<f64>), CloudError> {
        let mut monitor = RaplMonitor::new();
        let observer = cloud.launch("attacker", InstanceSpec::new("obs").vcpus(1))?;
        cloud.advance_secs(30);
        let _ = monitor.sample_watts(cloud, observer, 0.0)?;
        let host = cloud
            .instance(observer)
            .ok_or(CloudError::NoSuchInstance(observer))?
            .host();
        let baseline = cloud.host_power_w(host);
        let mut steps = Vec::new();
        for c in 0..containers {
            let inst = cloud.launch("attacker", InstanceSpec::new(format!("atk-{c}")))?;
            for i in 0..4 {
                cloud.exec(inst, &format!("prime-{i}"), models::prime())?;
            }
            cloud.advance_secs(60);
            steps.push(cloud.host_power_w(host));
        }
        Ok((baseline, steps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim::{CloudConfig, CloudProfile, PlacementPolicy};

    #[test]
    fn aggregation_converges_to_coresident_set() {
        let mut cloud = Cloud::new(
            CloudConfig::new(CloudProfile::CC1)
                .hosts(4)
                .placement(PlacementPolicy::Random),
            314,
        );
        cloud.advance_secs(2);
        let mut orch = Orchestrator::new();
        let out = orch.aggregate(&mut cloud, "attacker", 3, 64).unwrap();
        assert_eq!(out.kept.len(), 3, "launched {} total", out.launched);
        for pair in out.kept.windows(2) {
            assert_eq!(cloud.coresident(pair[0], pair[1]), Some(true));
        }
        assert_eq!(out.launched, out.kept.len() as u32 + out.terminated);
        // With 4 hosts and random placement, some probes must have missed.
        assert!(out.terminated >= 1);
    }

    #[test]
    fn aggregation_fails_gracefully_on_masked_clouds() {
        // CC4 masks timer_list — the orchestration method is unusable.
        let mut cloud = Cloud::new(
            CloudConfig::new(CloudProfile::CC4)
                .hosts(2)
                .placement(PlacementPolicy::Random),
            314,
        );
        let mut orch = Orchestrator::new();
        assert!(orch.aggregate(&mut cloud, "attacker", 2, 8).is_err());
    }

    #[test]
    fn uptime_groups_recover_racks() {
        // 8 hosts in 2 racks: instances group by rack boot epoch.
        let mut cloud = Cloud::new(
            CloudConfig::new(CloudProfile::CC1)
                .hosts(8)
                .hosts_per_rack(4)
                .placement(PlacementPolicy::Spread),
            2718,
        );
        cloud.advance_secs(2);
        let ids: Vec<InstanceId> = (0..8)
            .map(|i| {
                cloud
                    .launch("t", InstanceSpec::new(format!("i{i}")))
                    .unwrap()
            })
            .collect();
        cloud.advance_secs(1);
        let orch = Orchestrator::new();
        // Rack installs are days apart; in-rack jitter is < 2 h.
        let groups = orch.uptime_groups(&mut cloud, &ids, 3.0 * 3_600.0).unwrap();
        assert_eq!(groups.len(), 2, "{groups:?}");
        for g in &groups {
            assert_eq!(g.len(), 4);
            let racks: std::collections::HashSet<u32> = g
                .iter()
                .map(|i| {
                    cloud
                        .host(cloud.instance(*i).unwrap().host())
                        .unwrap()
                        .rack()
                })
                .collect();
            assert_eq!(racks.len(), 1, "group spans racks: {racks:?}");
        }
    }

    #[test]
    fn same_server_detection_by_idle_time() {
        let mut cloud = Cloud::new(
            CloudConfig::new(CloudProfile::CC1)
                .hosts(2)
                .hosts_per_rack(2)
                .placement(PlacementPolicy::BinPack),
            13,
        );
        cloud.advance_secs(5);
        let a = cloud.launch("t", InstanceSpec::new("a")).unwrap();
        let b = cloud.launch("t", InstanceSpec::new("b")).unwrap();
        cloud.advance_secs(1);
        let orch = Orchestrator::new();
        let same = orch.same_server_by_uptime(&mut cloud, a, b).unwrap();
        assert_eq!(Some(same), cloud.coresident(a, b));
    }

    #[test]
    fn rack_aggregation_lands_on_distinct_rack_mates() {
        let mut cloud = Cloud::new(
            CloudConfig::new(CloudProfile::CC1)
                .hosts(8)
                .hosts_per_rack(4)
                .placement(PlacementPolicy::Random),
            1_618,
        );
        cloud.advance_secs(2);
        let mut orch = Orchestrator::new();
        let reference = cloud.launch("att", InstanceSpec::new("ref")).unwrap();
        let out = orch
            .aggregate_rack(&mut cloud, "att", reference, 3, 64)
            .unwrap();
        assert_eq!(out.kept.len(), 3, "launched {}", out.launched);
        let racks: std::collections::HashSet<u32> = out
            .kept
            .iter()
            .map(|i| {
                cloud
                    .host(cloud.instance(*i).unwrap().host())
                    .unwrap()
                    .rack()
            })
            .collect();
        assert_eq!(racks.len(), 1, "instances span racks");
        let hosts: std::collections::HashSet<_> = out
            .kept
            .iter()
            .map(|i| cloud.instance(*i).unwrap().host())
            .collect();
        assert_eq!(hosts.len(), 3, "instances share hosts");
    }

    #[test]
    fn fig4_staircase_steps_of_forty_watts() {
        let mut cloud = Cloud::new(CloudConfig::new(CloudProfile::CC1).hosts(1), 424);
        cloud.advance_secs(2);
        let mut orch = Orchestrator::new();
        let (baseline, steps) = orch.fig4_staircase(&mut cloud, 3).unwrap();
        assert_eq!(steps.len(), 3);
        assert!(
            (100.0..170.0).contains(&baseline),
            "baseline {baseline} W (paper: ≈130 W average single server)"
        );
        let mut prev = baseline;
        for (i, w) in steps.iter().enumerate() {
            let delta = w - prev;
            assert!(
                (22.0..62.0).contains(&delta),
                "container {i} added {delta} W, expected ≈40"
            );
            prev = *w;
        }
        assert!(
            *steps.last().unwrap() > baseline + 85.0,
            "three containers should add ≈100 W: {baseline} -> {steps:?}"
        );
    }
}
