//! Host fingerprinting from leaked channels.
//!
//! The uniqueness metric (§III-C) says some channels "bestow characteristic
//! data that can uniquely identify a host machine". Combining them yields a
//! persistent *host fingerprint*: a tenant can recognize a physical machine
//! it has been on before, across instance churn — placement becomes a
//! guessing game the provider slowly loses. The fingerprint has two parts:
//!
//! * **static** — `boot_id` (unique until reboot) plus hardware identity
//!   (`cpuinfo` model, memory size, interface inventory);
//! * **progressive** — the accumulators (`uptime`, energy counter): a
//!   candidate host's accumulator must be *consistent with elapsed time*
//!   since the fingerprint was taken, catching the reboot case where
//!   `boot_id` rotated but the hardware stayed.

use cloudsim::{Cloud, CloudError, InstanceId};
use serde::{Deserialize, Serialize};
use simkernel::{fnv1a, FNV1A_OFFSET};

/// A fingerprint of one physical host, taken from inside an instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostFingerprint {
    /// `boot_id` at capture time.
    pub boot_id: String,
    /// Hash of the static hardware identity (cpu model line + MemTotal +
    /// interface list).
    pub hardware_hash: u64,
    /// Uptime (seconds) at capture time.
    pub uptime_s: f64,
    /// Capture time on the observer's own clock (seconds of campaign
    /// time) — used to check accumulator consistency later.
    pub taken_at_s: f64,
}

/// How a later observation relates to a stored fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FingerprintMatch {
    /// Same boot: `boot_id` identical (conclusive).
    SameBoot,
    /// Same hardware, different boot: the machine rebooted since capture.
    SameHardwareRebooted,
    /// A different machine.
    Different,
}

impl HostFingerprint {
    /// Captures a fingerprint from inside `instance`. `now_s` is the
    /// observer's own clock.
    ///
    /// # Errors
    ///
    /// Propagates channel-read failures (masked clouds).
    pub fn capture(
        cloud: &mut Cloud,
        instance: InstanceId,
        now_s: f64,
    ) -> Result<Self, CloudError> {
        let boot_id = cloud
            .read_file(instance, "/proc/sys/kernel/random/boot_id")?
            .trim()
            .to_string();
        let cpuinfo = cloud.read_file(instance, "/proc/cpuinfo")?;
        let meminfo = cloud.read_file(instance, "/proc/meminfo")?;
        let ifaces = cloud.read_file(instance, "/sys/fs/cgroup/net_prio/net_prio.ifpriomap")?;
        let model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .unwrap_or("")
            .to_string();
        let mem_total = meminfo.lines().next().unwrap_or("").to_string();
        // The physical interface inventory (veths churn with containers,
        // so only the stable prefix participates).
        let stable_ifaces: String = ifaces
            .lines()
            .filter(|l| !l.starts_with("veth"))
            .collect::<Vec<_>>()
            .join(",");
        let hardware_hash = fnv1a(
            FNV1A_OFFSET,
            format!("{model}|{mem_total}|{stable_ifaces}").as_bytes(),
        );
        let uptime_s: f64 = cloud
            .read_file(instance, "/proc/uptime")?
            .split_whitespace()
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0);
        Ok(HostFingerprint {
            boot_id,
            hardware_hash,
            uptime_s,
            taken_at_s: now_s,
        })
    }

    /// Compares a fresh capture against this stored fingerprint.
    pub fn matches(&self, later: &HostFingerprint) -> FingerprintMatch {
        if later.boot_id == self.boot_id {
            // Conclusive only if the uptime accumulator is consistent with
            // the elapsed observer time (a cloned boot_id would not be).
            let elapsed = later.taken_at_s - self.taken_at_s;
            let drift = (later.uptime_s - self.uptime_s - elapsed).abs();
            if drift < 5.0 {
                return FingerprintMatch::SameBoot;
            }
        }
        if later.hardware_hash == self.hardware_hash && later.uptime_s < self.uptime_s {
            // Identical hardware but the uptime went *backwards*: reboot.
            return FingerprintMatch::SameHardwareRebooted;
        }
        if later.hardware_hash == self.hardware_hash && later.boot_id == self.boot_id {
            return FingerprintMatch::SameBoot;
        }
        FingerprintMatch::Different
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim::{CloudConfig, CloudProfile, InstanceSpec, PlacementPolicy};

    #[test]
    fn revisiting_a_host_is_recognized_across_instance_churn() {
        let mut cloud = Cloud::new(
            CloudConfig::new(CloudProfile::CC1)
                .hosts(3)
                .placement(PlacementPolicy::Random),
            8_080,
        );
        cloud.advance_secs(2);

        // First visit: capture and remember, then leave.
        let first = cloud.launch("t", InstanceSpec::new("v1")).unwrap();
        let remembered = HostFingerprint::capture(&mut cloud, first, 0.0).unwrap();
        let first_host = cloud.instance(first).unwrap().host();
        cloud.terminate(first).unwrap();
        cloud.advance_secs(30);

        // Churn: launch until the fingerprint matches a stored one.
        let mut found = None;
        for i in 0..24 {
            let inst = cloud
                .launch("t", InstanceSpec::new(format!("v2-{i}")))
                .unwrap();
            let now = 30.0 + i as f64;
            let fp = HostFingerprint::capture(&mut cloud, inst, now).unwrap();
            let verdict = remembered.matches(&fp);
            let truth = cloud.instance(inst).unwrap().host() == first_host;
            assert_eq!(
                verdict == FingerprintMatch::SameBoot,
                truth,
                "fingerprint verdict disagrees with placement at {i}"
            );
            if verdict == FingerprintMatch::SameBoot {
                found = Some(inst);
                break;
            }
            cloud.terminate(inst).unwrap();
            cloud.advance_secs(1);
        }
        assert!(found.is_some(), "never landed back on the first host");
    }

    #[test]
    fn different_hosts_do_not_collide() {
        let mut cloud = Cloud::new(
            CloudConfig::new(CloudProfile::CC1)
                .hosts(2)
                .placement(PlacementPolicy::Spread),
            8_081,
        );
        cloud.advance_secs(1);
        let a = cloud.launch("t", InstanceSpec::new("a")).unwrap();
        let b = cloud.launch("t", InstanceSpec::new("b")).unwrap();
        assert_eq!(cloud.coresident(a, b), Some(false));
        let fa = HostFingerprint::capture(&mut cloud, a, 0.0).unwrap();
        let fb = HostFingerprint::capture(&mut cloud, b, 0.0).unwrap();
        // Same hardware SKU but different uptimes and boot ids: the
        // verdict must not be SameBoot.
        assert_ne!(fa.matches(&fb), FingerprintMatch::SameBoot);
    }

    #[test]
    fn reboot_is_recognized_as_same_hardware() {
        let mut cloud = Cloud::new(
            CloudConfig::new(CloudProfile::CC1)
                .hosts(1)
                .placement(PlacementPolicy::BinPack),
            8_083,
        );
        cloud.advance_secs(2);
        let before = cloud.launch("t", InstanceSpec::new("pre")).unwrap();
        let fp_before = HostFingerprint::capture(&mut cloud, before, 0.0).unwrap();
        let host = cloud.instance(before).unwrap().host();

        cloud.reboot_host(host);
        cloud.advance_secs(10);
        let after = cloud.launch("t", InstanceSpec::new("post")).unwrap();
        let fp_after = HostFingerprint::capture(&mut cloud, after, 12.0).unwrap();

        assert_ne!(fp_before.boot_id, fp_after.boot_id);
        assert_eq!(
            fp_before.matches(&fp_after),
            FingerprintMatch::SameHardwareRebooted,
            "hardware identity must survive the reboot"
        );
    }

    #[test]
    fn cloned_boot_id_with_inconsistent_uptime_is_rejected() {
        let fp = HostFingerprint {
            boot_id: "abc".into(),
            hardware_hash: 42,
            uptime_s: 1_000.0,
            taken_at_s: 0.0,
        };
        let clone_attempt = HostFingerprint {
            boot_id: "abc".into(),
            hardware_hash: 42,
            uptime_s: 500.0, // impossible: uptime regressed without reboot semantics
            taken_at_s: 100.0,
        };
        assert_ne!(fp.matches(&clone_attempt), FingerprintMatch::SameBoot);
    }

    #[test]
    fn masked_cloud_denies_fingerprinting() {
        let mut cloud = Cloud::new(CloudConfig::new(CloudProfile::CC5).hosts(1), 8_082);
        let inst = cloud.launch("t", InstanceSpec::new("probe")).unwrap();
        cloud.advance_secs(1);
        // CC5 masks ifpriomap (and uptime), so capture fails.
        assert!(HostFingerprint::capture(&mut cloud, inst, 0.0).is_err());
    }
}
