//! The read probe: what one tenant read through `Cloud::read_file`
//! costs, with the render cache cold (right after an advance) and warm,
//! for a missing file, and for `/proc/stat`. Runs untraced, on a
//! one-host busy CC1 fleet like each host of `busy_attack`.

use std::time::Instant;

use containerleaks::cloudsim::{Cloud, CloudConfig, CloudProfile, InstanceSpec};

use crate::stats::median;

const REPS: usize = 400;
const RAPL: &str = "/sys/class/powercap/intel-rapl:0/energy_uj";
const MISSING: &str = "/sys/class/powercap/intel-rapl:7/energy_uj";

/// Median read latencies, microseconds.
#[derive(Debug, Clone, Copy)]
pub struct ReadProbe {
    /// `energy_uj` right after a one-second advance.
    pub rapl_miss_us: f64,
    /// `energy_uj` again at the same instant.
    pub rapl_hit_us: f64,
    /// A package that does not exist.
    pub enoent_us: f64,
    /// `/proc/stat` right after a one-second advance.
    pub proc_stat_miss_us: f64,
}

fn time_read(
    cloud: &mut Cloud,
    id: containerleaks::cloudsim::InstanceId,
    path: &str,
    ok: bool,
) -> Result<f64, String> {
    let t = Instant::now();
    let got = cloud.read_file(id, path);
    let us = t.elapsed().as_secs_f64() * 1e6;
    match (got.is_ok(), ok) {
        (true, true) | (false, false) => Ok(us),
        _ => Err(format!("probe read of {path}: unexpected {got:?}")),
    }
}

/// Runs the probe on a fleet booted from `seed`.
///
/// # Errors
///
/// A read that succeeded where it should fail, or the reverse.
pub fn run(seed: u64) -> Result<ReadProbe, String> {
    let mut cloud = Cloud::new(CloudConfig::new(CloudProfile::CC1).hosts(1), seed);
    let id = cloud
        .launch("probe", InstanceSpec::new("probe").vcpus(1))
        .map_err(|e| format!("probe launch: {e}"))?;
    cloud.advance_secs(2);
    let mut samples = [const { Vec::new() }; 4];
    for _ in 0..REPS {
        cloud.advance_secs(1);
        samples[3].push(time_read(&mut cloud, id, "/proc/stat", true)?);
        samples[0].push(time_read(&mut cloud, id, RAPL, true)?);
        samples[1].push(time_read(&mut cloud, id, RAPL, true)?);
        samples[2].push(time_read(&mut cloud, id, MISSING, false)?);
    }
    Ok(ReadProbe {
        rapl_miss_us: median(&samples[0]),
        rapl_hit_us: median(&samples[1]),
        enoent_us: median(&samples[2]),
        proc_stat_miss_us: median(&samples[3]),
    })
}
