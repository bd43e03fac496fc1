//! Power and thermal sysfs trees: RAPL powercap, coretemp hwmon, cpuidle.
//!
//! The RAPL `energy_uj` files are the paper's Case Study II — the Intel
//! RAPL driver's `get_energy_counter` reads the host MSR with no namespace
//! awareness, handing every container the whole machine's energy counters.
//! This is the channel the synergistic power attack monitors and the one
//! the power-based namespace closes: on a kernel with the namespace
//! installed, a registered container's `energy_uj` reads serve its own
//! calibrated energy instead (see [`simkernel::power_ns`]).

use std::fmt::Write as _;

use simkernel::hw::{IDLE_STATE_NAMES, RAPL_WRAP_UJ};
use simkernel::{ContainerEnergy, Kernel};

use super::{arg, push_i64, push_line};
use crate::view::{Context, View};

/// `/sys/class/powercap/intel-rapl:{pkg}/name` → `package-{pkg}`.
pub fn rapl_name(k: &Kernel, _view: &View, caps: &[&str], out: &mut String) -> Option<()> {
    let pkg: usize = arg(caps, 0)?;
    if !k.rapl().is_present() || pkg >= k.rapl().package_count() {
        return None;
    }
    writeln!(out, "package-{pkg}").ok()
}

/// The reader's calibrated energy: `Some` only for a container view whose
/// cgroups the kernel's power namespace has registered.
fn namespaced_energy<'k>(k: &'k Kernel, view: &View) -> Option<&'k ContainerEnergy> {
    match view.context {
        Context::Container { cgroups, .. } => k.power_ns()?.energy(&cgroups),
        Context::Host => None,
    }
}

/// `/sys/class/powercap/intel-rapl:{pkg}/energy_uj`. LEAK (Table II):
/// host package energy counter in microjoules — unless the power
/// namespace serves the reader its own energy.
pub fn rapl_package_energy(k: &Kernel, view: &View, caps: &[&str], out: &mut String) -> Option<()> {
    let pkg: usize = arg(caps, 0)?;
    if !k.rapl().is_present() || pkg >= k.rapl().package_count() {
        return None;
    }
    let uj = match namespaced_energy(k, view) {
        Some(e) => e.package_energy_uj(pkg),
        None => k.rapl().package_energy_uj(pkg),
    };
    push_line(out, uj)
}

/// `/sys/class/powercap/intel-rapl:{pkg}/max_energy_range_uj`.
pub fn rapl_max_range(k: &Kernel, _view: &View, caps: &[&str], out: &mut String) -> Option<()> {
    let pkg: usize = arg(caps, 0)?;
    if !k.rapl().is_present() || pkg >= k.rapl().package_count() {
        return None;
    }
    writeln!(out, "{RAPL_WRAP_UJ}").ok()
}

/// The package and domain of a `intel-rapl:{pkg}/intel-rapl:{pkg}:{dom}`
/// path; `None` unless the subdomain names its enclosing package.
fn subdomain(caps: &[&str]) -> Option<(usize, usize)> {
    let pkg: usize = arg(caps, 0)?;
    let (owner, dom) = caps.get(1)?.split_once(':')?;
    if owner.parse::<usize>().ok()? != pkg {
        return None;
    }
    Some((pkg, dom.parse().ok()?))
}

/// `/sys/class/powercap/intel-rapl:{pkg}:{dom}/name` → `core` / `dram`.
pub fn rapl_subdomain_name(
    k: &Kernel,
    _view: &View,
    caps: &[&str],
    out: &mut String,
) -> Option<()> {
    let (pkg, dom) = subdomain(caps)?;
    if !k.rapl().is_present() || pkg >= k.rapl().package_count() {
        return None;
    }
    match dom {
        0 => out.push_str("core\n"),
        1 => out.push_str("dram\n"),
        _ => return None,
    }
    Some(())
}

/// `/sys/class/powercap/intel-rapl:{pkg}:{dom}/energy_uj`. LEAK: core and
/// DRAM domain counters — unless the power namespace serves the reader
/// its own energy.
pub fn rapl_subdomain_energy(
    k: &Kernel,
    view: &View,
    caps: &[&str],
    out: &mut String,
) -> Option<()> {
    let (pkg, dom) = subdomain(caps)?;
    if !k.rapl().is_present() || pkg >= k.rapl().package_count() {
        return None;
    }
    let uj = match (dom, namespaced_energy(k, view)) {
        (0, Some(e)) => e.core_energy_uj(pkg),
        (1, Some(e)) => e.dram_energy_uj(pkg),
        (0, None) => k.rapl().core_energy_uj(pkg),
        (1, None) => k.rapl().dram_energy_uj(pkg),
        _ => return None,
    };
    push_line(out, uj)
}

/// `/sys/devices/platform/coretemp.{pkg}/hwmon/hwmon{pkg}/temp{n}_input`.
/// LEAK (Table II): per-core DTS temperature in millidegrees. The hwmon
/// index is not checked, as Linux does not tie it to the package.
pub fn coretemp(k: &Kernel, _view: &View, caps: &[&str], out: &mut String) -> Option<()> {
    let pkg: usize = arg(caps, 0)?;
    let sensor: usize = arg(caps, 2)?;
    if !k.hw().has_coretemp() {
        return None;
    }
    // temp1 is the package sensor; temp{2+} are cores of that package.
    let per_pkg = k.config().cpus_per_package() as usize;
    let base = pkg * per_pkg;
    if pkg >= k.rapl().package_count().max(1) || sensor == 0 || sensor > per_pkg + 1 {
        return None;
    }
    let t = if sensor == 1 {
        // Package sensor: max of its cores.
        (0..per_pkg)
            .filter_map(|c| k.hw().cpus().get(base + c))
            .map(|c| c.temp_mc)
            .fold(0.0f64, f64::max)
    } else {
        k.hw().cpus().get(base + sensor - 2)?.temp_mc
    };
    push_i64(out, (t / 1000.0).round() as i64 * 1000);
    out.push('\n');
    Some(())
}

/// `/sys/devices/system/cpu/cpu{c}/cpuidle/state{s}/name`.
pub fn cpuidle_name(k: &Kernel, _view: &View, caps: &[&str], out: &mut String) -> Option<()> {
    let (cpu, state): (usize, usize) = (arg(caps, 0)?, arg(caps, 1)?);
    if cpu >= k.hw().cpus().len() || state >= IDLE_STATE_NAMES.len() {
        return None;
    }
    out.push_str(IDLE_STATE_NAMES[state]);
    out.push('\n');
    Some(())
}

/// `/sys/devices/system/cpu/cpu{c}/cpuidle/state{s}/usage`. LEAK
/// (Table II): per-CPU idle-state entry counts for the host.
pub fn cpuidle_usage(k: &Kernel, _view: &View, caps: &[&str], out: &mut String) -> Option<()> {
    let (cpu, state): (usize, usize) = (arg(caps, 0)?, arg(caps, 1)?);
    let s = k.hw().cpus().get(cpu)?.idle_states.get(state)?;
    push_line(out, s.usage)
}

/// `/sys/devices/system/cpu/cpu{c}/cpuidle/state{s}/time`. LEAK
/// (Table II): microseconds the host CPU spent in the state.
pub fn cpuidle_time(k: &Kernel, _view: &View, caps: &[&str], out: &mut String) -> Option<()> {
    let (cpu, state): (usize, usize) = (arg(caps, 0)?, arg(caps, 1)?);
    let s = k.hw().cpus().get(cpu)?.idle_states.get(state)?;
    push_line(out, s.time_us)
}

/// `/sys/devices/system/cpu/cpu{c}/cpufreq/scaling_cur_freq`. LEAK:
/// the core's current frequency in kHz races to turbo with host load —
/// yet another per-core activity channel.
pub fn cpufreq_cur(k: &Kernel, _view: &View, caps: &[&str], out: &mut String) -> Option<()> {
    let cpu: usize = arg(caps, 0)?;
    let c = k.hw().cpus().get(cpu)?;
    push_line(out, c.cur_freq_khz)
}

/// `/sys/devices/system/cpu/cpu{c}/cpufreq/cpuinfo_max_freq` (static).
pub fn cpufreq_max(k: &Kernel, _view: &View, caps: &[&str], out: &mut String) -> Option<()> {
    let cpu: usize = arg(caps, 0)?;
    if cpu >= k.hw().cpus().len() {
        return None;
    }
    push_line(out, k.config().freq_hz / 1_000 * 115 / 100)
}

/// `/sys/class/thermal/thermal_zone0/temp`. LEAK: package temperature in
/// millidegrees (the x86_pkg_temp zone).
pub fn thermal_zone_temp(k: &Kernel, _view: &View, caps: &[&str], out: &mut String) -> Option<()> {
    let zone: usize = arg(caps, 0)?;
    if zone != 0 || !k.hw().has_coretemp() {
        return None;
    }
    let max = k
        .hw()
        .cpus()
        .iter()
        .map(|c| c.temp_mc)
        .fold(0.0f64, f64::max);
    push_i64(out, max as i64);
    out.push('\n');
    Some(())
}

/// `/sys/block/{disk}/stat`. LEAK: host block-device IO counters.
pub fn block_stat(k: &Kernel, _view: &View, caps: &[&str], out: &mut String) -> Option<()> {
    let disk = *caps.first()?;
    if !k.config().disks.iter().any(|(name, _)| name == disk) {
        return None;
    }
    let io = k.stats().total_io_bytes;
    let reads = io / 4096 / 3 + 11_000;
    let writes = io / 4096 * 2 / 3 + 7_000;
    writeln!(
        out,
        "{reads:>8} {:>8} {:>8} {:>8} {writes:>8} {:>8} {:>8} {:>8} 0 {:>8} {:>8}",
        reads / 20,
        reads * 8,
        reads / 3,
        writes / 10,
        writes * 8,
        writes / 2,
        (reads + writes) / 4,
        (reads + writes) / 3,
    )
    .ok()
}

/// `/sys/devices/system/cpu/online` → `0-{n-1}`.
pub fn cpu_online(k: &Kernel, _view: &View, _: &[&str], out: &mut String) -> Option<()> {
    writeln!(out, "0-{}", k.config().cpus - 1).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::rendered;
    use simkernel::MachineConfig;
    use workloads::models;

    fn kernel() -> Kernel {
        let mut k = Kernel::new(MachineConfig::cloud_server(), 6);
        k.spawn_host_process("w", models::prime()).unwrap();
        k.advance_secs(3);
        k
    }

    #[test]
    fn rapl_counters_visible_and_monotone() {
        let mut k = kernel();
        let e1: u64 = rendered(rapl_package_energy, &k, &View::host(), &["0"])
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        k.advance_secs(1);
        let e2: u64 = rendered(rapl_package_energy, &k, &View::host(), &["0"])
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert!(e2 > e1);
        assert_eq!(
            rendered(rapl_name, &k, &View::host(), &["1"]).unwrap(),
            "package-1\n"
        );
        assert!(rendered(rapl_package_energy, &k, &View::host(), &["2"]).is_none());
    }

    #[test]
    fn rapl_subdomains_are_core_and_dram() {
        let k = kernel();
        assert_eq!(
            rendered(rapl_subdomain_name, &k, &View::host(), &["0", "0:0"]).unwrap(),
            "core\n"
        );
        assert_eq!(
            rendered(rapl_subdomain_name, &k, &View::host(), &["0", "0:1"]).unwrap(),
            "dram\n"
        );
        assert!(rendered(rapl_subdomain_name, &k, &View::host(), &["0", "0:2"]).is_none());
        let core: u64 = rendered(rapl_subdomain_energy, &k, &View::host(), &["0", "0:0"])
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert!(core > 0);
    }

    #[test]
    fn rapl_absent_without_hardware() {
        let mut k = Kernel::new(MachineConfig::legacy_server_no_rapl(), 6);
        k.advance_secs(1);
        assert!(rendered(rapl_package_energy, &k, &View::host(), &["0"]).is_none());
        assert!(rendered(coretemp, &k, &View::host(), &["0", "0", "1"]).is_none());
    }

    #[test]
    fn coretemp_package_sensor_is_max_of_cores() {
        let k = kernel();
        let pkg: i64 = rendered(coretemp, &k, &View::host(), &["0", "0", "1"])
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        for s in 2..=8 {
            let core: i64 = rendered(coretemp, &k, &View::host(), &["0", "0", &s.to_string()])
                .unwrap()
                .trim()
                .parse()
                .unwrap();
            assert!(pkg >= core);
        }
        assert!(pkg > 35_000, "load should heat the package: {pkg}");
        assert!(rendered(coretemp, &k, &View::host(), &["0", "0", "15"]).is_none());
    }

    #[test]
    fn cpuidle_states_render() {
        let k = kernel();
        assert_eq!(
            rendered(cpuidle_name, &k, &View::host(), &["0", "4"]).unwrap(),
            "C6\n"
        );
        let t: u64 = rendered(cpuidle_time, &k, &View::host(), &["15", "4"])
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        let u: u64 = rendered(cpuidle_usage, &k, &View::host(), &["15", "4"])
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert!(t > 0 && u > 0, "idle cpu15 should have C6 residency");
        assert!(rendered(cpuidle_name, &k, &View::host(), &["99", "0"]).is_none());
    }

    #[test]
    fn cpufreq_tracks_load() {
        let k = kernel();
        // Workload spreads over cores; some core runs hot.
        let freqs: Vec<u64> = (0..16)
            .map(|c| {
                rendered(cpufreq_cur, &k, &View::host(), &[&c.to_string()])
                    .unwrap()
                    .trim()
                    .parse()
                    .unwrap()
            })
            .collect();
        let max = *freqs.iter().max().unwrap();
        let min = *freqs.iter().min().unwrap();
        assert!(max > min * 2, "freq spread {min}..{max}");
        let cap: u64 = rendered(cpufreq_max, &k, &View::host(), &["0"])
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert!(max <= cap);
        assert!(rendered(cpufreq_cur, &k, &View::host(), &["99"]).is_none());
    }

    #[test]
    fn thermal_zone_is_package_max() {
        let k = kernel();
        let t: i64 = rendered(thermal_zone_temp, &k, &View::host(), &["0"])
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert!(t > 35_000, "loaded package should be warm: {t}");
        assert!(rendered(thermal_zone_temp, &k, &View::host(), &["1"]).is_none());
    }

    #[test]
    fn block_stat_renders_for_known_disks() {
        let k = kernel();
        assert!(rendered(block_stat, &k, &View::host(), &["sda"]).is_some());
        assert!(rendered(block_stat, &k, &View::host(), &["nvme9"]).is_none());
    }

    #[test]
    fn online_range() {
        let k = kernel();
        assert_eq!(
            rendered(cpu_online, &k, &View::host(), &[]).unwrap(),
            "0-15\n"
        );
    }
}
