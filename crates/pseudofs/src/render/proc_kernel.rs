//! `/proc/sys/kernel/*` and `/proc/sys/fs/*`.

use std::fmt::Write as _;

use simkernel::{fnv1a, Kernel, FNV1A_OFFSET};

use super::{arg, push_line};
use crate::view::{Context, View};

/// `/proc/sys/kernel/random/boot_id`. LEAK (Table II rank 1): a random
/// string generated at boot, unique per running kernel — matching boot ids
/// from two containers is conclusive co-residence evidence.
pub fn boot_id(k: &Kernel, _view: &View, _: &[&str], out: &mut String) -> Option<()> {
    writeln!(out, "{}", k.boot_id()).ok()
}

/// `/proc/sys/kernel/random/entropy_avail`. LEAK (Table I): host entropy
/// pool estimate (variation channel).
pub fn entropy_avail(k: &Kernel, _view: &View, _: &[&str], out: &mut String) -> Option<()> {
    writeln!(out, "{}", k.fs().entropy_avail()).ok()
}

/// `/proc/sys/kernel/random/uuid`: fresh pseudo-random UUID per tick.
/// Derived statelessly from (boot id, clock, reader's UTS namespace) so
/// reads don't need `&mut`. Salting with the reader's namespace mimics
/// the real file's per-read randomness: the paper's cross-validation tool
/// sees different values in the two contexts and (correctly) does not
/// flag it, even though the underlying pool is global.
pub fn uuid(k: &Kernel, view: &View, _: &[&str], out: &mut String) -> Option<()> {
    let mut h = fnv1a(FNV1A_OFFSET, k.boot_id().as_bytes());
    h ^= k.clock().since_boot_ns();
    let salt = match view.context {
        Context::Host => 0u64,
        Context::Container { ns, .. } => u64::from(ns.uts.0) + 1,
    };
    h = h.wrapping_add(salt.wrapping_mul(0xdead_beef_cafe_f00d));
    h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let h2 = h.wrapping_mul(0xff51_afd7_ed55_8ccd).rotate_left(31);
    writeln!(
        out,
        "{:08x}-{:04x}-4{:03x}-{:04x}-{:012x}",
        (h >> 32) as u32,
        (h >> 16) as u16,
        (h & 0xfff) as u16,
        ((h2 >> 48) as u16 & 0x3fff) | 0x8000,
        h2 & 0xffff_ffff_ffff,
    )
    .ok()
}

/// `/proc/sys/kernel/hostname`: properly namespaced via the UTS namespace —
/// containers see their own name (a *control* file for the detector).
pub fn hostname(k: &Kernel, view: &View, _: &[&str], out: &mut String) -> Option<()> {
    let name = match view.context {
        Context::Host => k
            .namespaces()
            .hostname(k.namespaces().host_set().uts)
            .unwrap_or("(none)"),
        Context::Container { ns, .. } => k.namespaces().hostname(ns.uts).unwrap_or("(none)"),
    };
    writeln!(out, "{name}").ok()
}

/// `/proc/sys/kernel/osrelease`: global but identical across a fleet
/// (not useful for co-residence — the paper's "hard to exploit" class).
pub fn osrelease(k: &Kernel, _view: &View, _: &[&str], out: &mut String) -> Option<()> {
    writeln!(out, "{}", k.config().kernel_release).ok()
}

/// `/proc/sys/kernel/sched_domain/cpu{cpu}/domain0/max_newidle_lb_cost`.
/// LEAK (Table II): fluctuates with host load-balancer activity; variation
/// only (not manipulable in a targeted way, per the paper's ranking).
pub fn max_newidle_lb_cost(
    k: &Kernel,
    _view: &View,
    caps: &[&str],
    out: &mut String,
) -> Option<()> {
    let cpu: usize = arg(caps, 0)?;
    let c = k.sched().cpu_stats().get(cpu)?;
    push_line(out, c.max_newidle_lb_cost_ns)
}

/// `/proc/sys/kernel/pid_max` (static, fleet-identical).
pub fn pid_max(_k: &Kernel, _view: &View, _: &[&str], out: &mut String) -> Option<()> {
    writeln!(out, "32768").ok()
}

/// `/proc/sys/kernel/threads-max`: scales with host RAM — a mild hardware
/// disclosure like `cpuinfo`.
pub fn threads_max(k: &Kernel, _view: &View, _: &[&str], out: &mut String) -> Option<()> {
    writeln!(out, "{}", k.mem().total_bytes() / (8 * 8192)).ok()
}

/// `/proc/sys/vm/overcommit_memory` (static).
pub fn overcommit_memory(_k: &Kernel, _view: &View, _: &[&str], out: &mut String) -> Option<()> {
    writeln!(out, "0").ok()
}

/// `/proc/sys/vm/swappiness` (static).
pub fn swappiness(_k: &Kernel, _view: &View, _: &[&str], out: &mut String) -> Option<()> {
    writeln!(out, "60").ok()
}

/// `/proc/sys/fs/dentry-state`. LEAK (Table II): host dentry cache counters.
pub fn dentry_state(k: &Kernel, _view: &View, _: &[&str], out: &mut String) -> Option<()> {
    let (nr, unused, age, want) = k.fs().dentry_state();
    writeln!(out, "{nr}\t{unused}\t{age}\t{want}\t0\t0").ok()
}

/// `/proc/sys/fs/inode-nr`. LEAK (Table II): host inode counters.
pub fn inode_nr(k: &Kernel, _view: &View, _: &[&str], out: &mut String) -> Option<()> {
    let (nr, free) = k.fs().inode_nr();
    writeln!(out, "{nr}\t{free}").ok()
}

/// `/proc/sys/fs/file-nr`. LEAK (Table II): host open-file-handle counters.
pub fn file_nr(k: &Kernel, _view: &View, _: &[&str], out: &mut String) -> Option<()> {
    let (alloc, free, max) = k.fs().file_nr();
    writeln!(out, "{alloc}\t{free}\t{max}").ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::rendered;
    use simkernel::MachineConfig;

    fn kernel(seed: u64) -> Kernel {
        let mut k = Kernel::new(MachineConfig::small_server(), seed);
        k.advance_secs(1);
        k
    }

    #[test]
    fn boot_id_identical_for_host_and_container_views() {
        // This is the leak: the file is NOT namespaced.
        let mut k = kernel(1);
        let env = k.create_container_env("c1").unwrap();
        let host = rendered(boot_id, &k, &View::host(), &[]).unwrap();
        let cont = rendered(boot_id, &k, &View::container(env.ns, env.cgroups), &[]).unwrap();
        assert_eq!(host, cont);
    }

    #[test]
    fn hostname_is_namespaced() {
        let mut k = kernel(1);
        let env = k.create_container_env("webapp-1").unwrap();
        let host = rendered(hostname, &k, &View::host(), &[]).unwrap();
        let cont = rendered(hostname, &k, &View::container(env.ns, env.cgroups), &[]).unwrap();
        assert_eq!(host.trim(), "small");
        assert_eq!(cont.trim(), "webapp-1");
    }

    #[test]
    fn uuid_changes_with_time_but_is_deterministic() {
        let mut k = kernel(1);
        let u1 = rendered(uuid, &k, &View::host(), &[]).unwrap();
        let u1_again = rendered(uuid, &k, &View::host(), &[]).unwrap();
        assert_eq!(u1, u1_again, "stateless read");
        k.advance_secs(1);
        assert_ne!(u1, rendered(uuid, &k, &View::host(), &[]).unwrap());
    }

    #[test]
    fn vfs_counter_files_parse() {
        let k = kernel(1);
        let ds = rendered(dentry_state, &k, &View::host(), &[]).unwrap();
        assert_eq!(ds.split_whitespace().count(), 6);
        let fnr = rendered(file_nr, &k, &View::host(), &[]).unwrap();
        let fields: Vec<u64> = fnr.split_whitespace().map(|f| f.parse().unwrap()).collect();
        assert_eq!(fields.len(), 3);
        assert!(fields[0] > 0);
    }

    #[test]
    fn sched_domain_cost_exists_per_cpu() {
        let k = kernel(1);
        assert!(rendered(max_newidle_lb_cost, &k, &View::host(), &["0"]).is_some());
        assert!(rendered(max_newidle_lb_cost, &k, &View::host(), &["99"]).is_none());
    }

    #[test]
    fn sysctls_render_plausible_values() {
        let k = kernel(1);
        assert_eq!(
            rendered(pid_max, &k, &View::host(), &[]).unwrap(),
            "32768\n"
        );
        assert_eq!(
            rendered(overcommit_memory, &k, &View::host(), &[]).unwrap(),
            "0\n"
        );
        assert_eq!(
            rendered(swappiness, &k, &View::host(), &[]).unwrap(),
            "60\n"
        );
        let tm: u64 = rendered(threads_max, &k, &View::host(), &[])
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert_eq!(tm, (8u64 << 30) / (8 * 8192));
    }

    #[test]
    fn entropy_within_kernel_bounds() {
        let k = kernel(1);
        let v: u64 = rendered(entropy_avail, &k, &View::host(), &[])
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert!((160..=4096).contains(&v));
    }
}
