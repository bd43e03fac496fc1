//! `/proc/{schedstat,sched_debug,timer_list,locks}`.

use std::fmt::Write as _;

use simkernel::Kernel;

use crate::view::View;

/// `/proc/schedstat`. LEAK (Table I/II): per-CPU run/wait time for the
/// whole host (variation + indirect manipulation via pinned load).
pub fn schedstat(k: &Kernel, _view: &View, _: &[&str], out: &mut String) -> Option<()> {
    out.push_str("version 15\ntimestamp 4295000000\n");
    for (i, c) in k.sched().cpu_stats().iter().enumerate() {
        let _ = writeln!(
            out,
            "cpu{i} 0 0 0 0 0 0 {} {} {}",
            c.run_time_ns, c.wait_time_ns, c.timeslices
        );
        let _ = writeln!(
            out,
            "domain0 f 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0"
        );
    }
    Some(())
}

/// `/proc/sched_debug`. LEAK (Table II, top group): dumps *every* task on
/// the host — names, host pids, vruntime — regardless of the reader's PID
/// namespace. Directly manipulable: a tenant launches a process with a
/// crafted name; co-resident containers find it here (§III-C group 2).
pub fn sched_debug(k: &Kernel, _view: &View, _: &[&str], out: &mut String) -> Option<()> {
    let _ = writeln!(
        out,
        "Sched Debug Version: v0.11, {} {}",
        k.config().hostname,
        k.config().kernel_release,
    );
    let _ = writeln!(out, "ktime : {}", k.clock().since_boot_ns() / 1_000);
    for (i, c) in k.sched().cpu_stats().iter().enumerate() {
        let on_cpu = k.processes().filter(|p| p.last_cpu() as usize == i).count();
        let _ = writeln!(out, "\ncpu#{i}, {} MHz", k.config().freq_hz / 1_000_000);
        let _ = writeln!(out, "  .nr_running                    : {on_cpu}");
        let _ = writeln!(out, "  .nr_switches                   : {}", c.switches);
        let _ = writeln!(
            out,
            "  .max_newidle_lb_cost           : {}",
            c.max_newidle_lb_cost_ns
        );
    }
    out.push_str("\nrunnable tasks:\n            task   PID         tree-key\n");
    out.push_str("----------------------------------------------------\n");
    for p in k.processes() {
        let _ = writeln!(
            out,
            "{:>16} {:>5} {:>16}",
            p.name(),
            p.host_pid().0,
            p.vruntime_ns() / 1_000,
        );
    }
    Some(())
}

/// `/proc/timer_list`. LEAK (Table II, top group): every armed hrtimer on
/// the host with owner comm and host pid. The §IV-C orchestration uses
/// this channel for co-residence verification.
pub fn timer_list(k: &Kernel, _view: &View, _: &[&str], out: &mut String) -> Option<()> {
    out.push_str("Timer List Version: v0.8\nHRTIMER_MAX_CLOCK_BASES: 4\n");
    let _ = writeln!(out, "now at {} nsecs", k.clock().since_boot_ns());
    for (i, t) in k.timers().timers().iter().enumerate() {
        let _ = writeln!(
            out,
            " #{i}: <0000000000000000>, {}, S:01, {}, {}/{}",
            t.function,
            if t.period_ns > 0 {
                "periodic"
            } else {
                "oneshot"
            },
            t.comm,
            t.pid.0,
        );
        let _ = writeln!(
            out,
            " # expires at {}-{} nsecs [in {} nsecs]",
            t.expires_ns,
            t.expires_ns + 50_000,
            t.expires_ns.saturating_sub(k.clock().since_boot_ns()),
        );
    }
    Some(())
}

/// `/proc/locks`. LEAK (Table II, top group): all kernel file locks with
/// *host* pids; directly manipulable via crafted `flock()` ranges.
pub fn locks(k: &Kernel, _view: &View, _: &[&str], out: &mut String) -> Option<()> {
    for (i, l) in k.fs().locks().iter().enumerate() {
        let end = if l.range.1 == u64::MAX {
            "EOF".to_string()
        } else {
            l.range.1.to_string()
        };
        let _ = writeln!(
            out,
            "{}: {} {} {} {} {}",
            i + 1,
            l.kind.columns(),
            l.pid.0,
            l.dev_inode,
            l.range.0,
            end,
        );
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::rendered;
    use simkernel::fsstate::LockKind;
    use simkernel::MachineConfig;
    use workloads::models;

    fn kernel() -> Kernel {
        let mut k = Kernel::new(MachineConfig::small_server(), 5);
        k.spawn_host_process("host-daemon", models::web_service(0.2))
            .unwrap();
        k.advance_secs(2);
        k
    }

    #[test]
    fn sched_debug_exposes_all_tasks_to_containers() {
        let mut k = kernel();
        let env = k.create_container_env("c1").unwrap();
        // Container process with a crafted name.
        k.spawn(
            simkernel::kernel::ProcessSpec::new("sig-42aa", models::prime()).in_container(&env),
        )
        .unwrap();
        k.advance_secs(1);
        let view = View::container(env.ns, env.cgroups);
        let s = rendered(sched_debug, &k, &view, &[]).unwrap();
        assert!(s.contains("host-daemon"), "host tasks leak");
        assert!(s.contains("sig-42aa"), "implanted signature visible");
    }

    #[test]
    fn timer_list_contains_comms_and_host_pids() {
        let mut k = kernel();
        let pid = k
            .spawn_host_process("timer-owner", models::prime())
            .unwrap();
        k.add_user_timer(pid, "craft-77", 1_000_000_000).unwrap();
        let s = rendered(timer_list, &k, &View::host(), &[]).unwrap();
        assert!(s.contains("craft-77"));
        assert!(s.contains(&format!("/{}", pid.0)));
        assert!(s.contains("tick_sched_timer"));
    }

    #[test]
    fn locks_render_eof_and_ranges() {
        let mut k = kernel();
        let pid = k.spawn_host_process("locker", models::prime()).unwrap();
        k.flock(pid, LockKind::FlockWrite, (0, u64::MAX)).unwrap();
        k.flock(pid, LockKind::PosixRead, (100, 4096)).unwrap();
        let s = rendered(locks, &k, &View::host(), &[]).unwrap();
        assert!(s.contains("EOF"));
        assert!(s.contains("FLOCK  ADVISORY  WRITE"));
        assert!(s.contains("POSIX  ADVISORY  READ"));
        assert!(s.contains("4096"));
    }

    #[test]
    fn schedstat_per_cpu_lines() {
        let k = kernel();
        let s = rendered(schedstat, &k, &View::host(), &[]).unwrap();
        assert!(s.contains("cpu0 "));
        assert!(s.contains("cpu3 "));
        assert!(s.contains("domain0 "));
    }
}
