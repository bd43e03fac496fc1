//! `/proc/{modules,zoneinfo,diskstats}` and `/proc/fs/ext4/*/mb_groups`.

use std::fmt::Write as _;

use simkernel::Kernel;

use super::push_left;
use crate::view::View;

/// `/proc/modules`. LEAK (Table I): the host's loaded-module list. Ranked
/// low for co-residence (fleet-wide images share module lists) but a real
/// information disclosure.
pub fn modules(k: &Kernel, _view: &View, _: &[&str], out: &mut String) -> Option<()> {
    for (name, size, refs) in &k.config().modules {
        let _ = writeln!(out, "{name} {size} {refs} - Live 0xffffffffc0000000");
    }
    Some(())
}

/// `/proc/zoneinfo`. LEAK (Table I): physical RAM layout and per-zone free
/// pages of the host.
pub fn zoneinfo(k: &Kernel, _view: &View, _: &[&str], out: &mut String) -> Option<()> {
    for z in k.mem().zones() {
        let _ = writeln!(out, "Node {}, zone {:>8}", z.node, z.name);
        let (min, low, high) = z.watermark;
        let _ = writeln!(out, "  pages free     {}", z.free_pages);
        let _ = writeln!(out, "        min      {min}");
        let _ = writeln!(out, "        low      {low}");
        let _ = writeln!(out, "        high     {high}");
        let _ = writeln!(out, "        spanned  {}", z.spanned_pages);
        let _ = writeln!(out, "        present  {}", z.present_pages);
        let _ = writeln!(out, "        managed  {}", z.managed_pages);
        let _ = writeln!(out, "      nr_free_pages {}", z.free_pages);
        let _ = writeln!(out, "      nr_zone_inactive_anon {}", z.managed_pages / 16);
        let _ = writeln!(out, "      nr_zone_active_anon {}", z.managed_pages / 12);
    }
    Some(())
}

/// `/proc/fs/ext4/<part>/mb_groups`. LEAK (Table II): the multiblock
/// allocator's per-group free counts — host disk allocation activity.
pub fn mb_groups(k: &Kernel, _view: &View, caps: &[&str], out: &mut String) -> Option<()> {
    let part = *caps.first()?;
    let (_, groups) = k
        .fs()
        .ext4_partitions()
        .iter()
        .find(|(name, _)| name == part)?;
    out.push_str("#group: free  frags first [ 2^0   2^1   2^2   2^3   2^4   2^5   2^6 ]\n");
    // Every column is `{:<5}`; the costliest file in a full walk, so the
    // columns are written by hand rather than through `core::fmt`.
    for (i, g) in groups.iter().enumerate() {
        out.push('#');
        push_left(out, i as u64, 5);
        out.push_str(": ");
        for v in [g.free_blocks, g.fragments, g.first_free] {
            push_left(out, v, 5);
            out.push(' ');
        }
        out.push('[');
        for shift in 1..=7 {
            out.push(' ');
            push_left(out, g.free_blocks >> shift, 5);
        }
        out.push_str(" ]\n");
    }
    Some(())
}

/// `/proc/diskstats`: host block-device IO counters (global; included for
/// tree completeness).
pub fn diskstats(k: &Kernel, _view: &View, _: &[&str], out: &mut String) -> Option<()> {
    let io = k.stats().total_io_bytes;
    for (i, (name, _)) in k.config().disks.iter().enumerate() {
        let reads = io / 4096 / 3 + 12_000;
        let writes = io / 4096 * 2 / 3 + 8_000;
        let _ = writeln!(
            out,
            "   8      {} {name} {reads} 0 {} 0 {writes} 0 {} 0 0 0 0",
            i * 16,
            reads * 8,
            writes * 8,
        );
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::rendered;
    use simkernel::MachineConfig;
    use workloads::models;

    fn kernel() -> Kernel {
        let mut k = Kernel::new(MachineConfig::small_server(), 2);
        k.advance_secs(1);
        k
    }

    #[test]
    fn modules_lists_config_modules() {
        let k = kernel();
        let s = rendered(modules, &k, &View::host(), &[]).unwrap();
        assert!(s.contains("veth"));
        assert!(s.contains("intel_rapl"));
        assert!(s.contains("Live"));
    }

    #[test]
    fn zoneinfo_covers_all_zones() {
        let k = kernel();
        let s = rendered(zoneinfo, &k, &View::host(), &[]).unwrap();
        assert!(s.contains("zone      DMA"));
        assert!(s.contains("zone   Normal"));
        assert!(s.contains("pages free"));
    }

    /// `mb_groups` as `core::fmt` wrote it, the reference the
    /// hand-padded renderer must equal byte for byte.
    fn mb_groups_reference(k: &Kernel, part: &str) -> Option<String> {
        let (_, groups) = k
            .fs()
            .ext4_partitions()
            .iter()
            .find(|(name, _)| name == part)?;
        let mut out = String::new();
        out.push_str("#group: free  frags first [ 2^0   2^1   2^2   2^3   2^4   2^5   2^6 ]\n");
        for (i, g) in groups.iter().enumerate() {
            let _ = writeln!(
                out,
                "#{i:<5}: {:<5} {:<5} {:<5} [ {:<5} {:<5} {:<5} {:<5} {:<5} {:<5} {:<5} ]",
                g.free_blocks,
                g.fragments,
                g.first_free,
                g.free_blocks / 2,
                g.free_blocks / 4,
                g.free_blocks / 8,
                g.free_blocks / 16,
                g.free_blocks / 32,
                g.free_blocks / 64,
                g.free_blocks / 128,
            );
        }
        Some(out)
    }

    #[test]
    fn mb_groups_equals_the_fmt_reference() {
        let mut checked = 0;
        for machine in [MachineConfig::small_server(), MachineConfig::cloud_server()] {
            for seed in [1, 2, 77, 1729] {
                let mut k = Kernel::new(machine.clone(), seed);
                k.spawn_host_process("io", models::web_service(0.8))
                    .unwrap();
                for _ in 0..3 {
                    k.advance_secs(20);
                    let parts: Vec<String> = k
                        .fs()
                        .ext4_partitions()
                        .iter()
                        .map(|(p, _)| p.clone())
                        .collect();
                    for part in &parts {
                        assert_eq!(
                            rendered(mb_groups, &k, &View::host(), &[part]),
                            mb_groups_reference(&k, part),
                            "{part} at seed {seed}"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked >= 24, "{checked} renders compared");
    }

    #[test]
    fn mb_groups_only_for_known_partitions() {
        let k = kernel();
        assert!(rendered(mb_groups, &k, &View::host(), &["sda1"]).is_some());
        assert!(rendered(mb_groups, &k, &View::host(), &["sdz9"]).is_none());
        let s = rendered(mb_groups, &k, &View::host(), &["sda1"]).unwrap();
        assert!(s.lines().count() > 8);
        assert!(s.starts_with("#group:"));
    }

    #[test]
    fn diskstats_one_line_per_disk() {
        let k = kernel();
        let s = rendered(diskstats, &k, &View::host(), &[]).unwrap();
        assert_eq!(s.lines().count(), k.config().disks.len());
        assert!(s.contains(" sda "));
    }
}
