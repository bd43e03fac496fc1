//! `/proc/interrupts` and `/proc/softirqs`.

use std::fmt::Write as _;

use simkernel::irq::SOFTIRQ_NAMES;
use simkernel::Kernel;

use super::{push_right, push_u64};
use crate::view::View;

/// Width of each per-CPU column.
const COLUMN: usize = 11;

/// Appends the `CPU0 CPU1 …` header columns, each right-aligned in
/// [`COLUMN`] characters, without building a string per column.
fn cpu_header(out: &mut String, ncpus: usize) {
    for c in 0..ncpus {
        let digits = c.checked_ilog10().map_or(1, |d| d as usize + 1);
        let pad = COLUMN.saturating_sub(digits + 3);
        out.extend(std::iter::repeat_n(' ', pad));
        out.push_str("CPU");
        push_u64(out, c as u64);
    }
    out.push('\n');
}

/// Appends one row's per-CPU counts, each right-aligned in [`COLUMN`]
/// characters (a CPU past the row's end counts zero).
fn counts(out: &mut String, row: &[u64], ncpus: usize) {
    for c in 0..ncpus {
        push_right(out, row.get(c).copied().unwrap_or(0), COLUMN);
    }
}

/// `/proc/interrupts`. LEAK (Table I): per-IRQ per-CPU counts for the
/// whole host; the handler has no notion of namespaces.
pub fn interrupts(k: &Kernel, _view: &View, _: &[&str], out: &mut String) -> Option<()> {
    let ncpus = k.config().cpus as usize;
    out.push_str("     ");
    cpu_header(out, ncpus);
    for line in k.irq().lines() {
        let _ = write!(out, "{:>4}:", line.label);
        counts(out, &line.per_cpu, ncpus);
        out.push_str("   ");
        out.push_str(&line.description);
        out.push('\n');
    }
    Some(())
}

/// `/proc/softirqs`. LEAK (Table I): per-kind per-CPU softirq counts;
/// flagged for both co-residence and DoS potential in the paper.
pub fn softirqs(k: &Kernel, _view: &View, _: &[&str], out: &mut String) -> Option<()> {
    let ncpus = k.config().cpus as usize;
    out.push_str("                ");
    cpu_header(out, ncpus);
    for (name, row) in SOFTIRQ_NAMES.iter().zip(k.irq().softirqs()) {
        let _ = write!(out, "{:>12}:   ", name);
        counts(out, row, ncpus);
        out.push('\n');
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::rendered;
    use simkernel::MachineConfig;
    use workloads::models;

    // The reference renderers the allocation-free headers must match
    // byte for byte: each header column is formatted into its own string.
    fn interrupts_reference(k: &Kernel, out: &mut String) {
        let ncpus = k.config().cpus as usize;
        out.push_str("     ");
        for c in 0..ncpus {
            let _ = write!(out, "{:>11}", format!("CPU{c}"));
        }
        out.push('\n');
        for line in k.irq().lines() {
            let _ = write!(out, "{:>4}:", line.label);
            for c in 0..ncpus {
                let _ = write!(out, "{:>11}", line.per_cpu.get(c).copied().unwrap_or(0));
            }
            let _ = writeln!(out, "   {}", line.description);
        }
    }

    fn softirqs_reference(k: &Kernel, out: &mut String) {
        let ncpus = k.config().cpus as usize;
        out.push_str("                ");
        for c in 0..ncpus {
            let _ = write!(out, "{:>11}", format!("CPU{c}"));
        }
        out.push('\n');
        for (name, counts) in SOFTIRQ_NAMES.iter().zip(k.irq().softirqs()) {
            let _ = write!(out, "{:>12}:   ", name);
            for c in 0..ncpus {
                let _ = write!(out, "{:>11}", counts.get(c).copied().unwrap_or(0));
            }
            out.push('\n');
        }
    }

    #[test]
    fn tables_match_the_reference_renderers() {
        for cfg in [
            MachineConfig::small_server(),
            MachineConfig::testbed_i7_6700(),
            MachineConfig::cloud_server(),
        ] {
            let mut k = Kernel::new(cfg, 3);
            for _ in 0..3 {
                k.spawn_host_process("w", models::prime()).unwrap();
            }
            k.advance_secs(30);
            let view = View::host();
            let mut want = String::new();
            interrupts_reference(&k, &mut want);
            assert_eq!(rendered(interrupts, &k, &view, &[]).unwrap(), want);
            want.clear();
            softirqs_reference(&k, &mut want);
            assert_eq!(rendered(softirqs, &k, &view, &[]).unwrap(), want);
        }
    }

    #[test]
    fn interrupts_table_shape() {
        let mut k = Kernel::new(MachineConfig::small_server(), 1);
        k.spawn_host_process("w", models::prime()).unwrap();
        k.advance_secs(2);
        let s = rendered(interrupts, &k, &View::host(), &[]).unwrap();
        assert!(s.lines().next().unwrap().contains("CPU3"));
        assert!(s.contains("LOC:"));
        assert!(s.contains("Local timer interrupts"));
    }

    #[test]
    fn softirqs_has_all_kinds() {
        let mut k = Kernel::new(MachineConfig::small_server(), 1);
        k.advance_secs(1);
        let s = rendered(softirqs, &k, &View::host(), &[]).unwrap();
        for name in SOFTIRQ_NAMES {
            assert!(s.contains(name), "missing {name}");
        }
    }
}
