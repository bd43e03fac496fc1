//! Per-file render handlers.
//!
//! Each submodule groups handlers for one part of the tree; every handler
//! has the [`Render`](crate::registry::Render) shape and is reached
//! through its [`Route`](crate::Route). Handlers that
//! implement the paper's leakage channels read *global* kernel state and
//! ignore the view's namespaces — with a `LEAK` note in their docs citing
//! the corresponding Table I row. Properly namespaced files consult the
//! view's namespace set.

pub mod proc_basic;
pub mod proc_irq;
pub mod proc_kernel;
pub mod proc_misc;
pub mod proc_pid;
pub mod proc_sched;
pub mod proc_vm;
pub mod sys_cgroup;
pub mod sys_node;
pub mod sys_power;

/// Capture `i` of a route's pattern parsed as a `T`; `None` when it does
/// not parse, so the path names nothing.
pub(crate) fn arg<T: std::str::FromStr>(caps: &[&str], i: usize) -> Option<T> {
    caps.get(i)?.parse().ok()
}

/// Runs `render` into a fresh string.
#[cfg(test)]
pub(crate) fn rendered(
    render: crate::registry::Render,
    k: &simkernel::Kernel,
    view: &crate::View,
    caps: &[&str],
) -> Option<String> {
    let mut out = String::new();
    render(k, view, caps, &mut out)?;
    Some(out)
}

/// Formats bytes as the `kB` unit used throughout procfs.
pub(crate) fn kb(bytes: u64) -> u64 {
    bytes / 1024
}

/// Converts nanoseconds to USER_HZ jiffies (100 Hz) for `/proc/stat`.
pub(crate) fn jiffies(ns: u64) -> u64 {
    ns / 10_000_000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_helpers() {
        assert_eq!(kb(4096), 4);
        assert_eq!(jiffies(1_000_000_000), 100);
    }
}
