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

/// Appends `v` in decimal, space-padded to `width` bytes: after the
/// digits when `left`, before them otherwise. The one integer writer
/// behind the `push_*` helpers; the digits go through a stack buffer.
fn push_padded(out: &mut String, mut v: u64, width: usize, left: bool) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    for d in digits.iter_mut().rev() {
        *d = b'0' + (v % 10) as u8;
        start -= 1;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    let text = std::str::from_utf8(digits.get(start..).unwrap_or_default()).unwrap_or_default();
    let pad = std::iter::repeat_n(' ', width.saturating_sub(text.len()));
    if left {
        out.push_str(text);
        out.extend(pad);
    } else {
        out.extend(pad);
        out.push_str(text);
    }
}

/// Appends `v` in decimal, as `{v}` writes it. Renderers write integer
/// fields on the walk's hot paths through this and its padded forms
/// rather than through `core::fmt`; floats keep `core::fmt`.
pub(crate) fn push_u64(out: &mut String, v: u64) {
    push_padded(out, v, 0, true);
}

/// Appends `v` in decimal, right-aligned and space-padded to `width`
/// bytes, as `{v:>width$}` writes it.
pub(crate) fn push_right(out: &mut String, v: u64, width: usize) {
    push_padded(out, v, width, false);
}

/// Appends `v` in decimal, left-aligned and space-padded to `width`
/// bytes, as `{v:<width$}` writes it.
pub(crate) fn push_left(out: &mut String, v: u64, width: usize) {
    push_padded(out, v, width, true);
}

/// Appends `v` and a newline, as `writeln!(out, "{v}")` does: the whole
/// of a single-integer file.
pub(crate) fn push_line(out: &mut String, v: u64) -> Option<()> {
    push_u64(out, v);
    out.push('\n');
    Some(())
}

/// Appends `v` in decimal with its sign, as `{v}` writes it.
pub(crate) fn push_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    push_u64(out, v.unsigned_abs());
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
    use proptest::prelude::*;

    #[test]
    fn unit_helpers() {
        assert_eq!(kb(4096), 4);
        assert_eq!(jiffies(1_000_000_000), 100);
    }

    /// Every width of every power of ten, its neighbours and the ends.
    #[test]
    fn integer_writers_match_fmt_at_the_digit_boundaries() {
        let mut values = vec![
            0,
            1,
            7,
            12_345,
            1 << 32,
            i64::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        for p in 1..20 {
            let t = 10u64.pow(p);
            values.extend([t - 1, t, t + 1]);
        }
        for v in values {
            for width in [0, 1, 5, 11, 12, 19, 20, 21, 25] {
                let mut out = String::from("x");
                push_u64(&mut out, v);
                push_right(&mut out, v, width);
                push_left(&mut out, v, width);
                assert_eq!(out, format!("x{v}{v:>width$}{v:<width$}"));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]
        #[test]
        fn integer_writers_match_fmt(v in 0..u64::MAX, shift in 0u32..64, width in 0usize..26, s in i64::MIN..i64::MAX) {
            // Shifting spreads the draws over every digit count.
            let v = v >> shift;
            let mut out = String::from("x");
            push_u64(&mut out, v);
            push_right(&mut out, v, width);
            push_left(&mut out, v, width);
            push_i64(&mut out, s);
            push_i64(&mut out, s >> shift);
            prop_assert_eq!(out, format!("x{v}{v:>width$}{v:<width$}{s}{}", s >> shift));
        }
    }
}
