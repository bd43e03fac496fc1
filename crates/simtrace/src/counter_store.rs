//! The global monotonic counter registry.
//!
//! Counters only ever sum, and addition commutes, so the totals are
//! deterministic even when worker threads race on increments. Every
//! entry carries its determinism [`Group`], so the mode-exempt totals
//! can be left out of a coalesced-vs-stepped or lazy-vs-eager compare.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::event::Group;

static COUNTERS: Mutex<BTreeMap<String, (u64, Group)>> = Mutex::new(BTreeMap::new());

/// One named total in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterEntry {
    /// Dotted counter name, e.g. `pseudofs.read./proc/stat`.
    pub name: String,
    /// Total since process start (counters are never reset mid-run).
    pub value: u64,
    /// Determinism class of this counter.
    pub group: Group,
}

#[expect(
    clippy::expect_used,
    reason = "the counter registry lock is poisoned only by a panic while held, and its \
        holders only insert, add to or take plain values"
)]
fn bump(name: &str, n: u64, group: Group) {
    let mut map = COUNTERS.lock().expect("counter registry poisoned");
    match map.get_mut(name) {
        Some(slot) => slot.0 += n,
        None => {
            map.insert(name.to_string(), (n, group));
        }
    }
}

/// Adds to a portable counter. No-op unless tracing is enabled.
#[inline]
pub fn add(name: &str, n: u64) {
    if crate::enabled() {
        bump(name, n, Group::Portable);
    }
}

/// Adds to a mode-exempt counter (differs by design between coalesced
/// and tick-stepped kernels, or lazy and eager calendars). No-op unless
/// tracing is enabled.
#[inline]
pub fn add_exempt(name: &str, n: u64) {
    if crate::enabled() {
        bump(name, n, Group::ModeExempt);
    }
}

/// Adds to the per-channel counter `"{prefix}.{path}"` — the only
/// counter family whose names are derived at runtime. No-op (and no
/// allocation) unless tracing is enabled.
#[inline]
pub fn add_channel(prefix: &str, path: &str, n: u64) {
    if crate::enabled() {
        bump_channel(prefix, path, n);
    }
}

thread_local! {
    /// The reused key buffer [`bump_channel`] spells a channel's counter
    /// name into.
    static CHANNEL_KEY: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Adds `n` to the portable counter `"{prefix}.{path}"`, its name spelled
/// into a per-thread buffer, so only a counter's first add allocates
/// (the registry's own copy of the name).
fn bump_channel(prefix: &str, path: &str, n: u64) {
    CHANNEL_KEY.with_borrow_mut(|key| {
        key.clear();
        key.push_str(prefix);
        key.push('.');
        key.push_str(path);
        bump(key, n, Group::Portable);
    });
}

/// A sorted snapshot of every counter touched so far.
#[expect(
    clippy::expect_used,
    reason = "the counter registry lock is poisoned only by a panic while held, and its \
        holders only insert, add to or take plain values"
)]
pub fn snapshot() -> Vec<CounterEntry> {
    COUNTERS
        .lock()
        .expect("counter registry poisoned")
        .iter()
        .map(|(name, &(value, group))| CounterEntry {
            name: name.clone(),
            value,
            group,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global and `enabled()` is off in unit
    // tests (no sink installed), so the public API must no-op.
    #[test]
    fn disabled_adds_do_not_register() {
        add("test.should_not_exist", 7);
        add_channel("test.chan", "/proc/nope", 1);
        assert!(snapshot()
            .iter()
            .all(|e| !e.name.starts_with("test.should_not")));
    }

    #[test]
    fn channel_adds_sum_under_the_dotted_name() {
        bump_channel("ztest.chan", "/proc/stat", 2);
        bump_channel("ztest.chan", "/proc/uptime", 1);
        bump_channel("ztest.chan", "/proc/stat", 3);
        let snap = snapshot();
        let value = |name: &str| {
            snap.iter()
                .find(|e| e.name == name)
                .map(|e| (e.value, e.group))
        };
        assert_eq!(value("ztest.chan./proc/stat"), Some((5, Group::Portable)));
        assert_eq!(value("ztest.chan./proc/uptime"), Some((1, Group::Portable)));
    }

    #[test]
    fn bump_sums_and_snapshot_sorts() {
        bump("ztest.b", 2, Group::Portable);
        bump("ztest.a", 1, Group::ModeExempt);
        bump("ztest.b", 3, Group::Portable);
        let snap = snapshot();
        let a = snap.iter().find(|e| e.name == "ztest.a").unwrap();
        let b = snap.iter().find(|e| e.name == "ztest.b").unwrap();
        assert_eq!(a.value, 1);
        assert_eq!(a.group, Group::ModeExempt);
        assert_eq!(b.value, 5);
        let names: Vec<&str> = snap.iter().map(|e| e.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }
}
