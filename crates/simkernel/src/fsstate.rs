//! VFS-level kernel state: file locks, dentry/inode/file-handle counters,
//! ext4 allocation groups, and the entropy pool.
//!
//! Sources for `/proc/locks`, `/proc/sys/fs/{dentry-state,inode-nr,file-nr}`,
//! `/proc/fs/ext4/<disk>/mb_groups` and
//! `/proc/sys/kernel/random/{boot_id,entropy_avail}`.
//!
//! `/proc/locks` is one of the paper's *directly manipulable* channels: a
//! container can `flock()` a file with a recognizable byte range and other
//! containers see the entry (with host pids) if co-resident.

use rand::rngs::StdRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};

use crate::process::HostPid;
use crate::time::NANOS_PER_SEC;

/// Kind of a POSIX/flock lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LockKind {
    /// `FLOCK ADVISORY WRITE`
    FlockWrite,
    /// `POSIX ADVISORY READ`
    PosixRead,
    /// `POSIX ADVISORY WRITE`
    PosixWrite,
}

impl LockKind {
    /// The three middle columns of a `/proc/locks` row.
    pub fn columns(&self) -> &'static str {
        match self {
            LockKind::FlockWrite => "FLOCK  ADVISORY  WRITE",
            LockKind::PosixRead => "POSIX  ADVISORY  READ",
            LockKind::PosixWrite => "POSIX  ADVISORY  WRITE",
        }
    }
}

/// One entry in `/proc/locks`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileLock {
    /// Owning process (host pid — the leak).
    pub pid: HostPid,
    /// Lock kind.
    pub kind: LockKind,
    /// Device:inode identifier.
    pub dev_inode: String,
    /// Byte range (start, end); end of `u64::MAX` renders as `EOF`.
    pub range: (u64, u64),
}

/// One ext4 multi-block allocator group (`mb_groups` row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MbGroup {
    /// Free blocks in the group.
    pub free_blocks: u64,
    /// Free fragments.
    pub fragments: u64,
    /// Largest contiguous free chunk.
    pub first_free: u64,
}

/// VFS and misc kernel state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FsState {
    locks: Vec<FileLock>,
    next_inode: u64,
    dentry_count: u64,
    dentry_unused: u64,
    inode_count: u64,
    inode_free: u64,
    file_handles: u64,
    file_handle_max: u64,
    ext4_groups: Vec<(String, Vec<MbGroup>)>,
    entropy_avail: u64,
    boot_id: String,
    uuid_counter: u64,
    elapsed_ns: u64,
    cum_syscalls: u64,
    system_lock_seq: u64,
}

impl FsState {
    /// Creates VFS state for the given disks, with a boot id drawn from
    /// the kernel's seeded RNG (unique per host — the paper's strongest
    /// uniqueness channel).
    pub fn new(disks: &[(String, u64)], rng: &mut StdRng) -> Self {
        let ext4_groups = disks
            .iter()
            .map(|(name, size)| {
                // One allocation group per 128 MiB, capped for rendering.
                let ngroups = ((size / (128 << 20)).clamp(8, 64)) as usize;
                let groups = (0..ngroups)
                    .map(|_| MbGroup {
                        free_blocks: rng.random_range(4_000..32_000),
                        fragments: rng.random_range(10..400),
                        first_free: rng.random_range(0..32_000),
                    })
                    .collect();
                (format!("{name}1"), groups)
            })
            .collect();
        FsState {
            locks: Vec::new(),
            next_inode: 131_072,
            dentry_count: 60_000,
            dentry_unused: 40_000,
            inode_count: 85_000,
            inode_free: 9_500,
            file_handles: 1_504,
            file_handle_max: 1_618_294,
            ext4_groups,
            entropy_avail: 3_200,
            boot_id: random_uuid(rng),
            uuid_counter: 0,
            elapsed_ns: 0,
            cum_syscalls: 0,
            system_lock_seq: 0,
        }
    }

    /// The host's boot id (`/proc/sys/kernel/random/boot_id`).
    pub fn boot_id(&self) -> &str {
        &self.boot_id
    }

    /// Rotates the boot id, as a kernel does on every (crash-)reboot.
    pub fn rotate_boot_id(&mut self, rng: &mut StdRng) {
        self.boot_id = random_uuid(rng);
    }

    /// A fresh UUID (`/proc/sys/kernel/random/uuid` changes per read).
    pub fn next_uuid(&mut self, rng: &mut StdRng) -> String {
        self.uuid_counter += 1;
        random_uuid(rng)
    }

    /// Current entropy estimate.
    pub fn entropy_avail(&self) -> u64 {
        self.entropy_avail
    }

    /// Current file locks.
    pub fn locks(&self) -> &[FileLock] {
        &self.locks
    }

    /// Takes a lock on behalf of `pid`, returning the dev:inode it landed
    /// on (deterministic per call order).
    pub fn add_lock(&mut self, pid: HostPid, kind: LockKind, range: (u64, u64)) -> String {
        self.next_inode += 1;
        let dev_inode = format!("08:01:{}", self.next_inode);
        self.locks.push(FileLock {
            pid,
            kind,
            dev_inode: dev_inode.clone(),
            range,
        });
        dev_inode
    }

    /// Drops all locks held by `pid` (process exit).
    pub fn drop_locks_of(&mut self, pid: HostPid) {
        self.locks.retain(|l| l.pid != pid);
    }

    /// `dentry-state`: (nr_dentry, nr_unused, age_limit, want_pages).
    pub fn dentry_state(&self) -> (u64, u64, u64, u64) {
        (self.dentry_count, self.dentry_unused, 45, 0)
    }

    /// `inode-nr`: (nr_inodes, nr_free_inodes).
    pub fn inode_nr(&self) -> (u64, u64) {
        (self.inode_count, self.inode_free)
    }

    /// `file-nr`: (allocated, free, max).
    pub fn file_nr(&self) -> (u64, u64, u64) {
        (self.file_handles, 0, self.file_handle_max)
    }

    /// ext4 partitions with their allocation groups.
    pub fn ext4_partitions(&self) -> &[(String, Vec<MbGroup>)] {
        &self.ext4_groups
    }

    /// One tick: caches churn with syscall/IO traffic, entropy refills
    /// from interrupt noise and drains from consumers.
    pub fn tick(
        &mut self,
        dt_ns: u64,
        nprocs: usize,
        syscalls: u64,
        io_bytes: u64,
        interrupts: u64,
        rng: &mut StdRng,
    ) {
        let dt_s = dt_ns as f64 / NANOS_PER_SEC as f64;
        self.elapsed_ns += dt_ns;
        self.cum_syscalls += syscalls;
        let elapsed_secs = self.elapsed_ns / NANOS_PER_SEC;

        // The first fields of dentry-state / inode-nr / file-nr behave as
        // slowly-growing allocation counters on a live system — which is
        // what makes them unique accumulating host identifiers in the
        // paper's Table II (U = filled). Their growth rate is activity
        // dependent (the indirect-manipulation channel); secondary fields
        // carry jitter.
        self.dentry_count =
            60_000 + elapsed_secs * 2 + self.cum_syscalls / 50 + io_bytes / (1 << 20);
        self.dentry_unused = self.dentry_count * 2 / 3 + rng.random_range(0..64);
        self.inode_count = 55_000 + self.dentry_count / 2;
        self.inode_free = 8_000 + rng.random_range(0..3_000);
        self.file_handles =
            1_504 + elapsed_secs / 3 + self.cum_syscalls / 1_000 + nprocs as u64 / 8;

        // A host daemon (cron/logrotate-style) cycles an advisory lock,
        // so /proc/locks varies over time on a live machine — the paper
        // marks the channel as both varying and implantable.
        if rng.random_range(0..3u32) == 0 {
            self.system_lock_seq += 1;
            let range = (
                self.system_lock_seq * 4096,
                self.system_lock_seq * 4096 + 4095,
            );
            match self.locks.iter_mut().find(|l| l.pid == HostPid(1)) {
                Some(l) => l.range = range,
                None => self.locks.insert(
                    0,
                    FileLock {
                        pid: HostPid(1),
                        kind: LockKind::PosixRead,
                        dev_inode: "08:01:2".into(),
                        range,
                    },
                ),
            }
        }

        // Entropy: interrupts feed, consumers drain.
        let feed = interrupts / 60 + rng.random_range(0..40);
        let drain = (dt_s * 25.0) as u64 + rng.random_range(0..50);
        self.entropy_avail = (self.entropy_avail + feed)
            .saturating_sub(drain)
            .clamp(160, 4_096);

        // ext4 groups churn with IO.
        if io_bytes > 0 {
            let churn = (io_bytes / (4 << 20)).clamp(1, 64);
            for (_, groups) in &mut self.ext4_groups {
                for _ in 0..churn {
                    let n = groups.len();
                    let idx = rng.random_range(0..n);
                    let g = &mut groups[idx];
                    let delta = rng.random_range(0..64) as i64 - 32;
                    g.free_blocks = g.free_blocks.saturating_add_signed(delta).max(16);
                    g.fragments = g.fragments.saturating_add_signed(delta / 8).max(1);
                }
            }
        }
    }

    /// The scalars [`FsState::idle_eval`] reads.
    pub(crate) fn capture_idle(&self) -> FsAnchor {
        FsAnchor {
            elapsed_ns: self.elapsed_ns,
            cum_syscalls: self.cum_syscalls,
            inode_free: self.inode_free,
            system_lock_seq: self.system_lock_seq,
            entropy_avail: self.entropy_avail,
        }
    }

    /// Jump-evaluates VFS state to `rel_ns` past `anchor` with no process
    /// activity (zero syscalls and IO).
    ///
    /// Mirrors [`FsState::tick`] with the random terms dropped, written as
    /// a closed form of `(anchor, rel_ns)` so the kernel's quiescent path
    /// lands on the same bytes regardless of step size. `intr_delta` is
    /// the number of hardware interrupts accumulated over the whole span
    /// (they feed the entropy pool).
    pub(crate) fn idle_eval(
        &mut self,
        anchor: &FsAnchor,
        rel_ns: u64,
        nprocs: usize,
        intr_delta: u64,
    ) {
        let rel_s = rel_ns as f64 / NANOS_PER_SEC as f64;
        self.elapsed_ns = anchor.elapsed_ns + rel_ns;
        self.cum_syscalls = anchor.cum_syscalls;
        let elapsed_secs = self.elapsed_ns / NANOS_PER_SEC;

        self.dentry_count = 60_000 + elapsed_secs * 2 + self.cum_syscalls / 50;
        self.dentry_unused = self.dentry_count * 2 / 3;
        self.inode_count = 55_000 + self.dentry_count / 2;
        self.inode_free = anchor.inode_free;
        self.file_handles =
            1_504 + elapsed_secs / 3 + self.cum_syscalls / 1_000 + nprocs as u64 / 8;

        // The host daemon cycles its advisory lock at the average
        // one-in-three-ticks rate: one step per three idle seconds.
        self.system_lock_seq = anchor.system_lock_seq + (rel_ns / NANOS_PER_SEC) / 3;
        if self.system_lock_seq != anchor.system_lock_seq {
            let range = (
                self.system_lock_seq * 4096,
                self.system_lock_seq * 4096 + 4095,
            );
            match self.locks.iter_mut().find(|l| l.pid == HostPid(1)) {
                Some(l) => l.range = range,
                None => self.locks.insert(
                    0,
                    FileLock {
                        pid: HostPid(1),
                        kind: LockKind::PosixRead,
                        dev_inode: "08:01:2".into(),
                        range,
                    },
                ),
            }
        }

        self.entropy_avail = (anchor.entropy_avail + intr_delta / 60)
            .saturating_sub((rel_s * 25.0) as u64)
            .clamp(160, 4_096);
    }
}

/// The VFS scalars a quiescent span evolves from.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FsAnchor {
    elapsed_ns: u64,
    cum_syscalls: u64,
    inode_free: u64,
    system_lock_seq: u64,
    entropy_avail: u64,
}

fn random_uuid(rng: &mut StdRng) -> String {
    let a: u32 = rng.random();
    let b: u16 = rng.random();
    let c: u16 = (rng.random::<u16>() & 0x0fff) | 0x4000;
    let d: u16 = (rng.random::<u16>() & 0x3fff) | 0x8000;
    let e: u64 = rng.random::<u64>() & 0xffff_ffff_ffff;
    format!("{a:08x}-{b:04x}-{c:04x}-{d:04x}-{e:012x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    // The reference quiescent evaluation: the closed form read from a
    // full clone of the VFS state, as the idle anchor held it before the
    // lean capture.
    impl FsState {
        pub(crate) fn idle_eval_reference(
            &mut self,
            anchor: &FsState,
            rel_ns: u64,
            nprocs: usize,
            intr_delta: u64,
        ) {
            let rel_s = rel_ns as f64 / NANOS_PER_SEC as f64;
            self.elapsed_ns = anchor.elapsed_ns + rel_ns;
            self.cum_syscalls = anchor.cum_syscalls;
            let elapsed_secs = self.elapsed_ns / NANOS_PER_SEC;

            self.dentry_count = 60_000 + elapsed_secs * 2 + self.cum_syscalls / 50;
            self.dentry_unused = self.dentry_count * 2 / 3;
            self.inode_count = 55_000 + self.dentry_count / 2;
            self.inode_free = anchor.inode_free;
            self.file_handles =
                1_504 + elapsed_secs / 3 + self.cum_syscalls / 1_000 + nprocs as u64 / 8;

            // The host daemon cycles its advisory lock at the average
            // one-in-three-ticks rate: one step per three idle seconds.
            self.system_lock_seq = anchor.system_lock_seq + (rel_ns / NANOS_PER_SEC) / 3;
            if self.system_lock_seq != anchor.system_lock_seq {
                let range = (
                    self.system_lock_seq * 4096,
                    self.system_lock_seq * 4096 + 4095,
                );
                match self.locks.iter_mut().find(|l| l.pid == HostPid(1)) {
                    Some(l) => l.range = range,
                    None => self.locks.insert(
                        0,
                        FileLock {
                            pid: HostPid(1),
                            kind: LockKind::PosixRead,
                            dev_inode: "08:01:2".into(),
                            range,
                        },
                    ),
                }
            }

            self.entropy_avail = (anchor.entropy_avail + intr_delta / 60)
                .saturating_sub((rel_s * 25.0) as u64)
                .clamp(160, 4_096);
        }
    }

    fn fs(seed: u64) -> FsState {
        let mut rng = StdRng::seed_from_u64(seed);
        FsState::new(&[("sda".into(), 512 << 30)], &mut rng)
    }

    #[test]
    fn boot_ids_differ_across_hosts() {
        assert_ne!(fs(1).boot_id(), fs(2).boot_id());
        // Same seed → same boot id (determinism).
        assert_eq!(fs(3).boot_id(), fs(3).boot_id());
    }

    #[test]
    fn boot_id_is_uuid_shaped() {
        let id = fs(1).boot_id().to_string();
        let parts: Vec<&str> = id.split('-').collect();
        assert_eq!(parts.len(), 5);
        assert_eq!(
            parts.iter().map(|p| p.len()).collect::<Vec<_>>(),
            vec![8, 4, 4, 4, 12]
        );
        assert!(parts[2].starts_with('4'), "not v4: {id}");
    }

    #[test]
    fn locks_roundtrip_and_drop_on_exit() {
        let mut f = fs(1);
        f.add_lock(HostPid(900), LockKind::FlockWrite, (0, u64::MAX));
        f.add_lock(HostPid(901), LockKind::PosixRead, (100, 200));
        assert_eq!(f.locks().len(), 2);
        f.drop_locks_of(HostPid(900));
        assert_eq!(f.locks().len(), 1);
        assert_eq!(f.locks()[0].pid, HostPid(901));
    }

    #[test]
    fn crafted_lock_range_is_visible() {
        // A tenant implants a signature via a distinctive byte range.
        let mut f = fs(1);
        f.add_lock(HostPid(900), LockKind::PosixWrite, (0xdead, 0xbeef));
        assert!(f.locks().iter().any(|l| l.range == (0xdead, 0xbeef)));
    }

    #[test]
    fn entropy_stays_in_bounds() {
        let mut f = fs(1);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..200 {
            f.tick(NANOS_PER_SEC, 50, 100_000, 1 << 20, 500, &mut rng);
            assert!((160..=4096).contains(&f.entropy_avail()));
        }
    }

    #[test]
    fn vfs_counters_are_monotone_accumulators() {
        // Table II: dentry-state/inode-nr/file-nr rank in the uniqueness
        // group because their leading fields only grow.
        let mut f = fs(1);
        let mut rng = StdRng::seed_from_u64(10);
        let mut last = (0u64, 0u64, 0u64);
        for _ in 0..50 {
            f.tick(NANOS_PER_SEC, 10, 5_000, 1 << 20, 100, &mut rng);
            let cur = (f.dentry_state().0, f.inode_nr().0, f.file_nr().0);
            assert!(
                cur.0 >= last.0 && cur.1 >= last.1 && cur.2 >= last.2,
                "counters regressed: {last:?} -> {cur:?}"
            );
            last = cur;
        }
    }

    #[test]
    fn vfs_counter_growth_scales_with_activity() {
        let run = |syscalls: u64| {
            let mut f = fs(1);
            let mut rng = StdRng::seed_from_u64(10);
            let start = f.file_nr().0;
            for _ in 0..20 {
                f.tick(NANOS_PER_SEC, 10, syscalls, 0, 100, &mut rng);
            }
            f.file_nr().0 - start
        };
        assert!(run(50_000) > run(100) * 5, "load should accelerate growth");
    }

    #[test]
    fn ext4_groups_churn_under_io() {
        let mut f = fs(1);
        let mut rng = StdRng::seed_from_u64(11);
        let before: Vec<u64> = f.ext4_partitions()[0]
            .1
            .iter()
            .map(|g| g.free_blocks)
            .collect();
        for _ in 0..20 {
            f.tick(NANOS_PER_SEC, 10, 1_000, 64 << 20, 100, &mut rng);
        }
        let after: Vec<u64> = f.ext4_partitions()[0]
            .1
            .iter()
            .map(|g| g.free_blocks)
            .collect();
        assert_ne!(before, after);
    }

    #[test]
    fn uuid_changes_per_read_but_boot_id_does_not() {
        let mut f = fs(1);
        let mut rng = StdRng::seed_from_u64(12);
        let b0 = f.boot_id().to_string();
        let u1 = f.next_uuid(&mut rng);
        let u2 = f.next_uuid(&mut rng);
        assert_ne!(u1, u2);
        assert_eq!(f.boot_id(), b0);
    }
}
