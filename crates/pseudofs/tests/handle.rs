//! `PseudoFs::read_handle_into` against the plain read path: on every
//! kernel and view of the shared matrix (`common`), reading a path
//! through a `Handle` must yield exactly what `read_into` of the path
//! yields, bytes or error. The paths are every listed path, the RAPL
//! packages past the kernel's last one (the monitor's probe-until-ENOENT
//! reads) and one path no route serves. Handles are opened once and kept
//! across kernels, seconds and policies, as a monitor keeps its files
//! open, so the mask, the fault plan and the kernel's state must be
//! consulted at each read, not at the open.

mod common;

use std::collections::BTreeMap;

use common::Reads;
use proptest::prelude::*;
use pseudofs::{Handle, PseudoFs, View};
use simkernel::Kernel;

/// A path under the powercap tree that no route serves: denied where
/// the powercap tree is, and `NotFound` where it is not.
const UNROUTED: &str = "/sys/class/powercap/intel-rapl:0/no_such_file";

/// How many RAPL packages the monitor probes.
const MONITORED_PACKAGES: usize = 8;

/// Handles opened on first use and kept for the rest of a case.
#[derive(Default)]
struct Handles(BTreeMap<String, Handle>);

impl Handles {
    /// Asserts that each handle read on `view` equals `read_into` of its
    /// path and that a failed read leaves the buffer empty. Returns the
    /// handle reads of the listed paths.
    fn same_as_read_into(
        &mut self,
        k: &Kernel,
        view: &View,
        what: &str,
    ) -> Result<Reads, TestCaseError> {
        let fs = PseudoFs::new();
        let listed = fs.list(k, view);
        let packages = if k.rapl().is_present() {
            k.rapl().package_count()
        } else {
            0
        };
        let unlisted = (packages..MONITORED_PACKAGES)
            .map(|p| format!("/sys/class/powercap/intel-rapl:{p}/energy_uj"))
            .chain([UNROUTED.to_string()]);
        let (mut by_path, mut by_handle) = (String::new(), String::from("stale"));
        let mut reads = Vec::with_capacity(listed.len());
        let n = listed.len();
        for (i, path) in listed.into_iter().chain(unlisted).enumerate() {
            let handle = self
                .0
                .entry(path.clone())
                .or_insert_with(|| Handle::open(&path));
            prop_assert_eq!(handle.path(), path.as_str());
            let want = fs
                .read_into(k, view, &path, &mut by_path)
                .map(|()| by_path.clone());
            let got = fs
                .read_handle_into(k, view, handle, &mut by_handle)
                .map(|()| by_handle.clone());
            prop_assert_eq!(&got, &want, "{}: {}", what, path);
            prop_assert!(
                got.is_ok() || by_handle.is_empty(),
                "{}: {} left bytes",
                what,
                path
            );
            if i < n {
                reads.push((path, got));
            }
        }
        Ok(reads)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 2 } else { 24 }))]

    #[test]
    fn handle_reads_equal_read_into_on_the_testbed_host(seed in 0u64..1 << 32) {
        let mut open = Handles::default();
        common::testbed_host(seed, &mut |k, v, w| open.same_as_read_into(k, v, w))?;
    }

    #[test]
    fn handle_reads_equal_read_into_under_churn_and_every_mask(seed in 0u64..1 << 32) {
        let mut open = Handles::default();
        common::churn_and_every_mask(seed, &mut |k, v, w| open.same_as_read_into(k, v, w))?;
    }

    #[test]
    fn handle_reads_equal_read_into_inside_every_fault_window(seed in 0u64..1 << 32) {
        let mut open = Handles::default();
        common::every_fault_window(seed, &mut |k, v, w| open.same_as_read_into(k, v, w))?;
    }

    #[test]
    fn handle_reads_equal_read_into_on_a_power_namespaced_kernel(seed in 0u64..1 << 32) {
        let mut open = Handles::default();
        common::power_namespaced(seed, &mut |k, v, w| open.same_as_read_into(k, v, w))?;
    }
}
