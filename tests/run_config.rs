//! The run configuration must actually reach every kernel and cloud an
//! experiment builds — otherwise the mode matrix's coalescing-off row
//! (`tests/mode_matrix.rs`) could pass by comparing a run against itself.

use containerleaks::cloudsim::{Cloud, CloudConfig, CloudProfile, HostId};
use containerleaks::experiments::{run_entries_with, ExperimentFn, Measured};
use containerleaks::simkernel::{Kernel, MachineConfig, RunConfig};

/// Reports the modes a kernel and a 16-host cloud built inside the
/// driver picked up.
fn observe_modes(seed: u64, _: u64) -> Result<Measured, String> {
    let k = Kernel::new(MachineConfig::small_server(), seed);
    let mut cloud = Cloud::new(CloudConfig::new(CloudProfile::CC1).hosts(16), seed);
    let host = cloud.host(HostId(15)).expect("16 hosts").kernel();
    let rendered = format!(
        "kernel coalesce={}; cloud coalesce={}",
        k.coalescing(),
        host.coalescing(),
    );
    Ok(Measured::new(rendered, vec![]))
}

const MODES: ExperimentFn = ExperimentFn {
    title: "modes",
    run: observe_modes,
};

const ENTRIES: &[(&str, ExperimentFn)] = &[
    ("modes_a", MODES),
    ("modes_b", MODES),
    ("modes_c", MODES),
    ("modes_d", MODES),
];

#[test]
fn entered_config_reaches_every_worker() {
    let run = RunConfig { coalesce: false };
    for jobs in [1, 4] {
        let results = {
            let _run = run.enter();
            run_entries_with(ENTRIES, 3, 1, jobs, |_, _| {})
        };
        assert_eq!(results.len(), ENTRIES.len());
        for r in &results {
            assert_eq!(
                r.rendered, "kernel coalesce=false; cloud coalesce=false",
                "jobs {jobs}"
            );
        }
    }
}

#[test]
fn a_thread_with_nothing_entered_gets_the_compiled_defaults() {
    // A fresh thread: nothing entered there, whatever other tests in this
    // binary have entered on theirs.
    let r = std::thread::spawn(|| {
        assert_eq!(RunConfig::current(), RunConfig::DEFAULT);
        observe_modes(3, 1)
    })
    .join()
    .expect("driver thread")
    .expect("driver ran");
    assert_eq!(r.rendered, "kernel coalesce=true; cloud coalesce=true");
}

#[test]
fn a_cloud_keeps_the_config_its_cloudconfig_captured_across_reboots() {
    let cfg = {
        let _run = RunConfig { coalesce: false }.enter();
        CloudConfig::new(CloudProfile::CC1).hosts(4)
    };
    // The guard is gone: the cloud and every reboot below run with the
    // compiled defaults current, so any kernel built from
    // `RunConfig::current()` instead of the captured config would come
    // up coalescing.
    assert_eq!(RunConfig::current(), RunConfig::DEFAULT);
    let mut cloud = Cloud::new(cfg, 5);
    cloud.advance_secs(3);
    cloud.reboot_host(HostId(1));
    for id in [HostId(0), HostId(1)] {
        let k = cloud.host(id).expect("4 hosts").kernel();
        assert!(!k.coalescing(), "{id:?} lost the cloud's modes");
    }
}
