//! Reproducibility: every layer is a pure function of (config, seed).

use containerleaks::cloudsim::{Cloud, CloudConfig, CloudProfile, InstanceSpec};
use containerleaks::leakscan::{CrossValidator, Lab};
use containerleaks::powerns::Trainer;
use containerleaks::powersim::DiurnalTrace;
use containerleaks::simkernel::{Kernel, MachineConfig};
use containerleaks::workloads::models;

#[test]
fn kernel_evolution_is_reproducible() {
    let run = || {
        let mut k = Kernel::new(MachineConfig::testbed_i7_6700(), 555);
        k.spawn_host_process("a", models::stress_vm()).unwrap();
        k.spawn_host_process("b", models::web_service(0.3)).unwrap();
        k.advance_secs(20);
        (
            k.rapl().package_energy_uj(0),
            k.mem().free_bytes(),
            k.sched().total_switches(),
            k.irq().total_interrupts(),
            k.fs().entropy_avail(),
            k.boot_id().to_string(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn scan_results_are_reproducible() {
    let scan = || {
        let lab = Lab::new(1, 777);
        let h = lab.host(0);
        CrossValidator::new().scan(&h.kernel, &h.container_view())
    };
    assert_eq!(scan(), scan());
}

#[test]
fn cloud_placement_and_billing_reproducible() {
    let run = || {
        let mut c = Cloud::new(CloudConfig::new(CloudProfile::CC3).hosts(4), 888);
        let ids: Vec<_> = (0..5)
            .map(|i| c.launch("t", InstanceSpec::new(format!("i{i}"))).unwrap())
            .collect();
        for id in &ids {
            c.exec(*id, "w", models::web_service(0.4)).unwrap();
        }
        c.advance_secs(60);
        let hosts: Vec<_> = ids.iter().map(|i| c.instance(*i).unwrap().host()).collect();
        (hosts, format!("{:.9}", c.bill("t").total_usd()))
    };
    assert_eq!(run(), run());
}

#[test]
fn trained_models_are_reproducible() {
    let a = Trainer::new(999).train();
    let b = Trainer::new(999).train();
    assert_eq!(a, b);
    let c = Trainer::new(1000).train();
    assert_ne!(
        a, c,
        "different seeds should perturb the noise, hence the fit"
    );
}

#[test]
fn traces_are_reproducible_but_seed_sensitive() {
    let sample = |seed: u64| {
        let t = DiurnalTrace::paper_week(seed);
        (0..48)
            .map(|h| (t.nominal_demand(0, h * 1800) * 1e6) as i64)
            .collect::<Vec<_>>()
    };
    assert_eq!(sample(5), sample(5));
    assert_ne!(sample(5), sample(6));
}

#[test]
fn experiment_runner_is_jobs_invariant() {
    // The determinism gate for the parallel experiment runner: a cheap
    // subset of the registry, run serially and across 4 lanes, must
    // render byte-identical reports. (`tests/mode_matrix.rs` runs the
    // same gate over the full registry, traces included, in release.)
    use containerleaks::experiments::{run_entries_with, EXPERIMENTS};
    let subset: Vec<_> = EXPERIMENTS
        .iter()
        .copied()
        .filter(|(id, _)| matches!(*id, "table1" | "table3" | "hardening"))
        .collect();
    assert_eq!(subset.len(), 3, "registry ids changed under the test");
    let render = |jobs: usize| {
        let results = run_entries_with(&subset, 1729, 1, jobs, |_, _| {});
        containerleaks::render_experiments_md(&results, 1729)
    };
    let serial = render(1);
    assert_eq!(serial, render(4), "parallel runner diverged from serial");
    assert_eq!(serial, render(2), "2-lane run diverged from serial");
}
