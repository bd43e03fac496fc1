//! The kernel/view matrix the read-path differential tests share. Each
//! case builds its kernels and views and hands every view to a check,
//! which compares one entry point of the read path against its reference
//! and returns the reads it compared, for the case to assert what the
//! matrix covered: the testbed host, a churned cloud server's container
//! views under every provider's mask (plus masks that split a route and
//! filter a file), a kernel inside each class of fault window, and a
//! kernel whose power namespace serves containers their own energy.

use cloudsim::CloudProfile;
use proptest::prelude::*;
use pseudofs::{FsError, MaskAction, MaskPolicy, PseudoFs, View};
use simkernel::kernel::ProcessSpec;
use simkernel::{
    ChurnDriver, ChurnEvent, ChurnPlan, FaultPlan, Kernel, MachineConfig, PowerModel,
    SensorFaultKind,
};
use workloads::models;

/// Each path with its bytes or its error.
pub type Reads = Vec<(String, Result<String, FsError>)>;

/// Compares one view's reads against the reference, under a label, and
/// returns the reads of every listed path.
pub type Check<'a> = &'a mut dyn FnMut(&Kernel, &View, &str) -> Result<Reads, TestCaseError>;

/// Plausible Formula 2 coefficients: any model serves a differential
/// check, and a literal one keeps training out of it.
fn literal_model() -> PowerModel {
    PowerModel {
        core_coef: [6.0e-4, 2.0e-3, 1.0e-3, 1.5e-3, 2.0e5],
        dram_coef: [4.0e-3, 3.0e5],
        lambda_uj: 1.2e6,
    }
}

/// A kernel with a busy host process and a container running two
/// processes, advanced `secs`, and the container's unmasked view.
fn populated(mut k: Kernel, secs: u64) -> (Kernel, View) {
    k.spawn_host_process("hostproc", models::web_service(0.3))
        .unwrap();
    let env = k.create_container_env("c1").unwrap();
    for (name, model) in [("app", models::prime()), ("db", models::mcf())] {
        k.spawn(ProcessSpec::new(name, model).in_container(&env))
            .unwrap();
    }
    k.advance_secs(secs);
    (k, View::container(env.ns, env.cgroups))
}

/// Every provider's policy, the detector's composed deny policy on the
/// two ends of the range, and one drawn from `seed` that splits the cpu
/// and pid routes (some instances denied, others not) and filters
/// `meminfo`.
fn policies(k: &Kernel, seed: u64) -> Vec<(String, MaskPolicy)> {
    let mut out: Vec<(String, MaskPolicy)> = std::iter::once(CloudProfile::Local)
        .chain(CloudProfile::COMMERCIAL)
        .map(|p| (format!("{p:?}"), p.mask_policy()))
        .collect();
    let watched: Vec<String> = detector::WATCHED.iter().map(|p| p.to_string()).collect();
    for p in [CloudProfile::CC1, CloudProfile::CC5] {
        let composed = detector::composed_policy(&p.mask_policy(), &watched);
        out.push((format!("{p:?} detector-composed"), composed));
    }
    let cpu = seed % u64::from(k.config().cpus);
    let split = MaskPolicy::none()
        .partial("/proc/meminfo")
        .deny(format!("/sys/devices/system/cpu/cpu{cpu}/**"))
        .deny(format!("/proc/{}/*", 1 + seed % 3));
    out.push(("split".to_string(), split));
    out
}

/// The testbed host's view: more than 100 files, every one readable.
pub fn testbed_host(seed: u64, check: Check) -> Result<(), TestCaseError> {
    let (k, _) = populated(Kernel::new(MachineConfig::testbed_i7_6700(), seed), 3);
    let reads = check(&k, &View::host(), "testbed host")?;
    prop_assert!(reads.len() > 100, "{} paths", reads.len());
    prop_assert!(
        reads.iter().all(|(_, r)| r.is_ok()),
        "every listed host file reads"
    );
    Ok(())
}

/// A cloud server churned through container creates and destroys, read
/// from the host and every live container, then one container under
/// every policy of [`policies`]: some view must filter a file, and the
/// split policy must hide part of the cpu routes.
pub fn churn_and_every_mask(seed: u64, check: Check) -> Result<(), TestCaseError> {
    let mut k = Kernel::new(MachineConfig::cloud_server(), seed);
    let mut driver = ChurnDriver::new(ChurnPlan::new(seed).cycles(12).max_live(3));
    let container_views = |driver: &ChurnDriver| -> Vec<View> {
        driver
            .live()
            .iter()
            .map(|(env, _)| View::container(env.ns, env.cgroups))
            .collect()
    };
    for cycle in 0..12 {
        let event = driver.step(&mut k);
        if matches!(event, ChurnEvent::Destroyed(_)) || cycle % 4 == 3 {
            check(&k, &View::host(), "churned host")?;
            for view in container_views(&driver) {
                check(&k, &view, "churned container")?;
            }
        }
    }
    // A container the churn left standing, or a fresh one.
    let view = match container_views(&driver).pop() {
        Some(view) => view,
        None => {
            let env = k.create_container_env("late").unwrap();
            View::container(env.ns, env.cgroups)
        }
    };
    let open = check(&k, &view, "open container")?.len();
    let (mut partial, mut split) = (false, false);
    for (name, policy) in policies(&k, seed) {
        let masked = view.clone().with_policy(policy);
        let reads = check(&k, &masked, &name)?;
        partial |= reads
            .iter()
            .any(|(p, _)| masked.mask_action(p) == Some(MaskAction::Partial));
        if name == "split" {
            split = reads.len() < open
                && reads
                    .iter()
                    .any(|(p, _)| p.starts_with("/sys/devices/system/cpu/cpu"));
        }
    }
    prop_assert!(partial, "no view filtered a file");
    prop_assert!(split, "the split policy decided the cpu routes whole");
    Ok(())
}

/// The testbed's host and container views read each second through a
/// 30 s fault plan: every class of window must show in the reads.
pub fn every_fault_window(seed: u64, check: Check) -> Result<(), TestCaseError> {
    const HORIZON_S: u64 = 30;
    let (mut k, container) = populated(Kernel::new(MachineConfig::testbed_i7_6700(), seed), 2);
    k.install_faults(
        FaultPlan::builder(seed)
            .horizon_secs(HORIZON_S)
            .transient_reads(2)
            .sensor_faults(3)
            .clock_skew(1)
            .build(),
    );
    // Every window lasts a whole second or more and closes before the
    // horizon, so sampling each second since install lands in each.
    let (mut eio, mut short, mut saturated, mut quantized, mut skewed) = (0, 0, 0, 0, 0);
    for second in 0..=HORIZON_S {
        if second > 0 {
            k.advance_secs(1);
        }
        skewed += usize::from(k.uptime_skew_ns() != 0);
        for view in [View::host(), container.clone()] {
            for (path, read) in check(&k, &view, &format!("faulted at +{second} s"))? {
                match read {
                    Err(FsError::Io(_)) => eio += 1,
                    Err(FsError::Truncated(_)) => short += 1,
                    _ => {}
                }
                match k.sensor_fault(&path) {
                    Some(SensorFaultKind::Saturation) => saturated += 1,
                    Some(SensorFaultKind::QuantizationJitter) => quantized += 1,
                    _ => {}
                }
            }
        }
    }
    prop_assert!(
        eio > 0 && short > 0 && saturated > 0 && quantized > 0 && skewed > 0,
        "windows missed: eio {} short {} saturated {} quantized {} skewed {}",
        eio,
        short,
        saturated,
        quantized,
        skewed
    );
    Ok(())
}

/// A power-namespaced testbed, read from the host and the container: the
/// container must read its own energy, not the host's.
pub fn power_namespaced(seed: u64, check: Check) -> Result<(), TestCaseError> {
    let k = Kernel::new(MachineConfig::testbed_i7_6700(), seed).power_namespace(literal_model());
    let (k, container) = populated(k, 3);
    check(&k, &View::host(), "namespaced host")?;
    let reads = check(&k, &container, "namespaced container")?;
    let energy = "/sys/class/powercap/intel-rapl:0/energy_uj";
    let host = PseudoFs::new().read(&k, &View::host(), energy).unwrap();
    let own = reads
        .iter()
        .find(|(p, _)| p == energy)
        .map(|(_, r)| r.clone());
    prop_assert!(
        matches!(&own, Some(Ok(own)) if *own != host),
        "the container reads its own energy, not the host's {}: {:?}",
        host,
        own
    );
    Ok(())
}
