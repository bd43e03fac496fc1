//! The RAPL covert channel (§III-C) versus the power-based namespace (§V):
//! the same bit pattern that decodes perfectly through the leaked host
//! counter becomes unreadable once the defense serves per-container energy.

use containerleaks::container_runtime::{ContainerSpec, Runtime};
use containerleaks::leakscan::{CovertLink, CovertMedium};
use containerleaks::powerns::Trainer;
use containerleaks::simkernel::{Kernel, MachineConfig};
use containerleaks::workloads::models;

const MSG: [bool; 12] = [
    true, false, true, true, false, true, false, false, true, true, false, true,
];

#[test]
fn rapl_covert_channel_works_undefended_and_dies_defended() {
    // --- Undefended: the channel moves 12 bits without error. ---
    let mut kernel = Kernel::new(MachineConfig::testbed_i7_6700(), 61_000);
    let mut runtime = Runtime::new();
    let tx = runtime
        .create(&mut kernel, ContainerSpec::new("tx"))
        .unwrap();
    let rx = runtime
        .create(&mut kernel, ContainerSpec::new("rx"))
        .unwrap();
    runtime
        .exec(&mut kernel, tx, "anchor", models::sleeper())
        .unwrap();
    runtime
        .exec(&mut kernel, rx, "anchor", models::sleeper())
        .unwrap();
    kernel.advance_secs(2);
    let mut link = CovertLink::new(CovertMedium::RaplPower);
    let clear = link
        .transmit(&mut kernel, &mut runtime, tx, rx, &MSG)
        .unwrap();
    assert_eq!(clear.errors, 0, "undefended channel should be clean");

    // --- Defended: same protocol, but the receiver's energy_uj is its
    //     own namespace-calibrated counter. ---
    let model = Trainer::new(61_001).train();
    let mut kernel = Kernel::new(MachineConfig::testbed_i7_6700(), 61_002).power_namespace(model);
    let mut runtime = Runtime::new();
    let tx = runtime
        .create(&mut kernel, ContainerSpec::new("tx"))
        .unwrap();
    let rx = runtime
        .create(&mut kernel, ContainerSpec::new("rx"))
        .unwrap();
    runtime
        .exec(&mut kernel, tx, "anchor", models::sleeper())
        .unwrap();
    runtime
        .exec(&mut kernel, rx, "anchor", models::sleeper())
        .unwrap();
    kernel.advance_secs(2);

    let read_rx = |k: &Kernel, rt: &Runtime| -> u64 {
        rt.read_file(k, rx, "/sys/class/powercap/intel-rapl:0/energy_uj")
            .unwrap()
            .trim()
            .parse()
            .unwrap()
    };

    // Calibrate the receiver's idle slot delta under the defense.
    let e0 = read_rx(&kernel, &runtime);
    kernel.advance_secs(2);
    let idle_delta = read_rx(&kernel, &runtime) - e0;

    let mut decoded = Vec::new();
    let mut host_truth_decoded = Vec::new();
    for (slot, bit) in MSG.iter().enumerate() {
        let mut pids = Vec::new();
        if *bit {
            for i in 0..4 {
                pids.push(
                    runtime
                        .exec(
                            &mut kernel,
                            tx,
                            &format!("pv-{slot}-{i}"),
                            models::power_virus(),
                        )
                        .unwrap(),
                );
            }
        }
        let pre = read_rx(&kernel, &runtime);
        let host_pre = kernel.rapl().raw_totals().package_uj;
        kernel.advance_secs(2);
        let post = read_rx(&kernel, &runtime);
        let host_post = kernel.rapl().raw_totals().package_uj;
        decoded.push(post - pre > idle_delta + idle_delta / 2);
        host_truth_decoded.push(host_post - host_pre > 60e6);
        for pid in pids {
            let _ = kernel.kill(pid);
        }
        kernel.advance_secs(1);
    }

    // The operator-side ground truth still sees the bursts...
    let truth_errors = MSG
        .iter()
        .zip(&host_truth_decoded)
        .filter(|(a, b)| a != b)
        .count();
    assert!(
        truth_errors <= 1,
        "bursts should be physically present: {host_truth_decoded:?}"
    );

    // ...but the defended receiver decodes nothing: its counter never
    // reflects the sender's activity, so it reads all-zeros.
    assert!(
        decoded.iter().all(|b| !b),
        "defense leaked covert bits: {decoded:?}"
    );
    let errors = MSG.iter().zip(&decoded).filter(|(a, b)| a != b).count();
    let ones = MSG.iter().filter(|b| **b).count();
    assert_eq!(errors, ones, "every 1-bit must be lost");
}
