//! The defense in action (§V): train the power model, boot a kernel with
//! the power-based namespace installed, and show that a would-be
//! attacker's RAPL monitor — reading the unchanged `energy_uj` file — now
//! sees only its own consumption: the benign crests it needed to time the
//! synergistic attack are gone.
//!
//! ```sh
//! cargo run --release --example defended_cloud
//! ```

use containerleaks::container_runtime::{ContainerSpec, Runtime};
use containerleaks::powerns::Trainer;
use containerleaks::simkernel::{Kernel, MachineConfig};
use containerleaks::workloads::models;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Train the power model on the calibration workloads (Fig. 6/7).
    println!("training power model on the calibration set...");
    let model = Trainer::new(1729).train();
    println!(
        "  core coefficients [I, CM, BM, C, 1]: {:?}",
        model.core_coef.map(|c| format!("{c:.3e}")),
    );

    // 2. Boot a namespaced host with a victim tenant and a spy tenant.
    let mut kernel = Kernel::new(MachineConfig::testbed_i7_6700(), 7).power_namespace(model);
    let mut runtime = Runtime::new();
    let victim = runtime.create(&mut kernel, ContainerSpec::new("victim"))?;
    let spy = runtime.create(&mut kernel, ContainerSpec::new("spy"))?;
    runtime.exec(&mut kernel, spy, "monitor", models::sleeper())?;

    // 3. The spy samples its RAPL view once per second while the victim's
    //    load comes and goes.
    let mut spy_last = 0u64;
    let mut host_last = kernel.rapl().raw_totals().package_uj;
    println!("\n  t | victim load | host power | spy's RAPL view");
    let mut victim_pids = Vec::new();
    for t in 0..40u64 {
        if t == 10 {
            for i in 0..4 {
                victim_pids.push(runtime.exec(
                    &mut kernel,
                    victim,
                    &format!("burst-{i}"),
                    models::prime(),
                )?);
            }
        }
        if t == 25 {
            for pid in victim_pids.drain(..) {
                let _ = kernel.kill(pid);
            }
        }
        kernel.advance_secs(1);
        let spy_now: u64 = runtime
            .read_file(&kernel, spy, "/sys/class/powercap/intel-rapl:0/energy_uj")?
            .trim()
            .parse()?;
        let host_now = kernel.rapl().raw_totals().package_uj;
        if t % 5 == 4 {
            println!(
                "{t:>3} | {:<11} | {:>7.1} W  | {:>7.1} W",
                if (10..25).contains(&t) {
                    "4x prime"
                } else {
                    "idle"
                },
                (host_now - host_last) / 1e6,
                (spy_now - spy_last) as f64 / 1e6,
            );
        }
        spy_last = spy_now;
        host_last = host_now;
    }
    println!("\nthe spy's view never moves with the victim's bursts:");
    println!("the synergistic attack has lost its oracle.");
    Ok(())
}
