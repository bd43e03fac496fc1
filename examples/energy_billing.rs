//! The operator-side upside of the power-based namespace (§V-B): energy
//! metered billing and power-budget throttling. Two tenants burn identical
//! CPU time; the namespace tells them apart by energy — and caps the one
//! that blows its power budget.
//!
//! ```sh
//! cargo run --release --example energy_billing
//! ```

use containerleaks::container_runtime::{ContainerSpec, Runtime};
use containerleaks::powerns::{EnergyBilling, EnergyTariff, PowerThrottle, ThrottleState, Trainer};
use containerleaks::simkernel::{Kernel, MachineConfig};
use containerleaks::workloads::models;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("training the power model...");
    let model = Trainer::new(1729).train();
    // Every container created on this kernel is metered by the namespace.
    let mut kernel = Kernel::new(MachineConfig::testbed_i7_6700(), 8).power_namespace(model);
    let mut runtime = Runtime::new();

    let hot = runtime.create(&mut kernel, ContainerSpec::new("render-farm"))?;
    let cool = runtime.create(&mut kernel, ContainerSpec::new("pointer-chaser"))?;
    let mut hot_pids = Vec::new();
    for i in 0..2 {
        hot_pids.push(runtime.exec(
            &mut kernel,
            hot,
            &format!("virus-{i}"),
            models::power_virus(),
        )?);
        runtime.exec(&mut kernel, cool, &format!("mcf-{i}"), models::mcf())?;
    }

    let mut billing = EnergyBilling::new(EnergyTariff::default());
    let mut throttle = PowerThrottle::new(30.0, 5);
    throttle.watch(hot, hot_pids);

    for minute in 1..=3 {
        for _ in 0..60 {
            kernel.advance_secs(1);
            billing.meter(&kernel, &runtime, &[hot, cool]);
            throttle.enforce(&mut kernel, &runtime, 1);
        }
        let hb = billing.bill(hot);
        let cb = billing.bill(cool);
        println!(
            "minute {minute}: render-farm {:7.1} J (${:.6}) [{}]   pointer-chaser {:7.1} J (${:.6})",
            hb.joules,
            hb.usd,
            match throttle.state(hot) {
                ThrottleState::Throttled => "THROTTLED",
                ThrottleState::Normal => "normal",
            },
            cb.joules,
            cb.usd,
        );
    }

    let hot_cpu = runtime.cpu_usage_ns(&kernel, hot).unwrap_or(0);
    let cool_cpu = runtime.cpu_usage_ns(&kernel, cool).unwrap_or(0);
    println!(
        "\nCPU-seconds consumed: render-farm {:.0}, pointer-chaser {:.0}",
        hot_cpu as f64 / 1e9,
        cool_cpu as f64 / 1e9
    );
    println!("same utilization billing — different energy bills, and the hog got capped.");
    Ok(())
}
