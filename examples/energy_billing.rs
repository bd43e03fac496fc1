//! The operator-side upside of the power-based namespace (§V-B): energy
//! metered billing and power-budget throttling. Two tenants burn the same
//! CPU time for two minutes; the namespace tells them apart by energy.
//! Then a power budget caps the one that blows it.
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
    let cpu_seconds = |kernel: &Kernel, runtime: &Runtime| {
        [hot, cool].map(|id| runtime.cpu_usage_ns(kernel, id).unwrap_or(0) as f64 / 1e9)
    };

    // Two minutes of metering alone: both tenants keep two cpus busy
    // (the pointer-chasers finish their run as the second minute ends).
    // The last minute puts the render farm under a 30 W budget.
    let mut hot_cpu_before_cap = 0.0;
    for minute in 1..=3 {
        if minute == 3 {
            let [hot_cpu, cool_cpu] = cpu_seconds(&kernel, &runtime);
            hot_cpu_before_cap = hot_cpu;
            let (hb, cb) = (billing.bill(hot), billing.bill(cool));
            println!(
                "\nafter two minutes: render-farm {hot_cpu:.0} CPU-s for {:.0} J, \
                 pointer-chaser {cool_cpu:.0} CPU-s for {:.0} J",
                hb.joules, cb.joules,
            );
            println!(
                "same CPU time, different energy bills. Now a 30 W budget on the render farm:\n"
            );
            throttle.watch(hot, hot_pids.clone());
        }
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

    let [hot_cpu, cool_cpu] = cpu_seconds(&kernel, &runtime);
    println!(
        "\nCPU-seconds consumed: render-farm {hot_cpu:.0}, pointer-chaser {cool_cpu:.0}. \
         Capped, the render farm got {:.0} of its two cpus' 120 CPU-s in the last minute.",
        hot_cpu - hot_cpu_before_cap
    );
    Ok(())
}
