//! Quickstart: boot a simulated host, start a container, and run the
//! paper's cross-validation scan to discover which pseudo files leak
//! host state into the container.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use containerleaks::container_runtime::{ContainerSpec, Runtime};
use containerleaks::leakscan::{ChannelClass, CrossValidator};
use containerleaks::simkernel::{Kernel, MachineConfig};
use containerleaks::workloads::models;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Boot the paper's local testbed: an i7-6700 running Linux 4.7.
    let mut kernel = Kernel::new(MachineConfig::testbed_i7_6700(), 42);
    kernel.spawn_host_process("systemd-journal", models::web_service(0.1))?;

    // 2. Start an unprivileged container, Docker-style.
    let mut runtime = Runtime::new();
    let container = runtime.create(&mut kernel, ContainerSpec::new("probe"))?;
    runtime.exec(&mut kernel, container, "app", models::web_service(0.2))?;
    kernel.advance_secs(5);

    // 3. What does the container see? Its own pid namespace...
    let status = runtime.read_file(&kernel, container, "/proc/1/status")?;
    println!("container's /proc/1/status:\n{status}");

    // ...but also the HOST's uptime, power, and scheduler state.
    for leak in [
        "/proc/uptime",
        "/sys/class/powercap/intel-rapl:0/energy_uj",
        "/proc/sys/kernel/random/boot_id",
    ] {
        let v = runtime.read_file(&kernel, container, leak)?;
        println!("{leak} (host-global!): {}", v.trim());
    }

    // 4. The paper's detector finds all of this automatically.
    let view = runtime
        .container(container)
        .expect("container exists")
        .view();
    let findings = CrossValidator::new().scan(&kernel, view);
    let leaking = findings
        .iter()
        .filter(|f| f.class == ChannelClass::Leaking)
        .count();
    let namespaced = findings
        .iter()
        .filter(|f| f.class == ChannelClass::Namespaced)
        .count();
    println!("\ncross-validation scan: {leaking} leaking channels, {namespaced} properly namespaced files");
    println!("first ten leaking paths:");
    for f in findings
        .iter()
        .filter(|f| f.class == ChannelClass::Leaking)
        .take(10)
    {
        println!("  {}", f.path);
    }
    Ok(())
}
