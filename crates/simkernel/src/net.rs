//! Network device state.
//!
//! Device *names* per namespace live in [`crate::ns`]; this module owns the
//! host-global device list with traffic counters. The host list matters for
//! two leaks: `net_prio.ifpriomap` renders *all* host interfaces regardless
//! of the reader's NET namespace (Case Study I), and each container created
//! on a host adds a `veth*` device whose randomized name makes the host
//! list a unique fingerprint.

use rand::rngs::StdRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};

use crate::time::NANOS_PER_SEC;

/// A network device with `/proc/net/dev`-style counters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetDevice {
    /// Interface name.
    pub name: String,
    /// Received bytes.
    pub rx_bytes: u64,
    /// Received packets.
    pub rx_packets: u64,
    /// Transmitted bytes.
    pub tx_bytes: u64,
    /// Transmitted packets.
    pub tx_packets: u64,
}

impl NetDevice {
    fn new(name: impl Into<String>) -> Self {
        NetDevice {
            name: name.into(),
            rx_bytes: 0,
            rx_packets: 0,
            tx_bytes: 0,
            tx_packets: 0,
        }
    }
}

/// Host-global network state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetState {
    devices: Vec<NetDevice>,
}

impl NetState {
    /// Creates the host's initial device list.
    pub fn new() -> Self {
        NetState {
            devices: vec![
                NetDevice::new("lo"),
                NetDevice::new("eth0"),
                NetDevice::new("eth1"),
                NetDevice::new("docker0"),
            ],
        }
    }

    /// The host device list, in creation order.
    pub fn devices(&self) -> &[NetDevice] {
        &self.devices
    }

    /// Creates a veth pair's host end with a randomized suffix, returning
    /// its name. Container creation calls this; the suffix makes the host
    /// interface list a unique host fingerprint.
    pub fn create_veth(&mut self, rng: &mut StdRng) -> String {
        let suffix: u32 = rng.random();
        let name = format!("veth{suffix:07x}");
        self.devices.push(NetDevice::new(name.clone()));
        name
    }

    /// Removes a device by name (container teardown).
    pub fn remove_device(&mut self, name: &str) -> bool {
        let before = self.devices.len();
        self.devices.retain(|d| d.name != name);
        self.devices.len() != before
    }

    /// One tick of background + workload-driven traffic.
    pub fn tick(&mut self, dt_ns: u64, syscall_rate: u64, rng: &mut StdRng) {
        let dt_s = dt_ns as f64 / NANOS_PER_SEC as f64;
        for d in &mut self.devices {
            let (rx_rate, tx_rate) = match d.name.as_str() {
                "lo" => (2_000.0, 2_000.0),
                "eth0" => (
                    60_000.0 + syscall_rate as f64 * 40.0,
                    45_000.0 + syscall_rate as f64 * 30.0,
                ),
                "eth1" => (8_000.0, 5_000.0),
                _ => (3_000.0 + syscall_rate as f64, 3_000.0 + syscall_rate as f64),
            };
            let jitter = 1.0 + rng.random_range(-0.15..0.15);
            let rx = (rx_rate * dt_s * jitter) as u64;
            let tx = (tx_rate * dt_s * jitter) as u64;
            d.rx_bytes += rx;
            d.tx_bytes += tx;
            d.rx_packets += rx / 900 + 1;
            d.tx_packets += tx / 900 + 1;
        }
    }

    /// Copies the per-device counters [`NetState::idle_eval`] reads into
    /// `anchor`, reusing its buffer.
    pub(crate) fn capture_idle(&self, anchor: &mut NetAnchor) {
        anchor.counters.clear();
        anchor.counters.extend(
            self.devices
                .iter()
                .map(|d| [d.rx_bytes, d.rx_packets, d.tx_bytes, d.tx_packets]),
        );
    }

    /// Jump-evaluates traffic counters to `rel_ns` past `anchor` with no
    /// workload syscalls.
    ///
    /// Mirrors [`NetState::tick`] at `syscall_rate == 0` with the jitter
    /// dropped; the per-tick `+1` packet keep-alive becomes one packet per
    /// idle second so the result is a closed form of `(anchor, rel_ns)`
    /// independent of step size.
    pub(crate) fn idle_eval(&mut self, anchor: &NetAnchor, rel_ns: u64) {
        let rel_s = rel_ns as f64 / NANOS_PER_SEC as f64;
        let secs = rel_ns / NANOS_PER_SEC;
        for (d, base) in self.devices.iter_mut().zip(anchor.counters.iter()) {
            let (rx_rate, tx_rate) = match d.name.as_str() {
                "lo" => (2_000.0, 2_000.0),
                "eth0" => (60_000.0, 45_000.0),
                "eth1" => (8_000.0, 5_000.0),
                _ => (3_000.0, 3_000.0),
            };
            let [rx_bytes, rx_packets, tx_bytes, tx_packets] = *base;
            let rx = (rx_rate * rel_s) as u64;
            let tx = (tx_rate * rel_s) as u64;
            d.rx_bytes = rx_bytes + rx;
            d.tx_bytes = tx_bytes + tx;
            d.rx_packets = rx_packets + rx / 900 + secs;
            d.tx_packets = tx_packets + tx / 900 + secs;
        }
    }
}

/// The per-device traffic counters a quiescent span evolves from, in
/// device order: rx bytes, rx packets, tx bytes, tx packets.
#[derive(Debug, Default)]
pub(crate) struct NetAnchor {
    counters: Vec<[u64; 4]>,
}

impl Default for NetState {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    // The reference quiescent evaluation: the closed form read from a
    // full clone of the device list, as the idle anchor held it before
    // the lean capture.
    impl NetState {
        pub(crate) fn idle_eval_reference(&mut self, anchor: &NetState, rel_ns: u64) {
            let rel_s = rel_ns as f64 / NANOS_PER_SEC as f64;
            let secs = rel_ns / NANOS_PER_SEC;
            for (d, base) in self.devices.iter_mut().zip(anchor.devices.iter()) {
                let (rx_rate, tx_rate) = match d.name.as_str() {
                    "lo" => (2_000.0, 2_000.0),
                    "eth0" => (60_000.0, 45_000.0),
                    "eth1" => (8_000.0, 5_000.0),
                    _ => (3_000.0, 3_000.0),
                };
                let rx = (rx_rate * rel_s) as u64;
                let tx = (tx_rate * rel_s) as u64;
                d.rx_bytes = base.rx_bytes + rx;
                d.tx_bytes = base.tx_bytes + tx;
                d.rx_packets = base.rx_packets + rx / 900 + secs;
                d.tx_packets = base.tx_packets + tx / 900 + secs;
            }
        }
    }

    #[test]
    fn initial_devices_present() {
        let n = NetState::new();
        let names: Vec<&str> = n.devices().iter().map(|d| d.name.as_str()).collect();
        assert!(names.contains(&"eth0"));
        assert!(names.contains(&"docker0"));
    }

    #[test]
    fn veth_names_are_unique_per_host() {
        let mut a = NetState::new();
        let mut b = NetState::new();
        let mut rng_a = StdRng::seed_from_u64(1);
        let mut rng_b = StdRng::seed_from_u64(2);
        let va = a.create_veth(&mut rng_a);
        let vb = b.create_veth(&mut rng_b);
        assert_ne!(va, vb);
        assert!(va.starts_with("veth"));
    }

    #[test]
    fn remove_device_works() {
        let mut n = NetState::new();
        let mut rng = StdRng::seed_from_u64(3);
        let v = n.create_veth(&mut rng);
        assert!(n.remove_device(&v));
        assert!(!n.remove_device(&v));
        assert!(!n.devices().iter().any(|d| d.name == v));
    }

    #[test]
    fn counters_grow_with_traffic() {
        let mut n = NetState::new();
        let mut rng = StdRng::seed_from_u64(4);
        n.tick(NANOS_PER_SEC, 10_000, &mut rng);
        let eth0 = n.devices().iter().find(|d| d.name == "eth0").unwrap();
        assert!(eth0.rx_bytes > 0);
        assert!(eth0.rx_packets > 0);
        let rx1 = eth0.rx_bytes;
        n.tick(NANOS_PER_SEC, 10_000, &mut rng);
        assert!(
            n.devices()
                .iter()
                .find(|d| d.name == "eth0")
                .unwrap()
                .rx_bytes
                > rx1
        );
    }
}
