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
    /// Its traffic rates, classified from the name once, at creation.
    class: RateClass,
}

impl NetDevice {
    fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        NetDevice {
            class: RateClass::of(&name),
            name,
            rx_bytes: 0,
            rx_packets: 0,
            tx_bytes: 0,
            tx_packets: 0,
        }
    }
}

/// How much background traffic a device carries, by its name: the
/// loopback, the uplink `eth0` (which also carries the workload's
/// traffic), the second NIC `eth1`, and every other device (the bridge
/// and the container veths).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum RateClass {
    Loopback,
    Uplink,
    Secondary,
    Other,
}

impl RateClass {
    fn of(name: &str) -> Self {
        match name {
            "lo" => RateClass::Loopback,
            "eth0" => RateClass::Uplink,
            "eth1" => RateClass::Secondary,
            _ => RateClass::Other,
        }
    }

    /// Receive and transmit bytes per second at `syscall_rate` workload
    /// syscalls per second (0 on a quiescent host).
    fn rates(self, syscall_rate: u64) -> (f64, f64) {
        let s = syscall_rate as f64;
        match self {
            RateClass::Loopback => (2_000.0, 2_000.0),
            RateClass::Uplink => (60_000.0 + s * 40.0, 45_000.0 + s * 30.0),
            RateClass::Secondary => (8_000.0, 5_000.0),
            RateClass::Other => (3_000.0 + s, 3_000.0 + s),
        }
    }

    /// The (bytes, packets) received and transmitted over `rel_ns` of a
    /// quiescent span: one keep-alive packet per idle second besides the
    /// traffic's own.
    fn idle_traffic(self, rel_ns: u64) -> ([u64; 2], [u64; 2]) {
        let rel_s = rel_ns as f64 / NANOS_PER_SEC as f64;
        let secs = rel_ns / NANOS_PER_SEC;
        let (rx_rate, tx_rate) = self.rates(0);
        let rx = (rx_rate * rel_s) as u64;
        let tx = (tx_rate * rel_s) as u64;
        ([rx, rx / 900 + secs], [tx, tx / 900 + secs])
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
            let (rx_rate, tx_rate) = d.class.rates(syscall_rate);
            let jitter = 1.0 + rng.random_range(-0.15..0.15);
            let rx = (rx_rate * dt_s * jitter) as u64;
            let tx = (tx_rate * dt_s * jitter) as u64;
            d.rx_bytes += rx;
            d.tx_bytes += tx;
            d.rx_packets += rx / 900 + 1;
            d.tx_packets += tx / 900 + 1;
        }
    }

    /// Jump-evaluates traffic counters to `rel_ns` past the start of a
    /// quiescent span with no workload syscalls.
    ///
    /// Mirrors [`NetState::tick`] at `syscall_rate == 0` with the jitter
    /// dropped; the per-tick `+1` packet keep-alive becomes one packet per
    /// idle second so the result is a closed form of (the counters at the
    /// span's start, `rel_ns`) independent of step size. The counters are
    /// integers only this evaluation moves while the span lasts, so each
    /// holds its value at the start plus the traffic of the `applied_ns`
    /// already evaluated; that is taken off before `rel_ns`'s goes on, and
    /// no copy of the start values is kept.
    pub(crate) fn idle_eval(&mut self, applied_ns: u64, rel_ns: u64) {
        for d in &mut self.devices {
            let (rx, tx) = d.class.idle_traffic(rel_ns);
            let (rx_applied, tx_applied) = d.class.idle_traffic(applied_ns);
            d.rx_bytes = d.rx_bytes - rx_applied[0] + rx[0];
            d.rx_packets = d.rx_packets - rx_applied[1] + rx[1];
            d.tx_bytes = d.tx_bytes - tx_applied[0] + tx[0];
            d.tx_packets = d.tx_packets - tx_applied[1] + tx[1];
        }
    }
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

    // The reference tick: each device's rates matched from its name on
    // every tick, as before devices carried their class; and the reference
    // quiescent evaluation: the closed form read from a full clone of the
    // device list, as the idle anchor held it before the lean capture,
    // matching names too.
    impl NetState {
        pub(crate) fn tick_reference(&mut self, dt_ns: u64, syscall_rate: u64, rng: &mut StdRng) {
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
    fn classified_rates_leave_the_name_matched_bytes() {
        // Every class, veths included, ticked at several loads and then
        // jumped idle, against the name-matching reference.
        let mut rng = StdRng::seed_from_u64(9);
        let mut fast = NetState::new();
        for _ in 0..3 {
            fast.create_veth(&mut rng);
        }
        let mut plain = fast.clone();
        let (mut rf, mut rp) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
        for (i, rate) in [0u64, 7, 40_000, 123_456].into_iter().enumerate() {
            let dt = (i as u64 + 1) * 700_000_000;
            fast.tick(dt, rate, &mut rf);
            plain.tick_reference(dt, rate, &mut rp);
            assert_eq!(fast.devices(), plain.devices(), "tick at {rate} syscalls/s");
        }
        let base = plain.clone();
        let mut applied = 0;
        for rel_ns in [1, 999_999_999, 3_600 * NANOS_PER_SEC + 17] {
            fast.idle_eval(applied, rel_ns);
            applied = rel_ns;
            plain.idle_eval_reference(&base, rel_ns);
            assert_eq!(fast.devices(), plain.devices(), "idle at {rel_ns} ns");
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
