//! Cross-crate integration: the paper's full story on one fleet —
//! discover the leaks, exploit them for co-residence and power attacks,
//! then deploy the defense and watch the exploit die.

use containerleaks::cloudsim::{
    Cloud, CloudConfig, CloudProfile, HostId, InstanceSpec, PlacementPolicy,
};
use containerleaks::container_runtime::{ContainerSpec, Runtime};
use containerleaks::leakscan::{ChannelClass, CoResDetector, CrossValidator, DetectorKind, Lab};
use containerleaks::powerns::Trainer;
use containerleaks::powersim::{
    AttackCampaign, AttackStrategy, DiurnalTrace, Orchestrator, RaplMonitor,
};
use containerleaks::simkernel::{Kernel, MachineConfig};
use containerleaks::workloads::models;

#[test]
fn discover_exploit_defend() {
    // ---- Act 1: discovery on a local testbed. ----
    let lab = Lab::new(1, 90_001);
    let host = lab.host(0);
    let findings = CrossValidator::new().scan(&host.kernel, &host.container_view());
    let leaks: Vec<&str> = findings
        .iter()
        .filter(|f| f.class == ChannelClass::Leaking)
        .map(|f| f.path.as_str())
        .collect();
    assert!(leaks.contains(&"/sys/class/powercap/intel-rapl:0/energy_uj"));
    assert!(leaks.contains(&"/proc/timer_list"));
    assert!(leaks.len() >= 21, "found only {} leaks", leaks.len());

    // ---- Act 2: exploitation in a cloud. ----
    let mut cloud = Cloud::new(
        CloudConfig::new(CloudProfile::CC1)
            .hosts(3)
            .placement(PlacementPolicy::Random),
        90_002,
    );
    cloud.advance_secs(2);
    // 2a. Aggregate co-resident containers via timer_list.
    let mut orch = Orchestrator::new();
    let agg = orch
        .aggregate(&mut cloud, "attacker", 2, 40)
        .expect("aggregation");
    assert_eq!(agg.kept.len(), 2);
    assert_eq!(cloud.coresident(agg.kept[0], agg.kept[1]), Some(true));
    // 2b. Monitor co-resident tenants through RAPL with ~zero CPU cost.
    let mut monitor = RaplMonitor::new();
    let observer = agg.kept[0];
    let _ = monitor
        .sample_watts(&mut cloud, observer, 0.0)
        .expect("rapl readable");
    let victim_host = cloud.instance(observer).expect("observer").host();
    cloud.set_background_demand(victim_host, 0.05);
    cloud.advance_secs(10);
    let calm = monitor
        .sample_watts(&mut cloud, observer, 10.0)
        .expect("rapl readable")
        .expect("warm");
    cloud.set_background_demand(victim_host, 0.85);
    cloud.advance_secs(10);
    let busy = monitor
        .sample_watts(&mut cloud, observer, 20.0)
        .expect("rapl readable")
        .expect("warm");
    assert!(busy > calm + 10.0, "attacker blind: {calm} -> {busy}");
    assert!(
        cloud.bill("attacker").vcpu_seconds < 25.0,
        "monitoring must be cheap"
    );

    // ---- Act 3: the defense closes the oracle. ----
    let model = Trainer::new(90_003).train();
    let mut k = Kernel::new(MachineConfig::testbed_i7_6700(), 90_004).power_namespace(model);
    let mut rt = Runtime::new();
    let spy = rt.create(&mut k, ContainerSpec::new("spy")).expect("spy");
    rt.exec(&mut k, spy, "monitor", models::sleeper())
        .expect("spy process");
    let victim = rt
        .create(&mut k, ContainerSpec::new("victim"))
        .expect("victim");
    k.advance_secs(5);
    let read_spy = |k: &Kernel, rt: &Runtime| -> u64 {
        rt.read_file(k, spy, "/sys/class/powercap/intel-rapl:0/energy_uj")
            .expect("defended read")
            .trim()
            .parse()
            .expect("number")
    };
    let s0 = read_spy(&k, &rt);
    k.advance_secs(10);
    let idle_rate = (read_spy(&k, &rt) - s0) / 10;
    let host0 = k.rapl().raw_totals().package_uj;
    for i in 0..4 {
        rt.exec(&mut k, victim, &format!("p{i}"), models::prime())
            .expect("victim load");
    }
    let s1 = read_spy(&k, &rt);
    k.advance_secs(10);
    let loaded_rate = (read_spy(&k, &rt) - s1) / 10;
    let host_rate = (k.rapl().raw_totals().package_uj - host0) / 10.0;

    // Host power visibly surged; the spy's view did not.
    assert!(
        host_rate > idle_rate as f64 + 10e6,
        "victim load invisible to ground truth"
    );
    let drift = (loaded_rate as f64 - idle_rate as f64).abs();
    assert!(
        drift < idle_rate as f64 * 0.15,
        "defense leaked the surge: {idle_rate} -> {loaded_rate}"
    );
}

#[test]
fn masked_clouds_stop_the_rapl_monitor_but_not_cc1() {
    for (profile, expect_readable) in [
        (CloudProfile::CC1, true),
        (CloudProfile::CC2, true),
        (CloudProfile::CC3, true),
        (CloudProfile::CC4, false),
        (CloudProfile::CC5, false),
    ] {
        let mut cloud = Cloud::new(CloudConfig::new(profile).hosts(1), 90_005);
        let inst = cloud
            .launch("t", InstanceSpec::new("probe"))
            .expect("launch");
        cloud.advance_secs(1);
        let mut monitor = RaplMonitor::new();
        let ok = monitor.sample_watts(&mut cloud, inst, 1.0).is_ok();
        assert_eq!(ok, expect_readable, "{profile:?}");
    }
}

#[test]
fn detector_accuracy_is_perfect_across_strategies_on_cc1() {
    let mut cloud = Cloud::new(
        CloudConfig::new(CloudProfile::CC1)
            .hosts(2)
            .placement(PlacementPolicy::BinPack),
        90_006,
    );
    let ids: Vec<_> = (0..6)
        .map(|i| {
            cloud
                .launch("t", InstanceSpec::new(format!("i{i}")))
                .expect("launch")
        })
        .collect();
    for id in &ids {
        cloud
            .exec(*id, "anchor", models::sleeper())
            .expect("anchor");
    }
    cloud.advance_secs(2);
    for kind in [
        DetectorKind::BootId,
        DetectorKind::TimerSignature,
        DetectorKind::UptimeDelta,
    ] {
        let mut d = CoResDetector::new(kind);
        let (correct, total) = d.evaluate_accuracy(&mut cloud, &ids).expect("evaluate");
        assert_eq!(correct, total, "{kind:?} misclassified pairs");
    }
}

#[test]
fn synergistic_attack_dies_on_a_rapl_masked_cloud() {
    // Deploying against CC4 (powercap masked): the synergistic campaign
    // cannot even establish its monitor.
    let mut cloud = Cloud::new(CloudConfig::new(CloudProfile::CC4).hosts(2), 90_007);
    cloud.advance_secs(2);
    let mut campaign = AttackCampaign::deploy(
        &mut cloud,
        AttackStrategy::Synergistic {
            threshold_w: 100.0,
            burst_s: 60,
            cooldown_s: 60,
        },
        1,
        "attacker",
    )
    .expect("deploy");
    let mut trace = DiurnalTrace::flat(0.2, 90_007);
    let result = campaign.run(&mut cloud, &mut trace, 0, 30, None);
    assert!(result.is_err(), "masked cloud should blind the campaign");
}

#[test]
fn host_power_sums_match_between_views() {
    // The wall power powersim reports is consistent with what a tenant
    // derives from the RAPL channel plus the platform overhead.
    let mut cloud = Cloud::new(CloudConfig::new(CloudProfile::CC1).hosts(1), 90_008);
    let inst = cloud
        .launch("t", InstanceSpec::new("probe").vcpus(1))
        .expect("launch");
    let mut monitor = RaplMonitor::new();
    let _ = monitor
        .sample_watts(&mut cloud, inst, 0.0)
        .expect("readable");
    cloud.advance_secs(30);
    let pkg_w = monitor
        .sample_watts(&mut cloud, inst, 30.0)
        .expect("readable")
        .expect("warm");
    let wall_w = cloud.host_power_w(HostId(0));
    assert!(wall_w > pkg_w, "wall includes platform + PSU loss");
    assert!(wall_w < pkg_w + 100.0, "platform overhead bounded");
}
