//! Cloud inspection (Fig. 1 right side, producing Table I's matrix).
//!
//! For each provider profile, launch a probe instance, attempt to read
//! every Table I channel from inside it, and record the exposure:
//! `●` fully leaking, `◐` partially leaking (tenant-scoped output), `○`
//! masked or unavailable.

use cloudsim::{Cloud, CloudConfig, CloudProfile, InstanceSpec};
use serde::{Deserialize, Serialize};

use crate::channels::{Channel, TABLE1_CHANNELS};

/// Observed exposure of a channel on a cloud.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Exposure {
    /// `●` — the full host-global data is readable.
    Full,
    /// `◐` — readable but scoped to the tenant's allotment.
    Partial,
    /// `○` — masked or absent.
    Absent,
}

impl Exposure {
    /// The glyph used in the paper's table.
    pub fn glyph(&self) -> &'static str {
        match self {
            Exposure::Full => "●",
            Exposure::Partial => "◐",
            Exposure::Absent => "○",
        }
    }
}

/// One row of the regenerated Table I.
#[derive(Debug, Clone, Serialize)]
pub struct InspectionRow {
    /// The channel.
    pub channel: Channel,
    /// Exposure per inspected cloud, in input order.
    pub exposure: Vec<Exposure>,
}

/// The cloud inspector.
#[derive(Debug, Default)]
pub struct CloudInspector;

impl CloudInspector {
    /// Creates an inspector.
    pub fn new() -> Self {
        CloudInspector
    }

    /// Inspects one cloud profile: boots a single-host fleet, launches a
    /// probe instance, and measures every Table I channel.
    #[expect(
        clippy::expect_used,
        reason = "launches the probe into a fresh single-host cloud with guaranteed capacity"
    )]
    pub fn inspect_profile(&self, profile: CloudProfile, seed: u64) -> Vec<Exposure> {
        let mut cloud = Cloud::new(CloudConfig::new(profile).hosts(1), seed);
        let probe = cloud
            .launch("inspector", InstanceSpec::new("probe"))
            .expect("probe instance");
        cloud.advance_secs(2);
        TABLE1_CHANNELS
            .iter()
            .map(|ch| self.measure(&mut cloud, probe, ch))
            .collect()
    }

    #[expect(
        clippy::expect_used,
        reason = "resolves the probe instance it just launched into a fresh inspection cloud"
    )]
    fn measure(&self, cloud: &mut Cloud, probe: cloudsim::InstanceId, ch: &Channel) -> Exposure {
        match cloud.read_file(probe, ch.probe) {
            Err(_) => Exposure::Absent,
            Ok(content) => {
                // Distinguish full from partial by comparing with what the
                // host context sees for the same path.
                let inst = *cloud.instance(probe).expect("probe exists");
                let host = cloud.host(inst.host()).expect("host exists");
                match host.runtime().container(inst.container()) {
                    Some(_) => {
                        let host_view = pseudofs::View::host();
                        let host_content = pseudofs::PseudoFs::new()
                            .read(host.kernel(), &host_view, ch.probe)
                            .unwrap_or_default();
                        if content == host_content {
                            Exposure::Full
                        } else {
                            Exposure::Partial
                        }
                    }
                    None => Exposure::Absent,
                }
            }
        }
    }

    /// Regenerates the full Table I matrix over the five commercial
    /// profiles.
    pub fn table1(&self, seed: u64) -> Vec<InspectionRow> {
        let columns: Vec<Vec<Exposure>> = CloudProfile::COMMERCIAL
            .iter()
            .enumerate()
            .map(|(i, p)| self.inspect_profile(*p, seed + i as u64))
            .collect();
        TABLE1_CHANNELS
            .iter()
            .enumerate()
            .map(|(row, ch)| InspectionRow {
                channel: ch.clone(),
                exposure: columns.iter().map(|col| col[row]).collect(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find<'a>(rows: &'a [InspectionRow], glob: &str) -> &'a InspectionRow {
        rows.iter()
            .find(|r| r.channel.glob == glob)
            .unwrap_or_else(|| panic!("missing row {glob}"))
    }

    #[test]
    fn matrix_matches_profile_expectations() {
        let rows = CloudInspector::new().table1(11);
        assert_eq!(rows.len(), TABLE1_CHANNELS.len());
        for row in &rows {
            for (cc, exp) in CloudProfile::COMMERCIAL.iter().zip(&row.exposure) {
                let expected = cc.expected_exposure(row.channel.glob);
                let got = match exp {
                    Exposure::Full => Some(true),
                    Exposure::Absent => Some(false),
                    Exposure::Partial => None,
                };
                assert_eq!(
                    got, expected,
                    "{} on {cc:?}: observed {exp:?}",
                    row.channel.glob
                );
            }
        }
    }

    #[test]
    fn signature_rows_from_the_paper() {
        let rows = CloudInspector::new().table1(12);
        // timer_list: ● ● ● ○ ●
        let tl = find(&rows, "/proc/timer_list");
        let glyphs: Vec<&str> = tl.exposure.iter().map(|e| e.glyph()).collect();
        assert_eq!(glyphs, vec!["●", "●", "●", "○", "●"]);
        // cpuinfo: ● ● ● ● ◐
        let ci = find(&rows, "/proc/cpuinfo");
        let glyphs: Vec<&str> = ci.exposure.iter().map(|e| e.glyph()).collect();
        assert_eq!(glyphs, vec!["●", "●", "●", "●", "◐"]);
        // modules open everywhere.
        let m = find(&rows, "/proc/modules");
        assert!(m.exposure.iter().all(|e| *e == Exposure::Full));
    }
}
