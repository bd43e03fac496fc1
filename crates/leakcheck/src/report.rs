//! Report structures: the machine-readable (JSON) and human (table)
//! renderings of an audit, plus the snapshot diff used by `--check`.

use serde::Serialize;

use crate::classify::Facts;
use crate::determinism::Hazard;

/// One channel's audit row.
#[derive(Debug, Clone, Serialize)]
pub struct ChannelReport {
    /// The route's path glob (e.g. `/proc/*/status`).
    pub pattern: String,
    /// Handler as `module::function`.
    pub handler: String,
    /// Verdict string (`view-routed`, `masked-only`, `namespace-blind`,
    /// `namespace-blind-mixed`, `static`).
    pub verdict: String,
    /// Namespace markers supporting the verdict.
    pub ns_markers: Vec<String>,
    /// Host-global reads reaching the output.
    pub globals: Vec<String>,
    /// Neutral-when-routed kernel reads.
    pub neutral: Vec<String>,
    /// Masking-policy consultations.
    pub mask_markers: Vec<String>,
    /// Dirty-epoch subsystems the route declares (its dependency mask,
    /// as subsystem names).
    pub deps: Vec<String>,
}

impl ChannelReport {
    /// Builds a row from a route and its handler's facts.
    pub fn new(pattern: &str, handler: &str, f: &Facts, deps: Vec<String>) -> Self {
        ChannelReport {
            pattern: pattern.to_string(),
            handler: handler.to_string(),
            verdict: f.verdict().to_string(),
            ns_markers: f.ns_markers.iter().cloned().collect(),
            globals: f.globals.iter().cloned().collect(),
            neutral: f.neutral.iter().cloned().collect(),
            mask_markers: f.mask_markers.iter().cloned().collect(),
            deps,
        }
    }
}

/// One channel's interprocedural flow row — a line of the static
/// Table I analogue.
#[derive(Debug, Clone, Serialize)]
pub struct FlowRow {
    /// The route's path glob (or `(list)` for the listing path).
    pub pattern: String,
    /// Handler as `module::function`.
    pub handler: String,
    /// The channel's classification verdict.
    pub verdict: String,
    /// Derived dependency mask: every subsystem whose state can reach
    /// the rendered bytes, as subsystem names.
    pub derived: Vec<String>,
    /// Host-global subsystems flowing to the output unrouted by
    /// namespaces — what the channel leaks to a container reader.
    pub hot: Vec<String>,
    /// The registry's declared dependency mask, as subsystem names.
    pub declared: Vec<String>,
}

/// A derived-vs-declared mask divergence, as reported.
#[derive(Debug, Clone, Serialize)]
pub struct MaskFindingReport {
    /// The route's path pattern.
    pub pattern: String,
    /// Handler as `module::function`.
    pub handler: String,
    /// The diverging subsystems, as names.
    pub bits: Vec<String>,
    /// For extra-bit findings: the allowlist reason, if reviewed.
    pub allowed: Option<String>,
}

/// The channel×subsystem information-flow matrix plus the
/// derived-vs-declared mask findings.
#[derive(Debug, Clone, Serialize)]
pub struct FlowReport {
    /// Column order: the 12 subsystem names in dirty-epoch bit order.
    pub subsystems: Vec<String>,
    /// One row per registered channel (registry order), listing row
    /// last.
    pub rows: Vec<FlowRow>,
    /// Declared masks missing a derived bit: missing-dependency-bit
    /// findings. The `leakcheck` bin exits non-zero on any.
    pub missing: Vec<MaskFindingReport>,
    /// Declared masks carrying bits the flow cannot derive: needless
    /// re-reads for epoch-sum consumers, warned unless allowlisted.
    pub extra: Vec<MaskFindingReport>,
}

/// The full audit: one row per registered channel plus determinism
/// findings across the workspace's simulation crates.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// Channel classifications, in registry order.
    pub channels: Vec<ChannelReport>,
    /// The interprocedural flow matrix and mask findings.
    pub flow: FlowReport,
    /// Determinism findings, in file-walk order (sorted by file, line).
    pub hazards: Vec<Hazard>,
}

impl Report {
    /// Pretty-printed JSON, the `leakcheck.json` snapshot format.
    #[expect(
        clippy::expect_used,
        reason = "the report is plain strings, bools and vectors; serde_json serialization of \
            such values cannot fail"
    )]
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("report serializes");
        s.push('\n');
        s
    }

    /// Human-readable summary table.
    pub fn human_table(&self) -> String {
        let mut out = String::new();
        let wide = self
            .channels
            .iter()
            .map(|c| c.pattern.len())
            .max()
            .unwrap_or(8);
        out.push_str(&format!(
            "{:w$}  {:22}  verdict\n",
            "channel",
            "handler",
            w = wide
        ));
        for c in &self.channels {
            let why = if !c.ns_markers.is_empty() && c.verdict != "view-routed" {
                format!("  [globals: {}]", c.globals.join(", "))
            } else if c.verdict == "namespace-blind" {
                format!(
                    "  [{}]",
                    c.globals
                        .iter()
                        .chain(c.neutral.iter())
                        .cloned()
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            } else {
                String::new()
            };
            out.push_str(&format!(
                "{:w$}  {:22}  {}{}\n",
                c.pattern,
                c.handler,
                c.verdict,
                why,
                w = wide
            ));
        }
        let mut tally: std::collections::BTreeMap<&str, usize> = Default::default();
        for c in &self.channels {
            *tally.entry(c.verdict.as_str()).or_insert(0) += 1;
        }
        out.push('\n');
        for (v, n) in &tally {
            out.push_str(&format!("  {n:3}  {v}\n"));
        }
        out.push('\n');
        out.push_str(&self.flow_matrix());
        out.push('\n');
        if self.hazards.is_empty() {
            out.push_str("determinism: no hazards\n");
        } else {
            for h in &self.hazards {
                out.push_str(&format!(
                    "determinism [HAZARD] {}::{}: {}\n",
                    h.file, h.function, h.detail
                ));
            }
        }
        out
    }

    /// The channel×subsystem flow matrix (static Table I analogue).
    ///
    /// `●` — host-global state flows to the output unrouted (a leak a
    /// container reader observes); `◐` — state reaches the output only
    /// through view-routed or view-keyed reads; `·` — no flow. Every
    /// non-`·` column is a subsystem whose mutation must advance one of
    /// the channel's declared epochs.
    pub fn flow_matrix(&self) -> String {
        const ABBR: &[&str] = &[
            "clk", "sch", "hw", "irq", "mem", "fs", "net", "tmr", "prc", "cgr", "ns", "sta",
        ];
        let wide = self
            .flow
            .rows
            .iter()
            .map(|r| r.pattern.len())
            .max()
            .unwrap_or(8);
        let mut out = String::new();
        out.push_str("flow matrix (● unrouted host-global, ◐ view-routed, · none):\n");
        out.push_str(&format!("{:w$} ", "channel", w = wide));
        for a in ABBR.iter().take(self.flow.subsystems.len()) {
            out.push_str(&format!(" {a:>3}"));
        }
        out.push('\n');
        for r in &self.flow.rows {
            out.push_str(&format!("{:w$} ", r.pattern, w = wide));
            for s in &self.flow.subsystems {
                let cell = if r.hot.contains(s) {
                    '●'
                } else if r.derived.contains(s) {
                    '◐'
                } else {
                    '·'
                };
                out.push_str(&format!("   {cell}"));
            }
            out.push('\n');
        }
        for m in &self.flow.missing {
            out.push_str(&format!(
                "MASK MISSING {} ({}): derived bits [{}] absent from declared deps\n",
                m.pattern,
                m.handler,
                m.bits.join(", ")
            ));
        }
        for x in &self.flow.extra {
            match &x.allowed {
                Some(reason) => out.push_str(&format!(
                    "mask extra (allowed) {}: [{}] — {reason}\n",
                    x.pattern,
                    x.bits.join(", ")
                )),
                None => out.push_str(&format!(
                    "mask extra {} ({}): declared bits [{}] not derivable (needless re-reads)\n",
                    x.pattern,
                    x.handler,
                    x.bits.join(", ")
                )),
            }
        }
        out
    }
}

/// Line-level diff of the committed snapshot against a fresh report.
/// Returns an empty vector when they match byte-for-byte.
///
/// Pure index pairing floods the output after one inserted line, so the
/// diff resyncs: at a mismatch it looks ahead a window on both sides
/// for the nearest re-alignment and reports the skipped lines as
/// `-N: …` (snapshot-only) / `+N: …` (fresh-only) before continuing.
pub fn diff_lines(expected: &str, actual: &str) -> Vec<String> {
    if expected == actual {
        return Vec::new();
    }
    const LOOKAHEAD: usize = 64;
    const CAP: usize = 40;
    let e: Vec<&str> = expected.lines().collect();
    let a: Vec<&str> = actual.lines().collect();
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < e.len() || j < a.len() {
        if out.len() >= CAP {
            out.push("… (more differences elided)".to_string());
            return out;
        }
        match (e.get(i), a.get(j)) {
            (Some(le), Some(la)) if le == la => {
                i += 1;
                j += 1;
            }
            (Some(le), Some(la)) => {
                let ins = a[j..].iter().take(LOOKAHEAD).position(|l| l == le);
                let del = e[i..].iter().take(LOOKAHEAD).position(|l| l == la);
                match (ins, del) {
                    // Prefer the shorter resync; ties read as insertion.
                    (Some(n), d) if d.is_none_or(|d| n <= d) => {
                        for (o, l) in a[j..j + n].iter().enumerate() {
                            out.push(format!("+{}: {l}", j + o + 1));
                        }
                        j += n;
                    }
                    (_, Some(n)) => {
                        for (o, l) in e[i..i + n].iter().enumerate() {
                            out.push(format!("-{}: {l}", i + o + 1));
                        }
                        i += n;
                    }
                    _ => {
                        out.push(format!("-{}: {le}", i + 1));
                        out.push(format!("+{}: {la}", j + 1));
                        i += 1;
                        j += 1;
                    }
                }
            }
            (Some(le), None) => {
                out.push(format!("-{}: {le}", i + 1));
                i += 1;
            }
            (None, Some(la)) => {
                out.push(format!("+{}: {la}", j + 1));
                j += 1;
            }
            (None, None) => break,
        }
    }
    if out.is_empty() {
        out.push("snapshots differ only in trailing bytes (newline at end of file?)".to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts() -> Facts {
        let mut facts = Facts::default();
        facts.globals.insert("k.net()".to_string());
        facts.ns_markers.insert("view.context".to_string());
        facts
    }

    fn flow() -> FlowReport {
        FlowReport {
            subsystems: vec!["clock".to_string(), "net".to_string()],
            rows: vec![FlowRow {
                pattern: "/proc/x".to_string(),
                handler: "m::f".to_string(),
                verdict: "namespace-blind-mixed".to_string(),
                derived: vec!["clock".to_string(), "net".to_string()],
                hot: vec!["net".to_string()],
                declared: vec!["clock".to_string(), "net".to_string()],
            }],
            missing: Vec::new(),
            extra: Vec::new(),
        }
    }

    #[test]
    fn json_round_trips_the_verdict_string() {
        let r = Report {
            channels: vec![ChannelReport::new(
                "/sys/fs/cgroup/net_prio/net_prio.ifpriomap",
                "sys_cgroup::ifpriomap",
                &facts(),
                vec!["net".to_string(), "cgroup".to_string()],
            )],
            flow: flow(),
            hazards: Vec::new(),
        };
        let j = r.to_json();
        assert!(j.contains("\"namespace-blind-mixed\""), "{j}");
        assert!(j.contains("\"k.net()\""));
        assert!(j.contains("\"deps\""));
        assert!(j.contains("\"subsystems\""));
        assert!(j.contains("\"hot\""));
        assert!(j.ends_with('\n'));
    }

    #[test]
    fn diff_reports_changed_lines_only() {
        assert!(diff_lines("a\nb\n", "a\nb\n").is_empty());
        let d = diff_lines("a\nb\n", "a\nc\n");
        assert_eq!(d, ["-2: b", "+2: c"]);
    }

    #[test]
    fn diff_resyncs_after_an_insertion() {
        // One inserted line must produce one `+` entry, not flood every
        // subsequent line as changed.
        let d = diff_lines("a\nb\nc\nd\n", "a\nX\nb\nc\nd\n");
        assert_eq!(d, ["+2: X"]);
        let d = diff_lines("a\nb\nc\nd\n", "a\nc\nd\n");
        assert_eq!(d, ["-2: b"]);
    }

    #[test]
    fn diff_flags_trailing_byte_only_changes() {
        let d = diff_lines("a\nb\n", "a\nb");
        assert_eq!(d.len(), 1);
        assert!(d[0].contains("trailing bytes"), "{d:?}");
    }

    #[test]
    fn human_table_tallies_verdicts() {
        let r = Report {
            channels: vec![ChannelReport::new("/proc/x", "m::f", &facts(), Vec::new())],
            flow: flow(),
            hazards: Vec::new(),
        };
        let t = r.human_table();
        assert!(t.contains("namespace-blind-mixed"));
        assert!(t.contains("  1  namespace-blind-mixed"));
    }

    #[test]
    fn flow_matrix_marks_hot_and_routed_cells() {
        let r = Report {
            channels: Vec::new(),
            flow: flow(),
            hazards: Vec::new(),
        };
        let m = r.flow_matrix();
        // clock is derived-but-routed (◐), net flows unrouted (●).
        assert!(m.contains("◐   ●"), "{m}");
        assert!(!m.contains("MASK MISSING"));
    }

    #[test]
    fn flow_matrix_reports_mask_findings() {
        let mut f = flow();
        f.missing.push(MaskFindingReport {
            pattern: "/proc/x".to_string(),
            handler: "m::f".to_string(),
            bits: vec!["mem".to_string()],
            allowed: None,
        });
        f.extra.push(MaskFindingReport {
            pattern: "/proc/y".to_string(),
            handler: "m::g".to_string(),
            bits: vec!["irq".to_string()],
            allowed: Some("reviewed".to_string()),
        });
        let r = Report {
            channels: Vec::new(),
            flow: f,
            hazards: Vec::new(),
        };
        let m = r.flow_matrix();
        assert!(m.contains("MASK MISSING /proc/x"), "{m}");
        assert!(m.contains("mask extra (allowed) /proc/y"), "{m}");
    }
}
