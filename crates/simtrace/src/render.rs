//! Renders collected trace state as JSONL and as a human summary.
//!
//! The JSONL artifact is what two runs are byte-compared by, so
//! everything here is hand-rolled and stable: sorted scopes,
//! integer-only numbers, a fixed key order per line type, and `\n` line
//! endings.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::counter_store;
use crate::profile_store;
use crate::sink::TimedEvent;

/// Escapes a string for embedding in a JSON double-quoted literal.
fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Renders the full trace artifact: one meta line, every event from
/// every scope (scopes in sorted order, events in program order), then
/// the counter snapshot and the sim-time profile table.
pub fn render_jsonl(seed: u64, scopes: &BTreeMap<String, Vec<TimedEvent>>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{\"type\":\"meta\",\"format\":1,\"seed\":{seed}}}");

    let mut data = String::new();
    for (scope, events) in scopes {
        for ev in events {
            data.clear();
            ev.event.render_data(&mut data);
            out.push_str("{\"type\":\"event\",\"scope\":\"");
            escape_json(scope, &mut out);
            let _ = write!(
                out,
                "\",\"seq\":{},\"t_ns\":{},\"kind\":\"{}\",\"group\":\"{}\",\"data\":\"",
                ev.seq,
                ev.t_ns,
                ev.event.kind(),
                ev.event.group().label()
            );
            escape_json(&data, &mut out);
            out.push_str("\"}\n");
        }
    }

    for entry in counter_store::snapshot() {
        out.push_str("{\"type\":\"counter\",\"name\":\"");
        escape_json(&entry.name, &mut out);
        let _ = writeln!(
            out,
            "\",\"value\":{},\"group\":\"{}\"}}",
            entry.value,
            entry.group.label()
        );
    }

    for row in profile_store::snapshot() {
        let _ = writeln!(
            out,
            "{{\"type\":\"profile\",\"phase\":\"{}\",\"sim_ns\":{},\"events\":{}}}",
            row.phase, row.sim_ns, row.events
        );
    }

    out
}

/// Renders the human-readable summary: the counter table and the
/// sim-time self-profile, for `--counters`.
pub fn render_summary() -> String {
    let mut out = String::new();
    let counters = counter_store::snapshot();
    let _ = writeln!(out, "== counters ({} total) ==", counters.len());
    let _ = writeln!(out, "{:<52} {:>12}  group", "counter", "value");
    for entry in &counters {
        let _ = writeln!(
            out,
            "{:<52} {:>12}  {}",
            entry.name,
            entry.value,
            entry.group.label()
        );
    }

    let profile = profile_store::snapshot();
    let _ = writeln!(out, "\n== sim-time profile ==");
    let _ = writeln!(out, "{:<10} {:>18} {:>12}", "phase", "sim_ns", "events");
    for row in &profile {
        let _ = writeln!(
            out,
            "{:<10} {:>18} {:>12}",
            row.phase, row.sim_ns, row.events
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    #[test]
    fn escaping_covers_quotes_and_control_chars() {
        let mut s = String::new();
        escape_json("a\"b\\c\nd\u{1}", &mut s);
        assert_eq!(s, "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn jsonl_has_meta_first_and_one_line_per_event() {
        let mut scopes = BTreeMap::new();
        scopes.insert(
            "fig4/k000".to_string(),
            vec![TimedEvent {
                t_ns: 42,
                seq: 0,
                event: TraceEvent::PseudofsRead {
                    path: "/proc/stat".into(),
                    bytes: 7,
                },
            }],
        );
        let text = render_jsonl(99, &scopes);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "{\"type\":\"meta\",\"format\":1,\"seed\":99}");
        assert_eq!(
            lines[1],
            "{\"type\":\"event\",\"scope\":\"fig4/k000\",\"seq\":0,\"t_ns\":42,\
             \"kind\":\"pseudofs_read\",\"group\":\"portable\",\
             \"data\":\"path=/proc/stat bytes=7\"}"
        );
    }
}
