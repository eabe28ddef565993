//! Chrome `trace_event` JSON serialization.
//!
//! One event per line, hand-formatted (no serde in this workspace), so
//! traces diff cleanly and golden files stay reviewable. The mapping:
//!
//! | [`EventKind`]          | Chrome `ph`        |
//! |------------------------|--------------------|
//! | `Span`                 | `X` (complete)     |
//! | `Async`                | `b` + `e` pair     |
//! | `Instant`              | `i` (thread scope) |
//! | `Counter`              | `C`                |
//!
//! Tracks map to `pid` (category) / `tid` (index); metadata
//! `process_name` / `thread_name` events are emitted first, derived from
//! the sorted set of tracks actually present, so output depends only on
//! the event list. Timestamps are simulated cycles (the viewer will call
//! them microseconds; ignore the unit).

use crate::event::{EventKind, TraceEvent, Track};
use crate::json::quote;

/// Serializes events to a Chrome `trace_event` "JSON object format"
/// document. Deterministic: byte-identical for identical event lists.
#[must_use]
pub fn to_chrome_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 256);
    out.push_str("{\"schema\":\"tta-trace-v1\",\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");

    // Metadata rows from the sorted distinct track set.
    let mut tracks: Vec<Track> = events.iter().map(|e| e.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    let mut first = true;
    let mut last_pid = u32::MAX;
    for t in &tracks {
        let (pid, tid) = (t.category_id(), t.index());
        if pid != last_pid {
            last_pid = pid;
            push_line(&mut out, &mut first, &format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":{}}}}}",
                quote(t.category())
            ));
        }
        push_line(&mut out, &mut first, &format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":{}}}}}",
            quote(&format!("{} {tid}", t.category()))
        ));
    }

    for ev in events {
        let (pid, tid) = (ev.track.category_id(), ev.track.index());
        let cat = quote(ev.track.category());
        let ts = ev.cycle;
        let line = match ev.kind {
            EventKind::Span { name, end, arg } => format!(
                "{{\"name\":{},\"cat\":{cat},\"ph\":\"X\",\"ts\":{ts},\"dur\":{},\"pid\":{pid},\"tid\":{tid},\"args\":{{\"arg\":{arg}}}}}",
                quote(name),
                end - ts
            ),
            EventKind::Async { name, id, end, arg } => {
                let name = quote(name);
                format!(
                    "{{\"name\":{name},\"cat\":{cat},\"ph\":\"b\",\"id\":{id},\"ts\":{ts},\"pid\":{pid},\"tid\":{tid},\"args\":{{\"arg\":{arg}}}}},\n{{\"name\":{name},\"cat\":{cat},\"ph\":\"e\",\"id\":{id},\"ts\":{end},\"pid\":{pid},\"tid\":{tid},\"args\":{{}}}}"
                )
            }
            EventKind::Instant { name, arg } => format!(
                "{{\"name\":{},\"cat\":{cat},\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid},\"args\":{{\"arg\":{arg}}}}}",
                quote(name)
            ),
            EventKind::Counter { bucket, cycles } => format!(
                "{{\"name\":\"attribution\",\"cat\":{cat},\"ph\":\"C\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid},\"args\":{{{}:{cycles}}}}}",
                quote(bucket.name())
            ),
        };
        push_line(&mut out, &mut first, &line);
    }
    out.push_str("\n]}\n");
    out
}

fn push_line(out: &mut String, first: &mut bool, line: &str) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    out.push_str(line);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Bucket;

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                track: Track::Sm(0),
                cycle: 3,
                kind: EventKind::Instant {
                    name: "issue_alu",
                    arg: 32,
                },
            },
            TraceEvent {
                track: Track::Accel(0),
                cycle: 10,
                kind: EventKind::Span {
                    name: "busy",
                    end: 25,
                    arg: 0,
                },
            },
            TraceEvent {
                track: Track::Mem(0),
                cycle: 5,
                kind: EventKind::Async {
                    name: "read_miss",
                    id: 7,
                    end: 160,
                    arg: 128,
                },
            },
            TraceEvent {
                track: Track::Gpu,
                cycle: 200,
                kind: EventKind::Counter {
                    bucket: Bucket::SimtBusy,
                    cycles: 40,
                },
            },
        ]
    }

    #[test]
    fn serialization_is_deterministic_and_well_formed() {
        let a = to_chrome_json(&sample());
        let b = to_chrome_json(&sample());
        assert_eq!(a, b);
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"dur\":15"));
        assert!(a.contains("\"ph\":\"b\""));
        assert!(a.contains("\"ph\":\"e\""));
        assert!(a.contains("\"simt_busy\":40"));
        assert!(a.contains("\"process_name\""));
        // It must parse with our own parser.
        let v = crate::json::parse(&a).expect("valid JSON");
        let evs = v
            .get("traceEvents")
            .and_then(crate::json::Value::as_array)
            .expect("traceEvents array");
        // metadata (4 tracks → 4 process + 4 thread rows) + 1 instant +
        // 1 span + 2 async halves + 1 counter.
        assert_eq!(evs.len(), 8 + 5);
    }
}
