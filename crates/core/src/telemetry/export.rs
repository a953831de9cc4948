//! Exporters: JSONL trace dumps, Prometheus text-format metrics, and
//! the span-chain well-formedness validator benches and tests assert
//! against.

use std::fmt::Write as _;

use edgebert_tasks::Task;

use super::span::{TraceEvent, TraceEventKind};
use super::TelemetrySnapshot;

/// Render events as JSON Lines: one event object per line, in the
/// order given (the ring's oldest→newest).
pub fn render_trace_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&serde::json::to_string(event));
        out.push('\n');
    }
    out
}

/// Lowercased task label for Prometheus (`SST-2` → `sst-2`).
fn task_label(task: Task) -> String {
    task.to_string().to_lowercase()
}

fn render_histogram(
    out: &mut String,
    name: &str,
    help: &str,
    snapshot: &TelemetrySnapshot,
    select: impl Fn(&super::LaneHistograms) -> &super::LogHistogram,
) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    for lane in &snapshot.lanes {
        let task = task_label(lane.task);
        let h = select(&lane.histograms);
        for (edge, cum) in h.cumulative_nonzero() {
            let _ = writeln!(out, "{name}_bucket{{task=\"{task}\",le=\"{edge}\"}} {cum}");
        }
        let _ = writeln!(
            out,
            "{name}_bucket{{task=\"{task}\",le=\"+Inf\"}} {}",
            h.count()
        );
        let _ = writeln!(out, "{name}_sum{{task=\"{task}\"}} {}", h.sum());
        let _ = writeln!(out, "{name}_count{{task=\"{task}\"}} {}", h.count());
    }
}

/// Render the snapshot in Prometheus text exposition format: one
/// histogram family per recorded distribution, the trace drop counter,
/// and each lane's snapshot-time gauges.
pub fn render_prometheus(snapshot: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    render_histogram(
        &mut out,
        "edgebert_queue_delay_seconds",
        "Admission-to-pop queueing delay.",
        snapshot,
        |h| &h.queue_delay_s,
    );
    render_histogram(
        &mut out,
        "edgebert_sojourn_seconds",
        "Admission-to-completion sojourn time.",
        snapshot,
        |h| &h.sojourn_s,
    );
    render_histogram(
        &mut out,
        "edgebert_step_seconds",
        "Wall-clock compute time per session step.",
        snapshot,
        |h| &h.step_time_s,
    );
    render_histogram(
        &mut out,
        "edgebert_energy_joules",
        "Modeled accelerator energy per completed request.",
        snapshot,
        |h| &h.energy_per_request_j,
    );

    let _ = writeln!(out, "# HELP edgebert_trace_events_dropped_total Trace events lost to ring contention or overwriting.");
    let _ = writeln!(out, "# TYPE edgebert_trace_events_dropped_total counter");
    let _ = writeln!(
        out,
        "edgebert_trace_events_dropped_total {}",
        snapshot.dropped_events
    );

    for lane in &snapshot.lanes {
        let task = task_label(lane.task);
        // The energy gauges exist only when the fleet coordinator is
        // running — absent rows, not zero rows, so dashboards can tell
        // "unbudgeted" from "budgeted at zero".
        let gauges = [
            ("pressure", Some(lane.pressure)),
            ("rung", Some(f64::from(lane.rung as u8))),
            ("queued", Some(lane.queued as f64)),
            ("parked", Some(lane.parked as f64)),
            ("extra_shards", Some(lane.extra_shards as f64)),
            ("envelope_watts", lane.envelope_w),
            ("power_watts", lane.power_w),
        ];
        for (name, value) in gauges {
            if let Some(v) = value {
                let _ = writeln!(out, "edgebert_lane_{name}{{task=\"{task}\"}} {v}");
            }
        }
    }
    out
}

/// Group events into per-request span chains keyed by `(task,
/// request)`, preserving recorded order within each chain. Chains are
/// returned in first-appearance order.
pub fn span_chains(events: &[TraceEvent]) -> Vec<((Task, u64), Vec<TraceEvent>)> {
    let mut chains: Vec<((Task, u64), Vec<TraceEvent>)> = Vec::new();
    let mut index: std::collections::HashMap<(Task, u64), usize> = std::collections::HashMap::new();
    for &event in events {
        let key = (event.task, event.request);
        match index.get(&key) {
            Some(&i) => chains[i].1.push(event),
            None => {
                index.insert(key, chains.len());
                chains.push((key, vec![event]));
            }
        }
    }
    chains
}

/// Check one request's span chain for well-formedness:
///
/// - a shed request's chain is exactly `[Shed]`;
/// - otherwise the chain starts `Admitted, Popped, …` and ends with
///   exactly one `Completed`;
/// - every `Resumed` is preceded by a strictly greater number of
///   `Parked`s, and parks/resumes balance by completion;
/// - timestamps are monotone non-decreasing.
///
/// Only meaningful on complete chains — a ring that overwrote part of
/// a chain will (correctly) fail validation, which is what the drop
/// counter is for.
pub fn validate_span_chain(chain: &[TraceEvent]) -> Result<(), String> {
    let Some(first) = chain.first() else {
        return Err("empty span chain".into());
    };
    for pair in chain.windows(2) {
        if pair[1].t_s < pair[0].t_s {
            return Err(format!(
                "timestamps regress: {} at {} then {} at {}",
                pair[0].kind.name(),
                pair[0].t_s,
                pair[1].kind.name(),
                pair[1].t_s
            ));
        }
    }
    if matches!(first.kind, TraceEventKind::Shed { .. }) {
        return if chain.len() == 1 {
            Ok(())
        } else {
            Err(format!("shed chain has {} extra events", chain.len() - 1))
        };
    }
    if !matches!(first.kind, TraceEventKind::Admitted) {
        return Err(format!(
            "chain starts with {}, not admitted",
            first.kind.name()
        ));
    }
    match chain.get(1) {
        Some(second) if matches!(second.kind, TraceEventKind::Popped { .. }) => {}
        Some(second) => {
            return Err(format!(
                "second event is {}, not popped",
                second.kind.name()
            ));
        }
        None => return Err("chain ends after admission".into()),
    }
    let mut parked = 0i64;
    let mut completed = 0usize;
    for (i, event) in chain.iter().enumerate() {
        match event.kind {
            TraceEventKind::Admitted if i > 0 => {
                return Err(format!("duplicate admitted at index {i}"));
            }
            TraceEventKind::Popped { .. } if i > 1 => {
                return Err(format!("duplicate popped at index {i}"));
            }
            TraceEventKind::Shed { .. } => {
                return Err(format!("shed inside a served chain at index {i}"));
            }
            TraceEventKind::Parked => parked += 1,
            TraceEventKind::Resumed { .. } => {
                parked -= 1;
                if parked < 0 {
                    return Err(format!("resumed without a prior parked at index {i}"));
                }
            }
            TraceEventKind::Completed { .. } => completed += 1,
            _ => {}
        }
    }
    if completed != 1 {
        return Err(format!("expected exactly one completed, saw {completed}"));
    }
    if !matches!(
        chain.last().map(|e| e.kind),
        Some(TraceEventKind::Completed { .. })
    ) {
        return Err("chain does not end with completed".into());
    }
    if parked != 0 {
        return Err(format!("{parked} parked events never resumed"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::{LaneHistograms, LaneTelemetrySnapshot};
    use super::*;

    fn ev(t_s: f64, request: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            t_s,
            task: Task::Sst2,
            request,
            kind,
        }
    }

    fn served_chain() -> Vec<TraceEvent> {
        vec![
            ev(0.0, 1, TraceEventKind::Admitted),
            ev(0.1, 1, TraceEventKind::Popped { queue_delay_s: 0.1 }),
            ev(
                0.1,
                1,
                TraceEventKind::SegmentStart {
                    layer: 1,
                    voltage: 0.8,
                    freq_hz: 80e6,
                },
            ),
            ev(0.2, 1, TraceEventKind::Parked),
            ev(
                0.3,
                1,
                TraceEventKind::Resumed {
                    thief_lane: Some(Task::Qnli),
                },
            ),
            ev(0.4, 1, TraceEventKind::EntropyExit { layer: 3 }),
            ev(
                0.4,
                1,
                TraceEventKind::Completed {
                    verdict: true,
                    energy_j: 2e-3,
                },
            ),
        ]
    }

    #[test]
    fn served_chain_validates() {
        validate_span_chain(&served_chain()).expect("well-formed chain");
    }

    #[test]
    fn shed_chain_validates_alone() {
        let chain = [ev(0.0, u64::MAX, TraceEventKind::Shed { pressure: 2.0 })];
        validate_span_chain(&chain).expect("shed chain");
    }

    #[test]
    fn regressions_are_caught() {
        let mut chain = served_chain();
        chain[3].t_s = 0.05; // park "before" the pop
        assert!(validate_span_chain(&chain).unwrap_err().contains("regress"));

        let mut chain = served_chain();
        chain.pop();
        assert!(validate_span_chain(&chain)
            .unwrap_err()
            .contains("completed"));

        let mut chain = served_chain();
        chain.remove(4); // drop the resume
        assert!(validate_span_chain(&chain).unwrap_err().contains("parked"));

        let truncated = &served_chain()[1..];
        assert!(validate_span_chain(truncated)
            .unwrap_err()
            .contains("admitted"));
    }

    #[test]
    fn chains_group_by_task_and_request() {
        let mut events = served_chain();
        events.insert(
            2,
            TraceEvent {
                task: Task::Qnli,
                ..events[0]
            },
        );
        let chains = span_chains(&events);
        assert_eq!(chains.len(), 2);
        assert_eq!(chains[0].1.len(), 7);
        assert_eq!(chains[1].1.len(), 1);
    }

    #[test]
    fn prometheus_render_has_families_and_gauges() {
        let mut histograms = LaneHistograms::default();
        histograms.queue_delay_s.record(0.01);
        histograms.energy_per_request_j.record(30e-6);
        let snapshot = TelemetrySnapshot {
            events: served_chain(),
            dropped_events: 3,
            lanes: vec![LaneTelemetrySnapshot {
                task: Task::Sst2,
                histograms,
                pressure: 0.5,
                rung: crate::overload::LadderStep::Nominal,
                queued: 2,
                parked: 0,
                extra_shards: 1,
                envelope_w: Some(0.125),
                power_w: Some(0.08),
            }],
        };
        let text = render_prometheus(&snapshot);
        assert!(text.contains("edgebert_queue_delay_seconds_bucket{task=\"sst-2\",le=\""));
        assert!(text.contains("edgebert_energy_joules_count{task=\"sst-2\"} 1"));
        assert!(text.contains("edgebert_trace_events_dropped_total 3"));
        assert!(text.contains("edgebert_lane_pressure{task=\"sst-2\"} 0.5"));
        assert!(text.contains("edgebert_lane_extra_shards{task=\"sst-2\"} 1"));
        assert!(text.contains("edgebert_lane_envelope_watts{task=\"sst-2\"} 0.125"));
        assert!(text.contains("edgebert_lane_power_watts{task=\"sst-2\"} 0.08"));
    }

    /// Without a fleet coordinator the energy gauges are absent rows,
    /// not zero rows — "unbudgeted" must stay distinguishable from
    /// "budgeted at zero".
    #[test]
    fn prometheus_energy_gauges_absent_without_budgeting() {
        let snapshot = TelemetrySnapshot {
            events: vec![],
            dropped_events: 0,
            lanes: vec![LaneTelemetrySnapshot {
                task: Task::Sst2,
                histograms: LaneHistograms::default(),
                pressure: 0.0,
                rung: crate::overload::LadderStep::Nominal,
                queued: 0,
                parked: 0,
                extra_shards: 0,
                envelope_w: None,
                power_w: None,
            }],
        };
        let text = render_prometheus(&snapshot);
        assert!(text.contains("edgebert_lane_pressure{task=\"sst-2\"}"));
        assert!(!text.contains("edgebert_lane_envelope_watts"));
        assert!(!text.contains("edgebert_lane_power_watts"));
    }

    #[test]
    fn jsonl_is_one_line_per_event() {
        let text = render_trace_jsonl(&served_chain());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 7);
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(lines[0].contains("\"kind\":\"admitted\""));
    }
}
