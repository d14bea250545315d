//! The paper's Figure-5-style plaintext buffer timeline.
//!
//! One section per processor; one row per cycle on which anything
//! happened. The three occupancy columns replay the buffer enter/exit
//! events and show the load queue, store buffer and speculative-load
//! buffer contents *after* that cycle's events, as short hex word
//! addresses; the events column lists everything else that cycle
//! (issues, performs, rollbacks, coherence traffic for this core).
//!
//! This renderer is shared between the CLI (`--trace-format fig5`) and
//! the golden-file test, so the checked-in artifact under
//! `tests/golden/` is exactly what users see.

use crate::{BufferKind, TraceEvent, TraceFilter, TraceKind};
use std::fmt::Write;

const BUF_WIDTH: usize = 16;

/// Renders the filtered events as per-processor buffer timelines.
pub fn render(events: &[TraceEvent], filter: &TraceFilter) -> String {
    let kept = filter.apply(events);
    if kept.is_empty() {
        return "(no events)\n".to_string();
    }
    let mut procs: Vec<usize> = kept.iter().map(|e| e.proc).collect();
    procs.sort_unstable();
    procs.dedup();
    let mut out = String::new();
    for (i, &p) in procs.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        render_proc(&kept, p, &mut out);
    }
    out
}

fn render_proc(kept: &[&TraceEvent], proc: usize, out: &mut String) {
    let _ = writeln!(out, "proc {proc}");
    let _ = writeln!(
        out,
        "{:>6} | {:<w$} | {:<w$} | {:<w$} | events",
        "cycle",
        "load buffer",
        "store buffer",
        "spec buffer",
        w = BUF_WIDTH
    );
    let _ = writeln!(
        out,
        "{}-+-{}-+-{}-+-{}-+-------",
        "-".repeat(6),
        "-".repeat(BUF_WIDTH),
        "-".repeat(BUF_WIDTH),
        "-".repeat(BUF_WIDTH)
    );

    // Replayed buffer contents (word addresses, oldest first).
    let mut bufs: [Vec<u64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let events: Vec<&&TraceEvent> = kept.iter().filter(|e| e.proc == proc).collect();
    let mut i = 0;
    while i < events.len() {
        let cycle = events[i].cycle;
        let mut labels: Vec<String> = Vec::new();
        while i < events.len() && events[i].cycle == cycle {
            let e = events[i];
            match &e.kind {
                TraceKind::BufferEnter { buffer, addr } => {
                    bufs[index(*buffer)].push(addr.0);
                }
                TraceKind::BufferExit { buffer, addr } => {
                    let b = &mut bufs[index(*buffer)];
                    if let Some(pos) = b.iter().position(|a| *a == addr.0) {
                        b.remove(pos);
                    }
                }
                TraceKind::SpecRetired => {
                    // The speculative buffer retires in order; the
                    // retire event carries no address, so drop the
                    // oldest entry.
                    if !bufs[index(BufferKind::Spec)].is_empty() {
                        bufs[index(BufferKind::Spec)].remove(0);
                    }
                    labels.push(e.kind.to_string());
                }
                kind => labels.push(kind.to_string()),
            }
            i += 1;
        }
        let _ = writeln!(
            out,
            "{:>6} | {} | {} | {} | {}",
            cycle,
            cell(&bufs[0]),
            cell(&bufs[1]),
            cell(&bufs[2]),
            labels.join("; ")
        );
    }
}

fn index(b: BufferKind) -> usize {
    match b {
        BufferKind::Load => 0,
        BufferKind::Store => 1,
        BufferKind::Spec => 2,
    }
}

/// One occupancy cell: short hex addresses, oldest first, clipped to
/// the column width with a trailing `+` when entries do not fit.
fn cell(addrs: &[u64]) -> String {
    let mut s = String::new();
    for (i, a) in addrs.iter().enumerate() {
        let piece = format!("{}{a:x}", if i > 0 { " " } else { "" });
        if s.len() + piece.len() > BUF_WIDTH {
            s.truncate(BUF_WIDTH - 1);
            s.push('+');
            break;
        }
        s.push_str(&piece);
    }
    format!("{s:<BUF_WIDTH$}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IssueOutcome;
    use mcsim_isa::Addr;

    fn ev(cycle: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            cycle,
            proc: 0,
            seq: Some(0),
            pc: Some(0),
            kind,
        }
    }

    #[test]
    fn rows_show_occupancy_after_each_cycles_events() {
        let events = vec![
            ev(
                3,
                TraceKind::BufferEnter {
                    buffer: BufferKind::Load,
                    addr: Addr(0x1000),
                },
            ),
            ev(
                3,
                TraceKind::LoadIssue {
                    addr: Addr(0x1000),
                    outcome: IssueOutcome::Miss,
                    speculative: false,
                },
            ),
            ev(
                103,
                TraceKind::BufferExit {
                    buffer: BufferKind::Load,
                    addr: Addr(0x1000),
                },
            ),
            ev(103, TraceKind::Performed { addr: Addr(0x1000) }),
        ];
        let text = render(&events, &TraceFilter::default());
        assert!(text.starts_with("proc 0\n"), "{text}");
        let row3 = text.lines().find(|l| l.starts_with("     3")).unwrap();
        assert!(row3.contains("1000"), "{row3}");
        assert!(row3.contains("ld 0x1000 miss"), "{row3}");
        let row103 = text.lines().find(|l| l.starts_with("   103")).unwrap();
        assert!(!row103.contains("1000 "), "{row103}");
        assert!(row103.contains("perform 0x1000"), "{row103}");
    }

    #[test]
    fn empty_stream_renders_placeholder() {
        assert_eq!(render(&[], &TraceFilter::default()), "(no events)\n");
    }
}
