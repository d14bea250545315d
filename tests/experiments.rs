//! EXPERIMENTS.md's tables, rendered from the simulator.
//!
//! Every table of E1–E18 sits between a `<!-- pinned:eN -->` and a
//! `<!-- /pinned -->` line. Each test below renders one block and
//! compares it byte for byte with the document. After an intentional
//! change, rewrite the block bodies in place with
//!
//! ```sh
//! BLESS=1 cargo test --test experiments
//! ```
//!
//! Blocks that a CLI command prints are rendered by running that
//! command; the rest keep the machine setup of the experiment here,
//! together with the assertions its result must satisfy.

mod common;

use std::fmt::Write as _;
use std::process::Command;

use common::{report_example1, report_example2, run_ah};
use mcsim::prelude::*;
use mcsim::proc::stats::LatencyHistogram;
use mcsim::sim::{format_table, run_matrix};
use mcsim::workloads::generators::{critical_sections, hit_dependence_chain, CriticalSections};
use mcsim_consistency::table;
use mcsim_isa::reg::{R1, R2};
use mcsim_isa::AluOp;
use mcsim_mem::Protocol;
use mcsim_proc::ProcConfig;
use mcsim_sweep::{builtin, model_spread, render_groups, run_sweep, ExecOptions};
use mcsim_sweep::{PointRecord, SweepResult};

const DOC: &str = "EXPERIMENTS.md";

/// Declares one test per pinned block, and the list of block names the
/// marker check compares the document against.
macro_rules! pinned {
    ($($block:ident => $render:expr,)*) => {
        const RENDERERS: &[&str] = &[$(stringify!($block)),*];
        $(
            #[test]
            fn $block() {
                common::assert_pinned(DOC, stringify!($block), &$render);
            }
        )*
    };
}

pinned! {
    e1 => ordering_rules(),
    e2 => cli(&["matrix", "--workload", "example1"]),
    e3 => cli(&["matrix", "--workload", "example2"]),
    e4 => organization(),
    e5 => cli(&["run", "--workload", "figure5", "--trace", "-", "--trace-format", "fig5", "--trace-proc", "0"]),
    e6 => equalization(),
    e7 => speculation_violations(),
    e8 => prefetch_limits(),
    e9 => cli(&["matrix", "--workload", "example1", "--protocol", "update"]),
    e10 => adve_hill(),
    e11 => rmw_appendix(),
    e12 => fenced(&render_groups(&sweep("e12-latency"))),
    e13 => fenced(&render_groups(&sweep("e13-window"))),
    e14 => software_prefetch(),
    e15 => footnote2_ablation(),
    e16 => latency_profile(),
    e17 => scaling(),
    e18 => breakdowns(),
}

#[test]
fn every_marker_has_a_renderer() {
    let mut markers = common::pinned_blocks(DOC);
    let mut renderers: Vec<String> = RENDERERS.iter().map(ToString::to_string).collect();
    markers.sort();
    renderers.sort();
    assert_eq!(markers, renderers, "pinned markers in {DOC} vs renderers");
}

/// A table row from cells that implement `Display`.
macro_rules! row {
    ($($cell:expr),* $(,)?) => { vec![$($cell.to_string()),*] };
}

/// `text` as a fenced plain-text block.
fn fenced(text: &str) -> String {
    format!("```text\n{}\n```\n", text.trim_end())
}

/// A markdown table under the `|`-separated `header`.
fn md_table(header: &str, rows: impl IntoIterator<Item = Vec<String>>) -> String {
    let columns = header.matches('|').count() + 1;
    let mut out = format!("| {header} |\n|{}\n", "---|".repeat(columns));
    for row in rows {
        let _ = writeln!(out, "| {} |", row.join(" | "));
    }
    out
}

/// What `mcsim <args>` prints, headed by its command line.
fn cli(args: &[&str]) -> String {
    let mcsim = env!("CARGO_BIN_EXE_mcsim");
    let out = Command::new(mcsim).args(args).output().unwrap();
    let command = format!("$ mcsim {}", args.join(" "));
    assert!(out.status.success(), "{command}: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    fenced(&format!("{command}\n{stdout}"))
}

/// A built-in grid of `mcsim-sweep`, every point of which must complete.
fn sweep(name: &str) -> SweepResult {
    let opts = ExecOptions::default();
    let result = run_sweep(&builtin(name).unwrap(), &opts).unwrap().result;
    assert!(result.failures().is_empty(), "{name}: failed points");
    result
}

/// The grid's tables as `mcsim-sweep` prints them, followed by `table`.
fn grid_and(result: &SweepResult, table: &str) -> String {
    format!("{}\n{table}", fenced(&render_groups(result)))
}

fn ordering_rules() -> String {
    let mut out = table::render_all();
    out.push_str("arc counts (of 25):");
    for m in Model::ALL_EXTENDED {
        let _ = write!(out, " {} {}", m.name(), table::arc_count(m));
    }
    fenced(&out)
}

fn organization() -> String {
    let MachineConfig { proc: p, mem, .. } = MachineConfig::paper();
    let fetch = p
        .fetch_width
        .map_or("ideal width".into(), |w| format!("{w}-wide"));
    let (rob, addr_calc, mshrs, protocol) =
        (p.rob_size, p.addr_calc_latency, mem.mshrs, mem.protocol);
    let (sets, ways, line) = (mem.cache.sets, mem.cache.ways, 1u64 << mem.cache.block_bits);
    let t = mem.timings;
    let (hit, miss, hop, svc, remote) = (t.hit, t.clean_miss(), t.hop, t.svc, t.remote_miss());
    fenced(&format!(
        "Figure 3 — processor organization (simulated)
  instruction fetch : {fetch} + branch target buffer (2-bit counters,
                      static .t/.nt hints, BTFNT cold heuristic)
  reorder buffer    : {rob} entries (register renaming, precise interrupts,
                      squash machinery shared by branches and spec loads)
  functional units  : ALU (configurable latency), branch resolve,
                      load/store unit (below)

Figure 4 — load/store unit organization (simulated)
  address unit      : in-order effective-address computation,
                      {addr_calc}-cycle address calculation
  store buffer      : FIFO; issue gated by ROB-head release +
                      per-model delay arcs; SC/PC retire-at-completion
  speculative-load  : fields per entry: load address (line), acq,
    buffer            done, store tag; FIFO retirement; associative
                      match on invalidations/updates/replacements
  prefetch unit     : read / read-exclusive, cache-probe filtered,
                      one per free port cycle

memory system
  caches            : {sets} sets x {ways} ways x {line}B lines, lockup-free
  MSHRs             : {mshrs} per processor (demand merging)
  protocol          : {protocol:?}, full-map directory, per-line serialization
  timings           : hit {hit}, clean miss {miss} ({hop}+{svc}+{hop}), remote {remote}"
    ))
}

fn equalization() -> String {
    let result = sweep("e6-equalization");
    let spreads = result.spec.workloads.iter().map(|w| {
        let label = w.label();
        let rows: Vec<_> = result.rows.iter().filter(|r| r.workload == label).collect();
        let [base, pf, spec, both] =
            Techniques::ALL.map(|t| format!("{:.1}%", model_spread(&rows, t) * 100.0));
        row![label, base, pf, spec, both]
    });
    let header = "model spread (max/min − 1) | base | prefetch | spec | pf+spec";
    grid_and(&result, &md_table(header, spreads))
}

fn speculation_violations() -> String {
    let result = sweep("e7-speculation");
    let rows = result.rows.iter().map(|r| {
        let m = r.outcome.metrics().unwrap();
        let (loads, rollbacks, reissues) = (m.speculative_loads, m.rollbacks, m.reissues);
        let rate = format!("{:.1}%", m.rollback_rate() * 100.0);
        row![r.workload, loads, rollbacks, reissues, rate]
    });
    let header = "workload (SC, pf+spec) | spec loads | rollbacks | reissues | rate";
    grid_and(&result, &md_table(header, rows))
}

fn prefetch_limits() -> String {
    let mut out = String::new();
    for (groups, misses) in [(4usize, 1usize), (4, 2), (4, 4), (8, 2)] {
        let rows = run_matrix(
            &MachineConfig::paper(),
            &[Model::Sc, Model::Rc],
            &Techniques::ALL,
            || vec![hit_dependence_chain(groups, misses).0],
            |m| {
                let (_, mem, preload) = hit_dependence_chain(groups, misses);
                for (a, v) in &mem {
                    m.write_memory(*a, *v);
                }
                for a in preload {
                    m.preload_cache(0, a, false);
                }
            },
        )
        .expect("no cell fails");
        let title = format!("{groups} groups x {misses} misses + 1 hit + 1 dependent");
        let _ = writeln!(out, "{}", format_table(&title, &rows));
    }
    fenced(&out)
}

fn adve_hill() -> String {
    let rows = [
        ("conventional SC", false, Techniques::NONE),
        ("Adve–Hill early ownership grant", true, Techniques::NONE),
        ("prefetch + speculation", false, Techniques::BOTH),
    ]
    .map(|(label, early, t)| row![label, run_ah(early, t, false), run_ah(early, t, true)]);
    let header = "Example 1 under SC | no sharers | lines shared by a reader";
    md_table(header, rows)
}

fn rmw_appendix() -> String {
    const LOCK: u64 = 0x40;
    const COUNTER: u64 = 0x1000;
    let mut worker = ProgramBuilder::new("incr");
    for _ in 0..3 {
        worker = worker
            .lock(LOCK, R1)
            .load(R2, COUNTER)
            .alu(R2, AluOp::Add, R2, 1u64)
            .store(COUNTER, R2)
            .unlock(LOCK);
    }
    let worker = worker.halt().build().unwrap();
    let mut rows = Vec::new();
    for model in Model::ALL {
        for t in [Techniques::NONE, Techniques::BOTH] {
            for procs in [2usize, 4] {
                let cfg = MachineConfig::paper_with(model, t);
                let mut m = Machine::new(cfg, vec![worker.clone(); procs]);
                m.write_memory(COUNTER, 0);
                let r = m.run();
                assert!(!r.timed_out);
                let counter = r.mem_word(COUNTER);
                assert_eq!(counter, (procs * 3) as u64, "atomicity under {model}/{t}");
                rows.push(row![
                    model.name(),
                    t.label(),
                    procs,
                    r.cycles,
                    r.total.rollbacks
                ]);
            }
        }
    }
    let header = "model | techniques | procs | cycles | rollbacks";
    md_table(header, rows)
}

fn software_prefetch() -> String {
    const LINES: u64 = 24;
    let line = |i: u64| 0x10_000 + i * 64;
    // A store sweep with read-exclusive prefetches `dist` stores ahead.
    let sweep_with = |dist: Option<u64>| {
        let mut b = ProgramBuilder::new("sweep");
        for i in 0..dist.unwrap_or(0).min(LINES) {
            b = b.prefetch(line(i), true);
        }
        for i in 0..LINES {
            if let Some(d) = dist.filter(|d| i + d < LINES) {
                b = b.prefetch(line(i + d), true);
            }
            b = b.store(line(i), i);
        }
        b.halt().build().unwrap()
    };
    let run = |dist: Option<u64>, rob: Option<usize>, t: Techniques| {
        let mut cfg = MachineConfig::paper_with(Model::Sc, t);
        if let Some(rob) = rob {
            cfg.proc = ProcConfig::with_window(t, rob, 4);
        }
        let r = Machine::new(cfg, vec![sweep_with(dist)]).run();
        assert!(!r.timed_out);
        assert_eq!(r.mem_word(line(1)), 1, "sweep stored its data");
        r.cycles
    };
    let mut configs = vec![
        ("no prefetching".to_string(), None, Techniques::NONE),
        (
            "hardware prefetch (window-limited)".to_string(),
            None,
            Techniques::PREFETCH,
        ),
    ];
    for d in [4, 16, 24] {
        configs.push((
            format!("software prefetch, distance {d}"),
            Some(d),
            Techniques::NONE,
        ));
    }
    let rows = configs
        .into_iter()
        .map(|(label, dist, t)| row![label, run(dist, Some(8), t), run(dist, None, t)]);
    let header = "24-line store sweep under SC | rob = 8 | ideal rob";
    md_table(header, rows)
}

fn footnote2_ablation() -> String {
    const LINE: u64 = 0x6000;
    // The reader keeps loading word 0 of the line while the writer
    // updates word 1: pure false sharing, a hazard match at line
    // granularity on every update.
    let mut reader = ProgramBuilder::new("reader");
    let mut writer = ProgramBuilder::new("writer");
    for i in 0..8u64 {
        reader = reader.store(0x9000u64, 1u64).load(R2, LINE);
        writer = writer.store(LINE + 8, i);
    }
    let (reader, writer) = (
        reader.halt().build().unwrap(),
        writer.halt().build().unwrap(),
    );
    let configs = [
        ("conservative (paper)", false),
        ("exact word+value check", true),
    ];
    let rows = configs.map(|(label, exact)| {
        let mut cfg = MachineConfig::paper_with(Model::Sc, Techniques::SPECULATION);
        cfg.mem.protocol = Protocol::Update;
        cfg.proc.exact_update_check = exact;
        let mut m = Machine::new(cfg, vec![reader.clone(), writer.clone()]);
        m.write_memory(LINE, 7);
        m.preload_cache(0, LINE, false);
        let r = m.run();
        assert!(!r.timed_out);
        assert_eq!(r.reg(0, R2), 7, "the read word never changes");
        let (rollbacks, filtered) = (r.total.rollbacks, r.total.hazards_filtered);
        row![label, r.cycles, rollbacks, filtered, r.reg(0, R2)]
    });
    let header = "detection (SC, spec, update) | cycles | rollbacks | hazards filtered | r2";
    md_table(header, rows)
}

fn latency_profile() -> String {
    let bars = |out: &mut String, what: &str, h: &LatencyHistogram| {
        let _ = writeln!(out, "  {what} ({} samples):", h.count());
        for (lo, c) in h.nonzero() {
            let pct = c as f64 / h.count() as f64 * 100.0;
            let bar = "#".repeat((pct / 2.0).round() as usize);
            let _ = writeln!(out, "      >= {lo:>5} cycles: {c:>5} ({pct:>5.1}%) {bar}");
        }
    };
    let params = CriticalSections {
        procs: 2,
        sections: 6,
        reads: 4,
        writes: 4,
        locks: 2,
        private_regions: true,
        ..Default::default()
    };
    let mut out = String::new();
    for t in [Techniques::NONE, Techniques::BOTH] {
        let cfg = MachineConfig::paper_with(Model::Sc, t);
        let r = Machine::new(cfg, critical_sections(&params)).run();
        assert!(!r.timed_out);
        let _ = writeln!(out, "== SC / {} — {} cycles ==", t.label(), r.cycles);
        bars(&mut out, "demand-load latency", &r.total.load_latency);
        bars(&mut out, "store latency", &r.total.store_latency);
    }
    fenced(&out)
}

fn scaling() -> String {
    let result = sweep("e17-scaling");
    let sc_both = |r: &&PointRecord| r.model == Model::Sc && r.techniques == Techniques::BOTH;
    let rows = result.rows.iter().filter(sc_both).map(|r| {
        let m = r.outcome.metrics().unwrap();
        row![r.workload, m.dir_queue_cycles]
    });
    let header = "workload | SC pf+spec directory queue cycles";
    grid_and(&result, &md_table(header, rows))
}

/// Per-cause components of every Figure 2 cell in normalized
/// execution-time units (SC base = 100), so a row's components sum to
/// its `norm` column the way the paper's stacked bars do.
fn breakdowns() -> String {
    let examples = [
        ("Example 1 — producer", report_example1 as fn(_, _) -> _),
        ("Example 2 — consumer", report_example2),
    ];
    let header =
        "model | techniques | cycles | norm | busy | read | write | acquire | rollback | fetch";
    let tables = examples.map(|(title, report)| {
        let sc_base = report(Model::Sc, Techniques::NONE).cycles as f64;
        let norm = |c: u64| format!("{:.1}", c as f64 * 100.0 / sc_base);
        let cells = Model::ALL
            .into_iter()
            .flat_map(|m| Techniques::ALL.map(|t| (m, t)));
        let rows = cells.map(|(m, t)| {
            let r = report(m, t);
            let b = &r.total.breakdown;
            let mut row = row![m.name(), t.label(), r.cycles, norm(b.total())];
            row.extend(b.components().map(|(_, c)| norm(c)));
            row
        });
        format!("{title}:\n\n{}", md_table(header, rows))
    });
    tables.join("\n")
}
