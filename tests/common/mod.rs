//! Helpers shared by the integration tests: the compare-or-bless check
//! behind every golden file and every pinned EXPERIMENTS.md block, and
//! the machine builders more than one test file runs.
//!
//! With the `BLESS` environment variable set, each check rewrites its
//! stored copy instead of comparing against it.

// Each test crate compiles this module and uses only part of it.
#![allow(dead_code)]

use mcsim::prelude::*;
use mcsim::workloads::paper;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Serializes blessing: concurrent tests rewriting blocks of one document
/// must not interleave their read-modify-write cycles.
static BLESS_LOCK: Mutex<()> = Mutex::new(());

fn blessing() -> bool {
    std::env::var_os("BLESS").is_some()
}

fn repo_path(relative: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(relative)
}

fn read(path: &Path) -> String {
    let shown = path.display();
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {shown}: {e}"))
}

/// Panics unless `rendered == stored`, naming `what`, the first differing
/// line and the command that regenerates the stored copy.
fn assert_same(what: &str, rendered: &str, stored: &str) {
    if rendered == stored {
        return;
    }
    // The test crate's name is the first segment of this module's path.
    let test = module_path!().split("::").next().unwrap_or_default();
    let (old, new) = (stored.lines(), rendered.lines());
    let line = old.zip(new).take_while(|(s, r)| s == r).count() + 1;
    panic!(
        "{what} diverges from the simulator at line {line}; if the change is \
         intentional, regenerate with BLESS=1 cargo test --test {test}\n\
         --- rendered ---\n{rendered}"
    );
}

/// Checks `rendered` against `tests/golden/<name>`.
pub fn assert_golden(name: &str, rendered: &str) {
    let path = repo_path("tests/golden").join(name);
    if blessing() {
        std::fs::write(&path, rendered).unwrap();
    } else {
        assert_same(&format!("tests/golden/{name}"), rendered, &read(&path));
    }
}

const CLOSE_MARKER: &str = "\n<!-- /pinned -->\n";

/// Byte range of the body of `block` in `text`: the lines between the
/// line `<!-- pinned:<block> -->` and the next line `<!-- /pinned -->`.
fn block_body(text: &str, block: &str) -> Option<std::ops::Range<usize>> {
    let open = format!("\n<!-- pinned:{block} -->\n");
    let start = text.find(&open)? + open.len();
    let end = start + text[start - 1..].find(CLOSE_MARKER)?;
    Some(start..end)
}

/// Names of the pinned blocks of the markdown file `doc`, in order.
pub fn pinned_blocks(doc: &str) -> Vec<String> {
    read(&repo_path(doc))
        .lines()
        .filter_map(|l| l.strip_prefix("<!-- pinned:")?.strip_suffix(" -->"))
        .map(str::to_string)
        .collect()
}

/// Checks `rendered` against the body of pinned block `block` in the
/// markdown file `doc`; under `BLESS` the body is rewritten in place.
pub fn assert_pinned(doc: &str, block: &str, rendered: &str) {
    let path = repo_path(doc);
    let what = format!("{doc} block `pinned:{block}`");
    let _guard = blessing().then(|| BLESS_LOCK.lock().unwrap_or_else(|e| e.into_inner()));
    let mut text = read(&path);
    let body = block_body(&text, block).unwrap_or_else(|| panic!("{what} has no markers"));
    if blessing() {
        text.replace_range(body, rendered);
        std::fs::write(&path, text).unwrap();
    } else {
        assert_same(&what, rendered, &text[body]);
    }
}

/// Cycles of one run, which must finish within its budget.
pub fn cycles_of(
    cfg: MachineConfig,
    programs: Vec<Program>,
    setup: impl FnOnce(&mut Machine),
) -> u64 {
    let mut m = Machine::new(cfg, programs);
    setup(&mut m);
    let r = m.run();
    assert!(!r.timed_out);
    r.cycles
}

/// Example 1 producer under SC (§6's Adve–Hill comparison): `early`
/// turns on early ownership grants for writes, and `shared` gives A and B
/// a reader on processor 1 so the writes must invalidate.
pub fn run_ah(early: bool, t: Techniques, shared: bool) -> u64 {
    let mut cfg = MachineConfig::paper_with(Model::Sc, t);
    cfg.mem.early_grant_writes = early;
    let programs = if shared {
        vec![paper::example1(), Program::idle()]
    } else {
        vec![paper::example1()]
    };
    cycles_of(cfg, programs, |m| {
        if shared {
            m.preload_cache(1, paper::A, false);
            m.preload_cache(1, paper::B, false);
        }
    })
}

/// Figure 2, Example 1 (producer) under one model and technique setting.
pub fn report_example1(model: Model, t: Techniques) -> RunReport {
    let cfg = MachineConfig::paper_with(model, t);
    let m = Machine::new(cfg, vec![paper::example1()]);
    let report = m.run();
    assert!(!report.timed_out);
    report
}

/// Figure 2, Example 2 (consumer) under one model and technique setting.
pub fn report_example2(model: Model, t: Techniques) -> RunReport {
    let cfg = MachineConfig::paper_with(model, t);
    let mut m = Machine::new(cfg, vec![paper::example2()]);
    paper::setup_example2(&mut m);
    let report = m.run();
    assert!(!report.timed_out);
    // The dependent load must observe the right element of E.
    assert_eq!(report.reg(0, mcsim_isa::reg::R4), 0xE1, "{model}/{t}");
    report
}
