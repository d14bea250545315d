//! The `mcsim` binary end to end: the sweep command writes the library's
//! bytes, every subcommand's `--help` succeeds, and malformed flags and
//! specs are usage errors (exit 1, naming the flag or axis) rather than
//! panics.

use std::process::{Command, Output};

use mcsim_sweep::{builtin, run_sweep, ExecOptions};

fn mcsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mcsim"))
        .args(args)
        .output()
        .expect("mcsim runs")
}

fn tmp(name: &str) -> String {
    let file = format!("mcsim-cli-{name}-{}", std::process::id());
    std::env::temp_dir().join(file).display().to_string()
}

#[test]
fn sweep_writes_the_library_artifact_and_its_printed_spec_reproduces_it() {
    let expected = run_sweep(&builtin("e20-smoke").unwrap(), &ExecOptions::default())
        .expect("valid spec")
        .result
        .to_json();

    let json = tmp("e20.json");
    let out = mcsim(&[
        "sweep",
        "--builtin",
        "e20-smoke",
        "--quiet",
        "--json",
        &json,
    ]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(std::fs::read_to_string(&json).unwrap(), expected);

    let spec = tmp("e20.spec.json");
    let out = mcsim(&["sweep", "--builtin", "e20-smoke", "--print-spec"]);
    assert!(out.status.success(), "{out:?}");
    std::fs::write(&spec, &out.stdout).unwrap();
    let out = mcsim(&["sweep", "--spec", &spec, "--quiet", "--json", &json]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(std::fs::read_to_string(&json).unwrap(), expected);

    let _ = std::fs::remove_file(&json);
    let _ = std::fs::remove_file(&spec);
}

#[test]
fn every_subcommand_help_is_success_on_stdout() {
    for command in [
        "run",
        "matrix",
        "asm",
        "check-json",
        "models",
        "oracle",
        "sweep",
        "serve",
    ] {
        let out = mcsim(&[command, "--help"]);
        assert!(out.status.success(), "{command} --help: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("USAGE:"), "{command} --help: {stdout}");
    }
}

#[test]
fn malformed_flags_are_usage_errors_naming_the_flag() {
    for (args, flag) in [
        (&["run", "--frobnicate"][..], "--frobnicate"),
        (&["run", "--workload"][..], "--workload"),
        (&["run", "--max-cycles", "many"][..], "--max-cycles"),
        (&["sweep", "--frobnicate"][..], "--frobnicate"),
        (&["sweep", "--json"][..], "--json"),
        (&["sweep", "--jobs", "many"][..], "--jobs"),
        (&["serve", "--frobnicate"][..], "--frobnicate"),
        (&["serve", "--addr"][..], "--addr"),
        (&["serve", "--workers", "many"][..], "--workers"),
    ] {
        let out = mcsim(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
    }
}

#[test]
fn out_of_range_machine_flags_are_usage_errors_not_panics() {
    for (flag, value) in [("--rob", "0"), ("--miss", "5")] {
        let out = mcsim(&["run", "--workload", "example1", flag, value]);
        assert_eq!(out.status.code(), Some(1), "{flag} {value}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{flag} {value}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
    }
}

#[test]
fn sweep_specs_with_unbuildable_machine_values_are_refused() {
    let out = mcsim(&["sweep", "--builtin", "e20-smoke", "--print-spec"]);
    assert!(out.status.success(), "{out:?}");
    let mut spec: mcsim_sweep::SweepSpec =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("printed spec parses");
    spec.machine.miss_latency = vec![5];
    let path = tmp("odd-miss.spec.json");
    std::fs::write(&path, serde_json::to_string(&spec).unwrap()).unwrap();
    let out = mcsim(&["sweep", "--spec", &path, "--quiet"]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("machine.miss_latency"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// A spec with six 5,000-entry axes: ~400 KB of JSON whose grid size
/// overflows `usize`.
fn oversized_spec() -> mcsim_sweep::SweepSpec {
    use mcsim_consistency::Model;
    use mcsim_proc::Techniques;
    use mcsim_sweep::{Window, WorkloadSpec};
    let mut spec = mcsim_sweep::SweepSpec::new("oversized", "six 5,000-entry axes");
    spec.models = vec![Model::Sc; 5000];
    spec.techniques = vec![Techniques::NONE; 5000];
    spec.machine.miss_latency = vec![100; 5000];
    spec.machine.window = vec![Window::Ideal; 5000];
    spec.machine.protocol = vec![mcsim_mem::Protocol::Invalidate; 5000];
    spec.workloads = vec![WorkloadSpec::PaperExample1; 5000];
    spec
}

#[test]
fn oversized_sweep_specs_are_refused_before_expansion() {
    let path = tmp("oversized.spec.json");
    std::fs::write(&path, serde_json::to_string(&oversized_spec()).unwrap()).unwrap();
    let out = mcsim(&["sweep", "--spec", &path, "--quiet"]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("points; the limit is"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// Starts `mcsim serve` on a free port, sends it `signal` with `kill`
/// once it is listening, and expects a drain and exit 0 within 5 s.
fn serve_drains_on(signal: &str) {
    use std::process::Stdio;
    use std::time::{Duration, Instant};
    let addr_file = tmp(&format!("serve-{signal}.addr"));
    let state_dir = tmp(&format!("serve-{signal}.state"));
    let _ = std::fs::remove_file(&addr_file);
    let mut server = Command::new(env!("CARGO_BIN_EXE_mcsim"))
        .args(["serve", "--addr", "127.0.0.1:0", "--quiet"])
        .args(["--addr-file", &addr_file, "--state-dir", &state_dir])
        .stdin(Stdio::null())
        .spawn()
        .expect("mcsim serve starts");
    let started = Instant::now();
    while std::fs::metadata(&addr_file).map_or(true, |m| m.len() == 0) {
        if started.elapsed() > Duration::from_secs(30) {
            let _ = server.kill();
            panic!("mcsim serve never wrote {addr_file}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let sent = Command::new("kill")
        .args([&format!("-{signal}"), &server.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(sent.success(), "kill -{signal} failed");
    let signalled = Instant::now();
    let status = loop {
        if let Some(status) = server.try_wait().expect("wait on mcsim serve") {
            break status;
        }
        if signalled.elapsed() > Duration::from_secs(5) {
            let _ = server.kill();
            let _ = server.wait();
            panic!("mcsim serve still running 5 s after SIG{signal}");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let _ = std::fs::remove_file(&addr_file);
    let _ = std::fs::remove_dir_all(&state_dir);
    assert!(
        status.success(),
        "SIG{signal} must drain to exit 0: {status:?}"
    );
}

#[test]
fn serve_drains_and_exits_zero_on_sigterm() {
    serve_drains_on("TERM");
}

#[test]
fn serve_drains_and_exits_zero_on_sigint() {
    serve_drains_on("INT");
}
