//! The `mcsim` binary end to end: the sweep command writes the library's
//! bytes, every subcommand's `--help` succeeds, and malformed flags are
//! usage errors (exit 1, naming the flag) rather than panics.

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
