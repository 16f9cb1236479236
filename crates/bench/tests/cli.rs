//! Exit codes and error lines of the `accesys` binary.
//!
//! Usage errors exit 2, run failures exit 1, and neither may panic. Each
//! child gets its environment through `Command::env` / `env_remove`, so
//! the tests never touch this process's environment and can run in
//! parallel.

use std::path::Path;
use std::process::{Command, Output};

/// Run `accesys args` from the workspace root with `ACCESYS_JOBS` and
/// `ACCESYS_FULL` unset unless `jobs_env` sets the former.
fn accesys(args: &[&str], jobs_env: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_accesys"));
    cmd.args(args)
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
        .env_remove("ACCESYS_FULL");
    match jobs_env {
        Some(value) => cmd.env("ACCESYS_JOBS", value),
        None => cmd.env_remove("ACCESYS_JOBS"),
    };
    cmd.output().expect("accesys binary starts")
}

/// Assert the exit code, and for failures an error line on stderr that
/// contains `needle` and no panic; returns stderr.
fn expect_exit(args: &[&str], jobs_env: Option<&str>, code: i32, needle: &str) -> String {
    let out = accesys(args, jobs_env);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(
        out.status.code(),
        Some(code),
        "accesys {args:?} (ACCESYS_JOBS={jobs_env:?}) exit code; stderr:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "accesys {args:?} panicked:\n{stderr}"
    );
    assert!(
        stderr.lines().any(|l| l.contains(needle)),
        "accesys {args:?}: no stderr line contains {needle:?}:\n{stderr}"
    );
    stderr
}

#[test]
fn no_command_is_a_usage_error() {
    expect_exit(&[], None, 2, "a command is required");
}

#[test]
fn unknown_command_is_a_usage_error() {
    expect_exit(&["nope"], None, 2, "unknown command `nope`");
}

#[test]
fn unknown_experiment_lists_the_valid_names() {
    let stderr = expect_exit(&["exp", "nope"], None, 2, "unknown experiment `nope`");
    for name in ["table2", "fig2", "decode", "fleet", "ablations", "all"] {
        assert!(stderr.contains(name), "valid name {name} not listed");
    }
}

#[test]
fn zero_jobs_flag_is_a_usage_error() {
    expect_exit(&["exp", "table2", "--jobs", "0"], None, 2, "--jobs");
}

#[test]
fn malformed_jobs_env_is_a_usage_error() {
    expect_exit(&["exp", "table2"], Some("zero"), 2, "ACCESYS_JOBS");
}

#[test]
fn list_rejects_arguments() {
    expect_exit(&["list", "--x"], None, 2, "unknown argument `--x`");
}

#[test]
fn validate_rejects_flags() {
    expect_exit(
        &["validate", "specs/paper_baseline.spec", "--json"],
        None,
        2,
        "unknown argument `--json`",
    );
}

#[test]
fn running_a_missing_spec_fails() {
    expect_exit(&["run", "/nonexistent.spec"], None, 1, "/nonexistent.spec");
}

#[test]
fn table2_prints_a_table() {
    let out = accesys(&["exp", "table2"], None);
    assert_eq!(out.status.code(), Some(0));
    assert!(!out.stdout.is_empty(), "exp table2 printed nothing");
}

#[test]
fn list_shows_the_library() {
    let out = accesys(&["list"], None);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("paper_baseline.spec"));
}

#[test]
fn an_out_of_range_trace_tenant_fails_validation_without_a_panic() {
    let spec = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs/two_tenant_mix.spec"),
    )
    .expect("committed spec reads");
    let traced = spec.replace(
        "process = \"poisson\"\ntenants = 2\nseed = 0xACCE5",
        "process = \"trace\"\nat_ns = [0, 1000]\ntenant = [0, 4294967295]",
    );
    assert_ne!(traced, spec, "the traffic section was rewritten");
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("tenant_u32_max.spec");
    std::fs::write(&path, traced).expect("temp spec writes");
    let out = accesys(&["validate", path.to_str().expect("utf-8 path")], None);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "validate panicked:\n{stderr}");
    // `validate` reports failures on stderr, like `run` and usage errors.
    assert!(stderr.contains("`traffic.tenant`"), "stderr:\n{stderr}");
    assert!(!String::from_utf8_lossy(&out.stdout).contains("`traffic.tenant`"));
}
