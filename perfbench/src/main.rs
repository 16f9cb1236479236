//! `perfbench` — run one workload's sweep once and print its record.
//!
//! ```text
//! perfbench --workload decode_kv [--traffic-seed N]
//!           [--trace out.json | --setup-only] [--commit REV]
//! ```
//!
//! Run from the repository root (specs are read from `specs/`). With
//! `--trace` the sweep runs traced and its spans are written to the
//! given file as Chrome trace-event JSON; with `--setup-only` the
//! process only times one set-up. Either way the process sets up once,
//! as `accesys run` does.

use accesys_perfbench::record::{self, Options};
use accesys_perfbench::trace::chrome_json;
use accesys_perfbench::workload::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload roofline_paper|decode_kv|fleet_1k \
[--traffic-seed N] [--trace FILE | --setup-only] [--commit REV]";

/// The parsed command line: what to run, where to write the trace, and
/// whether to stop after the set-up.
fn parse_args() -> Result<(Options, Option<PathBuf>, bool), String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut traffic_seed = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut commit = "unknown".to_string();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--traffic-seed" => traffic_seed = Some(number(value()?)?),
            "--trace" => trace = Some(PathBuf::from(value()?)),
            "--setup-only" => setup_only = true,
            "--commit" => commit = value()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let opts = Options {
        workload,
        spec_path: PathBuf::from(workload.spec_path()),
        scale: workload.scale(),
        traffic_seed,
        traced: trace.is_some(),
        commit,
    };
    Ok((opts, trace, setup_only))
}

fn main() -> ExitCode {
    let (opts, trace, setup_only) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if setup_only {
        record::run_setup_only(&opts)
    } else {
        record::run(&opts).and_then(|record| {
            if let Some(path) = &trace {
                std::fs::write(path, chrome_json(&record.spans))
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            }
            Ok(record.value)
        })
    };
    match result {
        Ok(value) => {
            println!(
                "{}",
                serde_json::to_string(&value).expect("records serialize")
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
