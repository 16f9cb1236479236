//! Shared command-line interface of the experiment binaries.
//!
//! Every sweep bin accepts the same flags, parsed by [`Cli`]:
//!
//! * `--jobs N` / `-j N` — worker threads for the sweep (default:
//!   `ACCESYS_JOBS`, else all cores),
//! * `--json` — emit the machine-readable sweep result on stdout instead
//!   of the human table,
//! * `--full` — paper-scale workload sizes (same as `ACCESYS_FULL=1`).
//!
//! Parsing never panics: every malformed argument is a typed
//! [`CliError`] ([`CliError::UnknownFlag`] for flags the harness does
//! not know), which [`Cli::from_env`] renders with the usage text.
//! Wall-clock notes always go to **stderr**, so stdout stays
//! byte-identical between `--jobs 1` and `--jobs N` runs.

use crate::{Experiment, Jobs, Scale, SweepResult};

/// Parsed command-line options shared by every experiment bin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cli {
    /// Workload scale.
    pub scale: Scale,
    /// Sweep worker count.
    pub jobs: Jobs,
    /// Emit JSON on stdout instead of the human-readable table.
    pub json: bool,
    /// Inert: nothing in the workspace reads it, and no flag or
    /// environment variable sets it; fleet host shards always run on
    /// the `jobs` threads. It stays only because the benchmark harness
    /// (`perfbench/src/workload.rs`) still assigns it, so it can go
    /// only in a change to that harness, together with the assignment.
    pub fleet_workers: Option<u32>,
}

/// Why an argument vector did not parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// `--help` / `-h` was requested (not an error; callers print usage
    /// and exit 0).
    Help,
    /// A flag the harness does not know.
    UnknownFlag(String),
    /// A flag that needs a value was last on the line.
    MissingValue(String),
    /// `--jobs` got something other than a positive integer.
    BadJobs(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Help => write!(f, "help requested"),
            CliError::UnknownFlag(flag) => write!(f, "unknown argument `{flag}`"),
            CliError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            CliError::BadJobs(value) => {
                write!(f, "--jobs needs a positive integer, got `{value}`")
            }
        }
    }
}

impl std::error::Error for CliError {}

impl Cli {
    /// Options for library callers: given scale and jobs, table output.
    pub fn new(scale: Scale, jobs: Jobs) -> Cli {
        Cli {
            scale,
            jobs,
            json: false,
            fleet_workers: None,
        }
    }

    /// Parse `std::env::args`, honouring `ACCESYS_FULL` / `ACCESYS_JOBS`
    /// as defaults. Prints usage and exits on `--help` or a bad flag.
    pub fn from_env(bin: &str) -> Cli {
        match Cli::parse(std::env::args().skip(1)) {
            Ok(cli) => cli,
            Err(CliError::Help) => {
                println!("{}", usage(bin));
                std::process::exit(0);
            }
            Err(err) => {
                eprintln!("{bin}: {err}\n\n{}", usage(bin));
                std::process::exit(2);
            }
        }
    }

    /// Parse an argument iterator (no environment interaction beyond the
    /// `ACCESYS_FULL` / `ACCESYS_JOBS` defaults).
    ///
    /// # Errors
    ///
    /// Returns a typed [`CliError`] for `--help`, unknown flags, missing
    /// values, and malformed `--jobs` counts.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Cli, CliError> {
        let mut cli = Cli {
            scale: Scale::from_env(),
            jobs: Jobs::from_env(),
            json: false,
            fleet_workers: None,
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--help" | "-h" => return Err(CliError::Help),
                "--json" => cli.json = true,
                "--full" => cli.scale = Scale::Paper,
                "--jobs" | "-j" => {
                    let value = args.next().ok_or(CliError::MissingValue(arg))?;
                    cli.jobs = parse_jobs(&value)?;
                }
                other => {
                    if let Some(value) = other.strip_prefix("--jobs=") {
                        cli.jobs = parse_jobs(value)?;
                    } else {
                        return Err(CliError::UnknownFlag(other.to_string()));
                    }
                }
            }
        }
        Ok(cli)
    }
}

fn parse_jobs(value: &str) -> Result<Jobs, CliError> {
    match value.parse::<usize>() {
        Ok(n) if n > 0 => Ok(Jobs::new(n)),
        _ => Err(CliError::BadJobs(value.to_string())),
    }
}

/// The usage text every sweep bin shares.
pub fn usage(bin: &str) -> String {
    format!(
        "usage: {bin} [--jobs N] [--json] [--full]\n\
         \n\
         --jobs N, -j N  run the sweep on N worker threads\n\
         \x20                (default: ACCESYS_JOBS, else all cores)\n\
         --json          emit the machine-readable sweep result on stdout\n\
         --full          paper-scale workload sizes where applicable\n\
         \x20                (same as ACCESYS_FULL=1; scale-independent\n\
         \x20                bins such as probe/table2/table3 ignore it)\n\
         --help, -h      show this help"
    )
}

/// Run `exp` at the CLI's settings: note wall-clock on stderr, invoke
/// `print` with the result unless `--json`, and return the
/// machine-readable sweep value — the shared shape of every
/// single-sweep driver's `run_cli`.
pub fn run_sweep_cli<E>(
    cli: &Cli,
    exp: &E,
    print: impl FnOnce(&SweepResult<E::Point, E::Out>),
) -> serde::Value
where
    E: Experiment,
    E::Point: serde::Serialize,
    E::Out: serde::Serialize,
{
    let result = exp.run(cli.jobs);
    note_wall(&result);
    if !cli.json {
        print(&result);
    }
    serde::Serialize::to_value(&result)
}

/// Report a finished sweep's wall-clock on stderr (never stdout, so
/// table/JSON output stays byte-identical across worker counts).
pub fn note_wall<P, O>(result: &SweepResult<P, O>) {
    eprintln!(
        "# {}: {} points in {:.2}s (jobs={})",
        result.name,
        result.points.len(),
        result.wall_secs(),
        result.jobs
    );
}

/// Print `value` as indented JSON on stdout.
pub fn emit_json(value: &serde::Value) {
    println!(
        "{}",
        serde_json::to_string_pretty(value).expect("sweep results serialize")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Cli {
        match Cli::parse(args.iter().map(|s| s.to_string())) {
            Ok(cli) => cli,
            Err(e) => panic!("args {args:?} must parse, got {e}"),
        }
    }

    #[test]
    fn flags_parse() {
        let cli = parse(&["--jobs", "3", "--json", "--full"]);
        assert_eq!(cli.jobs.get(), 3);
        assert!(cli.json);
        assert_eq!(cli.scale, Scale::Paper);
    }

    #[test]
    fn jobs_equals_form_parses() {
        assert_eq!(parse(&["--jobs=7"]).jobs.get(), 7);
        assert_eq!(parse(&["-j", "2"]).jobs.get(), 2);
    }

    #[test]
    fn bad_flags_are_typed_errors() {
        let parse = |args: &[&str]| Cli::parse(args.iter().map(|s| s.to_string()));
        assert_eq!(
            parse(&["--nope"]),
            Err(CliError::UnknownFlag("--nope".to_string()))
        );
        assert_eq!(
            parse(&["--jobs"]),
            Err(CliError::MissingValue("--jobs".to_string()))
        );
        assert_eq!(
            parse(&["--jobs", "zero"]),
            Err(CliError::BadJobs("zero".to_string()))
        );
        // The event loop is sequential; there is no per-simulation
        // thread knob.
        assert_eq!(
            parse(&["--kernel-threads", "4"]),
            Err(CliError::UnknownFlag("--kernel-threads".to_string()))
        );
        // Fleet host shards always run on the --jobs threads; there is
        // no worker-process knob.
        assert_eq!(
            parse(&["--fleet-workers", "4"]),
            Err(CliError::UnknownFlag("--fleet-workers".to_string()))
        );
        assert_eq!(parse(&["-h"]), Err(CliError::Help));
        assert_eq!(
            parse(&["--nope"]).unwrap_err().to_string(),
            "unknown argument `--nope`"
        );
    }
}
