//! `accesys` — the one experiment front end: run the paper's figures
//! and tables by name, and run, validate and list text scenario files.
//!
//! ```text
//! accesys exp fig4 --jobs 8
//! accesys exp all --full --json
//! accesys run specs/paper_baseline.spec --json --jobs 4
//! accesys validate specs/*.spec
//! accesys list
//! ```
//!
//! `exp` runs one entry of [`accesys_bench::EXPERIMENTS`] by name, or
//! every entry in order with `all` (one combined JSON map under
//! `--json`; per-experiment wall time on stderr).
//!
//! `run` loads a scenario file through the staged loader (parse →
//! resolve → validate) and hands it to [`accesys_bench::run_spec`], the
//! driver dispatch on its kind. `exp` runs its spec-backed experiments
//! through the same call, so a bare name (`paper_baseline`), resolved
//! against the committed library embedded in the binary, makes `accesys
//! run paper_baseline` print exactly what `accesys exp fig2` prints,
//! from any directory.
//!
//! `validate` loads every named file, dry-builds its topologies and
//! traffic at both scales without running a sweep, and reports one
//! line per file: `ok` lines on stdout, errors on stderr; any diagnostic
//! makes the exit status 1.
//!
//! Every loader failure is a typed [`accesys_spec::SpecError`] printed
//! with its line and field — never a panic.

use accesys_bench::specs::LIBRARY;
use accesys_bench::{run_spec, Scale, EXPERIMENTS};
use accesys_exp::cli::{self, Cli, CliError};
use accesys_spec::{Scenario, Spec, SpecError};
use std::time::Instant;

const USAGE: &str = "usage: accesys <command> [args]

commands:
  exp <name>|all [--jobs N] [--json] [--full]
                  run one paper figure/table/extension experiment by
                  name (fig2, table4, decode, ...), or every one in
                  order with `all`
  run <spec> [--jobs N] [--json] [--full]
                  load a scenario file, validate it, and run its sweep
                  (<spec> is a file path, or the bare name of a
                  committed spec from `accesys list`)
  validate <spec>...
                  load + dry-build each file at both scales; report one
                  line per file, exit 1 if any fails
  list            show the committed specs/ library
  help            show this help

exp/run flags:
  --jobs N, -j N  run the sweep on N worker threads
                  (default: ACCESYS_JOBS, else all cores)
  --json          emit the machine-readable sweep result on stdout
  --full          paper-scale workload sizes (same as ACCESYS_FULL=1)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("exp") => cmd_exp(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("list") => cmd_list(&args[1..]),
        Some("help") | Some("--help") | Some("-h") => {
            println!("{USAGE}");
            0
        }
        Some(other) => {
            eprintln!("accesys: unknown command `{other}`\n\n{USAGE}");
            2
        }
        None => {
            eprintln!("accesys: a command is required\n\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

/// Split a subcommand's arguments into positional names and the shared
/// sweep flags (`--jobs` keeps its value attached). On `--help` or a bad
/// flag, print the usage and return the exit code instead (0 or 2).
fn split_args<'a>(cmd: &str, args: &'a [String]) -> Result<(Vec<&'a str>, Cli), i32> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--jobs" || arg == "-j" {
            flags.push(arg.clone());
            if let Some(value) = iter.next() {
                flags.push(value.clone());
            }
        } else if arg.starts_with('-') {
            flags.push(arg.clone());
        } else {
            positional.push(arg.as_str());
        }
    }
    match Cli::parse(flags.into_iter()) {
        Ok(cli) => Ok((positional, cli)),
        Err(CliError::Help) => {
            println!("{USAGE}");
            Err(0)
        }
        Err(err) => {
            eprintln!("accesys {cmd}: {err}\n\n{USAGE}");
            Err(2)
        }
    }
}

/// Load a spec argument: an existing file path wins; otherwise a bare
/// committed-library name is resolved against the embedded text.
fn load(name: &str) -> Result<Spec, SpecError> {
    let path = std::path::Path::new(name);
    if path.exists() {
        return accesys_spec::load_file(path);
    }
    let stem = name.strip_suffix(".spec").unwrap_or(name);
    if let Some((_, text)) = LIBRARY.iter().find(|(s, _)| *s == stem) {
        return accesys_spec::load_str(text);
    }
    Err(SpecError::Io {
        path: name.to_string(),
        message: "no such file, and no committed spec with that name \
                  (see `accesys list`)"
            .to_string(),
    })
}

fn cmd_exp(args: &[String]) -> i32 {
    let (names, cli) = match split_args("exp", args) {
        Ok(split) => split,
        Err(code) => return code,
    };
    let [name] = names[..] else {
        eprintln!("accesys exp: exactly one experiment name (or `all`) is required\n\n{USAGE}");
        return 2;
    };
    let value = if name == "all" {
        run_all(&cli)
    } else if let Some((_, source)) = EXPERIMENTS.iter().find(|(n, _)| *n == name) {
        source.run(&cli)
    } else {
        let valid: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        eprintln!(
            "accesys exp: unknown experiment `{name}` (valid: {}, all)\n\n{USAGE}",
            valid.join(", ")
        );
        return 2;
    };
    if cli.json {
        cli::emit_json(&value);
    }
    0
}

/// Regenerate every table and figure in one go: one combined JSON map
/// keyed by experiment. Per-experiment wall-clock goes to stderr so
/// stdout stays byte-identical across worker counts.
fn run_all(cli: &Cli) -> serde::Value {
    if !cli.json {
        // The worker count goes to stderr only: stdout must stay
        // byte-identical between --jobs 1 and --jobs N runs.
        println!(
            "== scale: {:?} (set ACCESYS_FULL=1 for paper sizes) ==\n",
            cli.scale
        );
    }
    eprintln!("# jobs: {}", cli.jobs);
    let start = Instant::now();
    let mut combined = Vec::new();
    for (i, (name, source)) in EXPERIMENTS.iter().enumerate() {
        if !cli.json {
            if i > 0 {
                println!();
            }
            if *name == "cxl" {
                println!("== extensions ==\n");
            }
        }
        let t0 = Instant::now();
        combined.push((name.to_string(), source.run(cli)));
        eprintln!("# {name}: total {:.2}s", t0.elapsed().as_secs_f64());
    }
    eprintln!(
        "# all: {:.2}s wall (jobs={})",
        start.elapsed().as_secs_f64(),
        cli.jobs
    );
    serde::Value::Map(combined)
}

fn cmd_run(args: &[String]) -> i32 {
    let (names, cli) = match split_args("run", args) {
        Ok(split) => split,
        Err(code) => return code,
    };
    let [name] = names[..] else {
        eprintln!("accesys run: exactly one spec file is required\n\n{USAGE}");
        return 2;
    };
    let spec = match load(name) {
        Ok(spec) => spec,
        Err(err) => {
            eprintln!("accesys run: {name}: {err}");
            return 1;
        }
    };
    if let Err(err) = spec.dry_build(cli.scale) {
        eprintln!("accesys run: {name}: {err}");
        return 1;
    }
    let value = run_spec(&spec, &cli);
    if cli.json {
        cli::emit_json(&value);
    }
    0
}

/// The exit code for an argument that `validate` or `list` does not
/// take: `--help` prints the usage (0), anything else is a usage error
/// (2).
fn reject_arg(cmd: &str, arg: &str) -> i32 {
    if arg == "--help" || arg == "-h" {
        println!("{USAGE}");
        0
    } else {
        eprintln!("accesys {cmd}: unknown argument `{arg}`\n\n{USAGE}");
        2
    }
}

fn cmd_validate(names: &[String]) -> i32 {
    if let Some(flag) = names.iter().find(|a| a.starts_with('-')) {
        return reject_arg("validate", flag);
    }
    if names.is_empty() {
        eprintln!("accesys validate: at least one spec file is required\n\n{USAGE}");
        return 2;
    }
    let mut failures = 0;
    for name in names {
        match validate_one(name) {
            Ok(summary) => println!("{name}: ok ({summary})"),
            Err(err) => {
                eprintln!("{name}: error: {err}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        1
    } else {
        0
    }
}

/// Load + dry-build one file at both scales; a one-line summary on
/// success.
fn validate_one(name: &str) -> Result<String, SpecError> {
    let spec = load(name)?;
    spec.dry_build(Scale::Quick)?;
    spec.dry_build(Scale::Paper)?;
    let sc = &spec.scenario;
    Ok(format!("kind {}, scenario `{}`", sc.kind(), sc.name()))
}

fn cmd_list(args: &[String]) -> i32 {
    if let Some(arg) = args.first() {
        return reject_arg("list", arg);
    }
    println!("{:<20} {:<10} {:<16} sweep", "spec", "kind", "scenario");
    for (stem, text) in LIBRARY {
        match accesys_spec::load_str(text) {
            Ok(spec) => {
                let sc = &spec.scenario;
                println!(
                    "{:<20} {:<10} {:<16} {}",
                    format!("{stem}.spec"),
                    sc.kind(),
                    sc.name(),
                    sweep_label(sc)
                );
            }
            Err(err) => println!("{stem}.spec: error: {err}"),
        }
    }
    0
}

/// A short human label for a scenario's swept axes.
fn sweep_label(sc: &Scenario) -> String {
    match sc {
        Scenario::Roofline(s) => format!("{} compute times", s.compute_ns.len()),
        Scenario::Topo(s) => format!("{} tree shapes", s.shapes.len()),
        Scenario::Pipeline(s) => format!("{} tree shapes", s.shapes.len()),
        Scenario::Serving(s) => {
            format!("{} rates x {} shapes", s.rates.len(), s.shapes.len())
        }
        Scenario::Decode(s) => format!(
            "{} rates x {} shapes x {} budgets",
            s.rates.len(),
            s.shapes.len(),
            s.budgets.len()
        ),
        Scenario::Fleet(s) => {
            format!("{} host counts x {} shapes", s.hosts.len(), s.shapes.len())
        }
    }
}
