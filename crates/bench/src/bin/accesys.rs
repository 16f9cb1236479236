//! `accesys` — the spec front-end CLI: run, validate and list text
//! scenario files.
//!
//! ```text
//! accesys run specs/paper_baseline.spec --json --jobs 4
//! accesys validate specs/*.spec
//! accesys list
//! ```
//!
//! `run` loads a scenario file through the staged loader (parse →
//! resolve → validate), dispatches it to the driver of its kind, and
//! prints the same table (or `--json` document) as the dedicated bin
//! for that experiment family. A bare name (`paper_baseline`) resolves
//! against the committed library embedded in the binary, so `accesys
//! run fig2`'s spelling is `accesys run paper_baseline` from any
//! directory.
//!
//! `validate` loads every named file, dry-builds its topologies and
//! traffic at both scales without running a sweep, and reports one
//! line per file; any diagnostic makes the exit status 1.
//!
//! Every loader failure is a typed [`accesys_spec::SpecError`] printed
//! with its line and field — never a panic.

use accesys_bench::specs::LIBRARY;
use accesys_bench::{decode, fig2, fleet, graph, serve, topo, Scale};
use accesys_exp::cli::{self, Cli, CliError};
use accesys_spec::{Scenario, Spec, SpecError};

const USAGE: &str = "usage: accesys <command> [args]

commands:
  run <spec> [--jobs N] [--json] [--full]
                  load a scenario file, validate it, and run its sweep
                  (<spec> is a file path, or the bare name of a
                  committed spec from `accesys list`)
  validate <spec>...
                  load + dry-build each file at both scales; report one
                  line per file, exit 1 if any fails
  list            show the committed specs/ library
  help            show this help

run flags:
  --jobs N, -j N  run the sweep on N worker threads
                  (default: ACCESYS_JOBS, else all cores)
  --json          emit the machine-readable sweep result on stdout
  --full          paper-scale workload sizes (same as ACCESYS_FULL=1)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("list") => cmd_list(),
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

/// Split a subcommand's arguments into positional spec names and the
/// shared sweep flags (`--jobs` keeps its value attached).
fn split_args(args: &[String]) -> Result<(Vec<&str>, Cli), CliError> {
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
    Ok((positional, Cli::parse(flags.into_iter())?))
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

fn cmd_run(args: &[String]) -> i32 {
    let (names, cli) = match split_args(args) {
        Ok(split) => split,
        Err(CliError::Help) => {
            println!("{USAGE}");
            return 0;
        }
        Err(err) => {
            eprintln!("accesys run: {err}\n\n{USAGE}");
            return 2;
        }
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
    let value = match &spec.scenario {
        Scenario::Roofline(sc) => fig2::run_cli_for(sc, &cli),
        Scenario::Topo(sc) => topo::run_cli_for(sc, &cli),
        Scenario::Pipeline(sc) => graph::run_cli_for(sc, &cli),
        Scenario::Serving(sc) => serve::run_cli_for(sc, &cli),
        Scenario::Decode(sc) => decode::run_cli_for(sc, &cli),
        Scenario::Fleet(sc) => fleet::run_cli_for(sc, &cli),
    };
    if cli.json {
        cli::emit_json(&value);
    }
    0
}

fn cmd_validate(args: &[String]) -> i32 {
    let (names, _cli) = match split_args(args) {
        Ok(split) => split,
        Err(CliError::Help) => {
            println!("{USAGE}");
            return 0;
        }
        Err(err) => {
            eprintln!("accesys validate: {err}\n\n{USAGE}");
            return 2;
        }
    };
    if names.is_empty() {
        eprintln!("accesys validate: at least one spec file is required\n\n{USAGE}");
        return 2;
    }
    let mut failures = 0;
    for name in names {
        match validate_one(name) {
            Ok(summary) => println!("{name}: ok ({summary})"),
            Err(err) => {
                println!("{name}: error: {err}");
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

fn cmd_list() -> i32 {
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
