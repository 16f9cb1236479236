//! Regenerate every table and figure in one go.
//!
//! Flags: `--jobs N` (parallel sweep workers, default all cores),
//! `--json` (one combined JSON object keyed by experiment), `--full`
//! (paper-scale sizes, same as `ACCESYS_FULL=1`). Per-experiment
//! wall-clock goes to stderr so stdout stays byte-identical across
//! worker counts.

use accesys_exp::cli::Cli;
use std::time::Instant;

type Runner = fn(&Cli) -> serde::Value;

fn main() {
    let cli = Cli::from_env("all_experiments");
    if !cli.json {
        // The worker count goes to stderr only: stdout must stay
        // byte-identical between --jobs 1 and --jobs N runs.
        println!(
            "== scale: {:?} (set ACCESYS_FULL=1 for paper sizes) ==\n",
            cli.scale
        );
    }
    eprintln!("# jobs: {}", cli.jobs);
    let experiments: Vec<(&str, Runner)> = vec![
        ("table2", accesys_bench::table2::run_cli),
        ("table3", accesys_bench::table3::run_cli),
        ("fig2", accesys_bench::fig2::run_cli),
        ("fig3", accesys_bench::fig3::run_cli),
        ("fig4", accesys_bench::fig4::run_cli),
        ("fig5", accesys_bench::fig5::run_cli),
        ("fig6", accesys_bench::fig6::run_cli),
        ("table4", accesys_bench::table4::run_cli),
        ("fig7", accesys_bench::fig7::run_cli),
        ("fig9", accesys_bench::fig9::run_cli),
        ("cxl", accesys_bench::cxl::run_cli),
        ("cluster", accesys_bench::cluster::run_cli),
        ("topo", accesys_bench::topo::run_cli),
        ("graph", accesys_bench::graph::run_cli),
        ("serve", accesys_bench::serve::run_cli),
        ("decode", accesys_bench::decode::run_cli),
        ("energy", accesys_bench::energy::run_cli),
        // Host shards of every point share the --jobs threads.
        ("fleet", accesys_bench::fleet::run_cli),
    ];
    let start = Instant::now();
    let mut combined = Vec::new();
    for (i, (name, run)) in experiments.iter().enumerate() {
        if !cli.json {
            if i > 0 {
                println!();
            }
            if *name == "cxl" {
                println!("== extensions ==\n");
            }
        }
        let t0 = Instant::now();
        combined.push((name.to_string(), run(&cli)));
        eprintln!("# {name}: total {:.2}s", t0.elapsed().as_secs_f64());
    }
    eprintln!(
        "# all_experiments: {:.2}s wall (jobs={})",
        start.elapsed().as_secs_f64(),
        cli.jobs
    );
    if cli.json {
        accesys_exp::cli::emit_json(&serde::Value::Map(combined));
    }
}
