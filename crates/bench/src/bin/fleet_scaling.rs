//! Fleet scale-out sweep: host count × per-host tree shape, each host
//! an independent serving engine fed its share of one open-loop trace
//! over network links (extension). Every host shard of the sweep runs
//! on the `--jobs` threads; stdout is byte-identical at any `--jobs`.

use accesys_exp::cli::{self, Cli};

fn main() {
    let cli = Cli::from_env("fleet_scaling");
    let value = accesys_bench::fleet::run_cli(&cli);
    if cli.json {
        cli::emit_json(&value);
    }
}
