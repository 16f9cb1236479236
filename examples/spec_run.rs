//! The spec front-end end to end: load a text scenario file through
//! the staged loader (parse → resolve → validate), run it through the
//! driver of its kind, and see what a typed diagnostic looks like.
//!
//! ```sh
//! cargo run --release --example spec_run
//! ```
//!
//! The same flow is available from the shell as the `accesys` CLI:
//!
//! ```sh
//! cargo run --release -p accesys-bench --bin accesys -- run specs/paper_baseline.spec
//! ```

use accesys_bench::{run_spec, Scale};
use accesys_exp::cli::Cli;
use accesys_exp::Jobs;

fn main() {
    // 1. Load a committed scenario file. `load_file` runs the whole
    //    staged loader; the `Spec` it returns holds the resolved
    //    scenario plus the canonical re-serialization of the text.
    let spec = accesys_spec::load_file(std::path::Path::new("specs/paper_baseline.spec"))
        .expect("the committed baseline loads");
    println!(
        "== specs/paper_baseline.spec: kind {}, scenario `{}` ==\n",
        spec.scenario.kind(),
        spec.scenario.name()
    );

    // 2. Dry-build it: instantiate every topology, workload and trace
    //    the sweep would touch, without running anything. This is what
    //    `accesys validate` does.
    spec.dry_build(Scale::Quick).expect("baseline dry-builds");

    // 3. Run it through the driver of its kind — the text file is the
    //    single source of truth for the testbed and the swept axis.
    //    `run_spec` is the call `accesys run` and `accesys exp fig2` make.
    run_spec(&spec, &Cli::new(Scale::Quick, Jobs::new(2)));

    // 4. Every way a spec can be wrong is a typed, span-carrying
    //    diagnostic — never a panic. Misspell a key:
    let broken = spec.canonical.replace("matrix", "matrrix");
    let err = accesys_spec::load_str(&broken).expect_err("misspelled key is rejected");
    println!("\n== a misspelled key, as the loader reports it ==");
    println!("  {err}");
    println!(
        "  (line {:?}, field {:?})",
        err.line(),
        err.field().unwrap_or_default()
    );
}
