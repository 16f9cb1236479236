//! Determinism property of the spec front-end: any *valid* spec file
//! produces a byte-identical machine-readable sweep whether it runs on
//! one worker or four — the `--jobs` flag is a wall-clock knob, never
//! an output knob. Random roofline specs (the cheapest family) are the
//! probe. The committed library's other kinds are covered by the
//! per-driver `sweep_is_deterministic_across_worker_counts` tests on
//! 2-point sub-grids (fleet's `the_flat_shard_schedule_is_deterministic_across_jobs`
//! on three points), and their full grids by CI's `accesys exp all`
//! golden `cmp` at `--jobs 1` and `--jobs 4`.

use accesys_bench::{fig2, Scale};
use accesys_exp::{Experiment, Jobs};
use accesys_spec::{load_str, Scenario};
use proptest::prelude::*;

fn roofline_text(link: u32, matrix: u32, points: &[u32]) -> String {
    let axis: Vec<String> = points.iter().map(|p| format!("{p}.0")).collect();
    format!(
        "[scenario]\nkind = \"roofline\"\nname = \"det\"\n\n\
         [topology]\nlink_gbps = {link}.0\nhost_mem = \"ddr4\"\n\n\
         [workload]\nkind = \"gemm\"\nmatrix = {matrix}\n\n\
         [sweep]\ncompute_ns = [{}]\n",
        axis.join(", ")
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_valid_specs_sweep_byte_identically_on_1_and_4_workers(
        link in 1u32..32,
        matrix in 16u32..96,
        points in proptest::collection::vec(100u32..5_000, 1..5),
    ) {
        let text = roofline_text(link, matrix, &points);
        let spec = load_str(&text).expect("generated specs are valid");
        let Scenario::Roofline(sc) = &spec.scenario else {
            panic!("generated a roofline spec");
        };
        let serial = fig2::experiment_for(sc, Scale::Quick).run(Jobs::serial());
        let parallel = fig2::experiment_for(sc, Scale::Quick).run(Jobs::new(4));
        let a = serde_json::to_string_pretty(&serde::Serialize::to_value(&serial))
            .expect("sweep results serialize");
        let b = serde_json::to_string_pretty(&serde::Serialize::to_value(&parallel))
            .expect("sweep results serialize");
        prop_assert_eq!(a, b, "worker count leaked into the sweep output");
    }
}
