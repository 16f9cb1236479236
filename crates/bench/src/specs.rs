//! The committed scenario library: the `specs/*.spec` files at the
//! repo root, embedded at compile time.
//!
//! Six experiments take their presets from these files: `fig2`, `topo`,
//! `graph`, `serve`, `decode` and `fleet` are [`crate::Source::Spec`]
//! entries of [`crate::EXPERIMENTS`], so `accesys exp <name>` loads the
//! file and runs it through [`crate::run_spec`]. The other experiments
//! still carry Rust-side presets. A committed spec that fails to load is
//! a build defect, so [`load`] panics with the loader's diagnostic
//! rather than propagating it.

use accesys_spec::Spec;

/// The committed scenario files, embedded: `(stem, text)`, in the
/// order the `accesys list` subcommand shows them.
pub const LIBRARY: &[(&str, &str)] = &[
    (
        "paper_baseline",
        include_str!("../../../specs/paper_baseline.spec"),
    ),
    (
        "switch_trees",
        include_str!("../../../specs/switch_trees.spec"),
    ),
    (
        "pipelined_encoder",
        include_str!("../../../specs/pipelined_encoder.spec"),
    ),
    (
        "two_tenant_mix",
        include_str!("../../../specs/two_tenant_mix.spec"),
    ),
    ("llm_decode", include_str!("../../../specs/llm_decode.spec")),
    (
        "kv_pressure",
        include_str!("../../../specs/kv_pressure.spec"),
    ),
    ("fleet_1k", include_str!("../../../specs/fleet_1k.spec")),
];

/// Load a committed spec by file stem.
pub fn load(stem: &str) -> Spec {
    let (_, text) = LIBRARY
        .iter()
        .find(|(s, _)| *s == stem)
        .unwrap_or_else(|| panic!("no committed spec `{stem}`"));
    accesys_spec::load_str(text).unwrap_or_else(|e| panic!("specs/{stem}.spec: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use accesys_exp::Scale;

    #[test]
    fn every_committed_spec_loads_and_dry_builds() {
        for (stem, _) in LIBRARY {
            let spec = load(stem);
            spec.dry_build(Scale::Quick)
                .unwrap_or_else(|e| panic!("specs/{stem}.spec: {e}"));
        }
    }
}
