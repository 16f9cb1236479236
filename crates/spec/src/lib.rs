//! # accesys-spec
//!
//! The text spec front-end of the Gem5-AcceSys reproduction: scenario
//! files in a small TOML subset hold the presets of the six spec-backed
//! experiment families (roofline, topo, pipeline, serving, decode,
//! fleet) — `[topology]` lowers to the switch-tree
//! [`TopologySpec`](accesys::TopologySpec), `[workload]` to the task
//! graphs and request shapes, `[traffic]`/`[policy]`/`[kv]` to the
//! serving layer's arrival specs, policies and KV budgets.
//!
//! Loading is staged, and every stage fails with a typed,
//! span-carrying [`SpecError`] — never a panic:
//!
//! 1. **parse** ([`parse()`]) — text → [`Document`], a line-annotated
//!    section/entry tree with a canonical re-serialization,
//! 2. **resolve** — schema-check every section and key, type every
//!    value,
//! 3. **validate** — the semantic rules (shapes fit the address map,
//!    device references exist, KV budgets hold a request),
//! 4. **instantiate** ([`Spec::dry_build`] and the [`scenario`]
//!    builders) — lower to the simulator's IR types.
//!
//! Stages 2–3 are [`resolve::resolve`]; [`load_str`] / [`load_file`]
//! run 1–3 and hand back a [`Spec`] whose public scenario data drives
//! the `accesys-bench` experiment drivers and the `accesys` CLI.
//!
//! ```
//! use accesys_spec::{load_str, Scenario, SpecError};
//!
//! let spec = load_str(
//!     "[scenario]\nkind = \"roofline\"\nname = \"demo\"\n\
//!      [topology]\nlink_gbps = 8.0\nhost_mem = \"ddr4\"\n\
//!      [workload]\nkind = \"gemm\"\nmatrix = 64\n\
//!      [sweep]\ncompute_ns = [100.0, 500.0]\n",
//! )
//! .unwrap();
//! assert_eq!(spec.scenario.kind(), "roofline");
//!
//! let err = load_str("[scenario]\nknid = \"roofline\"\n").unwrap_err();
//! assert_eq!(err, SpecError::UnknownKey {
//!     line: 2,
//!     section: "scenario".to_string(),
//!     key: "knid".to_string(),
//! });
//! ```
#![warn(missing_docs)]

mod error;
pub mod parse;
pub mod resolve;
pub mod scenario;

pub use error::SpecError;
pub use parse::{parse, Document, RawValue};
pub use scenario::{
    mem_tech, parse_shape, BatchCap, DecodeScenario, EncoderDims, FleetScenario, KvSpec,
    PipelineScenario, PolicyKind, PolicySpec, RooflineScenario, ScalePair, Scenario,
    ServingScenario, Spec, SystemSpec, TopoScenario, TrafficProcess, TrafficSpec, MEM_TECH_NAMES,
};

/// Load a spec from text: parse, resolve and validate (stages 1–3).
///
/// # Errors
///
/// The first failing stage's [`SpecError`].
pub fn load_str(text: &str) -> Result<Spec, SpecError> {
    let doc = parse::parse(text)?;
    let scenario = resolve::resolve(&doc)?;
    Ok(Spec {
        scenario,
        canonical: doc.to_string(),
    })
}

/// Load a spec from a file path.
///
/// # Errors
///
/// [`SpecError::Io`] if the file cannot be read, otherwise as
/// [`load_str`].
pub fn load_file(path: &std::path::Path) -> Result<Spec, SpecError> {
    let text = std::fs::read_to_string(path).map_err(|e| SpecError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    load_str(&text)
}
