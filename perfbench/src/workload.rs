//! The benchmark's workloads: which committed spec each runs, at which
//! scale, and the untraced sweep through the same library calls
//! `accesys run <spec>` makes.

use crate::trace::Recorder;
use accesys_bench::{decode, fig2, fleet};
use accesys_exp::{Cli, Jobs, Scale};
use accesys_spec::{Scenario, Spec, SpecError, TrafficProcess};
use std::path::Path;

/// One named workload of the benchmark.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 2 GEMM roofline at paper scale: kernel and
    /// module handlers, no serving, fleet or trace generation.
    RooflinePaper,
    /// Batched LLM decode on device-side HBM2 behind switch trees:
    /// thousands of small per-round graphs plus KV eviction traffic.
    DecodeKv,
    /// 168 independent host simulations up to a 1024-endpoint fleet:
    /// topology builds, sweep scheduling and the fleet merge.
    Fleet1k,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [
        Workload::RooflinePaper,
        Workload::DecodeKv,
        Workload::Fleet1k,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RooflinePaper => "roofline_paper",
            Workload::DecodeKv => "decode_kv",
            Workload::Fleet1k => "fleet_1k",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The committed spec the workload runs, relative to the repo root.
    pub fn spec_path(self) -> &'static str {
        match self {
            Workload::RooflinePaper => "specs/paper_baseline.spec",
            Workload::DecodeKv => "specs/llm_decode.spec",
            Workload::Fleet1k => "specs/fleet_1k.spec",
        }
    }

    /// The scale the workload runs at: the roofline at the paper's
    /// 1024-matrix size (its quick size finishes in ~0.1 s, too short to
    /// time); the serving workloads at quick scale, which already take
    /// seconds per sweep.
    pub fn scale(self) -> Scale {
        match self {
            Workload::RooflinePaper => Scale::Paper,
            Workload::DecodeKv | Workload::Fleet1k => Scale::Quick,
        }
    }
}

/// Load a spec file and dry-build it at `scale`: everything `accesys
/// run` does before its sweep starts, as the spans `spec.load` and
/// `spec.dry_build` in `rec`.
///
/// # Errors
///
/// The loader's or the dry build's [`SpecError`].
pub fn setup(path: &Path, scale: Scale, rec: &mut Recorder) -> Result<Spec, SpecError> {
    let spec = rec.span("spec.load", |_| accesys_spec::load_file(path))?;
    rec.span("spec.dry_build", |_| spec.dry_build(scale))?;
    Ok(spec)
}

/// Override the Poisson traffic seed of a serving scenario. Returns the
/// seed the scenario now uses, `None` for scenarios without Poisson
/// traffic (the roofline has no traffic at all).
pub fn set_traffic_seed(spec: &mut Spec, seed: Option<u64>) -> Option<u64> {
    let traffic = match &mut spec.scenario {
        Scenario::Decode(sc) => &mut sc.traffic,
        Scenario::Fleet(sc) => &mut sc.traffic,
        _ => return None,
    };
    match &mut traffic.process {
        TrafficProcess::Poisson { seed: current, .. } => {
            if let Some(s) = seed {
                *current = s;
            }
            Some(*current)
        }
        _ => None,
    }
}

/// Number of sweep points the scenario runs.
pub fn point_count(spec: &Spec) -> usize {
    match &spec.scenario {
        Scenario::Roofline(sc) => sc.compute_ns.len(),
        Scenario::Decode(sc) => sc.rates.len() * sc.shapes.len() * sc.budgets.len(),
        Scenario::Fleet(sc) => sc.hosts.len() * sc.shapes.len(),
        _ => 0,
    }
}

/// Run the sweep untraced, exactly as `accesys run <spec> --json
/// --fleet-workers 0 --jobs <jobs>` does, and return its JSON value.
///
/// # Panics
///
/// When a point fails (the experiment code panics on a failed point) or the
/// scenario is of a kind the benchmark does not run.
pub fn run_plain(spec: &Spec, scale: Scale, jobs: usize) -> serde::Value {
    let mut cli = Cli::new(scale, Jobs::new(jobs));
    cli.json = true;
    cli.fleet_workers = Some(0);
    match &spec.scenario {
        Scenario::Roofline(sc) => fig2::run_cli_for(sc, &cli),
        Scenario::Decode(sc) => decode::run_cli_for(sc, &cli),
        Scenario::Fleet(sc) => fleet::run_cli_for(sc, &cli),
        other => panic!("no benchmark workload runs `{}` scenarios", other.kind()),
    }
}
