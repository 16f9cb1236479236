//! Diagnostic snapshot tests: the loader's error messages are part of
//! its contract. Each case pins the exact `Display` rendering — with
//! its 1-based line and `section.key` field — so tooling that matches
//! on diagnostics never breaks silently.

use accesys_spec::{load_str, SpecError};

/// The 1-based line of the first line containing `marker`.
fn line_of(text: &str, marker: &str) -> u32 {
    text.lines()
        .position(|l| l.contains(marker))
        .map(|i| i as u32 + 1)
        .unwrap_or_else(|| panic!("marker {marker:?} not in spec text"))
}

/// Load `text`, expecting the exact diagnostic `message` pointing at
/// the line containing `marker` and at `field`.
fn expect_diag(text: &str, marker: &str, field: Option<&str>, message: &str) -> SpecError {
    let err = load_str(text).expect_err("spec must be rejected");
    assert_eq!(err.to_string(), message, "diagnostic text drifted");
    assert_eq!(err.line(), Some(line_of(text, marker)), "span drifted");
    assert_eq!(err.field().as_deref(), field, "field attribution drifted");
    err
}

const ROOFLINE_OK: &str = r#"
[scenario]
kind = "roofline"
name = "diag"

[topology]
link_gbps = 8.0
host_mem = "ddr4"

[workload]
kind = "gemm"
matrix = 64
matrix_full = 128

[sweep]
compute_ns = [100.0, 500.0]
"#;

#[test]
fn the_baseline_fixture_is_actually_valid() {
    let spec = load_str(ROOFLINE_OK).expect("fixture loads");
    assert_eq!(spec.scenario.name(), "diag");
}

#[test]
fn unknown_key_names_the_key_its_section_and_its_line() {
    let text = ROOFLINE_OK.replace("matrix_full = 128", "matirx_full = 128");
    let err = expect_diag(
        &text,
        "matirx_full",
        Some("workload.matirx_full"),
        "line 13: unknown key `matirx_full` in [workload]",
    );
    assert!(matches!(err, SpecError::UnknownKey { .. }));
}

#[test]
fn dangling_device_reference_names_the_device_and_the_endpoint_count() {
    // devices pins stage homes; dev7 does not exist on the smallest
    // swept tree (2 leaves).
    let text = r#"
[scenario]
kind = "pipeline"
name = "diag"

[topology]
link_gbps = 16.0
host_mem = "ddr4"
devmem = "hbm2"

[workload]
kind = "encoder_pipeline"
seq = 16
hidden = 64
heads = 4
mlp = 128
layers = 4
images = 2
devices = [0, 7]

[sweep]
shapes = ["2", "2x2"]
"#;
    let err = expect_diag(
        text,
        "devices = [0, 7]",
        Some("workload.devices"),
        "line 19: `workload.devices` references `dev7`, but the topology has only 2 endpoint(s)",
    );
    assert!(matches!(err, SpecError::DanglingDevice { .. }));
}

const DECODE_OK: &str = r#"
[scenario]
kind = "decode"
name = "diag"

[topology]
link_gbps = 16.0
host_mem = "ddr4"
compute_ns = 5000.0
devmem = "hbm2"

[workload]
kind = "llm"
hidden = 64
heads = 4
mlp = 128
layers = 2
prompt = 12
decode = 6

[traffic]
process = "poisson"
tenants = 2
seed = 1
horizon_ns = 1000000

[policy]
kind = "fifo"
batch_cap = "auto"
queue_cap = 16
slo_ns = 1000000.0

[kv]
ample_bytes = 1048576
tight_pct = 150

[sweep]
shapes = ["2"]
rates = [100.0]
budgets = ["ample", "tight"]
"#;

#[test]
fn the_decode_fixture_is_actually_valid() {
    let spec = load_str(DECODE_OK).expect("fixture loads");
    assert_eq!(spec.scenario.kind(), "decode");
}

#[test]
fn duplicate_swept_name_points_at_the_list_line() {
    let text = DECODE_OK.replace(
        r#"budgets = ["ample", "tight"]"#,
        r#"budgets = ["ample", "ample"]"#,
    );
    let err = expect_diag(
        &text,
        "budgets =",
        Some("sweep.budgets"),
        "line 40: duplicate name `ample` in `sweep.budgets`",
    );
    assert!(matches!(err, SpecError::DuplicateName { .. }));
}

#[test]
fn kv_budget_too_small_for_one_request_is_rejected_with_both_numbers() {
    // 18 tokens x 1024 B/token for this model: one request needs
    // 18432 bytes; 1024 cannot hold it.
    let text = DECODE_OK.replace("ample_bytes = 1048576", "ample_bytes = 1024");
    let err = expect_diag(
        &text,
        "ample_bytes",
        Some("kv.ample_bytes"),
        "line 34: KV budget `kv.ample_bytes` holds 1024 bytes, \
         but one request needs 18432 bytes of KV cache",
    );
    assert!(matches!(err, SpecError::KvBudget { .. }));
}

#[test]
fn kv_budget_over_the_engine_cap_is_rejected() {
    let text = DECODE_OK.replace("ample_bytes = 1048576", "ample_bytes = 67108864");
    expect_diag(
        &text,
        "ample_bytes",
        Some("kv.ample_bytes"),
        "line 34: KV budget `kv.ample_bytes` holds 67108864 bytes, \
         over the engine cap of 33554432 bytes",
    );
}

#[test]
fn duplicate_key_points_at_the_second_occurrence() {
    let text = ROOFLINE_OK.replace("matrix = 64", "matrix = 64\nmatrix = 65");
    let err = expect_diag(
        &text,
        "matrix = 65",
        Some("workload.matrix"),
        "line 13: duplicate key `workload.matrix`",
    );
    assert!(matches!(err, SpecError::DuplicateKey { .. }));
}

#[test]
fn type_mismatch_names_field_expected_and_found() {
    let text = ROOFLINE_OK.replace("link_gbps = 8.0", "link_gbps = \"fast\"");
    let err = expect_diag(
        &text,
        "link_gbps",
        Some("topology.link_gbps"),
        "line 7: `topology.link_gbps` expects a number, got a string",
    );
    assert!(matches!(err, SpecError::Type { .. }));
}

#[test]
fn missing_section_and_key_have_no_span_but_name_the_schema_slot() {
    let text = ROOFLINE_OK.replace("[sweep]\ncompute_ns = [100.0, 500.0]\n", "");
    let err = load_str(&text).expect_err("missing section rejected");
    assert_eq!(err.to_string(), "missing required section `[sweep]`");
    assert_eq!(err.line(), None);

    let text = ROOFLINE_OK.replace("matrix = 64\n", "");
    let err = load_str(&text).expect_err("missing key rejected");
    assert_eq!(
        err.to_string(),
        "missing required key `matrix` in [workload]"
    );
    assert_eq!(err.field().as_deref(), Some("workload.matrix"));
}

#[test]
fn oversized_tree_shape_is_rejected_against_the_address_map_cap() {
    let text = DECODE_OK.replace(r#"shapes = ["2"]"#, r#"shapes = ["4x8"]"#);
    expect_diag(
        &text,
        "shapes =",
        Some("sweep.shapes"),
        "line 38: `sweep.shapes` shape \"4x8\" has 32 endpoints, \
         over the address-map cap of 16",
    );
}

#[test]
fn a_kernel_section_is_an_unknown_section() {
    // The simulator has one sequential event loop and no execution knobs,
    // so `[kernel]` is not a section: it is a typed error at its header
    // line, never a panic or a silently ignored section.
    let text = format!("{ROOFLINE_OK}\n[kernel]\nthreads = 4\n");
    let err = expect_diag(
        &text,
        "[kernel]",
        None,
        "line 18: unknown section `[kernel]`",
    );
    assert!(matches!(err, SpecError::UnknownSection { .. }));
}

// ---------------------------------------------------------------------
// The `[fleet]` section (fleet scale-out scenarios).

const FLEET_OK: &str = r#"
[scenario]
kind = "fleet"
name = "diag"

[topology]
link_gbps = 16.0
host_mem = "ddr4"
compute_ns = 5000.0

[workload]
kind = "encoder_request"
seq = 16
hidden = 64
heads = 4
mlp = 128
slices = 2

[traffic]
process = "poisson"
tenants = 2
seed = 7
horizon_ns = 1000000

[policy]
kind = "round_robin"
batch_cap = 4
queue_cap = 16
slo_ns = 5000000.0

[fleet]
hosts = [2, 4]
link_latency_ns = 1000.0
link_gbps = 100.0
request_bytes = 4096
rate_rps = 50000.0

[sweep]
shapes = ["2"]
"#;

#[test]
fn the_fleet_fixture_is_actually_valid() {
    let spec = load_str(FLEET_OK).expect("fixture loads");
    let accesys_spec::Scenario::Fleet(sc) = &spec.scenario else {
        panic!("fixture is a fleet scenario, got {}", spec.scenario.kind());
    };
    assert_eq!(sc.hosts, vec![2, 4]);
    assert_eq!(sc.endpoints(4, "2"), 8);
}

#[test]
fn unknown_fleet_key_names_the_key_and_its_line() {
    let text = FLEET_OK.replace("hosts = [2, 4]", "hosts = [2, 4]\nwrokers = 2");
    let err = expect_diag(
        &text,
        "wrokers",
        Some("fleet.wrokers"),
        "line 33: unknown key `wrokers` in [fleet]",
    );
    assert!(matches!(err, SpecError::UnknownKey { .. }));
}

#[test]
fn a_fleet_workers_key_is_an_unknown_key() {
    // Fleet host shards always run on the sweep's `--jobs` threads, so
    // `[fleet] workers` is not a key: it is a typed error at its own
    // line, never a panic or a silently ignored setting.
    let text = FLEET_OK.replace("hosts = [2, 4]", "hosts = [2, 4]\nworkers = 2");
    let err = expect_diag(
        &text,
        "workers = 2",
        Some("fleet.workers"),
        "line 33: unknown key `workers` in [fleet]",
    );
    assert!(matches!(err, SpecError::UnknownKey { .. }));
}

#[test]
fn zero_fleet_link_latency_is_rejected_as_a_lookahead_violation() {
    // latency_ns doubles as the conservative lookahead of the
    // cross-host cut; zero would make the cut unsound.
    let text = FLEET_OK.replace("link_latency_ns = 1000.0", "link_latency_ns = 0.0");
    expect_diag(
        &text,
        "link_latency_ns = 0.0",
        Some("fleet.link_latency_ns"),
        "line 33: `fleet.link_latency_ns` must be positive \
         (it is the conservative lookahead of the cross-host cut)",
    );
}

#[test]
fn zero_fleet_link_bandwidth_is_rejected() {
    let text = FLEET_OK.replace("link_gbps = 100.0", "link_gbps = 0.0");
    expect_diag(
        &text,
        "link_gbps = 0.0",
        Some("fleet.link_gbps"),
        "line 34: `fleet.link_gbps` must be positive",
    );
}

#[test]
fn zero_host_count_is_rejected() {
    let text = FLEET_OK.replace("hosts = [2, 4]", "hosts = [0, 4]");
    expect_diag(
        &text,
        "hosts = [0, 4]",
        Some("fleet.hosts"),
        "line 32: `fleet.hosts` must be in 1..=4096, got 0",
    );
}

#[test]
fn non_poisson_fleet_traffic_is_rejected() {
    let text = FLEET_OK.replace(
        "process = \"poisson\"",
        "process = \"bursty\"\ncalm_rps = 100.0\nburst_rps = 1000.0\nmean_phase_len = 8",
    );
    expect_diag(
        &text,
        "process = \"bursty\"",
        Some("traffic.process"),
        "line 20: `traffic.process` must be \"poisson\" in fleet scenarios \
         (every host shard regenerates the trace from the seed)",
    );
}

// ---------------------------------------------------------------------
// Tenant ids and counts: the engines keep per-tenant state indexed by
// id, so both are bounded by `accesys_serve::MAX_TENANTS`.

const SERVING: &str = include_str!("../../../specs/two_tenant_mix.spec");
const POISSON_TRAFFIC: &str = "process = \"poisson\"\ntenants = 2\nseed = 0xACCE5";

#[test]
fn an_out_of_range_trace_tenant_is_rejected_not_overflowed() {
    let text = SERVING.replace(
        POISSON_TRAFFIC,
        "process = \"trace\"\nat_ns = [0, 1000]\ntenant = [0, 4294967295]",
    );
    let line = line_of(&text, "tenant = [");
    let err = expect_diag(
        &text,
        "tenant = [",
        Some("traffic.tenant"),
        &format!("line {line}: `traffic.tenant` names tenant 4294967295; ids must be below 1024"),
    );
    assert!(matches!(err, SpecError::Invalid { .. }));
}

#[test]
fn an_unsorted_trace_is_rejected_not_replayed_out_of_order() {
    let text = SERVING.replace(
        POISSON_TRAFFIC,
        "process = \"trace\"\nat_ns = [1000, 0]\ntenant = [0, 1]",
    );
    let line = line_of(&text, "at_ns = [");
    expect_diag(
        &text,
        "at_ns = [",
        Some("traffic.at_ns"),
        &format!("line {line}: `traffic.at_ns` must be sorted by arrival time"),
    );
}

#[test]
fn a_tenant_count_past_the_cap_is_rejected() {
    let text = SERVING.replace(
        POISSON_TRAFFIC,
        "process = \"poisson\"\ntenants = 4000000000\nseed = 0xACCE5",
    );
    let line = line_of(&text, "tenants =");
    expect_diag(
        &text,
        "tenants =",
        Some("traffic.tenants"),
        &format!("line {line}: `traffic.tenants` must be in 1..=1024, got 4000000000"),
    );
    // The cap itself is accepted.
    load_str(&SERVING.replace("tenants = 2", "tenants = 1024")).expect("1024 tenants load");
}
