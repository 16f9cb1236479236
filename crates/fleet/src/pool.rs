//! The fleet worker pool: N long-lived `accesys-fleet-worker`
//! processes shared across sweep points.
//!
//! Spawning a process per grid cell wastes a fork+exec (and a release
//! binary load) per point; the pool instead keeps workers alive across
//! [`FleetPool::run`] calls and re-ships the (small) spec JSON each
//! time. [`FleetPool::spawned`] counts real process spawns so callers
//! can *prove* reuse — the perf harness records it in
//! `BENCH_fleet.json`.
//!
//! Host shards are distributed dynamically: coordinator threads (one
//! per worker process) pull host indexes from a shared counter, so an
//! unlucky worker stuck with a heavy shard does not serialize the
//! rest. Results land in a slot-per-host vector and are merged in host
//! order — completion order never reaches the report, which is what
//! keeps `--fleet-workers 1` and `--fleet-workers 4` byte-identical.

use crate::host::{run_host, HostResult};
use crate::merge::{merge, FleetReport};
use crate::protocol::FleetWorker;
use crate::{FleetError, FleetSpec};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

/// Locate the `accesys-fleet-worker` binary: the
/// `ACCESYS_FLEET_WORKER_BIN` env override, else a sibling of the
/// current executable (bins and the worker land in the same target
/// directory; test executables live one level down in `deps/`).
///
/// # Errors
///
/// [`FleetError::WorkerBinary`] when no candidate exists.
pub fn worker_binary() -> Result<PathBuf, FleetError> {
    if let Ok(path) = std::env::var("ACCESYS_FLEET_WORKER_BIN") {
        return Ok(PathBuf::from(path));
    }
    let name = format!("accesys-fleet-worker{}", std::env::consts::EXE_SUFFIX);
    let exe = std::env::current_exe()
        .map_err(|e| FleetError::WorkerBinary(format!("cannot locate current exe: {e}")))?;
    let mut dirs = Vec::new();
    if let Some(d) = exe.parent() {
        dirs.push(d.to_path_buf());
        if let Some(dd) = d.parent() {
            dirs.push(dd.to_path_buf());
        }
    }
    for dir in &dirs {
        let candidate = dir.join(&name);
        if candidate.is_file() {
            return Ok(candidate);
        }
    }
    Err(FleetError::WorkerBinary(format!(
        "{name} not found next to {} (set ACCESYS_FLEET_WORKER_BIN)",
        exe.display()
    )))
}

/// A pool of fleet worker processes (or the in-process fallback at
/// zero workers). Reused across [`FleetPool::run`] calls.
#[derive(Debug)]
pub struct FleetPool {
    /// Target worker process count; 0 = run shards in-process.
    workers: u32,
    /// Worker binary (resolved once; `None` in in-process mode).
    bin: Option<PathBuf>,
    /// Live worker handles.
    procs: Vec<FleetWorker>,
    /// Processes spawned over the pool's lifetime (the reuse proof).
    spawned: u64,
}

impl FleetPool {
    /// A pool that runs every shard in-process (no child processes,
    /// the 1-process baseline of the determinism contract).
    pub fn in_process() -> FleetPool {
        FleetPool {
            workers: 0,
            bin: None,
            procs: Vec::new(),
            spawned: 0,
        }
    }

    /// A pool of `workers` processes using the auto-located worker
    /// binary ([`worker_binary`]); `0` falls back to in-process.
    ///
    /// # Errors
    ///
    /// [`FleetError::WorkerBinary`] when the binary cannot be found.
    pub fn spawn(workers: u32) -> Result<FleetPool, FleetError> {
        if workers == 0 {
            return Ok(FleetPool::in_process());
        }
        Ok(FleetPool::with_binary(worker_binary()?, workers))
    }

    /// A pool of `workers` processes over an explicit binary path
    /// (tests use the `CARGO_BIN_EXE_*` path here).
    pub fn with_binary(bin: PathBuf, workers: u32) -> FleetPool {
        FleetPool {
            workers: workers.max(1),
            bin: Some(bin),
            procs: Vec::new(),
            spawned: 0,
        }
    }

    /// Target worker process count (0 = in-process).
    pub fn workers(&self) -> u32 {
        self.workers
    }

    /// Worker processes spawned over the pool's lifetime. Stays at
    /// `workers()` across any number of `run` calls when reuse works.
    pub fn spawned(&self) -> u64 {
        self.spawned
    }

    /// Simulate the whole fleet: every host shard once, merged in host
    /// order. Byte-identical output at any worker count, including 0.
    /// At 0 the hosts run one after another on the calling thread; an
    /// in-process sweep instead puts the [`run_host`] shards of all its
    /// points on its own thread pool and [`merge`]s each point.
    ///
    /// # Errors
    ///
    /// Spec validation errors, worker spawn/transport failures, shard
    /// errors (tagged with their host), and merge violations.
    pub fn run(&mut self, spec: &FleetSpec) -> Result<FleetReport, FleetError> {
        spec.validate()?;
        if self.workers == 0 {
            let results = (0..spec.hosts)
                .map(|h| run_host(spec, h))
                .collect::<Result<Vec<_>, _>>()?;
            return merge(spec, results);
        }

        // Keep at most one coordinator per host; prune workers that
        // died since the last run (the pool heals by respawning).
        self.procs.retain_mut(|w| w.is_alive());
        let want = (self.workers as usize).min(spec.hosts as usize).max(1);
        let bin = self.bin.clone().expect("process pools carry a binary");
        while self.procs.len() < want {
            self.procs.push(FleetWorker::spawn(&bin)?);
            self.spawned += 1;
        }

        // Ship the spec once per worker, then let coordinator threads
        // pull host indexes until the fleet is covered.
        let spec_json = serde_json::to_string(spec).expect("fleet specs serialize");
        for w in self.procs.iter_mut().take(want) {
            w.load(&spec_json)?;
        }
        let next_host = AtomicU32::new(0);
        let slots: Vec<Mutex<Option<Result<HostResult, FleetError>>>> =
            (0..spec.hosts).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for w in self.procs.iter_mut().take(want) {
                scope.spawn(|| loop {
                    let host = next_host.fetch_add(1, Ordering::Relaxed);
                    if host >= spec.hosts {
                        return;
                    }
                    let result = w.run_host(host);
                    let failed = result.is_err();
                    *slots[host as usize].lock().expect("slot lock") = Some(result);
                    if failed {
                        return; // a broken worker stops pulling work
                    }
                });
            }
        });

        let mut results = Vec::with_capacity(spec.hosts as usize);
        for (host, slot) in slots.into_iter().enumerate() {
            match slot.into_inner().expect("slot lock") {
                Some(Ok(r)) => results.push(r),
                Some(Err(e)) => return Err(e),
                None => {
                    return Err(FleetError::Host {
                        host: host as u32,
                        message: "shard was never run (worker died early?)".to_string(),
                    })
                }
            }
        }
        merge(spec, results)
    }
}
