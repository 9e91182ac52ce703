//! Workload suite construction and the cached, host-parallel run matrix.
//!
//! Every figure in the paper is a sweep over (benchmark × machine
//! configuration).  [`CfgKey`] captures every parameter any figure varies;
//! [`Runner`] memoizes simulation results by (benchmark, key) so sweeps that
//! share points (e.g. the `orig` 8-TU baseline) run once, and fans pending
//! runs out over host threads.  Every run is guarded by the workload
//! self-check, so no experiment can silently report results from a broken
//! simulation.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use wec_common::hash::{fnv1a, FNV_OFFSET};
use wec_core::config::{MachineConfig, ProcPreset};
use wec_core::metrics::MachineMetrics;
use wec_cpu::bpred::BpredKind;
use wec_cpu::config::CoreConfig;
use wec_workloads::{run_and_verify, Bench, Scale, Workload};

/// The built benchmark suite (Table 2 order).
pub struct Suite {
    pub scale: Scale,
    pub workloads: Vec<Workload>,
}

impl Suite {
    /// Build all six analogs at `scale`.
    pub fn build(scale: Scale) -> Suite {
        Suite {
            scale,
            workloads: Bench::ALL.iter().map(|b| b.build(scale)).collect(),
        }
    }

    pub fn names(&self) -> Vec<&'static str> {
        self.workloads.iter().map(|w| w.name).collect()
    }
}

/// Everything the paper's sweeps vary about the machine.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CfgKey {
    pub preset: ProcPreset,
    pub n_tus: u8,
    /// Core issue width (8 = the §5.2 default; Table 3 sweeps it).
    pub width: u8,
    /// L1D capacity in KB.
    pub l1_kb: u16,
    /// L1D associativity.
    pub l1_ways: u8,
    /// Entries in the side structure (WEC / victim cache / prefetch buffer).
    pub side_entries: u8,
    /// L2 capacity in KB.
    pub l2_kb: u16,
    /// L1D block size in bytes.
    pub l1_block: u16,
    /// Main-memory access latency behind the L2 (the §7 memory-latency
    /// ablation; 188 gives the paper's 200-cycle round trip).
    pub mem_latency: u16,
    /// Direction predictor (the §7 branch-accuracy ablation).
    pub bpred: BpredKind,
}

impl CfgKey {
    /// The §5.2 default machine under `preset` with `n_tus` thread units.
    pub fn paper(preset: ProcPreset, n_tus: usize) -> CfgKey {
        CfgKey {
            preset,
            n_tus: n_tus as u8,
            width: 8,
            l1_kb: 8,
            l1_ways: 1,
            side_entries: 8,
            l2_kb: 512,
            l1_block: 64,
            mem_latency: 188,
            bpred: BpredKind::Bimodal,
        }
    }

    /// A Table 3 baseline point: issue 16/n, 4-way L1 sized to 32 KB/n.
    pub fn table3(n_tus: usize) -> CfgKey {
        CfgKey {
            preset: ProcPreset::Orig,
            n_tus: n_tus as u8,
            width: (16 / n_tus) as u8,
            l1_kb: (32 / n_tus) as u16,
            l1_ways: 4,
            side_entries: 8,
            l2_kb: 512,
            l1_block: 64,
            mem_latency: 188,
            bpred: BpredKind::Bimodal,
        }
    }

    /// The Figure 8 reference point: 1 TU, single issue, 2 KB 4-way L1.
    pub fn single_issue() -> CfgKey {
        CfgKey {
            preset: ProcPreset::Orig,
            n_tus: 1,
            width: 1,
            l1_kb: 2,
            l1_ways: 4,
            side_entries: 8,
            l2_kb: 512,
            l1_block: 64,
            mem_latency: 188,
            bpred: BpredKind::Bimodal,
        }
    }

    /// Compact, stable identity string used in progress lines, run
    /// manifests and drift reports (every field that distinguishes
    /// configurations appears, so two keys never share a label).
    pub fn label(&self) -> String {
        format!(
            "{}/t{}/w{}/l1_{}k_{}w_b{}/side{}/l2_{}k/m{}/{:?}",
            self.preset.name(),
            self.n_tus,
            self.width,
            self.l1_kb,
            self.l1_ways,
            self.l1_block,
            self.side_entries,
            self.l2_kb,
            self.mem_latency,
            self.bpred,
        )
    }

    /// Materialize the machine configuration.
    pub fn build(self) -> MachineConfig {
        let mut cfg = MachineConfig::paper_default(self.n_tus as usize);
        if self.width != 8 {
            cfg.core = CoreConfig::with_width(self.width as u32);
        }
        cfg.l1d.capacity_bytes = self.l1_kb as u64 * 1024;
        cfg.l1d.ways = self.l1_ways as usize;
        cfg.l1d.side_entries = self.side_entries as usize;
        cfg.l1d.block_bytes = self.l1_block as u64;
        cfg.l2.capacity_bytes = self.l2_kb as u64 * 1024;
        cfg.l2.memory_latency = self.mem_latency as u64;
        cfg.core.bpred = self.bpred;
        // The preset must be applied after any core rebuild (it sets the
        // wrong-path switch inside the core config).
        cfg.apply_preset(self.preset);
        cfg
    }
}

/// How a requested (benchmark, configuration) point was satisfied.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheSource {
    /// Simulated in this process.
    Cold,
    /// Loaded from the persistent on-disk store.
    Disk,
    /// Served by the in-process memo table.
    Mem,
}

impl CacheSource {
    /// Stable lowercase name used in `progress.jsonl`.
    pub fn name(self) -> &'static str {
        match self {
            CacheSource::Cold => "cold",
            CacheSource::Disk => "disk",
            CacheSource::Mem => "mem",
        }
    }
}

/// Per-lookup cache-path counters: how a sweep's points were satisfied.
/// Without these a fully-warm replay is indistinguishable from a cold run
/// except by wall clock.
#[derive(Default)]
pub struct CacheCounters {
    cold: AtomicU64,
    disk_hits: AtomicU64,
    mem_hits: AtomicU64,
}

impl CacheCounters {
    fn count(&self, src: CacheSource) {
        let slot = match src {
            CacheSource::Cold => &self.cold,
            CacheSource::Disk => &self.disk_hits,
            CacheSource::Mem => &self.mem_hits,
        };
        slot.fetch_add(1, Ordering::Relaxed);
    }

    /// Simulations actually run in this process.
    pub fn cold(&self) -> u64 {
        self.cold.load(Ordering::Relaxed)
    }

    /// Points satisfied from the persistent on-disk store.
    pub fn disk_hits(&self) -> u64 {
        self.disk_hits.load(Ordering::Relaxed)
    }

    /// Lookups served by the in-process memo table (shared sweep points).
    pub fn mem_hits(&self) -> u64 {
        self.mem_hits.load(Ordering::Relaxed)
    }

    /// Fraction of *distinct* simulations satisfied by the persistent store
    /// instead of running cold (the cold-vs-warm replay signal).
    pub fn hit_rate(&self) -> f64 {
        let distinct = self.cold() + self.disk_hits();
        if distinct == 0 {
            0.0
        } else {
            self.disk_hits() as f64 / distinct as f64
        }
    }
}

/// Observer of individual simulations inside a sweep (progress streams,
/// live renderers).  Called from host worker threads, so it must be
/// thread-safe; `worker` is the host-thread index doing the work.
pub trait RunObserver: Send + Sync {
    /// A point missed every cache and started simulating.
    fn sim_started(&self, bench: &'static str, key: &CfgKey, worker: usize);
    /// A point was resolved (`src` says how; `dur_ms` is 0 for cache hits).
    fn sim_finished(
        &self,
        bench: &'static str,
        key: &CfgKey,
        worker: usize,
        src: CacheSource,
        dur_ms: u64,
        sim_cycles: u64,
    );
}

/// A memoizing, host-parallel simulation runner over one suite.
///
/// Results are memoized at two levels: an in-process map, and (unless
/// disabled) a persistent on-disk store of `MachineMetrics` key-value
/// files, so re-running `experiments` after the first sweep reads results
/// instead of re-simulating.  Disk entries are keyed by benchmark, scale,
/// the full [`CfgKey`] and [`wec_core::SIM_REVISION`], so any change to
/// the machine configuration or to simulator semantics misses cleanly.
pub struct Runner<'a> {
    suite: &'a Suite,
    cache: Mutex<HashMap<(usize, CfgKey), MachineMetrics>>,
    /// Directory of the persistent result store, if enabled.
    disk: Option<PathBuf>,
    /// Explicit host-thread count for [`Runner::warm`] (`--jobs`); falls
    /// back to [`default_hosts`] when unset.
    hosts: Option<usize>,
    counters: CacheCounters,
    obs: Option<Arc<dyn RunObserver>>,
}

/// Default location of the on-disk result store: `target/wec-result-cache`
/// at the workspace root, overridable with `WEC_RESULT_CACHE`.
pub fn default_disk_dir() -> PathBuf {
    match std::env::var_os("WEC_RESULT_CACHE") {
        Some(dir) => PathBuf::from(dir),
        None => Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/wec-result-cache"),
    }
}

/// Host worker count for parallel sweeps: the `WEC_JOBS` environment
/// variable when set to a positive integer, otherwise the machine's
/// available parallelism.  `experiments --jobs N` and the serve daemon's
/// `--workers N` override this per invocation; the env var is how a daemon
/// and interactive sweeps are kept from oversubscribing one host.
pub fn default_hosts() -> usize {
    if let Some(v) = std::env::var_os("WEC_JOBS") {
        if let Some(n) = v.to_str().and_then(|s| s.trim().parse::<usize>().ok()) {
            if n > 0 {
                return n;
            }
        }
        eprintln!("ignoring WEC_JOBS={v:?}: not a positive integer");
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

impl<'a> Runner<'a> {
    /// Runner with the persistent disk store at [`default_disk_dir`].
    pub fn new(suite: &'a Suite) -> Self {
        Self::with_disk_dir(suite, default_disk_dir())
    }

    /// Runner with only the in-process cache (the `--no-cache` escape
    /// hatch, and what hermetic tests should use unless they test the
    /// store itself).
    pub fn without_disk_cache(suite: &'a Suite) -> Self {
        Runner {
            suite,
            cache: Mutex::new(HashMap::new()),
            disk: None,
            hosts: None,
            counters: CacheCounters::default(),
            obs: None,
        }
    }

    /// Runner with the persistent store rooted at `dir` (tests point this
    /// at a scratch directory).
    pub fn with_disk_dir(suite: &'a Suite, dir: PathBuf) -> Self {
        Runner {
            suite,
            cache: Mutex::new(HashMap::new()),
            disk: Some(dir),
            hosts: None,
            counters: CacheCounters::default(),
            obs: None,
        }
    }

    /// Attach a [`RunObserver`] notified of every simulation start/finish.
    pub fn set_observer(&mut self, obs: Arc<dyn RunObserver>) {
        self.obs = Some(obs);
    }

    /// Pin the host-thread count [`Runner::warm`] fans out over
    /// (`experiments --jobs N`).  Unset, [`default_hosts`] decides.
    pub fn set_hosts(&mut self, hosts: usize) {
        self.hosts = Some(hosts.max(1));
    }

    /// Cache-path accounting for everything this runner resolved.
    pub fn counters(&self) -> &CacheCounters {
        &self.counters
    }

    /// Every memoized point: `(benchmark name, key, metrics)`, in no
    /// particular order (manifest writers sort by label).
    pub fn snapshot(&self) -> Vec<(&'static str, CfgKey, MachineMetrics)> {
        self.cache
            .lock()
            .unwrap()
            .iter()
            .map(|(&(bench, key), m)| (self.suite.workloads[bench].name, key, m.clone()))
            .collect()
    }

    pub fn suite(&self) -> &Suite {
        self.suite
    }

    /// The persistent store directory, if enabled.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.disk.as_deref()
    }

    fn run_one(w: &Workload, key: CfgKey) -> MachineMetrics {
        let cfg = key.build();
        match run_and_verify(w, cfg) {
            Ok(r) => r.metrics,
            Err(e) => panic!("{} under {key:?}: {e}", w.name),
        }
    }

    /// Path of the on-disk entry for one point.  The filename keeps the
    /// benchmark and scale readable and folds everything that determines
    /// the result — including the simulator revision — into the hash.
    fn disk_path(&self, bench_idx: usize, key: CfgKey) -> Option<PathBuf> {
        let dir = self.disk.as_ref()?;
        let name = self.suite.workloads[bench_idx].name;
        let scale = self.suite.scale.units;
        let id = format!("{name}|{scale}|{key:?}|rev{}", wec_core::SIM_REVISION);
        let hash = fnv1a(FNV_OFFSET, id.as_bytes());
        Some(dir.join(format!("{name}_{scale}_{hash:016x}.kv")))
    }

    /// Read a point from the disk store.  Unreadable or unparsable files
    /// are treated as misses (the entry will be recomputed and rewritten).
    fn disk_load(&self, bench_idx: usize, key: CfgKey) -> Option<MachineMetrics> {
        let path = self.disk_path(bench_idx, key)?;
        let text = std::fs::read_to_string(path).ok()?;
        MachineMetrics::from_kv(&text).ok()
    }

    /// Write a point to the disk store.  Best-effort: a read-only or
    /// missing target directory silently degrades to in-process caching.
    /// The write goes through [`crate::store::atomic_write`], so concurrent
    /// writers and readers never see partial files.
    fn disk_store(&self, bench_idx: usize, key: CfgKey, m: &MachineMetrics) {
        let Some(path) = self.disk_path(bench_idx, key) else {
            return;
        };
        crate::store::atomic_write_best_effort(&path, &m.to_kv());
    }

    /// Run one cold point on `worker`, with observer + counter bookkeeping.
    fn run_cold(&self, bench_idx: usize, key: CfgKey, worker: usize) -> MachineMetrics {
        let name = self.suite.workloads[bench_idx].name;
        self.counters.count(CacheSource::Cold);
        if let Some(obs) = &self.obs {
            obs.sim_started(name, &key, worker);
        }
        let t = Instant::now();
        let m = Self::run_one(&self.suite.workloads[bench_idx], key);
        self.disk_store(bench_idx, key, &m);
        if let Some(obs) = &self.obs {
            obs.sim_finished(
                name,
                &key,
                worker,
                CacheSource::Cold,
                t.elapsed().as_millis() as u64,
                m.cycles,
            );
        }
        m
    }

    /// Count a disk-store hit and surface it to the observer.
    fn note_disk_hit(&self, bench_idx: usize, key: CfgKey, worker: usize, m: &MachineMetrics) {
        self.counters.count(CacheSource::Disk);
        if let Some(obs) = &self.obs {
            obs.sim_finished(
                self.suite.workloads[bench_idx].name,
                &key,
                worker,
                CacheSource::Disk,
                0,
                m.cycles,
            );
        }
    }

    /// Metrics for one (benchmark, configuration) point, simulated at most
    /// once per runner (and, with the disk store, at most once per machine
    /// per simulator revision).
    pub fn metrics(&self, bench_idx: usize, key: CfgKey) -> MachineMetrics {
        if let Some(m) = self.cache.lock().unwrap().get(&(bench_idx, key)) {
            self.counters.count(CacheSource::Mem);
            return m.clone();
        }
        let m = match self.disk_load(bench_idx, key) {
            Some(m) => {
                self.note_disk_hit(bench_idx, key, 0, &m);
                m
            }
            None => self.run_cold(bench_idx, key, 0),
        };
        self.cache
            .lock()
            .unwrap()
            .insert((bench_idx, key), m.clone());
        m
    }

    /// Simulate the given points in parallel across host threads, filling
    /// the cache (results are deterministic regardless of scheduling — the
    /// simulator itself is single-threaded and seeded).  The thread count
    /// is [`Runner::set_hosts`] if pinned, else [`default_hosts`].
    pub fn warm(&self, points: &[(usize, CfgKey)]) {
        self.warm_with_hosts(points, self.hosts.unwrap_or_else(default_hosts));
    }

    /// [`Runner::warm`] with an explicit host-thread count (determinism
    /// tests sweep this to show results do not depend on scheduling).
    pub fn warm_with_hosts(&self, points: &[(usize, CfgKey)], hosts: usize) {
        let mut pending: Vec<(usize, CfgKey)> = {
            let cache = self.cache.lock().unwrap();
            points
                .iter()
                .copied()
                .filter(|p| !cache.contains_key(p))
                .collect()
        };
        // Satisfy what we can from the disk store before spawning workers.
        if self.disk.is_some() {
            pending.retain(|&(bench, key)| match self.disk_load(bench, key) {
                Some(m) => {
                    self.note_disk_hit(bench, key, 0, &m);
                    self.cache.lock().unwrap().insert((bench, key), m);
                    false
                }
                None => true,
            });
        }
        if pending.is_empty() {
            return;
        }
        let hosts = hosts.max(1).min(pending.len());
        let next = AtomicUsize::new(0);
        let me = self;
        let pending = &pending;
        let next = &next;
        std::thread::scope(|s| {
            for worker in 0..hosts {
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(bench, key)) = pending.get(i) else {
                        return;
                    };
                    let m = me.run_cold(bench, key, worker);
                    me.cache.lock().unwrap().insert((bench, key), m);
                });
            }
        });
    }

    /// Warm every benchmark under every given configuration.
    pub fn warm_all_benches(&self, keys: &[CfgKey]) {
        let points: Vec<(usize, CfgKey)> = (0..self.suite.workloads.len())
            .flat_map(|b| keys.iter().map(move |&k| (b, k)))
            .collect();
        self.warm(&points);
    }

    /// Number of distinct simulations performed so far.
    pub fn simulations(&self) -> usize {
        self.cache.lock().unwrap().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfgkey_builds_the_paper_machine() {
        let cfg = CfgKey::paper(ProcPreset::WthWpWec, 8).build();
        assert_eq!(cfg.n_tus, 8);
        assert_eq!(cfg.core.width, 8);
        assert!(cfg.core.wrong_path_loads);
        assert_eq!(cfg.l1d.capacity_bytes, 8 * 1024);
        assert_eq!(cfg.l1d.side_entries, 8);
        assert_eq!(cfg.l2.capacity_bytes, 512 * 1024);
    }

    #[test]
    fn table3_key_matches_config_table3() {
        for tus in [1usize, 2, 4, 8, 16] {
            let a = CfgKey::table3(tus).build();
            let b = MachineConfig::table3(tus).unwrap();
            assert_eq!(a.core.width, b.core.width);
            assert_eq!(a.l1d.capacity_bytes, b.l1d.capacity_bytes);
            assert_eq!(a.l1d.ways, b.l1d.ways);
        }
    }

    #[test]
    fn preset_applied_after_width_override() {
        let mut key = CfgKey::paper(ProcPreset::Wp, 2);
        key.width = 4;
        let cfg = key.build();
        assert_eq!(cfg.core.width, 4);
        assert!(
            cfg.core.wrong_path_loads,
            "wp switch lost by width override"
        );
    }
}
