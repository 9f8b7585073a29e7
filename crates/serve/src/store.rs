//! [`ResultStore`] — the cross-process, on-disk report cache of the
//! serving layer.
//!
//! Completed [`RunReport`]s are persisted under a store directory
//! (`results/store/` by convention), one file per canonical
//! [`JobKey`], so repeated fleet-wide queries are cache
//! hits *across service restarts*: a fresh
//! [`BatchService`](crate::BatchService) or
//! [`AsyncService`](crate::AsyncService) pointed at the same directory
//! serves the whole fleet without running a single simulation.
//!
//! The format is the same std-only machinery the golden snapshots use — a
//! versioned, line-oriented text rendering of every report field, one
//! counter per token. `u64` counters render exactly; `f64` fields use
//! Rust's shortest round-trip formatting, so a parsed report is
//! **bit-identical** to the one persisted. Files are written to a
//! temporary name and renamed into place, so concurrent processes never
//! observe a half-written entry.
//!
//! Trust boundary: every entry (`grow-store v2`) ends with a `checksum`
//! line, a 64-bit FNV-1a hash of every byte before it. Files that fail
//! the checksum or fail to parse — truncated writes, edited counters,
//! foreign bytes, stale formats such as `grow-store v1` — are
//! *quarantined* (renamed to `*.corrupt`) and reported as misses, never
//! served. Only successful reports are ever persisted; failed jobs have
//! no representation here.
//!
//! **Partition entries.** Beside the reports, the store keeps the one
//! preprocessing result worth persisting: each partitioned preparation's
//! node-to-part assignment (`<hash>.partition`, 4 B of information per
//! node), so a restarted service — or a session re-instantiated after
//! LRU eviction — prepares from it instead of re-running the partitioner.
//! Everything else a preparation holds (relabeled `A + I`, HDN lists,
//! seed-derived feature patterns) is cheap to re-derive or too large to
//! be worth the disk. An entry names its full partition key (dataset
//! recipe, seed, strategy and partitioner configuration) and a
//! fingerprint of the graph it was computed on, and a checksum seals
//! every byte before it, as in a report entry. An entry that does not
//! parse, names another key, fails the fingerprint or the checksum, has
//! the wrong length, or holds a part id out of range is quarantined like
//! a report and the assignment recomputed. Partition entries never touch
//! [`StoreStats`], [`ResultStore::len`] or the fault-injection sites:
//! those describe reports only.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use grow_core::registry;
use grow_core::{
    ClusterProfile, LayerReport, MultiPeSummary, Partitioning, PhaseKind, PhasePeBusy, PhaseReport,
    RunReport, SchedulerKind,
};
use grow_model::GcnWorkload;
use grow_sim::fault::{self, FaultSite};
use grow_sim::{CacheStats, TrafficClass, TrafficStats};

use crate::batch::JobKey;

/// Format tag of the current store layout; bump on incompatible changes
/// (old entries then quarantine on first touch and are recomputed).
const FORMAT_HEADER: &str = "grow-store v2";

/// Extension of live entries.
const ENTRY_EXT: &str = "report";

/// Format tag of partition entries; bump on incompatible changes.
const PARTITION_HEADER: &str = "grow-partition v1";

/// Extension of live partition entries.
const PARTITION_EXT: &str = "partition";

/// The graph a persisted partition assignment was computed on: node
/// count, directed edge count, and a word-wise hash of its adjacency
/// pattern. A partition entry is served only to a preparation whose
/// graph has the same fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GraphFingerprint {
    nodes: usize,
    directed_edges: usize,
    /// Hash of the adjacency's row pointers and column indices.
    adjacency_hash: u64,
}

impl GraphFingerprint {
    /// Fingerprints the workload's graph.
    pub(crate) fn of(workload: &GcnWorkload) -> Self {
        let graph = &workload.graph;
        let adjacency = graph.adjacency();
        GraphFingerprint {
            nodes: graph.nodes(),
            directed_edges: graph.directed_edges(),
            adjacency_hash: pattern_hash(adjacency.indptr(), adjacency.indices()),
        }
    }
}

/// Counters of one store's lifetime (per process; the directory itself is
/// shared across processes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Entries served (parsed and key-verified).
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Reports written.
    pub persisted: u64,
    /// Unreadable/corrupt entries renamed to `*.corrupt` and skipped.
    pub quarantined: u64,
}

/// Outcome of a full-store audit — see [`ResultStore::scrub`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Entries that parsed, named this build's registry, and live at the
    /// path their embedded key hashes to.
    pub live: u64,
    /// Entries quarantined by this scrub (renamed to `*.corrupt`).
    pub quarantined: u64,
    /// Orphaned temporary files removed — the residue of a writer that
    /// died between `write` and `rename`.
    pub tmp_removed: u64,
    /// Other files left untouched (earlier `*.corrupt` evidence,
    /// subdirectories, foreign files).
    pub skipped: u64,
}

/// An on-disk [`RunReport`] cache keyed by canonical [`JobKey`]. See the
/// [module docs](self) for the format and trust model.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    stats: StoreStats,
}

impl ResultStore {
    /// Opens (creating if needed) the store directory.
    ///
    /// # Errors
    ///
    /// Returns any filesystem error from creating the directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ResultStore {
            dir,
            stats: StoreStats::default(),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// This process's lifetime counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Number of live report entries currently on disk (quarantined files
    /// and partition entries are not counted).
    pub fn len(&self) -> usize {
        fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == ENTRY_EXT))
                    .count()
            })
            .unwrap_or(0)
    }

    /// True when the store holds no live report entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// File path an entry for `key` lives at: a 128-bit FNV-1a content
    /// hash of the canonical key string (two independent 64-bit streams),
    /// stable across processes and sessions. The full key is embedded in
    /// the entry and verified on load.
    pub fn entry_path(&self, key: &JobKey) -> PathBuf {
        self.hashed_path(key.as_str(), ENTRY_EXT)
    }

    /// `<128-bit hash of key>.<ext>` under the store directory.
    fn hashed_path(&self, key: &str, ext: &str) -> PathBuf {
        let bytes = key.as_bytes();
        self.dir.join(format!(
            "{:016x}{:016x}.{ext}",
            fnv1a64(bytes, FNV_BASIS),
            fnv1a64(bytes, 0x6c62_272e_07bb_0142)
        ))
    }

    /// Loads the report persisted for `key`, if a valid entry exists.
    /// A missing entry is a plain miss. Entries that cannot be read, are
    /// not UTF-8, fail to parse or belong to a different key are
    /// quarantined (renamed to `*.corrupt`) and reported as a miss.
    pub fn load(&mut self, key: &JobKey) -> Option<RunReport> {
        let path = self.entry_path(key);
        let read = fs::read(&path);
        if read
            .as_ref()
            .is_err_and(|e| e.kind() == io::ErrorKind::NotFound)
        {
            self.stats.misses += 1;
            return None;
        }
        // The 'store_read' fault injection site: an injected error makes
        // this entry read as corrupt (quarantine + miss, the job simply
        // recomputes); an injected panic unwinds into the caller's
        // supervisor, which fails the job as StoreCorrupt.
        if fault::check_scoped(FaultSite::StoreRead).is_err() {
            self.quarantine(&path);
            self.stats.misses += 1;
            return None;
        }
        let report = read
            .ok()
            .and_then(|bytes| String::from_utf8(bytes).ok())
            .and_then(|text| parse_entry(&text, key).ok());
        match report {
            Some(report) => {
                self.stats.hits += 1;
                Some(report)
            }
            None => {
                self.quarantine(&path);
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Persists `report` as the entry for `key` (overwriting any previous
    /// entry). The write goes to a temporary file first and is renamed
    /// into place, so a concurrent reader sees either the old entry or the
    /// new one, never a torn write.
    ///
    /// # Errors
    ///
    /// Returns any filesystem error; the store is left without a partial
    /// entry.
    pub fn persist(&mut self, key: &JobKey, report: &RunReport) -> io::Result<()> {
        let path = self.entry_path(key);
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        fs::write(&tmp, render_entry(key, report))?;
        // The 'store_write' fault injection site, deliberately placed
        // between write and rename: both the injected error and the
        // injected panic leave the temporary file orphaned — the exact
        // residue of a writer crashing mid-persist, which scrub() removes.
        if let Err(e) = fault::check_scoped(FaultSite::StoreWrite) {
            return Err(io::Error::other(e.to_string()));
        }
        match fs::rename(&tmp, &path) {
            Ok(()) => {
                self.stats.persisted += 1;
                Ok(())
            }
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Removes every live report and partition entry (quarantined files
    /// are kept for inspection).
    ///
    /// # Errors
    ///
    /// Returns the first filesystem error encountered.
    pub fn clear(&mut self) -> io::Result<()> {
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path
                .extension()
                .is_some_and(|x| x == ENTRY_EXT || x == PARTITION_EXT)
            {
                fs::remove_file(&path)?;
            }
        }
        Ok(())
    }

    /// Another handle on the same directory, with fresh counters — what a
    /// worker reads and writes partition entries through outside the
    /// service lock.
    pub(crate) fn reopen(&self) -> ResultStore {
        ResultStore {
            dir: self.dir.clone(),
            stats: StoreStats::default(),
        }
    }

    /// File path the partition entry for `key` (a partition key: dataset
    /// recipe, seed, strategy and partitioner configuration) lives at,
    /// hashed like [`entry_path`](Self::entry_path).
    pub(crate) fn partition_path(&self, key: &str) -> PathBuf {
        self.hashed_path(key, PARTITION_EXT)
    }

    /// Loads the assignment persisted for `key`, if a valid entry exists
    /// for a graph with this `fingerprint` split into `parts` parts. An
    /// entry that fails any check (see the [module docs](self)) is
    /// quarantined and reported as a miss. Never panics on file content,
    /// and counts nothing in [`StoreStats`].
    pub(crate) fn load_partition(
        &self,
        key: &str,
        fingerprint: &GraphFingerprint,
        parts: usize,
    ) -> Option<Partitioning> {
        let path = self.partition_path(key);
        let bytes = fs::read(&path).ok()?;
        let valid = std::str::from_utf8(&bytes)
            .ok()
            .and_then(|text| parse_partition(text).ok())
            .filter(|entry| {
                entry.key == key && entry.fingerprint == *fingerprint && entry.parts == parts
            });
        match valid {
            Some(entry) => Some(Partitioning::new(entry.assignment, entry.parts)),
            None => {
                quarantine_seen(&path, &bytes);
                None
            }
        }
    }

    /// Persists `partitioning` as the entry for `key`, computed on a graph
    /// with this `fingerprint`: written to a temporary file and renamed
    /// into place, like a report.
    ///
    /// # Errors
    ///
    /// Returns any filesystem error; the store is left without a partial
    /// entry.
    pub(crate) fn persist_partition(
        &self,
        key: &str,
        fingerprint: &GraphFingerprint,
        partitioning: &Partitioning,
    ) -> io::Result<()> {
        // Writers in one process may persist the same key at once (two
        // sessions of one graph), so each write gets its own tmp name.
        static WRITES: AtomicU64 = AtomicU64::new(0);
        let path = self.partition_path(key);
        let mut tmp = path.clone().into_os_string();
        tmp.push(format!(
            ".tmp{}-{}",
            std::process::id(),
            WRITES.fetch_add(1, Ordering::Relaxed)
        ));
        let tmp = PathBuf::from(tmp);
        fs::write(&tmp, render_partition(key, fingerprint, partitioning))?;
        fs::rename(&tmp, &path).inspect_err(|_| {
            let _ = fs::remove_file(&tmp);
        })
    }

    /// Audits the whole store directory and repairs what it can:
    ///
    /// * every live `*.report` and `*.partition` entry is parsed and its
    ///   embedded key is re-hashed — an entry that is unreadable,
    ///   malformed, or filed under the wrong name (bit rot, a foreign
    ///   tool, a hash mismatch) is quarantined exactly like a failed load
    ///   (a partition entry's graph fingerprint is checked at load, when
    ///   the graph is at hand);
    /// * orphaned `*.tmpNNN` files — the residue of a writer that died
    ///   between `write` and `rename` — are deleted;
    /// * everything else (earlier `*.corrupt` evidence, subdirectories)
    ///   is left untouched and counted as skipped.
    ///
    /// Deliberately *not* a fault injection point: scrub is the recovery
    /// protocol, so it must work on a store whose jobs are configured to
    /// fail. Directory order is sorted, so repeated scrubs of the same
    /// tree report identically.
    ///
    /// # Errors
    ///
    /// Returns the first filesystem error from listing the directory or
    /// removing a temporary file; quarantine failures are not errors (the
    /// entry is simply counted and retried on the next scrub).
    pub fn scrub(&mut self) -> io::Result<ScrubReport> {
        let mut report = ScrubReport::default();
        let mut paths: Vec<PathBuf> = fs::read_dir(&self.dir)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        paths.sort();
        for path in paths {
            if !path.is_file() {
                report.skipped += 1;
                continue;
            }
            let ext = path.extension().and_then(|x| x.to_str()).unwrap_or("");
            if ext.starts_with("tmp") {
                fs::remove_file(&path)?;
                report.tmp_removed += 1;
            } else if ext == ENTRY_EXT || ext == PARTITION_EXT {
                let verified = fs::read_to_string(&path).is_ok_and(|text| {
                    if ext == ENTRY_EXT {
                        parse_entry_any(&text).is_ok_and(|(key, _)| self.entry_path(&key) == path)
                    } else {
                        parse_partition(&text)
                            .is_ok_and(|entry| self.partition_path(entry.key) == path)
                    }
                });
                if verified {
                    report.live += 1;
                } else {
                    if quarantine_file(&path).is_some() && ext == ENTRY_EXT {
                        self.stats.quarantined += 1;
                    }
                    report.quarantined += 1;
                }
            } else {
                report.skipped += 1;
            }
        }
        Ok(report)
    }

    fn quarantine(&mut self, path: &Path) {
        if quarantine_file(path).is_some() {
            self.stats.quarantined += 1;
        }
    }
}

/// Renames `path` to its first free quarantine name and returns that
/// name. Each corruption of the same key gets its own quarantine file
/// (`.corrupt`, `.corrupt.1`, ...): renaming over an earlier quarantine
/// would silently destroy the evidence it preserves.
fn quarantine_file(path: &Path) -> Option<PathBuf> {
    let mut target = {
        let mut t = path.as_os_str().to_owned();
        t.push(".corrupt");
        PathBuf::from(t)
    };
    let mut suffix = 0u32;
    while target.exists() {
        suffix += 1;
        let mut t = path.as_os_str().to_owned();
        t.push(format!(".corrupt.{suffix}"));
        target = PathBuf::from(t);
    }
    fs::rename(path, &target).ok().map(|()| target)
}

/// Quarantines the partition entry at `path` only if it still holds
/// `seen`, the bytes a failed load read. Two sessions of one graph that
/// differ only in `hdn_id_entries` share the entry and may load it at
/// once: by the time the slower one quarantines, the faster one may have
/// quarantined the same bytes and persisted a recomputed, valid entry in
/// their place. The entry is renamed first and compared after, so no
/// writer can slip in between; a file that turns out to be another
/// writer's is renamed back. The partitioners are deterministic, so every
/// valid entry for a key holds the same bytes, and putting one back is
/// harmless even if yet another writer has landed meanwhile.
fn quarantine_seen(path: &Path, seen: &[u8]) {
    if let Some(target) = quarantine_file(path) {
        if fs::read(&target).is_ok_and(|moved| moved != seen) {
            let _ = fs::rename(&target, path);
        }
    }
}

/// The standard 64-bit FNV-1a offset basis: file names' first stream and
/// every entry's checksum.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a over `bytes` from the given basis (two bases give two
/// independent streams — a cheap, dependency-free 128-bit content hash).
fn fnv1a64(bytes: &[u8], basis: u64) -> u64 {
    let mut hash = basis;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Word-wise hash of a CSR pattern: four independent multiply-xor lanes
/// over pairs of column indices (so the multiplies pipeline), then the
/// row pointers, folded together with the lengths.
fn pattern_hash(indptr: &[usize], indices: &[u32]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mix = |lane: u64, word: u64| (lane ^ word).wrapping_mul(K);
    let mut lanes = [
        FNV_BASIS,
        0x6c62_272e_07bb_0142,
        0x2545_f491_4f6c_dd1d,
        0x1405_7b7e_f767_814f,
    ];
    let mut chunks = indices.chunks_exact(8);
    for chunk in &mut chunks {
        for (lane, pair) in lanes.iter_mut().zip(chunk.chunks_exact(2)) {
            *lane = mix(*lane, u64::from(pair[0]) | (u64::from(pair[1]) << 32));
        }
    }
    for &index in chunks.remainder() {
        lanes[0] = mix(lanes[0], u64::from(index));
    }
    for &row in indptr {
        lanes[1] = mix(lanes[1], row as u64);
    }
    lanes
        .into_iter()
        .fold(mix(indptr.len() as u64, indices.len() as u64), |h, lane| {
            let h = mix(h, lane);
            h ^ (h >> 29)
        })
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// Renders a partition entry: header, key, graph fingerprint, part count,
/// the assignment on one line, then a checksum of every byte before it.
fn render_partition(key: &str, fingerprint: &GraphFingerprint, p: &Partitioning) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(key.len() + 128 + 4 * p.nodes());
    let _ = writeln!(out, "{PARTITION_HEADER}");
    let _ = writeln!(out, "key {key}");
    let _ = writeln!(
        out,
        "graph {} {} {:016x}",
        fingerprint.nodes, fingerprint.directed_edges, fingerprint.adjacency_hash
    );
    let _ = writeln!(out, "parts {}", p.parts());
    out.push_str("assignment");
    for &part in p.assignment() {
        let _ = write!(out, " {part}");
    }
    out.push('\n');
    seal(out)
}

/// Appends the `checksum` line: a 64-bit FNV-1a hash of every byte
/// before it, which [`unseal`] verifies.
fn seal(mut out: String) -> String {
    use std::fmt::Write as _;
    let checksum = fnv1a64(out.as_bytes(), FNV_BASIS);
    let _ = writeln!(out, "checksum {checksum:016x}");
    out
}

/// Renders the full entry: header, key, and every report field, one
/// counter per token (the golden-snapshot discipline — a diff points at
/// the exact field that moved), then a checksum of every byte before it.
fn render_entry(key: &JobKey, report: &RunReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{FORMAT_HEADER}");
    let _ = writeln!(out, "key {}", key.as_str());
    let _ = writeln!(out, "engine {}", report.engine);
    let _ = writeln!(out, "exec {}", report.exec);
    match &report.multi_pe {
        Some(s) => {
            let _ = writeln!(
                out,
                "multi_pe {} {} {} {} {}",
                s.scheduler,
                s.pes,
                f64_token(s.makespan),
                f64_token(s.imbalance),
                f64_list(&s.per_pe_busy)
            );
        }
        None => {
            let _ = writeln!(out, "multi_pe none");
        }
    }
    let _ = writeln!(out, "layers {}", report.layers.len());
    for layer in &report.layers {
        render_phase(&mut out, &layer.combination);
        render_phase(&mut out, &layer.aggregation);
    }
    seal(out)
}

fn render_phase(out: &mut String, phase: &PhaseReport) {
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "phase {:?} {} {} {} {} {}",
        phase.kind,
        phase.cycles,
        phase.compute_busy,
        phase.mac_ops,
        phase.sram_reads_8b,
        phase.sram_writes_8b
    );
    let traffic: Vec<String> = TrafficClass::ALL
        .iter()
        .flat_map(|&class| {
            [
                phase.traffic.useful_bytes(class).to_string(),
                phase.traffic.fetched_bytes(class).to_string(),
                phase.traffic.requests(class).to_string(),
            ]
        })
        .collect();
    let _ = writeln!(out, "traffic {}", traffic.join(" "));
    let _ = writeln!(
        out,
        "cache {} {} {}",
        phase.cache.hits, phase.cache.misses, phase.cache.fills
    );
    let profiles: Vec<String> = phase
        .cluster_profiles
        .iter()
        .flat_map(|p| {
            [
                p.compute_cycles.to_string(),
                p.mem_bytes.to_string(),
                p.cycles.to_string(),
            ]
        })
        .collect();
    let _ = writeln!(out, "profiles {}", profiles.join(" "));
    match &phase.pe {
        Some(pe) => {
            let _ = writeln!(
                out,
                "pe {} {} {}",
                f64_token(pe.makespan),
                f64_token(pe.cluster_time),
                f64_list(&pe.per_pe_busy)
            );
        }
        None => {
            let _ = writeln!(out, "pe none");
        }
    }
}

/// `f64` as a single token. Rust's default formatting is the shortest
/// string that parses back to the exact same bits, so the store
/// round-trips floating-point fields losslessly.
fn f64_token(v: f64) -> String {
    format!("{v}")
}

fn f64_list(vs: &[f64]) -> String {
    let body: Vec<String> = vs.iter().map(|&v| f64_token(v)).collect();
    format!("[{}]", body.join(" "))
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Any deviation from the expected shape: the caller quarantines the file.
#[derive(Debug)]
struct Malformed;

type ParseResult<T> = Result<T, Malformed>;

fn parse_entry(text: &str, expect_key: &JobKey) -> ParseResult<RunReport> {
    let (key, report) = parse_entry_any(text)?;
    if key.as_str() != expect_key.as_str() {
        return Err(Malformed);
    }
    Ok(report)
}

/// Parses an entry without an expected key — the scrubber's view, which
/// discovers each entry's identity from the `key` line and re-verifies
/// the filename against it. An entry whose checksum does not match its
/// bytes is rejected before any field is read. A resealed edit that
/// still parses is rejected too unless the report re-renders to exactly
/// the entry's bytes and is self-consistent ([`self_consistent`]).
fn parse_entry_any(text: &str) -> ParseResult<(JobKey, RunReport)> {
    let (key, report) = parse_fields(text)?;
    if !self_consistent(&report) || render_entry(&key, &report) != text {
        return Err(Malformed);
    }
    Ok((key, report))
}

/// True if every `f64` field is finite and non-negative and every per-PE
/// list has one entry per PE of the run's multi-PE summary.
fn self_consistent(report: &RunReport) -> bool {
    let valid = |v: &f64| v.is_finite() && *v >= 0.0;
    let pes = report.multi_pe.as_ref().map(|s| s.pes);
    let summary = report.multi_pe.iter().all(|s| {
        [s.makespan, s.imbalance].iter().all(valid)
            && s.per_pe_busy.len() == s.pes
            && s.per_pe_busy.iter().all(valid)
    });
    let phases = report
        .layers
        .iter()
        .flat_map(|l| [&l.combination, &l.aggregation])
        .filter_map(|p| p.pe.as_ref())
        .all(|pe| {
            [pe.makespan, pe.cluster_time].iter().all(valid)
                && Some(pe.per_pe_busy.len()) == pes
                && pe.per_pe_busy.iter().all(valid)
        });
    summary && phases
}

/// Parses every field of a sealed entry, accepting any spelling the
/// field parsers accept.
fn parse_fields(text: &str) -> ParseResult<(JobKey, RunReport)> {
    let mut lines = unseal(text)?.lines();
    if lines.next() != Some(FORMAT_HEADER) {
        return Err(Malformed);
    }
    let key_line = lines.next().ok_or(Malformed)?;
    let key = key_line.strip_prefix("key ").ok_or(Malformed)?;
    let engine_line = lines.next().ok_or(Malformed)?;
    let engine_name = engine_line.strip_prefix("engine ").ok_or(Malformed)?;
    // Resolve the persisted label to the registry's 'static name — an
    // entry naming an engine this build does not know is untrusted.
    let engine = registry::engine_by_name(engine_name)
        .map_err(|_| Malformed)?
        .name();
    let exec_line = lines.next().ok_or(Malformed)?;
    let exec = match exec_line.strip_prefix("exec ").ok_or(Malformed)? {
        "post_hoc" => "post_hoc",
        "e2e" => "e2e",
        _ => return Err(Malformed),
    };
    let multi_pe = parse_multi_pe(lines.next().ok_or(Malformed)?)?;
    let layers_line = lines.next().ok_or(Malformed)?;
    let layer_count: usize = layers_line
        .strip_prefix("layers ")
        .ok_or(Malformed)?
        .parse()
        .map_err(|_| Malformed)?;
    // An adversarial header must not drive unbounded preallocation.
    if layer_count > 4096 {
        return Err(Malformed);
    }
    let mut layers = Vec::with_capacity(layer_count);
    for _ in 0..layer_count {
        let combination = parse_phase(&mut lines, PhaseKind::Combination)?;
        let aggregation = parse_phase(&mut lines, PhaseKind::Aggregation)?;
        layers.push(LayerReport {
            combination,
            aggregation,
        });
    }
    if lines.next().is_some() {
        return Err(Malformed); // trailing garbage
    }
    Ok((
        JobKey::from_raw(key.to_string()),
        RunReport {
            engine,
            layers,
            multi_pe,
            exec,
        },
    ))
}

fn parse_multi_pe(line: &str) -> ParseResult<Option<MultiPeSummary>> {
    let rest = line.strip_prefix("multi_pe ").ok_or(Malformed)?;
    if rest == "none" {
        return Ok(None);
    }
    let mut tokens = rest.split(' ');
    let scheduler = SchedulerKind::parse(tokens.next().ok_or(Malformed)?)
        .ok_or(Malformed)?
        .name();
    let pes = parse_token(tokens.next())?;
    let makespan = parse_f64(tokens.next())?;
    let imbalance = parse_f64(tokens.next())?;
    let per_pe_busy = parse_f64_list(&mut tokens)?;
    if tokens.next().is_some() {
        return Err(Malformed);
    }
    Ok(Some(MultiPeSummary {
        scheduler,
        pes,
        makespan,
        imbalance,
        per_pe_busy,
    }))
}

fn parse_phase<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    expect_kind: PhaseKind,
) -> ParseResult<PhaseReport> {
    let header = lines.next().ok_or(Malformed)?;
    let mut tokens = header.strip_prefix("phase ").ok_or(Malformed)?.split(' ');
    let kind = match tokens.next().ok_or(Malformed)? {
        "Combination" => PhaseKind::Combination,
        "Aggregation" => PhaseKind::Aggregation,
        _ => return Err(Malformed),
    };
    if kind != expect_kind {
        return Err(Malformed);
    }
    let mut phase = PhaseReport::new(kind);
    phase.cycles = parse_token(tokens.next())?;
    phase.compute_busy = parse_token(tokens.next())?;
    phase.mac_ops = parse_token(tokens.next())?;
    phase.sram_reads_8b = parse_token(tokens.next())?;
    phase.sram_writes_8b = parse_token(tokens.next())?;
    if tokens.next().is_some() {
        return Err(Malformed);
    }

    let traffic_line = lines.next().ok_or(Malformed)?;
    let mut tokens = traffic_line
        .strip_prefix("traffic ")
        .ok_or(Malformed)?
        .split(' ');
    let mut traffic = TrafficStats::new();
    for class in TrafficClass::ALL {
        let useful = parse_token(tokens.next())?;
        let fetched = parse_token(tokens.next())?;
        let requests = parse_token(tokens.next())?;
        traffic.record_bulk(class, useful, fetched, requests);
    }
    if tokens.next().is_some() {
        return Err(Malformed);
    }
    phase.traffic = traffic;

    let cache_line = lines.next().ok_or(Malformed)?;
    let mut tokens = cache_line
        .strip_prefix("cache ")
        .ok_or(Malformed)?
        .split(' ');
    phase.cache = CacheStats {
        hits: parse_token(tokens.next())?,
        misses: parse_token(tokens.next())?,
        fills: parse_token(tokens.next())?,
    };
    if tokens.next().is_some() {
        return Err(Malformed);
    }

    let profiles_line = lines.next().ok_or(Malformed)?;
    let rest = profiles_line.strip_prefix("profiles").ok_or(Malformed)?;
    let mut tokens = rest.split(' ').filter(|t| !t.is_empty()).peekable();
    while tokens.peek().is_some() {
        phase.cluster_profiles.push(ClusterProfile {
            compute_cycles: parse_token(tokens.next())?,
            mem_bytes: parse_token(tokens.next())?,
            cycles: parse_token(tokens.next())?,
        });
    }

    let pe_line = lines.next().ok_or(Malformed)?;
    let rest = pe_line.strip_prefix("pe ").ok_or(Malformed)?;
    phase.pe = if rest == "none" {
        None
    } else {
        let mut tokens = rest.split(' ');
        let makespan = parse_f64(tokens.next())?;
        let cluster_time = parse_f64(tokens.next())?;
        let per_pe_busy = parse_f64_list(&mut tokens)?;
        if tokens.next().is_some() {
            return Err(Malformed);
        }
        Some(PhasePeBusy {
            makespan,
            per_pe_busy,
            cluster_time,
        })
    };
    Ok(phase)
}

/// A partition entry that parsed and passed its checksum; the caller
/// still matches key, fingerprint and part count against its own.
#[derive(Debug)]
struct PartitionEntry<'a> {
    key: &'a str,
    fingerprint: GraphFingerprint,
    parts: usize,
    assignment: Vec<u32>,
}

/// The body of a [`seal`]ed entry: every byte before its final
/// `checksum` line, if the checksum matches them.
fn unseal(text: &str) -> ParseResult<&str> {
    let sealed = text.strip_suffix('\n').ok_or(Malformed)?;
    let body_end = sealed.rfind('\n').ok_or(Malformed)? + 1;
    // Only the rendered spelling (16 lower-case hex digits) is accepted,
    // so a flipped case bit or a sign cannot pass a checksum.
    let checksum = sealed[body_end..]
        .strip_prefix("checksum ")
        .filter(|hex| {
            hex.len() == 16 && hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
        })
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or(Malformed)?;
    let body = &text[..body_end];
    if fnv1a64(body.as_bytes(), FNV_BASIS) != checksum {
        return Err(Malformed);
    }
    Ok(body)
}

/// Parses a partition entry, checking everything the entry can check on
/// its own: the checksum over every byte before the `checksum` line, the
/// header, an assignment of exactly `nodes` part ids, each below `parts`.
/// Never panics and never allocates more than the text's size implies.
fn parse_partition(text: &str) -> ParseResult<PartitionEntry<'_>> {
    let body = unseal(text)?;
    let mut lines = body.lines();
    if lines.next() != Some(PARTITION_HEADER) {
        return Err(Malformed);
    }
    let key = lines
        .next()
        .and_then(|l| l.strip_prefix("key "))
        .ok_or(Malformed)?;
    let mut graph = lines
        .next()
        .and_then(|l| l.strip_prefix("graph "))
        .ok_or(Malformed)?
        .split(' ');
    let nodes: usize = parse_token(graph.next())?;
    let directed_edges = parse_token(graph.next())?;
    let adjacency_hash = graph
        .next()
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or(Malformed)?;
    if graph.next().is_some() {
        return Err(Malformed);
    }
    let parts: usize = parse_token(lines.next().and_then(|l| l.strip_prefix("parts ")))?;
    let ids = lines
        .next()
        .and_then(|l| l.strip_prefix("assignment"))
        .ok_or(Malformed)?;
    // Every id takes at least two bytes (" 0"): a node count the line
    // cannot hold is rejected before it sizes an allocation.
    if parts == 0 || parts > nodes.max(1) || nodes > ids.len() / 2 || lines.next().is_some() {
        return Err(Malformed);
    }
    let mut tokens = ids.split(' ');
    if tokens.next() != Some("") {
        return Err(Malformed);
    }
    let mut assignment = Vec::with_capacity(nodes);
    for token in tokens {
        let part: u32 = token.parse().map_err(|_| Malformed)?;
        if part as usize >= parts {
            return Err(Malformed);
        }
        assignment.push(part);
    }
    if assignment.len() != nodes {
        return Err(Malformed);
    }
    Ok(PartitionEntry {
        key,
        fingerprint: GraphFingerprint {
            nodes,
            directed_edges,
            adjacency_hash,
        },
        parts,
        assignment,
    })
}

fn parse_token<T: std::str::FromStr>(token: Option<&str>) -> ParseResult<T> {
    token.ok_or(Malformed)?.parse().map_err(|_| Malformed)
}

fn parse_f64(token: Option<&str>) -> ParseResult<f64> {
    parse_token(token)
}

/// Parses the remainder of a `[a b c]` list emitted by [`f64_list`]; the
/// tokens arrive bracketed because the list was space-joined.
fn parse_f64_list<'a>(tokens: &mut impl Iterator<Item = &'a str>) -> ParseResult<Vec<f64>> {
    let mut out = Vec::new();
    let first = tokens.next().ok_or(Malformed)?;
    let mut token = first.strip_prefix('[').ok_or(Malformed)?.to_string();
    loop {
        if let Some(last) = token.strip_suffix(']') {
            if !last.is_empty() {
                out.push(last.parse().map_err(|_| Malformed)?);
            }
            return Ok(out);
        }
        if token.is_empty() {
            return Err(Malformed);
        }
        out.push(token.parse().map_err(|_| Malformed)?);
        token = tokens.next().ok_or(Malformed)?.to_string();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(nodes: usize) -> GraphFingerprint {
        GraphFingerprint {
            nodes,
            directed_edges: 2 * nodes,
            adjacency_hash: 0x0123_4567_89ab_cdef,
        }
    }

    #[test]
    fn partition_entries_round_trip() {
        for (assignment, parts) in [(vec![], 1), (vec![0], 1), (vec![2, 0, 1, 1, 2], 3)] {
            let p = Partitioning::new(assignment, parts);
            let fp = fingerprint(p.nodes());
            let text = render_partition("k|seed=1", &fp, &p);
            let entry = parse_partition(&text).expect("parses");
            assert_eq!(entry.key, "k|seed=1");
            assert_eq!(entry.fingerprint, fp);
            assert_eq!(entry.parts, parts);
            assert_eq!(entry.assignment, p.assignment());
        }
    }

    #[test]
    fn partition_parser_checks_what_the_entry_holds() {
        let p = Partitioning::new(vec![1, 0, 1, 0], 2);
        let text = render_partition("key", &fingerprint(4), &p);
        let reseal = |body: &str| {
            format!(
                "{body}checksum {:016x}\n",
                fnv1a64(body.as_bytes(), FNV_BASIS)
            )
        };
        let body = &text[..text.rfind("checksum").unwrap()];
        assert!(
            parse_partition(&reseal(body)).is_ok(),
            "resealing is neutral"
        );
        let bad = [
            String::new(),
            text.replace("assignment 1 0", "assignment 0 0"), // checksum
            reseal(&body.replace(" 1 0 1 0", " 1 0 1")),      // length
            reseal(&body.replace(" 1 0 1 0", " 1 0 1 2")),    // part id
            reseal(&body.replace("parts 2", "parts 0")),
            reseal(&body.replace("parts 2", "parts 5")), // more parts than nodes
            reseal(&body.replace("assignment", "assignmentx")),
            reseal(&body.replace("graph 4 ", "graph 99999999999999 ")), // no allocation
            reseal(&body.replace("grow-partition v1", "grow-partition v0")),
            reseal(&format!("{body}extra\n")),
        ];
        for (i, text) in bad.iter().enumerate() {
            assert!(parse_partition(text).is_err(), "case {i} must be rejected");
        }
    }

    #[test]
    fn a_late_quarantine_leaves_a_recomputed_entry_in_place() {
        // Sessions A and B of one graph read the same corrupt entry. B
        // quarantines it and persists the recomputed assignment before
        // A's quarantine of the bytes it read runs.
        let dir =
            std::env::temp_dir().join(format!("grow-store-late-quarantine-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).expect("open");
        let (key, fp) = ("k|seed=1", fingerprint(4));
        let path = store.partition_path(key);
        fs::write(&path, "grow-partition v1\ntorn").expect("corrupt entry");
        let seen_by_a = fs::read(&path).expect("A reads");
        assert!(store.load_partition(key, &fp, 2).is_none(), "B quarantines");
        let valid = Partitioning::new(vec![1, 0, 1, 0], 2);
        store
            .persist_partition(key, &fp, &valid)
            .expect("B persists");
        quarantine_seen(&path, &seen_by_a);
        assert_eq!(store.load_partition(key, &fp, 2), Some(valid));
        let evidence: Vec<Vec<u8>> = fs::read_dir(&dir)
            .expect("dir")
            .map(|e| e.expect("entry").path())
            .filter(|p| p.to_string_lossy().contains(".corrupt"))
            .map(|p| fs::read(p).expect("evidence"))
            .collect();
        assert_eq!(evidence, [seen_by_a], "only the bytes read are evidence");
        // With the entry still unchanged, the quarantine goes ahead.
        let torn = b"grow-partition v1\n".to_vec();
        fs::write(&path, &torn).expect("corrupt again");
        quarantine_seen(&path, &torn);
        assert!(!path.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pattern_hash_sees_every_index_and_row_boundary() {
        let indptr = [0usize, 3, 5, 9, 10, 13];
        let indices: Vec<u32> = (0..13).collect();
        let base = pattern_hash(&indptr, &indices);
        for i in 0..indices.len() {
            let mut changed = indices.clone();
            changed[i] ^= 1 << (i % 32);
            assert_ne!(pattern_hash(&indptr, &changed), base, "index {i}");
        }
        assert_ne!(pattern_hash(&[0, 4, 5, 9, 10, 13], &indices), base);
        assert_ne!(pattern_hash(&indptr, &indices[..12]), base);
    }
}
