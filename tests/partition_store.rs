//! Robustness of the result store's partition entries — the persisted
//! node-to-part assignments a restarted service prepares from instead of
//! re-running the partitioner.
//!
//! The load-bearing properties:
//!
//! * a service with a store persists one `*.partition` entry per
//!   partitioned workload, and a later lifetime prepares new keys from
//!   it (`partitions_loaded`) with reports bit-identical to a storeless
//!   service;
//! * a seeded mutation suite — truncation, byte flips, a foreign key,
//!   another seed's fingerprint, a wrong node count, an out-of-range part
//!   id, an empty file — never gets an entry served and never panics:
//!   each one ends quarantined, the assignment is recomputed and
//!   re-persisted, and the report equals a fresh run;
//! * two sessions of one graph that differ only in `hdn_id_entries`
//!   share its entry; when both load a corrupt one at once, only the
//!   corrupt bytes are quarantined, never the entry the other recomputed;
//! * partition entries stay out of the report-side accounting
//!   (`len()`, `StoreStats`, the `store_write` fault site), `clear()`
//!   removes them, and `scrub()` audits them and reclaims their orphaned
//!   temporary files;
//! * the file names a default GROW job persists under — its report on
//!   `multilevel_default()` and on `None`, and its partition entry — are
//!   pinned as literals, so no change to a job or partition key lands
//!   unnoticed.

mod common;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use grow::accel::PartitionStrategy;
use grow::model::{DatasetKey, DatasetSpec};
use grow::serve::{AsyncConfig, AsyncService, BatchService, JobSpec, ResultStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const STRATEGY: PartitionStrategy = PartitionStrategy::Multilevel { cluster_nodes: 150 };

fn spec() -> DatasetSpec {
    DatasetKey::Pubmed.spec().scaled_to(900)
}

/// The job whose first run persists the partition entry.
fn first_job(seed: u64) -> JobSpec {
    JobSpec::new(spec(), seed, "grow").with_strategy(STRATEGY)
}

/// A key the first lifetime never ran, on the same workload.
fn new_job(seed: u64) -> JobSpec {
    first_job(seed).with_override("runahead", "4")
}

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "grow-partition-store-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Files in `dir` whose name ends with `suffix`, sorted.
fn files_ending(dir: &Path, suffix: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("store dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.to_string_lossy().ends_with(suffix))
        .collect();
    files.sort();
    files
}

/// Runs `job` on a fresh service over a store at `dir`; returns the
/// service for its counters.
fn serve(dir: &Path, job: &JobSpec) -> (grow::accel::RunReport, BatchService) {
    let mut service = BatchService::new().with_store(ResultStore::open(dir).expect("open store"));
    let report = service.run_one(job).outcome.expect("job runs");
    (report, service)
}

/// Persists the first job's entry in a fresh store; returns the store
/// directory and the entry's path and bytes.
fn persisted_entry(seed: u64) -> (PathBuf, PathBuf, Vec<u8>) {
    let dir = temp_dir("seed");
    let (_, service) = serve(&dir, &first_job(seed));
    assert_eq!(service.stats().partitions_loaded, 0);
    let entries = files_ending(&dir, ".partition");
    assert_eq!(entries.len(), 1, "one partitioned workload, one entry");
    let bytes = std::fs::read(&entries[0]).expect("read entry");
    (dir, entries[0].clone(), bytes)
}

/// Replaces line `index` of the entry and re-seals its checksum.
fn reseal_with_line(entry: &[u8], index: usize, line: &str) -> Vec<u8> {
    let mut lines = common::body_lines(entry);
    lines[index] = line.to_string();
    common::seal(&lines)
}

fn line(entry: &[u8], index: usize) -> String {
    String::from_utf8_lossy(entry)
        .lines()
        .nth(index)
        .expect("line")
        .to_string()
}

#[test]
fn new_keys_prepare_from_the_stored_assignment() {
    let (dir, entry, bytes) = persisted_entry(21);
    let fresh = BatchService::new()
        .run_one(&new_job(21))
        .outcome
        .expect("fresh run");
    let (report, service) = serve(&dir, &new_job(21));
    let stats = service.stats();
    assert_eq!(
        report, fresh,
        "a loaded assignment prepares bit-identically"
    );
    assert_eq!(stats.preparations_run, 1);
    assert_eq!(stats.partitions_loaded, 1, "no partitioner ran");
    assert_eq!(stats.store_hits, 0, "a new key, not a stored report");
    assert_eq!(std::fs::read(&entry).expect("entry"), bytes, "entry kept");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mutated_partition_entries_are_quarantined_and_recomputed() {
    let (dir, entry, pristine) = persisted_entry(21);
    let name = entry.file_name().expect("file name").to_owned();
    let (other_dir, _, other_seed) = persisted_entry(22);
    let fresh = BatchService::new()
        .run_one(&new_job(21))
        .outcome
        .expect("fresh run");

    let mut rng = StdRng::seed_from_u64(0x9a27);
    let mut mutations: Vec<(String, Vec<u8>)> = Vec::new();
    for trial in 0..4 {
        let cut = rng.random_range(0..pristine.len());
        mutations.push((
            format!("truncated at {cut} ({trial})"),
            pristine[..cut].to_vec(),
        ));
    }
    for trial in 0..8 {
        let mut flipped = pristine.clone();
        let at = rng.random_range(0..flipped.len());
        flipped[at] ^= 1 << rng.random_range(0..8u32);
        mutations.push((format!("bit flip at byte {at} ({trial})"), flipped));
    }
    mutations.push((
        "foreign key".into(),
        reseal_with_line(
            &pristine,
            1,
            &line(&pristine, 1).replace("seed=21", "seed=99"),
        ),
    ));
    mutations.push((
        "another seed's fingerprint".into(),
        reseal_with_line(&pristine, 2, &line(&other_seed, 2)),
    ));
    let graph = line(&pristine, 2);
    let mut fields: Vec<&str> = graph.split(' ').collect();
    let nodes: usize = fields[1].parse().expect("node count");
    let fewer = (nodes - 1).to_string();
    fields[1] = &fewer;
    mutations.push((
        "wrong node count".into(),
        reseal_with_line(&pristine, 2, &fields.join(" ")),
    ));
    let ids = line(&pristine, 4);
    let short = &ids[..ids.rfind(' ').expect("ids")];
    mutations.push((
        "assignment one id short".into(),
        reseal_with_line(&pristine, 4, short),
    ));
    let parts: usize = line(&pristine, 3)["parts ".len()..]
        .parse()
        .expect("part count");
    mutations.push((
        "part id >= parts".into(),
        reseal_with_line(&pristine, 4, &format!("{short} {parts}")),
    ));
    mutations.push(("empty file".into(), Vec::new()));
    // A flip that leaves a well-formed entry: one id moved to another
    // valid part. Only the checksum tells it from the real assignment.
    let mut moved: Vec<String> = ids.split(' ').map(str::to_string).collect();
    let first: usize = moved[1].parse().expect("first id");
    moved[1] = ((first + 1) % parts).to_string();
    let mut silent = pristine.clone();
    let at = line(&pristine, 0).len() + 1 + line(&pristine, 1).len() + 1;
    let at = at + line(&pristine, 2).len() + 1 + line(&pristine, 3).len() + 1;
    silent[at..at + ids.len()].copy_from_slice(moved.join(" ").as_bytes());
    mutations.push(("one id moved to another valid part".into(), silent));

    for (what, bytes) in mutations {
        assert_ne!(bytes, pristine, "{what}: the mutation changes the entry");
        let trial = temp_dir("mutation");
        std::fs::create_dir_all(&trial).expect("trial dir");
        let path = trial.join(&name);
        std::fs::write(&path, &bytes).expect("write mutated entry");
        let (report, service) = serve(&trial, &new_job(21));
        let stats = service.stats();
        assert_eq!(report, fresh, "{what}: report equals a fresh run");
        assert_eq!(stats.partitions_loaded, 0, "{what}: never served");
        assert_eq!(stats.preparations_run, 1, "{what}");
        let quarantined = files_ending(&trial, ".partition.corrupt");
        assert_eq!(quarantined.len(), 1, "{what}: quarantined");
        assert_eq!(std::fs::read(&quarantined[0]).expect("evidence"), bytes);
        assert_eq!(
            std::fs::read(&path).expect("re-persisted"),
            pristine,
            "{what}: the recomputed assignment is persisted again"
        );
        let store = service.store().expect("store attached");
        assert_eq!(store.stats().quarantined, 0, "{what}: reports only");
        let _ = std::fs::remove_dir_all(&trial);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&other_dir);
}

#[test]
fn persisted_entry_file_names_are_pinned() {
    // Entry names hash the job key and the partition key, so a change to
    // either orphans every entry an earlier build persisted. Such a
    // change must update these literals on purpose.
    let dir = temp_dir("names");
    let spec = DatasetKey::Pubmed.spec().scaled_to(4200);
    let multilevel =
        JobSpec::new(spec, 42, "grow").with_strategy(PartitionStrategy::multilevel_default());
    let (_, service) = serve(&dir, &multilevel);
    assert_eq!(
        files_ending(&dir, ".report"),
        [dir.join("b61e5c58da778ba9148387dd867b68c8.report")]
    );
    assert_eq!(
        files_ending(&dir, ".partition"),
        [dir.join("f4d5636bde398fa027250da2a112bbc5.partition")]
    );
    let store = service.store().expect("store attached");
    assert_eq!(
        store.entry_path(&JobSpec::new(spec, 42, "grow").key()),
        dir.join("c986b84ac87579b99f80d5450f5c8980.report")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_session_evicted_from_the_pool_prepares_from_its_stored_assignment() {
    let dir = temp_dir("evict");
    let other = JobSpec::new(DatasetKey::Cora.spec().scaled_to(400), 21, "gcnax");
    let mut service = BatchService::new()
        .with_store(ResultStore::open(&dir).expect("open store"))
        .with_session_capacity(1);
    for job in [first_job(21), other, new_job(21)] {
        assert!(service.run_one(&job).outcome.is_ok());
    }
    let stats = service.stats();
    assert_eq!(stats.sessions_created, 3, "the Pubmed session came back");
    assert_eq!(stats.sessions_evicted, 2);
    assert_eq!(stats.preparations_run, 3);
    assert_eq!(stats.partitions_loaded, 1, "its second preparation loaded");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_entry_filed_under_another_key_is_not_served() {
    // Seed 22's entry copied under seed 21's file name: its key line
    // names seed 22, so the load refuses it even though it is intact.
    let (dir, entry, _) = persisted_entry(21);
    let (other_dir, other_entry, other_bytes) = persisted_entry(22);
    std::fs::copy(&other_entry, &entry).expect("mis-file the entry");
    let (_, service) = serve(&dir, &new_job(21));
    assert_eq!(service.stats().partitions_loaded, 0);
    let quarantined = files_ending(&dir, ".partition.corrupt");
    assert_eq!(quarantined.len(), 1);
    assert_eq!(
        std::fs::read(&quarantined[0]).expect("evidence"),
        other_bytes
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&other_dir);
}

#[test]
fn sessions_differing_only_in_hdn_entries_quarantine_only_the_corrupt_bytes() {
    // Both jobs map to one partition entry but to two sessions, which two
    // workers prepare at once from a corrupt entry: each may read it, and
    // the slower one's quarantine must not move aside the entry the
    // faster one recomputed in its place.
    let (dir, entry, pristine) = persisted_entry(21);
    let name = entry.file_name().expect("file name").to_owned();
    let jobs = [new_job(21), new_job(21).with_hdn_id_entries(64)];
    let fresh: Vec<_> = jobs
        .iter()
        .map(|job| BatchService::new().run_one(job).outcome.expect("fresh run"))
        .collect();
    let corrupt = &pristine[..pristine.len() / 2];
    for trial in 0..4 {
        let store_dir = temp_dir("twin-sessions");
        std::fs::create_dir_all(&store_dir).expect("trial dir");
        std::fs::write(store_dir.join(&name), corrupt).expect("corrupt entry");
        let service = AsyncService::start(
            BatchService::new().with_store(ResultStore::open(&store_dir).expect("open")),
            AsyncConfig {
                workers: 2,
                ..AsyncConfig::default()
            },
        );
        let tickets: Vec<_> = jobs
            .iter()
            .map(|job| service.submit(job.clone()).expect("under the bound"))
            .collect();
        for (ticket, fresh) in tickets.into_iter().zip(&fresh) {
            let result = ticket.wait().expect("worker alive");
            assert_eq!(result.outcome.as_ref(), Ok(fresh), "trial {trial}");
        }
        let stats = service.finish().stats();
        assert_eq!(stats.preparations_run, 2, "trial {trial}: two sessions");
        assert!(
            stats.partitions_loaded <= 1,
            "trial {trial}: corrupt never served"
        );
        let evidence: Vec<Vec<u8>> = files_ending(&store_dir, "")
            .into_iter()
            .filter(|p| p.to_string_lossy().contains(".corrupt"))
            .map(|p| std::fs::read(p).expect("evidence"))
            .collect();
        assert_eq!(evidence, [corrupt], "trial {trial}: only the corrupt bytes");
        assert_eq!(
            std::fs::read(store_dir.join(&name)).expect("live entry"),
            pristine,
            "trial {trial}: the recomputed entry stays live"
        );
        let _ = std::fs::remove_dir_all(&store_dir);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn partition_entries_stay_out_of_report_accounting() {
    let dir = temp_dir("accounting");
    let jobs = [
        first_job(21),
        JobSpec::new(spec(), 21, "gcnax"),
        new_job(21),
        JobSpec::new(spec(), 23, "grow").with_strategy(STRATEGY),
    ];
    let mut service = BatchService::new().with_store(ResultStore::open(&dir).expect("open"));
    assert!(service.run_batch(&jobs).iter().all(|r| r.outcome.is_ok()));
    let store = service.store().expect("store attached");
    assert_eq!(store.len(), jobs.len(), "len counts reports only");
    assert_eq!(store.stats().persisted, jobs.len() as u64);
    assert_eq!(files_ending(&dir, ".partition").len(), 2, "seeds 21 and 23");

    let mut store = ResultStore::open(&dir).expect("reopen");
    let scrub = store.scrub().expect("scrub");
    assert_eq!(scrub.live, jobs.len() as u64 + 2, "scrub audits both kinds");
    assert_eq!(scrub.quarantined, 0);
    store.clear().expect("clear");
    assert!(store.is_empty());
    assert!(
        files_ending(&dir, ".partition").is_empty(),
        "clear removes them"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scrub_reclaims_orphaned_partition_tmp_files_and_audits_entries() {
    let (dir, entry, pristine) = persisted_entry(21);
    // A writer that died between write and rename leaves `<entry>.tmp*`.
    let mut orphan = entry.clone().into_os_string();
    orphan.push(".tmp4242-7");
    std::fs::write(&orphan, &pristine).expect("orphan");
    // And a second entry that rotted on disk.
    let rotten = dir.join("00000000000000000000000000000000.partition");
    std::fs::write(&rotten, "grow-partition v1\nkey nothing\n").expect("rotten");

    let mut store = ResultStore::open(&dir).expect("open");
    let scrub = store.scrub().expect("scrub");
    assert_eq!(scrub.tmp_removed, 1);
    assert_eq!(scrub.quarantined, 1, "the rotten entry");
    assert_eq!(scrub.live, 2, "the intact partition entry and the report");
    assert!(!PathBuf::from(&orphan).exists());
    assert_eq!(std::fs::read(&entry).expect("intact entry kept"), pristine);
    assert_eq!(
        store.stats().quarantined,
        0,
        "StoreStats count reports only"
    );
    let again = store.scrub().expect("rescrub");
    assert_eq!((again.tmp_removed, again.quarantined), (0, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn partition_writes_consume_no_store_fault_counts() {
    // `store_write:error:1` tears the first store write it sees. The
    // partition entry is written first and must not be that write: the
    // report's persist is torn, the partition entry lands intact.
    let dir = temp_dir("fault");
    let job = first_job(21).with_fault("store_write:error:1");
    let (_, service) = serve(&dir, &job);
    assert_eq!(service.store().expect("store").stats().persisted, 0);
    assert_eq!(files_ending(&dir, ".partition").len(), 1);
    let torn: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| {
            p.extension()
                .is_some_and(|x| x.to_string_lossy().starts_with("tmp"))
        })
        .collect();
    assert_eq!(torn.len(), 1, "only the report's write was torn");
    assert!(torn[0].to_string_lossy().contains(".tmp"));
    assert!(!torn[0].to_string_lossy().contains(".partition"));
    let (_, restarted) = serve(&dir, &new_job(21));
    assert_eq!(restarted.stats().partitions_loaded, 1);
    let _ = std::fs::remove_dir_all(&dir);
}
