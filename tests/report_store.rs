//! Robustness of the result store's report entries (`grow-store v2`)
//! against damaged and edited files.
//!
//! The load-bearing properties:
//!
//! * an entry that is not UTF-8 is quarantined like one that fails its
//!   checksum, so the next persist of its key cannot rename over the
//!   evidence;
//! * a seeded mutation suite of raw damage — truncation at every line
//!   boundary and at seeded offsets, seeded bit flips (some leaving
//!   invalid UTF-8), a dropped line, a duplicated line, the checksum in
//!   upper case — never gets an entry served and never panics: every
//!   load misses and quarantines exactly the damaged bytes;
//! * token edits re-sealed with a valid checksum (a garbage token, a
//!   removed token, an oversized layer count, an unterminated `[` list)
//!   never panic and are never served: an entry is served only if its
//!   report re-renders to exactly its bytes and is self-consistent.

mod common;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use common::{body_lines, seal};
use grow::accel::{ExecModelKind, PartitionStrategy, RunReport};
use grow::model::DatasetKey;
use grow::serve::{BatchService, JobKey, JobSpec, ResultStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "grow-report-store-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `job` and persists its report in a fresh store; returns the
/// store's directory, the store and the report.
fn persisted(tag: &str, job: &JobSpec) -> (PathBuf, ResultStore, RunReport) {
    let dir = temp_dir(tag);
    let mut store = ResultStore::open(&dir).expect("open store");
    let report = BatchService::new().run_one(job).outcome.expect("valid job");
    store.persist(&job.key(), &report).expect("persist");
    (dir, store, report)
}

/// Where a first quarantine of `path` moves it.
fn evidence_path(path: &Path) -> PathBuf {
    let mut evidence = path.as_os_str().to_owned();
    evidence.push(".corrupt");
    PathBuf::from(evidence)
}

/// Writes `bytes` as the entry for `key` and loads it. A load that
/// serves nothing must have quarantined exactly `bytes`; the evidence is
/// then removed, so every call starts from an empty slot.
fn load_written(
    store: &mut ResultStore,
    key: &JobKey,
    bytes: &[u8],
    what: &str,
) -> Option<RunReport> {
    let path = store.entry_path(key);
    std::fs::write(&path, bytes).expect("write entry");
    let quarantined = store.stats().quarantined;
    let served = store.load(key);
    if served.is_none() {
        assert_eq!(store.stats().quarantined, quarantined + 1, "{what}");
        assert!(!path.exists(), "{what}: no longer a live entry");
        let evidence = evidence_path(&path);
        let kept = std::fs::read(&evidence).expect("evidence kept");
        assert_eq!(kept, bytes, "{what}: the evidence is the damaged bytes");
        std::fs::remove_file(&evidence).expect("remove evidence");
    }
    served
}

#[test]
fn a_non_utf8_entry_is_quarantined_not_left_in_place() {
    let job = JobSpec::new(DatasetKey::Cora.spec().scaled_to(300), 9, "grow");
    let (dir, mut store, report) = persisted("non-utf8", &job);
    let key = job.key();
    let path = store.entry_path(&key);
    let mut bytes = std::fs::read(&path).expect("entry");
    bytes[20] = 0xFF;
    assert!(std::str::from_utf8(&bytes).is_err());
    std::fs::write(&path, &bytes).expect("damage the entry");

    assert_eq!(store.load(&key), None, "never served");
    assert_eq!(store.stats().quarantined, 1);
    assert!(!path.exists(), "moved aside, not left in place");
    let evidence = evidence_path(&path);
    assert_eq!(std::fs::read(&evidence).expect("evidence"), bytes);

    // The next persist of the key writes a fresh entry beside the
    // evidence instead of renaming over it.
    store.persist(&key, &report).expect("persist again");
    assert_eq!(std::fs::read(&evidence).expect("evidence kept"), bytes);
    assert_eq!(store.load(&key), Some(report));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A job whose entry holds every line shape: a multi-PE summary and
/// per-phase PE lines with `[..]` lists, and several cluster profiles.
fn listed_job() -> JobSpec {
    JobSpec::new(DatasetKey::Cora.spec().scaled_to(300), 9, "grow")
        .with_strategy(PartitionStrategy::Multilevel { cluster_nodes: 100 })
        .with_pes(2)
        .with_exec_model(ExecModelKind::EndToEnd)
}

#[test]
fn raw_damage_to_a_report_entry_is_quarantined_never_served() {
    let job = listed_job();
    let (dir, mut store, report) = persisted("raw", &job);
    let key = job.key();
    let pristine = std::fs::read(store.entry_path(&key)).expect("entry");
    assert_eq!(
        load_written(&mut store, &key, &pristine, "pristine"),
        Some(report)
    );

    let mut rng = StdRng::seed_from_u64(0x005e_702e);
    let mut mutations: Vec<(String, Vec<u8>)> = Vec::new();
    mutations.push(("empty file".into(), Vec::new()));
    for (at, _) in pristine.iter().enumerate().filter(|(_, &b)| b == b'\n') {
        if at + 1 < pristine.len() {
            mutations.push((
                format!("truncated after line ending at {at}"),
                pristine[..=at].to_vec(),
            ));
        }
    }
    for trial in 0..8 {
        let cut = rng.random_range(1..pristine.len());
        mutations.push((
            format!("truncated at {cut} ({trial})"),
            pristine[..cut].to_vec(),
        ));
    }
    for trial in 0..48 {
        let mut flipped = pristine.clone();
        let at = rng.random_range(0..flipped.len());
        flipped[at] ^= 1 << rng.random_range(0..8u32);
        mutations.push((format!("bit flip at byte {at} ({trial})"), flipped));
    }
    let lines: Vec<&[u8]> = pristine.split_inclusive(|&b| b == b'\n').collect();
    let dropped = rng.random_range(0..lines.len());
    let mut without = lines.clone();
    without.remove(dropped);
    mutations.push((format!("line {dropped} dropped"), without.concat()));
    let doubled = rng.random_range(0..lines.len());
    let mut with = lines.clone();
    with.insert(doubled, lines[doubled]);
    mutations.push((format!("line {doubled} duplicated"), with.concat()));
    let text = String::from_utf8(pristine.clone()).expect("entries are text");
    let at = text.rfind("checksum ").expect("checksum line") + "checksum ".len();
    let upper = format!("{}{}", &text[..at], text[at..].to_ascii_uppercase());
    if upper != text {
        mutations.push(("checksum in upper case".into(), upper.into_bytes()));
    }

    let not_utf8 = mutations
        .iter()
        .filter(|(_, bytes)| std::str::from_utf8(bytes).is_err())
        .count();
    assert!(not_utf8 > 0, "some flips leave invalid UTF-8");
    for (what, bytes) in &mutations {
        assert_ne!(bytes, &pristine, "{what}: the mutation changes the entry");
        assert_eq!(
            load_written(&mut store, &key, bytes, what),
            None,
            "{what}: never served"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resealed_token_edits_never_panic_and_serve_only_what_round_trips() {
    let job = listed_job();
    let (dir, mut store, _) = persisted("resealed", &job);
    let key = job.key();
    let pristine = std::fs::read(store.entry_path(&key)).expect("entry");
    let lines = body_lines(&pristine);
    assert!(
        lines.iter().any(|l| l.contains('[')),
        "the entry holds lists"
    );

    const GARBAGE: [&str; 10] = [
        "",
        "x",
        "-1",
        "+7",
        "1e400",
        "NaN",
        "18446744073709551616",
        "[",
        "]",
        "[]",
    ];
    let mut rng = StdRng::seed_from_u64(0x002e_5ea1);
    let mut edits: Vec<(String, Vec<String>)> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let tokens: Vec<&str> = line.split(' ').collect();
        for j in 0..tokens.len() {
            let garbage = GARBAGE[rng.random_range(0..GARBAGE.len())];
            let mut replaced = tokens.clone();
            replaced[j] = garbage;
            let mut removed = tokens.clone();
            removed.remove(j);
            for (how, edited) in [
                (format!("{garbage:?}"), replaced),
                ("removed".into(), removed),
            ] {
                let mut edit = lines.clone();
                edit[i] = edited.join(" ");
                edits.push((format!("line {i} token {j} {how}"), edit));
            }
        }
        if let Some(open) = line.find('[') {
            let close = line[open..].find(']').expect("lists close") + open;
            let mut edit = lines.clone();
            edit[i] = line[..close].to_string();
            edits.push((format!("line {i} list unterminated"), edit));
        }
    }
    let layers = lines
        .iter()
        .position(|l| l.starts_with("layers "))
        .expect("layers line");
    for count in ["0", "1", "999999999", "18446744073709551615"] {
        let mut edit = lines.clone();
        edit[layers] = format!("layers {count}");
        edits.push((format!("layers {count}"), edit));
    }

    // Every edit that still parses is non-canonical (`+7` for `7`) or
    // inconsistent (a NaN makespan, a per-PE list one entry short of
    // `pes`), so none is served.
    for (what, edit) in &edits {
        let bytes = seal(edit);
        if bytes == pristine {
            continue;
        }
        assert_eq!(
            load_written(&mut store, &key, &bytes, what),
            None,
            "{what}: never served"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
