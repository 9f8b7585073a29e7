//! Construction fingerprints: FNV-1a hashes of the generated graph, the
//! `multilevel_partition` assignment and `prepare`'s adjacency plus HDN
//! lists, for inputs the 400/600-node golden workloads never reach:
//!
//! * a dense Reddit-shaped graph whose edge sampling runs all 8 top-up
//!   rounds and then truncates the surplus;
//! * Pubmed and Flickr scales that recurse through several bisection
//!   levels;
//! * a Graph500 R-MAT graph.
//!
//! The constants were computed before graph construction and the
//! partitioner were rewritten for speed (merge-based edge dedup, direct
//! CSR builds, bitmap contraction, incremental refinement); every such
//! rewrite must keep them. They are asserted under the default execution
//! mode, forced-serial and 4 workers.

use grow::accel::{prepare, PartitionStrategy};
use grow::graph::{Graph, RmatGraphSpec};
use grow::model::{DatasetKey, DatasetSpec, GcnWorkload};
use grow::partition::{multilevel_partition, MultilevelConfig};
use grow::sim::exec::{with_mode, with_workers};
use grow::sim::ExecMode;
use grow::sparse::CsrPattern;

const SEED: u64 = 42;

/// 64-bit FNV-1a over a little-endian byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u32s(&mut self, xs: &[u32]) {
        for x in xs {
            self.bytes(&x.to_le_bytes());
        }
    }

    fn usizes(&mut self, xs: &[usize]) {
        for &x in xs {
            self.bytes(&(x as u64).to_le_bytes());
        }
    }

    fn pattern(&mut self, p: &CsrPattern) {
        self.usizes(&[p.rows(), p.cols()]);
        self.usizes(p.indptr());
        self.u32s(p.indices());
    }
}

/// `[graph, assignment, prepared]` hashes of one case.
type Fingerprint = [u64; 3];

struct Case {
    name: &'static str,
    /// Dataset spec sizing the features `prepare` needs (and, for the
    /// community cases, generating the graph).
    spec: DatasetSpec,
    /// Set for the R-MAT case: the graph comes from this spec instead.
    rmat: Option<RmatGraphSpec>,
    cluster_nodes: usize,
    expect: Fingerprint,
}

fn cases() -> Vec<Case> {
    // Reddit's shape (2 planted communities, exponent 2.2, mostly
    // unshuffled) at density 0.25: sampling needs every one of the 8
    // top-up rounds and the last overshoots, so the list is truncated.
    let mut reddit = DatasetKey::Reddit.spec().scaled_to(600);
    reddit.avg_degree = 150.0;
    vec![
        Case {
            name: "reddit_dense_600",
            spec: reddit,
            rmat: None,
            cluster_nodes: 128,
            expect: [
                0x408b_ffeb_c614_cef8,
                0xfd9c_1e28_1f3d_2d80,
                0xb41d_762d_c552_f351,
            ],
        },
        Case {
            name: "pubmed_3000",
            spec: DatasetKey::Pubmed.spec().scaled_to(3000),
            rmat: None,
            cluster_nodes: 375,
            expect: [
                0x29cb_88aa_9c8a_5978,
                0x711f_d52f_a1da_fd8e,
                0x0be5_4bf3_f887_6c39,
            ],
        },
        Case {
            name: "flickr_4000",
            spec: DatasetKey::Flickr.spec().scaled_to(4000),
            rmat: None,
            cluster_nodes: 250,
            expect: [
                0x4278_6b74_fa96_dafd,
                0x4ef8_e30b_ca19_eb0d,
                0x134c_c578_cf1e_07d6,
            ],
        },
        Case {
            name: "rmat_graph500_s11",
            spec: DatasetKey::Cora.spec().scaled_to(2048),
            rmat: Some(RmatGraphSpec::graph500(11, 16.0)),
            cluster_nodes: 256,
            expect: [
                0x42e7_9327_f3aa_39de,
                0x22f7_6dce_b1f9_91bd,
                0xabf9_67ac_3d7a_4e14,
            ],
        },
    ]
}

fn fingerprint(case: &Case) -> Fingerprint {
    let graph: Graph = match case.rmat {
        Some(rmat) => rmat.generate(SEED),
        None => case.spec.graph_spec().generate(SEED),
    };
    let mut h = Fnv::new();
    h.pattern(graph.adjacency());
    let graph_hash = h.0;

    let parts = graph.nodes().div_ceil(case.cluster_nodes);
    let partition = multilevel_partition(&graph, parts, &MultilevelConfig::default());
    let mut h = Fnv::new();
    h.usizes(&[partition.parts()]);
    h.u32s(partition.assignment());
    let assignment_hash = h.0;

    let workload = GcnWorkload::with_graph(&case.spec, graph, SEED);
    let strategy = PartitionStrategy::Multilevel {
        cluster_nodes: case.cluster_nodes,
    };
    let prepared = prepare(&workload, strategy, 4096);
    let mut h = Fnv::new();
    h.pattern(&prepared.adjacency);
    for range in &prepared.clusters {
        h.usizes(&[range.start, range.end]);
    }
    for list in &prepared.hdn_lists {
        h.usizes(&[list.len()]);
        h.u32s(list);
    }
    [graph_hash, assignment_hash, h.0]
}

fn check_all(mode: &str, run: impl Fn(&Case) -> Fingerprint) {
    let mut mismatches = Vec::new();
    for case in cases() {
        let got = run(&case);
        if got != case.expect {
            mismatches.push(format!(
                "{} [{mode}]: got [{:#018x}, {:#018x}, {:#018x}], expected [{:#018x}, {:#018x}, {:#018x}]",
                case.name,
                got[0],
                got[1],
                got[2],
                case.expect[0],
                case.expect[1],
                case.expect[2]
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn construction_fingerprints_hold_by_default() {
    check_all("default", fingerprint);
}

#[test]
fn construction_fingerprints_hold_forced_serial() {
    check_all("serial", |case| {
        with_mode(ExecMode::Serial, || fingerprint(case))
    });
}

#[test]
fn construction_fingerprints_hold_on_four_workers() {
    check_all("workers=4", |case| with_workers(4, || fingerprint(case)));
}
