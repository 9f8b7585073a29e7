//! Functional correctness across the stack: the sparse kernels, the two
//! GCN execution orders, the normalized adjacency, and the MAC-count
//! analysis must all agree with each other and with the timing models.

use grow::graph::normalized_adjacency;
use grow::model::{reference, DatasetKey};
use grow::sparse::{analysis, ops, CsrMatrix, RowMajorSparse};

#[test]
fn execution_orders_agree_on_real_workload_shapes() {
    // Section II-B: (A*X)*W == A*(X*W) numerically; Figure 2 is only about
    // operation counts.
    let w = DatasetKey::Cora.spec().scaled_to(150).instantiate(5);
    let a = normalized_adjacency(&w.graph);
    let x = w.layers[0].x.materialize(9);
    let weights = reference::random_weights(&w, 9);
    let order_a = ops::gcn_layer_a_xw(&a, &x, &weights[0]).expect("shapes");
    let order_b = ops::gcn_layer_ax_w(&a, &x, &weights[0]).expect("shapes");
    assert!(order_a.approx_eq(&order_b, 1e-9));
}

#[test]
fn timing_model_mac_count_matches_analysis() {
    // The engines' reported MACs must equal the Figure 2 analysis count
    // for the A*(X*W) order.
    use grow::accel::{prepare, Accelerator, GrowEngine, PartitionStrategy};
    let w = DatasetKey::Citeseer.spec().scaled_to(400).instantiate(6);
    let prepared = prepare(&w, PartitionStrategy::None, 4096);
    let report = GrowEngine::default().run(&prepared);
    let expected: u64 = prepared
        .layers
        .iter()
        .map(|l| analysis::gcn_mac_counts(&prepared.adjacency, &l.x.view(), l.f_out).a_xw)
        .sum();
    assert_eq!(report.mac_ops(), expected);
}

#[test]
fn normalized_adjacency_keeps_feature_scale() {
    // Section II-A: normalization prevents features from changing scale.
    // Individual row sums of D^{-1/2}(A+I)D^{-1/2} may slightly exceed 1,
    // but the spectral radius is <= 1, so repeated aggregation of an
    // all-ones vector must stay bounded instead of growing per hop.
    // The iterate converges to the Perron vector (entries ~ sqrt(deg+1)),
    // so the right check is that the magnitude stops growing: ten more
    // hops must not increase the max (spectral radius <= 1), rather than
    // any fixed per-entry bound.
    let w = DatasetKey::Pubmed.spec().scaled_to(300).instantiate(8);
    let a = normalized_adjacency(&w.graph);
    let mut x = grow::sparse::DenseMatrix::from_fn(a.cols(), 1, |_, _| 1.0);
    let max_of = |m: &grow::sparse::DenseMatrix| {
        m.as_slice().iter().fold(0.0f64, |acc, &v| acc.max(v.abs()))
    };
    for _ in 0..10 {
        x = ops::spmm(&a, &x).expect("shapes");
    }
    let after_10 = max_of(&x);
    for _ in 0..10 {
        x = ops::spmm(&a, &x).expect("shapes");
    }
    let after_20 = max_of(&x);
    assert!(
        after_20 <= after_10 * 1.01,
        "aggregation kept growing: {after_10} -> {after_20}"
    );
    assert!(
        x.as_slice().iter().all(|&v| v >= 0.0),
        "values stay non-negative"
    );
}

#[test]
fn sparse_view_nnz_consistent_with_materialized_values() {
    let w = DatasetKey::Flickr.spec().scaled_to(600).instantiate(3);
    for layer in w.layers.iter() {
        let view: RowMajorSparse<'_> = layer.x.view();
        let materialized: CsrMatrix = layer.x.materialize(1);
        assert_eq!(view.nnz(), materialized.nnz());
        assert_eq!(view.rows(), materialized.rows());
    }
}

#[test]
fn two_layer_functional_pipeline_is_finite() {
    let w = DatasetKey::Cora.spec().scaled_to(200).instantiate(4);
    let weights = reference::random_weights(&w, 11);
    let out = reference::run_gcn(&w, &weights, 11).expect("shapes");
    assert!(out.as_slice().iter().all(|v| v.is_finite()));
    assert_eq!(out.shape(), (200, w.spec.feature_dims[2]));
}
