//! Seeded-sweep property tests for the multi-PE scheduling subsystem,
//! directly over the fluid model on synthetic power-law cluster
//! workloads (`grow::accel::schedule::power_law_profiles`):
//!
//! * work-stealing's makespan never exceeds round-robin's;
//! * every makespan respects the single-cluster lower bound (no cluster
//!   can finish faster than running alone on the full channel);
//! * busy-cycle conservation: per-PE busy cycles and per-cluster
//!   in-system cycles are two groupings of the same time;
//! * with one PE all three schedulers coincide.
//!
//! Bandwidths are powers of two so the fluid arithmetic stays exact where
//! the properties claim exactness.

use grow::accel::multi_pe::{self, MultiPeRun};
use grow::accel::schedule::{power_law_profiles, SchedulerKind};
use grow::accel::ClusterProfile;

const BW: f64 = 4.0;

/// The seeded sweep: heavy-tailed workloads of several sizes and seeds.
///
/// Greedy dispatch is a heuristic, not a theorem — in regimes where every
/// policy balances equally well (very few clusters, or two PEs fighting
/// over the channel), round-robin can win by contention-alignment luck.
/// The sweep samples the regime the scheduler exists for (clusters ≫
/// PEs, heavy tail), where work-stealing's dominance is robust; a model
/// change that flips one of these fixed seeds deserves a human look.
fn sweep() -> Vec<(String, Vec<ClusterProfile>)> {
    let mut out = Vec::new();
    for n in [24usize, 48, 64, 96, 257] {
        for seed in 1..=8u64 {
            out.push((format!("n{n}_s{seed}"), power_law_profiles(n, seed)));
        }
    }
    out
}

fn runs(profiles: &[ClusterProfile], pes: usize) -> [MultiPeRun; 4] {
    SchedulerKind::ALL.map(|kind| multi_pe::simulate(profiles, pes, BW, kind))
}

#[test]
fn work_stealing_never_loses_to_round_robin() {
    for (name, profiles) in sweep() {
        for pes in [1, 2, 3, 4, 8, 16] {
            let rr = multi_pe::simulate(&profiles, pes, BW, SchedulerKind::RoundRobin);
            let ws = multi_pe::simulate(&profiles, pes, BW, SchedulerKind::WorkStealing);
            assert!(
                ws.makespan <= rr.makespan * (1.0 + 1e-9),
                "{name}/pes={pes}: ws {} vs rr {}",
                ws.makespan,
                rr.makespan
            );
        }
    }
}

#[test]
fn makespan_respects_the_single_cluster_lower_bound() {
    for (name, profiles) in sweep() {
        for pes in [1, 4, 16] {
            let total_bw = pes as f64 * BW;
            // A cluster alone on the full channel cannot finish faster
            // than max(compute, transfer); the makespan covers the
            // slowest cluster's full execution at least.
            let bound = profiles
                .iter()
                .map(|p| (p.compute_cycles as f64).max(p.mem_bytes as f64 / total_bw))
                .fold(0.0f64, f64::max);
            for run in runs(&profiles, pes) {
                assert!(
                    run.makespan >= bound * (1.0 - 1e-9),
                    "{name}/{}/pes={pes}: makespan {} below bound {bound}",
                    run.scheduler,
                    run.makespan
                );
            }
        }
    }
}

#[test]
fn busy_cycles_are_conserved() {
    for (name, profiles) in sweep() {
        for pes in [1, 3, 8] {
            for run in runs(&profiles, pes) {
                let busy: f64 = run.per_pe_busy.iter().sum();
                let cluster: f64 = run.cluster_cycles.iter().sum();
                assert_eq!(run.cluster_cycles.len(), profiles.len());
                assert_eq!(run.per_pe_busy.len(), pes);
                let rel = (busy - cluster).abs() / busy.max(1.0);
                assert!(
                    rel < 1e-9,
                    "{name}/{}/pes={pes}: busy {busy} vs cluster {cluster}",
                    run.scheduler
                );
                // Each PE is busy at most the whole makespan; the busiest
                // defines a floor on it.
                for &b in &run.per_pe_busy {
                    assert!(b <= run.makespan * (1.0 + 1e-9));
                }
            }
        }
    }
}

#[test]
fn one_pe_makes_all_schedulers_identical() {
    for (name, profiles) in sweep() {
        let [rr, lpt, ws, ca] = runs(&profiles, 1);
        // One PE serializes the same per-cluster durations under every
        // policy; lpt, ws, and ca visit them in their own orders rather
        // than index order, so sums agree up to float accumulation order.
        let close = |a: f64, b: f64| (a - b).abs() / b.max(1.0) < 1e-9;
        for other in [&lpt, &ws, &ca] {
            assert!(
                close(other.makespan, rr.makespan),
                "{name}: {} makespan {} vs rr {}",
                other.scheduler,
                other.makespan,
                rr.makespan
            );
            for (i, (&a, &b)) in other
                .cluster_cycles
                .iter()
                .zip(&rr.cluster_cycles)
                .enumerate()
            {
                assert!(
                    close(a, b),
                    "{name}/{}: cluster {i} duration diverged",
                    other.scheduler
                );
            }
        }
    }
}

#[test]
fn contention_aware_handles_the_ws_contention_alignment_cases() {
    // The documented greedy-dispatch failure mode: with clusters barely
    // exceeding the PE count, heaviest-first dispatch can line up several
    // memory-bound clusters against each other on the channel, and
    // round-robin wins by contention-alignment luck. These fixed seeds are
    // committed examples of exactly that (ws strictly loses to rr);
    // contention-aware dispatch interleaves the classes and must not lose
    // to either policy here.
    let cases = [(8usize, 36u64, 2usize), (8, 36, 3), (8, 26, 3), (12, 2, 2)];
    for (n, seed, pes) in cases {
        let profiles = power_law_profiles(n, seed);
        let rr = multi_pe::simulate(&profiles, pes, BW, SchedulerKind::RoundRobin);
        let ws = multi_pe::simulate(&profiles, pes, BW, SchedulerKind::WorkStealing);
        let ca = multi_pe::simulate(&profiles, pes, BW, SchedulerKind::ContentionAware);
        assert!(
            ws.makespan > rr.makespan * (1.0 + 1e-9),
            "n{n}_s{seed}/pes={pes}: expected a ws-loses-to-rr case \
             (ws {} vs rr {})",
            ws.makespan,
            rr.makespan
        );
        assert!(
            ca.makespan <= rr.makespan * (1.0 + 1e-9),
            "n{n}_s{seed}/pes={pes}: ca {} vs rr {}",
            ca.makespan,
            rr.makespan
        );
        assert!(
            ca.makespan <= ws.makespan * (1.0 + 1e-9),
            "n{n}_s{seed}/pes={pes}: ca {} vs ws {}",
            ca.makespan,
            ws.makespan
        );
    }
}

#[test]
fn contention_aware_stays_near_round_robin_everywhere() {
    // ca is a heuristic like the rest: no dominance theorem. But across
    // the committed sweep it must never lose to round-robin by more than
    // a percent — the guardrail that keeps the interleaving from
    // regressing into a pathological policy.
    for (name, profiles) in sweep() {
        for pes in [2, 3, 4, 8, 16] {
            let rr = multi_pe::simulate(&profiles, pes, BW, SchedulerKind::RoundRobin);
            let ca = multi_pe::simulate(&profiles, pes, BW, SchedulerKind::ContentionAware);
            assert!(
                ca.makespan <= rr.makespan * 1.01,
                "{name}/pes={pes}: ca {} vs rr {}",
                ca.makespan,
                rr.makespan
            );
        }
    }
}
