//! METIS-class multilevel recursive-bisection partitioner.
//!
//! The paper's preprocessing uses METIS (Karypis–Kumar [20]); this module
//! implements the same three-phase multilevel scheme natively:
//!
//! 1. **Coarsening** — heavy-edge matching collapses matched node pairs
//!    into weighted super-nodes until the graph is small;
//! 2. **Initial partitioning** — greedy region growing on the coarsest
//!    graph, best of several seeded trials;
//! 3. **Uncoarsening + refinement** — the bisection is projected back level
//!    by level, applying Fiduccia–Mattheyses-style boundary passes.
//!
//! k-way partitions are produced by recursive bisection with proportional
//! weight targets, exactly as classic METIS `pmetis`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use grow_graph::Graph;

use crate::Partitioning;

/// Tuning knobs of the multilevel partitioner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultilevelConfig {
    /// RNG seed for matching order and initial-partition trials.
    pub seed: u64,
    /// Stop coarsening when the graph has at most this many nodes.
    pub coarsen_until: usize,
    /// FM refinement passes per level.
    pub refine_passes: usize,
    /// Allowed imbalance: each side may deviate from its weight target by
    /// this fraction.
    pub balance_tolerance: f64,
    /// Number of seeded greedy-growing trials for the initial bisection.
    pub init_trials: usize,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        MultilevelConfig {
            seed: 0x6d65746973, // "metis"
            coarsen_until: 96,
            refine_passes: 4,
            balance_tolerance: 0.10,
            init_trials: 6,
        }
    }
}

/// Partitions `graph` into `parts` balanced parts by multilevel recursive
/// bisection.
///
/// # Panics
///
/// Panics if `parts == 0`.
///
/// ```
/// use grow_graph::Graph;
/// use grow_partition::{multilevel_partition, MultilevelConfig};
///
/// // Two triangles joined by one edge: the natural bisection cuts it.
/// let g = Graph::from_edges(6, [(0,1),(1,2),(2,0),(3,4),(4,5),(5,3),(2,3)]);
/// let p = multilevel_partition(&g, 2, &MultilevelConfig::default());
/// assert_eq!(p.edge_cut(&g), 1);
/// ```
pub fn multilevel_partition(
    graph: &Graph,
    parts: usize,
    config: &MultilevelConfig,
) -> Partitioning {
    assert!(parts > 0, "parts must be positive");
    let n = graph.nodes();
    if parts == 1 || n == 0 {
        return Partitioning::single(n);
    }
    if parts >= n {
        // Degenerate: one node per part (extra parts stay empty).
        let assignment = (0..n as u32).collect();
        return Partitioning::new(assignment, parts);
    }
    let wg = WGraph::from_graph(graph);
    let globals: Vec<u32> = (0..n as u32).collect();
    let mut assignment = vec![0u32; n];
    let mut rng = StdRng::seed_from_u64(config.seed);
    bisect_recursive(&wg, &globals, parts, 0, &mut assignment, config, &mut rng);
    Partitioning::new(assignment, parts)
}

/// Internal weighted graph (CSR with node and edge weights), the working
/// representation across coarsening levels.
#[derive(Debug, PartialEq)]
struct WGraph {
    xadj: Vec<usize>,
    adjncy: Vec<u32>,
    adjwgt: Vec<u64>,
    vwgt: Vec<u64>,
}

impl WGraph {
    fn from_graph(graph: &Graph) -> Self {
        let adj = graph.adjacency();
        WGraph {
            xadj: adj.indptr().to_vec(),
            adjncy: adj.indices().to_vec(),
            adjwgt: vec![1; adj.nnz()],
            vwgt: vec![1; graph.nodes()],
        }
    }

    fn nodes(&self) -> usize {
        self.vwgt.len()
    }

    fn total_weight(&self) -> u64 {
        self.vwgt.iter().sum()
    }

    fn neighbors(&self, v: usize) -> impl Iterator<Item = (u32, u64)> + '_ {
        let range = self.xadj[v]..self.xadj[v + 1];
        self.adjncy[range.clone()]
            .iter()
            .copied()
            .zip(self.adjwgt[range].iter().copied())
    }
}

/// Splits `wg` into `parts >= 2` parts numbered from `part_offset`,
/// writing each node's part to `assignment` at its global ID.
fn bisect_recursive(
    wg: &WGraph,
    globals: &[u32],
    parts: usize,
    part_offset: u32,
    assignment: &mut [u32],
    config: &MultilevelConfig,
    rng: &mut StdRng,
) {
    let left_parts = parts / 2;
    let right_parts = parts - left_parts;
    let target_left = (wg.total_weight() as f64 * left_parts as f64 / parts as f64).round() as u64;

    let side = bisect(wg, target_left, config, rng);

    // The halves run one after the other, left first: they draw from one
    // RNG stream, and how much the left half draws depends on its data.
    let halves = [
        (true, left_parts, part_offset),
        (false, right_parts, part_offset + left_parts as u32),
    ];
    for (want, parts, offset) in halves {
        let half_globals: Vec<u32> = (0..wg.nodes())
            .filter(|&v| side[v] == want)
            .map(|v| globals[v])
            .collect();
        if parts == 1 {
            for &g in &half_globals {
                assignment[g as usize] = offset;
            }
        } else {
            let half = induced_subgraph(wg, &side, want);
            bisect_recursive(&half, &half_globals, parts, offset, assignment, config, rng);
        }
    }
}

/// One complete multilevel bisection: returns `side[v] == true` for nodes
/// assigned to the left half (weight target `target_left`).
fn bisect(wg: &WGraph, target_left: u64, config: &MultilevelConfig, rng: &mut StdRng) -> Vec<bool> {
    // Coarsening phase: remember each level and its fine-to-coarse map.
    // Super-node weight is capped (as in METIS) so one coarse node cannot
    // dominate a side and wreck the balance of the initial partition.
    let max_vwgt = ((1.5 * wg.total_weight() as f64 / config.coarsen_until.max(8) as f64).ceil()
        as u64)
        .max(2);
    // `levels[i]` is the coarse graph of level `i + 1` with the map from
    // level `i` (level 0 is `wg` itself, borrowed).
    let mut levels: Vec<(WGraph, Vec<u32>)> = Vec::new();
    loop {
        let current = levels.last().map_or(wg, |(coarse, _)| coarse);
        if current.nodes() <= config.coarsen_until.max(8) {
            break;
        }
        let (coarse, map) = coarsen(current, max_vwgt, rng);
        let reduction = 1.0 - coarse.nodes() as f64 / current.nodes() as f64;
        levels.push((coarse, map));
        if reduction < 0.05 {
            break;
        }
    }

    // Initial partition on the coarsest graph.
    let coarsest = levels.last().map_or(wg, |(coarse, _)| coarse);
    let mut side = initial_bisection(coarsest, target_left, config, rng);
    refine(coarsest, &mut side, target_left, config);

    // Uncoarsen: project and refine at every level.
    while let Some((_, map)) = levels.pop() {
        let fine = levels.last().map_or(wg, |(coarse, _)| coarse);
        side = map.iter().map(|&c| side[c as usize]).collect();
        refine(fine, &mut side, target_left, config);
    }
    side
}

/// Heavy-edge matching: each unmatched node pairs with its unmatched
/// neighbor of maximum edge weight, subject to the super-node weight cap.
/// Returns the coarse graph and the fine-to-coarse node map.
fn coarsen(wg: &WGraph, max_vwgt: u64, rng: &mut StdRng) -> (WGraph, Vec<u32>) {
    let n = wg.nodes();
    const UNMATCHED: u32 = u32::MAX;
    let mut order: Vec<u32> = (0..n as u32).collect();
    // Fisher-Yates shuffle for a random visit order.
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
    let mut map = vec![UNMATCHED; n];
    let mut coarse_count = 0u32;
    for &v in &order {
        let v = v as usize;
        if map[v] != UNMATCHED {
            continue;
        }
        let mut best: Option<(u32, u64)> = None;
        for (u, w) in wg.neighbors(v) {
            if map[u as usize] == UNMATCHED
                && u as usize != v
                && wg.vwgt[v] + wg.vwgt[u as usize] <= max_vwgt
            {
                match best {
                    Some((_, bw)) if bw >= w => {}
                    _ => best = Some((u, w)),
                }
            }
        }
        map[v] = coarse_count;
        if let Some((u, _)) = best {
            map[u as usize] = coarse_count;
        }
        coarse_count += 1;
    }

    let coarse = contract(wg, &map, coarse_count as usize);
    (coarse, map)
}

/// Contracts `wg` along `map` (fine node -> one of `nc` coarse nodes): a
/// coarse node weighs the sum of its members, and a coarse edge the sum of
/// the fine edges joining two different coarse nodes. Rows list their
/// neighbors in ascending order.
fn contract(wg: &WGraph, map: &[u32], nc: usize) -> WGraph {
    let n = wg.nodes();
    let mut vwgt = vec![0u64; nc];
    for v in 0..n {
        vwgt[map[v] as usize] += wg.vwgt[v];
    }
    // Group fine nodes by coarse id.
    let mut members_start = vec![0usize; nc + 1];
    for v in 0..n {
        members_start[map[v] as usize + 1] += 1;
    }
    for c in 0..nc {
        members_start[c + 1] += members_start[c];
    }
    let mut members = vec![0u32; n];
    let mut cursor = members_start.clone();
    for v in 0..n {
        members[cursor[map[v] as usize]] = v as u32;
        cursor[map[v] as usize] += 1;
    }

    // Accumulate each coarse row in `accum` and mark its neighbors in a
    // bitmap: sorting only the touched 64-bit words emits them ascending.
    let mut accum = vec![0u64; nc];
    let mut bits = vec![0u64; nc.div_ceil(64)];
    let mut words: Vec<u32> = Vec::new();
    // A coarse graph has at most as many edges as the fine one.
    let mut xadj = Vec::with_capacity(nc + 1);
    let mut adjncy: Vec<u32> = Vec::with_capacity(wg.adjncy.len());
    let mut adjwgt: Vec<u64> = Vec::with_capacity(wg.adjncy.len());
    xadj.push(0);
    for c in 0..nc {
        for &v in &members[members_start[c]..members_start[c + 1]] {
            for (u, w) in wg.neighbors(v as usize) {
                let cu = map[u as usize] as usize;
                if cu == c {
                    continue;
                }
                let word = &mut bits[cu / 64];
                if *word == 0 {
                    words.push((cu / 64) as u32);
                }
                *word |= 1 << (cu % 64);
                accum[cu] += w;
            }
        }
        words.sort_unstable();
        for &word in &words {
            let mut set = std::mem::take(&mut bits[word as usize]);
            while set != 0 {
                let cu = word as usize * 64 + set.trailing_zeros() as usize;
                set &= set - 1;
                adjncy.push(cu as u32);
                adjwgt.push(std::mem::take(&mut accum[cu]));
            }
        }
        words.clear();
        xadj.push(adjncy.len());
    }
    WGraph {
        xadj,
        adjncy,
        adjwgt,
        vwgt,
    }
}

/// Greedy region growing: BFS from a random seed, always absorbing the
/// frontier node with the highest gain, until the left side reaches its
/// weight target. Best cut over `init_trials` trials wins.
fn initial_bisection(
    wg: &WGraph,
    target_left: u64,
    config: &MultilevelConfig,
    rng: &mut StdRng,
) -> Vec<bool> {
    let n = wg.nodes();
    let total = wg.total_weight();
    let target = target_left.min(total);
    let mut best: Option<(u64, Vec<bool>)> = None;
    for _ in 0..config.init_trials.max(1) {
        let mut side = vec![false; n];
        let mut weight = 0u64;
        let mut heap: std::collections::BinaryHeap<(i64, u32)> =
            std::collections::BinaryHeap::new();
        while weight < target {
            let v = match heap.pop() {
                Some((_, v)) if !side[v as usize] => v as usize,
                Some(_) => continue, // stale entry: node already absorbed
                None => {
                    // Frontier exhausted (disconnected component): restart
                    // from a random unassigned node.
                    let mut v = rng.random_range(0..n);
                    let mut guard = 0;
                    while side[v] && guard < 4 * n {
                        v = (v + 1) % n;
                        guard += 1;
                    }
                    v
                }
            };
            side[v] = true;
            weight += wg.vwgt[v];
            // Re-push every outside neighbor with its refreshed gain;
            // duplicates are harmless (stale entries are skipped above) and
            // keeping gains fresh is what makes region growing track
            // community boundaries.
            for (u, _) in wg.neighbors(v) {
                let u = u as usize;
                if !side[u] {
                    let gain: i64 = wg
                        .neighbors(u)
                        .map(|(x, w)| {
                            if side[x as usize] {
                                w as i64
                            } else {
                                -(w as i64)
                            }
                        })
                        .sum();
                    heap.push((gain, u as u32));
                }
            }
        }
        let cut = cut_weight(wg, &side);
        if best.as_ref().is_none_or(|(bc, _)| cut < *bc) {
            best = Some((cut, side));
        }
    }
    best.expect("at least one trial").1
}

fn cut_weight(wg: &WGraph, side: &[bool]) -> u64 {
    let mut cut = 0u64;
    for v in 0..wg.nodes() {
        for (u, w) in wg.neighbors(v) {
            if side[v] != side[u as usize] {
                cut += w;
            }
        }
    }
    cut / 2
}

/// FM-style boundary refinement: a balance-repair sweep (needed only right
/// after the initial partition, where region growing may overshoot its
/// target), then several passes of greedy positive-gain moves within the
/// balance window.
///
/// Gains come from [`SideWeights`], computed once and kept exact as nodes
/// move, so a pass costs a node scan plus the neighbors of the nodes it
/// moves.
fn refine(wg: &WGraph, side: &mut [bool], target_left: u64, config: &MultilevelConfig) {
    let n = wg.nodes();
    let total = wg.total_weight();
    let smaller_side = target_left.min(total - target_left).max(1);
    let tol = ((smaller_side as f64 * config.balance_tolerance) as u64).max(1);
    let mut left_weight: u64 = (0..n).filter(|&v| side[v]).map(|v| wg.vwgt[v]).sum();
    let min_left = target_left.saturating_sub(tol);
    let max_left = (target_left + tol).min(total);

    let mut weights = SideWeights::new(wg, side);

    // Balance repair: if outside the window, shed weight from the heavy
    // side, taking the least-damaging (highest-gain) movable nodes first.
    if left_weight > max_left || left_weight < min_left {
        let heavy_is_left = left_weight > max_left;
        let mut candidates: Vec<(i64, u32)> = (0..n)
            .filter(|&v| side[v] == heavy_is_left)
            .map(|v| (weights.gain(v), v as u32))
            .collect();
        candidates.sort_unstable_by(|a, b| b.cmp(a));
        for (_, v) in candidates {
            if left_weight <= max_left && left_weight >= min_left {
                break;
            }
            let v = v as usize;
            if heavy_is_left {
                left_weight -= wg.vwgt[v];
            } else {
                left_weight += wg.vwgt[v];
            }
            weights.flip(wg, side, v);
        }
    }

    let mut moves: Vec<(i64, u32)> = Vec::new();
    for _ in 0..config.refine_passes {
        moves.clear();
        moves.extend(
            (0..n)
                .map(|v| (weights.gain(v), v as u32))
                .filter(|&(gain, _)| gain > 0),
        );
        moves.sort_unstable_by(|a, b| b.cmp(a));
        let mut applied = 0usize;
        for &(_, v) in &moves {
            let v = v as usize;
            // Earlier moves in this pass may have changed the gain.
            if weights.gain(v) <= 0 {
                continue;
            }
            let new_left = if side[v] {
                left_weight.saturating_sub(wg.vwgt[v])
            } else {
                left_weight + wg.vwgt[v]
            };
            if new_left < min_left || new_left > max_left {
                continue;
            }
            weights.flip(wg, side, v);
            left_weight = new_left;
            applied += 1;
        }
        if applied == 0 {
            break;
        }
    }
}

/// Each node's edge weight to its own side (`internal`) and to the other
/// side (`external`), kept exact as nodes move.
struct SideWeights {
    internal: Vec<i64>,
    external: Vec<i64>,
}

impl SideWeights {
    fn new(wg: &WGraph, side: &[bool]) -> Self {
        let mut internal = vec![0i64; wg.nodes()];
        let mut external = vec![0i64; wg.nodes()];
        for v in 0..wg.nodes() {
            for (u, w) in wg.neighbors(v) {
                if side[u as usize] == side[v] {
                    internal[v] += w as i64;
                } else {
                    external[v] += w as i64;
                }
            }
        }
        SideWeights { internal, external }
    }

    /// How much moving `v` to the other side shrinks the cut.
    fn gain(&self, v: usize) -> i64 {
        self.external[v] - self.internal[v]
    }

    /// Moves `v` to the other side, updating `v` and its neighbors. Levels
    /// carry no self-loops, so every neighbor is another node.
    fn flip(&mut self, wg: &WGraph, side: &mut [bool], v: usize) {
        side[v] = !side[v];
        std::mem::swap(&mut self.internal[v], &mut self.external[v]);
        for (u, w) in wg.neighbors(v) {
            let (u, w) = (u as usize, w as i64);
            if side[u] == side[v] {
                self.external[u] -= w;
                self.internal[u] += w;
            } else {
                self.internal[u] -= w;
                self.external[u] += w;
            }
        }
    }
}

/// The subgraph induced by the nodes with `side[v] == want`, renumbered
/// in order; edges leaving it are dropped.
fn induced_subgraph(wg: &WGraph, side: &[bool], want: bool) -> WGraph {
    let n = wg.nodes();
    let mut local = vec![0u32; n];
    let mut nodes = 0usize;
    let mut degree_sum = 0usize;
    for v in (0..n).filter(|&v| side[v] == want) {
        local[v] = nodes as u32;
        nodes += 1;
        degree_sum += wg.xadj[v + 1] - wg.xadj[v];
    }
    let mut xadj = Vec::with_capacity(nodes + 1);
    let mut adjncy = Vec::with_capacity(degree_sum);
    let mut adjwgt = Vec::with_capacity(degree_sum);
    let mut vwgt = Vec::with_capacity(nodes);
    xadj.push(0);
    for v in (0..n).filter(|&v| side[v] == want) {
        for (u, w) in wg.neighbors(v) {
            if side[u as usize] == want {
                adjncy.push(local[u as usize]);
                adjwgt.push(w);
            }
        }
        xadj.push(adjncy.len());
        vwgt.push(wg.vwgt[v]);
    }
    WGraph {
        xadj,
        adjncy,
        adjwgt,
        vwgt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grow_graph::CommunityGraphSpec;

    /// The contraction `contract` replaced: accumulate each coarse row,
    /// then sort its touched neighbors. The oracle for the bitmap version.
    fn contract_reference(wg: &WGraph, map: &[u32], nc: usize) -> WGraph {
        let n = wg.nodes();
        let mut vwgt = vec![0u64; nc];
        for v in 0..n {
            vwgt[map[v] as usize] += wg.vwgt[v];
        }
        let mut xadj = vec![0usize];
        let mut adjncy: Vec<u32> = Vec::new();
        let mut adjwgt: Vec<u64> = Vec::new();
        let mut accum = vec![0u64; nc];
        let mut touched: Vec<u32> = Vec::new();
        for c in 0..nc {
            for v in (0..n).filter(|&v| map[v] as usize == c) {
                for (u, w) in wg.neighbors(v) {
                    let cu = map[u as usize];
                    if cu as usize == c {
                        continue;
                    }
                    if accum[cu as usize] == 0 {
                        touched.push(cu);
                    }
                    accum[cu as usize] += w;
                }
            }
            touched.sort_unstable();
            for &cu in &touched {
                adjncy.push(cu);
                adjwgt.push(accum[cu as usize]);
                accum[cu as usize] = 0;
            }
            touched.clear();
            xadj.push(adjncy.len());
        }
        WGraph {
            xadj,
            adjncy,
            adjwgt,
            vwgt,
        }
    }

    /// The refinement `refine` replaced: every pass rescans every edge to
    /// recompute gains. The oracle for the incremental version.
    fn refine_reference(
        wg: &WGraph,
        side: &mut [bool],
        target_left: u64,
        config: &MultilevelConfig,
    ) {
        let gain_of = |side: &[bool], v: usize| -> (i64, i64) {
            let mut internal = 0i64;
            let mut external = 0i64;
            for (u, w) in wg.neighbors(v) {
                if side[u as usize] == side[v] {
                    internal += w as i64;
                } else {
                    external += w as i64;
                }
            }
            (internal, external)
        };
        let total = wg.total_weight();
        let smaller_side = target_left.min(total - target_left).max(1);
        let tol = ((smaller_side as f64 * config.balance_tolerance) as u64).max(1);
        let mut left_weight: u64 = (0..wg.nodes())
            .filter(|&v| side[v])
            .map(|v| wg.vwgt[v])
            .sum();
        let min_left = target_left.saturating_sub(tol);
        let max_left = (target_left + tol).min(total);
        if left_weight > max_left || left_weight < min_left {
            let heavy_is_left = left_weight > max_left;
            let mut candidates: Vec<(i64, u32)> = (0..wg.nodes())
                .filter(|&v| side[v] == heavy_is_left)
                .map(|v| {
                    let (internal, external) = gain_of(side, v);
                    (external - internal, v as u32)
                })
                .collect();
            candidates.sort_unstable_by(|a, b| b.cmp(a));
            for (_, v) in candidates {
                if left_weight <= max_left && left_weight >= min_left {
                    break;
                }
                let v = v as usize;
                side[v] = !side[v];
                if heavy_is_left {
                    left_weight -= wg.vwgt[v];
                } else {
                    left_weight += wg.vwgt[v];
                }
            }
        }
        for _ in 0..config.refine_passes {
            let mut moves: Vec<(i64, u32)> = Vec::new();
            for v in 0..wg.nodes() {
                let (internal, external) = gain_of(side, v);
                if external > 0 {
                    moves.push((external - internal, v as u32));
                }
            }
            moves.sort_unstable_by(|a, b| b.cmp(a));
            let mut applied = 0usize;
            for (gain, v) in moves {
                if gain <= 0 {
                    break;
                }
                let v = v as usize;
                let (internal, external) = gain_of(side, v);
                if external - internal <= 0 {
                    continue;
                }
                let new_left = if side[v] {
                    left_weight.saturating_sub(wg.vwgt[v])
                } else {
                    left_weight + wg.vwgt[v]
                };
                if new_left < min_left || new_left > max_left {
                    continue;
                }
                side[v] = !side[v];
                left_weight = new_left;
                applied += 1;
            }
            if applied == 0 {
                break;
            }
        }
    }

    /// A random symmetric weighted graph without self-loops: edge weights
    /// 1..=5, node weights 1..=4, rows ascending.
    fn random_wgraph(n: usize, edges: usize, rng: &mut StdRng) -> WGraph {
        let mut weight = std::collections::BTreeMap::new();
        for _ in 0..edges {
            let u = rng.random_range(0..n as u32);
            let v = rng.random_range(0..n as u32);
            if u != v {
                let w = rng.random_range(1..=5u64);
                weight.insert((u, v), w);
                weight.insert((v, u), w);
            }
        }
        let mut xadj = vec![0usize; n + 1];
        let mut adjncy = Vec::new();
        let mut adjwgt = Vec::new();
        for (&(u, v), &w) in &weight {
            xadj[u as usize + 1] += 1;
            adjncy.push(v);
            adjwgt.push(w);
        }
        for v in 0..n {
            xadj[v + 1] += xadj[v];
        }
        let vwgt = (0..n).map(|_| rng.random_range(1..=4u64)).collect();
        WGraph {
            xadj,
            adjncy,
            adjwgt,
            vwgt,
        }
    }

    /// Every level of a real coarsening of a community graph, finest
    /// first, each with the max super-node weight `bisect` would use.
    fn real_levels(seed: u64) -> Vec<WGraph> {
        let spec = CommunityGraphSpec {
            nodes: 3000,
            avg_degree: 12.0,
            communities: 6,
            intra_fraction: 0.85,
            power_law_exponent: 2.3,
            shuffle_fraction: 1.0,
        };
        let config = MultilevelConfig::default();
        let mut current = WGraph::from_graph(&spec.generate(seed));
        let max_vwgt =
            (1.5 * current.total_weight() as f64 / config.coarsen_until as f64).ceil() as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut levels = Vec::new();
        while current.nodes() > config.coarsen_until {
            let (coarse, map) = coarsen(&current, max_vwgt, &mut rng);
            assert_eq!(
                coarse,
                contract_reference(&current, &map, coarse.nodes()),
                "level {} contraction differs from the reference",
                levels.len()
            );
            let stalled = coarse.nodes() * 20 > current.nodes() * 19;
            levels.push(std::mem::replace(&mut current, coarse));
            if stalled {
                break;
            }
        }
        levels.push(current);
        levels
    }

    fn assert_refine_matches(wg: &WGraph, side: &[bool], target_left: u64, what: &str) {
        let config = MultilevelConfig::default();
        let mut fast = side.to_vec();
        let mut reference = side.to_vec();
        refine(wg, &mut fast, target_left, &config);
        refine_reference(wg, &mut reference, target_left, &config);
        assert_eq!(
            fast, reference,
            "{what}: refine differs from the full-rescan reference"
        );
    }

    #[test]
    fn contraction_matches_the_sort_based_reference_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(0xc0a75e);
        for trial in 0..40 {
            let n = rng.random_range(1..400usize);
            let wg = random_wgraph(n, rng.random_range(0..8 * n), &mut rng);
            // Any map works, including coarse nodes without members; a
            // wide range of `nc` spans one to many bitmap words per row.
            let nc = rng.random_range(1..=n);
            let map: Vec<u32> = (0..n).map(|_| rng.random_range(0..nc as u32)).collect();
            assert_eq!(
                contract(&wg, &map, nc),
                contract_reference(&wg, &map, nc),
                "trial {trial}: n={n} nc={nc}"
            );
        }
    }

    #[test]
    fn contraction_matches_the_reference_on_every_level_of_a_real_coarsening() {
        // `real_levels` asserts each level against the reference.
        let levels = real_levels(5);
        assert!(levels.len() >= 4, "only {} levels", levels.len());
    }

    #[test]
    fn refine_matches_the_full_rescan_reference_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for trial in 0..60 {
            let n = rng.random_range(2..300usize);
            let wg = random_wgraph(n, rng.random_range(n..10 * n), &mut rng);
            let side: Vec<bool> = (0..n).map(|_| rng.random()).collect();
            // Targets from lopsided (forcing balance repair) to even.
            let total = wg.total_weight();
            let target_left = rng.random_range(1..total);
            assert_refine_matches(&wg, &side, target_left, &format!("trial {trial}"));
        }
    }

    #[test]
    fn refine_matches_the_reference_on_every_level_of_a_real_coarsening() {
        let mut rng = StdRng::seed_from_u64(17);
        for (i, wg) in real_levels(9).iter().enumerate() {
            let target_left = wg.total_weight() / 2;
            // A random side (many boundary moves) and a contiguous one
            // (few, balanced) per level.
            let random: Vec<bool> = (0..wg.nodes()).map(|_| rng.random()).collect();
            let halves: Vec<bool> = (0..wg.nodes()).map(|v| v < wg.nodes() / 3).collect();
            assert_refine_matches(wg, &random, target_left, &format!("level {i}, random side"));
            assert_refine_matches(
                wg,
                &halves,
                target_left,
                &format!("level {i}, lopsided side"),
            );
        }
    }

    #[test]
    fn bisects_two_cliques() {
        // Two 5-cliques connected by a single edge.
        let mut edges = Vec::new();
        for a in 0..5u32 {
            for b in (a + 1)..5 {
                edges.push((a, b));
                edges.push((a + 5, b + 5));
            }
        }
        edges.push((0, 5));
        let g = Graph::from_edges(10, edges);
        let p = multilevel_partition(&g, 2, &MultilevelConfig::default());
        assert_eq!(p.edge_cut(&g), 1);
        assert_eq!(p.balance(), 1.0);
    }

    #[test]
    fn recovers_planted_communities() {
        let spec = CommunityGraphSpec {
            nodes: 1200,
            avg_degree: 10.0,
            communities: 6,
            intra_fraction: 0.9,
            power_law_exponent: 2.5,
            shuffle_fraction: 1.0,
        };
        let gen = spec.generate_detailed(21);
        let p = multilevel_partition(&gen.graph, 6, &MultilevelConfig::default());
        // The recovered partition keeps most edges internal (planted
        // intra-fraction is 0.9 of endpoints => ~0.8 of edges).
        let frac = p.intra_edge_fraction(&gen.graph);
        assert!(frac > 0.6, "intra fraction {frac} too low");
        assert!(p.balance() < 1.35, "balance {} too skewed", p.balance());
    }

    #[test]
    fn kway_parts_cover_all_nodes() {
        let spec = CommunityGraphSpec {
            nodes: 640,
            avg_degree: 8.0,
            communities: 8,
            intra_fraction: 0.85,
            power_law_exponent: 2.5,
            shuffle_fraction: 1.0,
        };
        let g = spec.generate(3);
        let p = multilevel_partition(&g, 8, &MultilevelConfig::default());
        assert_eq!(p.parts(), 8);
        let sizes = p.part_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 640);
        assert!(sizes.iter().all(|&s| s > 0), "empty part in {sizes:?}");
    }

    #[test]
    fn one_part_is_trivial() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        let p = multilevel_partition(&g, 1, &MultilevelConfig::default());
        assert_eq!(p.parts(), 1);
        assert_eq!(p.edge_cut(&g), 0);
    }

    #[test]
    fn more_parts_than_nodes_degenerates() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let p = multilevel_partition(&g, 10, &MultilevelConfig::default());
        assert_eq!(p.parts(), 10);
        assert_eq!(p.part_sizes().iter().sum::<usize>(), 3);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let spec = CommunityGraphSpec {
            nodes: 500,
            avg_degree: 8.0,
            communities: 4,
            intra_fraction: 0.85,
            power_law_exponent: 2.5,
            shuffle_fraction: 1.0,
        };
        let g = spec.generate(17);
        let cfg = MultilevelConfig::default();
        let p1 = multilevel_partition(&g, 4, &cfg);
        let p2 = multilevel_partition(&g, 4, &cfg);
        assert_eq!(p1, p2);
    }

    #[test]
    fn handles_disconnected_graphs() {
        let g = Graph::from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)]);
        let p = multilevel_partition(&g, 2, &MultilevelConfig::default());
        assert_eq!(p.part_sizes().iter().sum::<usize>(), 8);
    }
}
