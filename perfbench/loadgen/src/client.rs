//! The load the benchmark sends and the checks it makes on every reply:
//! the query mix, the delta-op generator over the live edge set, and the
//! tally of attempted, failed and wrong operations.

use crate::util::Rng;
use std::collections::HashMap;
use subsim_graph::Graph;

/// The warm query mix: k ∈ {10, 50, 100, 200}, skewed toward k = 50,
/// times ε ∈ {0.05, 0.1, 0.2}.
pub const MIX_K: [(usize, u32); 4] = [(10, 2), (50, 5), (100, 2), (200, 1)];
pub const MIX_EPS: [f64; 3] = [0.05, 0.1, 0.2];

/// The cold query of every launch: the first query a fresh server answers.
pub const COLD_QUERY: (usize, f64) = (50, 0.05);

pub fn query_line((k, eps): (usize, f64)) -> String {
    format!("{k} {eps}")
}

/// Draws a `(k, ε)` pair from the warm mix.
pub fn pick_mix(rng: &mut Rng) -> (usize, f64) {
    let total: u32 = MIX_K.iter().map(|&(_, w)| w).sum();
    let mut r = rng.below(total as usize) as u32;
    let mut k = MIX_K[0].0;
    for &(kk, w) in &MIX_K {
        if r < w {
            k = kk;
            break;
        }
        r -= w;
    }
    (k, MIX_EPS[rng.below(MIX_EPS.len())])
}

/// Every `(k, ε)` pair of the mix once, in a fixed order.
pub fn whole_mix() -> Vec<(usize, f64)> {
    MIX_K
        .iter()
        .flat_map(|&(k, _)| MIX_EPS.iter().map(move |&e| (k, e)))
        .collect()
}

/// Counts of what the benchmark sent and what went wrong.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    /// `err` replies, refused or dropped connections, timeouts.
    pub failed: u64,
    /// Replies that break the protocol contract: wrong seed lists, acks
    /// out of version order, mismatched counters, non-identical replies
    /// where the program promises identity.
    pub wrong: Vec<String>,
}

impl Tally {
    pub fn wrong(&mut self, msg: String) {
        if self.wrong.len() < 20 {
            eprintln!("perfbench: WRONG: {msg}");
        }
        self.wrong.push(msg);
    }

    /// Whether the run passes its correctness gate: no wrong reply and
    /// no failed operation (an `err` reply answers neither a query nor a
    /// delta as the protocol promises).
    pub fn ok(&self) -> bool {
        self.wrong.is_empty() && self.failed == 0
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for w in other.wrong {
            self.wrong(w);
        }
    }
}

/// Checks a query reply: exactly `k` distinct node ids in `[0, n)`.
/// Returns `false` for a failed operation (`err` reply); a malformed seed
/// list is recorded as wrong.
pub fn check_query(tally: &mut Tally, reply: &str, k: usize, n: usize) -> bool {
    if reply.starts_with("err") {
        tally.failed += 1;
        eprintln!("perfbench: query {k} failed: {reply}");
        return false;
    }
    let mut seen = std::collections::HashSet::with_capacity(k);
    let mut ok = true;
    for tok in reply.split_whitespace() {
        match tok.parse::<usize>() {
            Ok(v) if v < n && seen.insert(v) => {}
            _ => ok = false,
        }
    }
    if !ok || seen.len() != k {
        tally.wrong(format!(
            "k={k} reply is not {k} distinct ids in [0, {n}): {reply:?}"
        ));
    }
    true
}

/// Checks a delta ack: `ok delta v<N>` with `N` one past the last ack
/// this server gave.
pub fn check_ack(tally: &mut Tally, reply: &str, version: &mut u64) -> bool {
    if reply.starts_with("err") {
        tally.failed += 1;
        eprintln!("perfbench: delta failed: {reply}");
        return false;
    }
    let want = format!("ok delta v{}", *version + 1);
    if reply != want {
        tally.wrong(format!("delta ack {reply:?}, expected {want:?}"));
    }
    *version += 1;
    true
}

/// Valid `delta` ops against the live edge set: deletes and reweights
/// always name an existing edge, inserts a missing one. Node ids are the
/// file's ids, which the server keeps because the workload file carries a
/// `# n=… m=…` header.
pub struct DeltaGen {
    edges: Vec<(u32, u32)>,
    pos: HashMap<(u32, u32), usize>,
    n: usize,
    rng: Rng,
}

impl DeltaGen {
    pub fn new(g: &Graph, seed: u64) -> DeltaGen {
        let edges: Vec<(u32, u32)> = g.edges().map(|(u, v, _)| (u, v)).collect();
        let pos = edges.iter().enumerate().map(|(i, &e)| (e, i)).collect();
        DeltaGen {
            edges,
            pos,
            n: g.n(),
            rng: Rng::new(seed ^ 0xde17a),
        }
    }

    /// The next op line, `delta <op>`.
    pub fn next_op(&mut self) -> String {
        let p = 0.01 + 0.2 * self.rng.unit();
        match self.rng.below(3) {
            0 => loop {
                let (u, v) = (self.rng.below(self.n) as u32, self.rng.below(self.n) as u32);
                if u != v && !self.pos.contains_key(&(u, v)) {
                    self.pos.insert((u, v), self.edges.len());
                    self.edges.push((u, v));
                    return format!("delta + {u} {v} {p:.4}");
                }
            },
            1 => {
                let i = self.rng.below(self.edges.len());
                let (u, v) = self.edges.swap_remove(i);
                self.pos.remove(&(u, v));
                if let Some(&moved) = self.edges.get(i) {
                    self.pos.insert(moved, i);
                }
                format!("delta - {u} {v}")
            }
            _ => {
                let (u, v) = self.edges[self.rng.below(self.edges.len())];
                format!("delta ~ {u} {v} {p:.4}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsim_delta::{GraphDelta, VersionedGraph};
    use subsim_graph::{generators, WeightModel};

    #[test]
    fn delta_ops_always_apply_to_the_live_graph() {
        let g = generators::rmat(8, 256 * 8, WeightModel::Wc, 3);
        let mut vg = VersionedGraph::new(g.clone()).unwrap();
        let mut gen = DeltaGen::new(&g, 9);
        for _ in 0..500 {
            let op = gen.next_op();
            let d = GraphDelta::parse(op.strip_prefix("delta ").unwrap()).unwrap();
            vg.apply(&d).unwrap_or_else(|e| panic!("{op}: {e}"));
        }
    }

    #[test]
    fn seed_lists_are_checked() {
        let mut t = Tally::default();
        assert!(check_query(&mut t, "1 2 3", 3, 10));
        assert!(t.ok());
        check_query(&mut t, "1 1 3", 3, 10);
        check_query(&mut t, "1 2 30", 3, 10);
        check_query(&mut t, "1 2", 3, 10);
        assert_eq!(t.wrong.len(), 3);
        assert!(!check_query(&mut t, "err stale version", 3, 10));
        assert_eq!(t.failed, 1);
        let mut v = 0;
        assert!(check_ack(&mut t, "ok delta v1", &mut v));
        check_ack(&mut t, "ok delta v3", &mut v);
        assert_eq!(t.wrong.len(), 4);
        // An `err` reply alone, to a query or a delta, fails the run.
        for (query, reply) in [(true, "err stale version"), (false, "err no such edge")] {
            let mut t = Tally::default();
            let ok = if query {
                check_query(&mut t, reply, 3, 10)
            } else {
                check_ack(&mut t, reply, &mut 0)
            };
            assert!(!ok && t.wrong.is_empty() && !t.ok());
            let mut merged = Tally::default();
            merged.merge(t);
            assert!(!merged.ok());
        }
    }
}
