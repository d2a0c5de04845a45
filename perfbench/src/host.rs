//! Host normalization: a fixed reference kernel sampled right before and
//! right after every timed op and set-up, and the arithmetic that scales
//! each timing by the host speed those samples measured.
//!
//! Shared hosts drift between speed phases lasting tens of seconds; on
//! the reference host an `exchange` op on fixed input moved between about
//! 14 and 22 ms, and memory latency alone swung 2.5×. The kernel repeats
//! fixed std-only work of the kind the program does — allocating,
//! hashing, chasing pointers, sorting — so it slows in the same phases.
//! Each timing is multiplied by `NOMINAL_REF_MS / kernel time`, reporting
//! what the work costs at nominal speed.
//!
//! The phases hit the workloads' ops differently, so each workload names
//! the [`Round`]s whose timings tracked its ops (`README.md` has the
//! measurements); a sample is the geometric mean of those rounds' times.
//! The kernel frees everything it allocates before the op starts.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The constant every timing is scaled to: a sample's time on the
/// reference host (2-vCPU Intel Xeon container) in its fast phase is
/// about 1 ms for every workload's rounds.
pub const NOMINAL_REF_MS: f64 = 1.0;

/// Records allocated by [`Round::Records`].
const RECORDS: usize = 20_000;
/// Keys inserted into (and looked up in) the map of [`Round::Tree`].
const TREE_KEYS: u64 = 10_000;
/// Iterations of [`Round::Vecs`].
const VEC_ROUNDS: u64 = 2_000;

/// One timed part of a kernel sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Round {
    /// Allocate 20 000 boxed records of hashed values, visit them in a
    /// data-dependent order, free them: bulk allocation, as when an op
    /// builds an instance.
    Records,
    /// Insert 10 000 xorshift keys into a `BTreeMap`, look up as many,
    /// drop it: pointer chasing through B-tree nodes.
    Tree,
    /// 2000 times, build eight three-element `Vec<u32>`s, sort, free:
    /// short-lived small allocations, as in per-leaf query probes.
    Vecs,
}

/// The reference kernel of one workload.
pub struct RefKernel {
    rounds: &'static [Round],
    // One heap allocation per record is the work `Round::Records` times.
    #[allow(clippy::vec_box)]
    held: Vec<Box<[u64; 4]>>,
}

impl RefKernel {
    /// A kernel sampling `rounds` (at least one).
    pub fn new(rounds: &'static [Round]) -> RefKernel {
        assert!(!rounds.is_empty(), "a kernel needs a round");
        RefKernel {
            rounds,
            held: Vec::with_capacity(RECORDS),
        }
    }

    /// Run one round untimed; returns a digest so the work cannot be
    /// elided.
    pub fn run(&mut self, round: Round) -> u64 {
        match round {
            Round::Records => self.records(),
            Round::Tree => tree(),
            Round::Vecs => vecs(),
        }
    }

    fn records(&mut self) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for i in 0..RECORDS as u64 {
            h = (h ^ i).wrapping_mul(0x0000_0100_0000_01B3);
            self.held.push(Box::new([i, h, h >> 7, i ^ h]));
        }
        let mut acc = 0u64;
        let mut j = 0usize;
        for _ in 0..RECORDS {
            let r = &self.held[j];
            acc = acc.wrapping_add(r[2]);
            j = (r[1] as usize ^ j) % RECORDS;
        }
        self.held.clear();
        acc
    }

    /// One sample, in milliseconds: the geometric mean of the rounds'
    /// times.
    pub fn sample_ms(&mut self) -> f64 {
        let mut log_sum = 0.0;
        for &round in self.rounds {
            let t = Instant::now();
            black_box(self.run(round));
            log_sum += (t.elapsed().as_secs_f64() * 1e3).ln();
        }
        (log_sum / self.rounds.len() as f64).exp()
    }
}

fn tree() -> u64 {
    let mut map = BTreeMap::new();
    let mut x: u64 = 0x0139_408D_CBBF_7A44;
    for _ in 0..TREE_KEYS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % (10 * TREE_KEYS), x);
    }
    let mut acc = 0u64;
    for k in 0..TREE_KEYS {
        if let Some(v) = map.get(&(k * 5)) {
            acc = acc.wrapping_add(*v);
        }
    }
    acc
}

fn vecs() -> u64 {
    let mut acc = 0u64;
    for i in 0..VEC_ROUNDS {
        let mut v: Vec<Vec<u32>> = Vec::new();
        for j in 0..8u32 {
            v.push(vec![j, i as u32, j ^ 5]);
        }
        v.sort();
        acc = acc.wrapping_add(u64::from(v[3][1]));
    }
    acc
}

/// The speed factor of a sample: nominal ÷ measured kernel time. Below 1
/// on a slow phase.
pub fn speed_factor(kernel_ms: f64) -> f64 {
    if kernel_ms > 0.0 {
        NOMINAL_REF_MS / kernel_ms
    } else {
        1.0
    }
}

/// Raw wall-clock figures, each expressed at nominal host speed by the
/// kernel time measured around it.
pub fn normalize(raw: &[f64], kernel_ms: &[f64]) -> Vec<f64> {
    raw.iter()
        .zip(kernel_ms)
        .map(|(r, k)| r * speed_factor(*k))
        .collect()
}
