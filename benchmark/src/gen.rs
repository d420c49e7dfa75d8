//! Seeded input generation: a splitmix64 stream, uniform `(s, t, w)` queries
//! and Zipf-distributed keys over a fixed pool of distinct queries.
//!
//! Everything the program under test sees during a run comes out of these
//! generators, and every generator is a pure function of the `--seed`
//! argument, the workload name and a lane number (generator thread / feeder),
//! so a seed reproduces a run's inputs exactly.

use wcsd_graph::{Quality, VertexId};

/// One `(s, t, w)` query.
pub type Query = (VertexId, VertexId, Quality);

/// The splitmix64 generator (Steele, Lea, Flood 2014): one 64-bit state word,
/// full period, and good enough mixing that consecutive seeds give unrelated
/// streams.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for every
    /// `n` this benchmark uses).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the seed of one input stream from the run seed, the workload name
/// and a lane, so streams of different workloads and threads never coincide.
pub fn stream_seed(seed: u64, workload: &str, lane: u64) -> u64 {
    let mut h = mix(seed ^ 0x5743_5344_4245_4E43); // "WCSDBENC"
    for b in workload.bytes() {
        h = mix(h ^ u64::from(b));
    }
    mix(h ^ lane.wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

/// Uniform random queries over `n` vertices and quality levels `1..=levels`:
/// the paper's own query workload.
#[derive(Debug, Clone)]
pub struct UniformQueries {
    rng: SplitMix64,
    n: u64,
    levels: u64,
}

impl UniformQueries {
    pub fn new(seed: u64, n: usize, levels: Quality) -> Self {
        Self { rng: SplitMix64::new(seed), n: n as u64, levels: u64::from(levels) }
    }

    pub fn next_query(&mut self) -> Query {
        let s = self.rng.below(self.n) as VertexId;
        let t = self.rng.below(self.n) as VertexId;
        let w = 1 + self.rng.below(self.levels) as Quality;
        (s, t, w)
    }
}

/// Zipf(s = 1) keys over a pool of `pool` distinct queries.
///
/// Rank `k` in `1..=pool` is drawn by inverting the continuous `1/x` density
/// on `[1, pool + 1)`: `k = ⌊(pool + 1)^u⌋`, so `P(k) ∝ ln(1 + 1/k) ≈ 1/k`.
/// Rank `k` names the query with id `(k · STRIDE + offset) mod keyspace` in
/// the `n · n · levels` space of all queries; `STRIDE` is coprime to every
/// keyspace used here, so distinct ranks are distinct queries.
#[derive(Debug, Clone)]
pub struct ZipfKeys {
    rng: SplitMix64,
    ln_pool1: f64,
    pool: u64,
    n: u64,
    levels: u64,
    offset: u64,
}

/// A prime far above any keyspace of this benchmark, hence coprime to it.
const STRIDE: u64 = 2_305_843_009_213_693_951; // 2^61 - 1

impl ZipfKeys {
    /// `pool_seed` fixes which queries are in the pool; `stream_seed` the
    /// order they are drawn in.
    pub fn new(stream_seed: u64, pool_seed: u64, pool: u64, n: usize, levels: Quality) -> Self {
        let (n, levels) = (n as u64, u64::from(levels));
        assert!(pool >= 1 && pool <= n * n * levels, "pool exceeds the query space");
        Self {
            rng: SplitMix64::new(stream_seed),
            ln_pool1: ((pool + 1) as f64).ln(),
            pool,
            n,
            levels,
            offset: mix(pool_seed) % (n * n * levels),
        }
    }

    /// Draws the next rank, `1..=pool`, rank 1 the most frequent.
    pub fn next_rank(&mut self) -> u64 {
        let k = (self.rng.next_f64() * self.ln_pool1).exp() as u64;
        k.clamp(1, self.pool)
    }

    /// The query a rank stands for.
    pub fn query_of(&self, rank: u64) -> Query {
        let keyspace = self.n * self.n * self.levels;
        let id = ((u128::from(rank) * u128::from(STRIDE) + u128::from(self.offset))
            % u128::from(keyspace)) as u64;
        let w = 1 + (id % self.levels) as Quality;
        let pair = id / self.levels;
        ((pair / self.n) as VertexId, (pair % self.n) as VertexId, w)
    }

    pub fn next_query(&mut self) -> Query {
        let rank = self.next_rank();
        self.query_of(rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn splitmix_matches_reference_vector() {
        // First outputs of the reference implementation for seed 1234567.
        let mut rng = SplitMix64::new(1_234_567);
        assert_eq!(rng.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(rng.next_u64(), 3_203_168_211_198_807_973);
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let draw = |seed| {
            let mut q = UniformQueries::new(stream_seed(seed, "road-batch", 0), 9216, 5);
            (0..1000).map(|_| q.next_query()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let zipf = |seed| {
            let mut z = ZipfKeys::new(stream_seed(seed, "social-point", 0), seed, 1 << 20, 2000, 5);
            (0..1000).map(|_| z.next_query()).collect::<Vec<_>>()
        };
        assert_eq!(zipf(7), zipf(7));
        assert_ne!(zipf(7), zipf(8));
    }

    #[test]
    fn lanes_and_workloads_get_unrelated_streams() {
        assert_ne!(stream_seed(1, "road-batch", 0), stream_seed(1, "road-batch", 1));
        assert_ne!(stream_seed(1, "road-batch", 0), stream_seed(1, "road-routed", 0));
    }

    #[test]
    fn uniform_queries_stay_in_range() {
        let mut q = UniformQueries::new(3, 1600, 5);
        for _ in 0..10_000 {
            let (s, t, w) = q.next_query();
            assert!(s < 1600 && t < 1600 && (1..=5).contains(&w));
        }
    }

    #[test]
    fn zipf_ranks_are_distinct_queries_and_skewed() {
        let mut z = ZipfKeys::new(11, 11, 1 << 20, 2000, 5);
        let distinct: HashSet<Query> = (1..=50_000u64).map(|k| z.query_of(k)).collect();
        assert_eq!(distinct.len(), 50_000);
        let draws = 200_000;
        let mut top = 0usize; // ranks 1..=1024 carry ln(1025)/ln(2^20+1) ≈ 0.50
        for _ in 0..draws {
            let k = z.next_rank();
            assert!((1..=1 << 20).contains(&k));
            top += usize::from(k <= 1024);
        }
        let share = top as f64 / draws as f64;
        assert!((0.48..0.52).contains(&share), "top-1024 share {share}");
    }
}
