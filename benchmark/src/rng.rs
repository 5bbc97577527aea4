//! The benchmark's own seeded randomness.
//!
//! Request lists (which template, which relabeling) come from here and not
//! from the repository's `rand` stand-in, so the program under test only
//! ever receives generated queries and the same `--seed` yields the same
//! request list whatever the repository does to its own generators.

/// SplitMix64: tiny, well mixed, and every state is a valid seed.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n >= 1`). The modulo bias is below 2^-32 for the
    /// sizes used here (template pools and relation counts).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// An independent sub-seed for stream `lane` of a run seeded with `seed`.
pub fn derive(seed: u64, lane: u64) -> u64 {
    let mut r = SplitMix64::new(seed ^ lane.wrapping_mul(0xd6e8_feb8_6659_fd93));
    r.next_u64()
}

/// Zipf distribution over ranks `0..n`: `P(rank r) ∝ 1 / (r + 1)^skew`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, skew: f64) -> Self {
        let weights: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(skew)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One client's request list: request `i` is `(template rank, relabeling)`,
/// a pure function of `(seed, lane, i)`.
#[derive(Clone, Debug)]
pub struct RequestStream {
    rng: SplitMix64,
    zipf: Zipf,
    /// Relation count per template rank.
    sizes: Vec<usize>,
}

impl RequestStream {
    /// `lane` names the list: one per client and measured phase.
    pub fn new(seed: u64, lane: u64, skew: f64, sizes: Vec<usize>) -> Self {
        RequestStream {
            rng: SplitMix64::new(derive(seed, 0x5245_5100 + lane)),
            zipf: Zipf::new(sizes.len(), skew),
            sizes,
        }
    }

    /// The next request: template rank and `new_of_old` relabeling.
    pub fn next_request(&mut self) -> (usize, Vec<usize>) {
        let rank = self.zipf.sample(&mut self.rng);
        let perm = self.rng.permutation(self.sizes[rank]);
        (rank, perm)
    }

    /// FNV-1a hash of the first `count` requests, for the determinism test.
    #[cfg(test)]
    pub fn digest(mut self, count: usize) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for _ in 0..count {
            let (rank, perm) = self.next_request();
            eat(rank as u64);
            perm.iter().for_each(|&p| eat(p as u64));
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_permutation() {
        let mut r = SplitMix64::new(1);
        let mut p = r.permutation(50);
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn same_seed_same_request_list_other_seed_differs() {
        let sizes: Vec<usize> = (0..40).map(|i| 8 + i % 7).collect();
        let a = RequestStream::new(42, 0, 1.1, sizes.clone()).digest(5_000);
        let b = RequestStream::new(42, 0, 1.1, sizes.clone()).digest(5_000);
        let other_seed = RequestStream::new(43, 0, 1.1, sizes.clone()).digest(5_000);
        let other_client = RequestStream::new(42, 1, 1.1, sizes).digest(5_000);
        assert_eq!(a, b);
        assert_ne!(a, other_seed);
        assert_ne!(a, other_client);
    }

    #[test]
    fn zipf_head_is_heavier_than_tail() {
        let z = Zipf::new(100, 1.1);
        let mut r = SplitMix64::new(9);
        let mut hits = [0usize; 100];
        for _ in 0..20_000 {
            hits[z.sample(&mut r)] += 1;
        }
        assert!(hits[0] > 4 * hits[9]);
        assert!(hits.iter().sum::<usize>() == 20_000);
    }
}
