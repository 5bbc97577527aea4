//! Consistent-hash ring with virtual nodes, deterministic from a seed.
//!
//! The sharded planning tier places N independent `PlanService` shards
//! behind this ring: each shard contributes `vnodes` points hashed from
//! `(seed, shard_id, vnode_index)`, a query fingerprint hashes to a point
//! on the same circle, and the owning shard is the first vnode at or after
//! it (wrapping). With enough vnodes per shard (the default 128), the
//! per-shard share of a uniform key population concentrates around 1/N
//! (relative spread ~ 1/sqrt(vnodes)); asserted by proptest.
//!
//! Everything is deterministic from `(seed, shard ids, vnodes)`: the same
//! configuration yields the same ring on every run, which lets tests replay
//! routing decisions exactly.

use crate::memo::murmur3_fmix64;

/// Default virtual nodes per shard. 128 keeps the max/mean load ratio
/// under ~1.35 for up to 16 shards while the ring (N×128 points) still
/// fits comfortably in cache for binary search.
pub const DEFAULT_VNODES: usize = 128;

/// A consistent-hash ring over a set of shard ids.
///
/// Construction is deterministic from the seed and the shard set.
#[derive(Clone, Debug)]
pub struct HashRing {
    /// `(point_hash, shard_id)`, sorted by point hash. Ties are broken by
    /// shard id so construction order never matters.
    points: Vec<(u64, u32)>,
    /// Number of distinct shards.
    shards: usize,
    seed: u64,
}

/// Hash one vnode point. Mixing the three coordinates through fmix64
/// sequentially (rather than XORing them flat) keeps shard 2's points
/// uncorrelated with shard 1's even at adjacent seeds.
fn point_hash(seed: u64, shard: u32, vnode: u32) -> u64 {
    let a = murmur3_fmix64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let b = murmur3_fmix64(a ^ u64::from(shard).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    murmur3_fmix64(b ^ u64::from(vnode).wrapping_mul(0x94d0_49bb_1331_11eb))
}

/// Position of a 128-bit key (a query fingerprint) on the ring's circle.
fn key_hash(seed: u64, key: u128) -> u64 {
    let hi = (key >> 64) as u64;
    let lo = key as u64;
    murmur3_fmix64(murmur3_fmix64(lo ^ seed) ^ hi)
}

impl HashRing {
    /// Builds a ring over `shard_ids` with `vnodes` points per shard.
    ///
    /// Duplicate shard ids are collapsed. Panics if the shard set is empty
    /// or `vnodes` is zero — an unroutable ring is a configuration bug,
    /// not a runtime condition.
    pub fn new(seed: u64, vnodes: usize, shard_ids: &[u32]) -> HashRing {
        assert!(!shard_ids.is_empty(), "HashRing needs at least one shard");
        assert!(vnodes > 0, "HashRing needs at least one vnode per shard");
        let mut shards: Vec<u32> = shard_ids.to_vec();
        shards.sort_unstable();
        shards.dedup();
        let mut points = Vec::with_capacity(shards.len() * vnodes);
        for &shard in &shards {
            for vnode in 0..vnodes as u32 {
                points.push((point_hash(seed, shard, vnode), shard));
            }
        }
        points.sort_unstable();
        HashRing {
            points,
            shards: shards.len(),
            seed,
        }
    }

    /// Index of the first ring point at or after `key`'s position,
    /// wrapping past the top of the circle.
    fn successor(&self, key: u128) -> usize {
        let h = key_hash(self.seed, key);
        match self.points.binary_search(&(h, 0)) {
            Ok(i) => i,
            Err(i) => {
                if i == self.points.len() {
                    0
                } else {
                    i
                }
            }
        }
    }

    /// The shard that owns `key`: the first vnode at or after the key's
    /// position on the circle.
    pub fn shard_of(&self, key: u128) -> u32 {
        self.points[self.successor(key)].1
    }

    /// The first `replicas` *distinct* shards walking the circle from
    /// `key`'s position — the replica set for a hot key. The primary owner
    /// is always element 0; `replicas` is clamped to the shard count.
    pub fn shards_of(&self, key: u128, replicas: usize) -> Vec<u32> {
        let want = replicas.clamp(1, self.shards);
        let mut out = Vec::with_capacity(want);
        let start = self.successor(key);
        for step in 0..self.points.len() {
            let shard = self.points[(start + step) % self.points.len()].1;
            if !out.contains(&shard) {
                out.push(shard);
                if out.len() == want {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u64) -> impl Iterator<Item = u128> {
        // splitmix-style counter keys: uniform enough for load statistics.
        (0..n).map(|i| {
            let a = murmur3_fmix64(i.wrapping_mul(0x2545_f491_4f6c_dd1d));
            let b = murmur3_fmix64(a ^ 0xdead_beef);
            (u128::from(a) << 64) | u128::from(b)
        })
    }

    #[test]
    fn deterministic_from_seed() {
        let a = HashRing::new(7, 64, &[0, 1, 2, 3]);
        let b = HashRing::new(7, 64, &[3, 2, 1, 0, 2]);
        for k in keys(1000) {
            assert_eq!(a.shard_of(k), b.shard_of(k));
        }
        let c = HashRing::new(8, 64, &[0, 1, 2, 3]);
        assert!(keys(1000).any(|k| a.shard_of(k) != c.shard_of(k)));
    }

    #[test]
    fn replica_sets_are_distinct_and_led_by_owner() {
        let ring = HashRing::new(42, DEFAULT_VNODES, &[0, 1, 2, 3, 4, 5, 6, 7]);
        for k in keys(500) {
            let set = ring.shards_of(k, 3);
            assert_eq!(set.len(), 3);
            assert_eq!(set[0], ring.shard_of(k));
            let mut dedup = set.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "replica set has duplicates: {set:?}");
        }
        // Clamped when asking for more replicas than shards exist.
        let tiny = HashRing::new(42, 16, &[0, 1]);
        assert_eq!(tiny.shards_of(1234, 8).len(), 2);
    }
}
