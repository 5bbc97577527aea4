//! Combinatorial subset enumeration used by vertex-based DP algorithms.
//!
//! * **Gosper's hack** — visits all `n`-bit masks with exactly `k` bits set in
//!   increasing numeric order: the paper's level-`k` candidates (`S_i` in
//!   Algorithms 1–3) before its connectivity filter. The DP backends read
//!   [`crate::enumerate::ConnectedSets`] instead; this is the reference that
//!   plan is tested against.
//! * **`pdep`** — software parallel-bit-deposit, used to expand a dense
//!   `|S|`-bit subset index into a sparse mask over the members of `S`
//!   (§2.2.1: "`S_left` is obtained by enumerating from 1 to 2^|S_i|, upon
//!   expanding the result of `S_i` bits using parallel bit deposit").

use crate::bitset::RelSet;

/// Binomial coefficient `C(n, k)` with saturating arithmetic.
///
/// For the sizes this workspace needs (`n ≤ 64`) the exact value fits a `u64`
/// up to well past `C(64, 32)`... which it does not (≈ 1.8e18 fits; C(64,32)
/// ≈ 1.83e18 < u64::MAX), so plain u64 arithmetic with interleaved division
/// is exact.
pub fn binomial(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u64 = 1;
    for i in 0..k {
        // acc * (n - i) / (i + 1) is exact because acc always holds C(n, i+1)
        // after the step; use u128 to avoid intermediate overflow.
        let wide = acc as u128 * (n - i) as u128 / (i + 1) as u128;
        acc = u64::try_from(wide).unwrap_or(u64::MAX);
    }
    acc
}

/// Iterator over all `k`-element subsets of `{0..n}` (Gosper's hack).
pub struct KSubsets {
    cur: u64,
    limit: u64,
    done: bool,
}

impl KSubsets {
    /// Creates the iterator. `k == 0` yields nothing (the DP never asks for
    /// empty levels); `k > n` also yields nothing.
    pub fn new(n: usize, k: usize) -> Self {
        assert!(n <= 64);
        if k == 0 || k > n {
            return KSubsets {
                cur: 0,
                limit: 0,
                done: true,
            };
        }
        let limit = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        KSubsets {
            cur: (1u64 << k) - 1,
            limit,
            done: false,
        }
    }
}

impl Iterator for KSubsets {
    type Item = RelSet;

    #[inline]
    fn next(&mut self) -> Option<RelSet> {
        if self.done {
            return None;
        }
        let v = self.cur;
        if v > self.limit {
            self.done = true;
            return None;
        }
        // Gosper's hack: next higher integer with same popcount.
        let c = v & v.wrapping_neg();
        let r = v.wrapping_add(c);
        if r == 0 || c == 0 {
            self.done = true;
        } else {
            self.cur = (((r ^ v) >> 2) / c) | r;
        }
        Some(RelSet(v))
    }
}

/// Software `pdep`: deposits the low bits of `src` into the set positions of
/// `mask`, in increasing position order.
///
/// Used to turn a dense subset index `1..2^|S|` into a submask of `S`.
#[inline]
pub fn pdep(src: u64, mask: u64) -> u64 {
    let mut result = 0u64;
    let mut m = mask;
    let mut bit = 1u64;
    while m != 0 {
        let lowest = m & m.wrapping_neg();
        if src & bit != 0 {
            result |= lowest;
        }
        m ^= lowest;
        bit <<= 1;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn binomial_table() {
        assert_eq!(binomial(0, 0), 1);
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 5), 1);
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(10, 3), 120);
        assert_eq!(binomial(25, 12), 5_200_300);
        assert_eq!(binomial(3, 5), 0);
        assert_eq!(binomial(64, 32), 1_832_624_140_942_590_534);
    }

    #[test]
    fn binomial_pascal_identity() {
        for n in 1..30u64 {
            for k in 1..n {
                assert_eq!(
                    binomial(n, k),
                    binomial(n - 1, k - 1) + binomial(n - 1, k),
                    "C({n},{k})"
                );
            }
        }
    }

    #[test]
    fn ksubsets_count_and_uniqueness() {
        for n in 1..=10usize {
            for k in 1..=n {
                let sets: Vec<RelSet> = KSubsets::new(n, k).collect();
                assert_eq!(sets.len() as u64, binomial(n as u64, k as u64));
                let distinct: HashSet<u64> = sets.iter().map(|s| s.bits()).collect();
                assert_eq!(distinct.len(), sets.len());
                for s in &sets {
                    assert_eq!(s.len(), k);
                    assert!(s.is_subset(RelSet::first_n(n)));
                }
            }
        }
    }

    #[test]
    fn ksubsets_edge_cases() {
        assert_eq!(KSubsets::new(5, 0).count(), 0);
        assert_eq!(KSubsets::new(5, 6).count(), 0);
        assert_eq!(KSubsets::new(1, 1).count(), 1);
        assert_eq!(KSubsets::new(64, 1).count(), 64);
        assert_eq!(KSubsets::new(64, 63).count(), 64);
    }

    #[test]
    fn pdep_basics() {
        assert_eq!(pdep(0b000, 0b101010), 0);
        assert_eq!(pdep(0b001, 0b101010), 0b000010);
        assert_eq!(pdep(0b010, 0b101010), 0b001000);
        assert_eq!(pdep(0b100, 0b101010), 0b100000);
        assert_eq!(pdep(0b111, 0b101010), 0b101010);
    }

    #[test]
    fn pdep_enumerates_all_submasks() {
        let mask = 0b1101u64;
        let k = mask.count_ones();
        let subs: HashSet<u64> = (0..(1u64 << k)).map(|i| pdep(i, mask)).collect();
        assert_eq!(subs.len(), 1 << k);
        for s in &subs {
            assert_eq!(s & !mask, 0);
        }
    }
}
