//! Fixed-width bitmap relation sets.
//!
//! The exact dynamic-programming algorithms in this workspace operate on at
//! most 64 relations (the paper's exact experiments top out at ~30), so a
//! relation set is a single machine word. This mirrors both PostgreSQL's
//! `Bitmapset` for small sets and the fixed-width bitmaps of the paper's GPU
//! implementation (§5: "sets of relations ... are represented using a
//! fixed-width bitmap sets").

use std::fmt;

/// Maximum number of relations representable by a [`RelSet`].
pub const MAX_RELS: usize = 64;

/// A set of base relations, identified by indices `0..64`, stored as a bitmap.
///
/// `RelSet` is `Copy` and all operations are branch-free word ops, which is
/// what makes the inner loops of the DP algorithms cheap. It is laid out as
/// its `u64`, so a kernel may gather a slice of sets as words.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
#[repr(transparent)]
pub struct RelSet(pub u64);

impl RelSet {
    /// The empty set.
    pub const EMPTY: RelSet = RelSet(0);

    /// Creates an empty set.
    #[inline]
    pub const fn empty() -> Self {
        RelSet(0)
    }

    /// Creates the set `{i}`.
    ///
    /// # Panics
    /// Panics in debug builds if `i >= 64`.
    #[inline]
    pub fn singleton(i: usize) -> Self {
        debug_assert!(i < MAX_RELS, "relation index {i} out of range");
        RelSet(1u64 << i)
    }

    /// Creates the full set `{0, 1, .., n-1}`.
    #[inline]
    pub fn first_n(n: usize) -> Self {
        debug_assert!(n <= MAX_RELS);
        if n == MAX_RELS {
            RelSet(u64::MAX)
        } else {
            RelSet((1u64 << n) - 1)
        }
    }

    /// Builds a set from an iterator of indices.
    pub fn from_indices<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = RelSet::empty();
        for i in iter {
            s = s.with(i);
        }
        s
    }

    /// Returns `true` if the set has no elements.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of elements (population count).
    #[inline]
    pub const fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Membership test.
    #[inline]
    pub const fn contains(self, i: usize) -> bool {
        (self.0 >> i) & 1 == 1
    }

    /// `self ∪ {i}`.
    #[inline]
    pub const fn with(self, i: usize) -> Self {
        RelSet(self.0 | (1u64 << i))
    }

    /// `self \ {i}`.
    #[inline]
    pub const fn without(self, i: usize) -> Self {
        RelSet(self.0 & !(1u64 << i))
    }

    /// Set union.
    #[inline]
    pub const fn union(self, other: Self) -> Self {
        RelSet(self.0 | other.0)
    }

    /// Set intersection.
    #[inline]
    pub const fn intersect(self, other: Self) -> Self {
        RelSet(self.0 & other.0)
    }

    /// Set difference `self \ other`.
    #[inline]
    pub const fn difference(self, other: Self) -> Self {
        RelSet(self.0 & !other.0)
    }

    /// `true` if `self ⊆ other`.
    #[inline]
    pub const fn is_subset(self, other: Self) -> bool {
        self.0 & !other.0 == 0
    }

    /// `true` if the two sets share no element.
    #[inline]
    pub const fn is_disjoint(self, other: Self) -> bool {
        self.0 & other.0 == 0
    }

    /// `true` if the two sets share at least one element.
    #[inline]
    pub const fn overlaps(self, other: Self) -> bool {
        self.0 & other.0 != 0
    }

    /// Index of the lowest element. Returns `None` on the empty set.
    #[inline]
    pub fn first(self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            Some(self.0.trailing_zeros() as usize)
        }
    }

    /// The singleton set holding only the lowest element (empty stays empty).
    #[inline]
    pub const fn lowest_bit(self) -> Self {
        RelSet(self.0 & self.0.wrapping_neg())
    }

    /// Iterates over element indices in increasing order.
    #[inline]
    pub fn iter(self) -> RelIter {
        RelIter(self.0)
    }

    /// Iterates over all **non-empty** subsets of `self`, in descending bitmask
    /// order, ending with the subsets closest to the empty set. Includes
    /// `self` itself; see [`RelSet::proper_subsets`] to exclude it.
    ///
    /// This is the classic `sub = (sub - 1) & mask` enumeration used by DPSUB
    /// (Algorithm 1, line 8): the paper enumerates `S_left` over the powerset
    /// of `S`; the visiting order is irrelevant for correctness or counters.
    #[inline]
    pub fn subsets(self) -> SubsetIter {
        SubsetIter {
            mask: self.0,
            next: self.0,
            done: self.0 == 0,
        }
    }

    /// Iterates over all non-empty **proper** subsets of `self`.
    #[inline]
    pub fn proper_subsets(self) -> impl Iterator<Item = RelSet> {
        let full = self;
        self.subsets().filter(move |s| *s != full)
    }

    /// Iterates over all non-empty subsets of `self` in **ascending** numeric
    /// order. Because `A ⊂ B` implies `A.bits() < B.bits()`, this visits
    /// every subset before any of its supersets — the enumeration order
    /// DPCCP's correctness proof relies on (Moerkotte–Neumann require
    /// "subsets in increasing integer order").
    #[inline]
    pub fn subsets_ascending(self) -> AscSubsetIter {
        AscSubsetIter {
            mask: self.0,
            cur: 0,
            done: self.0 == 0,
        }
    }

    /// The underlying bit pattern.
    #[inline]
    pub const fn bits(self) -> u64 {
        self.0
    }
}

impl FromIterator<usize> for RelSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        RelSet::from_indices(iter)
    }
}

impl std::ops::BitOr for RelSet {
    type Output = RelSet;
    #[inline]
    fn bitor(self, rhs: Self) -> Self {
        self.union(rhs)
    }
}

impl std::ops::BitAnd for RelSet {
    type Output = RelSet;
    #[inline]
    fn bitand(self, rhs: Self) -> Self {
        self.intersect(rhs)
    }
}

impl std::ops::Sub for RelSet {
    type Output = RelSet;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self.difference(rhs)
    }
}

impl fmt::Debug for RelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for RelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for i in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

/// Iterator over the element indices of a [`RelSet`].
pub struct RelIter(u64);

impl Iterator for RelIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            let i = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            Some(i)
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for RelIter {}

/// Iterator over all non-empty subsets of a mask (see [`RelSet::subsets`]).
pub struct SubsetIter {
    mask: u64,
    next: u64,
    done: bool,
}

impl Iterator for SubsetIter {
    type Item = RelSet;

    #[inline]
    fn next(&mut self) -> Option<RelSet> {
        if self.done {
            return None;
        }
        let cur = self.next;
        if cur == 0 {
            self.done = true;
            return None;
        }
        self.next = (cur - 1) & self.mask;
        if self.next == 0 {
            self.done = true;
        }
        Some(RelSet(cur))
    }
}

/// Iterator over all non-empty subsets of a mask in ascending numeric order
/// (see [`RelSet::subsets_ascending`]).
pub struct AscSubsetIter {
    mask: u64,
    cur: u64,
    done: bool,
}

impl Iterator for AscSubsetIter {
    type Item = RelSet;

    #[inline]
    fn next(&mut self) -> Option<RelSet> {
        if self.done {
            return None;
        }
        // Standard trick: (cur - mask) & mask steps to the next submask in
        // increasing numeric value, wrapping to 0 after the full mask.
        self.cur = self.cur.wrapping_sub(self.mask) & self.mask;
        if self.cur == 0 {
            self.done = true;
            return None;
        }
        if self.cur == self.mask {
            self.done = true;
        }
        Some(RelSet(self.cur))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_basics() {
        let e = RelSet::empty();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert_eq!(e.first(), None);
        assert_eq!(e.iter().count(), 0);
        assert_eq!(e.subsets().count(), 0);
    }

    #[test]
    fn singleton_and_membership() {
        let s = RelSet::singleton(5);
        assert!(s.contains(5));
        assert!(!s.contains(4));
        assert_eq!(s.len(), 1);
        assert_eq!(s.first(), Some(5));
    }

    #[test]
    fn singleton_highest_bit() {
        let s = RelSet::singleton(63);
        assert!(s.contains(63));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn first_n_boundaries() {
        assert_eq!(RelSet::first_n(0), RelSet::empty());
        assert_eq!(RelSet::first_n(3).len(), 3);
        assert_eq!(RelSet::first_n(64).len(), 64);
        assert!(RelSet::first_n(64).contains(63));
    }

    #[test]
    fn union_intersect_difference() {
        let a = RelSet::from_indices([0, 1, 2]);
        let b = RelSet::from_indices([2, 3]);
        assert_eq!(a.union(b), RelSet::from_indices([0, 1, 2, 3]));
        assert_eq!(a.intersect(b), RelSet::singleton(2));
        assert_eq!(a.difference(b), RelSet::from_indices([0, 1]));
        assert_eq!(a | b, a.union(b));
        assert_eq!(a & b, a.intersect(b));
        assert_eq!(a - b, a.difference(b));
    }

    #[test]
    fn subset_disjoint_relations() {
        let a = RelSet::from_indices([1, 3]);
        let b = RelSet::from_indices([0, 1, 2, 3]);
        let c = RelSet::from_indices([4, 5]);
        assert!(a.is_subset(b));
        assert!(!b.is_subset(a));
        assert!(a.is_disjoint(c));
        assert!(!a.is_disjoint(b));
        assert!(a.overlaps(b));
        assert!(!a.overlaps(c));
        // Empty set is a subset of everything and disjoint from everything.
        assert!(RelSet::empty().is_subset(a));
        assert!(RelSet::empty().is_disjoint(a));
    }

    #[test]
    fn with_without() {
        let s = RelSet::empty().with(2).with(7).without(2);
        assert_eq!(s, RelSet::singleton(7));
        // Removing an absent element is a no-op.
        assert_eq!(s.without(3), s);
    }

    #[test]
    fn iter_ascending() {
        let s = RelSet::from_indices([9, 1, 4]);
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![1, 4, 9]);
    }

    #[test]
    fn subsets_counts_and_contents() {
        let s = RelSet::from_indices([0, 2, 5]);
        let subs: Vec<RelSet> = s.subsets().collect();
        // 2^3 - 1 non-empty subsets.
        assert_eq!(subs.len(), 7);
        for sub in &subs {
            assert!(!sub.is_empty());
            assert!(sub.is_subset(s));
        }
        // All distinct.
        let mut bits: Vec<u64> = subs.iter().map(|s| s.bits()).collect();
        bits.sort_unstable();
        bits.dedup();
        assert_eq!(bits.len(), 7);
    }

    #[test]
    fn proper_subsets_excludes_self() {
        let s = RelSet::from_indices([1, 2]);
        let subs: Vec<RelSet> = s.proper_subsets().collect();
        assert_eq!(subs.len(), 2);
        assert!(!subs.contains(&s));
    }

    #[test]
    fn ascending_subsets_order_and_completeness() {
        let s = RelSet::from_indices([0, 2, 5]);
        let subs: Vec<u64> = s.subsets_ascending().map(|x| x.bits()).collect();
        assert_eq!(subs.len(), 7);
        // Strictly increasing numeric order.
        for w in subs.windows(2) {
            assert!(w[0] < w[1]);
        }
        // Same family as the descending iterator.
        let mut desc: Vec<u64> = s.subsets().map(|x| x.bits()).collect();
        desc.sort_unstable();
        assert_eq!(subs, desc);
        // Last element is the full mask; empty set never yielded.
        assert_eq!(*subs.last().unwrap(), s.bits());
        assert!(RelSet::empty().subsets_ascending().next().is_none());
    }

    #[test]
    fn lowest_bit() {
        let s = RelSet::from_indices([3, 6]);
        assert_eq!(s.lowest_bit(), RelSet::singleton(3));
        assert_eq!(RelSet::empty().lowest_bit(), RelSet::empty());
    }

    #[test]
    fn display_format() {
        let s = RelSet::from_indices([1, 3, 5]);
        assert_eq!(format!("{s}"), "{1,3,5}");
        assert_eq!(format!("{}", RelSet::empty()), "{}");
    }

    #[test]
    fn from_iterator_trait() {
        let s: RelSet = [2usize, 4].into_iter().collect();
        assert_eq!(s, RelSet::from_indices([2, 4]));
    }
}
