//! The MPDP set kernel's splits on AVX-512 lanes: eight connected sets of one
//! level per step, one set per lane — the paper's §5 mapping of one thread
//! per set, evaluated in lock-step and pruned once.
//!
//! [`set_mins`] does on all eight lanes what
//! [`SetKernel::evaluate`](crate::mpdp::SetKernel::evaluate) does for its one
//! set, for three sources of splits:
//!
//! * **bridges** with no leaf end, one per step for every lane: test whether
//!   the bridge lies in the set and split the set by the bridge's `side`;
//! * **leaf bridges**, the lowest leaf of each lane's own set per step
//!   (`v = m & −m` of `m = S ∩ P`, `P` the leaves): the split is `{v}` and
//!   `S \ {v}`, oriented as the bridge's `side` orients it, and the
//!   singleton's cost and rows come from a 64-entry array read from the memo
//!   once per kernel;
//! * **tabled cyclic blocks**, each lane gathering its own row of the
//!   block's [`SplitTable`] (at the rank of `S ∩ B`, computed in lanes) and
//!   walking it: step `t` gathers the `t`-th hanging mask `H` of the lanes
//!   whose row is that long, and the left side is `H ∩ S`, one AND, as for
//!   a bridge.
//!
//! Each split has the same body, a macro inlined into each loop: look each
//! side's cost and rows up in the memo (a gather at the home slot the
//! store's [`Addressing`](mpdp_core::memo::Addressing) names; on a direct
//! table, where every set looked up sits in its home, the key is not read),
//! skip the split where the model's
//! [`join_cost_floor`](mpdp_cost::CostModel::join_cost_floor) says it cannot
//! beat the lane's best so far, price both orders with the model's
//! arithmetic in the scalar operation order (no FMA), and keep the lane's
//! minimum under [`candidate_key`](mpdp_core::memo::candidate_key) with
//! blends. A split the lanes cannot finish — a side that is not in its home
//! slot (a displaced key of a hashed table), or a sort-merge price, which
//! needs a `log2` — goes on one spill list as `(lane, left)`, and the scalar
//! kernel prices it against the lane's minimum. The minimum does not depend
//! on the order the splits arrive in, so every result is the scalar kernel's,
//! bit for bit; `lanes_equal_scalar` holds the two equal.
//!
//! This module holds every `unsafe` block and every `#[target_feature]` of
//! the crate. Each `unsafe` block is a load or store through a reference to
//! an eight-element array (the type carries the length), a gather whose
//! words the lines above bound to the array it reads, or the call into the
//! `#[target_feature]` kernel behind [`detected`].

use mpdp_core::blocks::{Bridge, SplitTable};
use mpdp_core::memo::MemoLanes;
use mpdp_core::RelSet;
use mpdp_cost::model::LaneForm;

/// Sets per step.
pub const LANES: usize = 8;

/// The splits [`set_mins`] prices, beside the sets themselves.
pub(crate) struct Sources<'s> {
    /// The bridges with no end in `leaves`, one per step for every lane.
    pub bridges: &'s [Bridge],
    /// `P`: one end of every bridge that has a relation of degree 1, that
    /// relation (of the one bridge of a 2-relation query, the higher end).
    pub leaves: RelSet,
    /// The leaves that are their bridge's lower end: there the split's left
    /// side is the leaf, elsewhere the rest of the set.
    pub low: RelSet,
    /// Each leaf's memo cost and rows, by relation.
    pub singles: &'s Singles,
    /// The split tables of the graph's cyclic blocks that have one.
    pub tables: &'s [SplitTable<'s>],
}

/// The cost and rows of the singleton `{v}` at index `v`, as
/// [`MemoRead::cost_rows`](mpdp_core::memo::MemoRead::cost_rows) reads
/// them: the word arrays the leaf loop gathers from.
#[derive(Clone, Debug)]
pub(crate) struct Singles {
    pub cost: [f64; 64],
    pub rows: [f64; 64],
}

impl Default for Singles {
    fn default() -> Self {
        Singles {
            cost: [0.0; 64],
            rows: [0.0; 64],
        }
    }
}

/// What the lanes leave for each lane's set.
#[derive(Clone, Debug)]
pub(crate) struct LaneMins {
    /// The best candidate's cost, `∞` where none was priced.
    pub cost: [f64; LANES],
    /// Its [`candidate_key`](mpdp_core::memo::candidate_key), `(u64::MAX,
    /// u64::MAX)` where none was priced.
    pub key: [(u64, u64); LANES],
    /// Join-Pairs evaluated: Algorithm 3's EvaluatedCounter over these
    /// splits, as [`SetOutcome::evaluated`](crate::mpdp::SetOutcome::evaluated).
    pub evaluated: [u64; LANES],
    /// CCP pairs among them.
    pub ccp: [u64; LANES],
}

/// Whether this CPU has the features the kernel is compiled for.
#[cfg(target_arch = "x86_64")]
pub(crate) fn detected() -> bool {
    use std::sync::LazyLock;
    static DETECTED: LazyLock<bool> = LazyLock::new(|| {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")
    });
    *DETECTED
}

/// Whether this CPU has the features the kernel is compiled for.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn detected() -> bool {
    false
}

/// The splits of `src` over `sets`, of cardinalities `rows`, whose floors
/// are `floors` (the model's `join_cost_floor` of each), against `memo`'s
/// view; the splits the scalar kernel must price go onto `spills` as
/// `(lane, left)`. `None` where the features are not detected.
pub(crate) fn set_mins(
    form: LaneForm,
    memo: MemoLanes<'_>,
    src: &Sources<'_>,
    sets: &[RelSet; LANES],
    rows: &[f64; LANES],
    floors: &[f64; LANES],
    spills: &mut Vec<(usize, RelSet)>,
) -> Option<LaneMins> {
    if !detected() {
        return None;
    }
    #[cfg(target_arch = "x86_64")]
    {
        let tables = x86::Tables::new(memo);
        // SAFETY: `detected` saw every feature the kernel enables.
        Some(unsafe { x86::set_mins(form, &tables, src, sets, rows, floors, spills) })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (form, memo, src, sets, rows, floors, spills);
        unreachable!("detected() is false off x86-64")
    }
}

/// The pricing of [`set_mins`] alone, for the tests: both orders of the
/// splits `(a, b)` of sets of `out_rows` rows, and the lanes the scalar
/// kernel must price instead (their two costs are unspecified).
#[cfg(test)]
pub(crate) fn price(
    form: LaneForm,
    a: [(f64, f64); LANES],
    b: [(f64, f64); LANES],
    out_rows: &[f64; LANES],
) -> Option<([f64; LANES], [f64; LANES], u8)> {
    if !detected() {
        return None;
    }
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `detected` saw every feature the kernel enables.
        Some(unsafe { x86::price_only(form, a, b, out_rows) })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (form, a, b, out_rows);
        unreachable!("detected() is false off x86-64")
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{LaneMins, Sources, LANES};
    use mpdp_core::memo::{MemoLanes, Slot, GOLDEN};
    use mpdp_core::RelSet;
    use mpdp_cost::model::LaneForm;
    use mpdp_cost::pglike::PgParams;
    use std::arch::x86_64::*;
    use std::marker::PhantomData;
    use std::mem::size_of;

    // Every word a lane reads is a whole, aligned `u64` or `f64` field.
    const _: () = assert!(
        Slot::KEY.is_multiple_of(8) && Slot::COST.is_multiple_of(8) && Slot::ROWS.is_multiple_of(8)
    );

    /// A slot is `1 << SLOT_SHIFT` words.
    const SLOT_SHIFT: u32 = 2;
    const _: () = assert!(size_of::<Slot>() == 8 << SLOT_SHIFT);

    /// A memo view as word arrays: slot `i`'s key, cost and rows are word
    /// `i << SLOT_SHIFT` past `key`, `cost` and `rows`.
    pub(super) struct Tables<'a> {
        key: *const u64,
        cost: *const u64,
        rows: *const u64,
        slots: u64,
        mask: u64,
        direct: bool,
        shift: u64,
        _memo: PhantomData<MemoLanes<'a>>,
    }

    impl<'a> Tables<'a> {
        pub(super) fn new(memo: MemoLanes<'a>) -> Self {
            let MemoLanes { slots, at } = memo;
            assert_eq!(slots.len(), at.slots());
            let words = slots.as_ptr().cast::<u64>();
            Tables {
                key: words.wrapping_add(Slot::KEY / 8),
                cost: words.wrapping_add(Slot::COST / 8),
                rows: words.wrapping_add(Slot::ROWS / 8),
                slots: at.slots() as u64,
                mask: at.slots() as u64 - 1,
                direct: at.is_direct(),
                shift: at.shift() as u64,
                _memo: PhantomData,
            }
        }
    }

    /// The model's constants in lanes.
    struct Pg {
        op: __m512d,
        tuple: __m512d,
        /// `op + tuple`, rounded once as the scalar model rounds it.
        build_rate: __m512d,
        /// `2 · op`.
        two_op: __m512d,
    }

    impl Pg {
        #[inline]
        #[target_feature(enable = "avx512f,avx512dq")]
        fn new(p: &PgParams) -> Pg {
            Pg {
                op: _mm512_set1_pd(p.cpu_operator_cost),
                tuple: _mm512_set1_pd(p.cpu_tuple_cost),
                build_rate: _mm512_set1_pd(p.cpu_operator_cost + p.cpu_tuple_cost),
                two_op: _mm512_set1_pd(2.0 * p.cpu_operator_cost),
            }
        }
    }

    /// [`super::set_mins`] once the features are known.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) fn set_mins(
        form: LaneForm,
        tables: &Tables<'_>,
        src: &Sources<'_>,
        sets: &[RelSet; LANES],
        rows: &[f64; LANES],
        floors: &[f64; LANES],
        spills: &mut Vec<(usize, RelSet)>,
    ) -> LaneMins {
        let lanes = Lanes {
            tables,
            src,
            sets,
            rows,
            floors,
        };
        match form {
            LaneForm::PgLike(p) => mins::<false>(&p, lanes, spills),
            LaneForm::Cout => mins::<true>(&PgParams::default(), lanes, spills),
        }
    }

    /// The arguments of [`set_mins`], bundled.
    struct Lanes<'l> {
        tables: &'l Tables<'l>,
        src: &'l Sources<'l>,
        sets: &'l [RelSet; LANES],
        rows: &'l [f64; LANES],
        floors: &'l [f64; LANES],
    }

    /// The three split loops, for the PostgreSQL-like or the `C_out` form
    /// (`COUT`; `p` unused then).
    #[target_feature(enable = "avx512f,avx512dq")]
    fn mins<const COUT: bool>(
        p: &PgParams,
        lanes: Lanes<'_>,
        spills: &mut Vec<(usize, RelSet)>,
    ) -> LaneMins {
        let Lanes {
            tables,
            src,
            sets,
            rows,
            floors,
        } = lanes;
        let pg = Pg::new(p);
        let s = load_u64(&sets.map(RelSet::bits));
        let out_rows = load_f64(rows);
        let floor = load_f64(floors);
        let emit = _mm512_mul_pd(out_rows, pg.tuple);
        let (zero, one, two) = (
            _mm512_setzero_si512(),
            _mm512_set1_epi64(1),
            _mm512_set1_epi64(2),
        );
        let mut best_cost = _mm512_set1_pd(f64::INFINITY);
        let mut best_bits = _mm512_set1_epi64(-1);
        let mut best_left = _mm512_set1_epi64(-1);
        // Join-Pairs across the bridges and leaf bridges: both counters.
        let mut pairs = zero;

        // The split body every loop shares: the split `{left, right}` in the
        // lanes of `$lanes`, whose sides' costs and rows are `$a` and `$b`,
        // found in the memo in the lanes of `$found`.
        macro_rules! split {
            ($lanes:expr, $left:expr, $right:expr, $found:expr, $a:expr, $b:expr) => {{
                let (inside, left, right, found) = ($lanes, $left, $right, $found);
                let ((a_cost, a_rows), (b_cost, b_rows)) = ($a, $b);
                let inputs = _mm512_add_pd(a_cost, b_cost);
                // `SetMin::price`'s floor: a bound above the lane's best
                // cannot win; an `f64` comparison, on non-negative rows only.
                let bound = _mm512_add_pd(inputs, floor);
                let prune = _mm512_mask_cmp_pd_mask::<_CMP_GT_OQ>(found, bound, best_cost)
                    & _mm512_cmp_pd_mask::<_CMP_GE_OQ>(a_rows, _mm512_setzero_pd())
                    & _mm512_cmp_pd_mask::<_CMP_GE_OQ>(b_rows, _mm512_setzero_pd());
                let live = found & !prune;
                let mut slow = inside & !found;
                if live != 0 {
                    let (ab, ba, log2) = if COUT {
                        cout(a_cost, b_cost, out_rows)
                    } else {
                        pg_like(&pg, inputs, emit, (a_rows, b_rows))
                    };
                    slow |= live & log2;
                    let priced = live & !log2;
                    // `PricedSplit::better`, then the running minimum.
                    let (ab_bits, ba_bits) = (ordered_bits(ab), ordered_bits(ba));
                    let take_ab = _mm512_cmplt_epu64_mask(ab_bits, ba_bits)
                        | (_mm512_cmpeq_epi64_mask(ab_bits, ba_bits)
                            & _mm512_cmple_epu64_mask(left, right));
                    let bits = _mm512_mask_blend_epi64(take_ab, ba_bits, ab_bits);
                    let cand_left = _mm512_mask_blend_epi64(take_ab, right, left);
                    let cost = _mm512_mask_blend_pd(take_ab, ba, ab);
                    let better = _mm512_mask_cmplt_epu64_mask(priced, bits, best_bits)
                        | (_mm512_mask_cmpeq_epi64_mask(priced, bits, best_bits)
                            & _mm512_cmplt_epu64_mask(cand_left, best_left));
                    best_bits = _mm512_mask_mov_epi64(best_bits, better, bits);
                    best_left = _mm512_mask_mov_epi64(best_left, better, cand_left);
                    best_cost = _mm512_mask_mov_pd(best_cost, better, cost);
                }
                if slow != 0 {
                    spill(spills, slow, left);
                }
            }};
        }

        // Bridges, one per step for every lane.
        for bridge in src.bridges {
            let ends = _mm512_set1_epi64(bridge.ends.bits() as i64);
            let inside = _mm512_cmpeq_epi64_mask(_mm512_and_si512(s, ends), ends);
            if inside == 0 {
                continue;
            }
            pairs = _mm512_mask_add_epi64(pairs, inside, pairs, two);
            let side = _mm512_set1_epi64(bridge.side.bits() as i64);
            let left = _mm512_and_si512(s, side);
            let right = _mm512_andnot_si512(side, s);
            let (found_a, a_cost, a_rows) = lookup(tables, left, inside);
            let (found_b, b_cost, b_rows) = lookup(tables, right, inside);
            split!(
                inside,
                left,
                right,
                found_a & found_b,
                (a_cost, a_rows),
                (b_cost, b_rows)
            );
        }

        // Leaf bridges: each lane's lowest leaf left per step.
        let low = _mm512_set1_epi64(src.low.bits() as i64);
        let mut leaves = _mm512_and_si512(s, _mm512_set1_epi64(src.leaves.bits() as i64));
        loop {
            let inside = _mm512_test_epi64_mask(leaves, leaves);
            if inside == 0 {
                break;
            }
            let v = _mm512_and_si512(leaves, _mm512_sub_epi64(zero, leaves));
            leaves = _mm512_xor_si512(leaves, v);
            pairs = _mm512_mask_add_epi64(pairs, inside, pairs, two);
            let rest = _mm512_xor_si512(s, v);
            let leaf_left = _mm512_test_epi64_mask(v, low);
            let left = _mm512_mask_blend_epi64(leaf_left, rest, v);
            let right = _mm512_xor_si512(s, left);
            let (found, rest_cost, rest_rows) = lookup(tables, rest, inside);
            // `v` is one bit, so converting it to an `f64` is exact and the
            // biased exponent, less 1 023, is the leaf's index.
            let index = _mm512_sub_epi64(
                _mm512_srli_epi64::<52>(_mm512_castpd_si512(_mm512_cvtepu64_pd(v))),
                _mm512_set1_epi64(1023),
            );
            let leaf_cost = _mm512_castsi512_pd(gather64(&src.singles.cost, index, inside));
            let leaf_rows = _mm512_castsi512_pd(gather64(&src.singles.rows, index, inside));
            let a = (
                _mm512_mask_blend_pd(leaf_left, rest_cost, leaf_cost),
                _mm512_mask_blend_pd(leaf_left, rest_rows, leaf_rows),
            );
            let b = (
                _mm512_mask_blend_pd(leaf_left, leaf_cost, rest_cost),
                _mm512_mask_blend_pd(leaf_left, leaf_rows, rest_rows),
            );
            split!(inside, left, right, found, a, b);
        }

        // Tabled blocks: each lane reads its own row and walks its masks.
        let (mut table_evaluated, mut table_ccp) = (zero, zero);
        for table in src.tables {
            let (vertices, table_rows, masks) = (table.vertices(), table.rows(), table.masks());
            assert_eq!(table_rows.len(), (1 << vertices.len()) + 1);
            // The rank of `S ∩ B`: the set's bits at the block's vertices,
            // moved down, below `2^|B|`.
            let mut rank = zero;
            for (k, v) in vertices.iter().enumerate() {
                let bit = _mm512_and_si512(_mm512_srl_epi64(s, _mm_cvtsi64_si128(v as i64)), one);
                rank = _mm512_or_si512(rank, _mm512_sll_epi64(bit, _mm_cvtsi64_si128(k as i64)));
            }
            // SAFETY: `rank + 1 ≤ 2^|B| < table_rows.len()`, checked above.
            let (row, next) = unsafe {
                let rows = table_rows.as_ptr().cast();
                (
                    _mm512_i64gather_epi64::<8>(rank, rows),
                    _mm512_i64gather_epi64::<8>(_mm512_add_epi64(rank, one), rows),
                )
            };
            let low = _mm512_set1_epi64(u32::MAX as i64);
            let start = _mm512_and_si512(row, low);
            let end = _mm512_and_si512(next, low);
            let len = _mm512_sub_epi64(end, start);
            table_evaluated = _mm512_add_epi64(table_evaluated, _mm512_srli_epi64::<32>(row));
            table_ccp = _mm512_add_epi64(table_ccp, _mm512_slli_epi64::<1>(len));
            let past = _mm512_cmpgt_epu64_mask(end, _mm512_set1_epi64(masks.len() as i64))
                | _mm512_cmpgt_epu64_mask(start, end);
            if past != 0 {
                out_of_bounds(masks.len() as u64, end, past);
            }
            for t in 0.._mm512_reduce_max_epu64(len) {
                let t = _mm512_set1_epi64(t as i64);
                let inside = _mm512_cmplt_epu64_mask(t, len);
                let at = _mm512_add_epi64(start, t);
                // SAFETY: `start ≤ at < end ≤ masks.len()` in the lanes of
                // `inside` (the check above), and a `RelSet` is a `u64`.
                let hang = unsafe {
                    _mm512_mask_i64gather_epi64::<8>(zero, inside, at, masks.as_ptr().cast())
                };
                let left = _mm512_and_si512(hang, s);
                let right = _mm512_andnot_si512(hang, s);
                let (found_a, a_cost, a_rows) = lookup(tables, left, inside);
                let (found_b, b_cost, b_rows) = lookup(tables, right, inside);
                split!(
                    inside,
                    left,
                    right,
                    found_a & found_b,
                    (a_cost, a_rows),
                    (b_cost, b_rows)
                );
            }
        }

        let (mut cost, mut bits, mut left, mut evaluated, mut ccp) =
            ([0.0; LANES], [0; LANES], [0; LANES], [0; LANES], [0; LANES]);
        store_f64(&mut cost, best_cost);
        store_u64(&mut bits, best_bits);
        store_u64(&mut left, best_left);
        store_u64(&mut evaluated, _mm512_add_epi64(pairs, table_evaluated));
        store_u64(&mut ccp, _mm512_add_epi64(pairs, table_ccp));
        LaneMins {
            cost,
            key: std::array::from_fn(|j| (bits[j], left[j])),
            evaluated,
            ccp,
        }
    }

    /// Appends `(j, left[j])` to `spills` for each lane `j` of `slow`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn spill(spills: &mut Vec<(usize, RelSet)>, slow: __mmask8, left: __m512i) {
        let mut lefts = [0u64; LANES];
        store_u64(&mut lefts, left);
        let mut slow = slow;
        while slow != 0 {
            let j = slow.trailing_zeros() as usize;
            spills.push((j, RelSet(lefts[j])));
            slow &= slow - 1;
        }
    }

    /// Word `index` of `words` in the lanes of `lanes`, 0 elsewhere.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn gather64(words: &[f64; 64], index: __m512i, lanes: __mmask8) -> __m512i {
        let index = _mm512_and_si512(index, _mm512_set1_epi64(63));
        // SAFETY: the line above keeps every index below the array's 64.
        unsafe {
            _mm512_mask_i64gather_epi64::<8>(
                _mm512_setzero_si512(),
                lanes,
                index,
                words.as_ptr().cast(),
            )
        }
    }

    /// Looks the sets `bits` up in the lanes of `lanes`, as
    /// `MemoRead::cost_rows` would from their home slots: the lanes where
    /// the home slot holds the set, and there its cost and rows. Every set
    /// the kernel looks up is a connected subset of a set of the level
    /// plan, so it was laid out, and on a direct table it is in its home.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn lookup(t: &Tables<'_>, bits: __m512i, lanes: __mmask8) -> (__mmask8, __m512d, __m512d) {
        // `Addressing::home`, lane for lane.
        let home = if t.direct {
            _mm512_and_si512(bits, _mm512_set1_epi64(t.mask as i64))
        } else {
            _mm512_srl_epi64(
                _mm512_mullo_epi64(bits, _mm512_set1_epi64(GOLDEN as i64)),
                _mm_cvtsi64_si128(t.shift as i64),
            )
        };
        let outside = _mm512_mask_cmpge_epu64_mask(lanes, home, _mm512_set1_epi64(t.slots as i64));
        if outside != 0 {
            out_of_bounds(t.slots, home, outside);
        }
        // A direct home is the set's own slot, and every set looked up (a
        // connected subset of a set of the plan) was laid out, so its key
        // is read only to check that. A hashed home may hold another set, so
        // its record is read only where the key says it is the set's.
        let found = if t.direct && !cfg!(debug_assertions) {
            lanes
        } else {
            let key = gather(t.key, home, lanes);
            _mm512_mask_cmpeq_epi64_mask(lanes, key, bits)
        };
        debug_assert!(!t.direct || found == lanes, "a set was not laid out");
        let cost = gather(t.cost, home, found);
        let rows = gather(t.rows, home, found);
        (found, _mm512_castsi512_pd(cost), _mm512_castsi512_pd(rows))
    }

    /// Word `slot << SLOT_SHIFT` past `words` in the lanes of `lanes`, 0
    /// elsewhere. The caller checked every lane's `slot` against the
    /// table's slot count.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn gather(words: *const u64, slot: __m512i, lanes: __mmask8) -> __m512i {
        let index = _mm512_slli_epi64::<SLOT_SHIFT>(slot);
        // SAFETY: `Tables::new` points `words` at one field of the first
        // slot, of the table's slots of `8 << SLOT_SHIFT` bytes each; so
        // word `slot << SLOT_SHIFT` is that field of `slot`, inside the
        // table. The table's one writer waits while a view of it is read.
        unsafe {
            _mm512_mask_i64gather_epi64::<8>(_mm512_setzero_si512(), lanes, index, words.cast())
        }
    }

    #[cold]
    #[inline(never)]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn out_of_bounds(len: u64, at: __m512i, outside: __mmask8) -> ! {
        let mut lanes = [0u64; LANES];
        store_u64(&mut lanes, at);
        let word = lanes[outside.trailing_zeros() as usize];
        panic!("word {word} outside an array of {len}")
    }

    /// `CoutCost::join_cost_both`: `(a.cost + b.cost) + out` and `(b.cost +
    /// a.cost) + out`, the default's two `join_cost` calls. Nothing needs
    /// the scalar kernel.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn cout(a_cost: __m512d, b_cost: __m512d, out_rows: __m512d) -> (__m512d, __m512d, __mmask8) {
        (
            _mm512_add_pd(_mm512_add_pd(a_cost, b_cost), out_rows),
            _mm512_add_pd(_mm512_add_pd(b_cost, a_cost), out_rows),
            0,
        )
    }

    /// `PgLikeCost::join_cost_both`, lane for lane, in its operation order,
    /// where sort-merge is dominated and left out; the lanes where it is
    /// priced (an input under eight rows with the default constants) need
    /// its `log2` and are returned for the scalar model.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn pg_like(
        pg: &Pg,
        inputs: __m512d,
        emit: __m512d,
        (a_rows, b_rows): (__m512d, __m512d),
    ) -> (__m512d, __m512d, __mmask8) {
        let qual = _mm512_mul_pd(_mm512_mul_pd(a_rows, b_rows), pg.op);
        (
            ordered(pg, inputs, emit, qual, a_rows, b_rows),
            ordered(pg, inputs, emit, qual, b_rows, a_rows),
            !merge_dominated(pg, a_rows, b_rows),
        )
    }

    /// One order of `PgLikeCost::join_cost_both` without sort-merge: the
    /// hash join and the nested loop of `left ⋈ right`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn ordered(
        pg: &Pg,
        inputs: __m512d,
        emit: __m512d,
        qual: __m512d,
        left: __m512d,
        right: __m512d,
    ) -> __m512d {
        let hash = _mm512_add_pd(
            _mm512_add_pd(
                _mm512_add_pd(inputs, _mm512_mul_pd(right, pg.build_rate)),
                _mm512_mul_pd(left, pg.op),
            ),
            emit,
        );
        // `(left − 1).max(0.0)`: `max_pd` returns its second operand, 0,
        // where the first is NaN, as `f64::max` does; `left − 1` is never
        // −0.
        let rescans = _mm512_max_pd(
            _mm512_sub_pd(left, _mm512_set1_pd(1.0)),
            _mm512_setzero_pd(),
        );
        let rescan = _mm512_mul_pd(_mm512_mul_pd(rescans, right), pg.op);
        let nested = _mm512_add_pd(_mm512_add_pd(_mm512_add_pd(inputs, rescan), qual), emit);
        min(hash, nested)
    }

    /// `PgLikeCost::merge_dominated`, lane for lane.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn merge_dominated(pg: &Pg, a_rows: __m512d, b_rows: __m512d) -> __mmask8 {
        let a_first = _mm512_cmp_pd_mask::<_CMP_LE_OQ>(a_rows, b_rows);
        let small = _mm512_mask_blend_pd(a_first, b_rows, a_rows);
        let large = _mm512_mask_blend_pd(a_first, a_rows, b_rows);
        let biased = _mm512_and_si512(
            _mm512_srli_epi64::<52>(_mm512_castpd_si512(large)),
            _mm512_set1_epi64(0x7ff),
        );
        let exponent = _mm512_cvtepi64_pd(_mm512_sub_epi64(biased, _mm512_set1_epi64(1023)));
        let sort_floor = _mm512_mul_pd(_mm512_mul_pd(pg.two_op, large), exponent);
        _mm512_cmp_pd_mask::<_CMP_GE_OQ>(small, _mm512_setzero_pd())
            & _mm512_cmp_pd_mask::<_CMP_GE_OQ>(sort_floor, _mm512_mul_pd(large, pg.build_rate))
    }

    /// `x.min(y)` as `f64::min` computes it: `y` where `x` is NaN, else
    /// `minpd` with `x` second, which returns `x` on a tie and where `y` is
    /// NaN. (`minpd` alone returns its second operand where either is NaN.)
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn min(x: __m512d, y: __m512d) -> __m512d {
        let x_nan = _mm512_cmp_pd_mask::<_CMP_UNORD_Q>(x, x);
        _mm512_mask_mov_pd(_mm512_min_pd(y, x), x_nan, y)
    }

    /// `memo::ordered_cost_bits`, lane for lane.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn ordered_bits(cost: __m512d) -> __m512i {
        let b = _mm512_castpd_si512(cost);
        let sign = _mm512_set1_epi64(i64::MIN);
        _mm512_xor_si512(b, _mm512_or_si512(_mm512_srai_epi64::<63>(b), sign))
    }

    /// [`super::price`] once the features are known.
    #[cfg(test)]
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) fn price_only(
        form: LaneForm,
        a: [(f64, f64); LANES],
        b: [(f64, f64); LANES],
        out_rows: &[f64; LANES],
    ) -> ([f64; LANES], [f64; LANES], u8) {
        let lanes = |side: [(f64, f64); LANES]| {
            (
                load_f64(&side.map(|(c, _)| c)),
                load_f64(&side.map(|(_, r)| r)),
            )
        };
        let ((a_cost, a_rows), (b_cost, b_rows)) = (lanes(a), lanes(b));
        let out_rows = load_f64(out_rows);
        let (ab, ba, slow) = match form {
            LaneForm::Cout => cout(a_cost, b_cost, out_rows),
            LaneForm::PgLike(p) => {
                let pg = Pg::new(&p);
                let emit = _mm512_mul_pd(out_rows, pg.tuple);
                pg_like(&pg, _mm512_add_pd(a_cost, b_cost), emit, (a_rows, b_rows))
            }
        };
        let (mut x, mut y) = ([0.0; LANES], [0.0; LANES]);
        store_f64(&mut x, ab);
        store_f64(&mut y, ba);
        (x, y, slow)
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn load_u64(src: &[u64; LANES]) -> __m512i {
        // SAFETY: reads the array's 64 bytes; `loadu` takes any alignment.
        unsafe { _mm512_loadu_si512(src.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn load_f64(src: &[f64; LANES]) -> __m512d {
        // SAFETY: reads the array's 64 bytes; `loadu` takes any alignment.
        unsafe { _mm512_loadu_pd(src.as_ptr()) }
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn store_u64(dst: &mut [u64; LANES], v: __m512i) {
        // SAFETY: writes the array's 64 bytes; `storeu` takes any alignment.
        unsafe { _mm512_storeu_si512(dst.as_mut_ptr().cast(), v) }
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn store_f64(dst: &mut [f64; LANES], v: __m512d) {
        // SAFETY: writes the array's 64 bytes; `storeu` takes any alignment.
        unsafe { _mm512_storeu_pd(dst.as_mut_ptr(), v) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdp_cost::sweep::{swept_models, Magnitudes};
    use mpdp_cost::{CostModel, CoutCost, InputEst};
    use std::hint::black_box;

    const SKIPPED: &str = "skipped: AVX-512 (F, DQ) not detected on this machine";

    /// The lane forms under test: the PostgreSQL-like model under the
    /// sweep's three sets of constants, and `C_out`.
    fn models() -> Vec<Box<dyn CostModel>> {
        let mut models: Vec<Box<dyn CostModel>> = Vec::new();
        for m in swept_models() {
            models.push(Box::new(m));
        }
        models.push(Box::new(CoutCost));
        models
    }

    /// A price's bits, or `None` for a NaN: Rust leaves a NaN result's sign
    /// and payload unspecified, and the compiler may commute the operands
    /// of an `f64` addition, which picks the NaN an addition of two returns.
    fn bits(cost: f64) -> Option<u64> {
        (!cost.is_nan()).then_some(cost.to_bits())
    }

    /// Prices eight splits `(a[j], b[j])` of sets of `out[j]` rows on lanes
    /// and through the model's own `join_cost_both`, called through the
    /// trait as the scalar kernel calls it, and asserts every lane the lanes
    /// priced equal to the bit. Returns the lanes handed back to the scalar
    /// kernel, which may only be those where sort-merge is priced.
    fn compare(
        model: &dyn CostModel,
        a: [(f64, f64); LANES],
        b: [(f64, f64); LANES],
        out: [f64; LANES],
    ) -> u8 {
        let form = model.lane_form().expect("a lane form");
        let (ab, ba, slow) = price(form, a, b, &out).expect("detected");
        let est = |(cost, rows)| InputEst { cost, rows };
        for j in 0..LANES {
            let (a, b) = (est(a[j]), est(b[j]));
            if slow >> j & 1 != 0 {
                assert!(
                    matches!(form, LaneForm::PgLike(_)),
                    "{form:?} hands nothing back"
                );
                continue;
            }
            let want = black_box(model).join_cost_both(a, b, out[j]);
            assert_eq!(
                (bits(ab[j]), bits(ba[j])),
                (bits(want.0), bits(want.1)),
                "{form:?} a={a:?} b={b:?} out={}: lanes ({}, {}), scalar {want:?}",
                out[j],
                ab[j],
                ba[j]
            );
        }
        slow
    }

    /// The two-million-input sweep of `pglike.rs`, eight inputs per step,
    /// under every lane form: both orders equal to the bit wherever the
    /// lanes price.
    #[test]
    fn lanes_equal_scalar_pricing_over_the_sweep() {
        if !detected() {
            return println!("{SKIPPED}");
        }
        // Release builds (CI's plan-smoke leg) run the full two million.
        let cases = if cfg!(debug_assertions) {
            100_000
        } else {
            2_000_000
        };
        let models = models();
        let mut rng = Magnitudes(42);
        let (mut handed_back, mut priced) = (0u32, 0u32);
        for step in 0..cases / LANES {
            let model = &*models[step % models.len()];
            let mut side = || std::array::from_fn(|_| (rng.draw(), rng.draw()));
            let (a, b) = (side(), side());
            let out = std::array::from_fn(|_| rng.draw());
            let slow = compare(model, a, b, out);
            handed_back += slow.count_ones();
            priced += LANES as u32 - slow.count_ones();
        }
        // Both paths are exercised (the sweep prices sort-merge on a third
        // of its inputs, `pglike.rs` counts), and most prices stay in lanes.
        assert!(
            handed_back > 0 && priced > handed_back,
            "{handed_back} of {priced}"
        );
    }

    /// Zero of either sign, NaN, infinities, negative rows and rows on
    /// either side of one and of eight (where the default constants stop
    /// pricing sort-merge), for costs, rows and output rows.
    #[test]
    fn lanes_equal_scalar_pricing_on_specials() {
        if !detected() {
            return println!("{SKIPPED}");
        }
        let rows = [
            0.0,
            -0.0,
            0.5,
            1.0,
            1.5,
            7.0,
            7.999,
            8.0,
            1e6,
            f64::INFINITY,
            -1.0,
            -1e6,
            f64::NAN,
        ];
        let costs = [0.0, -0.0, 3.5, 1e9, f64::INFINITY, f64::NAN];
        let mut inputs = Vec::new();
        for &a_cost in &costs {
            for &b_cost in &costs {
                for &a_rows in &rows {
                    for &b_rows in &rows {
                        for &out in &rows {
                            inputs.push(((a_cost, a_rows), (b_cost, b_rows), out));
                        }
                    }
                }
            }
        }
        let mut in_lanes = 0;
        for model in models() {
            for step in inputs.chunks(LANES) {
                let lane = |j: usize| step[j % step.len()];
                let a = std::array::from_fn(|j| lane(j).0);
                let b = std::array::from_fn(|j| lane(j).1);
                let out = std::array::from_fn(|j| lane(j).2);
                in_lanes += LANES - compare(&*model, a, b, out).count_ones() as usize;
            }
        }
        assert!(in_lanes > inputs.len(), "{in_lanes}");
    }
}
