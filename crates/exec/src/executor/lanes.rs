//! The fused filter kernel on AVX-512 lanes: eight probe rows per step.
//!
//! [`filter`] and [`fold_keys`] do per step of eight rows exactly what
//! their scalar namesakes in the parent module do per row — same fold, same
//! bloom word and bits, survivors compacted in ascending row order — so
//! which kernel ran is invisible in every result, statistic and digest.
//! They run the rows that fill whole steps and hand the last `len % 8` to
//! the scalar kernel, which also stays the only path where the features
//! are not detected and the reference `lanes_equal_scalar` compares against.
//!
//! This module holds every `unsafe` block of the crate. Each one is either
//! a load or store through a reference to an eight-element array (the type
//! carries the length), a gather whose indices the line above compared
//! against the slice length, or the call into a `#[target_feature]` kernel
//! behind [`detected`].

use super::{Bloom, Side, HASH_SEED};
use crate::datagen::KeyColumn;
use std::arch::x86_64::*;
use std::iter::repeat;
use std::sync::LazyLock;

/// Whether this CPU has the features the kernels are compiled for.
pub(super) fn detected() -> bool {
    static DETECTED: LazyLock<bool> = LazyLock::new(|| {
        is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512dq")
            && is_x86_feature_detected!("avx512vl")
            && is_x86_feature_detected!("popcnt")
    });
    *DETECTED
}

/// [`super::filter`] over rows `lo..hi` of `side`, seeded from `seeds` (the
/// carry of the earlier edges; `None` is the bare seed). `None` where the
/// features are not detected, and nothing is written then.
pub(super) fn filter(
    seeds: Option<&[u64]>,
    side: &Side<'_>,
    lo: usize,
    hi: usize,
    bloom: &Bloom,
    survivors: &mut [u32],
    hashes: &mut [u64],
) -> Option<usize> {
    if !detected() {
        return None;
    }
    // A seed per row, or the steps and the tail below would disagree on
    // where the tail starts.
    let seeds = seeds.map(|s| &s[..hi - lo]);
    // SAFETY: `detected` saw every feature the kernel enables.
    let n = unsafe { filter_steps(seeds, side, lo, hi, bloom, survivors, hashes) };
    // The rows past the last whole step, which the scalar kernel numbers
    // from zero.
    let head = (hi - lo) & !7;
    let m = super::filter_scalar(
        seeds.map(|s| &s[head..]),
        side,
        lo + head,
        hi,
        bloom,
        &mut survivors[n..],
        &mut hashes[n..],
    );
    for row in &mut survivors[n..n + m] {
        *row += head as u32;
    }
    Some(n + m)
}

/// [`super::fold_keys`] over rows `lo..hi` of `side`. `false` where the
/// features are not detected, and `hashes` is untouched then.
pub(super) fn fold_keys(hashes: &mut [u64], side: &Side<'_>, lo: usize, hi: usize) -> bool {
    if !detected() {
        return false;
    }
    let (steps, tail) = hashes[..hi - lo].as_chunks_mut();
    // SAFETY: `detected` saw every feature the kernel enables.
    unsafe { fold_steps(steps, side, lo, hi) };
    with_keys!(side, hi - tail.len(), hi, |keys| super::fold_keys(
        tail, keys
    ));
    true
}

/// Binds `$keys` to an iterator over the widened keys of rows `$lo..$hi` of
/// a [`Side`], eight rows per item — the whole steps only, the last
/// `($hi - $lo) % 8` rows are left out — and evaluates `$body`: `with_keys!`
/// in steps.
macro_rules! with_key_steps {
    ($side:expr, $lo:expr, $hi:expr, |$keys:ident| $body:expr) => {
        match ($side.keys, $side.rowids) {
            (KeyColumn::U32(col), None) => {
                let $keys = col[$lo..$hi].as_chunks().0.iter().map(|k| load_u32(k));
                $body
            }
            (KeyColumn::U32(col), Some(rowids)) => {
                let rowids = rowids[$lo..$hi].as_chunks().0.iter();
                let $keys = rowids.map(|r| gather_u32(col, load_u32(r)));
                $body
            }
            (KeyColumn::U64(col), None) => {
                let $keys = col[$lo..$hi].as_chunks().0.iter().map(|k| load_u64(k));
                $body
            }
            (KeyColumn::U64(col), Some(rowids)) => {
                let rowids = rowids[$lo..$hi].as_chunks().0.iter();
                let $keys = rowids.map(|r| gather_u64(col, load_u32(r)));
                $body
            }
        }
    };
}

/// [`filter8`] over the whole steps of rows `lo..hi`.
#[target_feature(enable = "avx512f,avx512dq,avx512vl,popcnt")]
fn filter_steps(
    seeds: Option<&[u64]>,
    side: &Side<'_>,
    lo: usize,
    hi: usize,
    bloom: &Bloom,
    survivors: &mut [u32],
    hashes: &mut [u64],
) -> usize {
    match seeds {
        None => with_key_steps!(side, lo, hi, |keys| filter8(
            repeat(_mm512_set1_epi64(HASH_SEED as i64)),
            keys,
            bloom,
            survivors,
            hashes
        )),
        Some(seeds) => with_key_steps!(side, lo, hi, |keys| filter8(
            seeds.as_chunks().0.iter().map(|s| load_u64(s)),
            keys,
            bloom,
            survivors,
            hashes
        )),
    }
}

/// [`super::fold_keys`] over the whole steps of rows `lo..hi`, one per
/// element of `hashes`.
#[target_feature(enable = "avx512f,avx512dq,avx512vl,popcnt")]
fn fold_steps(hashes: &mut [[u64; 8]], side: &Side<'_>, lo: usize, hi: usize) {
    with_key_steps!(side, lo, hi, |keys| {
        for (h, k) in hashes.iter_mut().zip(keys) {
            store_u64(h, _mm512_rol_epi64::<32>(product8(load_u64(h), k)));
        }
    })
}

/// [`super::filter`], eight rows per step: `seeds` and `keys` yield one
/// vector per step, `survivors[..n]` and `hashes[..n]` come out as the
/// scalar kernel leaves them.
#[target_feature(enable = "avx512f,avx512dq,avx512vl,popcnt")]
fn filter8(
    seeds: impl Iterator<Item = __m512i>,
    keys: impl Iterator<Item = __m512i>,
    bloom: &Bloom,
    survivors: &mut [u32],
    hashes: &mut [u64],
) -> usize {
    let word_shift = _mm512_set1_epi64(32 + bloom.shift as i64);
    let one = _mm512_set1_epi64(1);
    let mut rows = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let mut n = 0;
    for (seed, key) in seeds.zip(keys) {
        let product = product8(seed, key);
        let h = _mm512_rol_epi64::<32>(product);
        // `Bloom::slot`, lane for lane. The low half of `h`, which `slot_of`
        // shifts, is the high half of the product (a count of 64 shifts
        // everything out, as `>> 32` of 32 bits does); a rotate takes its
        // count modulo 64, which is the `& 63` of the scalar shifts.
        let word = _mm512_srlv_epi64(product, word_shift);
        let g = _mm512_xor_si512(h, _mm512_srli_epi64::<32>(h));
        let bits = _mm512_or_si512(
            _mm512_rolv_epi64(one, g),
            _mm512_rolv_epi64(one, _mm512_srli_epi64::<6>(g)),
        );
        let words = gather_u64(&bloom.words, word);
        let hit = _mm512_cmpeq_epi64_mask(_mm512_and_si512(words, bits), bits);
        // The survivors go to the cursor, packed. A step leaves at most
        // eight and `n` counts the earlier steps', so eight slots lie ahead
        // of it wherever the buffers hold a slot per row; like the scalar
        // kernel's, the stores are unconditional and the cursor decides what
        // stays.
        let slots = "a survivor slot per probe row";
        store_u32(
            survivors[n..].first_chunk_mut().expect(slots),
            _mm256_maskz_compress_epi32(hit, rows),
        );
        store_u64(
            hashes[n..].first_chunk_mut().expect(slots),
            _mm512_maskz_compress_epi64(hit, h),
        );
        n += hit.count_ones() as usize;
        rows = _mm256_add_epi32(rows, _mm256_set1_epi32(8));
    }
    n
}

/// The product inside [`super::fold`], lane for lane: the fold is this,
/// rotated by 32.
#[inline]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,popcnt")]
fn product8(h: __m512i, key: __m512i) -> __m512i {
    _mm512_mullo_epi64(
        _mm512_xor_si512(h, key),
        _mm512_set1_epi64(HASH_SEED as i64),
    )
}

/// Eight `u32`s, widened.
#[inline]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,popcnt")]
fn load_u32(src: &[u32; 8]) -> __m512i {
    // SAFETY: reads the array's 32 bytes; `loadu` takes any alignment.
    _mm512_cvtepu32_epi64(unsafe { _mm256_loadu_si256(src.as_ptr().cast()) })
}

#[inline]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,popcnt")]
fn load_u64(src: &[u64; 8]) -> __m512i {
    // SAFETY: reads the array's 64 bytes; `loadu` takes any alignment.
    unsafe { _mm512_loadu_si512(src.as_ptr().cast()) }
}

#[inline]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,popcnt")]
fn store_u32(dst: &mut [u32; 8], v: __m256i) {
    // SAFETY: writes the array's 32 bytes; `storeu` takes any alignment.
    unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), v) }
}

#[inline]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,popcnt")]
fn store_u64(dst: &mut [u64; 8], v: __m512i) {
    // SAFETY: writes the array's 64 bytes; `storeu` takes any alignment.
    unsafe { _mm512_storeu_si512(dst.as_mut_ptr().cast(), v) }
}

/// `col[index]` per lane, widened; panics where the scalar index would.
#[inline]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,popcnt")]
fn gather_u32(col: &[u32], index: __m512i) -> __m512i {
    check_index(col.len(), index);
    // SAFETY: every lane of `index` is below `col.len()`, checked above, so
    // each lane reads four bytes inside `col`.
    _mm512_cvtepu32_epi64(unsafe { _mm512_i64gather_epi32::<4>(index, col.as_ptr().cast()) })
}

/// `col[index]` per lane; panics where the scalar index would.
#[inline]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,popcnt")]
fn gather_u64(col: &[u64], index: __m512i) -> __m512i {
    check_index(col.len(), index);
    // SAFETY: every lane of `index` is below `col.len()`, checked above, so
    // each lane reads eight bytes inside `col`.
    unsafe { _mm512_i64gather_epi64::<8>(index, col.as_ptr().cast()) }
}

/// The bounds check of a slice index, eight (unsigned, 64-bit) lanes at once.
#[inline]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,popcnt")]
fn check_index(len: usize, index: __m512i) {
    let out = _mm512_cmpge_epu64_mask(index, _mm512_set1_epi64(len as i64));
    if out != 0 {
        out_of_bounds(len, index, out)
    }
}

#[cold]
#[inline(never)]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,popcnt")]
fn out_of_bounds(len: usize, index: __m512i, out: __mmask8) -> ! {
    let mut lanes = [0u64; 8];
    store_u64(&mut lanes, index);
    let index = lanes[out.trailing_zeros() as usize];
    panic!("index out of bounds: the len is {len} but the index is {index}")
}

#[cfg(test)]
mod tests {
    use super::super::{filter_scalar, fold, Bloom, Side, HASH_SEED};
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const SKIPPED: &str = "skipped: AVX-512 (F, DQ, VL) not detected on this machine";

    /// A key column holding `keys[i]` at row `rowids[i]` (row `i` without
    /// rowids) of `rows`.
    fn column(wide: bool, keys: &[u64], rowids: Option<&[u32]>, rows: usize) -> KeyColumn {
        let mut col = vec![0; rows];
        for (i, &k) in keys.iter().enumerate() {
            col[rowids.map_or(i, |r| r[i] as usize)] = k;
        }
        match wide {
            true => KeyColumn::U64(col),
            false => KeyColumn::U32(col.iter().map(|&k| k as u32).collect()),
        }
    }

    /// One two-edge probe of `len` rows, in place and through rowids: the
    /// first edge's keys `ka` folded into a carry by both `fold_keys`, the
    /// second edge's keys `kb` filtered by both `filter`s, seeded from that
    /// carry or not. Returns the survivor count.
    fn compare(wide: bool, seeded: bool, ka: &[u64], kb: &[u64], bloom: &Bloom) -> usize {
        let len = ka.len();
        let rows = 2 * len + 3;
        let scattered: Vec<u32> = (0..len).map(|i| ((i * 7919 + 13) % rows) as u32).collect();
        let mut survived = 0;
        for rowids in [None, Some(&scattered[..])] {
            let col_a = column(wide, ka, rowids, rows);
            let col_b = column(wide, kb, rowids, rows);
            let (a, b) = (
                Side {
                    keys: &col_a,
                    rowids,
                },
                Side {
                    keys: &col_b,
                    rowids,
                },
            );
            let (mut carry, mut carry8) = (vec![HASH_SEED; len], vec![HASH_SEED; len]);
            with_keys!(a, 0, len, |keys| super::super::fold_keys(&mut carry, keys));
            assert!(fold_keys(&mut carry8, &a, 0, len));
            assert_eq!(carry, carry8);
            let seeds = seeded.then_some(&carry[..]);
            let (mut s, mut h) = (vec![0; len], vec![0; len]);
            let (mut s8, mut h8) = (vec![0; len], vec![0; len]);
            let n = filter_scalar(seeds, &b, 0, len, bloom, &mut s, &mut h);
            assert_eq!(filter(seeds, &b, 0, len, bloom, &mut s8, &mut h8), Some(n));
            assert_eq!((&s[..n], &h[..n]), (&s8[..n], &h8[..n]));
            survived = n;
        }
        survived
    }

    /// Every key shape (`u32`/`u64`, in place/through rowids), seeded and
    /// not, every tail length, blooms from one word to 2¹⁶, from no hit to
    /// all: the lanes leave what the scalar kernels leave, element for
    /// element.
    #[test]
    fn lanes_equal_scalar() {
        if !detected() {
            return println!("{SKIPPED}");
        }
        for (build_rows, wide, seeded) in [4usize, 100, 7_000, 1 << 18]
            .into_iter()
            .flat_map(|rows| [(rows, false), (rows, true)])
            .flat_map(|(rows, wide)| [(rows, wide, false), (rows, wide, true)])
        {
            // Build row `j` carries the key pair (a(j), b(j)); the keys of a
            // `u64` column do not fit 32 bits.
            let high = if wide { 1 << 40 } else { 0 };
            let a = |j: u64| high + j * 3;
            let b = |j: u64| high + j * 5 + 1;
            let mut bloom = Bloom::default();
            bloom.reset(build_rows);
            assert_eq!(bloom.words.len(), build_rows.next_power_of_two() / 4);
            for j in 0..build_rows as u64 {
                bloom.insert(match seeded {
                    true => fold(fold(HASH_SEED, a(j)), b(j)),
                    false => fold(HASH_SEED, b(j)),
                });
            }
            for per_mille in [0u64, 15, 130, 1000] {
                for len in (0..=70).chain([1024]) {
                    // Row `i` carries the keys of some build row or, one off
                    // in the second key, of none.
                    let (ka, kb): (Vec<u64>, Vec<u64>) = (0..len as u64)
                        .map(|i| {
                            let r = fold(per_mille, i);
                            let j = r % build_rows as u64;
                            let hit = (r >> 32) % 1000 < per_mille;
                            (a(j), b(j) + !hit as u64)
                        })
                        .unzip();
                    let survived = compare(wide, seeded, &ka, &kb, &bloom);
                    assert!(per_mille < 1000 || survived == len);
                }
            }
        }
    }

    /// A rowid at or past the end of its column panics on either kernel,
    /// in a full step and in the tail.
    #[test]
    fn a_rowid_past_the_column_panics_on_both_kernels() {
        if !detected() {
            return println!("{SKIPPED}");
        }
        let mut bloom = Bloom::default();
        bloom.reset(4);
        let panics = |f: &mut dyn FnMut()| catch_unwind(AssertUnwindSafe(f)).is_err();
        for col in [KeyColumn::U32(vec![7; 20]), KeyColumn::U64(vec![7; 20])] {
            for (row, rowid, out) in [
                (3, 20, true),
                (18, 20, true),
                (3, u32::MAX, true),
                (3, 19, false),
            ] {
                let mut rowids: Vec<u32> = (0..20).collect();
                rowids[row] = rowid;
                let side = Side {
                    keys: &col,
                    rowids: Some(&rowids),
                };
                let (mut s, mut h) = (vec![0; 20], vec![0; 20]);
                let mut scalar = || {
                    filter_scalar(None, &side, 0, 20, &bloom, &mut s, &mut h);
                };
                assert_eq!(panics(&mut scalar), out);
                let mut lanes = || {
                    filter(None, &side, 0, 20, &bloom, &mut s, &mut h);
                };
                assert_eq!(panics(&mut lanes), out);
                let mut fold_lanes = || {
                    fold_keys(&mut h, &side, 0, 20);
                };
                assert_eq!(panics(&mut fold_lanes), out);
            }
        }
    }
}
