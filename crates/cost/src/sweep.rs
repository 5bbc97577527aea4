//! Deterministic inputs for the bit-identity sweeps of cost arithmetic: the
//! models' own tests, and the eight-lane pricing of the MPDP set kernel
//! (`mpdp-dp`), draw the same stream under the same constants.

use crate::pglike::{PgLikeCost, PgParams};

/// Deterministic stream of non-negative test magnitudes: mostly `[2⁻⁴,
/// 2³⁶)` with a random mantissa, mixed with the small row counts around the
/// sort-merge boundary and with powers of two and their neighbours (where
/// the exponent test of the PostgreSQL-like model flips). The field is the
/// stream's state; a seed starts it.
#[derive(Clone, Debug)]
pub struct Magnitudes(pub u64);

impl Magnitudes {
    /// The next raw draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mpdp_core::memo::murmur3_fmix64(self.0)
    }

    /// The next magnitude.
    pub fn draw(&mut self) -> f64 {
        let x = self.next_u64();
        let exp = (x >> 8) % 40; // 2⁻⁴ … 2³⁵
        let pow = f64::from_bits((1023 - 4 + exp) << 52);
        match x % 16 {
            0 => [0.0, 1.0, 2.0, 7.0, 8.0][(x >> 16) as usize % 5],
            1 => pow,
            2 => f64::from_bits(pow.to_bits() - 1),
            3 => f64::from_bits(pow.to_bits() + 1),
            _ => f64::from_bits(pow.to_bits() | (x >> 12)),
        }
    }
}

/// The three sets of constants the PostgreSQL-like sweeps run under.
pub fn swept_models() -> [PgLikeCost; 3] {
    [
        PgLikeCost::new(),
        // Tuples dear, comparisons cheap: the boundary moves from 8 to 2048
        // rows and sort-merge does win below it.
        PgLikeCost {
            params: PgParams {
                seq_page_cost: 4.0,
                cpu_tuple_cost: 0.1,
                cpu_operator_cost: 0.005,
                tuples_per_page: 64.0,
            },
        },
        // 2·op == op + tuple: the dominance test is an exact tie for every
        // larger input in [2, 4).
        PgLikeCost {
            params: PgParams {
                cpu_tuple_cost: 0.01,
                cpu_operator_cost: 0.01,
                ..PgParams::default()
            },
        },
    ]
}
