//! Host facts recorded beside every result: cores, a fixed calibration loop,
//! copy bandwidth (the ceiling for the executor's bytes/s), and peak memory.

use std::hint::black_box;
use std::time::Instant;

/// Cores the process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Milliseconds one fixed integer loop takes (median of five). The loop is
/// a dependent multiply-xorshift chain: no memory traffic, nothing to
/// vectorize, so it tracks the core's clock and how much of it this VM is
/// getting. The median, not the best: this host runs ~25 % faster for a
/// fraction of a second now and then, and the calibration should read the
/// speed the workload mostly saw, not the best burst.
pub fn calib_ms() -> f64 {
    const STEPS: u64 = 30_000_000;
    let mut rounds: Vec<f64> = (0..5)
        .map(|round| {
            let start = Instant::now();
            let mut x: u64 = black_box(0x9e37_79b9_7f4a_7c15 + round);
            for _ in 0..STEPS {
                x = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
                x ^= x >> 29;
            }
            black_box(x);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median(&mut rounds)
}

/// GB/s of `copy_from_slice` between two 64 MiB buffers (best of three;
/// each byte counted once, i.e. bytes copied, not bytes read + written).
/// Far larger than any cache level here, so it is DRAM copy bandwidth.
pub fn memcpy_gbps() -> f64 {
    const BYTES: usize = 64 << 20;
    let src = vec![0x5au8; BYTES];
    let mut dst = vec![0u8; BYTES];
    (0..3)
        .map(|_| {
            let start = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
            BYTES as f64 / start.elapsed().as_secs_f64() / 1e9
        })
        .fold(0.0, f64::max)
}

/// Peak resident set of this process in MB (`VmHWM`), 0.0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

/// The reference work: a fixed piece of the *benchmark's* code, run in small
/// chunks between the operations a workload times, on the threads that time
/// them. This host is a few vCPUs of a shared machine: what its neighbours
/// do to the shared caches moves every timing of one build by 20-50 % from
/// one minute to the next, while the ALU-bound `calib_ms` moves 2-10 %. The
/// chunk is work of the program's kind (hash probing in a table the size of
/// a memo, small allocations, sorting), so the neighbours slow it by the
/// same factor, and dividing a run's timings by that factor
/// (`Slowdown::factor`) takes the host out of them. The README shows the
/// measurements this rests on.
struct Reference {
    /// Open-addressing table, 256 KiB: resident in L2, shared-cache misses
    /// under contention.
    table: Vec<u64>,
    salt: u64,
    /// No chunk before this instant.
    due: Instant,
}

/// A chunk is due this long after the previous one ended on the same
/// thread: chunks of ~0.7 ms take about a tenth of the thread's time.
const REFERENCE_EVERY: std::time::Duration = std::time::Duration::from_millis(6);

/// What a chunk takes on this host on a middling hour, ms (0.55 when its
/// neighbours are quiet, 0.8 when they are busy). A constant of the
/// benchmark: only the ratio to it matters, and it makes a normalised
/// timing read like a raw one of such an hour.
pub const REFERENCE_NOMINAL_MS: f64 = 0.7;

thread_local! {
    static REFERENCE: std::cell::RefCell<Reference> = std::cell::RefCell::new(Reference {
        table: vec![0; 1 << 15],
        salt: 0,
        due: Instant::now(),
    });
}

/// Every chunk's duration in ms since the last `reference_take`, from all
/// threads, and the time spent inside `reference_tick`.
static CHUNKS_MS: std::sync::Mutex<Vec<f64>> = std::sync::Mutex::new(Vec::new());

impl Reference {
    fn chunk(&mut self) {
        self.salt += 1;
        let mask = self.table.len() as u64 - 1;
        let mut key = black_box(self.salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let mut acc = 0u64;
        // Probe up to four slots for the key, then insert it, as a memo
        // table is used.
        for _ in 0..60_000 {
            key = key.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ (key >> 29);
            let mut slot = (key >> 20) & mask;
            let mut steps = 0;
            while self.table[slot as usize] != key && steps < 4 {
                slot = (slot + 1) & mask;
                steps += 1;
            }
            acc = acc.wrapping_add(self.table[slot as usize]);
            self.table[slot as usize] = key;
        }
        // Allocate, fill, sort and drop small vectors, as plan lists are.
        let mut kept: Vec<Vec<u32>> = Vec::with_capacity(33);
        for _ in 0..300 {
            key = key.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ (key >> 29);
            let len = 16 + (key >> 58) as usize * 4;
            let mut v: Vec<u32> = (0..len)
                .map(|j| (key >> (j % 32)) as u32 ^ j as u32)
                .collect();
            v.sort_unstable();
            kept.push(v);
            if kept.len() > 32 {
                kept.swap_remove((key >> 40) as usize % 32);
            }
        }
        black_box((acc, kept));
    }
}

/// Runs one chunk of the reference work if one is due on this thread and
/// returns the time that took (zero if none was due), for the caller to keep
/// out of what it times.
pub fn reference_tick() -> std::time::Duration {
    REFERENCE.with(|r| {
        let mut r = r.borrow_mut();
        let start = Instant::now();
        if start < r.due {
            return std::time::Duration::ZERO;
        }
        r.chunk();
        let end = Instant::now();
        r.due = end + REFERENCE_EVERY;
        CHUNKS_MS
            .lock()
            .expect("no thread panics holding this lock")
            .push((end - start).as_secs_f64() * 1e3);
        end - start
    })
}

/// How much slower than nominal the host ran the reference work.
#[derive(Clone, Copy, Debug, Default)]
pub struct Slowdown {
    pub chunks: usize,
    /// Median chunk, ms. The median: a chunk the hypervisor descheduled for
    /// half a second says nothing about the other two thousand.
    pub chunk_ms: f64,
    /// Seconds all the chunks took together, over all threads.
    pub spent_s: f64,
}

impl Slowdown {
    /// Fewer chunks than this cannot speak for an interval.
    const MIN_CHUNKS: usize = 8;

    /// Median chunk over nominal; 1 when too few chunks ran.
    pub fn factor(&self) -> f64 {
        if self.chunks < Self::MIN_CHUNKS {
            1.0
        } else {
            self.chunk_ms / REFERENCE_NOMINAL_MS
        }
    }
}

/// The slowdown over the chunks run since the previous call, by any thread.
pub fn reference_take() -> Slowdown {
    let mut chunks = std::mem::take(
        &mut *CHUNKS_MS
            .lock()
            .expect("no thread panics holding this lock"),
    );
    Slowdown {
        chunks: chunks.len(),
        spent_s: chunks.iter().sum::<f64>() / 1e3,
        chunk_ms: crate::stats::median(&mut chunks),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_chunk_runs_only_when_due_and_is_counted() {
        // This thread's first tick is due at once; the next one is not.
        reference_take();
        assert!(reference_tick() > std::time::Duration::ZERO);
        assert_eq!(reference_tick(), std::time::Duration::ZERO);
        let taken = reference_take();
        assert_eq!(taken.chunks, 1);
        assert!(taken.chunk_ms > 0.0 && (taken.spent_s - taken.chunk_ms / 1e3).abs() < 1e-12);
        assert_eq!(reference_take().chunks, 0);
    }

    #[test]
    fn too_few_chunks_do_not_speak_for_an_interval() {
        let few = Slowdown {
            chunks: Slowdown::MIN_CHUNKS - 1,
            chunk_ms: 7.0,
            spent_s: 0.0,
        };
        assert_eq!(few.factor(), 1.0);
        let enough = Slowdown {
            chunks: Slowdown::MIN_CHUNKS,
            chunk_ms: 2.0 * REFERENCE_NOMINAL_MS,
            spent_s: 0.0,
        };
        assert_eq!(enough.factor(), 2.0);
    }
}
