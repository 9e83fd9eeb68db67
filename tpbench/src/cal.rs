//! In-run calibration: a frozen reference kernel that runs on the measuring
//! thread, interleaved with the timed work.
//!
//! The runner this benchmark lives on is a small shared machine whose speed
//! drifts by 10–20 % between back-to-back runs of the same binary. The
//! kernel below never changes, so the time it takes *during* a timed phase
//! says how fast the machine was during that phase; every reported time is
//! `wall × REF_NOMINAL_MS ÷ mean(ref_ms of the same phase)`.
//!
//! The kernel must stay byte-for-byte what it is: `bench.ref_ms` moving with
//! a code change means the calibration itself was changed.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the machine the bounds were fixed on.
pub const REF_NOMINAL_MS: f64 = 15.0;

/// Run the kernel once this much timed work has passed since the last run:
/// at least once per 250 ms of statements of up to ~125 ms, and a 5–10 %
/// share of the timed phase.
const REF_EVERY_MS: f64 = 140.0;

const REF_INSERTS: usize = 150_000;
const REF_KEY_SPACE: u64 = 400_000;

/// xorshift64*: the only generator the benchmark uses for its own choices
/// (the engine's data generator has its own seeded RNG).
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    pub fn new(seed: u64) -> Self {
        // splitmix the seed so that small seeds do not give correlated streams
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Self((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The frozen reference kernel: hash-map build, probes and a sort — the
/// same mix of hashing, pointer chasing, allocation and branchy comparison
/// the engine's join, interning and sweep code is made of.
///
/// The kernel owns its buffers and allocates nothing while it runs: its time
/// must follow the machine's speed, not the state the allocator was left in
/// by the statement before it.
pub struct RefKernel {
    keys: Vec<u64>,
    probes: Vec<u64>,
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    sorted: Vec<u64>,
}

impl RefKernel {
    pub fn new() -> Self {
        let mut rng = XorShift::new(0x7bd8_5eed);
        let keys = (0..REF_INSERTS).map(|_| rng.below(REF_KEY_SPACE)).collect();
        let probes = (0..REF_INSERTS).map(|_| rng.below(REF_KEY_SPACE)).collect();
        let mut kernel = Self {
            keys,
            probes,
            map: HashMap::default(),
            sorted: Vec::new(),
        };
        // Sizes the buffers; later runs reuse them.
        kernel.run();
        kernel
    }

    /// One kernel run; returns its wall time in ms.
    pub fn run(&mut self) -> f64 {
        let started = Instant::now();
        self.map.clear();
        for (i, &k) in self.keys.iter().enumerate() {
            *self.map.entry(k).or_insert(0) += i as u64;
        }
        let mut found = 0u64;
        for k in &self.probes {
            if let Some(v) = self.map.get(k) {
                found = found.wrapping_add(*v);
            }
        }
        self.sorted.clone_from(&self.keys);
        self.sorted.sort_unstable();
        black_box((found, self.sorted.first().copied(), self.map.len()));
        started.elapsed().as_secs_f64() * 1e3
    }
}

/// The reference samples of one timed phase.
pub struct Phase<'k> {
    kernel: &'k mut RefKernel,
    ref_ms: Vec<f64>,
    last: Instant,
}

impl<'k> Phase<'k> {
    /// Opens a phase with one kernel run, so that even a phase shorter than
    /// the interval has a reference.
    pub fn start(kernel: &'k mut RefKernel) -> Self {
        let mut phase = Self {
            kernel,
            ref_ms: Vec::new(),
            last: Instant::now(),
        };
        phase.run_kernel();
        phase
    }

    pub fn run_kernel(&mut self) {
        self.ref_ms.push(self.kernel.run());
        self.last = Instant::now();
    }

    /// Runs the kernel if enough timed work has passed since its last run.
    /// Call between operations, never inside a timed one.
    pub fn tick(&mut self) {
        if self.last.elapsed().as_secs_f64() * 1e3 >= REF_EVERY_MS {
            self.run_kernel();
        }
    }

    pub fn ref_ms(&self) -> f64 {
        mean(&self.ref_ms)
    }

    /// Multiply a wall time of this phase by this to calibrate it.
    pub fn factor(&self) -> f64 {
        REF_NOMINAL_MS / self.ref_ms()
    }
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Sorts and returns the value at quantile `q` (nearest rank).
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The three cut points of `statistics.quantiles(values, n=4)` (Python's
/// default, exclusive method) — the spread the acceptance rule is stated in.
pub fn quartiles(values: &mut [f64]) -> [f64; 3] {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n < 2 {
        let v = values.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&mut [3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.9), 90.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
    }

    #[test]
    fn xorshift_is_deterministic_per_seed() {
        let a: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(XorShift::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(XorShift::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(XorShift::new(8), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
