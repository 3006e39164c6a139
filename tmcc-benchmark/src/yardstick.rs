//! The host-speed yardstick that every end-to-end time is scaled by.
//!
//! On a shared host, other tenants' work slows this process by up to ~2×
//! for seconds to minutes at a time, and a run that falls in such a
//! stretch reads slow however long it is. The yardstick is fixed work
//! timed on the same thread right after each timed phase of a workload: a
//! contended stretch slows both, so the phase's time divided by the
//! yardstick's keeps what the simulator did and drops most of what the
//! host did to it. The yardstick is the benchmark's own code, so no change
//! to the simulator moves it.
//!
//! The work is building a B-tree map of 50,000 fixed random keys. Of the
//! candidates timed beside `steady_tmcc` and `steady_compresso` slices on
//! a shared 2-vCPU host (an ALU loop, random reads over 16 and 64 MB,
//! lookups in a 1M-key B-tree and hash map, pointer chases, sorts of
//! integers and strings, calls to 512 functions at random, and products
//! of pairs of these), the B-tree build followed the simulator most
//! closely: over 35 stretches of 25 s of `steady_compresso`, the mean
//! scaled time per access ranged over 10 % where the raw one ranged over
//! 30 %. It follows
//! imperfectly: under contention the steady workloads slow by the
//! B-tree's slowdown to a power of about 1.2, `cliff_16g` to a power of
//! about 0.7.
//!
//! Each timing is preceded by an untimed build. The phase before it has
//! evicted the yardstick's keys, code and allocator state from the caches,
//! by an amount that depends on the simulator's own footprint; timing only
//! the warm build keeps the simulator's cache use out of the yardstick.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Keys inserted per build.
const KEYS: usize = 50_000;

/// The yardstick time, in ns, that scaled times are expressed at: about
/// what one warm build takes on this benchmark's reference host (Intel
/// Xeon under KVM) when no other tenant contends. A scaled time is then
/// roughly the time that host takes when quiet.
pub const NOMINAL_NS: f64 = 1.8e6;

/// Fixed random keys.
pub struct Yardstick {
    keys: Vec<u64>,
}

impl Yardstick {
    /// Draws the keys, the same on every run whatever the workload seed.
    pub fn new() -> Self {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let keys = (0..KEYS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Yardstick { keys }
    }

    fn build(&self) -> BTreeMap<u64, u64> {
        black_box(&self.keys).iter().map(|&k| (k, k)).collect()
    }

    /// Host ns one warm build of the map takes now.
    pub fn time_ns(&mut self) -> f64 {
        drop(black_box(self.build()));
        let t = Instant::now();
        let map = self.build();
        let ns = t.elapsed().as_nanos() as f64;
        drop(black_box(map));
        ns
    }
}

/// How long one timed phase took.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Host seconds, as measured.
    pub host_s: f64,
    /// Host seconds × [`NOMINAL_NS`] / the mean of the yardstick times on
    /// either side of the phase.
    pub scaled_s: f64,
}

/// Times phases of a workload, each followed by one yardstick timing.
pub struct Meter {
    yardstick: Yardstick,
    last_ns: f64,
    /// Every yardstick time taken, in ns.
    pub samples: Vec<f64>,
}

impl Meter {
    pub fn new() -> Self {
        let mut yardstick = Yardstick::new();
        let last_ns = yardstick.time_ns();
        Meter { yardstick, last_ns, samples: vec![last_ns] }
    }

    /// Runs `f` and returns its result with how long it took.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Phase) {
        let t = Instant::now();
        let out = f();
        let host_s = t.elapsed().as_secs_f64();
        let after_ns = self.yardstick.time_ns();
        self.samples.push(after_ns);
        let speed_ns = (self.last_ns + after_ns) / 2.0;
        self.last_ns = after_ns;
        (out, Phase { host_s, scaled_s: host_s * NOMINAL_NS / speed_ns })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_keys_are_fixed_and_the_timing_positive() {
        let (mut a, b) = (Yardstick::new(), Yardstick::new());
        assert_eq!(a.keys, b.keys);
        assert!(a.time_ns() > 0.0);
    }

    #[test]
    fn a_phase_is_scaled_by_the_yardsticks_beside_it() {
        let mut m = Meter::new();
        let ((), phase) = m.time(|| std::thread::sleep(std::time::Duration::from_millis(5)));
        assert!(phase.host_s >= 0.005);
        let speed_ns = (m.samples[0] + m.samples[1]) / 2.0;
        assert_eq!(phase.scaled_s, phase.host_s * NOMINAL_NS / speed_ns);
    }
}
