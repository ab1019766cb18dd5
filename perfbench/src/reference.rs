//! A fixed CPU kernel, timed between cycles to tell how fast the host
//! runs at the moment.
//!
//! The benchmark runs on a few cores of a shared host whose speed
//! drifts over minutes, by up to twice, with the load of its other
//! tenants; a CPU-bound workload's times drift with it. The kernel is
//! benchmark-owned code that no change to the library touches, so its
//! time tracks the host alone. A CPU-bound workload reports its times
//! as they would be on the reference host, on which one kernel call
//! takes [`NOMINAL_MS`].

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

const N: usize = 1 << 16;
/// Slots of the open-addressing table (a power of two).
const SLOTS: usize = N / 2;

/// One kernel call on the reference host: about its time on a quiet
/// 2-vCPU Xeon VM, so scaled times read close to measured ones there.
pub const NOMINAL_MS: f64 = 2.5;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Buffers kept from call to call, so that no call allocates and the
/// allocator's state does not enter the timing.
struct Scratch {
    values: Vec<u64>,
    table: Vec<(u64, u64)>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch {
        values: vec![0; N],
        table: vec![(0, 0); SLOTS],
    });
}

/// The kernel: sorting, hash-table and floating-point work of the
/// kinds a diagnosis does, on the same inputs every call. Returns a
/// checksum.
fn kernel(s: &mut Scratch) -> u64 {
    let mut state = 0x5EED;
    for v in s.values.iter_mut() {
        *v = splitmix(&mut state);
    }
    s.values.sort_unstable();
    s.table.fill((u64::MAX, 0));
    for (i, &x) in s.values.iter().enumerate() {
        let key = x % (SLOTS as u64 / 2);
        let mut slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize % SLOTS;
        while s.table[slot].0 != key && s.table[slot].0 != u64::MAX {
            slot = (slot + 1) % SLOTS;
        }
        s.table[slot] = (key, s.table[slot].1.wrapping_add(i as u64));
    }
    let mut sum = 0.0f64;
    for &x in &s.values {
        sum += (x as f64).sqrt();
    }
    s.table.iter().fold(0, |acc, e| acc ^ e.1) ^ sum.to_bits()
}

/// Wall milliseconds of one kernel call.
pub fn time_ms() -> f64 {
    SCRATCH.with(|s| {
        let mut s = s.borrow_mut();
        let t = Instant::now();
        black_box(kernel(&mut s));
        t.elapsed().as_secs_f64() * 1e3
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_the_same_work_every_call() {
        let first = SCRATCH.with(|s| kernel(&mut s.borrow_mut()));
        assert_eq!(first, SCRATCH.with(|s| kernel(&mut s.borrow_mut())));
        assert!(time_ms() > 0.0);
    }
}
