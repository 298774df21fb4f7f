//! A gauge of the processor's current speed, for expressing measured
//! times at a fixed reference clock.
//!
//! On a shared host the clock of this machine's processors moves with
//! the load other tenants put on the same package (turbo frequency
//! steps), by up to 1.3× over seconds to minutes. The gauge is a chain
//! of dependent multiplies: it runs in registers, so other tenants'
//! memory traffic barely touches it, and its time moves in the same
//! steps as the clock.

use std::hint::black_box;
use std::time::Instant;

/// Multiplies in one gauge chain (about 0.4 ms).
const CHAIN: u64 = 200_000;

/// Gauge reading on the reference machine at its fastest observed
/// clock (see `README.md`): [`at_reference_clock`] maps a time measured
/// at that clock to itself.
pub const REFERENCE_NS: f64 = 375_000.0;

/// Nanoseconds the multiply chain takes now (fastest of three runs).
pub fn gauge_ns() -> u64 {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut x = black_box(0x9e37_79b9_7f4a_7c15_u64);
            for i in 0..CHAIN {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i) ^ (x >> 29);
            }
            black_box(x);
            start.elapsed().as_nanos() as u64
        })
        .min()
        .expect("three runs")
}

/// `ns`, measured while the gauge read `gauge_ns`, scaled to the
/// reference clock.
pub fn at_reference_clock(ns: u64, gauge_ns: u64) -> f64 {
    ns as f64 * REFERENCE_NS / gauge_ns as f64
}
