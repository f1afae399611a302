//! The repository benchmark: the BarterCast piece-to-choke path on a
//! live swarm, and the trace-driven simulator, timed end to end and
//! layer by layer from outside the program.
//!
//! * [`bench`] runs one workload for a fixed time and reduces it to
//!   metrics;
//! * [`swarm`] holds the two swarm workloads and their gates, run
//!   through the shipped `SwarmCluster`;
//! * [`traced`] is the lockstep harness that reproduces `SwarmCluster`
//!   over the public runtime API with timing shims in place;
//! * [`layers`] is the span ledger and the shims;
//! * [`sim`] is the trace-simulator workload;
//! * [`stats`] and [`seeds`] are the order statistics and the seed
//!   derivation.

pub mod bench;
pub mod layers;
pub mod seeds;
pub mod sim;
pub mod stats;
pub mod swarm;
pub mod traced;

use std::fmt::{self, Debug, Write};

/// FNV-1a over a value's `Debug` rendering, streamed without building
/// the string. `Debug` prints floats with full precision, so equal
/// fingerprints mean bitwise-equal outcomes (up to hash collisions).
pub fn fingerprint<T: Debug + ?Sized>(value: &T) -> u64 {
    struct Fnv(u64);
    impl Write for Fnv {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{value:?}").expect("hashing into memory cannot fail");
    h.0
}
