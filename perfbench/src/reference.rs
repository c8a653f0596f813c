//! A fixed reference kernel that measures how fast the host runs right now.
//!
//! Other tenants of a shared host slow every program on it for seconds to
//! minutes at a time. The kernel is the benchmark's own code, so no change
//! to the library can speed it up or slow it down; timed between the
//! workload's runs, it tracks the host's speed over the same stretch.
//!
//! It allocates, fills and frees small vectors, as set-up does and as the
//! simulator does for its packets and tables. On a shared 2-vCPU Xeon
//! virtual machine its time followed the simulator's and set-up's
//! slowdowns more closely than random read-modify-writes over a fixed
//! table did (`README.md`, "Host noise").

use std::hint::black_box;
use std::time::Instant;

/// Vectors allocated per round.
const VECTORS: u64 = 200;
/// Rounds of one timing: about 1 ms on a 2-vCPU Xeon virtual machine
/// whose other tenants are idle.
const ROUNDS: u32 = 110;

/// Host seconds of one fixed batch of allocations: `ROUNDS` times,
/// `VECTORS` vectors of 64–113 words, each filled, then all freed.
pub fn time() -> f64 {
    let t = Instant::now();
    for _ in 0..ROUNDS {
        let vectors: Vec<Vec<u64>> = (0..VECTORS)
            .map(|j| vec![j; 64 + (j % 50) as usize])
            .collect();
        black_box(vectors);
    }
    t.elapsed().as_secs_f64()
}
