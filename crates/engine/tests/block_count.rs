//! `nanoleak_block_blocks_total` counts exactly the packed-kernel
//! calls an MC run makes, the fast path's deviation probe included.
//! The counter is process-wide, so this test lives alone in its own
//! test binary, as one test function: nothing else moves it while it
//! reads.

use nanoleak_cells::CellType;
use nanoleak_device::Technology;
use nanoleak_engine::{block_metrics, mc_streaming_mode, McMode, MemoLibraryCache};
use nanoleak_netlist::{Circuit, CircuitBuilder};
use nanoleak_variation::{char_opts_for, CircuitMcConfig, TABLE_AMORTIZE_VECTORS};

fn small_circuit() -> Circuit {
    let mut b = CircuitBuilder::new("block-count");
    let a = b.add_input("a");
    let c = b.add_input("b");
    let n = b.add_gate(CellType::Nand2, &[a, c], "n");
    let y = b.add_gate(CellType::Inv, &[n], "y");
    b.mark_output(y);
    b.build().unwrap()
}

/// `(blocks, tail_lane_waste)` recorded by one MC run of `samples`
/// dies at `vectors` patterns each.
fn mc_blocks(mode: McMode, samples: usize, vectors: usize) -> (u64, u64) {
    let circuit = small_circuit();
    let config = CircuitMcConfig {
        samples,
        seed: 5,
        vectors,
        char_opts: char_opts_for(&circuit, true),
        ..Default::default()
    };
    let cache = MemoLibraryCache::memory_only();
    let m = block_metrics();
    let before = (m.blocks.get(), m.tail_lane_waste.get());
    mc_streaming_mode(&circuit, &Technology::d25(), &cache, &config, mode, 0, |_| true)
        .unwrap()
        .expect("not cancelled");
    (m.blocks.get() - before.0, m.tail_lane_waste.get() - before.1)
}

#[test]
fn mc_counts_every_packed_kernel_call() {
    // 64 vectors: one unloaded-arm block per die; the loaded arm runs
    // the per-lane scalar service and adds nothing. The fast run's
    // deviation probe re-runs all 3 dies exactly: 3 + 3 blocks.
    const { assert!(64 < TABLE_AMORTIZE_VECTORS) };
    assert_eq!(mc_blocks(McMode::fast(), 3, 64), (6, 0), "fast dies plus probe");
    assert_eq!(mc_blocks(McMode::Exact, 3, 64), (3, 0), "exact: one arm's blocks");
    // At the table volume both arms run 4 blocks per die, in the timed
    // phase and in the probe alike: 2 dies × 2 arms × 4 × 2 passes.
    assert_eq!(mc_blocks(McMode::fast(), 2, TABLE_AMORTIZE_VECTORS), (32, 0), "both arms");
    // 100 vectors: a full block and a 36-pattern tail per die, the
    // tail wasting 28 lanes.
    assert_eq!(mc_blocks(McMode::Exact, 3, 100), (6, 3 * 28), "tail lanes");
}
