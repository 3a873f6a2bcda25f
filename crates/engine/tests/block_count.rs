//! `nanoleak_block_blocks_total` counts only the packed blocks the MC
//! arms actually run. The counter is process-wide, so this test lives
//! alone in its own test binary: nothing else moves it while it reads.

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

/// Blocks recorded by one fast-MC run of `samples` dies at `vectors`
/// patterns each.
fn fast_mc_blocks(samples: usize, vectors: usize) -> u64 {
    let circuit = small_circuit();
    let config = CircuitMcConfig {
        samples,
        seed: 5,
        vectors,
        char_opts: char_opts_for(&circuit, true),
        ..Default::default()
    };
    let cache = MemoLibraryCache::memory_only();
    let before = block_metrics().blocks.get();
    mc_streaming_mode(&circuit, &Technology::d25(), &cache, &config, McMode::fast(), 0, |_| true)
        .unwrap()
        .expect("not cancelled");
    block_metrics().blocks.get() - before
}

#[test]
fn fast_mc_counts_the_loaded_arm_only_when_it_runs_blocks() {
    // 64 vectors: one block per die on the unloaded arm; the loaded arm
    // runs the per-lane scalar service and adds nothing.
    const { assert!(64 < TABLE_AMORTIZE_VECTORS) };
    assert_eq!(fast_mc_blocks(3, 64), 3, "exactly one arm's blocks");
    // At the table volume both arms run blocks: 4 blocks per arm.
    assert_eq!(fast_mc_blocks(2, TABLE_AMORTIZE_VECTORS), 2 * 2 * 4, "both arms' blocks");
}
