//! Block-kernel telemetry shared by the engine's workloads.
//!
//! Every 64-lane block evaluation the engine issues — sweep shards,
//! MLV scans, Monte-Carlo arms — is counted here so operators can see
//! how much of the load runs word-parallel, how much lane capacity
//! tail blocks waste, and how long the packed kernel takes. The
//! counters live in [`nanoleak_obs::global()`] and therefore surface
//! through `/metrics` and `?debug=timings` like every other engine
//! metric. The per-lane arithmetic inside the kernel stays untouched:
//! telemetry is recorded once per block, never per pattern.

use std::time::Instant;

use nanoleak_core::{
    BlockScratch, CompiledEstimator, EstimateError, EstimatorMode, PatternBlock, LANES,
};
use nanoleak_variation::KernelCounts;

/// Process-wide block-kernel telemetry.
pub struct BlockMetrics {
    /// Blocks evaluated through the packed kernel.
    pub blocks: nanoleak_obs::Counter,
    /// Unused lanes of partially-filled tail blocks (a block carrying
    /// `n < 64` patterns wastes `64 - n` lanes of kernel capacity).
    pub tail_lane_waste: nanoleak_obs::Counter,
    /// Wall time of one block evaluation (simulate + resolve).
    pub kernel_seconds: nanoleak_obs::Histogram,
}

/// The engine's shared block metrics, registered on first use.
pub fn block_metrics() -> &'static BlockMetrics {
    static METRICS: std::sync::OnceLock<BlockMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| BlockMetrics {
        blocks: nanoleak_obs::global().counter(
            "nanoleak_block_blocks_total",
            "64-lane pattern blocks evaluated through the packed kernel",
        ),
        tail_lane_waste: nanoleak_obs::global().counter(
            "nanoleak_block_tail_lane_waste_total",
            "Unused lanes of partially-filled tail blocks",
        ),
        kernel_seconds: nanoleak_obs::global().histogram(
            "nanoleak_block_kernel_seconds",
            "Wall time to evaluate one pattern block (simulate + resolve)",
        ),
    })
}

/// Evaluates the seed-derived index range `start .. start + count`
/// (at most [`LANES`] patterns) through the packed block kernel,
/// recording the block counters and kernel latency. Totals land in
/// `scratch.totals()` in lane = index order, bit-identical to the
/// scalar `estimate_index_into` stream.
///
/// # Errors
/// Forwards the kernel's [`EstimateError`].
pub fn eval_block_timed(
    plan: &CompiledEstimator<'_>,
    scratch: &mut BlockScratch,
    seed: u64,
    start: usize,
    count: usize,
    mode: EstimatorMode,
) -> Result<(), EstimateError> {
    let t = Instant::now();
    plan.estimate_index_block_into(scratch, seed, start, count, mode)?;
    let m = block_metrics();
    m.kernel_seconds.record_duration(t.elapsed());
    m.blocks.inc();
    m.tail_lane_waste.add((LANES - count) as u64);
    Ok(())
}

/// Like [`eval_block_timed`] for a caller-packed [`PatternBlock`]
/// (the MLV exhaustive scan packs bit-encoded assignments rather than
/// seed-derived streams).
///
/// # Errors
/// Forwards the kernel's [`EstimateError`].
pub fn eval_packed_block_timed(
    plan: &CompiledEstimator<'_>,
    scratch: &mut BlockScratch,
    block: &PatternBlock,
    mode: EstimatorMode,
) -> Result<(), EstimateError> {
    let t = Instant::now();
    plan.estimate_block_into(scratch, block, mode)?;
    let m = block_metrics();
    m.kernel_seconds.record_duration(t.elapsed());
    m.blocks.inc();
    m.tail_lane_waste.add((LANES - block.len()) as u64);
    Ok(())
}

/// Records the packed-kernel work a Monte-Carlo range returned. The
/// counts are tallied at the kernel calls inside `nanoleak-variation`,
/// which stays free of observability dependencies.
pub fn record_kernel_counts(counts: &KernelCounts) {
    let m = block_metrics();
    m.blocks.add(counts.blocks);
    m.tail_lane_waste.add(counts.tail_lane_waste);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_register_once_and_accumulate() {
        let before = block_metrics().blocks.get();
        record_kernel_counts(&KernelCounts { blocks: 3, tail_lane_waste: 5 });
        assert_eq!(block_metrics().blocks.get(), before + 3);
        // Same statics on re-entry: the registry never double-registers.
        let again = block_metrics();
        again.blocks.inc();
        assert_eq!(block_metrics().blocks.get(), before + 4);
    }
}
