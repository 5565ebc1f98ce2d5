//! Elastic multi-probe sharding: a churning fleet of independent frame
//! pipelines multiplexed on **one** worker pool.
//!
//! The paper sizes its delay architecture for one 2-D matrix probe, but
//! a production beamformer serves a fleet — simultaneous biplane views,
//! multi-probe rigs, or many remote streaming sessions sharing one
//! server, each arriving and leaving on its own schedule. Spinning up
//! one thread pool per probe multiplies oversubscription;
//! [`ShardedRuntime`] instead gives every probe its own
//! [`FramePipeline`] (its own spec, delay engine, frame source,
//! acquisition thread and warm state) while all tile work funnels into
//! a single shared [`ThreadPool`]:
//!
//! * **elastic shard lifecycle** — [`attach_shard`](ShardedRuntime::attach_shard)
//!   and [`detach_shard`](ShardedRuntime::detach_shard) add and remove
//!   pipelines while sibling shards keep streaming. Shard slots form a
//!   generation-tagged registry: a [`ShardId`] names `(slot,
//!   generation)`, so a stale id from a detached session can never
//!   alias the shard that later reuses its slot;
//! * **admission control + backpressure** — a [`RuntimeBudget`] bounds
//!   the fleet (live shards, frames in flight per round, offered voxel
//!   throughput). Attaching beyond the budget is rejected with a typed
//!   [`AdmissionError`] instead of silently queueing; when more shards
//!   are live than the per-round in-flight budget, rounds *defer*
//!   excess shards ([`ShardRound::Deferred`]) under a rotating window,
//!   so backpressure stays fair instead of starving the tail;
//! * **registry tile claims** — each shard's frame is a preregistered
//!   job whose tiles are claimed by index from a shared cursor; every
//!   pool worker takes its tasks from one registry of all registered
//!   jobs (`usbf_par`), so *any* awake worker claims tiles of any
//!   in-flight shard and one slow shard cannot idle the pool;
//! * **per-shard accounting** — every shard keeps its own
//!   [`PipelineStats`], including a fixed-bucket
//!   [`LatencyHistogram`](crate::LatencyHistogram) of frame
//!   submit→complete latencies, so tail latency (p50/p99) is visible
//!   per probe and mergeable fleet-wide
//!   ([`fleet_latency`](ShardedRuntime::fleet_latency));
//! * **failure isolation** — a panicking engine or source surfaces as
//!   that shard's [`ShardRound::Failed`] for that frame; sibling
//!   shards' tickets redeem normally and the shared pool survives.
//!
//! Volumes are **bit-identical** to running each shard's frames through
//! its own serial [`VolumeLoop`](crate::VolumeLoop) — multiplexing
//! reorders only *when* tiles execute, never *what* they
//! compute — and warm sharded rounds perform zero heap allocations
//! (`tests/warm_frame_allocs.rs`); `tests/shard_stress.rs` and
//! `tests/shard_churn.rs` soak the whole arrangement for hundreds of
//! frames under attach/detach churn at several pool sizes.

use crate::frame_pipeline::{FramePipeline, FrameSource, PipelineError, PipelineStats};
use crate::{BeamformedVolume, Beamformer, LatencyHistogram};
use std::fmt;
use std::sync::Arc;
use usbf_core::{DelayEngine, NappeSchedule};
use usbf_par::ThreadPool;
use usbf_sim::RfFrame;

/// Object-safe wrapper so heterogeneous shard sources can live in one
/// config list (the blanket `FnMut` impl keeps `Box<dyn FrameSource>`
/// itself from implementing the trait directly).
struct BoxedSource(Box<dyn FrameSource>);

impl FrameSource for BoxedSource {
    fn next_frame(&mut self, out: &mut RfFrame) {
        self.0.next_frame(out)
    }
}

/// One shard's ingredients: a probe/system configuration (the
/// [`Beamformer`] carries the spec), the delay engine generating its
/// delays, and the frame source feeding it.
pub struct ShardConfig {
    beamformer: Beamformer,
    engine: Arc<dyn DelayEngine + Send + Sync>,
    source: Box<dyn FrameSource>,
}

impl ShardConfig {
    /// Bundles one shard's beamformer, engine and source.
    #[must_use]
    pub fn new<S: FrameSource + 'static>(
        beamformer: Beamformer,
        engine: Arc<dyn DelayEngine + Send + Sync>,
        source: S,
    ) -> Self {
        ShardConfig {
            beamformer,
            engine,
            source: Box::new(source),
        }
    }
}

/// The schedule a shard gets when `n_shards` pipelines share a pool of
/// `threads` workers: every shard is fitted to roughly `threads × 4 /
/// n_shards` tiles (never fewer than 2, so no shard's frame collapses
/// into one unsplittable task). A full round therefore dispatches about
/// `threads × 4` comparably-sized tiles regardless of shard count —
/// enough claim granularity for load balancing, with no shard able to
/// monopolize the pool's workers by sheer tile count.
#[must_use]
pub fn shard_fitted_schedule(
    spec: &usbf_geometry::SystemSpec,
    threads: usize,
    n_shards: usize,
) -> NappeSchedule {
    let total_target = threads.max(1) * 4;
    let per_shard = total_target.div_ceil(n_shards.max(1)).max(2);
    NappeSchedule::fitted(spec, per_shard)
}

/// A generation-tagged shard identity, returned by
/// [`ShardedRuntime::attach_shard`]. The runtime reuses slot storage
/// after a detach, but never a `ShardId`: the generation increments on
/// every reuse, so id-based accessors ([`ShardedRuntime::stats_of`],
/// [`ShardedRuntime::detach_shard`], …) return `None` for ids of
/// detached shards instead of aliasing their slot's new occupant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ShardId {
    slot: usize,
    generation: u64,
}

impl ShardId {
    /// The slot index this shard occupies (stable for the shard's
    /// lifetime; reused — under a new generation — after detach).
    pub fn slot(&self) -> usize {
        self.slot
    }
}

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard {}.{}", self.slot, self.generation)
    }
}

/// Fleet-level load limits enforced by [`ShardedRuntime`]. Attach-time
/// limits reject with [`AdmissionError`]; the per-round in-flight limit
/// defers instead (see [`ShardRound::Deferred`]), because a frame of an
/// already-admitted session is load the runtime owes, merely later.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RuntimeBudget {
    /// Maximum simultaneously attached shards; further
    /// [`attach_shard`](ShardedRuntime::attach_shard) calls are rejected
    /// with [`AdmissionError::ShardLimit`].
    pub max_live_shards: usize,
    /// Maximum frames submitted concurrently per round; live shards
    /// beyond this are deferred under a rotating fair window.
    pub max_in_flight: usize,
    /// Maximum summed voxel count per round across live shards — the
    /// offered-throughput estimate. `None` disables the check; `Some`
    /// rejects attaches whose spec would push the fleet past it with
    /// [`AdmissionError::ThroughputLimit`].
    pub max_round_voxels: Option<u64>,
}

impl RuntimeBudget {
    /// No limits: every attach admitted, every live shard submitted
    /// every round. The budget used by [`ShardedRuntime::new`].
    #[must_use]
    pub fn unlimited() -> Self {
        RuntimeBudget {
            max_live_shards: usize::MAX,
            max_in_flight: usize::MAX,
            max_round_voxels: None,
        }
    }

    /// A heuristic budget for a pool of `threads` workers: up to
    /// `64 × threads` attached sessions, `8 × threads` frames in flight
    /// per round, no voxel cap. Callers with real capacity models
    /// should construct the fields directly.
    #[must_use]
    pub fn for_pool(threads: usize) -> Self {
        let threads = threads.max(1);
        RuntimeBudget {
            max_live_shards: 64 * threads,
            max_in_flight: 8 * threads,
            max_round_voxels: None,
        }
    }
}

/// Why [`ShardedRuntime::attach_shard`] rejected a session — typed
/// backpressure, surfaced to the caller instead of silent queueing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmissionError {
    /// The fleet is at [`RuntimeBudget::max_live_shards`].
    ShardLimit {
        /// Shards currently attached.
        live: usize,
        /// The budget's cap.
        max: usize,
    },
    /// Admitting the shard would push the fleet's summed per-round voxel
    /// count past [`RuntimeBudget::max_round_voxels`].
    ThroughputLimit {
        /// Voxels per round the fleet would offer with this shard.
        offered_voxels: u64,
        /// The budget's cap.
        budget_voxels: u64,
    },
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::ShardLimit { live, max } => {
                write!(f, "admission rejected: {live} shards live, budget allows {max}")
            }
            AdmissionError::ThroughputLimit {
                offered_voxels,
                budget_voxels,
            } => write!(
                f,
                "admission rejected: fleet would offer {offered_voxels} voxels/round, budget allows {budget_voxels}"
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// One shard's outcome for one [`ShardedRuntime::round`].
#[derive(Debug)]
pub enum ShardRound {
    /// The shard's frame was submitted and redeemed successfully.
    Completed(ShardId),
    /// Backpressure: the shard is live but was outside this round's
    /// in-flight window; no frame was consumed or produced. The rotating
    /// window admits it in a following round.
    Deferred(ShardId),
    /// The shard's frame failed (source panic, engine panic,
    /// disconnect). Siblings are unaffected. After a source or engine
    /// panic the shard recovers on its next admitted round; a shard
    /// whose acquisition thread died reads
    /// `Failed(id, PipelineError::Disconnected)` every round it is
    /// admitted until the caller detaches it.
    Failed(ShardId, PipelineError),
}

impl ShardRound {
    /// The shard this outcome belongs to.
    pub fn shard_id(&self) -> ShardId {
        match self {
            ShardRound::Completed(id) | ShardRound::Deferred(id) | ShardRound::Failed(id, _) => *id,
        }
    }

    /// `true` unless the shard's frame failed — deferral is healthy
    /// backpressure, not an error.
    pub fn is_ok(&self) -> bool {
        !matches!(self, ShardRound::Failed(..))
    }

    /// `true` if the shard completed a frame this round.
    pub fn is_completed(&self) -> bool {
        matches!(self, ShardRound::Completed(_))
    }

    /// `true` if the shard was deferred by the in-flight window.
    pub fn is_deferred(&self) -> bool {
        matches!(self, ShardRound::Deferred(_))
    }

    /// The frame's error, if it failed.
    pub fn error(&self) -> Option<&PipelineError> {
        match self {
            ShardRound::Failed(_, e) => Some(e),
            _ => None,
        }
    }
}

/// One slot of the shard registry. Slots are never removed — detach
/// vacates the pipeline and bumps nothing until the next attach reuses
/// the slot under an incremented generation.
struct Slot {
    generation: u64,
    pipeline: Option<FramePipeline>,
    /// Voxels per frame of the occupant's spec, cached for the
    /// admission math (0 while vacant).
    voxels: u64,
    /// Scratch flag set by the round pre-pass: whether the occupant is
    /// inside this round's in-flight window.
    admitted: bool,
}

/// A churning fleet of probes' pipelines on one pool. See the module
/// docs for the elasticity/fairness/isolation contract.
///
/// ```
/// use std::sync::Arc;
/// use usbf_beamform::{Beamformer, FrameRing, ShardConfig, ShardedRuntime};
/// use usbf_core::ExactEngine;
/// use usbf_geometry::SystemSpec;
/// use usbf_par::ThreadPool;
/// use usbf_sim::RfFrame;
///
/// let spec = SystemSpec::tiny();
/// let frame = RfFrame::zeros(8, 8, spec.echo_buffer_len());
/// let shard = |seed: f64| {
///     let mut rf = frame.clone();
///     rf.fill(seed).expect("a finite fill value");
///     ShardConfig::new(
///         Beamformer::new(&spec),
///         Arc::new(ExactEngine::new(&spec)),
///         FrameRing::new(vec![rf]),
///     )
/// };
/// let pool = Arc::new(ThreadPool::new(2));
/// let mut rt = ShardedRuntime::new(pool, vec![shard(0.0), shard(1.0)]);
/// let outcomes = rt.round();
/// assert!(outcomes.iter().all(|o| o.is_ok()));
/// let ids = rt.shard_ids();
/// assert_eq!(rt.shard_of(ids[0]).map(|s| s.frames()), Some(1));
/// assert!(rt.volume_of(ids[1]).is_some());
/// // Elastic: attach a third session mid-flight, stream, detach it.
/// let id = rt.attach_shard(shard(2.0)).expect("within budget");
/// let outcomes = rt.round();
/// assert_eq!(outcomes.len(), 3);
/// assert!(outcomes.iter().all(|o| o.is_ok()));
/// let stats = rt.detach_shard(id).expect("live shard");
/// assert_eq!(stats.frames, 1);
/// assert_eq!(rt.n_shards(), 2);
/// ```
pub struct ShardedRuntime {
    pool: Arc<ThreadPool>,
    slots: Vec<Slot>,
    budget: RuntimeBudget,
    /// Rotation cursor of the per-round in-flight window (counts live
    /// ordinals, so the window advances fairly as shards churn).
    rotate: usize,
}

impl ShardedRuntime {
    /// Builds one pipeline per config, all on `pool`, each with a
    /// schedule from [`shard_fitted_schedule`] so tile counts stay
    /// comparable across shards, under an
    /// [unlimited](RuntimeBudget::unlimited) budget. An empty config
    /// list builds an empty (but usable) fleet — attach shards later.
    #[must_use]
    pub fn new(pool: Arc<ThreadPool>, configs: Vec<ShardConfig>) -> Self {
        let mut rt = Self::with_budget(pool, RuntimeBudget::unlimited());
        let n_shards = configs.len();
        for config in configs {
            rt.attach_fitted(config, n_shards)
                .expect("unlimited budget admits everything");
        }
        rt
    }

    /// Builds an empty fleet on `pool` under `budget`; populate it with
    /// [`attach_shard`](Self::attach_shard).
    #[must_use]
    pub fn with_budget(pool: Arc<ThreadPool>, budget: RuntimeBudget) -> Self {
        ShardedRuntime {
            pool,
            slots: Vec::new(),
            budget,
            rotate: 0,
        }
    }

    /// Number of live (attached) shards.
    pub fn n_shards(&self) -> usize {
        self.slots.iter().filter(|s| s.pipeline.is_some()).count()
    }

    /// The budget admission decisions are made against.
    pub fn budget(&self) -> RuntimeBudget {
        self.budget
    }

    /// Summed per-round voxel count of the live fleet — the offered
    /// load the voxel budget compares against.
    pub fn offered_voxels(&self) -> u64 {
        self.slots
            .iter()
            .filter(|s| s.pipeline.is_some())
            .map(|s| s.voxels)
            .sum()
    }

    /// Admission check + pipeline construction with an explicit
    /// schedule-fitting shard count (attach uses `live + 1`; `new` uses
    /// the full config count so a statically-built fleet keeps the
    /// historical tile fitting).
    fn attach_fitted(
        &mut self,
        config: ShardConfig,
        fit_shards: usize,
    ) -> Result<ShardId, AdmissionError> {
        let live = self.n_shards();
        if live >= self.budget.max_live_shards {
            return Err(AdmissionError::ShardLimit {
                live,
                max: self.budget.max_live_shards,
            });
        }
        let voxels = config.beamformer.spec().volume_grid.voxel_count() as u64;
        if let Some(cap) = self.budget.max_round_voxels {
            let offered = self.offered_voxels() + voxels;
            if offered > cap {
                return Err(AdmissionError::ThroughputLimit {
                    offered_voxels: offered,
                    budget_voxels: cap,
                });
            }
        }
        let schedule =
            shard_fitted_schedule(config.beamformer.spec(), self.pool.threads(), fit_shards);
        let pipeline = FramePipeline::with_pool(
            config.beamformer,
            config.engine,
            BoxedSource(config.source),
            Arc::clone(&self.pool),
            &schedule,
        );
        // Reuse the first vacant slot under a fresh generation, or grow.
        if let Some(slot) = self.slots.iter().position(|s| s.pipeline.is_none()) {
            let s = &mut self.slots[slot];
            s.generation += 1;
            s.pipeline = Some(pipeline);
            s.voxels = voxels;
            return Ok(ShardId {
                slot,
                generation: s.generation,
            });
        }
        self.slots.push(Slot {
            generation: 0,
            pipeline: Some(pipeline),
            voxels,
            admitted: false,
        });
        Ok(ShardId {
            slot: self.slots.len() - 1,
            generation: 0,
        })
    }

    /// Attaches a new shard while siblings keep streaming: admission is
    /// checked against the [`RuntimeBudget`] (typed rejection, no
    /// silent queueing), the schedule is fitted for the new fleet size,
    /// and the shard's acquisition thread starts immediately. The
    /// returned [`ShardId`] names the session for id-based accessors
    /// and the eventual [`detach_shard`](Self::detach_shard).
    pub fn attach_shard(&mut self, config: ShardConfig) -> Result<ShardId, AdmissionError> {
        let fit = self.n_shards() + 1;
        self.attach_fitted(config, fit)
    }

    /// Detaches a shard: its pipeline is dropped here — joining its
    /// acquisition thread and (via the pool's handle-drop contract) any
    /// in-flight tile tasks — and its final [`PipelineStats`] are
    /// returned. Sibling shards are untouched; the slot is recycled for
    /// a later attach under a new generation. A stale or unknown id
    /// returns `None`.
    pub fn detach_shard(&mut self, id: ShardId) -> Option<PipelineStats> {
        let slot = self.slots.get_mut(id.slot)?;
        if slot.generation != id.generation {
            return None;
        }
        let pipeline = slot.pipeline.take()?;
        slot.voxels = 0;
        let stats = pipeline.stats();
        drop(pipeline);
        Some(stats)
    }

    /// All live shard ids, in slot order (the order
    /// [`round`](Self::round) reports outcomes in).
    pub fn shard_ids(&self) -> Vec<ShardId> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.pipeline.is_some())
            .map(|(slot, s)| ShardId {
                slot,
                generation: s.generation,
            })
            .collect()
    }

    /// Advances the live fleet by up to one frame per shard,
    /// multiplexed: every **admitted** shard's beamform job is
    /// submitted (in flight on the shared pool, with all acquisition
    /// threads filling the following frames) before any is redeemed.
    /// Live shards beyond [`RuntimeBudget::max_in_flight`] are deferred
    /// under a rotating window — fair backpressure, reported as
    /// [`ShardRound::Deferred`]. One shard's failure never disturbs its
    /// siblings.
    pub fn round(&mut self) -> Vec<ShardRound> {
        let mut outcomes = Vec::new();
        self.round_into(&mut outcomes);
        outcomes
    }

    /// [`round`](Self::round) with a caller-owned outcome buffer:
    /// `outcomes` is cleared and refilled with one entry per **live**
    /// shard, in slot order. Once the buffer has reached capacity a
    /// warm healthy round performs **zero** heap allocations — the
    /// tickets live on the stack (one recursion level per admitted
    /// shard) and only error outcomes carry owned messages.
    pub fn round_into(&mut self, outcomes: &mut Vec<ShardRound>) {
        outcomes.clear();
        let live = self.n_shards();
        if live == 0 {
            return;
        }
        // Pre-pass: place the rotating in-flight window and seed every
        // live shard's outcome with Deferred (overwritten on submit).
        let window = self.budget.max_in_flight.min(live).max(1);
        let start = self.rotate % live;
        let mut ordinal = 0usize;
        for (slot, s) in self.slots.iter_mut().enumerate() {
            if s.pipeline.is_none() {
                s.admitted = false;
                continue;
            }
            let in_window = (ordinal + live - start) % live < window;
            s.admitted = in_window;
            outcomes.push(ShardRound::Deferred(ShardId {
                slot,
                generation: s.generation,
            }));
            ordinal += 1;
        }
        self.rotate = (self.rotate + window) % live.max(1);

        // Submit on the way down the recursion, redeem on the way back
        // up: every admitted shard's job is in flight before any is
        // waited on, and each held ticket borrows only its own slot.
        fn drive(
            slots: &mut [Slot],
            slot_base: usize,
            out_base: usize,
            outcomes: &mut [ShardRound],
        ) {
            let Some((first, rest)) = slots.split_first_mut() else {
                return;
            };
            let Some(pipeline) = first.pipeline.as_mut() else {
                drive(rest, slot_base + 1, out_base, outcomes);
                return;
            };
            let id = ShardId {
                slot: slot_base,
                generation: first.generation,
            };
            if !first.admitted {
                // Deferred: the pre-pass already recorded the outcome.
                drive(rest, slot_base + 1, out_base + 1, outcomes);
                return;
            }
            match pipeline.submit() {
                Ok(ticket) => {
                    drive(rest, slot_base + 1, out_base + 1, outcomes);
                    outcomes[out_base] = match ticket.wait() {
                        Ok(_volume) => ShardRound::Completed(id),
                        Err(error) => ShardRound::Failed(id, error),
                    };
                }
                Err(error) => {
                    // Submit failed (source panic, disconnect): record it
                    // and keep multiplexing the siblings. A source panic
                    // costs this frame only; a dead acquisition thread
                    // fails every round until the shard is detached.
                    outcomes[out_base] = ShardRound::Failed(id, error);
                    drive(rest, slot_base + 1, out_base + 1, outcomes);
                }
            }
        }
        drive(&mut self.slots, 0, 0, outcomes);
    }

    /// The live pipeline at `id`, if the shard is still attached.
    fn live(&self, id: ShardId) -> Option<&FramePipeline> {
        let slot = self.slots.get(id.slot)?;
        if slot.generation != id.generation {
            return None;
        }
        slot.pipeline.as_ref()
    }

    /// Shard `id`'s most recent volume (`None` for stale ids or before
    /// the shard's first successful frame).
    pub fn volume_of(&self, id: ShardId) -> Option<&BeamformedVolume> {
        self.live(id)?.volume()
    }

    /// A [`VolumeView`](crate::VolumeView) over shard `id`'s most recent
    /// successful volume (`None` for stale ids or before the shard's
    /// first successful frame): the per-viewer serving path — a
    /// dashboard pulls a [`slice`](crate::VolumeView::slice) or
    /// [`mip`](crate::VolumeView::mip) of the volume
    /// [`volume_of`](Self::volume_of) returns.
    pub fn view_of(&self, id: ShardId) -> Option<crate::VolumeView<'_>> {
        self.live(id)?.view()
    }

    /// Shard `id`'s lifetime counters (`None` for stale ids).
    pub fn stats_of(&self, id: ShardId) -> Option<PipelineStats> {
        Some(self.live(id)?.stats())
    }

    /// Borrows shard `id`'s pipeline (`None` for stale ids).
    pub fn shard_of(&self, id: ShardId) -> Option<&FramePipeline> {
        self.live(id)
    }

    /// Mutably borrows shard `id`'s pipeline, e.g. to drive one shard
    /// out of lock-step with [`FramePipeline::submit`] (`None` for
    /// stale ids).
    pub fn shard_mut_of(&mut self, id: ShardId) -> Option<&mut FramePipeline> {
        let slot = self.slots.get_mut(id.slot)?;
        if slot.generation != id.generation {
            return None;
        }
        slot.pipeline.as_mut()
    }

    /// The fleet-wide latency histogram: every live shard's per-frame
    /// submit→complete distribution merged (exact — the scales are
    /// identical by construction).
    pub fn fleet_latency(&self) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for s in &self.slots {
            if let Some(p) = &s.pipeline {
                merged.merge(&p.stats().latency);
            }
        }
        merged
    }

    /// Frame counts per live shard, in slot order — the fairness
    /// snapshot the soak tests assert on (`max − min ≤` a small bound
    /// when every shard is driven through [`round`](Self::round)).
    pub fn frame_counts(&self) -> Vec<u64> {
        self.slots
            .iter()
            .filter_map(|s| s.pipeline.as_ref())
            .map(FramePipeline::frames)
            .collect()
    }

    /// Replaces the runtime's budget; takes effect from the next
    /// admission decision and round. Loosening never disturbs live
    /// shards; tightening defers or rejects from now on but detaches
    /// nothing retroactively.
    pub fn set_budget(&mut self, budget: RuntimeBudget) {
        self.budget = budget;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FrameRing, VolumeLoop};
    use usbf_core::{ExactEngine, TableSteerConfig, TableSteerEngine};
    use usbf_geometry::{SystemSpec, VoxelIndex};
    use usbf_sim::{EchoSynthesizer, Phantom, Pulse};

    fn point_frame(spec: &SystemSpec, vox: VoxelIndex) -> RfFrame {
        EchoSynthesizer::new(spec).synthesize(
            &Phantom::point(spec.volume_grid.position(vox)),
            &Pulse::from_spec(spec),
        )
    }

    #[test]
    fn shards_are_bit_identical_to_their_serial_baselines() {
        let spec = SystemSpec::tiny();
        let exact: Arc<dyn DelayEngine + Send + Sync> = Arc::new(ExactEngine::new(&spec));
        let steer: Arc<dyn DelayEngine + Send + Sync> =
            Arc::new(TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap());
        let frames = [
            point_frame(&spec, VoxelIndex::new(2, 3, 5)),
            point_frame(&spec, VoxelIndex::new(5, 4, 9)),
        ];
        let pool = Arc::new(ThreadPool::new(2));
        let mut rt = ShardedRuntime::new(
            Arc::clone(&pool),
            vec![
                ShardConfig::new(
                    Beamformer::new(&spec),
                    Arc::clone(&exact),
                    FrameRing::new(vec![frames[0].clone()]),
                ),
                ShardConfig::new(
                    Beamformer::new(&spec),
                    Arc::clone(&steer),
                    FrameRing::new(vec![frames[1].clone()]),
                ),
            ],
        );
        let mut baseline0 = VolumeLoop::new(Beamformer::new(&spec));
        let mut baseline1 = VolumeLoop::new(Beamformer::new(&spec));
        let expect0 = baseline0.beamform(exact.as_ref(), &frames[0]).clone();
        let expect1 = baseline1.beamform(steer.as_ref(), &frames[1]).clone();
        let ids = rt.shard_ids();
        for round in 0..4 {
            let outcomes = rt.round();
            assert!(outcomes.iter().all(|o| o.is_ok()), "round {round}");
            assert!(outcomes.iter().all(|o| o.is_completed()), "round {round}");
            assert_eq!(rt.volume_of(ids[0]), Some(&expect0), "round {round}");
            assert_eq!(rt.volume_of(ids[1]), Some(&expect1), "round {round}");
        }
        assert_eq!(rt.frame_counts(), vec![4, 4]);
    }

    #[test]
    fn shard_schedules_share_the_tile_budget() {
        let spec = SystemSpec::tiny();
        let solo = shard_fitted_schedule(&spec, 4, 1);
        let split = shard_fitted_schedule(&spec, 4, 4);
        assert!(solo.n_blocks() >= 16);
        assert!(split.n_blocks() >= 4);
        assert!(
            split.n_blocks() <= solo.n_blocks(),
            "sharing the pool must not multiply tiles per shard"
        );
        // Degenerate inputs stay valid.
        assert!(shard_fitted_schedule(&spec, 0, 0).n_blocks() >= 2);
    }

    #[test]
    fn attach_detach_recycles_slots_under_new_generations() {
        let spec = SystemSpec::tiny();
        let mk = || {
            ShardConfig::new(
                Beamformer::new(&spec),
                Arc::new(ExactEngine::new(&spec)) as Arc<dyn DelayEngine + Send + Sync>,
                FrameRing::new(vec![RfFrame::zeros(8, 8, spec.echo_buffer_len())]),
            )
        };
        let pool = Arc::new(ThreadPool::new(2));
        let mut rt = ShardedRuntime::with_budget(Arc::clone(&pool), RuntimeBudget::unlimited());
        assert_eq!(rt.round().len(), 0, "an empty fleet rounds trivially");
        let a = rt.attach_shard(mk()).unwrap();
        let b = rt.attach_shard(mk()).unwrap();
        assert_ne!(a, b);
        assert!(rt.round().iter().all(|o| o.is_completed()));
        let stats = rt.detach_shard(a).expect("live");
        assert_eq!(stats.frames, 1);
        assert!(rt.detach_shard(a).is_none(), "stale id is inert");
        assert!(rt.stats_of(a).is_none());
        // The recycled slot gets a distinct identity.
        let c = rt.attach_shard(mk()).unwrap();
        assert_eq!(c.slot(), a.slot());
        assert_ne!(c, a);
        assert!(rt.volume_of(c).is_none(), "fresh shard has no frames yet");
        assert!(rt.round().iter().all(|o| o.is_completed()));
        assert_eq!(rt.stats_of(b).map(|s| s.frames), Some(2));
        assert_eq!(rt.stats_of(c).map(|s| s.frames), Some(1));
    }

    #[test]
    fn budget_rejections_are_typed() {
        let spec = SystemSpec::tiny();
        let mk = || {
            ShardConfig::new(
                Beamformer::new(&spec),
                Arc::new(ExactEngine::new(&spec)) as Arc<dyn DelayEngine + Send + Sync>,
                FrameRing::new(vec![RfFrame::zeros(8, 8, spec.echo_buffer_len())]),
            )
        };
        let pool = Arc::new(ThreadPool::new(1));
        let voxels = spec.volume_grid.voxel_count() as u64;
        let mut rt = ShardedRuntime::with_budget(
            Arc::clone(&pool),
            RuntimeBudget {
                max_live_shards: 2,
                max_in_flight: usize::MAX,
                max_round_voxels: Some(voxels * 2),
            },
        );
        let a = rt.attach_shard(mk()).unwrap();
        let _b = rt.attach_shard(mk()).unwrap();
        assert_eq!(
            rt.attach_shard(mk()),
            Err(AdmissionError::ShardLimit { live: 2, max: 2 })
        );
        // Freeing capacity re-admits; the voxel cap then binds first if
        // tightened.
        rt.detach_shard(a).unwrap();
        rt.budget.max_round_voxels = Some(voxels + voxels / 2);
        let err = rt.attach_shard(mk()).unwrap_err();
        assert_eq!(
            err,
            AdmissionError::ThroughputLimit {
                offered_voxels: voxels * 2,
                budget_voxels: voxels + voxels / 2,
            }
        );
        assert!(err.to_string().contains("voxels"));
    }

    #[test]
    fn in_flight_window_defers_fairly() {
        let spec = SystemSpec::tiny();
        let mk = || {
            ShardConfig::new(
                Beamformer::new(&spec),
                Arc::new(ExactEngine::new(&spec)) as Arc<dyn DelayEngine + Send + Sync>,
                FrameRing::new(vec![RfFrame::zeros(8, 8, spec.echo_buffer_len())]),
            )
        };
        let pool = Arc::new(ThreadPool::new(2));
        let mut rt = ShardedRuntime::with_budget(
            Arc::clone(&pool),
            RuntimeBudget {
                max_live_shards: usize::MAX,
                max_in_flight: 2,
                max_round_voxels: None,
            },
        );
        for _ in 0..3 {
            rt.attach_shard(mk()).unwrap();
        }
        // Each round completes exactly the window and defers the rest.
        for round in 0..6 {
            let outcomes = rt.round();
            assert_eq!(outcomes.len(), 3);
            let completed = outcomes.iter().filter(|o| o.is_completed()).count();
            let deferred = outcomes.iter().filter(|o| o.is_deferred()).count();
            assert_eq!((completed, deferred), (2, 1), "round {round}");
        }
        // 6 rounds × window 2 = 12 admissions over 3 shards: exactly 4
        // frames each — the rotation is perfectly fair.
        assert_eq!(rt.frame_counts(), vec![4, 4, 4]);
    }
}
