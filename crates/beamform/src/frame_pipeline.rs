//! The asynchronous frame pipeline: acquisition of frame `n+1`,
//! beamforming of frame `n` and the caller's consumption of volume
//! `n−1` all run concurrently.
//!
//! The paper's bandwidth argument (§II-C) is about sustaining volume
//! *rates*: delays for every insonification must be regenerated
//! thousands of times per second, and §V-B's throughput arithmetic
//! assumes the delay blocks never sit idle. A host loop that acquires a
//! frame, then beamforms it, then displays it serializes three stages
//! that hardware overlaps as a matter of course. [`FramePipeline`] is
//! that overlap on the host side:
//!
//! * a pluggable [`FrameSource`] produces RF frames into caller-owned
//!   buffers ([`SynthesizedFrames`] runs an
//!   [`EchoSynthesizer`](usbf_sim::EchoSynthesizer) per frame;
//!   [`FrameRing`] replays prerecorded frames) on one persistent
//!   **acquisition thread** (spawned once, at construction), handing
//!   buffers back and forth through a preallocated two-slot exchange —
//!   no channel, no per-frame allocation;
//! * [`FramePipeline::submit`] takes the acquired frame, kicks off the
//!   **next** acquisition, starts beamforming on the shared worker pool
//!   via an asynchronous [`PendingJob`](usbf_par::PendingJob) run, and
//!   returns immediately with a [`VolumeTicket`];
//! * the ticket is the caller's handle on the in-flight frame: while it
//!   beamforms, [`VolumeTicket::previous_volume`] exposes the frame
//!   before it (intact in the other half of the double buffer — the
//!   "consume volume `n−1`" stage), [`VolumeTicket::try_wait`] polls,
//!   and [`VolumeTicket::wait`] redeems the finished volume;
//! * [`FramePipeline::next_volume`] is `submit` + `wait` — the
//!   synchronous convenience loop, still two-stage overlapped because
//!   `submit` always starts acquisition `n+1` before beamforming `n`.
//!
//! A warm pipelined frame performs **zero heap allocations**: zero
//! thread spawns, zero slab/buffer/volume allocations, zero per-tile
//! job allocations and zero channel nodes — the RF buffers shuttle
//! between the pipeline and the acquisition thread by move through the
//! mutex-guarded exchange, and the tile tasks run on the pipeline's
//! preregistered [`JobHandle`](usbf_par::JobHandle). Output is
//! bit-identical to running the same frames through a serial
//! [`VolumeLoop`](crate::VolumeLoop), for any engine and any pool size
//! — the pipeline only reorders *when* work happens, never *what* is
//! computed.

use crate::beamformer::TileState;
use crate::{BeamformedVolume, Beamformer};
use std::any::Any;
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use usbf_core::{DelayEngine, NappeSchedule};
use usbf_par::{JobHandle, PendingJob, ThreadPool};
use usbf_sim::{EchoSynthesizer, Phantom, Pulse, RfFrame};

/// A producer of RF frames: the acquisition side of the pipeline.
///
/// `next_frame` fills a caller-owned buffer (never allocates); it is the
/// host-side stand-in for a probe front end writing into DMA memory.
/// Sources run on the pipeline's acquisition thread, so they only need
/// `Send`. A panic inside `next_frame` is caught by the pipeline and
/// surfaced as [`PipelineError::Source`]; the source is then reused for
/// the following frame, so panicking sources should remain internally
/// consistent across unwinds.
pub trait FrameSource: Send {
    /// Fills `out` with the next frame's receive data.
    fn next_frame(&mut self, out: &mut RfFrame);
}

/// Any `FnMut(&mut RfFrame) + Send` is a frame source — convenient for
/// tests and ad-hoc generators.
impl<F: FnMut(&mut RfFrame) + Send> FrameSource for F {
    fn next_frame(&mut self, out: &mut RfFrame) {
        self(out)
    }
}

/// A [`FrameSource`] that synthesizes each frame with an
/// [`EchoSynthesizer`], cycling through a list of phantoms (one phantom
/// per frame — a moving target is a list of its positions over time).
/// A phantom whose echoes are not finite fails its frame as
/// [`PipelineError::Source`].
pub struct SynthesizedFrames {
    synth: EchoSynthesizer,
    pulse: Pulse,
    phantoms: Vec<Phantom>,
    next: usize,
    /// One frame of full-width samples: the synthesizer's staging
    /// buffer, allocated once.
    scratch: Vec<f64>,
}

impl SynthesizedFrames {
    /// Creates a source cycling through `phantoms`.
    ///
    /// # Panics
    ///
    /// Panics if `phantoms` is empty.
    #[must_use]
    pub fn new(synth: EchoSynthesizer, pulse: Pulse, phantoms: Vec<Phantom>) -> Self {
        assert!(!phantoms.is_empty(), "need at least one phantom");
        SynthesizedFrames {
            scratch: vec![0.0; synth.frame_len()],
            synth,
            pulse,
            phantoms,
            next: 0,
        }
    }
}

impl FrameSource for SynthesizedFrames {
    fn next_frame(&mut self, out: &mut RfFrame) {
        let phantom = &self.phantoms[self.next % self.phantoms.len()];
        self.next += 1;
        if let Err(e) = self
            .synth
            .synthesize_into(phantom, &self.pulse, &mut self.scratch, out)
        {
            panic!("frame synthesis failed: {e}");
        }
    }
}

/// A [`FrameSource`] replaying a ring of prerecorded frames — the
/// reproducible-input source determinism tests and benchmarks drive.
pub struct FrameRing {
    frames: Vec<RfFrame>,
    next: usize,
}

impl FrameRing {
    /// Creates a ring over `frames`, replayed in order, forever.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty.
    #[must_use]
    pub fn new(frames: Vec<RfFrame>) -> Self {
        assert!(!frames.is_empty(), "need at least one frame");
        FrameRing { frames, next: 0 }
    }
}

impl FrameSource for FrameRing {
    fn next_frame(&mut self, out: &mut RfFrame) {
        out.copy_from(&self.frames[self.next % self.frames.len()]);
        self.next += 1;
    }
}

/// Why a pipelined frame failed. The pipeline itself survives any of
/// these except [`Disconnected`](PipelineError::Disconnected): the next
/// [`FramePipeline::submit`] proceeds with a fresh acquisition on the
/// same pool, source and warm state.
#[derive(Debug)]
pub enum PipelineError {
    /// The frame source panicked during acquisition.
    Source(String),
    /// Beamforming panicked (e.g. a delay engine rejected an input).
    Beamform(String),
    /// The acquisition thread is gone — only possible after an internal
    /// failure of the pipeline itself, never after a source panic.
    Disconnected,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Source(msg) => write!(f, "frame source panicked: {msg}"),
            PipelineError::Beamform(msg) => write!(f, "beamforming panicked: {msg}"),
            PipelineError::Disconnected => write!(f, "acquisition thread disconnected"),
        }
    }
}

impl Error for PipelineError {}

/// Lifetime counters of a [`FramePipeline`], taken with
/// [`FramePipeline::stats`].
///
/// The two wait counters attribute blocked time to the stage that
/// actually caused it: `acquire_wait` is accrued only while `submit`
/// blocks on the acquisition thread, `beamform_wait` only while a
/// [`VolumeTicket`] redemption blocks on the worker pool. Earlier
/// revisions lumped ticket-redemption wait into `acquire_wait`, which
/// made the overlap look worse than it was whenever beamforming — not
/// ingest — was the bottleneck.
#[derive(Debug, Clone, Copy)]
pub struct PipelineStats {
    /// Frames beamformed successfully.
    pub frames: u64,
    /// Frames lost to source or beamform errors.
    pub errors: u64,
    /// Frames whose ticket was dropped without being redeemed.
    pub abandoned: u64,
    /// Total time `submit` spent blocked waiting for acquisition — the
    /// ingest latency the overlap did *not* hide.
    pub acquire_wait: Duration,
    /// Total time ticket redemption (`wait`/`next_volume`) spent blocked
    /// on in-flight beamforming — the compute latency the caller did not
    /// overlap with work of their own.
    pub beamform_wait: Duration,
    /// Wall time since the first acquisition was submitted.
    pub wall: Duration,
    /// Distribution of per-frame submit→complete latencies (successful
    /// frames only): each redeemed ticket records the elapsed time from
    /// its `submit` call to redemption. Ask it for
    /// [`p50`](crate::LatencyHistogram::p50) /
    /// [`p99`](crate::LatencyHistogram::p99) — means hide exactly the
    /// tail behaviour a multi-shard runtime must keep honest about.
    pub latency: crate::LatencyHistogram,
}

impl PipelineStats {
    /// Frames attempted: successes, errors and abandoned tickets all
    /// accrue wait time, so they share the denominator of the means.
    fn attempts(&self) -> u64 {
        self.frames + self.errors + self.abandoned
    }

    /// Sustained volume rate since the first frame.
    pub fn frames_per_second(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.frames as f64 / self.wall.as_secs_f64()
    }

    /// Mean time a frame waited on acquisition (the exposed, un-hidden
    /// ingest latency; 0 means acquisition was always ready first).
    pub fn mean_acquire_wait(&self) -> Duration {
        mean_duration(self.acquire_wait, self.attempts())
    }

    /// Mean time a frame's redemption blocked on beamforming (0 means
    /// the caller's own work always outlasted the in-flight compute).
    pub fn mean_beamform_wait(&self) -> Duration {
        mean_duration(self.beamform_wait, self.attempts())
    }

    /// Fraction of wall time *not* spent blocked on acquisition — 1.0
    /// means ingest was fully hidden behind beamforming and caller-side
    /// work.
    pub fn overlap_fraction(&self) -> f64 {
        if self.wall.is_zero() {
            return 1.0;
        }
        1.0 - (self.acquire_wait.as_secs_f64() / self.wall.as_secs_f64()).min(1.0)
    }
}

/// `total / count` as a well-defined [`Duration`]: zero for zero
/// counts, computed in nanoseconds at `u128` width for the rest.
///
/// The obvious `total / count as u32` has two failure modes once counts
/// come from a `u64` lifetime counter: a count above `u32::MAX`
/// truncates silently, and a count of exactly `2³²` truncates to zero
/// and panics the division. A long-lived shard at paper-scale volume
/// rates (thousands of frames per second) crosses `u32::MAX` attempts
/// in under two months of uptime.
fn mean_duration(total: Duration, count: u64) -> Duration {
    if count == 0 {
        return Duration::ZERO;
    }
    let nanos = total.as_nanos() / u128::from(count);
    Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
}

/// Reply from the acquisition thread: the filled buffer, or the buffer
/// back plus the source's panic message.
type IngestReply = Result<RfFrame, (RfFrame, String)>;

/// The preallocated two-slot exchange between the pipeline and its
/// acquisition thread. One mutex, two condvars, zero per-frame heap
/// traffic: buffers move through `request`/`reply` slots instead of
/// channel nodes (an `mpsc` send may allocate; this never does, which
/// is what keeps the warm async path at 0 allocations — see
/// `tests/warm_frame_allocs.rs`).
struct IngestLink {
    state: Mutex<LinkState>,
    /// Wakes the acquisition thread (a request or shutdown arrived).
    to_source: Condvar,
    /// Wakes the pipeline (a reply arrived, or the thread died).
    to_pipe: Condvar,
}

struct LinkState {
    request: Option<RfFrame>,
    reply: Option<IngestReply>,
    /// Set by the pipeline's drop: the acquisition thread exits.
    shutdown: bool,
    /// Set by the acquisition thread on *any* exit path, expected or
    /// not, so a waiting pipeline can report `Disconnected` instead of
    /// parking forever.
    dead: bool,
}

impl IngestLink {
    fn new() -> Self {
        IngestLink {
            state: Mutex::new(LinkState {
                request: None,
                reply: None,
                shutdown: false,
                dead: false,
            }),
            to_source: Condvar::new(),
            to_pipe: Condvar::new(),
        }
    }
}

/// The read-only context every tile task of a frame shares: the fixed
/// beamformer configuration plus the per-frame inputs (`engine` is an
/// `Arc` so the pipeline owns it across the in-flight period; `rf` is
/// the acquired frame, swapped in by `submit`). Living in a pipeline
/// field — not on `submit`'s stack — is what lets the asynchronous run
/// borrow it for as long as the [`VolumeTicket`] lives.
struct FrameCtx {
    beamformer: Beamformer,
    engine: Arc<dyn DelayEngine + Send + Sync>,
    rf: RfFrame,
}

/// The frame task: one schedule tile or depth band beamformed into its
/// warm state (slab, scratch rows and staging buffer). A plain `fn` — the
/// asynchronous dispatch path erases no closures.
fn beamform_tile_task(ctx: &FrameCtx, _i: usize, state: &mut TileState) {
    ctx.beamformer
        .beamform_tile_into(ctx.engine.as_ref(), &ctx.rf, state);
}

/// Everything ticket redemption and the read accessors touch, split
/// into one struct so a [`VolumeTicket`] can hold `&mut` to it while
/// the in-flight [`PendingJob`] borrows the tile states and context —
/// disjoint pipeline fields, checked by the borrow checker.
struct FinishState {
    /// Schedule tiles per frame.
    n_tiles: usize,
    /// Double-buffered output: frame `n` scatters into `outs[n % 2]`,
    /// leaving `n−1` intact for consumption while `n` is in flight.
    outs: [BeamformedVolume; 2],
    frames: u64,
    errors: u64,
    abandoned: u64,
    acquire_wait: Duration,
    beamform_wait: Duration,
    latency: crate::LatencyHistogram,
    started: Option<Instant>,
    link: Arc<IngestLink>,
    ingest: Option<JoinHandle<()>>,
    /// Buffers currently owned by the pipeline side and not holding the
    /// in-flight frame (that one lives in `FrameCtx::rf`).
    idle: Vec<RfFrame>,
    /// Whether an acquisition request is outstanding (at most one).
    in_flight: bool,
}

/// The asynchronous real-time runtime: acquisition, beamforming and
/// consumption overlapped over one shared [`ThreadPool`]. See
/// `ARCHITECTURE.md` for how this maps onto the paper's real-time
/// requirement.
///
/// ```
/// use std::sync::Arc;
/// use usbf_beamform::{Beamformer, FramePipeline, FrameRing, VolumeLoop};
/// use usbf_core::ExactEngine;
/// use usbf_geometry::SystemSpec;
/// use usbf_sim::RfFrame;
///
/// let spec = SystemSpec::tiny();
/// let engine = Arc::new(ExactEngine::new(&spec));
/// let rf = RfFrame::zeros(8, 8, spec.echo_buffer_len());
/// // Pipelined frames are bit-identical to a serial VolumeLoop:
/// let mut serial = VolumeLoop::new(Beamformer::new(&spec));
/// let reference = serial.beamform(engine.as_ref(), &rf).clone();
/// let mut pipe = FramePipeline::new(
///     Beamformer::new(&spec),
///     engine,
///     FrameRing::new(vec![rf]),
/// );
/// // Asynchronous shape: submit, overlap caller-side work, redeem.
/// let ticket = pipe.submit().expect("healthy acquisition");
/// assert!(ticket.previous_volume().is_none()); // no frame before the first
/// let vol = ticket.wait().expect("no injected failures");
/// assert_eq!(vol, &reference);
/// // Synchronous convenience shape: next_volume = submit + wait.
/// for _ in 0..2 {
///     let vol = pipe.next_volume().expect("no injected failures");
///     assert_eq!(vol, &reference);
/// }
/// assert_eq!(pipe.frames(), 3);
/// ```
pub struct FramePipeline {
    /// Declared before `tile_states`/`ctx` on purpose: fields drop in
    /// declaration order, and `JobHandle`'s drop joins any still-active
    /// run — so even if a `VolumeTicket` is leaked, the workers are
    /// joined before the state they write to is freed.
    job: JobHandle,
    tile_states: Vec<TileState>,
    ctx: FrameCtx,
    fin: FinishState,
}

impl FramePipeline {
    /// Builds a pipeline on the global pool with the same fitted
    /// schedule [`VolumeLoop`](crate::VolumeLoop) uses, so pipelined
    /// volumes stay bit-identical to serial ones by construction. The
    /// pipeline owns its delay engine (shared, cheaply cloneable `Arc`):
    /// that ownership is what lets beamforming stay in flight after
    /// `submit` returns.
    #[must_use]
    pub fn new<S: FrameSource + 'static>(
        beamformer: Beamformer,
        engine: Arc<dyn DelayEngine + Send + Sync>,
        source: S,
    ) -> Self {
        let pool = usbf_par::global_arc();
        let schedule = crate::beamformer::pool_fitted_schedule(beamformer.spec(), &pool);
        Self::with_pool(beamformer, engine, source, pool, &schedule)
    }

    /// Builds a pipeline on an explicit pool and schedule. All
    /// allocation happens here: three RF ring buffers (current,
    /// acquiring, idle), one delay slab and staging buffer per task (see
    /// [`task_count`](Self::task_count)), the double-buffered output
    /// volumes, the preregistered pool
    /// job, and the acquisition thread — the only thread this runtime
    /// ever spawns.
    #[must_use]
    pub fn with_pool<S: FrameSource + 'static>(
        beamformer: Beamformer,
        engine: Arc<dyn DelayEngine + Send + Sync>,
        source: S,
        pool: Arc<ThreadPool>,
        schedule: &NappeSchedule,
    ) -> Self {
        let spec = beamformer.spec().clone();
        // Buffers hold one acquisition block per transmit of the spec's
        // sequence, so an N-angle compound moves through the pipeline as
        // ONE frame (one submit, one ticket, one volume).
        let make_buffer = || {
            RfFrame::zeros_multi(
                spec.elements.nx(),
                spec.elements.ny(),
                spec.echo_buffer_len(),
                spec.n_transmits(),
            )
        };
        let tiles = schedule.tiles();
        let tile_states = crate::beamformer::warm_task_states(&beamformer, &tiles, pool.threads());
        let outs = [
            BeamformedVolume::zeros(&spec),
            BeamformedVolume::zeros(&spec),
        ];
        let link = Arc::new(IngestLink::new());
        let ingest_link = Arc::clone(&link);
        let ingest = std::thread::Builder::new()
            .name("usbf-ingest".to_string())
            .spawn(move || ingest_loop(source, ingest_link))
            .expect("spawn acquisition thread");
        FramePipeline {
            job: ThreadPool::register(&pool),
            tile_states,
            ctx: FrameCtx {
                beamformer,
                engine,
                rf: make_buffer(),
            },
            fin: FinishState {
                n_tiles: tiles.len(),
                outs,
                frames: 0,
                errors: 0,
                abandoned: 0,
                acquire_wait: Duration::ZERO,
                beamform_wait: Duration::ZERO,
                latency: crate::LatencyHistogram::new(),
                started: None,
                link,
                ingest: Some(ingest),
                idle: vec![make_buffer(), make_buffer()],
                in_flight: false,
            },
        }
    }

    /// Sends an idle buffer to the acquisition thread if no request is
    /// outstanding. Infallible bookkeeping: a dead thread is detected by
    /// the next receive, which reports [`PipelineError::Disconnected`].
    fn request_acquire(fin: &mut FinishState) {
        if fin.in_flight {
            return;
        }
        let Some(buffer) = fin.idle.pop() else {
            return;
        };
        if fin.started.is_none() {
            fin.started = Some(Instant::now());
        }
        let mut st = fin.link.state.lock().unwrap();
        if st.dead {
            drop(st);
            fin.idle.push(buffer);
            return;
        }
        debug_assert!(st.request.is_none(), "at most one request in flight");
        st.request = Some(buffer);
        drop(st);
        fin.link.to_source.notify_all();
        fin.in_flight = true;
    }

    /// Blocks until the outstanding acquisition completes, accruing the
    /// blocked time to `acquire_wait`.
    fn recv_acquired(fin: &mut FinishState) -> Result<RfFrame, PipelineError> {
        let wait_start = Instant::now();
        let reply = {
            let mut st = fin.link.state.lock().unwrap();
            loop {
                if let Some(reply) = st.reply.take() {
                    break reply;
                }
                if st.dead {
                    drop(st);
                    fin.in_flight = false;
                    fin.acquire_wait += wait_start.elapsed();
                    return Err(PipelineError::Disconnected);
                }
                st = fin.link.to_pipe.wait(st).unwrap();
            }
        };
        fin.in_flight = false;
        fin.acquire_wait += wait_start.elapsed();
        match reply {
            Ok(rf) => Ok(rf),
            Err((buffer, message)) => {
                fin.idle.push(buffer);
                fin.errors += 1;
                Err(PipelineError::Source(message))
            }
        }
    }

    /// Submits one frame: waits for the in-flight acquisition (frame
    /// `n`), immediately starts acquiring frame `n+1`, kicks off
    /// beamforming of frame `n` on the pool and returns a
    /// [`VolumeTicket`] **while the work is still in flight**. The
    /// caller is free to do its own work — typically consuming
    /// [`VolumeTicket::previous_volume`], the completed frame `n−1` —
    /// before redeeming the ticket with [`VolumeTicket::wait`].
    ///
    /// On [`PipelineError::Source`] the frame is dropped but the
    /// pipeline stays healthy: the buffers are recycled, the pool and
    /// warm state survive, and the next call produces a correct volume.
    pub fn submit(&mut self) -> Result<VolumeTicket<'_>, PipelineError> {
        let submitted = Instant::now();
        Self::request_acquire(&mut self.fin);
        if !self.fin.in_flight {
            return Err(PipelineError::Disconnected);
        }
        let rf = Self::recv_acquired(&mut self.fin)?;
        // Frame n moves into the shared context; the buffer it replaces
        // (frame n−1's, already consumed) rejoins the idle ring.
        let consumed = std::mem::replace(&mut self.ctx.rf, rf);
        self.fin.idle.push(consumed);
        // The third overlap stage: frame n+1 starts filling now, before
        // frame n's beamforming is even announced.
        Self::request_acquire(&mut self.fin);
        let which = (self.fin.frames % 2) as usize;
        let frame_id = self.fin.frames + self.fin.errors + self.fin.abandoned;
        let pending = self
            .job
            .start(&mut self.tile_states, &self.ctx, beamform_tile_task);
        Ok(VolumeTicket {
            pending: Some(pending),
            fin: Some(&mut self.fin),
            which,
            frame_id,
            submitted,
        })
    }

    /// Completes one pipeline step synchronously: [`submit`](Self::submit)
    /// then [`VolumeTicket::wait`]. Acquisition of the following frame
    /// still overlaps this frame's beamforming; only the caller-side
    /// consumption overlap needs the explicit ticket shape.
    pub fn next_volume(&mut self) -> Result<&BeamformedVolume, PipelineError> {
        self.submit()?.wait()
    }

    /// The most recently completed volume (`None` before the first
    /// successful frame). Thanks to the double buffer this stays intact
    /// while the *next* frame is being beamformed into the other half.
    pub fn volume(&self) -> Option<&BeamformedVolume> {
        if self.fin.frames == 0 {
            return None;
        }
        Some(&self.fin.outs[((self.fin.frames - 1) % 2) as usize])
    }

    /// The volume before the most recent one (`None` until two frames
    /// have completed) — the second half of the double buffer, e.g. for
    /// frame-to-frame differencing.
    pub fn previous_volume(&self) -> Option<&BeamformedVolume> {
        if self.fin.frames < 2 {
            return None;
        }
        Some(&self.fin.outs[(self.fin.frames % 2) as usize])
    }

    /// A zero-scatter view over the most recent successful frame's tile
    /// outputs (`None` before the first one):
    /// [`slice`](crate::VolumeView::slice) and
    /// [`mip`](crate::VolumeView::mip) read the warm staging buffers
    /// directly, skipping the merged volume entirely. The view borrows
    /// the pipeline, so it can never observe a frame mid-flight — a
    /// [`VolumeTicket`] holds the pipeline's `&mut` until redeemed.
    pub fn view(&self) -> Option<crate::VolumeView<'_>> {
        if self.fin.frames == 0 {
            return None;
        }
        let grid = &self.ctx.beamformer.spec().volume_grid;
        Some(crate::VolumeView::new(
            &self.tile_states,
            grid.n_theta(),
            grid.n_phi(),
            grid.n_depth(),
        ))
    }

    /// Frames beamformed successfully since construction.
    pub fn frames(&self) -> u64 {
        self.fin.frames
    }

    /// Frames lost to source or beamform errors.
    pub fn errors(&self) -> u64 {
        self.fin.errors
    }

    /// Frames whose ticket was dropped without redemption.
    pub fn abandoned(&self) -> u64 {
        self.fin.abandoned
    }

    /// Schedule tiles per frame: the units of delay generation.
    pub fn tile_count(&self) -> usize {
        self.fin.n_tiles
    }

    /// Parallel tasks per submitted frame: two whole-fan depth bands
    /// per pool worker for a raw frame (single-transmit or compound),
    /// one task per schedule tile for a post-processed one.
    pub fn task_count(&self) -> usize {
        self.tile_states.len()
    }

    /// The delay engine this pipeline beamforms with.
    pub fn engine(&self) -> &Arc<dyn DelayEngine + Send + Sync> {
        &self.ctx.engine
    }

    /// The beamformer configuration driving the pipeline.
    pub fn beamformer(&self) -> &Beamformer {
        &self.ctx.beamformer
    }

    /// A snapshot of the pipeline's lifetime counters.
    pub fn stats(&self) -> PipelineStats {
        PipelineStats {
            frames: self.fin.frames,
            errors: self.fin.errors,
            abandoned: self.fin.abandoned,
            acquire_wait: self.fin.acquire_wait,
            beamform_wait: self.fin.beamform_wait,
            latency: self.fin.latency,
            wall: self
                .fin
                .started
                .map(|s| s.elapsed())
                .unwrap_or(Duration::ZERO),
        }
    }
}

impl Drop for FramePipeline {
    fn drop(&mut self) {
        // Flag shutdown and wake the acquisition thread, then join so no
        // thread outlives the pipeline. (An in-flight beamform job
        // cannot exist here: its ticket borrows the pipeline.)
        if let Ok(mut st) = self.fin.link.state.lock() {
            st.shutdown = true;
        }
        self.fin.link.to_source.notify_all();
        if let Some(handle) = self.fin.ingest.take() {
            let _ = handle.join();
        }
    }
}

/// The caller's handle on one in-flight frame, returned by
/// [`FramePipeline::submit`]. While it lives, the frame's tile tasks are
/// executing on the worker pool; the ticket borrows the pipeline, so no
/// second frame can be submitted until this one is redeemed or dropped.
///
/// * [`wait`](VolumeTicket::wait) — block until beamforming finishes
///   (helping drain tile tasks), scatter the tiles into the output
///   volume and return it; engine panics surface as
///   [`PipelineError::Beamform`] and the pipeline stays healthy;
/// * [`try_wait`](VolumeTicket::try_wait) — poll without blocking;
/// * [`previous_volume`](VolumeTicket::previous_volume) — the completed
///   frame before this one, readable **while** this one beamforms (the
///   consume stage of the three-way overlap);
/// * dropping the ticket joins the in-flight work and abandons the
///   frame (counted in [`PipelineStats::abandoned`], no volume
///   produced).
#[must_use = "dropping a VolumeTicket abandons the frame; call wait()"]
pub struct VolumeTicket<'p> {
    pending: Option<PendingJob<'p, TileState>>,
    fin: Option<&'p mut FinishState>,
    which: usize,
    frame_id: u64,
    /// When `submit` was entered — redemption records the elapsed time
    /// into the pipeline's latency histogram, so the per-frame figure
    /// covers acquisition wait *and* beamforming, the full turnaround a
    /// downstream consumer experiences.
    submitted: Instant,
}

impl<'p> VolumeTicket<'p> {
    /// Ordinal of this submission since construction (counting
    /// successes, errors and abandoned frames).
    pub fn frame_id(&self) -> u64 {
        self.frame_id
    }

    /// Returns `true` once the in-flight beamforming has finished —
    /// [`wait`](Self::wait) will then return without blocking.
    pub fn try_wait(&self) -> bool {
        self.pending.as_ref().is_none_or(|p| p.try_wait())
    }

    /// The most recently completed volume — frame `n−1`, intact in the
    /// other half of the double buffer while this ticket's frame `n`
    /// beamforms. `None` before the first completed frame.
    pub fn previous_volume(&self) -> Option<&BeamformedVolume> {
        let fin = self.fin.as_deref()?;
        if fin.frames == 0 {
            return None;
        }
        Some(&fin.outs[1 - self.which])
    }

    /// Redeems the ticket: blocks until every tile task has finished
    /// (claiming remaining tasks on this thread, so redemption is never
    /// slower than the synchronous path), scatters the tile results
    /// into the output volume and returns it.
    ///
    /// If the engine panicked mid-flight, the panic is returned as
    /// [`PipelineError::Beamform`] after the join — the pool, the warm
    /// state and the acquisition thread all remain usable.
    pub fn wait(mut self) -> Result<&'p BeamformedVolume, PipelineError> {
        let pending = self.pending.take().expect("a ticket is redeemed once");
        let fin = self.fin.take().expect("a ticket is redeemed once");
        let wait_start = Instant::now();
        let (states, payload) = pending.wait_result();
        fin.beamform_wait += wait_start.elapsed();
        match payload {
            None => {
                crate::beamformer::scatter_tasks(&mut fin.outs[self.which], states);
                fin.frames += 1;
                fin.latency.record(self.submitted.elapsed());
                Ok(&fin.outs[self.which])
            }
            Some(payload) => {
                fin.errors += 1;
                Err(PipelineError::Beamform(panic_message(payload)))
            }
        }
    }
}

impl Drop for VolumeTicket<'_> {
    fn drop(&mut self) {
        if let Some(pending) = self.pending.take() {
            // Dropped without redemption: join the in-flight tasks
            // (keeping the borrows sound) and discard the frame's
            // results. The join still blocks, so it accrues to
            // `beamform_wait` like a redemption would — abandoning
            // frames must not make the overlap look better than it is.
            let join_start = Instant::now();
            drop(pending);
            if let Some(fin) = self.fin.as_deref_mut() {
                fin.abandoned += 1;
                fin.beamform_wait += join_start.elapsed();
            }
        }
    }
}

/// The acquisition thread: fill each buffer the pipeline sends, return
/// it (or the panic that interrupted it), repeat until the pipeline
/// drops. Source panics are caught here so one bad frame never kills
/// the thread; the `dead` flag is raised on every exit path so the
/// pipeline can never park forever on a gone thread.
fn ingest_loop<S: FrameSource>(mut source: S, link: Arc<IngestLink>) {
    /// Raises `dead` (and wakes the pipeline) even if the loop exits by
    /// unwinding — e.g. through a poisoned mutex.
    struct DeadOnExit(Arc<IngestLink>);
    impl Drop for DeadOnExit {
        fn drop(&mut self) {
            if let Ok(mut st) = self.0.state.lock() {
                st.dead = true;
            }
            self.0.to_pipe.notify_all();
        }
    }
    let _guard = DeadOnExit(Arc::clone(&link));
    loop {
        let mut buffer = {
            let mut st = link.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(buffer) = st.request.take() {
                    break buffer;
                }
                st = link.to_source.wait(st).unwrap();
            }
        };
        let result = catch_unwind(AssertUnwindSafe(|| source.next_frame(&mut buffer)));
        let reply = match result {
            Ok(()) => Ok(buffer),
            Err(payload) => Err((buffer, panic_message(payload))),
        };
        let mut st = link.state.lock().unwrap();
        debug_assert!(st.reply.is_none(), "at most one reply in flight");
        st.reply = Some(reply);
        drop(st);
        link.to_pipe.notify_all();
    }
}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VolumeLoop;
    use usbf_core::{ExactEngine, NappeDelays};
    use usbf_geometry::{SystemSpec, Vec3, VoxelIndex};

    fn recorded_frames(spec: &SystemSpec, n: usize) -> Vec<RfFrame> {
        let synth = EchoSynthesizer::new(spec);
        let pulse = Pulse::from_spec(spec);
        (0..n)
            .map(|i| {
                let vox = VoxelIndex::new(2 + i % 4, 3, 5 + i);
                synth.synthesize(&Phantom::point(spec.volume_grid.position(vox)), &pulse)
            })
            .collect()
    }

    #[test]
    fn task_shape_follows_the_frame_shape() {
        // A raw frame runs as two whole-fan depth bands per pool worker:
        // a single-transmit band re-points its slab at every schedule
        // tile, a compound band's slab is the whole fan. A post-processed
        // frame keeps one task per schedule tile over every nappe.
        let spec = SystemSpec::tiny();
        let n_depth = spec.volume_grid.n_depth();
        let fan = NappeDelays::full(&spec).tile();
        let compound = spec
            .clone()
            .with_transmits(usbf_geometry::TransmitModel::plane_wave_fan(
                3,
                usbf_geometry::deg(5.0),
            ));
        let bmode = Beamformer::new(&spec).with_postproc(crate::PostChain::bmode(
            crate::BmodeConfig::from_spec(&spec),
        ));
        let schedule = NappeSchedule::fitted(&spec, 8);
        for workers in [1, 2, 4] {
            let pipe = |bf: Beamformer| {
                let spec = bf.spec().clone();
                let rf = RfFrame::zeros_multi(8, 8, spec.echo_buffer_len(), spec.n_transmits());
                FramePipeline::with_pool(
                    bf,
                    Arc::new(ExactEngine::new(&spec)),
                    FrameRing::new(vec![rf]),
                    Arc::new(ThreadPool::new(workers)),
                    &NappeSchedule::fitted(&spec, 8),
                )
            };
            let raw = pipe(Beamformer::new(&spec));
            assert_eq!(raw.tile_count(), schedule.n_blocks());
            assert_eq!(raw.task_count(), 2 * workers, "{workers} workers");
            let mut next = 0;
            for state in &raw.tile_states {
                assert_eq!(state.region(), fan, "a band spans the whole fan");
                assert_eq!(state.nappes().start, next, "bands are contiguous");
                next = state.nappes().end;
            }
            assert_eq!(next, n_depth);
            let compound = pipe(Beamformer::new(&compound));
            assert_eq!(compound.tile_count(), schedule.n_blocks());
            assert_eq!(compound.task_count(), 2 * workers, "{workers} workers");
            let mut next = 0;
            for state in &compound.tile_states {
                assert_eq!(state.region(), fan, "a compound band spans the whole fan");
                assert_eq!(state.slab.tile(), fan, "its slab holds the whole fan");
                assert_eq!(state.nappes().start, next, "bands are contiguous");
                next = state.nappes().end;
            }
            assert_eq!(next, n_depth);
            let fan_tiled = pipe(bmode.clone());
            assert_eq!(fan_tiled.task_count(), schedule.n_blocks());
            for (state, tile) in fan_tiled.tile_states.iter().zip(schedule.tiles()) {
                assert_eq!((state.region(), state.nappes()), (tile, 0..n_depth));
            }
        }
    }

    #[test]
    fn pipelined_frames_match_serial_volume_loop_bit_for_bit() {
        let spec = SystemSpec::tiny();
        let engine = Arc::new(ExactEngine::new(&spec));
        let frames = recorded_frames(&spec, 3);
        let pool = Arc::new(ThreadPool::new(2));
        let schedule = NappeSchedule::fitted(&spec, 8);
        let mut serial =
            VolumeLoop::with_pool(Beamformer::new(&spec), Arc::clone(&pool), &schedule);
        let reference: Vec<BeamformedVolume> = frames
            .iter()
            .map(|rf| serial.beamform(engine.as_ref(), rf).clone())
            .collect();
        let mut pipe = FramePipeline::with_pool(
            Beamformer::new(&spec),
            engine,
            FrameRing::new(frames),
            pool,
            &schedule,
        );
        for round in 0..9 {
            let vol = pipe.next_volume().expect("healthy pipeline");
            assert_eq!(vol, &reference[round % 3], "frame {round}");
        }
        assert_eq!(pipe.frames(), 9);
        assert_eq!(pipe.errors(), 0);
    }

    #[test]
    fn async_submit_matches_synchronous_next_volume() {
        let spec = SystemSpec::tiny();
        let engine = Arc::new(ExactEngine::new(&spec));
        let frames = recorded_frames(&spec, 3);
        let pool = Arc::new(ThreadPool::new(2));
        let schedule = NappeSchedule::fitted(&spec, 8);
        let mut sync_pipe = FramePipeline::with_pool(
            Beamformer::new(&spec),
            Arc::clone(&engine) as Arc<dyn DelayEngine + Send + Sync>,
            FrameRing::new(frames.clone()),
            Arc::clone(&pool),
            &schedule,
        );
        let reference: Vec<BeamformedVolume> = (0..6)
            .map(|_| sync_pipe.next_volume().expect("healthy").clone())
            .collect();
        let mut pipe = FramePipeline::with_pool(
            Beamformer::new(&spec),
            engine,
            FrameRing::new(frames),
            pool,
            &schedule,
        );
        for (round, expect) in reference.iter().enumerate() {
            let ticket = pipe.submit().expect("healthy acquisition");
            // Poll while the frame is in flight; completion must arrive.
            while !ticket.try_wait() {
                std::thread::yield_now();
            }
            let vol = ticket.wait().expect("healthy beamforming");
            assert_eq!(vol, expect, "frame {round}");
        }
        assert_eq!(pipe.frames(), 6);
    }

    #[test]
    fn ticket_exposes_previous_volume_while_in_flight() {
        let spec = SystemSpec::tiny();
        let engine = Arc::new(ExactEngine::new(&spec));
        let frames = recorded_frames(&spec, 2);
        let mut pipe = FramePipeline::new(Beamformer::new(&spec), engine, FrameRing::new(frames));
        assert!(pipe.volume().is_none());
        let first = pipe.next_volume().unwrap().clone();
        assert_eq!(pipe.volume(), Some(&first));
        assert!(pipe.previous_volume().is_none());
        // While frame 2 is in flight, frame 1 is readable from the ticket.
        let ticket = pipe.submit().expect("healthy acquisition");
        assert_eq!(ticket.previous_volume(), Some(&first));
        let second = ticket.wait().unwrap().clone();
        assert_ne!(first, second, "distinct inputs give distinct volumes");
        assert_eq!(pipe.volume(), Some(&second));
        assert_eq!(pipe.previous_volume(), Some(&first));
    }

    #[test]
    fn dropped_ticket_abandons_the_frame_and_the_pipeline_recovers() {
        let spec = SystemSpec::tiny();
        let engine = Arc::new(ExactEngine::new(&spec));
        let frames = recorded_frames(&spec, 1);
        let mut pipe = FramePipeline::new(
            Beamformer::new(&spec),
            engine,
            FrameRing::new(frames.clone()),
        );
        let reference = pipe.next_volume().unwrap().clone();
        drop(pipe.submit().expect("healthy acquisition"));
        assert_eq!(pipe.abandoned(), 1);
        assert_eq!(pipe.frames(), 1);
        // The abandoned frame's buffers and job slot are reusable.
        for _ in 0..3 {
            assert_eq!(pipe.next_volume().expect("recovered"), &reference);
        }
        assert_eq!(pipe.frames(), 4);
        assert_eq!(pipe.stats().abandoned, 1);
    }

    #[test]
    fn synthesized_source_matches_offline_synthesis() {
        let spec = SystemSpec::tiny();
        let engine = ExactEngine::new(&spec);
        let pulse = Pulse::from_spec(&spec);
        let targets: Vec<Vec3> = (0..3)
            .map(|i| spec.volume_grid.position(VoxelIndex::new(4, 4, 6 + 2 * i)))
            .collect();
        let phantoms: Vec<Phantom> = targets.iter().map(|&t| Phantom::point(t)).collect();
        let source =
            SynthesizedFrames::new(EchoSynthesizer::new(&spec), pulse.clone(), phantoms.clone());
        let mut pipe = FramePipeline::new(
            Beamformer::new(&spec),
            Arc::new(ExactEngine::new(&spec)),
            source,
        );
        let mut serial = VolumeLoop::new(Beamformer::new(&spec));
        let synth = EchoSynthesizer::new(&spec);
        for (i, phantom) in phantoms.iter().enumerate() {
            let rf = synth.synthesize(phantom, &pulse);
            let expect = serial.beamform(&engine, &rf).clone();
            let got = pipe.next_volume().expect("healthy pipeline");
            assert_eq!(got, &expect, "frame {i}");
        }
    }

    #[test]
    fn non_finite_echoes_fail_their_frame_not_the_pipeline() {
        // A phantom whose echoes are NaN or ±∞ has no 16-bit frame: its
        // acquisition is a typed `Source` error, and the next (finite)
        // phantom beamforms exactly as offline.
        let spec = SystemSpec::tiny();
        let pulse = Pulse::from_spec(&spec);
        let target = spec.volume_grid.position(VoxelIndex::new(4, 4, 8));
        let hostile = |amplitude| {
            Phantom::from_scatterers(vec![usbf_sim::Scatterer {
                position: target,
                amplitude,
            }])
        };
        let phantoms = vec![
            hostile(f64::NAN),
            Phantom::point(target),
            hostile(f64::INFINITY),
            Phantom::point(target),
        ];
        let source = SynthesizedFrames::new(EchoSynthesizer::new(&spec), pulse.clone(), phantoms);
        let mut pipe = FramePipeline::new(
            Beamformer::new(&spec),
            Arc::new(ExactEngine::new(&spec)),
            source,
        );
        let rf = EchoSynthesizer::new(&spec).synthesize(&Phantom::point(target), &pulse);
        let expect = VolumeLoop::new(Beamformer::new(&spec))
            .beamform(&ExactEngine::new(&spec), &rf)
            .clone();
        for round in 0..2 {
            match pipe.next_volume() {
                Err(PipelineError::Source(msg)) => assert!(msg.contains("non-finite"), "{msg}"),
                other => panic!("round {round}: expected a source error, got {other:?}"),
            }
            assert_eq!(pipe.next_volume().expect("finite frame"), &expect);
        }
        assert_eq!((pipe.stats().frames, pipe.stats().errors), (2, 2));
    }

    #[test]
    fn stats_track_frames_and_split_waits() {
        let spec = SystemSpec::tiny();
        let engine = Arc::new(ExactEngine::new(&spec));
        let mut pipe = FramePipeline::new(
            Beamformer::new(&spec),
            engine,
            FrameRing::new(recorded_frames(&spec, 1)),
        );
        for _ in 0..5 {
            pipe.next_volume().unwrap();
        }
        let stats = pipe.stats();
        assert_eq!(stats.frames, 5);
        assert_eq!(stats.errors, 0);
        assert_eq!(stats.abandoned, 0);
        assert!(stats.wall > Duration::ZERO);
        assert!(stats.frames_per_second() > 0.0);
        assert!(stats.overlap_fraction() >= 0.0 && stats.overlap_fraction() <= 1.0);
        let _ = stats.mean_acquire_wait();
        let _ = stats.mean_beamform_wait();
    }

    #[test]
    fn slow_source_accrues_acquire_wait_not_beamform_wait() {
        // The controllable slow source: every frame takes ≥ one pause to
        // acquire, so with a tiny beamform load the un-hidden latency
        // must land in acquire_wait — and must NOT be misattributed to
        // beamform_wait (the redemption side), which was the historical
        // lumping bug.
        const PAUSE: Duration = Duration::from_millis(15);
        const FRAMES: u32 = 3;
        let spec = SystemSpec::tiny();
        let engine = Arc::new(ExactEngine::new(&spec));
        let template = recorded_frames(&spec, 1).remove(0);
        let source = move |out: &mut RfFrame| {
            std::thread::sleep(PAUSE);
            out.copy_from(&template);
        };
        let mut pipe = FramePipeline::new(Beamformer::new(&spec), engine, source);
        for _ in 0..FRAMES {
            pipe.next_volume().unwrap();
        }
        let stats = pipe.stats();
        // Every acquisition pauses and nothing hides the first one; with
        // sub-millisecond beamforming at this spec, later ones stay
        // mostly exposed too. One full pause is the robust lower bound.
        assert!(
            stats.acquire_wait >= PAUSE,
            "acquire_wait {:?} must absorb the source pause",
            stats.acquire_wait
        );
        assert!(
            stats.beamform_wait < stats.acquire_wait,
            "redemption wait {:?} must not absorb the source pause {:?}",
            stats.beamform_wait,
            stats.acquire_wait
        );
        assert!(stats.mean_acquire_wait() >= stats.mean_beamform_wait());
    }

    #[test]
    fn caller_side_work_hides_beamform_wait() {
        // If the caller's own work outlasts the in-flight beamforming,
        // redeeming the ticket is nearly free: try_wait turns true on
        // its own and the redemption join has nothing left to drain.
        let spec = SystemSpec::tiny();
        let engine = Arc::new(ExactEngine::new(&spec));
        let frames = recorded_frames(&spec, 1);
        let pool = Arc::new(ThreadPool::new(2));
        let schedule = NappeSchedule::fitted(&spec, 8);
        let mut pipe = FramePipeline::with_pool(
            Beamformer::new(&spec),
            engine,
            FrameRing::new(frames),
            pool,
            &schedule,
        );
        pipe.next_volume().unwrap(); // warm-up
        let ticket = pipe.submit().expect("healthy acquisition");
        // "Other work": poll until the workers finish on their own.
        let mut polls = 0u64;
        while !ticket.try_wait() {
            std::thread::sleep(Duration::from_micros(200));
            polls += 1;
            assert!(polls < 500_000, "beamforming never completed");
        }
        let before = pipe_stats_beamform_wait(&ticket);
        ticket.wait().expect("healthy beamforming");
        let stats = pipe.stats();
        assert_eq!(stats.frames, 2);
        // The redemption of an already-complete frame adds (almost) no
        // blocked time; 5 ms is orders of magnitude above the join cost.
        assert!(
            stats.beamform_wait - before < Duration::from_millis(5),
            "redeeming a finished frame blocked for {:?}",
            stats.beamform_wait - before
        );
    }

    /// Reads the accrued beamform_wait through the ticket's FinishState
    /// borrow (test-only peek; the public path is `FramePipeline::stats`).
    fn pipe_stats_beamform_wait(ticket: &VolumeTicket<'_>) -> Duration {
        ticket
            .fin
            .as_deref()
            .map_or(Duration::ZERO, |f| f.beamform_wait)
    }

    /// A stats snapshot with explicit counters, for edge-case pinning.
    fn stats_with(attempts: u64, acquire_wait: Duration, wall: Duration) -> PipelineStats {
        PipelineStats {
            frames: attempts,
            errors: 0,
            abandoned: 0,
            acquire_wait,
            beamform_wait: acquire_wait,
            wall,
            latency: crate::LatencyHistogram::new(),
        }
    }

    #[test]
    fn zero_frame_stats_are_well_defined() {
        // Regression: every derived figure of a fresh pipeline must be a
        // finite, meaningful value — no NaN, no divide-by-zero panic.
        let stats = stats_with(0, Duration::ZERO, Duration::ZERO);
        assert_eq!(stats.frames_per_second(), 0.0);
        assert_eq!(stats.mean_acquire_wait(), Duration::ZERO);
        assert_eq!(stats.mean_beamform_wait(), Duration::ZERO);
        assert_eq!(stats.overlap_fraction(), 1.0);
        // Accrued wait with zero completed attempts (e.g. a snapshot
        // taken after a Disconnected error) must still not divide by 0.
        let stats = stats_with(0, Duration::from_millis(5), Duration::ZERO);
        assert_eq!(stats.mean_acquire_wait(), Duration::ZERO);
    }

    #[test]
    fn mean_waits_survive_attempt_counts_beyond_u32() {
        // Regression: `total / attempts as u32` truncated the count —
        // exactly 2³² attempts truncated to 0 and panicked the division,
        // and anything above inflated the mean.
        let attempts = u64::from(u32::MAX) + 1; // `as u32` would give 0
        let total = Duration::from_secs(40_000);
        let stats = stats_with(attempts, total, Duration::from_secs(1));
        let mean = stats.mean_acquire_wait();
        let expect_nanos = total.as_nanos() / u128::from(attempts);
        assert_eq!(mean.as_nanos(), expect_nanos);
        assert!(mean > Duration::ZERO, "a real accrual must not round away");
        assert_eq!(stats.mean_beamform_wait(), mean);
    }

    #[test]
    fn mean_wait_matches_plain_division_for_small_counts() {
        let stats = stats_with(4, Duration::from_millis(10), Duration::from_secs(1));
        assert_eq!(stats.mean_acquire_wait(), Duration::from_micros(2500));
    }

    #[test]
    fn closure_sources_work() {
        let spec = SystemSpec::tiny();
        let engine = Arc::new(ExactEngine::new(&spec));
        let calls = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let recorder = Arc::clone(&calls);
        let source = move |out: &mut RfFrame| {
            out.fill(0.0).expect("a finite fill value");
            recorder.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        };
        let mut pipe = FramePipeline::new(Beamformer::new(&spec), engine, source);
        let vol = pipe.next_volume().unwrap();
        assert_eq!(vol.max_abs(), 0.0);
        assert_eq!(pipe.frames(), 1);
        // The first acquisition plus the overlapped second one.
        assert!(calls.load(std::sync::atomic::Ordering::Relaxed) >= 1);
    }
}
