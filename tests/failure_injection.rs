//! Failure injection: the library fails loudly and predictably at its
//! documented limits.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;
use usbf::beamform::{
    Beamformer, FramePipeline, FrameRing, PipelineError, ShardConfig, ShardRound, ShardedRuntime,
    VolumeLoop,
};
use usbf::core::{
    DelayEngine, EngineError, ExactEngine, NaiveTableEngine, NappeDelays, TableFreeConfig,
    TableFreeEngine, TableSteerConfig, TableSteerEngine,
};
use usbf::fixed::{Fixed, FixedError, QFormat, RoundingMode};
use usbf::geometry::{
    deg, ElementIndex, SystemSpec, TransducerSpec, TransmitModel, VolumeSpec, VoxelIndex,
};
use usbf::pwl::{PwlApprox, PwlError, SqrtFn, TrackingEvaluator};
use usbf::sim::{EchoSynthesizer, Phantom, Pulse, RfFrame};

#[test]
fn naive_engine_rejects_paper_scale() {
    let err = NaiveTableEngine::build(&SystemSpec::paper(), 64 << 30).unwrap_err();
    match err {
        EngineError::TableTooLarge { required_bytes, .. } => {
            assert!(required_bytes > 300e9 as u64);
        }
        other => panic!("expected TableTooLarge, got {other:?}"),
    }
}

#[test]
fn tablesteer_rejects_formats_too_narrow_for_the_geometry() {
    // 8 integer bits cannot hold ~8000-sample delays.
    let spec = SystemSpec::tiny();
    let cfg = TableSteerConfig {
        reference_format: QFormat::unsigned(8, 5),
        correction_format: QFormat::CORR_18,
    };
    let err = TableSteerEngine::new(&spec, cfg).unwrap_err();
    assert!(
        matches!(err, EngineError::Fixed(FixedError::Overflow { .. })),
        "{err:?}"
    );
}

#[test]
fn tablefree_rejects_nonsense_delta() {
    let spec = SystemSpec::tiny();
    let err = TableFreeEngine::new(&spec, TableFreeConfig::with_delta(0.0)).unwrap_err();
    assert!(
        matches!(err, EngineError::Pwl(PwlError::InvalidDelta(_))),
        "{err:?}"
    );
}

#[test]
fn tracking_budget_violation_is_reported_not_hidden() {
    let table = PwlApprox::build(&SqrtFn, (16.0, 1e6), 0.25).unwrap();
    let mut tracker = TrackingEvaluator::new(&table).with_max_step(1);
    tracker.eval(20.0).unwrap();
    let err = tracker.eval(9.9e5).unwrap_err();
    assert!(err.allowed == 1 && err.to > err.from);
    // The tracker recovers: the pointer landed on the right segment.
    assert!(tracker.eval(9.9e5).is_ok());
}

#[test]
fn delay_indices_clamp_into_echo_window() {
    // Even at the most extreme voxel × element combination, indices stay
    // inside the buffer — the clamp is observable via the counter.
    let base = SystemSpec::tiny();
    let wide = SystemSpec::new(
        base.speed_of_sound,
        base.sampling_frequency,
        TransducerSpec {
            nx: 100,
            ny: 100,
            ..base.transducer.clone()
        },
        VolumeSpec {
            n_depth: 8,
            ..base.volume.clone()
        },
        base.origin,
        base.frame_rate,
    );
    let eng = TableSteerEngine::new(&wide, TableSteerConfig::bits18()).unwrap();
    let v = &wide.volume_grid;
    let mut max_idx = 0i64;
    for e in wide.elements.iter() {
        let idx = eng.delay_index(0, VoxelIndex::new(0, 0, v.n_depth() - 1), e);
        assert!(idx >= 0 && (idx as usize) < wide.echo_buffer_len());
        max_idx = max_idx.max(idx);
    }
    assert_eq!(
        max_idx as usize,
        wide.echo_buffer_len() - 1,
        "clamp hit the rail"
    );
    assert!(eng.clamp_events() > 0);
}

#[test]
fn fixed_point_saturation_is_deterministic_at_the_rails() {
    let fmt = QFormat::REF_18;
    let top = Fixed::saturating_from_f64(1e9, fmt, RoundingMode::Nearest);
    assert_eq!(top.to_f64(), fmt.max_value());
    let bottom = Fixed::saturating_from_f64(-1e9, fmt, RoundingMode::Nearest);
    assert_eq!(bottom.to_f64(), 0.0);
}

/// An engine that can be armed to panic mid-frame — the injected fault
/// for the pipeline-recovery tests below.
struct FaultyEngine {
    inner: ExactEngine,
    armed: std::sync::atomic::AtomicBool,
}

impl FaultyEngine {
    fn new(spec: &SystemSpec) -> Self {
        FaultyEngine {
            inner: ExactEngine::new(spec),
            armed: std::sync::atomic::AtomicBool::new(false),
        }
    }

    fn arm(&self, on: bool) {
        self.armed.store(on, std::sync::atomic::Ordering::SeqCst);
    }

    fn fault_if_armed(&self) {
        assert!(
            !self.armed.load(std::sync::atomic::Ordering::SeqCst),
            "injected delay fault"
        );
    }
}

/// Every delay path faults when armed: the scalar queries, the
/// receive-leg fill and the per-row combine, and the emit's set-up and
/// runs that every frame takes.
impl DelayEngine for FaultyEngine {
    fn name(&self) -> &'static str {
        "FAULTY"
    }
    fn echo_buffer_len(&self) -> usize {
        self.inner.echo_buffer_len()
    }
    fn transmit_count(&self) -> usize {
        self.inner.transmit_count()
    }
    fn delay_samples(&self, tx: usize, vox: VoxelIndex, e: ElementIndex) -> f64 {
        self.fault_if_armed();
        self.inner.delay_samples(tx, vox, e)
    }
    fn fill_nappe_rx(&self, nappe_idx: usize, out: &mut NappeDelays) {
        self.fault_if_armed();
        self.inner.fill_nappe_rx(nappe_idx, out);
    }
    fn combine_tx_row(&self, tx: usize, vox: VoxelIndex, rx_row: &[f64], out: &mut [f64]) {
        self.fault_if_armed();
        self.inner.combine_tx_row(tx, vox, rx_row, out);
    }
    fn begin_emit(
        &self,
        nappe_idx: usize,
        runs: &[std::ops::Range<usize>],
        slab: &mut NappeDelays,
    ) {
        self.fault_if_armed();
        self.inner.begin_emit(nappe_idx, runs, slab);
    }
    fn emit_run(
        &self,
        tx: usize,
        slab: &NappeDelays,
        slots: std::ops::Range<usize>,
        runs: &[std::ops::Range<usize>],
        out: &mut [i32],
    ) {
        self.fault_if_armed();
        self.inner.emit_run(tx, slab, slots, runs, out);
    }
}

/// The geometries the fault tests run on: the classic single point
/// source and a 4-angle plane-wave compound on a narrow cone (under the
/// stock ±36.5° cone the steered footprints miss the tiny grid).
fn fault_specs() -> [SystemSpec; 2] {
    let tiny = SystemSpec::tiny();
    let lambda = tiny.wavelength();
    let cpwc = SystemSpec::new(
        tiny.speed_of_sound,
        tiny.sampling_frequency,
        tiny.transducer.clone(),
        VolumeSpec {
            theta_max: deg(4.0),
            phi_max: deg(4.0),
            depth_max: 60.0 * lambda,
            ..tiny.volume.clone()
        },
        tiny.origin,
        tiny.frame_rate,
    )
    .with_transmits(TransmitModel::plane_wave_fan(4, deg(10.0)));
    [tiny, cpwc]
}

fn point_frame(spec: &SystemSpec) -> RfFrame {
    let target = spec.volume_grid.position(VoxelIndex::new(4, 4, 8));
    EchoSynthesizer::new(spec).synthesize(&Phantom::point(target), &Pulse::from_spec(spec))
}

#[test]
fn pipelined_source_panic_is_a_clean_error_and_the_pipeline_recovers() {
    let spec = SystemSpec::tiny();
    let rf = point_frame(&spec);
    let engine = Arc::new(ExactEngine::new(&spec));
    let reference = VolumeLoop::new(Beamformer::new(&spec))
        .beamform(engine.as_ref(), &rf)
        .clone();
    // A source that panics while producing its second frame.
    let template = rf.clone();
    let mut produced = 0u32;
    let source = move |out: &mut RfFrame| {
        produced += 1;
        assert!(produced != 2, "injected source fault");
        out.copy_from(&template);
    };
    let mut pipe = FramePipeline::new(Beamformer::new(&spec), engine, source);
    assert_eq!(pipe.next_volume().expect("frame 1 is clean"), &reference);
    // Frame 2's acquisition panicked: the caller gets an error, not an
    // unwind and not a poisoned pipeline.
    match pipe.next_volume() {
        Err(PipelineError::Source(msg)) => {
            assert!(msg.contains("injected source fault"), "message: {msg}")
        }
        other => panic!("expected Source error, got {other:?}"),
    }
    // The same pipeline (same pool, same warm state, same source) keeps
    // producing bit-correct volumes afterwards.
    for _ in 0..3 {
        assert_eq!(pipe.next_volume().expect("recovered"), &reference);
    }
    assert_eq!(pipe.frames(), 4);
    assert_eq!(pipe.errors(), 1);
}

#[test]
fn pipelined_beamform_panic_is_a_clean_error_and_the_pool_survives() {
    for spec in fault_specs() {
        let rf = point_frame(&spec);
        let engine = Arc::new(FaultyEngine::new(&spec));
        let reference = VolumeLoop::new(Beamformer::new(&spec))
            .beamform(engine.as_ref(), &rf)
            .clone();
        let pool = Arc::new(usbf::par::ThreadPool::new(2));
        let schedule = usbf::core::NappeSchedule::fitted(&spec, 8);
        let mut pipe = FramePipeline::with_pool(
            Beamformer::new(&spec),
            Arc::clone(&engine) as Arc<dyn DelayEngine + Send + Sync>,
            FrameRing::new(vec![rf]),
            Arc::clone(&pool),
            &schedule,
        );
        assert_eq!(pipe.next_volume().expect("clean frame"), &reference);
        // The panic is delivered through the asynchronous ticket too: the
        // engine faults mid-flight, wait() reports it as a typed error.
        engine.arm(true);
        let ticket = pipe.submit().expect("acquisition is healthy");
        match ticket.wait() {
            Err(PipelineError::Beamform(msg)) => {
                assert!(msg.contains("injected delay fault"), "message: {msg}")
            }
            other => panic!("expected Beamform error, got {other:?}"),
        }
        engine.arm(false);
        // The pipeline's pool and warm state beamform the next frames
        // correctly — and the shared pool itself still serves other work.
        for _ in 0..3 {
            assert_eq!(pipe.next_volume().expect("recovered"), &reference);
        }
        let items: Vec<usize> = (0..32).collect();
        let mut probe = vec![0usize; items.len()];
        usbf::par::ThreadPool::register(&pool).run(&mut probe, &|i, s: &mut usize| {
            *s = items[i] + 1;
        });
        assert_eq!(probe, (1..=32).collect::<Vec<_>>());
    }
}

#[test]
fn sharded_engine_panic_never_poisons_sibling_shards() {
    for spec in fault_specs() {
        let rf = point_frame(&spec);
        let faulty = Arc::new(FaultyEngine::new(&spec));
        let healthy: Arc<dyn DelayEngine + Send + Sync> = Arc::new(ExactEngine::new(&spec));
        let reference = VolumeLoop::new(Beamformer::new(&spec))
            .beamform(healthy.as_ref(), &rf)
            .clone();
        let faulty_reference = VolumeLoop::new(Beamformer::new(&spec))
            .beamform(faulty.as_ref(), &rf)
            .clone();
        let pool = Arc::new(usbf::par::ThreadPool::new(2));
        let mut rt = ShardedRuntime::new(
            pool,
            vec![
                ShardConfig::new(
                    Beamformer::new(&spec),
                    Arc::clone(&faulty) as Arc<dyn DelayEngine + Send + Sync>,
                    FrameRing::new(vec![rf.clone()]),
                ),
                ShardConfig::new(
                    Beamformer::new(&spec),
                    Arc::clone(&healthy),
                    FrameRing::new(vec![rf.clone()]),
                ),
            ],
        );
        let ids = rt.shard_ids();
        assert!(rt.round().iter().all(|o| o.is_ok()), "clean warm-up round");
        faulty.arm(true);
        let outcomes = rt.round();
        match outcomes[0].error() {
            Some(PipelineError::Beamform(msg)) => {
                assert!(msg.contains("injected delay fault"), "message: {msg}")
            }
            other => panic!("expected shard 0 Beamform error, got {other:?}"),
        }
        // The sibling's frame of the same round is untouched — the shared
        // pool contained the panic to shard 0's tasks.
        assert!(outcomes[1].is_ok(), "sibling shard must stay healthy");
        assert_eq!(rt.volume_of(ids[1]), Some(&reference));
        faulty.arm(false);
        // Both shards recover on the same pool; counters attribute the
        // lost frame to the faulty shard only.
        assert!(rt.round().iter().all(|o| o.is_ok()), "recovery round");
        assert_eq!(rt.volume_of(ids[0]), Some(&faulty_reference));
        assert_eq!(rt.shard_of(ids[0]).expect("live shard").errors(), 1);
        assert_eq!(rt.shard_of(ids[1]).expect("live shard").errors(), 0);
        assert_eq!(rt.frame_counts(), vec![2, 3]);
    }
}

/// A panic payload whose own drop panics. The acquisition thread drops
/// a caught payload outside its `catch_unwind`, so this second panic
/// unwinds and kills the thread.
struct PanickingPayload;

impl Drop for PanickingPayload {
    fn drop(&mut self) {
        panic!("injected payload-drop fault");
    }
}

/// A source that panics with a [`PanickingPayload`] on its second
/// acquisition, ending its acquisition thread.
fn source_that_dies(template: RfFrame) -> impl FnMut(&mut RfFrame) + Send + 'static {
    let mut produced = 0u32;
    move |out: &mut RfFrame| {
        produced += 1;
        if produced == 2 {
            std::panic::panic_any(PanickingPayload);
        }
        out.copy_from(&template);
    }
}

/// Runs `body` on its own thread and fails if it has not returned within
/// `limit`, so a pipeline parked on a dead thread fails the test instead
/// of hanging it.
fn within<T: Send + 'static>(limit: Duration, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(body());
    });
    match rx.recv_timeout(limit) {
        Ok(value) => value,
        Err(RecvTimeoutError::Timeout) => panic!("still running after {limit:?}: hung"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("body returned no value"))
        }
    }
}

#[test]
fn dead_acquisition_thread_reads_disconnected_and_never_hangs() {
    within(Duration::from_secs(30), || {
        let spec = SystemSpec::tiny();
        let rf = point_frame(&spec);
        let engine: Arc<dyn DelayEngine + Send + Sync> = Arc::new(ExactEngine::new(&spec));
        let reference = VolumeLoop::new(Beamformer::new(&spec))
            .beamform(engine.as_ref(), &rf)
            .clone();

        let mut pipe = FramePipeline::new(
            Beamformer::new(&spec),
            Arc::clone(&engine),
            source_that_dies(rf.clone()),
        );
        assert_eq!(pipe.next_volume().expect("frame 1 is clean"), &reference);
        // The second acquisition killed the thread: every later frame
        // reports it, and dropping the pipeline still joins the thread.
        for _ in 0..3 {
            match pipe.next_volume() {
                Err(PipelineError::Disconnected) => {}
                other => panic!("expected Disconnected, got {other:?}"),
            }
        }
        drop(pipe);

        // Through a sharded runtime, the dead shard fails alone.
        let mut rt = ShardedRuntime::new(
            Arc::new(usbf::par::ThreadPool::new(2)),
            vec![
                ShardConfig::new(
                    Beamformer::new(&spec),
                    Arc::clone(&engine),
                    source_that_dies(rf.clone()),
                ),
                ShardConfig::new(
                    Beamformer::new(&spec),
                    Arc::clone(&engine),
                    FrameRing::new(vec![rf.clone()]),
                ),
            ],
        );
        let ids = rt.shard_ids();
        assert!(
            rt.round().iter().all(|o| o.is_completed()),
            "clean first round"
        );
        for _ in 0..3 {
            let outcomes = rt.round();
            match &outcomes[0] {
                ShardRound::Failed(id, PipelineError::Disconnected) if *id == ids[0] => {}
                other => panic!("expected shard 0 Disconnected, got {other:?}"),
            }
            assert!(
                outcomes[1].is_completed(),
                "sibling shard must keep completing"
            );
            assert_eq!(rt.volume_of(ids[1]), Some(&reference));
        }
        assert!(rt.detach_shard(ids[0]).is_some(), "dead shard detaches");
        assert!(
            rt.round().iter().all(|o| o.is_completed()),
            "survivor round"
        );
        assert_eq!(rt.frame_counts(), vec![5]);
    });
}

#[test]
fn volume_loop_rethrows_engine_panics_and_stays_warm() {
    let spec = SystemSpec::tiny();
    let rf = point_frame(&spec);
    let engine = FaultyEngine::new(&spec);
    let mut rt = VolumeLoop::new(Beamformer::new(&spec));
    let clean = rt.beamform(&engine, &rf).clone();
    engine.arm(true);
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.beamform(&engine, &rf);
    }));
    assert!(unwound.is_err(), "the loop must rethrow the task panic");
    engine.arm(false);
    assert_eq!(rt.beamform(&engine, &rf), &clean, "warm state survived");
}

#[test]
fn spec_constructor_rejects_degenerate_geometry() {
    let base = SystemSpec::tiny();
    let r = std::panic::catch_unwind(|| {
        SystemSpec::new(
            base.speed_of_sound,
            base.sampling_frequency,
            TransducerSpec {
                nx: 0,
                ..base.transducer.clone()
            },
            base.volume.clone(),
            base.origin,
            base.frame_rate,
        )
    });
    assert!(r.is_err(), "zero-element probe must be rejected");
}
