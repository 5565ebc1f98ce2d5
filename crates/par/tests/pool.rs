//! Behavioural tests for the persistent pool and its registered jobs:
//! reuse, panic propagation, nesting, and the asynchronous guard API.
//! Pools here are built with an explicit worker count so the
//! multi-worker paths are exercised even on single-core CI hosts.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use usbf_par::ThreadPool;

#[test]
fn dropping_a_pool_joins_its_workers() {
    let pool = Arc::new(ThreadPool::new(3));
    let mut out = vec![0usize; 32];
    ThreadPool::register(&pool).run(&mut out, &|i, s: &mut usize| *s = i);
    // The last handle is gone, so this drop is the pool's: it must not
    // hang or leak threads that outlive the join.
    drop(Arc::into_inner(pool).expect("no other owner"));
}

#[test]
fn registered_run_inside_a_registered_task_completes() {
    // Every caller drains its own run, so a run started from inside a
    // task of another run cannot deadlock, even when the outer run has
    // both workers busy.
    let pool = Arc::new(ThreadPool::new(2));
    let outer: Vec<usize> = (0..8).collect();
    let inner: Vec<usize> = (0..50).collect();
    let mut totals = vec![0usize; outer.len()];
    ThreadPool::register(&pool).run(&mut totals, &|o, total: &mut usize| {
        let mut terms = vec![0usize; inner.len()];
        ThreadPool::register(&pool).run(&mut terms, &|i, t: &mut usize| *t = inner[i] + outer[o]);
        *total = terms.iter().sum();
    });
    let serial: Vec<usize> = outer
        .iter()
        .map(|&o| inner.iter().map(|&i| i + o).sum())
        .collect();
    assert_eq!(totals, serial);
}

#[test]
fn registered_job_runs_every_task_exactly_once() {
    let pool = std::sync::Arc::new(ThreadPool::new(4));
    let mut job = ThreadPool::register(&pool);
    let mut counts = vec![0u32; 37];
    for round in 0..50 {
        job.run(&mut counts, &|i, c: &mut u32| {
            assert!(i < 37);
            *c += 1;
        });
        assert!(counts.iter().all(|&c| c == round + 1), "round {round}");
    }
}

#[test]
fn registered_job_matches_serial_reference() {
    let pool = std::sync::Arc::new(ThreadPool::new(3));
    let mut job = ThreadPool::register(&pool);
    let mut out = vec![0.0f64; 500];
    let input: Vec<f64> = (0..500).map(|i| i as f64 * 0.25).collect();
    job.run(&mut out, &|i, slot: &mut f64| *slot = input[i].sqrt() + 1.0);
    let serial: Vec<f64> = input.iter().map(|x| x.sqrt() + 1.0).collect();
    assert_eq!(out, serial);
}

#[test]
fn registered_job_tasks_borrow_per_frame_inputs() {
    // The closure is borrowed per run, so per-frame data (here `frame`)
    // can be captured by reference without any 'static requirement.
    let pool = std::sync::Arc::new(ThreadPool::new(2));
    let mut job = ThreadPool::register(&pool);
    let mut sums = vec![0u64; 16];
    for frame in 0..10u64 {
        let weights: Vec<u64> = (0..16).map(|i| i + frame).collect();
        job.run(&mut sums, &|i, s: &mut u64| *s += weights[i]);
    }
    for (i, &s) in sums.iter().enumerate() {
        assert_eq!(s, (0..10).map(|f| i as u64 + f).sum::<u64>());
    }
}

#[test]
fn registered_job_panic_propagates_and_handle_survives() {
    let pool = std::sync::Arc::new(ThreadPool::new(4));
    let mut job = ThreadPool::register(&pool);
    let mut slots = vec![0usize; 32];
    let result = catch_unwind(AssertUnwindSafe(|| {
        job.run(&mut slots, &|i, s: &mut usize| {
            if i == 13 {
                panic!("registered task panic");
            }
            *s = i;
        });
    }));
    assert!(result.is_err(), "panic in a task must reach the caller");
    // The same handle (and pool) must keep working afterwards.
    job.run(&mut slots, &|i, s: &mut usize| *s = i + 1);
    assert_eq!(slots, (1..=32).collect::<Vec<_>>());
    let items: Vec<usize> = (0..16).collect();
    let mut probe = vec![0usize; items.len()];
    ThreadPool::register(&pool).run(&mut probe, &|i, s: &mut usize| *s = items[i]);
    assert_eq!(probe, items);
}

#[test]
fn multiple_registered_jobs_share_one_pool() {
    let pool = std::sync::Arc::new(ThreadPool::new(2));
    let mut a = ThreadPool::register(&pool);
    let mut b = ThreadPool::register(&pool);
    let mut xs = vec![0u32; 20];
    let mut ys = vec![0u32; 30];
    for _ in 0..20 {
        a.run(&mut xs, &|_, x: &mut u32| *x += 1);
        b.run(&mut ys, &|_, y: &mut u32| *y += 2);
    }
    assert!(xs.iter().all(|&x| x == 20));
    assert!(ys.iter().all(|&y| y == 40));
}

#[test]
fn registered_job_inline_paths() {
    // Empty runs, single-task runs and ≤1-thread pools all run inline on
    // the caller with no coordination.
    for threads in [0usize, 1, 2] {
        let pool = std::sync::Arc::new(ThreadPool::new(threads));
        let mut job = ThreadPool::register(&pool);
        let mut empty: Vec<u32> = Vec::new();
        job.run(&mut empty, &|_, _: &mut u32| unreachable!());
        let mut one = vec![41u32];
        job.run(&mut one, &|_, v: &mut u32| *v += 1);
        assert_eq!(one, vec![42], "{threads} threads");
    }
}

// ---------------------------------------------------------------------
// Asynchronous guard API: JobHandle::start → PendingJob.
// ---------------------------------------------------------------------

#[test]
fn started_job_overlaps_with_caller_work() {
    let pool = std::sync::Arc::new(ThreadPool::new(2));
    let mut job = ThreadPool::register(&pool);
    let mut slots = vec![0u64; 16];
    let bias = 3u64;
    let pending = job.start(&mut slots, &bias, |b, i, s: &mut u64| *s = b + i as u64);
    // Caller-side work while the run is in flight.
    let own: u64 = (0..1000u64).sum();
    assert_eq!(own, 499_500);
    let slots = pending.wait();
    for (i, &s) in slots.iter().enumerate() {
        assert_eq!(s, bias + i as u64);
    }
}

#[test]
fn try_wait_turns_true_and_stays_true() {
    let pool = std::sync::Arc::new(ThreadPool::new(2));
    let mut job = ThreadPool::register(&pool);
    let mut slots = vec![0u64; 8];
    let ctx = ();
    let pending = job.start(&mut slots, &ctx, |_, _, s: &mut u64| *s += 1);
    let mut spins = 0u64;
    while !pending.try_wait() {
        std::thread::yield_now();
        spins += 1;
        assert!(spins < 100_000_000, "run never completed");
    }
    // Monotonic: completion cannot un-happen.
    assert!(pending.try_wait());
    let slots = pending.wait();
    assert!(slots.iter().all(|&s| s == 1));
}

#[test]
fn dropping_a_pending_job_joins_the_work() {
    let pool = std::sync::Arc::new(ThreadPool::new(4));
    let mut job = ThreadPool::register(&pool);
    let mut slots = vec![0u64; 32];
    for round in 1..=5u64 {
        let spin = 500u64;
        let pending = job.start(&mut slots, &spin, |spin, _, s: &mut u64| {
            let mut acc = 0u64;
            for k in 0..*spin {
                acc = acc.wrapping_add(k);
            }
            std::hint::black_box(acc);
            *s += 1;
        });
        drop(pending); // must block until every task ran
        assert!(
            slots.iter().all(|&s| s == round),
            "drop-join left round {round} incomplete: {slots:?}"
        );
    }
}

#[test]
fn pending_panic_is_delivered_on_wait_and_everything_survives() {
    let pool = std::sync::Arc::new(ThreadPool::new(4));
    let mut job = ThreadPool::register(&pool);
    let mut slots = vec![0u64; 24];
    let panic_at = 7usize;
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        let pending = job.start(&mut slots, &panic_at, |p, i, s: &mut u64| {
            assert!(i != *p, "injected pending panic");
            *s += 1;
        });
        pending.wait();
    }));
    let payload = unwound.expect_err("wait must re-throw the task panic");
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(msg.contains("injected pending panic"), "payload: {msg}");
    // Siblings of the panicking task all ran before delivery.
    let done: u64 = slots.iter().sum();
    assert_eq!(done, 23, "every non-panicking task ran exactly once");
    // Handle and pool remain fully usable.
    let none = usize::MAX;
    job.start(&mut slots, &none, |_, _, s: &mut u64| *s += 1)
        .wait();
    let items: Vec<usize> = (0..16).collect();
    let mut probe = vec![0usize; items.len()];
    ThreadPool::register(&pool).run(&mut probe, &|i, s: &mut usize| *s = items[i]);
    assert_eq!(probe, items);
}

#[test]
fn dropping_a_panicked_pending_job_discards_the_panic() {
    let pool = std::sync::Arc::new(ThreadPool::new(2));
    let mut job = ThreadPool::register(&pool);
    let mut slots = vec![0u64; 8];
    let panic_at = 2usize;
    let pending = job.start(&mut slots, &panic_at, |p, i, s: &mut u64| {
        assert!(i != *p, "discarded panic");
        *s += 1;
    });
    drop(pending); // joins; must NOT unwind and must not poison later runs
    let none = usize::MAX;
    let pending = job.start(&mut slots, &none, |_, _, s: &mut u64| *s += 1);
    let slots = pending.wait(); // a stale discarded panic would unwind here
    assert_eq!(slots.iter().sum::<u64>(), 7 + 8);
}

#[test]
fn start_on_a_zero_worker_pool_completes_inline() {
    let pool = std::sync::Arc::new(ThreadPool::new(0));
    let mut job = ThreadPool::register(&pool);
    let mut slots = vec![0u64; 8];
    let ctx = 5u64;
    let pending = job.start(&mut slots, &ctx, |c, i, s: &mut u64| *s = c * i as u64);
    assert!(
        pending.try_wait(),
        "no workers: the run finished in start()"
    );
    let slots = pending.wait();
    assert_eq!(slots[7], 35);
}

#[test]
fn multiple_pending_jobs_fly_concurrently_on_one_pool() {
    let pool = std::sync::Arc::new(ThreadPool::new(2));
    let mut a = ThreadPool::register(&pool);
    let mut b = ThreadPool::register(&pool);
    let mut c = ThreadPool::register(&pool);
    let mut xs = vec![0u64; 12];
    let mut ys = vec![0u64; 7];
    let mut zs = vec![0u64; 29];
    for _ in 0..20 {
        let ctx = ();
        let pa = a.start(&mut xs, &ctx, |_, _, s: &mut u64| *s += 1);
        let pb = b.start(&mut ys, &ctx, |_, _, s: &mut u64| *s += 2);
        let pc = c.start(&mut zs, &ctx, |_, _, s: &mut u64| *s += 3);
        // Resolve out of submission order on purpose.
        pb.wait();
        drop(pc);
        pa.wait();
    }
    assert!(xs.iter().all(|&x| x == 20));
    assert!(ys.iter().all(|&y| y == 40));
    assert!(zs.iter().all(|&z| z == 60));
}

// ---------------------------------------------------------------------
// Wake-ups: every announcement must reach every parked worker.
// ---------------------------------------------------------------------

/// Shared context of one rendezvous round: `workers` tasks that each
/// wait, until `deadline`, for all of them to have started.
struct Rendezvous {
    arrived: AtomicUsize,
    workers: usize,
    deadline: Instant,
}

fn rendezvous_task(ctx: &Rendezvous, _: usize, met: &mut bool) {
    ctx.arrived.fetch_add(1, Ordering::SeqCst);
    while ctx.arrived.load(Ordering::SeqCst) < ctx.workers && Instant::now() < ctx.deadline {
        std::thread::yield_now();
    }
    *met = ctx.arrived.load(Ordering::SeqCst) >= ctx.workers;
}

#[test]
fn every_announcement_wakes_every_worker() {
    // Each round starts one task per worker that only completes its
    // rendezvous once every worker is inside one. The caller never
    // drains (it only polls `try_wait`), and a task blocks its worker
    // until the rendezvous, so the tasks meet only if this announcement
    // woke every worker. A second job started just before keeps workers
    // mid-sweep when the rendezvous is announced, which is where a
    // wake-up is lost if a worker parks without re-checking. The
    // rendezvous counter has a deadline, so a missed wake-up fails the
    // assertion instead of hanging the suite.
    const ROUNDS: usize = 2000;
    for workers in [2usize, 4] {
        let pool = Arc::new(ThreadPool::new(workers));
        let mut rendezvous = ThreadPool::register(&pool);
        let mut other = ThreadPool::register(&pool);
        let mut met = vec![false; workers];
        let mut filler = vec![0u64; 1];
        for round in 0..ROUNDS {
            let ctx = Rendezvous {
                arrived: AtomicUsize::new(0),
                workers,
                deadline: Instant::now() + Duration::from_secs(5),
            };
            let give_up = ctx.deadline + Duration::from_secs(5);
            met.fill(false);
            let pending_other = other.start(&mut filler, &(), |_, _, s: &mut u64| *s += 1);
            let pending = rendezvous.start(&mut met, &ctx, rendezvous_task);
            while !pending.try_wait() || !pending_other.try_wait() {
                assert!(
                    Instant::now() < give_up,
                    "{workers} workers, round {round}: no worker ran the tasks"
                );
                std::thread::yield_now();
            }
            pending_other.wait();
            let met = pending.wait();
            assert!(
                met.iter().all(|&m| m),
                "{workers} workers, round {round}: a worker slept through \
                 the announcement ({met:?})"
            );
        }
        assert_eq!(filler, vec![ROUNDS as u64]);
    }
}

// ---------------------------------------------------------------------
// Concurrency-order property tests: random interleavings of
// start / try_wait / wait / drop across multiple PendingJobs, including
// drop-without-wait and panic-mid-flight.
// ---------------------------------------------------------------------

// ---------------------------------------------------------------------
// Claim/complete interleavings under shard churn: a rotating set of 2–8
// pseudo-shards (JobHandles), where handles detach (drop) and attach
// (re-register) between rounds while sibling runs are in flight. Every
// tile must be claimed exactly once per run — whether a pool worker ran
// it from its registry sweep or the owner drained it — and no claim may
// be lost when a shard detaches mid-round.
// ---------------------------------------------------------------------

mod claim_interleavings {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use usbf_par::{JobHandle, ThreadPool};

    use proptest::prelude::*;

    /// SplitMix64 decision stream (see `pending_interleavings`).
    struct Decide(u64);

    impl Decide {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn chance(&mut self, percent: u64) -> bool {
            self.next() % 100 < percent
        }

        fn shuffle<T>(&mut self, items: &mut [T]) {
            for i in (1..items.len()).rev() {
                items.swap(i, self.below(i + 1));
            }
        }
    }

    /// One pseudo-shard: a registered handle plus its tile slots and the
    /// exactly-once expectation per slot.
    struct Shard {
        job: JobHandle,
        slots: Vec<u64>,
        expected: Vec<u64>,
    }

    /// Shared per-run context: a claim counter (total tiles executed,
    /// whoever ran them) and busy-work so runs overlap the churn.
    struct Tile {
        claims: AtomicU64,
        spin: u64,
    }

    fn tile_task(ctx: &Tile, i: usize, slot: &mut u64) {
        let mut acc = 0u64;
        for k in 0..ctx.spin {
            acc = acc.wrapping_add(k ^ i as u64);
        }
        std::hint::black_box(acc);
        ctx.claims.fetch_add(1, Ordering::Relaxed);
        *slot += 1;
    }

    const ROUNDS: usize = 8;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn churned_shards_claim_every_tile_exactly_once(
            threads_sel in 0usize..4,
            n_shards in 2usize..9,
            seed in any::<u64>(),
        ) {
            let threads = [1usize, 2, 3, 4][threads_sel];
            let pool = Arc::new(ThreadPool::new(threads));
            let mut rng = Decide(seed ^ 0x0DD0_FEED_BEEF_CAFE);
            let mut shards: Vec<Shard> = (0..n_shards)
                .map(|_| {
                    let tiles = 1 + rng.below(24);
                    Shard {
                        job: ThreadPool::register(&pool),
                        slots: vec![0u64; tiles],
                        expected: vec![0u64; tiles],
                    }
                })
                .collect();
            let steal_floor = pool.steal_count();

            for round in 0..ROUNDS {
                // Which shards run this round, and the round's contexts.
                let started: Vec<bool> =
                    (0..shards.len()).map(|_| rng.chance(85)).collect();
                let ctxs: Vec<Tile> = (0..shards.len())
                    .map(|_| Tile {
                        claims: AtomicU64::new(0),
                        spin: rng.next() % 300,
                    })
                    .collect();

                // Start phase: every chosen shard's frame goes in flight
                // before any is resolved.
                let mut pendings = Vec::new();
                for (s, shard) in shards.iter_mut().enumerate() {
                    if started[s] {
                        pendings.push((s, shard.job.start(&mut shard.slots, &ctxs[s], tile_task)));
                    }
                }

                // Resolve in random order, mixing wait and drop-join —
                // the first resolutions complete while later shards'
                // runs are still in flight, so a subsequent detach is a
                // genuine mid-round detach from the pool's perspective.
                rng.shuffle(&mut pendings);
                for (_, pending) in pendings {
                    if rng.chance(50) {
                        let _ = pending.wait();
                    } else {
                        drop(pending);
                    }
                }

                // Exactly-once, per slot and in total, per shard.
                for (s, shard) in shards.iter_mut().enumerate() {
                    if !started[s] {
                        continue;
                    }
                    for e in shard.expected.iter_mut() {
                        *e += 1;
                    }
                    prop_assert_eq!(&shard.slots, &shard.expected, "round {} shard {}", round, s);
                    prop_assert_eq!(
                        ctxs[s].claims.load(Ordering::Relaxed) as usize,
                        shard.slots.len(),
                        "round {} shard {}: claim total",
                        round,
                        s
                    );
                }

                // Churn phase: detach one shard (drop its handle — its
                // run already joined above), maybe attach a fresh one.
                if shards.len() > 2 && rng.chance(45) {
                    let victim = rng.below(shards.len());
                    let gone = shards.remove(victim);
                    drop(gone); // retires its arena slot
                }
                if shards.len() < 8 && rng.chance(45) {
                    let tiles = 1 + rng.below(24);
                    shards.push(Shard {
                        job: ThreadPool::register(&pool),
                        slots: vec![0u64; tiles],
                        expected: vec![0u64; tiles],
                    });
                }
            }

            // The worker-task count is monotonic, and the pool outlives
            // the whole churn history.
            prop_assert!(pool.steal_count() >= steal_floor);
            let items: Vec<usize> = (0..32).collect();
            let mut probe = vec![0usize; items.len()];
            ThreadPool::register(&pool).run(&mut probe, &|i, s: &mut usize| *s = items[i] + 1);
            prop_assert_eq!(probe, (1..=32).collect::<Vec<_>>());
            for shard in shards.iter_mut() {
                let ctx = Tile { claims: AtomicU64::new(0), spin: 0 };
                shard.job.start(&mut shard.slots, &ctx, tile_task).wait();
                prop_assert_eq!(
                    ctx.claims.load(Ordering::Relaxed) as usize,
                    shard.slots.len()
                );
            }
        }
    }
}

mod pending_interleavings {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;
    use usbf_par::ThreadPool;

    use proptest::prelude::*;

    /// Per-run shared context of one handle's tasks.
    struct TaskCtx {
        /// Task index that panics before touching its slot, if any.
        panic_at: Option<usize>,
        /// Busy-work per task, so in-flight runs genuinely overlap the
        /// driver's own operations.
        spin: u64,
    }

    fn task(ctx: &TaskCtx, i: usize, slot: &mut u64) {
        assert!(ctx.panic_at != Some(i), "interleaving panic");
        let mut acc = 0u64;
        for k in 0..ctx.spin {
            acc = acc.wrapping_add(k ^ i as u64);
        }
        std::hint::black_box(acc);
        *slot += 1;
    }

    /// SplitMix64: the per-round decision stream (distinct from the
    /// shim's case generator, so decisions stay stable if the shim's
    /// draw order changes).
    struct Decide(u64);

    impl Decide {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn chance(&mut self, percent: u64) -> bool {
            self.next() % 100 < percent
        }

        fn shuffle<T>(&mut self, items: &mut [T]) {
            for i in (1..items.len()).rev() {
                items.swap(i, self.below(i + 1));
            }
        }
    }

    /// How one started run is resolved this round.
    #[derive(Clone, Copy, Debug)]
    enum Resolve {
        Wait,
        Drop,
    }

    const HANDLES: usize = 3;
    const ROUNDS: usize = 6;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn random_interleavings_join_deliver_panics_and_leave_the_pool_reusable(
            threads_sel in 0usize..4,
            n0 in 1usize..25,
            n1 in 1usize..25,
            n2 in 1usize..25,
            seed in any::<u64>(),
        ) {
            let threads = [0usize, 1, 2, 4][threads_sel];
            let pool = Arc::new(ThreadPool::new(threads));
            let mut handles: Vec<_> = (0..HANDLES).map(|_| ThreadPool::register(&pool)).collect();
            let sizes = [n0, n1, n2];
            let mut slots: Vec<Vec<u64>> = sizes.iter().map(|&n| vec![0u64; n]).collect();
            let mut expected: Vec<Vec<u64>> = sizes.iter().map(|&n| vec![0u64; n]).collect();
            let mut rng = Decide(seed ^ 0xA5A5_5A5A_D0D0_0D0D);

            for _round in 0..ROUNDS {
                // Decisions first, so context borrows outlive the guards.
                let mut started = [false; HANDLES];
                let mut resolves = [Resolve::Wait; HANDLES];
                let mut ctxs = Vec::with_capacity(HANDLES);
                for h in 0..HANDLES {
                    started[h] = rng.chance(80);
                    resolves[h] = if rng.chance(70) { Resolve::Wait } else { Resolve::Drop };
                    let panic_at = rng.chance(30).then(|| rng.below(sizes[h]));
                    ctxs.push(TaskCtx { panic_at, spin: rng.next() % 400 });
                }

                // Start phase: every chosen handle's run goes in flight
                // before any is polled or resolved.
                let mut pendings = Vec::with_capacity(HANDLES);
                for ((handle, slot_vec), (h, ctx)) in handles
                    .iter_mut()
                    .zip(slots.iter_mut())
                    .zip(ctxs.iter().enumerate())
                {
                    if started[h] {
                        pendings.push((h, handle.start(slot_vec, ctx, task)));
                    }
                }

                // Poll phase: try_wait in random order; a true result
                // must be sticky.
                for _ in 0..rng.below(8) {
                    if pendings.is_empty() {
                        break;
                    }
                    let (_, pending) = &pendings[rng.below(pendings.len())];
                    if pending.try_wait() {
                        prop_assert!(pending.try_wait(), "try_wait must be monotonic");
                    }
                }

                // Resolve phase: wait or drop, in random order.
                rng.shuffle(&mut pendings);
                for (h, pending) in pendings {
                    let panicking = ctxs[h].panic_at.is_some();
                    match resolves[h] {
                        Resolve::Wait => {
                            let unwound = catch_unwind(AssertUnwindSafe(|| {
                                let _ = pending.wait();
                            }))
                            .is_err();
                            prop_assert_eq!(
                                unwound,
                                panicking,
                                "wait must unwind exactly for panic-mid-flight runs (handle {})",
                                h
                            );
                        }
                        Resolve::Drop => drop(pending), // joins, never unwinds
                    }
                }

                // Every resolution path joined: slot effects are fully
                // visible now, whatever the interleaving was.
                for h in 0..HANDLES {
                    if !started[h] {
                        continue;
                    }
                    for (i, e) in expected[h].iter_mut().enumerate() {
                        if ctxs[h].panic_at != Some(i) {
                            *e += 1;
                        }
                    }
                }
                prop_assert_eq!(&slots, &expected, "threads {}", threads);
            }

            // The pool and every handle survive the whole history.
            let items: Vec<usize> = (0..32).collect();
            let mut probe = vec![0usize; items.len()];
            ThreadPool::register(&pool).run(&mut probe, &|i, s: &mut usize| *s = items[i] + 1);
            prop_assert_eq!(probe, (1..=32).collect::<Vec<_>>());
            for (h, handle) in handles.iter_mut().enumerate() {
                let ctx = TaskCtx { panic_at: None, spin: 0 };
                handle.start(&mut slots[h], &ctx, task).wait();
                for (i, e) in expected[h].iter_mut().enumerate() {
                    *e += 1;
                    prop_assert_eq!(slots[h][i], *e, "handle {} slot {}", h, i);
                }
            }
        }
    }
}
