//! Proves the simulate→probe hot path is allocation-free with a counting
//! global allocator.
//!
//! Before the packed-bitmask snapshot, every `bus.step()` heap-allocated
//! three `Vec<bool>`s (hbusreq/hgrant/hsel) — ~3 allocations per cycle,
//! every cycle. These assertions pin the new behaviour:
//!
//! 1. the three probe styles observe pre-recorded snapshots with **zero**
//!    allocations;
//! 2. `bus.step()` itself is **zero**-allocation on write-only traffic
//!    (read completions are recorded into a master-side queue, the one
//!    remaining amortized allocation site);
//! 3. on the full paper testbench the allocation count does not scale with
//!    the cycle count (bounded bookkeeping, not per-cycle garbage).
//!
//! The last phase pins the testbench build: the masters compile the
//! generators' op streams, so building allocates at most once per op and
//! never holds a whole `Vec<Op>` script.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

use ahbpower::{AhbPowerModel, AnalysisConfig, FsmProbe, GlobalProbe, InlineProbe, PowerProbe};
use ahbpower_ahb::{AddressMap, AhbBusBuilder, BusSnapshot, MemorySlave, ScriptedMaster};
use ahbpower_bench::build_paper_bus;
use ahbpower_workloads::try_stream_script;

// One test body: the counter is process-global, so phases run sequentially
// instead of racing with a parallel test-harness sibling.
#[test]
fn hot_path_does_not_allocate_per_cycle() {
    let cfg = AnalysisConfig::paper_testbench();
    let model = AhbPowerModel::new(cfg.n_masters, cfg.n_slaves, &cfg.tech());

    // --- 1. Probes over a pre-recorded trace: exactly zero allocations. ---
    let mut bus = build_paper_bus(10_000, 2003);
    let trace: Vec<BusSnapshot> = (0..10_000).map(|_| *bus.step()).collect();
    let mut inline = InlineProbe::new(model.clone());
    let mut fsm_calib = InlineProbe::new(model.clone());
    for s in &trace {
        fsm_calib.observe(s);
    }
    let mut fsm = FsmProbe::from_calibration(fsm_calib.fsm().ledger());
    let mut global = GlobalProbe::new(model.clone());
    // Warm-up: the inline FSM lazily creates its (bounded, ~7-row)
    // instruction-ledger rows on first sight of each instruction.
    for s in &trace[..2_000] {
        inline.observe(s);
        fsm.observe(s);
        global.observe(s);
    }
    let before = allocations();
    for s in &trace[2_000..] {
        inline.observe(s);
        fsm.observe(s);
        global.observe(s);
    }
    assert_eq!(
        allocations() - before,
        0,
        "probe observe path must not allocate"
    );
    assert!(inline.total_energy() > 0.0);

    // --- 2. bus.step() on write-only traffic: exactly zero allocations. ---
    // (Write bursts only: read completions would grow the master's
    // read-record queue, the one remaining amortized allocation site.)
    let mut bus = AhbBusBuilder::new(AddressMap::evenly_spaced(2, 0x8000))
        .master(Box::new(ScriptedMaster::new(
            try_stream_script(7, 800, 0x0, 2).expect("stream script params valid"),
        )))
        .slave(Box::new(MemorySlave::new(0x8000, 0, 0)))
        .slave(Box::new(MemorySlave::new(0x8000, 0, 0)))
        .build()
        .expect("stream bus builds");
    let mut probe = InlineProbe::new(model);
    // Warm-up covers both the bus pipeline and the probe's lazily created
    // (bounded) instruction-ledger rows.
    for _ in 0..500 {
        probe.observe(bus.step());
    }
    let before = allocations();
    for _ in 0..5_000 {
        probe.observe(bus.step());
    }
    assert_eq!(
        allocations() - before,
        0,
        "bus.step + probe.observe must not allocate on write traffic"
    );

    // --- 3. Paper testbench: allocations are bounded, not per-cycle. ------
    let mut bus = build_paper_bus(50_000, 2003);
    for _ in 0..1_000 {
        bus.step();
    }
    let before = allocations();
    for _ in 0..40_000 {
        bus.step();
    }
    let during = allocations() - before;
    // Read completions grow a per-master queue by doubling: O(log cycles)
    // allocations, vs ~3 *per cycle* (120k here) before the packed snapshot.
    assert!(
        during < 100,
        "paper bus allocated {during} times over 40k cycles — per-cycle garbage is back"
    );

    // --- 4. Structured event ring: the publish path never allocates. ------
    // The ring's slots are pre-allocated atomics; publishing a
    // TxnComplete/EnergyBooked is pure stores. Replays the pre-recorded
    // trace so bus-side allocations cannot leak into the count.
    use ahbpower::telemetry::{EventBus, EventsTap};
    let ring = EventBus::shared(4_096);
    let mut tap = EventsTap::new(std::sync::Arc::clone(&ring), cfg.n_masters, 1_000);
    tap.slice_start(0);
    for s in &trace[..2_000] {
        tap.observe_bus(s);
        tap.observe_energy(1e-9);
    }
    let before = allocations();
    for s in &trace[2_000..] {
        tap.observe_bus(s);
        tap.observe_energy(1e-9);
    }
    assert_eq!(
        allocations() - before,
        0,
        "enabled event publish path must not allocate"
    );
    assert!(ring.published() > 0, "the replay published events");

    // Disabled ring: the tap reduces to a cycle-counter bump plus one
    // cold atomic load — still zero allocations.
    ring.set_enabled(false);
    let before = allocations();
    for s in &trace {
        tap.observe_bus(s);
        tap.observe_energy(1e-9);
    }
    assert_eq!(
        allocations() - before,
        0,
        "disabled event path must not allocate"
    );

    // --- 5. Replay hot loop: zero allocations on a reused outcome. --------
    // The engine's LUTs are built once in `ReplayEngine::new`; the kernel
    // itself is table lookups and adds. With windowed tracing off and the
    // `ReplayOutcome` reused, a second replay of the same trace must not
    // touch the allocator at all.
    use ahbpower::{ReplayEngine, ReplayOutcome};
    use ahbpower_bench::{replay_variant_model, run_paper_experiment_recorded};
    let (run, activity) = run_paper_experiment_recorded(10_000, 2003);
    let engine = ReplayEngine::new(&replay_variant_model(&run.config, 0));
    let mut out = ReplayOutcome::new();
    engine.replay_into(&activity, &mut out); // warm-up (ledger rows etc.)
    let before = allocations();
    engine.replay_into(&activity, &mut out);
    assert_eq!(
        allocations() - before,
        0,
        "replay hot loop must not allocate per cycle"
    );
    assert_eq!(
        out.total_energy().to_bits(),
        run.session.total_energy().to_bits(),
        "the allocation-free replay still reproduces the live total"
    );

    // --- 6. Observatory ingest: zero allocations in steady state. ---------
    // All three retention levels are flat arrays sized at construction;
    // observe_cycle is pure adds and window close folds the sample into
    // pre-allocated slots — including when buckets are evicted (the ring
    // wraps, nothing is freed or grown). Capacity 16 with 1000 windows
    // wraps every level's raw ring many times over.
    use ahbpower::telemetry::{Observatory, ObservatoryConfig};
    use ahbpower::BlockEnergy;
    let mut obs = Observatory::new(
        ObservatoryConfig::default().with_capacity(16),
        cfg.n_masters,
        10,
    );
    let sample = BlockEnergy {
        dec: 1e-12,
        m2s: 2e-12,
        s2m: 3e-12,
        arb: 4e-12,
    };
    let mut txns = 0u64;
    // Warm-up past the first window closes on every level.
    for c in 0..2_000u64 {
        obs.observe_cycle((c % cfg.n_masters as u64) as usize, &sample);
        txns += u64::from(c % 3 == 0);
        obs.close_window_if_due(txns);
    }
    let before = allocations();
    for c in 0..10_000u64 {
        obs.observe_cycle((c % cfg.n_masters as u64) as usize, &sample);
        txns += u64::from(c % 3 == 0);
        obs.close_window_if_due(txns);
    }
    assert_eq!(
        allocations() - before,
        0,
        "observatory ingest must not allocate in steady state"
    );
    assert_eq!(obs.windows_ingested(), 1_200, "every window closed");

    // --- 7. Testbench build: at most one allocation per scripted op. -----
    // Each locked WRITE-READ pair still arrives as one small `Op::Locked`
    // block, freed as soon as it is compiled; everything else is the slot
    // arrays growing by doubling and the bus itself. Holding the scripts
    // as `Vec<Op>`s and flattening each pair through a nested buffer cost
    // about two allocations per pair.
    use ahbpower_workloads::PaperTestbench;
    let tb = PaperTestbench::sized_for(20_000, 2003);
    let ops: usize = tb
        .scripts()
        .expect("paper scripts generate")
        .iter()
        .map(Vec::len)
        .sum();
    let before = allocations();
    let bus = tb.build().expect("paper testbench builds");
    let during = allocations() - before;
    drop(bus);
    assert!(
        during <= ops as u64,
        "building the paper testbench allocated {during} times for {ops} ops"
    );
}
