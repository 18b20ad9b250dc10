//! Steady-state allocation stability of the replay hot loop: once the
//! simulator's scratch buffers (appointment books, retry lists, wheel
//! overflow, store index) have warmed up, running *more instructions*
//! must not allocate proportionally more. A per-cycle or per-instruction
//! allocation in the busy loop shows up here as an allocation count that
//! scales with trace length — the regression this test exists to catch.
//!
//! The whole test binary runs under a counting `#[global_allocator]`;
//! each measurement replays a pre-collected entry slice so capture-side
//! allocations stay outside the measured window. The count is per thread:
//! the test harness runs tests on parallel threads, and one test's
//! allocations must not land in another's measured window.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use arl_asm::{Program, ProgramBuilder, Provenance};
use arl_isa::Gpr;
use arl_sim::{EntrySliceSource, Machine, TraceEntry, TraceSource};
use arl_timing::{
    BackendConfig, CoreMode, MachineConfig, NullProbe, Probe, Recorder, TimingRun, TimingSim,
};

struct CountingAlloc;

thread_local! {
    // `const`-initialized and drop-free, so the allocator can touch it
    // without allocating or re-entering itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` fails only during thread teardown; those allocations
    // belong to no measurement.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A mixed ALU/load/store loop body — enough memory traffic to keep the
/// store index, LSQ/LVAQ queues, and write buffer all occupied.
fn looped_program(iters: i64) -> Program {
    let mut pb = ProgramBuilder::new();
    let g = pb.global_zeroed("arr", 64 * 8);
    let mut f = arl_asm::FunctionBuilder::new("main");
    let slot = f.local(8);
    f.li(Gpr::S0, 0);
    f.li(Gpr::S1, iters);
    let top = f.new_label();
    let done = f.new_label();
    f.bind(top);
    f.br(arl_isa::BranchCond::Ge, Gpr::S0, Gpr::S1, done);
    f.la_global(Gpr::T9, g);
    f.load_ptr(Gpr::T0, Gpr::T9, 0, Provenance::StaticVar);
    f.add(Gpr::T1, Gpr::T0, Gpr::S0);
    f.store_ptr(Gpr::T1, Gpr::T9, 8, Provenance::StaticVar);
    f.store_local(Gpr::T1, slot, 0);
    f.load_local(Gpr::T2, slot, 0);
    f.add(Gpr::T3, Gpr::T2, Gpr::T1);
    f.addi(Gpr::S0, Gpr::S0, 1);
    f.j(top);
    f.bind(done);
    pb.add_function(f);
    pb.link("main").expect("program links")
}

/// Collects the full entry stream of `program` by running the functional
/// machine as a `TraceSource`.
fn collect_entries(program: &Program) -> Vec<TraceEntry> {
    let mut machine = Machine::new(program);
    let mut entries = Vec::new();
    while let Some(e) = machine.next_entry().expect("functional execution") {
        entries.push(e);
    }
    entries
}

/// Allocations performed while replaying `entries` through a fresh sim.
fn allocs_for(entries: &[TraceEntry], config: &MachineConfig) -> u64 {
    let before = allocations();
    let stats = TimingSim::run_trace(entries, config);
    assert_eq!(stats.instructions, entries.len() as u64);
    allocations() - before
}

/// Replay allocation counts must be (near-)independent of trace length:
/// the short and 4x-longer replays may differ only by the handful of
/// amortized-doubling growths of bounded scratch structures, never by
/// anything proportional to the extra ~30k instructions.
#[test]
fn hot_loop_allocations_do_not_scale_with_trace_length() {
    let short = collect_entries(&looped_program(1_000));
    let long = collect_entries(&looped_program(4_000));
    assert!(long.len() > 3 * short.len());

    for (name, config) in [
        ("decoupled", MachineConfig::decoupled(2, 2)),
        ("conventional", MachineConfig::conventional(2, 2)),
    ] {
        let mut config = config;
        config.core = CoreMode::Event;
        // Warm-up run so lazily initialized process state (stdio locks,
        // thread-local buffers) does not pollute the measurement.
        let _ = allocs_for(&short, &config);
        let a_short = allocs_for(&short, &config);
        let a_long = allocs_for(&long, &config);
        // Each run pays the same fixed construction cost (ROB, books,
        // wheel, index maps). The longer run may add a few extra capacity
        // doublings; 64 is orders of magnitude below any per-instruction
        // or per-cycle leak (~30k instructions / ~40k cycles of headroom).
        assert!(
            a_long <= a_short + 64,
            "{name}: replaying 4x the instructions cost {a_long} allocations \
             vs {a_short} — the hot loop is allocating per cycle"
        );
    }
}

/// The same stability bound holds for the legacy core since its
/// memory-stage action list moved into persistent scratch.
#[test]
fn legacy_hot_loop_allocations_do_not_scale_with_trace_length() {
    let short = collect_entries(&looped_program(1_000));
    let long = collect_entries(&looped_program(4_000));

    let mut config = MachineConfig::decoupled(2, 2);
    config.core = CoreMode::Legacy;
    let _ = allocs_for(&short, &config);
    let a_short = allocs_for(&short, &config);
    let a_long = allocs_for(&long, &config);
    assert!(
        a_long <= a_short + 64,
        "legacy: replaying 4x the instructions cost {a_long} allocations \
         vs {a_short} — the memory-stage scratch hoist regressed"
    );
}

/// Allocations performed while replaying `entries` through one fresh
/// [`TimingRun`] per config in lock-step, each watched by its own
/// `probe()`: every chunk is copied once into a reused buffer (standing
/// in for the decoder) and fed to each run. The chunk is small so the
/// 4x-longer trace takes ~100 more rounds: an allocation per round or per
/// `feed` then overshoots the bound.
fn allocs_for_fanned<P: Probe>(
    entries: &[TraceEntry],
    configs: &[MachineConfig],
    probe: fn() -> P,
) -> u64 {
    const CHUNK: usize = 256;
    let before = allocations();
    let mut runs: Vec<TimingRun<P>> = configs
        .iter()
        .map(|config| TimingRun::new(config, probe()))
        .collect();
    let mut chunk: Vec<TraceEntry> = Vec::with_capacity(CHUNK);
    for window in entries.chunks(CHUNK) {
        chunk.clear();
        chunk.extend_from_slice(window);
        for run in &mut runs {
            run.feed(&mut EntrySliceSource::new(&chunk)).unwrap();
        }
    }
    for run in runs {
        let (stats, _) = run.finish();
        assert_eq!(stats.instructions, entries.len() as u64);
    }
    allocations() - before
}

/// A lock-step fan-out over several configs keeps the same stability on
/// both cores: the chunk buffer and every run's machine are reused across
/// chunks, so 4x the instructions may add only bounded scratch growths.
#[test]
fn fanned_runs_allocations_do_not_scale_with_trace_length() {
    let short = collect_entries(&looped_program(1_000));
    let long = collect_entries(&looped_program(4_000));
    assert!(long.len() > 3 * short.len());

    for core in [CoreMode::Event, CoreMode::Legacy] {
        let configs: Vec<MachineConfig> = [
            MachineConfig::decoupled(2, 2),
            MachineConfig::conventional(2, 2),
            MachineConfig::decoupled(3, 3),
        ]
        .into_iter()
        .map(|mut config| {
            config.core = core;
            config
        })
        .collect();
        let _ = allocs_for_fanned(&short, &configs, || NullProbe);
        let a_short = allocs_for_fanned(&short, &configs, || NullProbe);
        let a_long = allocs_for_fanned(&long, &configs, || NullProbe);
        assert!(
            a_long <= a_short + 64,
            "{core:?}: fanning 4x the instructions over {} configs cost {a_long} \
             allocations vs {a_short} — the lock-step loop is allocating per chunk",
            configs.len()
        );
    }
}

/// The backend sweep's shape keeps the same stability: the (3+3) machine
/// fanned over every memory backend, each run with its own `Recorder`, so
/// neither the backends' device state nor the probe's accounting may
/// allocate per chunk or per cycle.
#[test]
fn probed_backend_fanned_runs_allocations_do_not_scale_with_trace_length() {
    let short = collect_entries(&looped_program(1_000));
    let long = collect_entries(&looped_program(4_000));
    assert!(long.len() > 3 * short.len());

    for core in [CoreMode::Event, CoreMode::Legacy] {
        let mut machine = MachineConfig::decoupled(3, 3);
        machine.core = core;
        let configs: Vec<MachineConfig> = BackendConfig::ALL
            .iter()
            .map(|&backend| machine.clone().with_backend(backend))
            .collect();
        let _ = allocs_for_fanned(&short, &configs, Recorder::new);
        let a_short = allocs_for_fanned(&short, &configs, Recorder::new);
        let a_long = allocs_for_fanned(&long, &configs, Recorder::new);
        assert!(
            a_long <= a_short + 64,
            "{core:?}: fanning 4x the instructions over {} probed backends cost \
             {a_long} allocations vs {a_short} — a backend or the probe is \
             allocating per chunk",
            configs.len()
        );
    }
}
