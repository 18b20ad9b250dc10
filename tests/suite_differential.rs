//! Differential replay tests: the execute-once/replay-many pipeline must
//! be observationally identical to live functional execution.
//!
//! For every suite workload, a captured trace replayed through the
//! predictor evaluator and the cycle-level timing model must reproduce
//! the live run's `Metrics`, `PredictionStats`, and `SimStats`
//! **bit-identically** — not approximately. On top of that, the
//! process-wide functional-instruction counter audits that replay-mode
//! experiments execute each workload exactly once, no matter how many
//! configs they sweep.
//!
//! Every test here serializes on one mutex: the instruction counter is
//! process-global, so counter-sensitive tests must not interleave with
//! other functional executions in this binary.

use std::sync::Mutex;

use arl::core::{Capacity, Context, EvalConfig, Evaluator, HintTable, PredictorKind};
use arl::sim::{
    functional_instructions_executed, Machine, RegionProfiler, TraceEntry, TraceSource,
};
use arl::stats::Json;
use arl::timing::{BackendConfig, CoreMode, MachineConfig, SimStats, TimingSim};
use arl::trace::{capture, capture_compiled, capture_with, Replayer};
use arl::workloads::{suite, workload, Scale};
use arl_bench::{
    ablation_twobit_schemes, backends_bench, evaluate_trace, evaluate_trace_schemes,
    figure5_schemes, table3_schemes, timing_trace_fanned, timing_trace_fanned_probed_chunked,
    timing_trace_probed, ExperimentOptions, ExperimentRun, FannedTiming, TraceMode,
};

static SERIAL: Mutex<()> = Mutex::new(());

type Experiment = fn(&ExperimentOptions) -> ExperimentRun;

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const CAP: u64 = 200_000_000;

#[test]
fn replayed_entry_stream_is_bit_identical_for_every_workload() {
    let _guard = lock();
    for spec in suite() {
        let program = spec.build(Scale::tiny());
        let trace = capture(&program, CAP).expect("capture");

        let mut live_entries: Vec<TraceEntry> = Vec::new();
        let mut machine = Machine::new(&program);
        machine
            .run_with(CAP, |e| live_entries.push(*e))
            .expect("live run");

        let mut replayer = Replayer::new(&trace, &program).expect("replayer");
        let mut replayed_entries: Vec<TraceEntry> = Vec::new();
        while let Some(entry) = replayer.next_entry().expect("replay") {
            replayed_entries.push(entry);
        }

        assert_eq!(
            live_entries.len(),
            replayed_entries.len(),
            "{}: entry count",
            spec.name
        );
        for (i, (live, replayed)) in live_entries.iter().zip(&replayed_entries).enumerate() {
            assert_eq!(live, replayed, "{}: entry {i} diverged", spec.name);
        }
        assert_eq!(
            machine.metrics(),
            replayer.metrics(),
            "{}: end-of-run metrics",
            spec.name
        );
    }
}

#[test]
fn replayed_predictor_stats_are_bit_identical_for_every_workload() {
    let _guard = lock();
    let config = EvalConfig {
        kind: PredictorKind::OneBit,
        context: Context::HYBRID_8_24,
        capacity: Capacity::Entries(1 << 14),
        hints: None,
    };
    for spec in suite() {
        let program = spec.build(Scale::tiny());
        let trace = capture(&program, CAP).expect("capture");

        let mut live = Evaluator::new(config.clone());
        let mut machine = Machine::new(&program);
        machine
            .run_with(CAP, |e| live.observe(e))
            .expect("live run");

        let mut replayed = Evaluator::new(config.clone());
        let mut replayer = Replayer::new(&trace, &program).expect("replayer");
        replayed.consume(&mut replayer).expect("replay");

        assert_eq!(
            live.stats(),
            replayed.stats(),
            "{}: ARPT prediction stats diverged",
            spec.name
        );
        assert_eq!(
            live.arpt_occupied(),
            replayed.arpt_occupied(),
            "{}: ARPT occupancy diverged",
            spec.name
        );
    }
}

/// The prediction experiments' fan-out: one replay pass over a plain
/// capture feeding every scheme must equal one separate replay per scheme
/// over a compiled capture, for every experiment's scheme set.
#[test]
fn fanned_out_scheme_evaluation_matches_separate_replays() {
    let _guard = lock();
    fn configs<L>(schemes: Vec<(L, EvalConfig)>) -> Vec<EvalConfig> {
        schemes.into_iter().map(|(_, config)| config).collect()
    }
    for spec in suite() {
        let program = spec.build(Scale::tiny());
        let mut profiler = RegionProfiler::new();
        let plain = capture_with(&program, CAP, |e| profiler.observe(e)).expect("plain capture");
        let compiled = capture_compiled(&program, CAP, 0).expect("compiled capture");
        assert!(!plain.has_model() && compiled.has_model());
        let hints = HintTable::from_profile(&profiler);
        let sets = [
            ("figure4", configs(EvalConfig::figure4_schemes())),
            ("table3", configs(table3_schemes())),
            ("ablation_twobit", configs(ablation_twobit_schemes())),
            ("figure5", configs(figure5_schemes(&hints))),
        ];
        for (set, configs) in &sets {
            let fanned = evaluate_trace_schemes(&program, &plain, spec.name, configs);
            assert_eq!(fanned.len(), configs.len(), "{}/{set}: reports", spec.name);
            for (si, (config, fan)) in configs.iter().zip(&fanned).enumerate() {
                let single = evaluate_trace(&program, &compiled, spec.name, config.clone());
                let cell = format!("{}/{set} scheme {si}", spec.name);
                assert_eq!(fan.stats, single.stats, "{cell}: stats");
                assert_eq!(fan.arpt_occupied, single.arpt_occupied, "{cell}: ARPT");
                assert_eq!(fan.metrics, single.metrics, "{cell}: metrics");
            }
        }
    }
}

/// Bounds that hold for any correct machine model, whatever produced the
/// numbers: a recovery repairs one detected misprediction, a misprediction
/// is found by one region check, and the LVAQ carries a subset of the
/// references.
fn assert_stats_bounds(stats: &SimStats, cell: &str) {
    assert!(
        stats.recoveries <= stats.region_mispredicts,
        "{cell}: {} recoveries for {} mispredictions",
        stats.recoveries,
        stats.region_mispredicts
    );
    assert!(
        stats.region_mispredicts <= stats.region_checks,
        "{cell}: {} mispredictions from {} checks",
        stats.region_mispredicts,
        stats.region_checks
    );
    assert!(
        stats.lvaq_refs <= stats.mem_refs,
        "{cell}: {} LVAQ references of {} in total",
        stats.lvaq_refs,
        stats.mem_refs
    );
}

/// The timing experiments' fan-out: one lock-step replay over a plain
/// capture feeding every Figure 8 config must equal one separate replay
/// per config over a compiled capture — stats and probe output, on both
/// cores, whether the runs are cut at every entry, at odd offsets, or at
/// the production chunk size.
#[test]
fn fanned_out_timing_matches_separate_replays() {
    let _guard = lock();
    let specs = suite();
    // Two workers over the programs; each program is checked whole.
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { break };
                let program = spec.build(Scale::tiny());
                let plain = capture(&program, CAP).expect("plain capture");
                let compiled = capture_compiled(&program, CAP, 0).expect("compiled capture");
                for core in [CoreMode::Event, CoreMode::Legacy] {
                    let configs: Vec<MachineConfig> = MachineConfig::figure8_suite()
                        .into_iter()
                        .map(|mut c| {
                            c.core = core;
                            c
                        })
                        .collect();
                    let separate: Vec<(SimStats, String)> = configs
                        .iter()
                        .map(|c| {
                            let (stats, rec) =
                                timing_trace_probed(&program, &compiled, spec.name, c);
                            (stats, rec.to_json().render())
                        })
                        .collect();
                    for chunk in [1, 7, 4096] {
                        let probed = timing_trace_fanned_probed_chunked(
                            &program, &plain, spec.name, &configs, chunk,
                        );
                        assert_eq!(probed.len(), configs.len());
                        for (ci, (stats, json)) in separate.iter().enumerate() {
                            let cell = format!(
                                "{}/{}/{core:?}/chunk {chunk}",
                                spec.name, configs[ci].name
                            );
                            assert_eq!(&probed[ci].stats, stats, "{cell}: probed stats");
                            assert_eq!(
                                &probed[ci].probe.to_json().render(),
                                json,
                                "{cell}: probe output"
                            );
                            assert_stats_bounds(&probed[ci].stats, &cell);
                        }
                    }
                    // The unprobed build of the run loop, at the chunk size
                    // the experiments use.
                    let unprobed = timing_trace_fanned(&program, &plain, spec.name, &configs);
                    for (ci, (stats, _)) in separate.iter().enumerate() {
                        let cell = format!("{}/{}/{core:?}", spec.name, configs[ci].name);
                        assert_eq!(&unprobed[ci].stats, stats, "{cell}: unprobed stats");
                    }
                }
            });
        }
    });
}

/// The backend sweep's fan-out: one lock-step replay over a plain capture
/// feeding a machine on every memory backend must equal one separate
/// probed replay per backend over a compiled capture — stats and probe
/// output, on both cores, at every cut — and every cell must keep the
/// implementation-independent bounds, stall conservation included. The
/// stats include the stacked and burst device counters, and a chunk of 1
/// cuts the runs between every pair of entries, so device state lost
/// across a `feed` boundary shows here.
#[test]
fn fanned_backends_match_separate_replays() {
    let _guard = lock();
    let mut jobs = Vec::new();
    for name in ["compress", "go", "tomcatv"] {
        for core in [CoreMode::Event, CoreMode::Legacy] {
            jobs.push((name, core));
        }
    }
    // Two workers over the (program, core) pairs; each pair is checked
    // whole.
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(&(name, core)) = jobs.get(i) else {
                    break;
                };
                let program = workload(name).expect("sweep program").build(Scale::tiny());
                let plain = capture(&program, CAP).expect("plain capture");
                let compiled = capture_compiled(&program, CAP, 0).expect("compiled capture");
                for mut machine in [
                    MachineConfig::baseline_2_0(),
                    MachineConfig::decoupled(3, 3),
                ] {
                    machine.core = core;
                    let configs: Vec<MachineConfig> = BackendConfig::ALL
                        .iter()
                        .map(|&backend| machine.clone().with_backend(backend))
                        .collect();
                    let separate: Vec<(SimStats, String)> = configs
                        .iter()
                        .map(|c| {
                            let (stats, rec) = timing_trace_probed(&program, &compiled, name, c);
                            (stats, rec.to_json().render())
                        })
                        .collect();
                    for chunk in [1, 7, 4096] {
                        let fanned = timing_trace_fanned_probed_chunked(
                            &program, &plain, name, &configs, chunk,
                        );
                        assert_eq!(fanned.len(), configs.len());
                        for (ci, (stats, json)) in separate.iter().enumerate() {
                            let cell =
                                format!("{name}/{}/{core:?}/chunk {chunk}", configs[ci].name);
                            let FannedTiming {
                                stats: got, probe, ..
                            } = &fanned[ci];
                            assert_eq!(got, stats, "{cell}: stats");
                            assert_eq!(&probe.to_json().render(), json, "{cell}: probe output");
                            assert_stats_bounds(got, &cell);
                            assert_eq!(probe.cycles(), got.cycles, "{cell}: probed cycles");
                            assert_eq!(
                                probe.useful_cycles() + probe.total_stall_cycles(),
                                got.cycles,
                                "{cell}: useful + stalls"
                            );
                        }
                    }
                }
            });
        }
    });
}

#[test]
fn replayed_timing_stats_are_bit_identical_for_every_workload() {
    let _guard = lock();
    let config = MachineConfig::decoupled(2, 2);
    for spec in suite() {
        let program = spec.build(Scale::tiny());
        let trace = capture(&program, CAP).expect("capture");

        let live = TimingSim::run_program(&program, &config);

        let mut replayer = Replayer::new(&trace, &program).expect("replayer");
        let replayed = TimingSim::run_source(&mut replayer, &config).expect("replay");

        assert_eq!(live, replayed, "{}: SimStats diverged", spec.name);
    }
}

/// Replay-mode experiments — prediction and timing sweeps alike — must
/// execute each workload functionally exactly once, regardless of how
/// many configs the sweep fans out to.
#[test]
fn replay_mode_experiments_execute_each_workload_exactly_once() {
    let _guard = lock();
    let opts = ExperimentOptions::new(Scale::tiny(), 2);
    assert_eq!(opts.trace, TraceMode::Replay);

    // Returns the experiment's run and its captured instruction total,
    // after checking that the functional-instruction counter moved by
    // exactly that total: one capture pass per workload, nothing more.
    let run_once = |name: &str, f: Experiment, opts: &ExperimentOptions| {
        let before = functional_instructions_executed();
        let run = f(opts);
        let executed = functional_instructions_executed() - before;
        let captures: Vec<_> = run
            .report
            .records
            .iter()
            .filter(|r| r.phase == "capture")
            .collect();
        assert_eq!(
            captures.len(),
            suite().len(),
            "{name}: one capture per workload"
        );
        let captured_insts: u64 = captures.iter().map(|r| r.instructions).sum();
        assert!(captured_insts > 0);
        assert_eq!(
            executed, captured_insts,
            "{name} must execute exactly the 12 capture passes and nothing more"
        );
        (run, captured_insts)
    };
    // Prediction sweeps fan schemes out of one pass; timing sweeps feed
    // every machine config from one lock-step pass, probed or not.
    let probed = opts.with_probe(true);
    for (name, f, opts) in [
        ("table3", arl_bench::table3 as Experiment, &opts),
        ("ablation_twobit", arl_bench::ablation_twobit, &opts),
        ("figure5", arl_bench::figure5, &opts),
        ("figure8", arl_bench::figure8, &opts),
        ("ablation_lvc", arl_bench::ablation_lvc, &opts),
        ("figure8_stalls", arl_bench::figure8_stalls, &probed),
    ] {
        let (run, _) = run_once(name, f, opts);
        assert_eq!(run.probe.is_some(), opts.probe, "{name}: probe document");
    }
    let (run, captured_insts) = run_once("figure4", arl_bench::figure4, &opts);

    // The backend sweep records no captures: its rows carry each
    // workload's instruction count once per (backend, machine) cell.
    let before = functional_instructions_executed();
    let backends = backends_bench(&opts);
    let executed = functional_instructions_executed() - before;
    let mut per_workload: Vec<(String, u64)> = Vec::new();
    for row in backends
        .doc
        .get("rows")
        .and_then(Json::as_array)
        .expect("rows")
    {
        let name = row
            .get("workload")
            .and_then(Json::as_str)
            .expect("workload");
        let insts = row
            .get("instructions")
            .and_then(Json::as_u64)
            .expect("instructions");
        match per_workload.iter().find(|(w, _)| w == name) {
            Some(&(_, seen)) => assert_eq!(seen, insts, "{name}: instructions per row"),
            None => per_workload.push((name.to_string(), insts)),
        }
    }
    assert_eq!(per_workload.len(), 3, "backends_bench: sweep workloads");
    assert_eq!(
        executed,
        per_workload.iter().map(|(_, insts)| insts).sum::<u64>(),
        "backends_bench must execute each sweep workload exactly once"
    );

    // The live-mode control: the same sweep re-executes per cell, so it
    // burns one functional pass per scheme.
    let before = functional_instructions_executed();
    let live = arl_bench::figure4(&opts.with_trace(TraceMode::Live));
    let executed_live = functional_instructions_executed() - before;
    let schemes = live.report.records.len() / suite().len();
    assert_eq!(
        executed_live,
        captured_insts * schemes as u64,
        "live figure4 re-executes every workload once per scheme"
    );

    // And the deliverable: both modes emit byte-identical tables.
    assert_eq!(
        run.text, live.text,
        "figure4 replay text must match live text"
    );
}

/// Figure 8 (the paper's headline timing sweep) and the prediction
/// experiments whose replay fans every scheme out of one pass must render
/// byte-identical tables in live and replay modes (figure4 is checked by
/// the execute-once test above).
#[test]
fn live_and_replay_modes_emit_identical_tables() {
    let _guard = lock();
    let opts = ExperimentOptions::new(Scale::tiny(), 2);
    for (name, f) in [
        ("figure8", arl_bench::figure8 as Experiment),
        ("ablation_twobit", arl_bench::ablation_twobit),
        ("table3", arl_bench::table3),
        ("figure5", arl_bench::figure5),
    ] {
        let replay = f(&opts);
        let live = f(&opts.with_trace(TraceMode::Live));
        assert_eq!(
            replay.text, live.text,
            "{name}: replay output must be byte-identical to live"
        );
        // Replay adds one leading capture record per workload; the sweep
        // cells themselves must line up one-to-one.
        let replay_cells: Vec<_> = replay
            .report
            .records
            .iter()
            .filter(|r| r.phase != "capture")
            .collect();
        assert_eq!(replay_cells.len(), live.report.records.len());
        for (r, l) in replay_cells.iter().zip(&live.report.records) {
            assert_eq!(r.workload, l.workload, "{name}: cell order");
            assert_eq!(r.config, l.config, "{name}: cell order");
            assert_eq!(r.instructions, l.instructions, "{name}: instructions");
            assert_eq!(r.cycles, l.cycles, "{name}: cycles");
            assert_eq!(r.accuracy, l.accuracy, "{name}: accuracy");
            assert_eq!(r.peak_rss_bytes, l.peak_rss_bytes, "{name}: peak RSS");
        }
    }
}
