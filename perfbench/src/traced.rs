//! The traced run: one single-threaded pass that times calls into each
//! layer's public functions and derives the per-layer metrics.
//!
//! Per sampled program it calls, in order: `Machine::run` (execute),
//! `arl_trace::capture` (execute + encode), `arl_bench::capture_trace`
//! (the experiments' capture: execute + encode + compiled section), a
//! `Replayer` drain (decode), one `Evaluator::consume` per Figure 4
//! scheme (decode + predict), `TimingSim::run_trace` on pre-decoded
//! chunks for the workload's machine configs, for (3+3) on every memory
//! backend and probed, and `TimingSim::run_source` for (3+3) (decode +
//! core, as the experiments call it). The differences between those calls
//! give the per-layer costs.

use std::path::Path;
use std::time::Instant;

use arl_asm::Program;
use arl_bench::INST_CAP;
use arl_core::{EvalConfig, Evaluator};
use arl_sim::{Machine, TraceEntry, TraceSource};
use arl_stats::Json;
use arl_timing::{BackendConfig, MachineConfig, Recorder, TimingSim};
use arl_trace::{fnv1a64, Replayer, Trace};
use arl_workloads::{Scale, WorkloadSpec};

use crate::check::Cell;
use crate::cli::Workload;
use crate::experiment;
use crate::ledger::{Ledger, OTHER};

/// Pre-decoded entries per `run_trace` call: bounds the traced run's
/// memory (an entry is ~100 bytes) while each call still simulates enough
/// instructions that pipeline fill and drain are noise. Each chunk starts
/// the simulated machine cold, so `timing.sim_cycles` counts the chunked
/// runs, not whole-program runs.
const CHUNK: usize = 1 << 20;

/// Render/write repetitions; both calls take milliseconds.
const WRITE_REPS: usize = 5;

/// The machine the single-config timing metrics use: the paper's (3+3).
fn split_machine() -> MachineConfig {
    MachineConfig::decoupled(3, 3)
}

/// Programs the traced run measures layer by layer. The whole suite
/// would take minutes single-threaded; gcc (the longest, the Figure 8
/// straggler), compress (integer, high locality) and tomcatv (FP) span
/// the suite's behaviour. The backend sweep runs only its own three.
fn sample(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::Figure8 | Workload::Figure4 => &["gcc", "compress", "tomcatv"],
        Workload::BackendsProbed => &["compress", "go", "tomcatv"],
    }
}

/// Machine configs whose `run_trace` cost is `timing.core_ns_per_inst`:
/// the ones the workload's experiment simulates ((3+3) for Figure 4,
/// which simulates none, so its figure shows the core left unchanged).
fn timing_configs(w: Workload) -> Vec<MachineConfig> {
    match w {
        Workload::Figure8 => MachineConfig::figure8_suite(),
        Workload::Figure4 => vec![split_machine()],
        Workload::BackendsProbed => vec![MachineConfig::baseline_2_0(), split_machine()],
    }
}

/// Visit order of the sampled programs: a seeded Fisher-Yates shuffle,
/// so no program always runs on a cold or warm host cache.
fn visit_order(len: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    for i in (1..len).rev() {
        // xorshift64*: deterministic and dependency-free.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let r = state.wrapping_mul(0x2545_f491_4f6c_dd1d);
        order.swap(i, (r % (i as u64 + 1)) as usize);
    }
    order
}

/// What the traced pass measured besides span times.
#[derive(Default)]
struct Counts {
    /// Instructions executed per sampled program, summed.
    insts: u64,
    /// Trace container bytes and events of the experiments' captures.
    trace_bytes: u64,
    trace_events: u64,
    /// Simulated cycles of the `run_trace` config runs.
    cycles: u64,
}

/// The traced pass's results.
pub struct Traced {
    pub ledger: Ledger,
    /// Thread CPU seconds of the whole pass.
    pub cpu_s: f64,
    /// Per-layer metric values, by catalog name (runner and ledger
    /// metrics are added by the caller).
    pub metrics: Vec<(String, f64)>,
    /// `SimStats` / `PredictionStats` fingerprints, checked against the
    /// reference.
    pub stats: Vec<Cell>,
    /// Straggler cell seconds measured here, when the experiment reports
    /// no per-cell times.
    pub max_cell_s: Option<f64>,
}

/// Runs the traced pass for `w`. `doc` is the experiment's JSON document
/// (rendered and durably written into `tmp` to time the report and sink
/// layers).
///
/// # Panics
///
/// Panics if a program fails to execute or replay — the library's
/// programs are deterministic, so that is a defect in the program under
/// test.
pub fn run(w: Workload, scale: Scale, seed: u64, doc: &Json, tmp: &Path) -> Traced {
    let specs = experiment::programs(w);
    let mut counts = Counts::default();
    let mut stats = Vec::new();
    let mut ledger = Ledger::new();
    // The durable write blocks in fsync, which the thread CPU clock does
    // not see, so `sink.write_s` is also timed on the wall clock.
    let mut write_wall_s = 0.0;
    ledger.span(OTHER, "traced_run", |l| {
        let programs: Vec<Program> = specs
            .iter()
            .map(|spec| l.span("workloads", "build", |_| spec.build(scale)))
            .collect();
        let picked: Vec<usize> = sample(w)
            .iter()
            .map(|name| {
                specs
                    .iter()
                    .position(|s| s.name == *name)
                    .expect("sampled programs belong to the workload")
            })
            .collect();
        for i in visit_order(picked.len(), seed) {
            let at = picked[i];
            l.span(OTHER, "program", |l| {
                measure_program(l, w, &specs[at], &programs[at], &mut counts, &mut stats)
            });
        }
        let path = tmp.join("BENCH_traced.json");
        for _ in 0..WRITE_REPS {
            let text = l.span("stats", "render", |_| doc.render());
            l.span("sink", "durable_write", |_| {
                let t0 = Instant::now();
                let written = arl_sink::durable_write(&path, text.as_bytes());
                write_wall_s += t0.elapsed().as_secs_f64();
                written
            })
            .unwrap_or_else(|e| panic!("durable write into {} failed: {e}", tmp.display()));
        }
    });

    let t = |layer: &str, name: &str| ledger.total_s(layer, name);
    let per_inst = |seconds: f64| seconds * 1e9 / counts.insts as f64;
    let schemes = EvalConfig::figure4_schemes().len() as f64;
    let configs = timing_configs(w).len() as f64;
    let run_trace = t("timing", "run_trace");
    let mut metrics = vec![
        ("workloads.build_s".to_string(), t("workloads", "build")),
        (
            "sim.execute_ns_per_inst".into(),
            per_inst(t("sim", "execute")),
        ),
        (
            "trace.encode_ns_per_inst".into(),
            per_inst(t("trace", "capture_plain") - t("sim", "execute")),
        ),
        (
            "trace.compile_ns_per_inst".into(),
            per_inst(t("trace", "capture") - t("trace", "capture_plain")),
        ),
        (
            "trace.bytes_per_inst".into(),
            counts.trace_bytes as f64 / counts.trace_events as f64,
        ),
        (
            "trace.decode_ns_per_inst".into(),
            per_inst(t("trace", "decode")),
        ),
        (
            "core.predict_ns_per_inst".into(),
            per_inst(t("core", "evaluate") / schemes - t("trace", "decode")),
        ),
        (
            "timing.core_ns_per_inst".into(),
            per_inst(run_trace) / configs,
        ),
        (
            "timing.core_ns_per_cycle".into(),
            run_trace * 1e9 / counts.cycles as f64,
        ),
        (
            "timing.replay_ns_per_inst".into(),
            per_inst(t("timing", "run_source")),
        ),
        (
            "timing.probe_ns_per_inst".into(),
            per_inst(
                t("timing", "run_trace_probed")
                    - t("timing", &backend_span(BackendConfig::Baseline)),
            ),
        ),
    ];
    for backend in BackendConfig::ALL {
        metrics.push((
            format!("timing.backend_ns_per_inst.{}", backend.label()),
            per_inst(t("timing", &backend_span(backend))),
        ));
    }
    metrics.push(("timing.sim_cycles".into(), counts.cycles as f64));
    metrics.push((
        "report.render_s".into(),
        t("stats", "render") / WRITE_REPS as f64,
    ));
    metrics.push(("sink.write_s".into(), write_wall_s / WRITE_REPS as f64));
    let cpu_s = t(OTHER, "traced_run");
    let max_cell_s = (w == Workload::BackendsProbed).then(|| ledger.max_s("timing", "probed_cell"));
    Traced {
        ledger,
        cpu_s,
        metrics,
        stats,
        max_cell_s,
    }
}

fn backend_span(backend: BackendConfig) -> String {
    format!("run_trace@{}", backend.label())
}

/// Decodes up to `n` entries.
fn take(source: &mut Replayer<'_>, n: usize) -> Vec<TraceEntry> {
    let mut chunk = Vec::with_capacity(n.min(source.remaining() as usize));
    while chunk.len() < n {
        match source.next_entry().expect("captured traces replay cleanly") {
            Some(entry) => chunk.push(entry),
            None => break,
        }
    }
    chunk
}

fn replayer<'a>(trace: &'a Trace, program: &'a Program) -> Replayer<'a> {
    Replayer::new(trace, program).expect("captured traces are accepted")
}

fn measure_program(
    l: &mut Ledger,
    w: Workload,
    spec: &WorkloadSpec,
    program: &Program,
    counts: &mut Counts,
    stats: &mut Vec<Cell>,
) {
    let name = spec.name;
    let retired = l.span("sim", "execute", |_| {
        let mut machine = Machine::new(program);
        let outcome = machine
            .run(INST_CAP)
            .unwrap_or_else(|e| panic!("{name} failed to execute: {e}"));
        assert!(outcome.exited, "{name} exceeded the instruction cap");
        machine.retired()
    });
    counts.insts += retired;
    drop(l.span("trace", "capture_plain", |_| {
        arl_trace::capture(program, INST_CAP).unwrap_or_else(|e| panic!("{name}: {e}"))
    }));
    let trace = l.span("trace", "capture", |_| {
        arl_bench::capture_trace(program, name)
    });
    counts.trace_bytes += trace.as_bytes().len() as u64;
    counts.trace_events += trace.event_count();

    let decoded = l.span("trace", "decode", |_| {
        let mut source = replayer(&trace, program);
        let mut n = 0u64;
        while source
            .next_entry()
            .expect("captured traces replay cleanly")
            .is_some()
        {
            n += 1;
        }
        n
    });
    assert_eq!(
        decoded, retired,
        "{name}: replay length differs from execution"
    );

    for (label, config) in EvalConfig::figure4_schemes() {
        let result = l.span("core", "evaluate", |_| {
            let mut source = replayer(&trace, program);
            let mut evaluator = Evaluator::new(config);
            evaluator
                .consume(&mut source)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            *evaluator.stats()
        });
        stats.push(Cell {
            label: format!("{name}/{label}"),
            digest: fnv1a64(format!("{result:?}").as_bytes()),
            sound: true,
        });
    }

    let configs = timing_configs(w);
    let split = split_machine();
    let mut source = replayer(&trace, program);
    loop {
        let chunk = l.span("trace", "decode_chunk", |_| take(&mut source, CHUNK));
        if chunk.is_empty() {
            break;
        }
        for config in &configs {
            let run = l.span("timing", "run_trace", |_| {
                TimingSim::run_trace(&chunk, config)
            });
            counts.cycles += run.cycles;
        }
        for backend in BackendConfig::ALL {
            let config = split.clone().with_backend(backend);
            l.span("timing", backend_span(backend), |_| {
                TimingSim::run_trace(&chunk, &config)
            });
        }
        l.span("timing", "run_trace_probed", |_| {
            TimingSim::run_trace_probed(&chunk, &split, Recorder::new())
        });
    }

    let replayed = l.span("timing", "run_source", |_| {
        TimingSim::run_source(&mut replayer(&trace, program), &split)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
    });
    stats.push(Cell {
        label: format!("{name}/{}", split.name),
        digest: arl_bench::stats_fingerprint(&replayed),
        sound: replayed.instructions == retired,
    });

    if w == Workload::BackendsProbed {
        // The sweep's slowest machine; `backends_bench` times no cells.
        let base = MachineConfig::baseline_2_0();
        let (cell, recorder) = l.span("timing", "probed_cell", |_| {
            arl_bench::timing_trace_probed(program, &trace, name, &base)
        });
        stats.push(Cell {
            label: format!("{name}/{}/probed", base.name),
            digest: arl_bench::stats_fingerprint(&cell),
            sound: recorder.useful_cycles() + recorder.total_stall_cycles() == cell.cycles,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visit_order_is_a_seeded_permutation() {
        for seed in 0..20 {
            let mut order = visit_order(3, seed);
            assert_eq!(order, visit_order(3, seed), "same seed, same order");
            order.sort_unstable();
            assert_eq!(order, [0, 1, 2]);
        }
        let distinct: std::collections::BTreeSet<Vec<usize>> =
            (0..20).map(|seed| visit_order(3, seed)).collect();
        assert!(distinct.len() > 1, "seeds change the order");
    }
}
