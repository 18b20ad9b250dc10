//! The memory-backend sweep (`bench_backends` binary).
//!
//! The paper's split-port design wins by multiplying *port* bandwidth in
//! front of a flat 50-cycle memory. Die-stacked DRAM and burst-friendly
//! parts attack the same stall cycles from the other side — by making the
//! misses cheaper — so the interesting question is where the (3+3) split
//! stops paying once the backend improves. This sweep runs every
//! [`BackendConfig`] over a workload subset with both the conventional
//! `(2+0)` machine and the decoupled `(3+3)` machine, always probed, and
//! emits `BENCH_backends.json` (schema [`BACKENDS_SCHEMA`]) with full
//! stall attribution per row plus a per-backend split-port speedup table.
//!
//! Each workload is executed once, as a plain capture. The sweep then runs
//! one pool job per (workload × machine): the job decodes its trace once
//! and feeds that machine on all five backends in lock-step
//! ([`timing_trace_fanned_probed`]), each backend with its own
//! [`Recorder`]. Every cell equals a separate probed replay of its config,
//! and the cells are reassembled by position in (workload, backend,
//! machine) order.

use std::fmt::Write as _;
use std::time::Instant;

use arl_stats::{Json, TableBuilder};
use arl_timing::{BackendConfig, CacheStats, MachineConfig, Recorder, SimStats, StallCause};
use arl_workloads::workload;

use crate::runner::{scale_label, write_named_json, Pool};
use crate::{capture_plain_trace_with, timing_trace_fanned_probed, ExperimentOptions};

/// `BENCH_backends.json` schema identifier.
pub const BACKENDS_SCHEMA: &str = "arl-backends/v1";

/// Workload subset for the backend sweep: an integer benchmark dominated
/// by heap pointer-chasing (`go`), one with high-locality streams
/// (`compress`), and the floating-point array walker (`tomcatv`).
const WORKLOADS: [&str; 3] = ["compress", "go", "tomcatv"];

/// Number of machines in the sweep.
const MACHINES: usize = 2;

/// The two machines the paper compares: conventional 2-port and the
/// decoupled split-port design.
fn machines() -> [MachineConfig; MACHINES] {
    [
        MachineConfig::baseline_2_0(),
        MachineConfig::decoupled(3, 3),
    ]
}

/// Position of the (workload, backend, machine) cell in the sweep's
/// row order: workloads outermost, machines innermost.
fn cell_index(workload: usize, backend: usize, machine: usize) -> usize {
    (workload * BackendConfig::ALL.len() + backend) * MACHINES + machine
}

/// A finished backend sweep: rendered text, the JSON document, and
/// whether any cell violated stall conservation.
#[derive(Clone, Debug)]
pub struct BackendsBenchRun {
    /// The exact bytes the binary prints to stdout.
    pub text: String,
    /// The `BENCH_backends.json` payload.
    pub doc: Json,
    /// True if any cell's probe failed `useful + Σstalls == cycles`.
    pub failed: bool,
}

struct Cell {
    workload: &'static str,
    backend: BackendConfig,
    config: String,
    stats: SimStats,
    recorder: Recorder,
    conserved: bool,
}

fn cache_stats_json(stats: &CacheStats) -> Json {
    Json::obj([
        ("hits", Json::from(stats.hits)),
        ("misses", Json::from(stats.misses)),
        ("hit_rate", Json::from(stats.hit_rate())),
    ])
}

fn cell_json(cell: &Cell) -> Json {
    let stalls = StallCause::ALL
        .iter()
        .map(|&cause| (cause.label(), Json::from(cell.recorder.stall_cycles(cause))))
        .collect::<Vec<_>>();
    Json::obj([
        ("workload", Json::from(cell.workload)),
        ("backend", Json::from(cell.backend.label())),
        ("config", Json::from(cell.config.as_str())),
        ("cycles", Json::from(cell.stats.cycles)),
        ("instructions", Json::from(cell.stats.instructions)),
        ("ipc", Json::from(cell.stats.ipc())),
        ("l2", cache_stats_json(&cell.stats.l2)),
        (
            "stacked",
            match &cell.stats.stacked {
                Some(stats) => cache_stats_json(stats),
                None => Json::Null,
            },
        ),
        ("useful_cycles", Json::from(cell.recorder.useful_cycles())),
        (
            "stall_cycles",
            Json::Obj(
                stalls
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            ),
        ),
        ("conserved", Json::from(cell.conserved)),
    ])
}

/// Runs the (workload × backend × machine) sweep and builds the report.
/// Every cell is probed regardless of `opts.probe`; `opts.backend` is
/// ignored because the sweep covers all backends by construction.
///
/// # Panics
///
/// Panics if a sweep workload is missing from the suite or fails to
/// execute/replay.
pub fn backends_bench(opts: &ExperimentOptions) -> BackendsBenchRun {
    let start = Instant::now();
    let pool = Pool::new(opts.threads);

    // One functional execution per workload, as a plain capture: the
    // timing fan-out computes its model facts itself.
    let captured = pool.map(WORKLOADS.to_vec(), |_i, name| {
        let spec =
            workload(name).unwrap_or_else(|| panic!("backend sweep workload {name} missing"));
        let program = spec.build(opts.scale);
        let trace = capture_plain_trace_with(&program, name, 0, |_| {});
        (name, program, trace)
    });

    // One job per (workload × machine): a single decode of the trace
    // feeds that machine on every backend in lock-step, each with its own
    // recorder. Jobs run in workload order, so compress, the longest
    // program, starts first.
    let jobs: Vec<(usize, usize)> = (0..WORKLOADS.len())
        .flat_map(|wi| (0..MACHINES).map(move |mi| (wi, mi)))
        .collect();
    let fanned = pool.map(jobs.clone(), |_i, (wi, mi)| {
        let (name, program, trace) = &captured[wi];
        let machine = &machines()[mi];
        let configs: Vec<MachineConfig> = BackendConfig::ALL
            .iter()
            .map(|&backend| machine.clone().with_backend(backend))
            .collect();
        timing_trace_fanned_probed(program, trace, name, &configs)
    });
    drop(captured);

    // Put every result at its (workload, backend, machine) position; a
    // hole panics rather than rendering as a zero-cycle cell.
    let names = machines().map(|m| m.name);
    let mut slots: Vec<Option<Cell>> = std::iter::repeat_with(|| None)
        .take(WORKLOADS.len() * BackendConfig::ALL.len() * MACHINES)
        .collect();
    for ((wi, mi), results) in jobs.into_iter().zip(fanned) {
        for (bi, result) in results.into_iter().enumerate() {
            let (stats, recorder) = (result.stats, result.probe);
            let conserved = recorder.cycles() == stats.cycles
                && recorder.useful_cycles() + recorder.total_stall_cycles() == stats.cycles;
            slots[cell_index(wi, bi, mi)] = Some(Cell {
                workload: WORKLOADS[wi],
                backend: BackendConfig::ALL[bi],
                config: names[mi].clone(),
                stats,
                recorder,
                conserved,
            });
        }
    }
    let cells: Vec<Cell> = slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| slot.unwrap_or_else(|| panic!("backend sweep cell {i} missing")))
        .collect();

    let failed = cells.iter().any(|c| !c.conserved);
    let [base_name, split_name] = &names;

    // Per-backend split-port speedup: how much the (3+3) machine still
    // buys over (2+0) once the backend absorbs part of the miss cost.
    let mut speedup_rows = Vec::new();
    let mut table = {
        let mut header = vec!["Backend".to_string()];
        header.extend(WORKLOADS.iter().map(|w| w.to_string()));
        header.push("geomean".to_string());
        TableBuilder::new(&header.iter().map(String::as_str).collect::<Vec<_>>())
    };
    for (bi, backend) in BackendConfig::ALL.into_iter().enumerate() {
        let mut row = vec![backend.label().to_string()];
        let mut pairs = vec![("backend".to_string(), Json::from(backend.label()))];
        let mut log_sum = 0.0;
        for (wi, name) in WORKLOADS.into_iter().enumerate() {
            let base = cells[cell_index(wi, bi, 0)].stats.cycles;
            let split = cells[cell_index(wi, bi, 1)].stats.cycles;
            let speedup = if split == 0 {
                0.0
            } else {
                base as f64 / split as f64
            };
            log_sum += speedup.max(f64::MIN_POSITIVE).ln();
            row.push(format!("{speedup:.3}x"));
            pairs.push((name.to_string(), Json::from(speedup)));
        }
        let geomean = (log_sum / WORKLOADS.len() as f64).exp();
        row.push(format!("{geomean:.3}x"));
        pairs.push(("geomean".to_string(), Json::from(geomean)));
        table.row(&row);
        speedup_rows.push(Json::Obj(pairs));
    }

    let doc = Json::obj([
        ("schema", Json::from(BACKENDS_SCHEMA)),
        ("scale", Json::from(scale_label(opts.scale))),
        (
            "workloads",
            Json::Arr(WORKLOADS.iter().map(|&w| Json::from(w)).collect()),
        ),
        (
            "configs",
            Json::Arr(machines().map(|m| Json::from(m.name)).to_vec()),
        ),
        ("rows", Json::Arr(cells.iter().map(cell_json).collect())),
        ("split_port_speedup", Json::Arr(speedup_rows)),
        ("wall_seconds", Json::from(start.elapsed().as_secs_f64())),
    ]);

    let mut text = String::new();
    let _ = writeln!(
        text,
        "Memory-backend sweep at scale {}: {} workloads x {} backends x {} machines",
        scale_label(opts.scale),
        WORKLOADS.len(),
        BackendConfig::ALL.len(),
        machines().len()
    );
    let _ = writeln!(
        text,
        "\nSplit-port speedup ({base_name} cycles / {split_name} cycles):\n"
    );
    let _ = writeln!(text, "{}", table.render());
    for cell in cells.iter().filter(|c| !c.conserved) {
        let _ = writeln!(
            text,
            "CONSERVATION VIOLATION: {} {} {}: useful {} + stalls {} != cycles {}",
            cell.workload,
            cell.backend.label(),
            cell.config,
            cell.recorder.useful_cycles(),
            cell.recorder.total_stall_cycles(),
            cell.stats.cycles
        );
    }

    BackendsBenchRun { text, doc, failed }
}

/// The `bench_backends` binary's `main`: runs [`backends_bench`] with
/// env-derived options, prints the report, writes `BENCH_backends.json`
/// when `ARL_JSON` is set, and exits non-zero if any cell violates
/// stall conservation.
pub fn run_backends_main() {
    let opts = ExperimentOptions::from_env();
    let run = backends_bench(&opts);
    print!("{}", run.text);
    if std::env::var_os("ARL_JSON").is_some() {
        match write_named_json("BENCH_backends.json", &run.doc) {
            Ok(path) => eprintln!("[arl-bench] wrote {}", path.display()),
            Err(e) => {
                eprintln!("[arl-bench] failed to write ARL_JSON: {e}");
                std::process::exit(1);
            }
        }
    }
    if run.failed {
        eprintln!("[arl-bench] backend sweep FAILED: a probed cell broke stall conservation");
        std::process::exit(1);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use arl_workloads::Scale;

    #[test]
    fn backend_sweep_covers_every_cell_and_conserves_stalls() {
        let opts = ExperimentOptions::new(Scale::tiny(), 2);
        let run = backends_bench(&opts);
        assert!(!run.failed, "stall conservation must hold on every backend");
        assert_eq!(
            run.doc.get("schema").and_then(Json::as_str),
            Some(BACKENDS_SCHEMA)
        );
        let rows = match run.doc.get("rows") {
            Some(Json::Arr(rows)) => rows,
            other => panic!("rows missing: {other:?}"),
        };
        assert_eq!(
            rows.len(),
            WORKLOADS.len() * BackendConfig::ALL.len() * machines().len()
        );
        for row in rows {
            assert_eq!(row.get("conserved"), Some(&Json::Bool(true)));
            let backend = row
                .get("backend")
                .and_then(Json::as_str)
                .unwrap()
                .to_string();
            let stacked = row.get("stacked").unwrap();
            let expects_device = matches!(
                BackendConfig::from_label(&backend).unwrap(),
                BackendConfig::StackedCache | BackendConfig::StackedMemCache | BackendConfig::Burst
            );
            assert_eq!(
                *stacked != Json::Null,
                expects_device,
                "backend {backend} device-stats presence is wrong"
            );
        }
        let speedups = match run.doc.get("split_port_speedup") {
            Some(Json::Arr(rows)) => rows,
            other => panic!("speedup table missing: {other:?}"),
        };
        assert_eq!(speedups.len(), BackendConfig::ALL.len());
        for row in speedups {
            let geomean = row.get("geomean").and_then(Json::as_f64).unwrap();
            assert!(geomean > 0.0, "speedups must be positive");
        }
    }
}
