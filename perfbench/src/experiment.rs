//! The three end-to-end workloads: one library experiment call each, and
//! the digests and paper-facing values taken from its outputs.

use arl_asm::Program;
use arl_bench::{ExperimentOptions, RunRecord, SuiteReport};
use arl_stats::Json;
use arl_trace::fnv1a64;
use arl_workloads::{suite, workload, Scale, WorkloadSpec};

use crate::check::{Cell, Observed};
use crate::cli::Workload;

/// The backend sweep's programs, in the order `backends_bench` runs them.
const BACKEND_PROGRAMS: [&str; 3] = ["compress", "go", "tomcatv"];

/// What one experiment call produced.
pub struct Output {
    pub observed: Observed,
    /// Paper-facing headline values, already formatted.
    pub headline: Vec<String>,
    /// Per-cell records (Figure 8 / Figure 4 only; the backend sweep
    /// reports no per-cell times).
    pub report: Option<SuiteReport>,
    /// The experiment's JSON document, as the artifact writer would
    /// serialize it.
    pub doc: Json,
}

/// The programs a workload runs, in suite order.
pub fn programs(w: Workload) -> Vec<WorkloadSpec> {
    match w {
        Workload::Figure8 | Workload::Figure4 => suite(),
        Workload::BackendsProbed => BACKEND_PROGRAMS
            .iter()
            .map(|name| workload(name).expect("backend sweep programs are in the suite"))
            .collect(),
    }
}

/// The set-up the timed call depends on: every program the workload runs,
/// built at the run's scale.
pub fn build_programs(w: Workload, scale: Scale) -> Vec<Program> {
    programs(w).iter().map(|spec| spec.build(scale)).collect()
}

/// Runs the workload's experiment once. Panics propagate (the caller
/// counts them as failed operations).
pub fn run(w: Workload, opts: &ExperimentOptions) -> Output {
    match w {
        Workload::Figure8 => {
            let run = arl_bench::figure8(opts);
            let headline = figure8_headline(&run.report.records);
            suite_output(run.text, run.report, headline)
        }
        Workload::Figure4 => {
            let run = arl_bench::figure4(opts);
            let headline = figure4_headline(&run.report.records);
            suite_output(run.text, run.report, headline)
        }
        Workload::BackendsProbed => backends_output(arl_bench::backends_bench(opts)),
    }
}

fn suite_output(text: String, report: SuiteReport, headline: Vec<String>) -> Output {
    let cells = report
        .records
        .iter()
        .map(|r| Cell {
            label: format!("{}/{}", r.workload, r.config),
            digest: record_digest(r),
            sound: true,
        })
        .collect();
    Output {
        observed: Observed {
            text: fnv1a64(text.as_bytes()),
            cells,
            stats: None,
        },
        headline,
        doc: report.to_json(),
        report: Some(report),
    }
}

/// Digest of a record's deterministic fields (everything but its host
/// wall time).
fn record_digest(r: &RunRecord) -> u64 {
    let canonical = format!(
        "{}|{}|{}|{}|{:?}|{:?}|{:?}|{}",
        r.workload,
        r.config,
        r.phase,
        r.instructions,
        r.cycles,
        r.ipc,
        r.accuracy,
        r.peak_rss_bytes
    );
    fnv1a64(canonical.as_bytes())
}

/// Mean of `value` over the int and FP programs, from one record per
/// program for `config`.
fn int_fp_mean(
    records: &[RunRecord],
    config: &str,
    value: impl Fn(&RunRecord) -> Option<f64>,
) -> [f64; 2] {
    let specs = suite();
    let mut sums = [(0.0, 0u32); 2];
    for r in records.iter().filter(|r| r.config == config) {
        let Some(spec) = specs.iter().find(|s| s.name == r.workload) else {
            continue;
        };
        if let Some(v) = value(r) {
            let slot = &mut sums[usize::from(spec.is_fp)];
            slot.0 += v;
            slot.1 += 1;
        }
    }
    sums.map(|(sum, n)| sum / f64::from(n.max(1)))
}

fn figure8_headline(records: &[RunRecord]) -> Vec<String> {
    let base_cycles = |workload: &str| -> Option<u64> {
        records
            .iter()
            .find(|r| r.workload == workload && r.config == "(2+0)")
            .and_then(|r| r.cycles)
    };
    ["(3+3)", "(16+0)"]
        .iter()
        .map(|config| {
            let [int, fp] = int_fp_mean(records, config, |r| {
                Some(base_cycles(&r.workload)? as f64 / r.cycles? as f64)
            });
            format!("Figure 8 {config} speedup over (2+0): int {int:.3} / FP {fp:.3}")
        })
        .collect()
}

fn figure4_headline(records: &[RunRecord]) -> Vec<String> {
    let [int, fp] = int_fp_mean(records, "1BIT-HYBRID", |r| r.accuracy);
    vec![format!(
        "Figure 4 1BIT-HYBRID accuracy: int {:.2}% / FP {:.2}%",
        100.0 * int,
        100.0 * fp
    )]
}

fn backends_output(run: arl_bench::BackendsBenchRun) -> Output {
    let rows = run.doc.get("rows").and_then(Json::as_array).unwrap_or(&[]);
    let field = |row: &Json, key: &str| {
        row.get(key)
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let cells = rows
        .iter()
        .map(|row| Cell {
            label: format!(
                "{}/{}/{}",
                field(row, "workload"),
                field(row, "backend"),
                field(row, "config")
            ),
            digest: fnv1a64(row.render().as_bytes()),
            // `failed` is exactly "some row broke stall conservation";
            // the row's own flag says which.
            sound: row.get("conserved") == Some(&Json::Bool(true)),
        })
        .collect();
    let geomean = run
        .doc
        .get("split_port_speedup")
        .and_then(Json::as_array)
        .and_then(|rows| {
            rows.iter()
                .find(|r| r.get("backend").and_then(Json::as_str) == Some("baseline"))
        })
        .and_then(|r| r.get("geomean"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN);
    let mut headline = vec![format!(
        "Backends split-port (3+3)/(2+0) geomean, baseline backend: {geomean:.3}x"
    )];
    if run.failed {
        headline.push("Backends sweep FAILED: a probed cell broke stall conservation".into());
    }
    Output {
        observed: Observed {
            text: fnv1a64(run.text.as_bytes()),
            cells,
            stats: None,
        },
        headline,
        report: None,
        doc: run.doc,
    }
}
