//! The output check: digests of one experiment's outputs, compared with
//! the reference digests recorded in `reference/<workload>.x<scale>.txt`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One checked operation's output.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// `workload/config` style label, unique within its experiment.
    pub label: String,
    /// `fnv1a64` (or `stats_fingerprint`) of the cell's deterministic
    /// output.
    pub digest: u64,
    /// The cell's own invariant held (e.g. stall conservation).
    pub sound: bool,
}

/// Everything one experiment call produced that the check looks at.
#[derive(Clone, Debug, Default)]
pub struct Observed {
    /// Digest of the rendered experiment text.
    pub text: u64,
    /// One entry per experiment cell, in cell order.
    pub cells: Vec<Cell>,
    /// Per-program `SimStats` fingerprints from the traced run; `None` in
    /// the untraced run, which does not compute them.
    pub stats: Option<Vec<Cell>>,
}

/// Recorded digests for one workload at one scale.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Reference {
    pub text: u64,
    pub cells: BTreeMap<String, u64>,
    pub stats: BTreeMap<String, u64>,
}

/// Outcome of checking one experiment call.
#[derive(Clone, Debug, PartialEq)]
pub struct Verdict {
    /// Operations checked: every cell, the rendered text, and the traced
    /// run's stats fingerprints.
    pub attempted: u64,
    /// Operations whose digest mismatched, whose invariant failed, or
    /// that the reference lists but the run did not produce.
    pub failed: u64,
    /// One line per failed operation.
    pub problems: Vec<String>,
}

impl Reference {
    /// Parses the line format [`Reference::render`] writes.
    ///
    /// # Errors
    ///
    /// Names the first malformed line.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut reference = Reference::default();
        let mut saw_text = false;
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("reference line {}: {line:?}", n + 1);
            let (head, hex) = line.rsplit_once(' ').ok_or_else(bad)?;
            let digest = u64::from_str_radix(hex, 16).map_err(|_| bad())?;
            let (kind, label) = head.split_once(' ').unwrap_or((head, ""));
            let map = match kind {
                "text" if label.is_empty() => {
                    reference.text = digest;
                    saw_text = true;
                    continue;
                }
                "cell" => &mut reference.cells,
                "stats" => &mut reference.stats,
                _ => return Err(bad()),
            };
            if label.is_empty() || map.insert(label.to_string(), digest).is_some() {
                return Err(bad());
            }
        }
        if saw_text {
            Ok(reference)
        } else {
            Err("reference has no text line".into())
        }
    }

    /// A reference recording exactly `observed`.
    pub fn from_observed(observed: &Observed) -> Reference {
        let map = |cells: &[Cell]| cells.iter().map(|c| (c.label.clone(), c.digest)).collect();
        Reference {
            text: observed.text,
            cells: map(&observed.cells),
            stats: observed.stats.as_deref().map(map).unwrap_or_default(),
        }
    }

    /// The on-disk form, one digest per line.
    pub fn render(&self, header: &str) -> String {
        let mut out = format!("# {header}\ntext {:016x}\n", self.text);
        for (kind, map) in [("cell", &self.cells), ("stats", &self.stats)] {
            for (label, digest) in map {
                let _ = writeln!(out, "{kind} {label} {digest:016x}");
            }
        }
        out
    }
}

fn compare(kind: &str, cells: &[Cell], want: &BTreeMap<String, u64>, verdict: &mut Verdict) {
    let mut seen = 0;
    for cell in cells {
        verdict.attempted += 1;
        let problem = match want.get(&cell.label) {
            None => Some("is not in the reference".to_string()),
            Some(&d) if d != cell.digest => {
                Some(format!("digest {:016x} != reference {d:016x}", cell.digest))
            }
            Some(_) if !cell.sound => Some("failed its own invariant".to_string()),
            Some(_) => None,
        };
        seen += usize::from(want.contains_key(&cell.label));
        if let Some(p) = problem {
            verdict.failed += 1;
            verdict.problems.push(format!("{kind} {}: {p}", cell.label));
        }
    }
    // Cells the reference expects but the run never produced.
    let missing = want.len().saturating_sub(seen);
    if missing > 0 {
        verdict.attempted += missing as u64;
        verdict.failed += missing as u64;
        verdict.problems.push(format!(
            "{missing} reference {kind} entries were not produced"
        ));
    }
}

/// Checks `observed` against `reference`.
pub fn check(observed: &Observed, reference: &Reference) -> Verdict {
    let mut verdict = Verdict {
        attempted: 1,
        failed: 0,
        problems: Vec::new(),
    };
    if observed.text != reference.text {
        verdict.failed += 1;
        verdict.problems.push(format!(
            "rendered text digest {:016x} != reference {:016x}",
            observed.text, reference.text
        ));
    }
    compare("cell", &observed.cells, &reference.cells, &mut verdict);
    if let Some(stats) = &observed.stats {
        compare("stats", stats, &reference.stats, &mut verdict);
    }
    verdict
}

/// The verdict for an experiment call that panicked and produced nothing:
/// every operation the reference expects counts as failed.
pub fn nothing_produced(reference: &Reference, why: &str) -> Verdict {
    let ops = 1 + reference.cells.len();
    Verdict {
        attempted: ops as u64,
        failed: ops as u64,
        problems: vec![format!("experiment produced no output: {why}")],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(label: &str, digest: u64) -> Cell {
        Cell {
            label: label.into(),
            digest,
            sound: true,
        }
    }

    fn observed() -> Observed {
        Observed {
            text: 0xfeed,
            cells: vec![cell("go/(2+0)", 1), cell("go/(3+3)", 2)],
            stats: Some(vec![cell("go/(3+3)", 3)]),
        }
    }

    #[test]
    fn reference_round_trips_through_its_file_form() {
        let reference = Reference::from_observed(&observed());
        let parsed = Reference::parse(&reference.render("figure8 at x1")).unwrap();
        assert_eq!(parsed, reference);
        assert!(
            Reference::parse("cell a 1\n").is_err(),
            "text line is required"
        );
        assert!(Reference::parse("text 1\ncell a zz\n").is_err());
        assert!(Reference::parse("text 1\ncell a 1\ncell a 2\n").is_err());
        assert!(Reference::parse("text 1\nbogus a 1\n").is_err());
    }

    #[test]
    fn matching_output_passes_every_operation() {
        let reference = Reference::from_observed(&observed());
        let verdict = check(&observed(), &reference);
        assert_eq!((verdict.attempted, verdict.failed), (4, 0));
        let mut untraced = observed();
        untraced.stats = None;
        let verdict = check(&untraced, &reference);
        assert_eq!((verdict.attempted, verdict.failed), (3, 0));
    }

    #[test]
    fn digest_mismatch_is_a_failed_operation() {
        let reference = Reference::from_observed(&observed());
        let mut run = observed();
        run.cells[1].digest ^= 1;
        let verdict = check(&run, &reference);
        assert_eq!((verdict.attempted, verdict.failed), (4, 1));
        assert!(verdict.problems[0].contains("go/(3+3)"));

        let mut run = observed();
        run.text ^= 1;
        run.stats.as_mut().unwrap()[0].digest ^= 1;
        assert_eq!(check(&run, &reference).failed, 2);
    }

    #[test]
    fn broken_invariant_and_missing_cells_fail() {
        let reference = Reference::from_observed(&observed());
        let mut run = observed();
        run.cells[0].sound = false;
        assert_eq!(check(&run, &reference).failed, 1);

        let mut run = observed();
        run.cells.pop();
        let verdict = check(&run, &reference);
        assert_eq!((verdict.attempted, verdict.failed), (4, 1));

        let verdict = nothing_produced(&reference, "panic");
        assert_eq!((verdict.attempted, verdict.failed), (3, 3));
    }
}
