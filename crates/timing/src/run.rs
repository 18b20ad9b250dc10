//! The resumable run loop both timing cores share.
//!
//! A [`TimingRun`] owns one simulator (event or legacy core, picked by
//! [`MachineConfig::core`]) plus the one piece of loop state that can
//! outlive a call: the [`MidCycle`] locals of a cycle whose dispatch
//! stage ran out of entries. [`TimingRun::feed`] drives the loop until its
//! source runs dry and stops right there, mid-cycle; the next `feed`
//! resumes inside that very cycle. This is exactly the cut a non-final
//! shard segment makes (`tests/shard_differential.rs` proves it
//! bit-identical), minus the state serialization — so a trace can be
//! delivered in chunks, and one decoded chunk can feed several machine
//! configs in lock-step.

use arl_sim::{EntrySliceSource, SourceError, TraceEntry, TraceSource};

use crate::config::{CoreMode, MachineConfig};
use crate::legacy::LegacySim;
use crate::metrics::SimStats;
use crate::pipeline::TimingSim;
use crate::probe::{NullProbe, Probe};
use crate::state::MidCycle;

/// The per-cycle stage calls of one core, as the shared run loop sees
/// them.
pub(crate) trait CycleLoop {
    /// Starts a new cycle: commit, memory, stall attribution (probe runs
    /// only) and issue. Returns the locals the rest of the cycle reads.
    fn open_cycle(&mut self) -> MidCycle;

    /// Dispatch slots per cycle.
    fn dispatch_width(&self) -> usize;

    /// Dispatches one entry; `false` when the ROB or its queue is full.
    fn dispatch(&mut self, entry: &TraceEntry) -> bool;

    /// Ends the cycle after dispatch: records the probe observation, then
    /// returns `true` when the run is complete (`source_dry` and the
    /// machine drained) or else advances the clock (the event core skips
    /// idle spans here).
    fn close_cycle(&mut self, mid: &MidCycle, source_dry: bool) -> bool;
}

/// Runs `sim` cycle by cycle, pulling entries from `source` in its
/// dispatch stage. Without `drain`, the loop stops as soon as the source
/// runs dry and leaves the cut cycle in `carried`; with it, the loop runs
/// the machine empty and returns.
fn drive<C: CycleLoop, S: TraceSource>(
    sim: &mut C,
    carried: &mut Option<MidCycle>,
    source: &mut S,
    drain: bool,
) -> Result<(), SourceError> {
    // An entry refused by a full ROB waits here for the next cycle. It
    // never outlives a call: the source can only run dry after the
    // pending entry dispatched.
    let mut pending: Option<TraceEntry> = None;
    let mut exhausted = false;
    loop {
        // A carried mid-cycle resumes *inside* the cycle the previous call
        // stopped in: commit, memory, stall attribution and issue already
        // ran there, so only the dispatch loop (and everything after it)
        // executes for that cycle.
        let mut mid = match carried.take() {
            Some(m) => m,
            None => sim.open_cycle(),
        };
        // Dispatch stage: pull from the source.
        while mid.dispatched < sim.dispatch_width() {
            let entry = match pending.take() {
                Some(e) => e,
                None => match source.next_entry()? {
                    Some(e) => e,
                    None => {
                        exhausted = true;
                        break;
                    }
                },
            };
            if sim.dispatch(&entry) {
                mid.dispatched += 1;
            } else {
                pending = Some(entry);
                break;
            }
        }
        if exhausted && !drain {
            debug_assert!(pending.is_none(), "a dry source cannot leave an entry");
            *carried = Some(mid);
            return Ok(());
        }
        if sim.close_cycle(&mid, exhausted && pending.is_none()) {
            return Ok(());
        }
    }
}

/// A resumable timing run over either core.
///
/// Feeding a trace in any number of [`TimingRun::feed`] calls, then
/// calling [`TimingRun::finish`], yields `SimStats` and probe output
/// bit-identical to one uncut run over the whole trace
/// ([`TimingSim::run_source_probed`] is exactly `new` → `feed` →
/// `finish`). Each run owns its whole machine, so several runs can share
/// one decoded chunk of entries.
///
/// ```
/// use arl_asm::{FunctionBuilder, ProgramBuilder};
/// use arl_isa::Gpr;
/// use arl_sim::{EntrySliceSource, Machine, TraceSource};
/// use arl_timing::{MachineConfig, NullProbe, TimingRun, TimingSim};
///
/// let mut pb = ProgramBuilder::new();
/// let mut f = FunctionBuilder::new("main");
/// let x = f.local(8);
/// f.li(Gpr::T0, 7);
/// f.store_local(Gpr::T0, x, 0);
/// f.load_local(Gpr::T1, x, 0);
/// pb.add_function(f);
/// let program = pb.link("main")?;
/// let mut machine = Machine::new(&program);
/// let mut entries = Vec::new();
/// while let Some(e) = machine.next_entry().expect("runs") {
///     entries.push(e);
/// }
///
/// let config = MachineConfig::decoupled(3, 3);
/// let mut run = TimingRun::new(&config, NullProbe);
/// for chunk in entries.chunks(2) {
///     run.feed(&mut EntrySliceSource::new(chunk)).expect("slices cannot fail");
/// }
/// let (stats, _) = run.finish();
/// assert_eq!(stats, TimingSim::run_trace(&entries, &config));
/// # Ok::<(), arl_asm::LinkError>(())
/// ```
pub struct TimingRun<P: Probe = NullProbe> {
    core: Core<P>,
    /// The cycle the last `feed` stopped in, when it stopped mid-cycle.
    carried: Option<MidCycle>,
}

/// Either core. Both are boxed, so the variants are the same size and
/// moving a run copies a pointer, not a machine.
enum Core<P: Probe> {
    Event(Box<TimingSim<P>>),
    Legacy(Box<LegacySim<P>>),
}

impl<P: Probe> TimingRun<P> {
    /// A fresh run at cycle zero on `config`'s core, observed by `probe`.
    pub fn new(config: &MachineConfig, probe: P) -> TimingRun<P> {
        let core = match config.core {
            CoreMode::Event => Core::Event(Box::new(TimingSim::new(config, probe))),
            CoreMode::Legacy => Core::Legacy(Box::new(LegacySim::new(config, probe))),
        };
        TimingRun {
            core,
            carried: None,
        }
    }

    /// A run resumed from a state blob exported at a shard boundary.
    pub(crate) fn resume(
        config: &MachineConfig,
        blob: &[u8],
        probe: P,
    ) -> Result<TimingRun<P>, SourceError> {
        let mut run = TimingRun::new(config, probe);
        run.carried = Some(match &mut run.core {
            Core::Event(sim) => sim.import_state(blob)?,
            Core::Legacy(sim) => sim.import_state(blob)?,
        });
        Ok(run)
    }

    /// Runs the machine on `source`'s entries until the source runs dry,
    /// stopping mid-cycle so the next `feed` continues the same cycle.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SourceError`] from the source; the run is
    /// unusable afterwards.
    pub fn feed<S: TraceSource>(&mut self, source: &mut S) -> Result<(), SourceError> {
        match &mut self.core {
            Core::Event(sim) => drive(&mut **sim, &mut self.carried, source, false),
            Core::Legacy(sim) => drive(&mut **sim, &mut self.carried, source, false),
        }
    }

    /// Drains the pipeline (no more entries arrive) and returns the
    /// whole run's statistics with the probe. `peak_rss_bytes` is left
    /// zero: it belongs to the entry source, not the machine.
    pub fn finish(mut self) -> (SimStats, P) {
        let mut dry = EntrySliceSource::new(&[]);
        let drained = match &mut self.core {
            Core::Event(sim) => drive(&mut **sim, &mut self.carried, &mut dry, true),
            Core::Legacy(sim) => drive(&mut **sim, &mut self.carried, &mut dry, true),
        };
        drained.unwrap_or_else(|e| panic!("an empty slice cannot fail: {e}"));
        match self.core {
            Core::Event(sim) => sim.finish(),
            Core::Legacy(sim) => sim.finish(),
        }
    }

    /// Serializes the machine at the cut the last `feed` made, for a
    /// later [`TimingRun::resume`]; also returns the statistics so far
    /// and the probe.
    pub(crate) fn suspend(self) -> (Vec<u8>, SimStats, P) {
        let Some(mid) = self.carried else {
            unreachable!("suspend follows a feed, which always stops mid-cycle");
        };
        let (state, (stats, probe)) = match self.core {
            Core::Event(sim) => (sim.export_state(&mid), sim.finish()),
            Core::Legacy(sim) => (sim.export_state(&mid), sim.finish()),
        };
        (state, stats, probe)
    }
}
