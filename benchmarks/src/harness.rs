//! What every workload shares: the op ledger (attempted / failed), timed
//! ops under spans, the simulated-statistics digest, and the loop that
//! sets a workload up, repeats it for the measuring time and verifies it.

use crate::stats::median;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// How large a workload's inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured configuration.
    Full,
    /// `--quick`: tiny inputs, one rep, structural and golden checks only.
    Quick,
}

/// FNV-1a, 64 bit — the digest of a workload's simulated statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// Feeds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest as sixteen hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Attempted and failed ops, and why they failed.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Ops attempted so far.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Counts `n` attempted ops.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts `n` of the attempted ops as failed.
    pub fn fail(&mut self, n: u64, why: impl Into<String>) {
        self.failed += n;
        if self.failures.len() < 16 {
            self.failures.push(why.into());
        }
    }

    /// One check that is an op of its own (a golden comparison, a
    /// structural invariant): attempted once, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.attempt(1);
        if !ok {
            self.fail(1, what);
        }
    }
}

/// Everything a workload run carries around.
pub struct Ctx {
    /// `--seed`.
    pub seed: u64,
    /// Input size.
    pub size: Size,
    /// Executor / serve workers: `min(nproc, 4)`.
    pub workers: usize,
    /// Scratch directory inside the checkout (spools, caches).
    pub scratch: PathBuf,
    /// Span recorder (disabled in the untraced run).
    pub tracer: Tracer,
    /// Op accounting.
    pub ledger: Ledger,
    /// Digest of rep 0's stripped reports.
    pub digest: Fnv64,
    /// Informational rates measured outside the timed repetitions (one
    /// sample per entry), e.g. `weak-engine`'s automatic-worker slice.
    pub notes: Vec<(&'static str, f64)>,
}

impl Ctx {
    /// Runs one op: a span around `f`, its wall time in milliseconds, and a
    /// ledger entry.  `f` returning `Err`, or panicking, fails the op.
    pub fn op<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce() -> Result<T, String>,
    ) -> (Option<T>, f64) {
        self.tracer.begin(layer, name);
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(f));
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.tracer.end();
        self.ledger.attempt(1);
        match outcome {
            Ok(Ok(value)) => (Some(value), ms),
            Ok(Err(e)) => {
                self.ledger.fail(1, format!("{name}: {e}"));
                (None, ms)
            }
            Err(_) => {
                self.ledger.fail(1, format!("{name}: panicked"));
                (None, ms)
            }
        }
    }

    /// Runs `f` inside a harness phase span.
    pub fn phase<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.tracer.begin("harness", name);
        let out = f(self);
        self.tracer.end();
        out
    }
}

/// What one timed repetition of a workload measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Timed wall of the repetition, in seconds.
    pub wall_s: f64,
    /// Ops the repetition completed (constant across repetitions).
    pub ops: u64,
    /// Wall of every op a caller waits for, in milliseconds.  Every
    /// repetition runs the same ops in the same order, so entry `i` of one
    /// repetition times the same input as entry `i` of any other.
    pub op_ms: Vec<f64>,
    /// Physical ranks simulated by the first `rank_ops` ops.
    pub ranks: u64,
    /// How many leading entries of `op_ms` simulate the `ranks`.
    pub rank_ops: usize,
    /// Workload-specific rates of this repetition (informational: printed,
    /// never bounded), e.g. `cold_specs_per_s`.
    pub extra: Vec<(&'static str, f64)>,
    /// Counts that must repeat exactly between two runs with one seed.
    pub counts: Vec<(&'static str, u64)>,
}

/// One of the four workloads.
pub trait Workload {
    /// Ops one repetition attempts (valid after [`Workload::set_up`]): what
    /// a parent process counts as failed if it has to kill the run.
    fn ops_per_rep(&self) -> u64;
    /// Generates the inputs from the seed and runs the untimed warm-up
    /// pass.  Timed as one `setup_s` sample; called more than
    /// once, each call replacing the previous inputs with identical ones.
    fn set_up(&mut self, ctx: &mut Ctx);
    /// One timed repetition over the generated inputs.
    fn rep(&mut self, ctx: &mut Ctx, index: usize) -> Rep;
    /// One untimed run at a size users wait seconds for, after the last
    /// repetition: it sets the process's peak resident set (`peak_rss_mb`),
    /// which the short timed repetitions leave at a few megabytes of stacks
    /// and allocator arenas that differ from run to run.  Checked like any
    /// op.  The default does nothing: the repetitions set the peak.
    fn memory_pass(&mut self, _ctx: &mut Ctx) {}
    /// Untimed checks after the last repetition: goldens and invariants
    /// that span repetitions.
    fn verify(&mut self, ctx: &mut Ctx);
}

/// Samples of one workload run, before they are reduced to metrics.
#[derive(Debug, Default)]
pub struct RunSamples {
    /// One `setup_s` sample per set-up.
    pub setup_s: Vec<f64>,
    /// The timed repetitions.
    pub reps: Vec<Rep>,
    /// `VmHWM` of the process after the timed repetitions and the memory
    /// pass (before the untimed verification), in MB.
    pub peak_rss_mb: f64,
}

impl RunSamples {
    /// What each op typically takes, in milliseconds: entry `i` is the
    /// median of entry `i` of every repetition's `op_ms`.
    ///
    /// The host this benchmark runs on is a few virtual cores of a shared
    /// machine, and its noise has two sides.  Other tenants take a core for
    /// seconds at a time, which slows the repetitions it touches; and the
    /// first seconds after a pause run faster (the first three
    /// `sweep-serve` repetitions after a minute's idling took 0.73–0.84 s,
    /// the next fifty 0.86–0.95 s: KNOWN_HAZARDS.md, sections 3 and 4).
    /// Either kind touches a minority of the
    /// hundreds of repetitions of a run and so leaves each op's median
    /// where it was, while it would move the wall of every repetition it
    /// touches — and a low percentile, which shrugs off the slow side
    /// better, reports the boosted speed as soon as a tenth of a run has
    /// it (`sweep-serve` read 7.7 ms and 16.8 ms per warm pass in
    /// consecutive runs that way).
    pub fn typical_op_ms(&self) -> Vec<f64> {
        let ops = self.reps.iter().map(|r| r.op_ms.len()).min().unwrap_or(0);
        (0..ops)
            .map(|i| median(&self.reps.iter().map(|r| r.op_ms[i]).collect::<Vec<_>>()))
            .collect()
    }

    /// `runs_per_s` samples, one per repetition.
    pub fn runs_per_s(&self) -> Vec<f64> {
        self.reps
            .iter()
            .map(|r| r.ops as f64 / r.wall_s.max(1e-9))
            .collect()
    }

    /// `ranks_per_s` samples, one per repetition.
    pub fn ranks_per_s(&self) -> Vec<f64> {
        self.reps
            .iter()
            .map(|r| {
                let ms: f64 = r.op_ms.iter().take(r.rank_ops).sum();
                r.ranks as f64 / (ms / 1e3).max(1e-9)
            })
            .collect()
    }

    /// Per-repetition samples of every informational rate, by name.
    pub fn extras(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for rep in &self.reps {
            for &(name, value) in &rep.extra {
                out.entry(name).or_default().push(value);
            }
        }
        out
    }

    /// The exact-repeat counts of repetition 0.
    pub fn counts(&self) -> Vec<(&'static str, u64)> {
        self.reps
            .first()
            .map(|r| r.counts.clone())
            .unwrap_or_default()
    }
}

/// How long and how often to run.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Measuring time in seconds: repetitions continue while another one
    /// is expected to end within it.
    pub seconds: f64,
    /// Repetitions to run at least (a timed quantity is never reported
    /// from fewer than three, except under `--quick` and in traced runs).
    pub min_reps: usize,
    /// Set-ups to run (the median is `setup_s`).
    pub setups: usize,
}

/// Sets the workload up, repeats it for the measuring time, verifies it.
/// `progress` is shown the ledger and the ops of one repetition after every
/// step, so a parent process can account for a child it has to kill.
pub fn run_workload(
    workload: &mut dyn Workload,
    ctx: &mut Ctx,
    budget: Budget,
    mut progress: impl FnMut(&Ledger, u64),
) -> RunSamples {
    let mut samples = RunSamples::default();
    ctx.tracer.begin("harness", "workload");
    let set_up = |workload: &mut dyn Workload, ctx: &mut Ctx, samples: &mut RunSamples| {
        let started = Instant::now();
        ctx.phase("setup", |ctx| workload.set_up(ctx));
        samples.setup_s.push(started.elapsed().as_secs_f64());
    };
    // One set-up before the repetitions; the others follow them, when the
    // process and the host's cores are in the state the repetitions were
    // timed in (right after a start both run faster for a few seconds).
    set_up(workload, ctx, &mut samples);
    progress(&ctx.ledger, workload.ops_per_rep());
    let started = Instant::now();
    // What a repetition takes in all, its untimed checks included.
    let mut took_s = Vec::new();
    loop {
        let index = samples.reps.len();
        let rep_started = Instant::now();
        let rep = ctx.phase("rep", |ctx| workload.rep(ctx, index));
        took_s.push(rep_started.elapsed().as_secs_f64());
        samples.reps.push(rep);
        progress(&ctx.ledger, workload.ops_per_rep());
        let next_end = started.elapsed().as_secs_f64() + median(&took_s);
        if samples.reps.len() >= budget.min_reps && next_end > budget.seconds {
            break;
        }
    }
    for _ in 1..budget.setups {
        set_up(workload, ctx, &mut samples);
    }
    let sized = ctx.phase("memory", |ctx| {
        catch_unwind(AssertUnwindSafe(|| workload.memory_pass(ctx))).is_ok()
    });
    if !sized {
        ctx.ledger.check(false, "the memory pass panicked");
    }
    samples.peak_rss_mb = crate::host::peak_rss_mb();
    let verified = ctx.phase("verify", |ctx| {
        catch_unwind(AssertUnwindSafe(|| workload.verify(ctx))).is_ok()
    });
    if !verified {
        ctx.ledger.check(false, "verification panicked");
    }
    progress(&ctx.ledger, workload.ops_per_rep());
    ctx.tracer.end();
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Ctx {
        Ctx {
            seed: 1,
            size: Size::Quick,
            workers: 1,
            scratch: PathBuf::from("."),
            tracer: Tracer::new("t", true),
            ledger: Ledger::default(),
            digest: Fnv64::default(),
            notes: Vec::new(),
        }
    }

    struct Fake {
        set_ups: usize,
        verified: bool,
    }

    impl Workload for Fake {
        fn ops_per_rep(&self) -> u64 {
            3
        }
        fn set_up(&mut self, _: &mut Ctx) {
            self.set_ups += 1;
        }
        fn rep(&mut self, ctx: &mut Ctx, index: usize) -> Rep {
            let (ok, ms) = ctx.op("simmpi", "good", || Ok::<_, String>(index));
            assert_eq!(ok, Some(index));
            let (bad, _) = ctx.op("simmpi", "bad", || Err::<(), _>("nope".to_string()));
            assert!(bad.is_none());
            let (boom, _) = ctx.op("simmpi", "boom", || -> Result<(), String> { panic!("x") });
            assert!(boom.is_none());
            Rep {
                wall_s: 0.001,
                ops: 3,
                op_ms: vec![ms],
                ranks: 6,
                rank_ops: 1,
                ..Rep::default()
            }
        }
        fn verify(&mut self, ctx: &mut Ctx) {
            ctx.ledger.check(true, "fine");
            self.verified = true;
        }
    }

    #[test]
    fn the_loop_sets_up_repeats_and_verifies_while_the_ledger_counts() {
        let mut ctx = ctx();
        let mut fake = Fake {
            set_ups: 0,
            verified: false,
        };
        let mut steps = 0;
        let budget = Budget {
            seconds: 0.0,
            min_reps: 3,
            setups: 2,
        };
        let samples = run_workload(&mut fake, &mut ctx, budget, |_, ops| steps += ops / 3);
        assert_eq!((fake.set_ups, fake.verified), (2, true));
        assert_eq!(samples.setup_s.len(), 2);
        assert_eq!(samples.reps.len(), 3);
        assert_eq!(steps, 1 + 3 + 1);
        // Three ops per rep, two of them failing, plus one passing check.
        assert_eq!((ctx.ledger.attempted, ctx.ledger.failed), (10, 6));
        assert!(ctx.ledger.failures[0].contains("bad: nope"));
        assert_eq!(samples.runs_per_s(), vec![3000.0; 3]);
        assert_eq!(samples.ranks_per_s().len(), 3);
        assert_eq!(samples.typical_op_ms().len(), 1);
        // workload + 2 setups + 3 reps x (1 + 3 ops) + memory + verify.
        assert_eq!(ctx.tracer.chrome_events(1).len(), 1 + 2 + 12 + 2);
    }

    #[test]
    fn an_ops_typical_time_is_its_median_over_the_repetitions() {
        let rep = |op_ms: &[f64]| Rep {
            op_ms: op_ms.to_vec(),
            ..Rep::default()
        };
        let samples = RunSamples {
            reps: vec![rep(&[1.0, 20.0]), rep(&[9.0, 10.0]), rep(&[2.0, 30.0])],
            ..RunSamples::default()
        };
        assert_eq!(samples.typical_op_ms(), vec![2.0, 20.0]);
        assert!(RunSamples::default().typical_op_ms().is_empty());
    }

    #[test]
    fn the_digest_is_fnv1a() {
        let mut d = Fnv64::default();
        assert_eq!(d.hex(), "cbf29ce484222325");
        d.update(b"a");
        assert_eq!(d.hex(), "af63dc4c8601ec8c");
    }
}
