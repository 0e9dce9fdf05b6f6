//! Tasks: the unit of work shared between replicas.
//!
//! A task is "a block of instructions executed sequentially by a physical
//! process" (Definition 2).  It reads and writes sub-ranges of workspace
//! variables, declared with `in` / `out` / `inout` tags exactly like the
//! parameters of the paper's `Intra_Task_register`.  All `out` and `inout`
//! ranges are transferred to the other replicas after the task executes; all
//! `inout` ranges are snapshotted when the task is instantiated so the task
//! can be re-executed safely after a partial update (Section III-B2,
//! Figure 2c).

use crate::error::{IntraError, IntraResult};
use crate::workspace::{VarId, Workspace};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Access mode of one task argument (the paper's `in` / `out` / `inout`
/// tags).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArgTag {
    /// Read-only: not shipped to the other replicas.
    In,
    /// Write-only: fully written by the task, shipped to the other replicas.
    Out,
    /// Read and written: shipped to the other replicas *and* snapshotted at
    /// instantiation time so re-execution after a failure starts from the
    /// correct value.
    InOut,
}

impl ArgTag {
    /// True if the argument is written by the task (and therefore shipped).
    pub fn is_output(self) -> bool {
        matches!(self, ArgTag::Out | ArgTag::InOut)
    }

    /// True if the argument is read by the task.
    pub fn is_input(self) -> bool {
        matches!(self, ArgTag::In | ArgTag::InOut)
    }
}

/// One task argument: a tagged sub-range of a workspace variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgSpec {
    /// The workspace variable.
    pub var: VarId,
    /// The element range of the variable accessed by the task.
    pub range: Range<usize>,
    /// Access mode.
    pub tag: ArgTag,
}

impl ArgSpec {
    /// Read-only argument covering `range` of `var`.
    pub fn input(var: VarId, range: Range<usize>) -> Self {
        ArgSpec {
            var,
            range,
            tag: ArgTag::In,
        }
    }

    /// Write-only argument covering `range` of `var`.
    pub fn output(var: VarId, range: Range<usize>) -> Self {
        ArgSpec {
            var,
            range,
            tag: ArgTag::Out,
        }
    }

    /// Read-write argument covering `range` of `var`.
    pub fn inout(var: VarId, range: Range<usize>) -> Self {
        ArgSpec {
            var,
            range,
            tag: ArgTag::InOut,
        }
    }

    /// Number of elements in the range.
    pub fn len(&self) -> usize {
        self.range.end - self.range.start
    }

    /// True if the range is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of bytes in the range.
    pub fn bytes(&self) -> usize {
        self.len() * std::mem::size_of::<f64>()
    }
}

/// Analytic compute cost of one task, charged to the virtual clock when the
/// task executes.  Applications derive it from `kernels::KernelCost` at the
/// *modeled* problem size; `None`-cost tasks only pay for their real
/// execution semantics (used in protocol-correctness tests).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TaskCost {
    /// Floating-point operations.
    pub flops: f64,
    /// Memory traffic in bytes (read + written).
    pub mem_bytes: f64,
}

impl TaskCost {
    /// Creates a cost descriptor.
    pub fn new(flops: f64, mem_bytes: f64) -> Self {
        TaskCost { flops, mem_bytes }
    }
}

/// What a task launch declares about its modeled compute cost.
///
/// The unified `launch` entry point of [`crate::api::IntraSession`] takes
/// `impl Into<CostHint>`, so call sites stay terse:
///
/// * `()` — no modeled cost: the task only pays for its real execution
///   semantics (protocol-correctness tests, toy examples);
/// * a [`TaskCost`] — charge the roofline time of the descriptor;
/// * an `Option<TaskCost>` — for code that threads an optional cost through.
///
/// # Examples
///
/// ```
/// use ipr_core::{CostHint, TaskCost};
///
/// assert_eq!(CostHint::from(()).into_cost(), None);
/// let cost = TaskCost::new(10.0, 80.0);
/// assert_eq!(CostHint::from(cost).into_cost(), Some(cost));
/// assert_eq!(CostHint::from(Some(cost)).into_cost(), Some(cost));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[must_use = "a CostHint does nothing until passed to a launch call"]
pub struct CostHint(Option<TaskCost>);

impl CostHint {
    /// No modeled cost: charge nothing to the virtual clock.
    pub const NONE: CostHint = CostHint(None);

    /// A modeled cost descriptor.
    pub fn modeled(cost: TaskCost) -> Self {
        CostHint(Some(cost))
    }

    /// The cost carried by the hint, if any.
    pub fn into_cost(self) -> Option<TaskCost> {
        self.0
    }
}

impl From<()> for CostHint {
    fn from((): ()) -> Self {
        CostHint::NONE
    }
}

impl From<TaskCost> for CostHint {
    fn from(cost: TaskCost) -> Self {
        CostHint::modeled(cost)
    }
}

impl From<Option<TaskCost>> for CostHint {
    fn from(cost: Option<TaskCost>) -> Self {
        CostHint(cost)
    }
}

/// The execution context handed to a task body.
///
/// Inputs and outputs are exposed as owned buffers so that a task can borrow
/// an input and an output simultaneously without fighting the borrow
/// checker; the runtime copies the relevant workspace ranges in before the
/// call and writes the output buffers back afterwards (those copies are an
/// implementation artifact of the safe API and are not charged to the
/// virtual clock — only the `inout` snapshot mandated by the paper is).
///
/// * `inputs[i]` is the i-th `In` argument (in declaration order);
/// * `outputs[j]` is the j-th `Out` or `InOut` argument (in declaration
///   order), pre-filled with the current value of the range;
/// * `scalars[k]` are the scalar parameters passed at launch time.
///
/// The runtime owns one context per physical process and *refills* it for
/// every task it executes, so running a task allocates nothing once the
/// buffers have grown to the largest argument seen.  A body may assume
/// exactly the three points above — the right number of buffers, each of
/// exactly its argument's length — and nothing else: spare capacity, and
/// whatever a body leaves behind (a buffer it emptied with `mem::take`, a
/// value it wrote to an input), never reach the next task, which finds
/// every buffer rewritten from the workspace.  An output must come back
/// with the length it was handed out with; a body that resizes one fails
/// its section with [`IntraError::InvalidTask`].
#[derive(Debug, Default)]
pub struct TaskCtx {
    /// Read-only argument buffers (declaration order of `In` args).
    pub inputs: Vec<Vec<f64>>,
    /// Writable argument buffers (declaration order of `Out`/`InOut` args).
    pub outputs: Vec<Vec<f64>>,
    /// Scalar parameters.
    pub scalars: Vec<f64>,
}

impl TaskCtx {
    /// Scalar parameter `k` rounded to a `usize` (for sizes and offsets).
    pub fn scalar_usize(&self, k: usize) -> usize {
        self.scalars[k].round() as usize
    }
}

/// The body of a task.
pub type TaskFn = Arc<dyn Fn(&mut TaskCtx) + Send + Sync>;

/// A fully specified task instance, ready to be scheduled on a replica.
#[derive(Clone)]
pub struct TaskDef {
    /// Human-readable name (diagnostics, reports and, with the occurrence
    /// index, the cost-model identity).  Static, so launching a task and
    /// reporting on it copy a pointer, never a string.
    pub name: &'static str,
    /// The code to execute.
    pub func: TaskFn,
    /// Tagged variable ranges accessed by the task.
    pub args: Vec<ArgSpec>,
    /// Scalar parameters forwarded to the body.
    pub scalars: Vec<f64>,
    /// Modeled compute cost (None = charge nothing).
    pub cost: Option<TaskCost>,
}

impl fmt::Debug for TaskDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskDef")
            .field("name", &self.name)
            .field("args", &self.args)
            .field("scalars", &self.scalars)
            .field("cost", &self.cost)
            .finish_non_exhaustive()
    }
}

impl TaskDef {
    /// Creates a task with the given name, body and arguments.
    pub fn new<F>(name: &'static str, func: F, args: Vec<ArgSpec>) -> Self
    where
        F: Fn(&mut TaskCtx) + Send + Sync + 'static,
    {
        TaskDef {
            name,
            func: Arc::new(func),
            args,
            scalars: Vec::new(),
            cost: None,
        }
    }

    /// Attaches scalar parameters.
    pub fn with_scalars(mut self, scalars: Vec<f64>) -> Self {
        self.scalars = scalars;
        self
    }

    /// Attaches a modeled compute cost.
    pub fn with_cost(mut self, cost: TaskCost) -> Self {
        self.cost = Some(cost);
        self
    }

    /// Validates the argument ranges against a workspace.
    pub fn validate(&self, ws: &Workspace) -> IntraResult<()> {
        if self.args.is_empty() {
            return Err(IntraError::InvalidTask(format!(
                "task '{}' has no arguments",
                self.name
            )));
        }
        for arg in &self.args {
            ws.check_range(arg.var, &arg.range)?;
        }
        Ok(())
    }

    /// Total number of bytes of `out`/`inout` data this task ships to the
    /// other replicas.
    pub fn update_bytes(&self) -> usize {
        self.args
            .iter()
            .filter(|a| a.tag.is_output())
            .map(ArgSpec::bytes)
            .sum()
    }

    /// Total number of bytes of `inout` data that must be snapshotted when
    /// the task is instantiated.
    pub fn inout_bytes(&self) -> usize {
        self.args
            .iter()
            .filter(|a| a.tag == ArgTag::InOut)
            .map(ArgSpec::bytes)
            .sum()
    }

    /// Relative compute weight used by cost-aware schedulers (falls back to
    /// the update size when no cost was provided).
    pub fn weight(&self) -> f64 {
        match self.cost {
            Some(c) => c.flops.max(c.mem_bytes),
            None => self.update_bytes().max(1) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noop() -> TaskDef {
        TaskDef::new("noop", |_ctx| {}, vec![])
    }

    #[test]
    fn arg_tags_classify_inputs_and_outputs() {
        assert!(ArgTag::In.is_input() && !ArgTag::In.is_output());
        assert!(!ArgTag::Out.is_input() && ArgTag::Out.is_output());
        assert!(ArgTag::InOut.is_input() && ArgTag::InOut.is_output());
    }

    #[test]
    fn arg_spec_constructors_and_sizes() {
        let v = VarId(0);
        let a = ArgSpec::input(v, 0..10);
        assert_eq!(a.tag, ArgTag::In);
        assert_eq!(a.len(), 10);
        assert_eq!(a.bytes(), 80);
        assert!(!a.is_empty());
        assert!(ArgSpec::output(v, 3..3).is_empty());
        assert_eq!(ArgSpec::inout(v, 0..2).tag, ArgTag::InOut);
    }

    #[test]
    fn update_and_inout_bytes() {
        let v = VarId(0);
        let t = TaskDef::new(
            "t",
            |_| {},
            vec![
                ArgSpec::input(v, 0..100),
                ArgSpec::output(v, 100..150),
                ArgSpec::inout(v, 150..160),
            ],
        );
        assert_eq!(t.update_bytes(), (50 + 10) * 8);
        assert_eq!(t.inout_bytes(), 10 * 8);
    }

    #[test]
    fn validation_rejects_bad_ranges_and_empty_tasks() {
        let mut ws = Workspace::new();
        let x = ws.add("x", vec![0.0; 8]);
        let ok = TaskDef::new("ok", |_| {}, vec![ArgSpec::input(x, 0..8)]);
        assert!(ok.validate(&ws).is_ok());
        let bad = TaskDef::new("bad", |_| {}, vec![ArgSpec::input(x, 0..9)]);
        assert!(bad.validate(&ws).is_err());
        assert!(noop().validate(&ws).is_err());
    }

    #[test]
    fn weight_prefers_explicit_cost() {
        let v = VarId(0);
        let t = TaskDef::new("t", |_| {}, vec![ArgSpec::output(v, 0..10)]);
        assert_eq!(t.weight(), 80.0);
        let t = t.with_cost(TaskCost::new(1000.0, 500.0));
        assert_eq!(t.weight(), 1000.0);
    }

    #[test]
    fn task_ctx_scalar_helpers() {
        let ctx = TaskCtx {
            inputs: vec![],
            outputs: vec![],
            scalars: vec![3.0, 7.9],
        };
        assert_eq!(ctx.scalar_usize(0), 3);
        assert_eq!(ctx.scalar_usize(1), 8);
    }

    #[test]
    fn debug_impl_mentions_name() {
        let t = noop();
        assert!(format!("{t:?}").contains("noop"));
    }
}
