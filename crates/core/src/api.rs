//! Paper-style API shim with typed task handles.
//!
//! The paper's Open MPI extension exposes four C functions:
//!
//! ```c
//! Intra_Section_begin();
//! id = Intra_Task_register(f_ptr, tag type arg, ...);
//! Intra_Task_launch(id, data_ptr, ...);
//! Intra_Section_end();
//! ```
//!
//! [`IntraSession`] mirrors that flow on top of the richer [`Section`] API:
//! task *types* are registered once with their function and argument tags,
//! then instantiated any number of times with concrete variable ranges and
//! scalar parameters.
//!
//! Registration returns a [`TaskHandle<N>`] carrying the argument count `N`
//! in its type, so a launch with the wrong number of bindings is a compile
//! error rather than a runtime [`IntraError::InvalidTask`]; the single
//! [`IntraSession::launch`] entry point takes `impl Into<CostHint>`, so a
//! plain launch passes `()` and a modeled one passes a
//! [`TaskCost`](crate::task::TaskCost).  The quickstart
//! example and the waxpby test of Section IV use this shim so the code reads
//! like Figure 4 of the paper.

use crate::error::{IntraError, IntraResult};
use crate::report::SectionReport;
use crate::section::Section;
use crate::task::{ArgSpec, ArgTag, CostHint, TaskDef, TaskFn};
use crate::workspace::VarId;
use std::ops::Range;
use std::sync::Arc;

/// Typed handle to a registered task type.
///
/// The const parameter `N` is the number of array arguments the task type
/// declared at registration, so [`IntraSession::launch`] can demand exactly
/// `N` bindings at compile time — the binding-count mismatch that the
/// stringly API could only detect at launch cannot be expressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a task handle is only useful for launching task instances"]
pub struct TaskHandle<const N: usize> {
    id: usize,
}

struct TaskType {
    name: &'static str,
    func: TaskFn,
    tags: Vec<ArgTag>,
}

/// A paper-style intra-parallel session wrapping an open [`Section`].
pub struct IntraSession<'a> {
    section: Section<'a>,
    types: Vec<TaskType>,
}

impl<'a> IntraSession<'a> {
    /// `Intra_Section_begin`: wraps an open section.
    pub fn begin(section: Section<'a>) -> Self {
        IntraSession {
            section,
            types: Vec::new(),
        }
    }

    /// `Intra_Task_register`: declares a task type from a function and the
    /// `in`/`out`/`inout` tags of its array arguments, checking the argument
    /// arity at registration — the returned [`TaskHandle`] carries it in its
    /// type.
    pub fn register<const N: usize, F>(
        &mut self,
        name: &'static str,
        tags: [ArgTag; N],
        func: F,
    ) -> TaskHandle<N>
    where
        F: Fn(&mut crate::task::TaskCtx) + Send + Sync + 'static,
    {
        self.types.push(TaskType {
            name,
            func: Arc::new(func),
            tags: tags.to_vec(),
        });
        TaskHandle {
            id: self.types.len() - 1,
        }
    }

    /// `Intra_Task_launch`: instantiates a registered task type on exactly
    /// `N` concrete variable ranges (one per registered tag, in order), plus
    /// scalar parameters and an optional modeled cost.
    ///
    /// The cost argument accepts anything [`CostHint`] converts from: `()`
    /// for no modeled cost, a [`TaskCost`](crate::task::TaskCost), or an
    /// `Option<TaskCost>`.
    pub fn launch<const N: usize>(
        &mut self,
        handle: TaskHandle<N>,
        bindings: [(VarId, Range<usize>); N],
        scalars: Vec<f64>,
        cost: impl Into<CostHint>,
    ) -> IntraResult<()> {
        self.launch_impl(handle.id, &mut bindings.into_iter(), scalars, cost.into())
    }

    fn launch_impl(
        &mut self,
        id: usize,
        bindings: &mut dyn ExactSizeIterator<Item = (VarId, Range<usize>)>,
        scalars: Vec<f64>,
        cost: CostHint,
    ) -> IntraResult<()> {
        let ty = self
            .types
            .get(id)
            .ok_or_else(|| IntraError::InvalidTask(format!("unknown task type id {id}")))?;
        if bindings.len() != ty.tags.len() {
            return Err(IntraError::InvalidTask(format!(
                "task type '{}' declares {} array arguments but {} were bound",
                ty.name,
                ty.tags.len(),
                bindings.len()
            )));
        }
        let args = bindings
            .zip(ty.tags.iter())
            .map(|((var, range), &tag)| ArgSpec { var, range, tag })
            .collect();
        let task = TaskDef {
            name: ty.name,
            func: Arc::clone(&ty.func),
            args,
            scalars,
            cost: cost.into_cost(),
        };
        self.section.add_task(task)
    }

    /// `Intra_Section_end`: runs the work-sharing protocol.
    pub fn end(self) -> IntraResult<SectionReport> {
        self.section.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{ArgTag, TaskCost};
    use crate::workspace::Workspace;

    // The session cannot execute without a cluster (that is covered by the
    // integration tests); here we only test the registration plumbing.
    fn with_session<R: Send>(f: impl Fn(&mut IntraSession<'_>, VarId) -> R + Send + Sync) -> R {
        let report = simmpi::run_cluster(&simmpi::ClusterConfig::ideal(1), |proc| {
            let env = replication::ReplicatedEnv::without_failures(
                proc,
                replication::ExecutionMode::Native,
            )
            .unwrap();
            let mut rt =
                crate::runtime::IntraRuntime::new(env, crate::runtime::IntraConfig::default());
            let mut ws = Workspace::new();
            let x = ws.add("x", vec![0.0; 4]);
            let mut session = IntraSession::begin(rt.section(&mut ws));
            f(&mut session, x)
        });
        report.unwrap_results().pop().unwrap()
    }

    #[test]
    fn typed_launch_accepts_matching_bindings_and_cost_hints() {
        let ok = with_session(|session, x| {
            let copy = session.register("copy", [ArgTag::In, ArgTag::Out], |_| {});
            session
                .launch(copy, [(x, 0..2), (x, 2..4)], vec![], ())
                .unwrap();
            session
                .launch(
                    copy,
                    [(x, 0..2), (x, 2..4)],
                    vec![1.0],
                    TaskCost::new(1.0, 2.0),
                )
                .unwrap();
            session.section.num_tasks() == 2
        });
        assert!(ok);
    }
}
