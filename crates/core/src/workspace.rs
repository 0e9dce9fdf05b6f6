//! The task workspace: named, replicated variables.
//!
//! The paper's API passes raw pointers to the variables a task reads and
//! writes.  The Rust equivalent used here is a [`Workspace`] of named `f64`
//! buffers; tasks reference sub-ranges of those buffers through
//! [`crate::task::ArgSpec`]s.  The workspace is the state that must be
//! identical on every replica of a logical process when a section starts and
//! when it ends (Definition 1 of the paper); the runtime ships the written
//! ranges ("updates") between replicas to re-establish that consistency.

use crate::error::{IntraError, IntraResult};
use std::ops::Range;

/// Identifier of a workspace variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// The raw index of the variable (diagnostic).
    pub fn index(&self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone)]
struct Var {
    name: String,
    data: Vec<f64>,
}

/// A set of named `f64` buffers shared with the replicas of this logical
/// process.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    vars: Vec<Var>,
}

impl Workspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a variable and returns its id.
    pub fn add(&mut self, name: &str, data: Vec<f64>) -> VarId {
        self.vars.push(Var {
            name: name.to_string(),
            data,
        });
        VarId(self.vars.len() - 1)
    }

    /// Adds a zero-initialized variable of length `len`.
    pub fn add_zeros(&mut self, name: &str, len: usize) -> VarId {
        self.add(name, vec![0.0; len])
    }

    /// Name of a variable.
    pub fn name(&self, id: VarId) -> &str {
        &self.vars[id.0].name
    }

    /// Length (in elements) of a variable.
    pub fn len(&self, id: VarId) -> usize {
        self.vars[id.0].data.len()
    }

    /// True if the workspace has no variables.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Read access to a variable.
    pub fn get(&self, id: VarId) -> &[f64] {
        &self.vars[id.0].data
    }

    /// Write access to a variable.
    pub fn get_mut(&mut self, id: VarId) -> &mut [f64] {
        &mut self.vars[id.0].data
    }

    /// Replaces the contents of a variable (length may change).
    pub fn replace(&mut self, id: VarId, data: Vec<f64>) {
        self.vars[id.0].data = data;
    }

    /// Removes the variable's contents, returning them (the variable stays
    /// registered with an empty buffer).
    pub fn take(&mut self, id: VarId) -> Vec<f64> {
        std::mem::take(&mut self.vars[id.0].data)
    }

    /// Validates that `range` lies within variable `id`.
    pub fn check_range(&self, id: VarId, range: &Range<usize>) -> IntraResult<()> {
        if id.0 >= self.vars.len() {
            return Err(IntraError::InvalidVariable(format!(
                "variable id {} out of range ({} vars)",
                id.0,
                self.vars.len()
            )));
        }
        let len = self.vars[id.0].data.len();
        if range.start > range.end || range.end > len {
            return Err(IntraError::InvalidVariable(format!(
                "range {}..{} out of bounds for variable '{}' of length {len}",
                range.start, range.end, self.vars[id.0].name
            )));
        }
        Ok(())
    }

    /// Copies a sub-range of a variable into a new vector.
    pub fn read_range(&self, id: VarId, range: Range<usize>) -> Vec<f64> {
        self.vars[id.0].data[range].to_vec()
    }

    /// Overwrites a sub-range of a variable.
    ///
    /// # Panics
    /// Panics if the lengths do not match.
    pub fn write_range(&mut self, id: VarId, range: Range<usize>, values: &[f64]) {
        let dst = &mut self.vars[id.0].data[range];
        assert_eq!(dst.len(), values.len(), "write_range length mismatch");
        dst.copy_from_slice(values);
    }

    /// A content fingerprint used by tests to check that two replicas hold
    /// identical workspaces (order-sensitive sum of value bits).
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for var in &self.vars {
            for &v in &var.data {
                h ^= v.to_bits();
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            h ^= var.data.len() as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn add_and_access_variables() {
        let mut ws = Workspace::new();
        assert!(ws.is_empty());
        let x = ws.add("x", vec![1.0, 2.0, 3.0]);
        let y = ws.add_zeros("y", 2);
        assert_eq!(ws.name(x), "x");
        assert_eq!(ws.len(y), 2);
        assert_eq!(ws.get(x), &[1.0, 2.0, 3.0]);
        ws.get_mut(y)[1] = 5.0;
        assert_eq!(ws.get(y), &[0.0, 5.0]);
    }

    #[test]
    fn range_read_write_round_trip() {
        let mut ws = Workspace::new();
        let x = ws.add("x", vec![0.0; 6]);
        ws.write_range(x, 2..5, &[7.0, 8.0, 9.0]);
        assert_eq!(ws.read_range(x, 1..6), vec![0.0, 7.0, 8.0, 9.0, 0.0]);
    }

    #[test]
    #[allow(clippy::reversed_empty_ranges)] // a reversed range must be rejected
    fn check_range_validates_bounds() {
        let mut ws = Workspace::new();
        let x = ws.add("x", vec![0.0; 4]);
        assert!(ws.check_range(x, &(0..4)).is_ok());
        assert!(ws.check_range(x, &(2..2)).is_ok());
        assert!(ws.check_range(x, &(0..5)).is_err());
        assert!(ws.check_range(x, &(3..2)).is_err());
        assert!(ws.check_range(VarId(9), &(0..1)).is_err());
    }

    #[test]
    fn replace_and_take() {
        let mut ws = Workspace::new();
        let x = ws.add("x", vec![1.0]);
        ws.replace(x, vec![2.0, 3.0]);
        assert_eq!(ws.len(x), 2);
        let data = ws.take(x);
        assert_eq!(data, vec![2.0, 3.0]);
        assert_eq!(ws.len(x), 0);
    }

    #[test]
    fn fingerprint_distinguishes_contents() {
        let mut a = Workspace::new();
        a.add("x", vec![1.0, 2.0]);
        let mut b = Workspace::new();
        b.add("x", vec![1.0, 2.0]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.get_mut(VarId(0))[0] = 1.5;
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    proptest! {
        #[test]
        fn write_then_read_returns_what_was_written(
            values in proptest::collection::vec(-1e6f64..1e6, 1..64),
            offset in 0usize..16,
        ) {
            let mut ws = Workspace::new();
            let total = values.len() + offset + 3;
            let x = ws.add("x", vec![0.0; total]);
            ws.write_range(x, offset..offset + values.len(), &values);
            prop_assert_eq!(ws.read_range(x, offset..offset + values.len()), values);
        }
    }
}
