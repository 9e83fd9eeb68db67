//! Base-tuple variable identifiers and the symbol table.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Identifier of a base-tuple boolean random variable.
///
/// Every base tuple of a TP relation is associated with exactly one variable
/// (its atomic lineage, e.g. `a1` or `b3` in the paper's running example).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VarId(pub u32);

impl VarId {
    /// The raw numeric id.
    #[must_use]
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A bidirectional mapping between human-readable base-tuple names and
/// [`VarId`]s.
///
/// The storage layer interns one symbol per base tuple (typically
/// `"<relation><ordinal>"`, e.g. `a1`, `b3`); lineage formulas store only the
/// compact [`VarId`]s.
///
/// Each name is allocated once: the id→name vector and the name→id index
/// share it. The index keeps std's randomly keyed hasher, because names
/// come from files: a predictable hash would let a crafted snapshot make
/// loading quadratic.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SymbolTable {
    names: Vec<Arc<str>>,
    by_name: HashMap<Arc<str>, VarId>,
}

impl SymbolTable {
    /// Creates an empty symbol table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id for `name`, creating a fresh one on first use.
    ///
    /// # Panics
    /// Panics when the table already holds `u32::MAX + 1` names.
    #[expect(
        clippy::expect_used,
        reason = "variable ids are u32 by format; 2³² base tuples exceed any catalog"
    )]
    pub fn intern(&mut self, name: &str) -> VarId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = VarId(u32::try_from(self.names.len()).expect("too many lineage variables"));
        self.insert_new(Arc::from(name), id);
        id
    }

    /// Records a name known to be absent under `id`, the next position.
    fn insert_new(&mut self, name: Arc<str>, id: VarId) {
        self.names.push(Arc::clone(&name));
        self.by_name.insert(name, id);
    }

    /// Reserves room for `additional` more names.
    pub fn reserve(&mut self, additional: usize) {
        self.names.reserve(additional);
        self.by_name.reserve(additional);
    }

    /// Allocates a fresh anonymous variable with a generated name.
    pub fn fresh(&mut self, prefix: &str) -> VarId {
        let name = format!("{prefix}{}", self.names.len());
        self.intern(&name)
    }

    /// Looks up the id of an existing name.
    #[must_use]
    pub fn lookup(&self, name: &str) -> Option<VarId> {
        self.by_name.get(name).copied()
    }

    /// The name of a variable, if it was interned through this table.
    #[must_use]
    pub fn name(&self, id: VarId) -> Option<&str> {
        self.names.get(id.0 as usize).map(AsRef::as_ref)
    }

    /// Number of interned variables.
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Is the table empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (VarId(i as u32), n.as_ref()))
    }

    /// Rebuilds a table from an id-ordered name list (the inverse of
    /// [`SymbolTable::iter`]): position `i` becomes `VarId(i)`. Used by the
    /// storage layer's snapshot import, which hands in slices of the
    /// snapshot's payload. Fails if the list contains a duplicate or
    /// exceeds the `u32` id space, since such a dictionary cannot have been
    /// produced by [`SymbolTable::intern`].
    pub fn from_names<'a>(
        names: impl IntoIterator<Item = &'a str>,
    ) -> Result<Self, SymbolTableError> {
        let names = names.into_iter();
        let mut table = Self::new();
        table.reserve(names.size_hint().0);
        for (i, name) in names.enumerate() {
            let id = VarId(u32::try_from(i).map_err(|_| SymbolTableError::IdSpaceExhausted)?);
            if table.by_name.contains_key(name) {
                return Err(SymbolTableError::DuplicateName(name.to_owned()));
            }
            table.insert_new(Arc::from(name), id);
        }
        Ok(table)
    }
}

/// Errors rebuilding a [`SymbolTable`] from an external name list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymbolTableError {
    /// The same name appeared under two ids.
    DuplicateName(String),
    /// The list is larger than the `u32` variable-id space.
    IdSpaceExhausted,
}

impl fmt::Display for SymbolTableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymbolTableError::DuplicateName(name) => {
                write!(f, "duplicate symbol name `{name}`")
            }
            SymbolTableError::IdSpaceExhausted => {
                write!(f, "symbol list exceeds the u32 variable-id space")
            }
        }
    }
}

impl std::error::Error for SymbolTableError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.intern("a1");
        let b = t.intern("b1");
        assert_ne!(a, b);
        assert_eq!(t.intern("a1"), a);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn lookup_and_name_roundtrip() {
        let mut t = SymbolTable::new();
        let a = t.intern("a1");
        assert_eq!(t.lookup("a1"), Some(a));
        assert_eq!(t.lookup("zzz"), None);
        assert_eq!(t.name(a), Some("a1"));
        assert_eq!(t.name(VarId(99)), None);
    }

    #[test]
    fn fresh_generates_unique_names() {
        let mut t = SymbolTable::new();
        let v1 = t.fresh("t");
        let v2 = t.fresh("t");
        assert_ne!(v1, v2);
        assert_ne!(t.name(v1), t.name(v2));
    }

    #[test]
    fn iteration_is_in_id_order() {
        let mut t = SymbolTable::new();
        t.intern("b");
        t.intern("a");
        let collected: Vec<_> = t.iter().map(|(id, n)| (id.index(), n.to_owned())).collect();
        assert_eq!(collected, vec![(0, "b".to_owned()), (1, "a".to_owned())]);
    }

    #[test]
    fn display_of_var_id() {
        assert_eq!(VarId(7).to_string(), "x7");
    }

    #[test]
    fn from_names_inverts_iter() {
        let mut t = SymbolTable::new();
        t.intern("a1");
        t.intern("b1");
        let rebuilt = SymbolTable::from_names(t.iter().map(|(_, n)| n)).unwrap();
        assert_eq!(rebuilt.lookup("a1"), Some(VarId(0)));
        assert_eq!(rebuilt.lookup("b1"), Some(VarId(1)));
        assert_eq!(rebuilt.len(), 2);
    }

    #[test]
    fn from_names_rejects_duplicates() {
        let err = SymbolTable::from_names(["a", "a"]).unwrap_err();
        assert_eq!(err, SymbolTableError::DuplicateName("a".into()));
    }
}
