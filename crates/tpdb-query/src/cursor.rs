//! Streaming result cursors.

use crate::exec::PhysicalOperator;
use crate::TpdbError;
use tpdb_storage::{Schema, TpRelation, TpTuple};

/// A streaming cursor over a query result: an
/// `Iterator<Item = Result<TpTuple, TpdbError>>` that pulls tuples out of
/// the Volcano operator tree — and, inside a TP join, out of the streaming
/// `OverlapWindowStream → LawauStream → LawanStream` pipeline — one at a
/// time. The full result is never materialized unless the cursor is
/// drained.
///
/// ## Lifecycle
///
/// * The cursor snapshots its input relations at open time (scans hold
///   `Arc` handles): dropping or replacing a relation in the catalog while
///   a cursor is open does not affect the tuples it yields.
/// * TP joins under a cursor run the streaming pipeline, so the first
///   tuple is available after a single window group is processed.
/// * An error fuses the cursor: after yielding `Err(_)` once it yields
///   `None` forever. Dropping a cursor early simply abandons the rest of
///   the computation.
///
/// ```
/// use tpdb_query::Session;
/// use tpdb_storage::Catalog;
///
/// let mut catalog = Catalog::new();
/// let (a, b) = tpdb_datagen::booking_example();
/// catalog.register(a).unwrap();
/// catalog.register(b).unwrap();
/// let session = Session::new(catalog);
///
/// let mut cursor = session
///     .query("SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc")
///     .unwrap();
/// let first = cursor.next().unwrap().unwrap();
/// assert!((0.0..=1.0).contains(&first.probability()));
/// assert_eq!(cursor.fetched(), 1);
///
/// // collect() drains the remaining tuples into a relation — for a fresh
/// // cursor this is exactly what `Session::execute` returns.
/// let rest = cursor.collect().unwrap();
/// assert_eq!(rest.len(), 6); // 7 answer tuples minus the one fetched
/// ```
pub struct ResultCursor {
    /// Output schema, snapshotted at open time.
    schema: Schema,
    op: Box<dyn PhysicalOperator>,
    fetched: usize,
    done: bool,
}

impl ResultCursor {
    /// Wraps a lowered operator tree.
    pub(crate) fn new(op: Box<dyn PhysicalOperator>) -> Self {
        Self {
            schema: op.schema().clone(),
            op,
            fetched: 0,
            done: false,
        }
    }

    /// The fact schema of the tuples this cursor yields.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// How many tuples have been fetched so far.
    #[must_use]
    pub fn fetched(&self) -> usize {
        self.fetched
    }

    /// Drains the *remaining* tuples into a materialized relation named
    /// `result` (already-fetched tuples are not replayed). Calling this on
    /// a fresh cursor yields exactly the relation the materializing
    /// execution paths return.
    pub fn collect(mut self) -> Result<TpRelation, TpdbError> {
        let mut rel = TpRelation::new("result", self.schema.clone());
        for t in &mut self {
            rel.push_unchecked(t?);
        }
        Ok(rel)
    }
}

impl Iterator for ResultCursor {
    type Item = Result<TpTuple, TpdbError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.op.next() {
            Some(Ok(t)) => {
                self.fetched += 1;
                Some(Ok(t))
            }
            Some(Err(e)) => {
                self.done = true;
                Some(Err(e))
            }
            None => {
                self.done = true;
                None
            }
        }
    }
}

impl std::fmt::Debug for ResultCursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCursor")
            .field("schema", &self.schema)
            .field("fetched", &self.fetched)
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}
