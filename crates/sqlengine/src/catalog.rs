//! Catalog and in-memory row storage.
//!
//! Tables hold their rows behind an `Arc` so that query execution can work
//! on a cheap snapshot without holding the catalog lock, while DML uses
//! copy-on-write (`Arc::make_mut`) semantics.

use std::collections::HashMap;
use std::sync::Arc;

use crate::column::ChunkSlot;
use crate::error::{EngineError, Result};
use crate::value::{DataType, Row, Value};

/// A column of a table schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    pub name: String,
    pub ty: DataType,
}

/// An ordered list of named columns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schema {
    pub columns: Vec<Column>,
}

impl Schema {
    pub fn new(columns: Vec<Column>) -> Self {
        Schema { columns }
    }

    /// Position of a column by case-insensitive name.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }
}

/// A unique index over a set of column positions, mapping key tuples to row
/// indexes. Used to implement PRIMARY KEY, `ON CONFLICT`, and planner point
/// lookups. The map lives behind an `Arc` so plans can snapshot it as
/// cheaply as they snapshot rows; maintenance is copy-on-write.
#[derive(Debug, Clone, Default)]
pub struct UniqueIndex {
    pub key_columns: Vec<usize>,
    pub map: Arc<HashMap<Vec<Value>, usize>>,
}

impl UniqueIndex {
    fn key_for(&self, row: &Row) -> Vec<Value> {
        self.key_columns.iter().map(|&i| row[i].clone()).collect()
    }
}

/// Metadata for a secondary (non-unique) index, mapping key tuples to the
/// row indexes holding that key (in no guaranteed order — the index-scan
/// operators sort fetched indexes). The planner matches equality /
/// `IN`-list predicates and join keys against these to emit `IndexScan` and
/// index-nested-loop plans instead of full scans; like table rows, the map
/// is shared behind an `Arc` so plan snapshots are cheap.
#[derive(Debug, Clone)]
pub struct SecondaryIndex {
    pub name: String,
    pub key_columns: Vec<usize>,
    pub map: Arc<HashMap<Vec<Value>, Vec<usize>>>,
}

/// A table: schema, rows, optional primary-key index, secondary indexes,
/// and the lazily built columnar image of `rows` (derived state — never
/// snapshotted or logged; see [`crate::column`]).
#[derive(Debug, Clone)]
pub struct Table {
    pub name: String,
    pub schema: Schema,
    pub rows: Arc<Vec<Row>>,
    pub primary: Option<UniqueIndex>,
    pub secondary: Vec<SecondaryIndex>,
    /// Columnar chunk cache for the *current* `rows`. Invariant: every
    /// mutation of `rows` installs a fresh slot (appends carry built chunks
    /// forward; everything else resets), so a slot shared with a plan
    /// snapshot always describes the rows Arc captured alongside it.
    pub chunks: ChunkSlot,
}

impl Table {
    /// Create an empty table; `primary_key` columns must exist in the schema.
    pub fn new(name: String, schema: Schema, primary_key: &[String]) -> Result<Self> {
        let mut key_columns = Vec::with_capacity(primary_key.len());
        for pk in primary_key {
            let pos = schema.position(pk).ok_or_else(|| {
                EngineError::catalog(format!(
                    "primary key column '{pk}' not found in table '{name}'"
                ))
            })?;
            key_columns.push(pos);
        }
        let primary = if key_columns.is_empty() {
            None
        } else {
            Some(UniqueIndex {
                key_columns,
                map: Arc::new(HashMap::new()),
            })
        };
        Ok(Table {
            name,
            schema,
            rows: Arc::new(Vec::new()),
            primary,
            secondary: Vec::new(),
            chunks: ChunkSlot::empty(),
        })
    }

    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Names of the primary-key columns, in key order (empty without one).
    pub fn primary_key_names(&self) -> Vec<String> {
        self.primary.as_ref().map_or_else(Vec::new, |p| {
            p.key_columns
                .iter()
                .map(|&i| self.schema.columns[i].name.clone())
                .collect()
        })
    }

    /// The upsert rule: the table needs a primary key, and a non-empty
    /// conflict target names exactly its columns, in any order (an empty
    /// one — MySQL's `ON DUPLICATE KEY` — means the key). `Err` is the
    /// message, naming the table as the statement wrote it (`written`);
    /// the caller picks the error kind and span.
    pub(crate) fn check_conflict_target(
        &self,
        target: &[String],
        written: &str,
    ) -> std::result::Result<(), String> {
        let primary = self
            .primary
            .as_ref()
            .ok_or_else(|| format!("ON CONFLICT on table '{written}' which has no unique index"))?;
        if target.is_empty() {
            return Ok(());
        }
        let mut cols = target
            .iter()
            .map(|c| {
                self.schema
                    .position(c)
                    .ok_or_else(|| format!("unknown conflict column '{c}'"))
            })
            .collect::<std::result::Result<Vec<_>, _>>()?;
        cols.sort_unstable();
        let mut key = primary.key_columns.clone();
        key.sort_unstable();
        if cols != key {
            return Err(format!(
                "ON CONFLICT target does not match the unique index of '{written}'"
            ));
        }
        Ok(())
    }

    /// Observed columnar state as `(chunk_count, dict_columns)` — both zero
    /// until a key-filtered hash join first builds the chunks (chunks are lazy,
    /// and this reports without forcing a build).
    pub fn chunk_stats(&self) -> (usize, usize) {
        match self.chunks.peek() {
            Some(ct) => (ct.chunk_count(), ct.dict_columns()),
            None => (0, 0),
        }
    }

    /// Coerce a row to the declared column types (lenient, SQLite-style).
    fn coerce(&self, mut row: Row) -> Result<Row> {
        if row.len() != self.schema.len() {
            return Err(EngineError::exec(format!(
                "table '{}' expects {} values, got {}",
                self.name,
                self.schema.len(),
                row.len()
            )));
        }
        for (v, col) in row.iter_mut().zip(&self.schema.columns) {
            if !v.is_null() && col.ty != DataType::Any && v.data_type() != col.ty {
                *v = v.cast_to(col.ty)?;
            }
        }
        Ok(row)
    }

    /// Outcome of inserting one row.
    pub fn insert_row(
        &mut self,
        row: Row,
        on_conflict: Option<&ResolvedConflict>,
    ) -> Result<InsertOutcome> {
        let row = self.coerce(row)?;
        if let Some(primary) = &mut self.primary {
            let key = primary.key_for(&row);
            if let Some(&existing_idx) = primary.map.get(&key) {
                match on_conflict {
                    None => {
                        return Err(EngineError::exec(format!(
                            "UNIQUE constraint violated on table '{}'",
                            self.name
                        )));
                    }
                    Some(ResolvedConflict::DoNothing) => return Ok(InsertOutcome::Ignored),
                    Some(ResolvedConflict::DoUpdate) => {
                        return Ok(InsertOutcome::Conflict {
                            existing_idx,
                            proposed: row,
                        });
                    }
                }
            }
            Arc::make_mut(&mut primary.map).insert(key, self.rows.len());
        }
        let idx = self.rows.len();
        self.chunks = self.chunks.appended(&row);
        Arc::make_mut(&mut self.rows).push(row.clone());
        for index in &mut self.secondary {
            let key: Vec<Value> = index.key_columns.iter().map(|&i| row[i].clone()).collect();
            Arc::make_mut(&mut index.map)
                .entry(key)
                .or_default()
                .push(idx);
        }
        Ok(InsertOutcome::Inserted)
    }

    /// Replace the row at `idx` with `row` (used by ON CONFLICT DO UPDATE and
    /// UPDATE). Maintains indexes. Key columns are compared in place first,
    /// so the common UPDATE that leaves keys untouched allocates no key
    /// tuples at all.
    pub fn replace_row(&mut self, idx: usize, row: Row) -> Result<()> {
        let row = self.coerce(row)?;
        let old = &self.rows[idx];
        if let Some(primary) = &self.primary {
            if !primary.key_columns.iter().all(|&i| old[i] == row[i]) {
                let old_key = primary.key_for(old);
                let new_key = primary.key_for(&row);
                if primary.map.contains_key(&new_key) {
                    return Err(EngineError::exec(format!(
                        "UNIQUE constraint violated on table '{}'",
                        self.name
                    )));
                }
                let map = Arc::make_mut(&mut self.primary.as_mut().expect("checked above").map);
                map.remove(&old_key);
                map.insert(new_key, idx);
            }
        }
        for index in &mut self.secondary {
            if index.key_columns.iter().all(|&i| old[i] == row[i]) {
                continue;
            }
            let old_key: Vec<Value> = index.key_columns.iter().map(|&i| old[i].clone()).collect();
            let new_key: Vec<Value> = index.key_columns.iter().map(|&i| row[i].clone()).collect();
            let map = Arc::make_mut(&mut index.map);
            if let Some(list) = map.get_mut(&old_key) {
                list.retain(|&r| r != idx);
                if list.is_empty() {
                    map.remove(&old_key);
                }
            }
            map.entry(new_key).or_default().push(idx);
        }
        self.chunks = ChunkSlot::empty();
        Arc::make_mut(&mut self.rows)[idx] = row;
        Ok(())
    }

    /// Delete the rows at the given indexes, maintaining indexes
    /// incrementally: deleted keys are removed and surviving entries have
    /// their row indexes shifted in place (no re-hash, no key clones). Mass
    /// deletes fall back to a wholesale rebuild, which is cheaper than
    /// patching when most entries are going away anyway.
    pub fn delete_rows(&mut self, mut idxs: Vec<usize>) -> Result<usize> {
        idxs.sort_unstable();
        idxs.dedup();
        if idxs.is_empty() {
            return Ok(0);
        }
        let incremental = idxs.len() * 2 <= self.rows.len();
        if incremental {
            // Remove the deleted rows' keys while the rows are still present.
            if let Some(primary) = &mut self.primary {
                let map = Arc::make_mut(&mut primary.map);
                for &i in &idxs {
                    let key: Vec<Value> = primary
                        .key_columns
                        .iter()
                        .map(|&c| self.rows[i][c].clone())
                        .collect();
                    map.remove(&key);
                }
            }
            for index in &mut self.secondary {
                let map = Arc::make_mut(&mut index.map);
                for &i in &idxs {
                    let key: Vec<Value> = index
                        .key_columns
                        .iter()
                        .map(|&c| self.rows[i][c].clone())
                        .collect();
                    if let Some(list) = map.get_mut(&key) {
                        list.retain(|&r| r != i);
                        if list.is_empty() {
                            map.remove(&key);
                        }
                    }
                }
            }
        }
        self.chunks = ChunkSlot::empty();
        let rows = Arc::make_mut(&mut self.rows);
        let mut keep = vec![true; rows.len()];
        for &i in &idxs {
            keep[i] = false;
        }
        let mut i = 0;
        rows.retain(|_| {
            let k = keep[i];
            i += 1;
            k
        });
        if incremental {
            // Surviving row index `i` moved down by the number of deleted
            // indexes below it; patch entries in place.
            let shift = |i: usize| i - idxs.partition_point(|&d| d < i);
            if let Some(primary) = &mut self.primary {
                for v in Arc::make_mut(&mut primary.map).values_mut() {
                    *v = shift(*v);
                }
            }
            for index in &mut self.secondary {
                for list in Arc::make_mut(&mut index.map).values_mut() {
                    for v in list.iter_mut() {
                        *v = shift(*v);
                    }
                }
            }
        } else {
            self.rebuild_indexes()?;
        }
        Ok(idxs.len())
    }

    /// Create an index over the named columns, building its map from the
    /// current rows. A unique index on a table without a primary key becomes
    /// the primary index; any other index (including `UNIQUE` on a table
    /// that already has a primary key) is maintained as a secondary index.
    /// This is the single implementation behind `CREATE [UNIQUE] INDEX` and
    /// write-ahead-log replay, so recovery rebuilds exactly the structures
    /// the original statement did.
    pub fn create_index(&mut self, name: &str, columns: &[String], unique: bool) -> Result<()> {
        let mut key_columns = Vec::with_capacity(columns.len());
        for c in columns {
            key_columns.push(self.schema.position(c).ok_or_else(|| {
                EngineError::catalog(format!("column '{c}' not found in table '{}'", self.name))
            })?);
        }
        if self.secondary.iter().any(|s| s.name == name) {
            return Err(EngineError::catalog(format!(
                "index '{name}' already exists"
            )));
        }
        if unique && self.primary.is_none() {
            let mut map = HashMap::with_capacity(self.rows.len());
            for (i, row) in self.rows.iter().enumerate() {
                let key: Vec<Value> = key_columns.iter().map(|&c| row[c].clone()).collect();
                if map.insert(key, i).is_some() {
                    return Err(EngineError::exec(format!(
                        "cannot create unique index '{name}': duplicate keys"
                    )));
                }
            }
            self.primary = Some(UniqueIndex {
                key_columns,
                map: Arc::new(map),
            });
        } else {
            let mut map: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
            for (i, row) in self.rows.iter().enumerate() {
                let key: Vec<Value> = key_columns.iter().map(|&c| row[c].clone()).collect();
                map.entry(key).or_default().push(i);
            }
            self.secondary.push(SecondaryIndex {
                name: name.to_string(),
                key_columns,
                map: Arc::new(map),
            });
        }
        Ok(())
    }

    /// Whether an index with this name exists on the table.
    pub fn has_index(&self, name: &str) -> bool {
        self.secondary.iter().any(|s| s.name == name)
    }

    /// Rebuild primary and secondary indexes from current rows.
    pub fn rebuild_indexes(&mut self) -> Result<()> {
        if let Some(primary) = &mut self.primary {
            let map = Arc::make_mut(&mut primary.map);
            map.clear();
            map.reserve(self.rows.len());
            for (i, row) in self.rows.iter().enumerate() {
                let key: Vec<Value> = primary
                    .key_columns
                    .iter()
                    .map(|&c| row[c].clone())
                    .collect();
                if map.insert(key, i).is_some() {
                    return Err(EngineError::exec(format!(
                        "UNIQUE constraint violated on table '{}'",
                        self.name
                    )));
                }
            }
        }
        for index in &mut self.secondary {
            let map = Arc::make_mut(&mut index.map);
            map.clear();
            for (i, row) in self.rows.iter().enumerate() {
                let key: Vec<Value> = index.key_columns.iter().map(|&c| row[c].clone()).collect();
                map.entry(key).or_default().push(i);
            }
        }
        Ok(())
    }
}

/// How an insert resolves conflicts (planner-resolved form of the AST).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedConflict {
    DoNothing,
    DoUpdate,
}

/// Result of inserting a single row.
#[derive(Debug)]
pub enum InsertOutcome {
    Inserted,
    Ignored,
    /// A conflicting row exists; the caller runs the DO UPDATE assignments.
    Conflict {
        existing_idx: usize,
        proposed: Row,
    },
}

/// The catalog: a name → table map (case-insensitive names).
///
/// `Clone` is cheap (rows and index maps are both shared behind `Arc` with
/// copy-on-write maintenance) and backs the engine's snapshot-based
/// transactions.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: HashMap<String, Table>,
}

impl Catalog {
    pub fn new() -> Self {
        Self::default()
    }

    fn key(name: &str) -> String {
        name.to_ascii_lowercase()
    }

    /// Install a table. Returns whether the table was actually created
    /// (`false` only for an `IF NOT EXISTS` no-op), so callers can decide
    /// whether to log the DDL.
    pub fn create_table(&mut self, table: Table, if_not_exists: bool) -> Result<bool> {
        let key = Self::key(&table.name);
        if self.tables.contains_key(&key) {
            if if_not_exists {
                return Ok(false);
            }
            return Err(EngineError::catalog(format!(
                "table '{}' already exists",
                table.name
            )));
        }
        self.tables.insert(key, table);
        Ok(true)
    }

    /// Remove a table. Returns whether a table was actually dropped
    /// (`false` only for an `IF EXISTS` no-op).
    pub fn drop_table(&mut self, name: &str, if_exists: bool) -> Result<bool> {
        if self.tables.remove(&Self::key(name)).is_none() {
            if if_exists {
                return Ok(false);
            }
            return Err(EngineError::catalog(format!(
                "table '{name}' does not exist"
            )));
        }
        Ok(true)
    }

    pub fn get(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(&Self::key(name))
            .ok_or_else(|| EngineError::catalog(format!("table '{name}' does not exist")))
    }

    pub fn get_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(&Self::key(name))
            .ok_or_else(|| EngineError::catalog(format!("table '{name}' does not exist")))
    }

    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(&Self::key(name))
    }

    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.values().map(|t| t.name.clone()).collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema_jk() -> Schema {
        Schema::new(vec![
            Column {
                name: "j".into(),
                ty: DataType::Text,
            },
            Column {
                name: "k".into(),
                ty: DataType::Integer,
            },
            Column {
                name: "w".into(),
                ty: DataType::Real,
            },
        ])
    }

    #[test]
    fn insert_and_pk_conflict() {
        let mut t = Table::new("c".into(), schema_jk(), &["j".into(), "k".into()]).unwrap();
        let row = vec![Value::text("a"), Value::Int(1), Value::Float(0.5)];
        assert!(matches!(
            t.insert_row(row.clone(), None).unwrap(),
            InsertOutcome::Inserted
        ));
        assert!(t.insert_row(row.clone(), None).is_err());
        assert!(matches!(
            t.insert_row(row.clone(), Some(&ResolvedConflict::DoNothing))
                .unwrap(),
            InsertOutcome::Ignored
        ));
        assert!(matches!(
            t.insert_row(row, Some(&ResolvedConflict::DoUpdate))
                .unwrap(),
            InsertOutcome::Conflict {
                existing_idx: 0,
                ..
            }
        ));
    }

    #[test]
    fn coercion_applies_declared_types() {
        let mut t = Table::new("c".into(), schema_jk(), &[]).unwrap();
        t.insert_row(vec![Value::Int(7), Value::text("3"), Value::Int(1)], None)
            .unwrap();
        let row = &t.rows[0];
        assert_eq!(row[0], Value::text("7"));
        assert_eq!(row[1], Value::Int(3));
        assert_eq!(row[2], Value::Float(1.0));
    }

    #[test]
    fn delete_rebuilds_pk() {
        let mut t = Table::new("c".into(), schema_jk(), &["j".into()]).unwrap();
        for i in 0..5 {
            t.insert_row(
                vec![
                    Value::text(format!("x{i}")),
                    Value::Int(i),
                    Value::Float(0.0),
                ],
                None,
            )
            .unwrap();
        }
        t.delete_rows(vec![1, 3]).unwrap();
        assert_eq!(t.row_count(), 3);
        let primary = t.primary.as_ref().unwrap();
        assert_eq!(primary.map.len(), 3);
        assert_eq!(primary.map[&vec![Value::text("x4")]], 2);
    }

    #[test]
    fn replace_row_updates_key() {
        let mut t = Table::new("c".into(), schema_jk(), &["j".into()]).unwrap();
        t.insert_row(
            vec![Value::text("a"), Value::Int(1), Value::Float(0.0)],
            None,
        )
        .unwrap();
        t.replace_row(0, vec![Value::text("b"), Value::Int(1), Value::Float(0.0)])
            .unwrap();
        let primary = t.primary.as_ref().unwrap();
        assert!(primary.map.contains_key(&vec![Value::text("b")]));
        assert!(!primary.map.contains_key(&vec![Value::text("a")]));
    }

    #[test]
    fn incremental_delete_patches_secondary_index() {
        let mut t = Table::new("c".into(), schema_jk(), &["j".into()]).unwrap();
        t.secondary.push(SecondaryIndex {
            name: "c_k".into(),
            key_columns: vec![1],
            map: Arc::new(HashMap::new()),
        });
        for i in 0..10 {
            t.insert_row(
                vec![
                    Value::text(format!("x{i}")),
                    Value::Int(i % 3),
                    Value::Float(0.0),
                ],
                None,
            )
            .unwrap();
        }
        // Deletes a minority of rows: the incremental patch path.
        t.delete_rows(vec![0, 4]).unwrap();
        assert_eq!(t.row_count(), 8);
        let mut rebuilt = t.clone();
        rebuilt.rebuild_indexes().unwrap();
        assert_eq!(
            *t.primary.as_ref().unwrap().map,
            *rebuilt.primary.as_ref().unwrap().map
        );
        let patched = &t.secondary[0].map;
        let fresh = &rebuilt.secondary[0].map;
        assert_eq!(patched.len(), fresh.len());
        for (k, list) in patched.iter() {
            let mut a = list.clone();
            let mut b = fresh[k].clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "secondary entries diverge for key {k:?}");
        }
        // Deletes a majority: the rebuild fallback path.
        t.delete_rows((0..6).collect()).unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.primary.as_ref().unwrap().map.len(), 2);
        let total: usize = t.secondary[0].map.values().map(Vec::len).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn catalog_case_insensitive() {
        let mut c = Catalog::new();
        c.create_table(Table::new("Foo".into(), schema_jk(), &[]).unwrap(), false)
            .unwrap();
        assert!(c.get("foo").is_ok());
        assert!(c.get("FOO").is_ok());
        assert!(c
            .create_table(Table::new("FOO".into(), schema_jk(), &[]).unwrap(), false)
            .is_err());
        c.drop_table("fOo", false).unwrap();
        assert!(c.get("foo").is_err());
    }
}
