//! Database snapshots: serialize the whole catalog to JSON and back.
//!
//! This backs the paper's "cost-effective model serving" discussion (§7): a
//! deployed BornSQL model is just one or two tables, so a database snapshot
//! *is* the model artifact. Snapshots are plain JSON for auditable diffs.
//!
//! The same writer backs the durability layer's checkpoints (see
//! [`crate::wal`]): a checkpoint is a snapshot plus the WAL sequence number
//! it covers. The codec is [`crate::json`], in which every value round-trips
//! exactly. Decoding reads each table's rows straight into its row vector
//! ([`crate::json::Reader::rows`]) and builds the table's indexes once, after
//! all its rows are in ([`Table::with_rows`]).

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::catalog::{Catalog, Column, Schema, Table};
use crate::engine::Database;
use crate::error::{EngineError, Result};
use crate::json::{write_json_string, write_json_value, Json, Reader};
use crate::value::{DataType, Row};

/// Serializable form of one table. The rows are the table's own shared
/// vector: capturing copies nothing.
pub(crate) struct TableDump {
    pub columns: Vec<(String, DataType)>,
    pub primary_key: Vec<String>,
    pub rows: Arc<Vec<Row>>,
}

/// Serializable form of the whole database.
pub struct Snapshot {
    pub(crate) tables: BTreeMap<String, TableDump>,
}

impl Snapshot {
    /// Capture every table of `db`, under one catalog read lock.
    pub fn capture(db: &Database) -> Result<Snapshot> {
        Ok(Snapshot::capture_catalog(&db.read_catalog()))
    }

    /// Capture from a catalog reference directly. Used by the durability
    /// layer, which checkpoints while already holding the catalog write lock
    /// (going through [`Snapshot::capture`] would deadlock on re-entry).
    pub(crate) fn capture_catalog(catalog: &Catalog) -> Snapshot {
        let mut tables = BTreeMap::new();
        for name in catalog.table_names() {
            let t = catalog.get(&name).expect("table_names() names exist");
            let dump = TableDump {
                columns: t
                    .schema
                    .columns
                    .iter()
                    .map(|c| (c.name.clone(), c.ty))
                    .collect(),
                primary_key: t.primary_key_names(),
                rows: Arc::clone(&t.rows),
            };
            tables.insert(name, dump);
        }
        Snapshot { tables }
    }

    /// Build the catalog tables this snapshot describes (rows in, all
    /// indexes built). Shared by [`Snapshot::restore_into`] and WAL
    /// recovery.
    pub(crate) fn build_tables(self) -> Result<Vec<Table>> {
        let mut out = Vec::with_capacity(self.tables.len());
        for (name, dump) in self.tables {
            let schema = Schema::new(
                dump.columns
                    .into_iter()
                    .map(|(name, ty)| Column { name, ty })
                    .collect(),
            );
            // A decoded dump owns its rows; one captured from a live table
            // shares them and is copied here.
            let rows = Arc::try_unwrap(dump.rows).unwrap_or_else(|shared| (*shared).clone());
            out.push(Table::new(name, schema, &dump.primary_key)?.with_rows(rows)?);
        }
        Ok(out)
    }

    /// Restore into a fresh database (tables must not already exist).
    pub fn restore_into(self, db: &Database) -> Result<()> {
        for table in self.build_tables()? {
            db.install_table(table)?;
        }
        Ok(())
    }

    /// Serialize to a JSON string.
    pub fn to_json(&self) -> Result<String> {
        let mut out = String::with_capacity(256);
        out.push_str("{\"tables\":");
        self.write_tables(&mut out);
        out.push('}');
        Ok(out)
    }

    /// Write the `{"name":{...}}` table map (shared with checkpoints).
    pub(crate) fn write_tables(&self, out: &mut String) {
        out.push('{');
        for (i, (name, dump)) in self.tables.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(out, name);
            out.push_str(":{\"columns\":[");
            for (j, (col, ty)) in dump.columns.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('[');
                write_json_string(out, col);
                out.push(',');
                write_json_string(out, datatype_name(*ty));
                out.push(']');
            }
            out.push_str("],\"primary_key\":[");
            for (j, pk) in dump.primary_key.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write_json_string(out, pk);
            }
            out.push_str("],\"rows\":[");
            for (j, row) in dump.rows.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('[');
                for (k, v) in row.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    write_json_value(out, v);
                }
                out.push(']');
            }
            out.push_str("]}");
        }
        out.push('}');
    }

    /// Deserialize from a JSON string.
    pub fn from_json(json: &str) -> Result<Snapshot> {
        let mut reader = Reader::new(json);
        let mut tables = None;
        let read = reader.object(|r, key| {
            if key == "tables" && tables.is_none() {
                tables = Some(Self::read_tables(r)?);
            } else {
                r.value()?;
            }
            Ok(())
        });
        read.and_then(|()| reader.finish())
            .map_err(|e| corrupt(e.message()))?;
        tables.ok_or_else(|| corrupt("missing 'tables' key"))
    }

    /// Read a `{"name":{...}}` table map (shared with checkpoints): the
    /// columns and primary key as trees, the rows straight into each
    /// table's row vector. A key given twice counts the first time. Errors
    /// carry no prefix: the caller names the document.
    pub(crate) fn read_tables(reader: &mut Reader) -> Result<Snapshot> {
        let mut out = BTreeMap::new();
        reader.object(|r, name| {
            let (mut columns, mut primary_key, mut rows) = (None, None, None);
            r.object(|r, key| {
                match key.as_str() {
                    "columns" if columns.is_none() => columns = Some(columns_of(&r.value()?)?),
                    "primary_key" if primary_key.is_none() => {
                        primary_key = Some(names_of(&r.value()?)?);
                    }
                    "rows" if rows.is_none() => rows = Some(r.rows()?),
                    _ => {
                        r.value()?;
                    }
                }
                Ok(())
            })?;
            let missing = |key: &str| EngineError::exec(format!("table missing '{key}'"));
            let dump = TableDump {
                columns: columns.ok_or_else(|| missing("columns"))?,
                primary_key: primary_key.ok_or_else(|| missing("primary_key"))?,
                rows: Arc::new(rows.ok_or_else(|| missing("rows"))?),
            };
            out.insert(name, dump);
            Ok(())
        })?;
        Ok(Snapshot { tables: out })
    }
}

/// A table's `columns`: `[name, type]` pairs.
fn columns_of(columns: &Json) -> Result<Vec<(String, DataType)>> {
    let bad = |msg: &str| EngineError::exec(msg);
    let columns = columns
        .as_array()
        .ok_or_else(|| bad("'columns' is not an array"))?;
    columns
        .iter()
        .map(|c| {
            let pair = c
                .as_array()
                .filter(|a| a.len() == 2)
                .ok_or_else(|| bad("column entry is not a 2-array"))?;
            let name = pair[0]
                .as_str()
                .ok_or_else(|| bad("column name is not a string"))?;
            let ty = pair[1]
                .as_str()
                .and_then(datatype_from_name)
                .ok_or_else(|| bad("unknown column type"))?;
            Ok((name.to_string(), ty))
        })
        .collect()
}

/// A table's `primary_key`: column names.
fn names_of(names: &Json) -> Result<Vec<String>> {
    let bad = |msg: &str| EngineError::exec(msg);
    let names = names
        .as_array()
        .ok_or_else(|| bad("'primary_key' is not an array"))?;
    names
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| bad("primary key entry is not a string"))
        })
        .collect()
}

fn corrupt(msg: impl std::fmt::Display) -> EngineError {
    EngineError::exec(format!("snapshot deserialization failed: {msg}"))
}

fn datatype_name(ty: DataType) -> &'static str {
    match ty {
        DataType::Integer => "Integer",
        DataType::Real => "Real",
        DataType::Text => "Text",
        DataType::Any => "Any",
    }
}

fn datatype_from_name(name: &str) -> Option<DataType> {
    match name {
        "Integer" => Some(DataType::Integer),
        "Real" => Some(DataType::Real),
        "Text" => Some(DataType::Text),
        "Any" => Some(DataType::Any),
        _ => None,
    }
}

impl Database {
    /// Persist the whole database to a JSON snapshot file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        let json = Snapshot::capture(self)?.to_json()?;
        std::fs::write(path.as_ref(), json)
            .map_err(|e| EngineError::exec(format!("cannot write snapshot: {e}")))
    }

    /// Open a database from a JSON snapshot file written by
    /// [`Database::save`].
    ///
    /// For a durable database with a write-ahead log and crash recovery, use
    /// [`Database::open`] / [`Database::persistent`] instead.
    pub fn open_snapshot(path: impl AsRef<std::path::Path>) -> Result<Database> {
        let json = std::fs::read_to_string(path.as_ref())
            .map_err(|e| EngineError::exec(format!("cannot read snapshot: {e}")))?;
        let db = Database::new();
        Snapshot::from_json(&json)?.restore_into(&db)?;
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn save_and_open_roundtrip_on_disk() {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT);
             INSERT INTO t VALUES (1, 'x'), (2, 'y');",
        )
        .unwrap();
        let path = std::env::temp_dir().join(format!(
            "sqlengine_snapshot_test_{}.json",
            std::process::id()
        ));
        db.save(&path).unwrap();
        let db2 = Database::open_snapshot(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(db2.table_rows("t").unwrap(), 2);
        assert!(db2.execute("INSERT INTO t VALUES (1, 'dup')").is_err());
    }

    #[test]
    fn snapshot_roundtrip_preserves_everything() {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE m_corpus (j TEXT, k INTEGER, w REAL, PRIMARY KEY (j, k));
             INSERT INTO m_corpus VALUES ('a', 17, 0.5), ('b', 26, 1.25);
             CREATE TABLE params (model TEXT PRIMARY KEY, a REAL, b REAL, h REAL);
             INSERT INTO params VALUES ('m', 0.5, 1.0, 1.0);",
        )
        .unwrap();

        let json = Snapshot::capture(&db).unwrap().to_json().unwrap();
        let db2 = Database::new();
        Snapshot::from_json(&json)
            .unwrap()
            .restore_into(&db2)
            .unwrap();

        let r = db2
            .query("SELECT j, k, w FROM m_corpus ORDER BY j")
            .unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::text("a"), Value::Int(17), Value::Float(0.5)],
                vec![Value::text("b"), Value::Int(26), Value::Float(1.25)],
            ]
        );
        // The primary key survived: upserts still work.
        db2.execute(
            "INSERT INTO m_corpus VALUES ('a', 17, 1.0) \
             ON CONFLICT (j, k) DO UPDATE SET w = m_corpus.w + excluded.w",
        )
        .unwrap();
        assert_eq!(
            db2.query("SELECT w FROM m_corpus WHERE j = 'a'")
                .unwrap()
                .rows[0][0],
            Value::Float(1.5)
        );
    }

    #[test]
    fn nulls_and_types_roundtrip() {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE t (a INTEGER, b REAL, c TEXT);
             INSERT INTO t VALUES (1, 2.5, 'x'), (NULL, NULL, NULL);",
        )
        .unwrap();
        let json = Snapshot::capture(&db).unwrap().to_json().unwrap();
        let db2 = Database::new();
        Snapshot::from_json(&json)
            .unwrap()
            .restore_into(&db2)
            .unwrap();
        let r = db2.query("SELECT a, b, c FROM t ORDER BY a").unwrap();
        assert_eq!(r.rows[0], vec![Value::Null, Value::Null, Value::Null]);
        assert_eq!(
            r.rows[1],
            vec![Value::Int(1), Value::Float(2.5), Value::text("x")]
        );
    }

    #[test]
    fn non_finite_floats_roundtrip() {
        // The old untagged serde codec wrote NaN/±inf as JSON null; the
        // tagged encoding must restore them exactly.
        let db = Database::new();
        db.execute("CREATE TABLE t (id INTEGER, v REAL)").unwrap();
        db.insert_rows(
            "t",
            vec![
                vec![Value::Int(1), Value::Float(f64::NAN)],
                vec![Value::Int(2), Value::Float(f64::INFINITY)],
                vec![Value::Int(3), Value::Float(f64::NEG_INFINITY)],
                vec![Value::Int(4), Value::Float(-0.0)],
                vec![Value::Int(5), Value::Null],
            ],
        )
        .unwrap();
        let json = Snapshot::capture(&db).unwrap().to_json().unwrap();
        let db2 = Database::new();
        Snapshot::from_json(&json)
            .unwrap()
            .restore_into(&db2)
            .unwrap();
        let r = db2.query("SELECT v FROM t ORDER BY id").unwrap();
        match &r.rows[0][0] {
            Value::Float(f) => assert!(f.is_nan(), "NaN must survive, got {f}"),
            other => panic!("expected NaN float, got {other:?}"),
        }
        assert_eq!(r.rows[1][0], Value::Float(f64::INFINITY));
        assert_eq!(r.rows[2][0], Value::Float(f64::NEG_INFINITY));
        match &r.rows[3][0] {
            Value::Float(f) => assert!(f.is_sign_negative() && *f == 0.0, "-0.0 must survive"),
            other => panic!("expected -0.0 float, got {other:?}"),
        }
        assert_eq!(r.rows[4][0], Value::Null);
    }

    #[test]
    fn tricky_strings_and_floats_roundtrip() {
        let db = Database::new();
        db.execute("CREATE TABLE t (id INTEGER, s TEXT, f REAL)")
            .unwrap();
        db.insert_rows(
            "t",
            vec![
                vec![
                    Value::Int(1),
                    Value::text("quote \" backslash \\ newline \n tab \t unicode é✓"),
                    Value::Float(0.1),
                ],
                vec![
                    Value::Int(2),
                    Value::text("control \u{0001} char"),
                    Value::Float(1e300),
                ],
                vec![
                    Value::Int(3),
                    Value::text(""),
                    Value::Float(f64::MIN_POSITIVE),
                ],
            ],
        )
        .unwrap();
        let json = Snapshot::capture(&db).unwrap().to_json().unwrap();
        let db2 = Database::new();
        Snapshot::from_json(&json)
            .unwrap()
            .restore_into(&db2)
            .unwrap();
        let orig = db.query("SELECT id, s, f FROM t ORDER BY id").unwrap();
        let restored = db2.query("SELECT id, s, f FROM t ORDER BY id").unwrap();
        assert_eq!(orig.rows, restored.rows);
    }

    #[test]
    fn legacy_serde_format_still_parses() {
        // Output captured from the previous serde_json-based codec.
        let json = r#"{"tables":{"t":{"columns":[["id","Integer"],["w","Real"],["s","Text"]],"primary_key":["id"],"rows":[[1,0.5,"x"],[2,null,null]]}}}"#;
        let db = Database::new();
        Snapshot::from_json(json)
            .unwrap()
            .restore_into(&db)
            .unwrap();
        let r = db.query("SELECT id, w, s FROM t ORDER BY id").unwrap();
        assert_eq!(
            r.rows[0],
            vec![Value::Int(1), Value::Float(0.5), Value::text("x")]
        );
        assert_eq!(r.rows[1], vec![Value::Int(2), Value::Null, Value::Null]);
    }
}
