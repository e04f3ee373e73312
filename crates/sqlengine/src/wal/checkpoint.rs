//! Checkpoints: a JSON image of the whole catalog plus the WAL sequence
//! number it covers.
//!
//! The table payload reuses the snapshot writer (`snapshot.rs`), extended
//! with a `seq` field and an `indexes` section — secondary indexes are part
//! of durable state (recreating them wholesale on every recovery would make
//! recovery time data-dependent), while the snapshot format proper only
//! records primary keys.
//!
//! Checkpoints are written with [`StorageIo::write_atomic`], so a reader
//! sees either the old or the new checkpoint, never a torn one. Recovery
//! pairs the checkpoint's `seq` with the frame sequence numbers in the WAL:
//! frames with `seq` below the checkpoint's are already folded in and are
//! skipped (this is what makes a crash *between* checkpoint publication and
//! WAL truncation safe).
//!
//! [`StorageIo::write_atomic`]: super::StorageIo::write_atomic

use crate::catalog::Catalog;
use crate::error::{EngineError, Result};
use crate::json::{write_json_string, Json, Reader};
use crate::snapshot::Snapshot;

/// Serialize the catalog and covered sequence number.
pub(crate) fn encode_checkpoint(catalog: &Catalog, seq: u64) -> String {
    let snapshot = Snapshot::capture_catalog(catalog);
    let mut out = String::with_capacity(256);
    out.push_str("{\"seq\":");
    out.push_str(&seq.to_string());
    out.push_str(",\"tables\":");
    snapshot.write_tables(&mut out);
    out.push_str(",\"indexes\":{");
    let mut first_table = true;
    for name in catalog.table_names() {
        let table = catalog.get(&name).expect("table_names() names exist");
        if table.secondary.is_empty() {
            continue;
        }
        if !first_table {
            out.push(',');
        }
        first_table = false;
        write_json_string(&mut out, &name);
        out.push_str(":[");
        for (i, index) in table.secondary.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_json_string(&mut out, &index.name);
            out.push_str(",\"columns\":[");
            for (j, &col) in index.key_columns.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write_json_string(&mut out, &table.schema.columns[col].name);
            }
            out.push_str("]}");
        }
        out.push(']');
    }
    out.push_str("}}");
    out
}

fn corrupt(msg: impl std::fmt::Display) -> EngineError {
    EngineError::wal(format!("corrupt checkpoint: {msg}"))
}

/// Parse a checkpoint back into `(covered_seq, catalog)`: one pass over the
/// text, each table's rows decoded straight into it, and each index built
/// once, after its table's rows are in.
pub(crate) fn decode_checkpoint(json: &str) -> Result<(u64, Catalog)> {
    let mut reader = Reader::new(json);
    let (mut seq, mut snapshot, mut indexes) = (None, None, None);
    let read = reader.object(|r, key| {
        match key.as_str() {
            "seq" if seq.is_none() => seq = Some(r.value()?),
            "tables" if snapshot.is_none() => snapshot = Some(Snapshot::read_tables(r)?),
            "indexes" if indexes.is_none() => indexes = Some(r.value()?),
            _ => {
                r.value()?;
            }
        }
        Ok(())
    });
    read.and_then(|()| reader.finish())
        .map_err(|e| corrupt(e.message()))?;
    let seq = seq
        .as_ref()
        .and_then(Json::as_u64)
        .ok_or_else(|| corrupt("missing 'seq'"))?;
    let snapshot = snapshot.ok_or_else(|| corrupt("missing 'tables'"))?;
    let mut catalog = Catalog::new();
    for table in snapshot.build_tables().map_err(|e| corrupt(e.message()))? {
        catalog.create_table(table, false)?;
    }
    if let Some(indexes) = indexes {
        let per_table = indexes
            .as_object()
            .ok_or_else(|| corrupt("'indexes' is not an object"))?;
        for (table_name, list) in per_table {
            let table = catalog
                .get_mut(table_name)
                .map_err(|_| corrupt(format!("indexes refer to unknown table '{table_name}'")))?;
            let list = list
                .as_array()
                .ok_or_else(|| corrupt("index list is not an array"))?;
            for entry in list {
                let name = entry
                    .get("name")
                    .and_then(|v| v.as_str())
                    .ok_or_else(|| corrupt("index entry missing 'name'"))?;
                let columns = entry
                    .get("columns")
                    .and_then(|v| v.as_array())
                    .ok_or_else(|| corrupt("index entry missing 'columns'"))?
                    .iter()
                    .map(|c| {
                        c.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| corrupt("index column is not a string"))
                    })
                    .collect::<Result<Vec<_>>>()?;
                table.create_index(name, &columns, false)?;
            }
        }
    }
    Ok((seq, catalog))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Column, Schema, Table};
    use crate::value::{DataType, Row, Value};

    #[test]
    fn checkpoint_roundtrip_with_indexes() {
        let mut source = Catalog::new();
        let schema = Schema::new(vec![
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
        ]);
        let mut corpus = Table::new("corpus".into(), schema, &["j".into(), "k".into()]).unwrap();
        for (j, k, w) in [("a", 1, 0.5), ("b", 2, 1.5), ("a", 2, 2.5)] {
            corpus
                .insert_row(vec![Value::text(j), Value::Int(k), Value::Float(w)], None)
                .unwrap();
        }
        corpus
            .create_index("corpus_k", &["k".into()], false)
            .unwrap();
        source.create_table(corpus, false).unwrap();
        let plain_schema = Schema::new(vec![Column {
            name: "x".into(),
            ty: DataType::Integer,
        }]);
        let mut plain = Table::new("plain".into(), plain_schema, &[]).unwrap();
        plain.insert_row(vec![Value::Int(10)], None).unwrap();
        plain.insert_row(vec![Value::Int(20)], None).unwrap();
        source.create_table(plain, false).unwrap();

        let json = encode_checkpoint(&source, 99);
        let (seq, catalog) = decode_checkpoint(&json).unwrap();
        assert_eq!(seq, 99);
        let corpus = catalog.get("corpus").unwrap();
        assert_eq!(corpus.row_count(), 3);
        assert!(corpus.primary.is_some(), "primary key survives");
        assert!(corpus.has_index("corpus_k"), "secondary index survives");
        // The rebuilt index actually resolves lookups.
        let idx = &corpus.secondary[0];
        assert_eq!(idx.map[&vec![Value::Int(2)]].len(), 2);
        assert_eq!(catalog.get("plain").unwrap().row_count(), 2);
    }

    /// Reopening from a checkpoint is parse + insert, the same order of work
    /// as replaying the rows from the log; a parser that is superlinear in
    /// the file size is what breaks this first.
    #[test]
    fn a_40k_row_checkpoint_restores_within_4x_of_replaying_the_rows() {
        use crate::{Database, EngineConfig, MemIo, StorageIo};
        use std::sync::Arc;
        use std::time::{Duration, Instant};

        let io: Arc<dyn StorageIo> = Arc::new(MemIo::new());
        // No automatic checkpoint: the test folds the log itself.
        let config = EngineConfig::default().with_checkpoint_after_bytes(0);
        let open = || Database::open_with_io(Arc::clone(&io), config).unwrap();
        let fastest_reopen = || -> Duration {
            let timed = (0..3).map(|_| {
                let start = Instant::now();
                let db = open();
                let elapsed = start.elapsed();
                assert_eq!(db.table_rows("corpus").unwrap(), 40_000);
                elapsed
            });
            timed.min().unwrap()
        };

        let db = open();
        db.execute("CREATE TABLE corpus (n INTEGER, j TEXT, w REAL)")
            .unwrap();
        for batch in 0..40i64 {
            let rows = (0..1_000i64).map(|i| {
                let n = batch * 1_000 + i;
                vec![
                    Value::Int(n),
                    Value::text(format!("token{}", n % 977)),
                    Value::Float(n as f64 / 8.0),
                ]
            });
            db.insert_rows("corpus", rows.collect()).unwrap();
        }
        drop(db);
        let replay = fastest_reopen();
        let db = open();
        db.checkpoint().unwrap();
        assert_eq!(db.wal_bytes(), Some(0), "the checkpoint folded the log");
        drop(db);
        let restore = fastest_reopen();
        assert!(
            restore < replay * 4,
            "checkpoint restore {restore:?} against WAL replay {replay:?}"
        );
    }

    /// A value of column type `ty`: NULL at times, floats from the edges
    /// (NaN, ±inf, -0.0, the extremes), text from a palette of escapes and
    /// multi-byte characters.
    fn value_of(rng: &mut seeded::SplitMix64, ty: DataType) -> Value {
        const FLOATS: [f64; 8] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.1,
            1e300,
            f64::MIN_POSITIVE,
            -2.5,
        ];
        const CHARS: [&str; 11] = [
            "a", "Z", "7", " ", "\"", "\\", "\n", "\t", "\u{1}", "é", "𝄞",
        ];
        if rng.chance(0.15) {
            return Value::Null;
        }
        match ty {
            DataType::Integer => Value::Int(*rng.pick(&[0, -1, i64::MIN, i64::MAX, 42])),
            DataType::Real if rng.chance(0.5) => Value::Float(*rng.pick(&FLOATS)),
            DataType::Real => Value::Float(rng.unit_f64() * 1e6 - 5e5),
            DataType::Text => {
                let len = rng.below(6);
                Value::text((0..len).map(|_| *rng.pick(&CHARS)).collect::<String>())
            }
            DataType::Any => {
                let ty = *rng.pick(&[DataType::Integer, DataType::Real, DataType::Text]);
                value_of(rng, ty)
            }
        }
    }

    /// A catalog of up to four tables: with and without a primary key
    /// (over a unique `id`, alone or with another column), with up to two
    /// secondary indexes, empty or with up to 30 rows, filled row by row.
    fn random_catalog(rng: &mut seeded::SplitMix64) -> Catalog {
        const TYPES: [DataType; 4] = [
            DataType::Integer,
            DataType::Real,
            DataType::Text,
            DataType::Any,
        ];
        let mut catalog = Catalog::new();
        for t in 0..rng.below(5) {
            let mut columns = vec![Column {
                name: "id".into(),
                ty: DataType::Integer,
            }];
            for c in 0..1 + rng.below(4) {
                columns.push(Column {
                    name: format!("c{c}"),
                    ty: *rng.pick(&TYPES),
                });
            }
            let width = columns.len();
            let primary_key: Vec<String> = match rng.below(3) {
                0 => vec![],
                1 => vec!["id".into()],
                _ => vec!["c0".into(), "id".into()],
            };
            let mut table =
                Table::new(format!("t{t}"), Schema::new(columns), &primary_key).unwrap();
            for i in 0..rng.below(3) {
                let on: Vec<String> = (0..1 + rng.below(2))
                    .map(|_| table.schema.columns[rng.below(width)].name.clone())
                    .collect();
                table
                    .create_index(&format!("t{t}_i{i}"), &on, false)
                    .unwrap();
            }
            let rows = if rng.chance(0.2) { 0 } else { rng.below(31) };
            for id in 0..rows {
                let mut row = vec![Value::Int(id as i64)];
                for c in 1..width {
                    row.push(value_of(rng, table.schema.columns[c].ty));
                }
                table.insert_row(row, None).unwrap();
            }
            catalog.create_table(table, false).unwrap();
        }
        catalog
    }

    /// Equal as stored: floats by their bits (NaN and -0.0 included).
    fn same_values(a: &[Row], b: &[Row]) -> bool {
        let same = |x: &Value, y: &Value| match (x, y) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            (Value::Float(_), _) | (_, Value::Float(_)) => false,
            _ => x == y,
        };
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.len() == y.len() && x.iter().zip(y).all(|(x, y)| same(x, y)))
    }

    #[test]
    fn a_decoded_checkpoint_is_the_catalog_that_was_encoded() {
        seeded::cases(96, 0xc4ec_0001, |rng| {
            let source = random_catalog(rng);
            let seq = rng.next_u64() >> 1;
            let json = encode_checkpoint(&source, seq);
            let (decoded_seq, decoded) = decode_checkpoint(&json).unwrap();
            assert_eq!(decoded_seq, seq);
            assert_eq!(decoded.table_names(), source.table_names());
            for name in source.table_names() {
                let (want, got) = (source.get(&name).unwrap(), decoded.get(&name).unwrap());
                assert_eq!(got.schema, want.schema);
                assert!(same_values(&got.rows, &want.rows), "{name}: rows differ");
                match (&got.primary, &want.primary) {
                    (Some(got), Some(want)) => {
                        assert_eq!(got.key_columns, want.key_columns);
                        assert_eq!(*got.map, *want.map, "{name}: primary map");
                    }
                    (None, None) => {}
                    _ => panic!("{name}: primary key presence differs"),
                }
                assert_eq!(got.secondary.len(), want.secondary.len());
                for (got, want) in got.secondary.iter().zip(&want.secondary) {
                    assert_eq!(
                        (&got.name, &got.key_columns),
                        (&want.name, &want.key_columns)
                    );
                    assert_eq!(*got.map, *want.map, "{name}: index {}", want.name);
                }
            }
            assert_eq!(
                encode_checkpoint(&decoded, seq),
                json,
                "re-encodes to the same bytes"
            );
        });
    }

    #[test]
    fn corrupt_checkpoints_are_clean_errors() {
        for bad in [
            "",
            "{",
            "{}",
            "{\"seq\":1}",
            "{\"seq\":-4,\"tables\":{}}",
            "{\"seq\":1,\"tables\":{\"t\":{\"columns\":[[\"a\",\"Bogus\"]],\"primary_key\":[],\"rows\":[]}}}",
            "{\"seq\":1,\"tables\":{},\"indexes\":{\"missing\":[{\"name\":\"i\",\"columns\":[\"x\"]}]}}",
        ] {
            let err = decode_checkpoint(bad).expect_err(&format!("{bad:?} must fail"));
            assert!(
                matches!(err, EngineError::Wal(_)),
                "expected Wal error for {bad:?}, got {err:?}"
            );
        }
    }
}
