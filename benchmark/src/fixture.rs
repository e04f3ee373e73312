//! The two data shapes, the engine settings, and the database under test.
//!
//! Every setting is fixed here in source: nothing about a run depends on
//! the environment, so two runs of one commit differ only by `--seed`.

use std::path::{Path, PathBuf};

use bornsql::{BornSqlModel, DataSpec, ModelOptions};
use sqlengine::{Database, EngineConfig, Row, SyncPolicy, Value};
use textproc::CountVectorizer;

use crate::gen::{Doc, CLASS_TAGS};

/// Name of the one model every workload trains.
pub const MODEL: &str = "bench";

/// Checkpoint threshold for durable runs: 1 MiB instead of the engine's
/// 4 MiB default, so that several checkpoint cycles fit in one short run
/// and bytes written per document has levelled off when it is read.
pub const CHECKPOINT_AFTER_BYTES: u64 = 1 << 20;

/// Settings of every in-memory database: the engine's release defaults
/// (parallelism 1, vectorized, plan cache, telemetry on; verify, trace off).
pub fn memory_config() -> EngineConfig {
    EngineConfig::default()
}

/// Settings of every durable database: an fsync before each statement
/// returns, no group commit (there is one writer), checkpoint at 1 MiB.
pub fn durable_config() -> EngineConfig {
    EngineConfig::default()
        .with_wal_sync(SyncPolicy::Always)
        .with_wal_group_commit(false)
        .with_checkpoint_after_bytes(CHECKPOINT_AFTER_BYTES)
}

/// How the documents are laid out in tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The paper's Figure 2 schema with its prefixed feature arms
    /// (`'abstract:' || lexeme AS j`). The prefix hides the item column
    /// from the planner, so every statement scans and hash-joins.
    Star,
    /// Pre-vectorized `features(n, term, cnt)` + `labels(n, label)` with an
    /// index on `features(n)` and bare-column arms: single-item statements
    /// become a few index probes.
    Flat,
}

impl Shape {
    pub fn name(self) -> &'static str {
        match self {
            Shape::Star => "star",
            Shape::Flat => "flat",
        }
    }

    fn ddl(self) -> &'static [&'static str] {
        match self {
            Shape::Star => &[
                "CREATE TABLE publication (id INTEGER PRIMARY KEY, pubname TEXT, asjc INTEGER, abstract TEXT)",
                "CREATE TABLE pub_author (pubid INTEGER, authid INTEGER)",
                "CREATE TABLE pub_keyword (pubid INTEGER, keyword TEXT)",
                "CREATE TABLE pub_lexeme (pubid INTEGER, lexeme TEXT, cnt REAL)",
            ],
            Shape::Flat => &[
                "CREATE TABLE labels (n INTEGER PRIMARY KEY, label TEXT)",
                "CREATE TABLE features (n INTEGER, term TEXT, cnt REAL)",
                "CREATE INDEX features_n ON features (n)",
            ],
        }
    }

    /// Tables that hold one or more rows per document, with the column
    /// that names the document.
    pub fn tables(self) -> &'static [(&'static str, &'static str)] {
        match self {
            Shape::Star => &[
                ("publication", "id"),
                ("pub_author", "pubid"),
                ("pub_keyword", "pubid"),
                ("pub_lexeme", "pubid"),
            ],
            Shape::Flat => &[("labels", "n"), ("features", "n")],
        }
    }

    pub fn model_options(self) -> ModelOptions {
        ModelOptions {
            class_type: match self {
                Shape::Star => "INTEGER",
                Shape::Flat => "TEXT",
            },
            ..ModelOptions::default()
        }
    }

    /// The class of a document as the model's `k` column prints it.
    pub fn class_of(self, doc: &Doc) -> String {
        match self {
            Shape::Star => (doc.asjc / 100).to_string(),
            Shape::Flat => CLASS_TAGS[doc.label].to_string(),
        }
    }

    /// The `(j, w)` features of a document exactly as the shape's `q_x`
    /// arms produce them: the oracle trains on these.
    pub fn features(self, doc: &Doc, vectorizer: &CountVectorizer) -> Vec<(String, f64)> {
        let lexemes = vectorizer.vectorize(&doc.abstract_text);
        match self {
            Shape::Flat => lexemes,
            Shape::Star => {
                let mut x = vec![(format!("pubname:{}", doc.venue), 1.0)];
                x.extend(doc.authors.iter().map(|a| (format!("authid:{a}"), 1.0)));
                x.extend(doc.keywords.iter().map(|k| (format!("keyword:{k}"), 1.0)));
                x.extend(
                    lexemes
                        .into_iter()
                        .map(|(l, c)| (format!("abstract:{l}"), c)),
                );
                x
            }
        }
    }

    /// Rows per table for a batch of documents, vectorizing the abstracts.
    pub fn rows(self, docs: &[Doc], vectorizer: &CountVectorizer) -> Vec<(&'static str, Vec<Row>)> {
        let lexeme_rows = |docs: &[Doc]| -> Vec<Row> {
            docs.iter()
                .flat_map(|d| {
                    vectorizer
                        .vectorize(&d.abstract_text)
                        .into_iter()
                        .map(move |(l, c)| vec![Value::Int(d.id), Value::text(l), Value::Float(c)])
                })
                .collect()
        };
        match self {
            Shape::Flat => vec![
                (
                    "labels",
                    docs.iter()
                        .map(|d| vec![Value::Int(d.id), Value::text(CLASS_TAGS[d.label])])
                        .collect(),
                ),
                ("features", lexeme_rows(docs)),
            ],
            Shape::Star => vec![
                (
                    "publication",
                    docs.iter()
                        .map(|d| {
                            vec![
                                Value::Int(d.id),
                                Value::text(&d.venue),
                                Value::Int(d.asjc),
                                Value::text(&d.abstract_text),
                            ]
                        })
                        .collect(),
                ),
                (
                    "pub_author",
                    docs.iter()
                        .flat_map(|d| {
                            d.authors
                                .iter()
                                .map(move |a| vec![Value::Int(d.id), Value::Int(*a)])
                        })
                        .collect(),
                ),
                (
                    "pub_keyword",
                    docs.iter()
                        .flat_map(|d| {
                            d.keywords
                                .iter()
                                .map(move |k| vec![Value::Int(d.id), Value::text(k)])
                        })
                        .collect(),
                ),
                ("pub_lexeme", lexeme_rows(docs)),
            ],
        }
    }

    /// The feature arms `q_x` (paper Section 4.2).
    fn feature_spec(self) -> DataSpec {
        match self {
            Shape::Flat => DataSpec::new("SELECT n, term AS j, cnt AS w FROM features"),
            Shape::Star => DataSpec::new(
                "SELECT id AS n, 'pubname:' || pubname AS j, 1.0 AS w FROM publication",
            )
            .with_features("SELECT pubid AS n, 'authid:' || authid AS j, 1.0 AS w FROM pub_author")
            .with_features(
                "SELECT pubid AS n, 'keyword:' || keyword AS j, 1.0 AS w FROM pub_keyword",
            )
            .with_features(
                "SELECT pubid AS n, 'abstract:' || lexeme AS j, cnt AS w FROM pub_lexeme",
            ),
        }
    }

    /// Training spec over every loaded document.
    pub fn train_all(self) -> DataSpec {
        self.feature_spec().with_targets(match self {
            Shape::Flat => "SELECT n, label AS k, 1.0 AS w FROM labels",
            Shape::Star => "SELECT id AS n, asjc / 100 AS k, 1.0 AS w FROM publication",
        })
    }

    /// Training spec over the documents with ids in `lo..=hi`.
    pub fn train_range(self, lo: i64, hi: i64) -> DataSpec {
        self.train_all().with_items(self.range_query(lo, hi))
    }

    /// Inference spec over every loaded document.
    pub fn score_all(self) -> DataSpec {
        self.feature_spec()
    }

    /// Inference spec over the documents with ids in `lo..=hi`.
    pub fn score_range(self, lo: i64, hi: i64) -> DataSpec {
        self.feature_spec().with_items(self.range_query(lo, hi))
    }

    /// Inference spec for one document, its id inlined as a literal — the
    /// only form `BornSqlModel::predict` offers a caller today.
    pub fn score_one(self, id: i64) -> DataSpec {
        self.feature_spec().with_items(format!("SELECT {id} AS n"))
    }

    /// The same statement with the id as a `?` parameter, for the
    /// engine-level paths a model handle could be using.
    pub fn score_param(self) -> DataSpec {
        self.feature_spec().with_items("SELECT ? AS n")
    }

    fn range_query(self, lo: i64, hi: i64) -> String {
        let (table, col) = self.tables()[0];
        format!("SELECT {col} AS n FROM {table} WHERE {col} >= {lo} AND {col} <= {hi}")
    }

    /// One `DELETE` per table removing the documents with ids in `lo..=hi`.
    pub fn delete_range(self, lo: i64, hi: i64) -> Vec<String> {
        let ids: Vec<String> = (lo..=hi).map(|i| i.to_string()).collect();
        let ids = ids.join(", ");
        self.tables()
            .iter()
            .map(|(table, col)| format!("DELETE FROM {table} WHERE {col} IN ({ids})"))
            .collect()
    }
}

/// Where a database keeps its state.
#[derive(Debug, Clone)]
pub enum Storage {
    Memory,
    /// A directory under the benchmark's `out/`, created empty.
    Durable(PathBuf),
}

impl Storage {
    pub fn open(&self, config: EngineConfig) -> Database {
        match self {
            Storage::Memory => Database::with_config(config),
            Storage::Durable(dir) => Database::open(dir, config).expect("open durable database"),
        }
    }
}

/// Create the shape's tables and the model's own tables.
pub fn create_schema(db: &Database, shape: Shape) {
    for ddl in shape.ddl() {
        db.execute(ddl).expect("create table");
    }
    BornSqlModel::create(db, MODEL, shape.model_options()).expect("create model");
}

/// A handle on the model, as a caller that reconnects would get one.
pub fn model(db: &Database, shape: Shape) -> BornSqlModel<'_, Database> {
    BornSqlModel::attach(db, MODEL, shape.model_options()).expect("attach model")
}

/// Vectorize and insert a batch of documents; returns the rows inserted.
pub fn insert_docs(db: &Database, shape: Shape, docs: &[Doc], v: &CountVectorizer) -> usize {
    shape
        .rows(docs, v)
        .into_iter()
        .map(|(table, rows)| db.insert_rows(table, rows).expect("insert rows"))
        .sum()
}

/// A fresh, empty directory for one durable database. The name carries
/// this process's id, so two runs that share an output directory never
/// share a database.
pub fn fresh_dir(root: &Path, name: &str) -> PathBuf {
    let dir = root.join(format!("{name}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear database directory");
    }
    std::fs::create_dir_all(&dir).expect("create database directory");
    dir
}
