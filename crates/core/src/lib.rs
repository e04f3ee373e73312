//! # bornsql — the Born classifier in standard SQL
//!
//! Reproduction of *"In-Database Text Classification with BornSQL"*
//! (EDBT 2026). BornSQL expresses the entire machine-learning workflow —
//! training, exact incremental learning, exact unlearning, deployment,
//! inference, and global/local explainability — as standard SQL statements
//! over sparse-tensor relations, so the whole pipeline runs *inside* the
//! database.
//!
//! The crate has two layers:
//!
//! * [`sql::SqlGenerator`] renders every operation as SQL text for a chosen
//!   [`Dialect`] — this is the paper's portability artifact and can be used
//!   standalone (e.g. to inspect or ship the statements to another engine);
//! * [`BornSqlModel`] drives those statements against any [`SqlBackend`]
//!   (the bundled `sqlengine` implements it) and returns typed results.
//!
//! ## Quickstart
//!
//! ```
//! use bornsql::{BornSqlModel, DataSpec, ModelOptions};
//! use sqlengine::Database;
//!
//! let db = Database::new();
//! db.execute_script(
//!     "CREATE TABLE docs (id INTEGER, body TEXT, label TEXT);
//!      INSERT INTO docs VALUES
//!         (1, 'robot vision', 'ai'),
//!         (2, 'poisson variance', 'stats'),
//!         (3, 'robot control', 'ai');",
//! ).unwrap();
//!
//! let model = BornSqlModel::create(&db, "demo", ModelOptions::default()).unwrap();
//! let spec = DataSpec::new(
//!         "SELECT id AS n, 'w:' || body AS j, 1.0 AS w FROM docs")
//!     .with_targets("SELECT id AS n, label AS k, 1.0 AS w FROM docs");
//! model.fit(&spec).unwrap();
//! model.deploy().unwrap();
//!
//! let test = DataSpec::new("SELECT id AS n, 'w:' || body AS j, 1.0 AS w FROM docs")
//!     .with_items("SELECT 1 AS n");
//! let predictions = model.predict(&test).unwrap();
//! assert_eq!(predictions[0].1, sqlengine::Value::text("ai"));
//! ```

#![forbid(unsafe_code)]

pub mod dialect;
pub mod error;
pub mod eval;
pub mod external;
pub mod model;
pub mod serving;
pub mod spec;
pub mod sql;

pub use dialect::Dialect;
pub use error::{BornSqlError, Result};
pub use eval::{default_grid, Evaluation};
pub use external::ExternalItem;
pub use model::{BornSqlModel, ModelOptions, Params, Prediction, Probability, SqlBackend, Weight};
pub use serving::ModelArtifact;
pub use spec::DataSpec;
pub use sql::SqlGenerator;
