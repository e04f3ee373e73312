//! Model export / import — the paper's "cost-effective model serving"
//! story (§7): a fitted BornSQL model is just a hyper-parameter tuple, the
//! corpus table, and optionally the deployed weights table. This module
//! packages those into a portable JSON artifact that can be imported into
//! any other database (with `weights_only`, the artifact is inference-only
//! and the training corpus is not shipped at all — the storage-reduction
//! option the paper mentions).

use sqlengine::json::{parse_json, write_json_f64, write_json_string, Json};
use sqlengine::Value;

use crate::error::{BornSqlError, Result};
use crate::model::{BornSqlModel, ModelOptions, Params, SqlBackend};

/// A portable, serializable model artifact.
#[derive(Debug, Clone)]
pub struct ModelArtifact {
    pub name: String,
    pub a: f64,
    pub b: f64,
    pub h: f64,
    /// `(j, k, P_jk)` corpus cells; empty for inference-only artifacts.
    pub corpus: Vec<(String, String, f64)>,
    /// `(j, k, HW_jk)` deployed weights, when the model was deployed.
    pub weights: Vec<(String, String, f64)>,
    /// SQL type of the class column.
    pub class_type: String,
}

fn rows_to_triples(rows: Vec<(Value, Value, f64)>) -> Vec<(String, String, f64)> {
    rows.into_iter()
        .map(|(j, k, w)| (j.to_string(), k.to_string(), w))
        .collect()
}

impl<'c, C: SqlBackend> BornSqlModel<'c, C> {
    /// Export the model as a portable artifact.
    ///
    /// With `weights_only = true` the training corpus is omitted — the
    /// artifact can serve predictions and explanations but cannot be
    /// further trained or unlearned (and is typically much smaller).
    pub fn export_artifact(&self, weights_only: bool) -> Result<ModelArtifact> {
        let params = self.params()?;
        let corpus = if weights_only {
            Vec::new()
        } else {
            rows_to_triples(self.corpus()?)
        };
        let weights = match self.explain_global(None) {
            Ok(w) => rows_to_triples(w),
            Err(_) => Vec::new(), // untrained / undeployable model
        };
        Ok(ModelArtifact {
            name: self.name().to_string(),
            a: params.a,
            b: params.b,
            h: params.h,
            corpus,
            weights,
            class_type: self.class_type().to_string(),
        })
    }

    /// Export as a JSON string.
    pub fn export_json(&self, weights_only: bool) -> Result<String> {
        Ok(self.export_artifact(weights_only)?.to_json())
    }
}

fn invalid(msg: impl std::fmt::Display) -> BornSqlError {
    BornSqlError::Config(format!("invalid model artifact: {msg}"))
}

fn write_cells(out: &mut String, cells: &[(String, String, f64)]) {
    out.push('[');
    for (i, (j, k, w)) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        write_json_string(out, j);
        out.push(',');
        write_json_string(out, k);
        out.push(',');
        write_json_f64(out, *w);
        out.push(']');
    }
    out.push(']');
}

fn read_cells(doc: &Json, key: &str) -> Result<Vec<(String, String, f64)>> {
    let cells = doc.get(key).and_then(Json::as_array);
    let cells = cells.ok_or_else(|| invalid(format!("'{key}' is not an array")))?;
    cells
        .iter()
        .map(|cell| match cell.as_array() {
            Some([j, k, w]) => match (j.as_str(), k.as_str(), w.as_f64()) {
                (Some(j), Some(k), Some(w)) => Ok((j.to_string(), k.to_string(), w)),
                _ => Err(invalid(format!(
                    "a '{key}' cell is not [string, string, number]"
                ))),
            },
            _ => Err(invalid(format!("a '{key}' cell is not a 3-array"))),
        })
        .collect()
}

impl ModelArtifact {
    /// Serialize to compact JSON: the fields in declaration order, each cell
    /// a `["j","k",w]` array, floats in shortest round-trip form.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"name\":");
        write_json_string(&mut out, &self.name);
        for (key, value) in [
            (",\"a\":", self.a),
            (",\"b\":", self.b),
            (",\"h\":", self.h),
        ] {
            out.push_str(key);
            write_json_f64(&mut out, value);
        }
        out.push_str(",\"corpus\":");
        write_cells(&mut out, &self.corpus);
        out.push_str(",\"weights\":");
        write_cells(&mut out, &self.weights);
        out.push_str(",\"class_type\":");
        write_json_string(&mut out, &self.class_type);
        out.push('}');
        out
    }

    /// Parse an artifact from JSON. Fields may come in any order and any
    /// JSON number is accepted where a float is expected.
    pub fn from_json(json: &str) -> Result<ModelArtifact> {
        let doc = parse_json(json).map_err(|e| invalid(e.message()))?;
        let text = |key: &str| {
            let field = doc.get(key).and_then(Json::as_str);
            field
                .map(str::to_string)
                .ok_or_else(|| invalid(format!("'{key}' is not a string")))
        };
        let number = |key: &str| {
            let field = doc.get(key).and_then(Json::as_f64);
            field.ok_or_else(|| invalid(format!("'{key}' is not a number")))
        };
        Ok(ModelArtifact {
            name: text("name")?,
            a: number("a")?,
            b: number("b")?,
            h: number("h")?,
            corpus: read_cells(&doc, "corpus")?,
            weights: read_cells(&doc, "weights")?,
            class_type: text("class_type")?,
        })
    }

    /// Import into a database under `name`, recreating the params row, the
    /// corpus (when present), and the weights table (when present).
    pub fn import_into<'c, C: SqlBackend>(
        &self,
        conn: &'c C,
        name: &str,
    ) -> Result<BornSqlModel<'c, C>> {
        let class_type: &'static str = match self.class_type.as_str() {
            "INTEGER" => "INTEGER",
            _ => "TEXT",
        };
        let model = BornSqlModel::create(
            conn,
            name,
            ModelOptions {
                class_type,
                params: Params {
                    a: self.a,
                    b: self.b,
                    h: self.h,
                },
                ..Default::default()
            },
        )?;
        let quote = |s: &str| format!("'{}'", s.replace('\'', "''"));
        let insert_cells = |table: &str, cells: &[(String, String, f64)]| -> Result<()> {
            for chunk in cells.chunks(512) {
                let values: Vec<String> = chunk
                    .iter()
                    .map(|(j, k, w)| {
                        let k_lit = if class_type == "INTEGER" {
                            k.clone()
                        } else {
                            quote(k)
                        };
                        format!("({}, {}, {})", quote(j), k_lit, w)
                    })
                    .collect();
                conn.execute_sql(&format!(
                    "INSERT INTO {table} (j, k, w) VALUES {}",
                    values.join(", ")
                ))?;
            }
            Ok(())
        };
        if !self.corpus.is_empty() {
            insert_cells(&model.generator().corpus_table(), &self.corpus)?;
        }
        if !self.weights.is_empty() {
            conn.execute_sql(&model.generator().create_weights_table())?;
            insert_cells(&model.generator().weights_table(), &self.weights)?;
        }
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DataSpec;
    use sqlengine::Database;

    fn trained_model(db: &Database) -> BornSqlModel<'_, Database> {
        db.execute_script(
            "CREATE TABLE d (n INTEGER, j TEXT, w REAL);
             CREATE TABLE l (n INTEGER, k TEXT);
             INSERT INTO d VALUES (1, 'robot', 2.0), (1, 'vision', 1.0),
                                  (2, 'poisson', 1.0), (2, 'variance', 2.0);
             INSERT INTO l VALUES (1, 'ai'), (2, 'stats');",
        )
        .unwrap();
        let model = BornSqlModel::create(db, "src", ModelOptions::default()).unwrap();
        model
            .fit(
                &DataSpec::new("SELECT n, j, w FROM d")
                    .with_targets("SELECT n, k AS k, 1.0 AS w FROM l"),
            )
            .unwrap();
        model.deploy().unwrap();
        model
    }

    #[test]
    fn export_import_roundtrip_preserves_predictions() {
        let db = Database::new();
        let model = trained_model(&db);
        let json = model.export_json(false).unwrap();

        let db2 = Database::new();
        db2.execute_script(
            "CREATE TABLE q (n INTEGER, j TEXT, w REAL);
             INSERT INTO q VALUES (7, 'robot', 1.0);",
        )
        .unwrap();
        let imported = ModelArtifact::from_json(&json)
            .unwrap()
            .import_into(&db2, "copy")
            .unwrap();
        let preds = imported
            .predict(&DataSpec::new("SELECT n, j, w FROM q"))
            .unwrap();
        assert_eq!(preds[0].1, Value::text("ai"));
        // The corpus travelled too: further training works.
        assert!(imported.corpus_cells().unwrap() > 0);
    }

    #[test]
    fn weights_only_artifact_is_inference_only() {
        let db = Database::new();
        let model = trained_model(&db);
        let artifact = model.export_artifact(true).unwrap();
        assert!(artifact.corpus.is_empty());
        assert!(!artifact.weights.is_empty());

        let db2 = Database::new();
        db2.execute_script(
            "CREATE TABLE q (n INTEGER, j TEXT, w REAL);
             INSERT INTO q VALUES (7, 'variance', 1.0);",
        )
        .unwrap();
        let imported = artifact.import_into(&db2, "lite").unwrap();
        let preds = imported
            .predict(&DataSpec::new("SELECT n, j, w FROM q"))
            .unwrap();
        assert_eq!(preds[0].1, Value::text("stats"));
        assert_eq!(imported.corpus_cells().unwrap(), 0);
    }

    /// An artifact in the format `serde_json::to_string` wrote before the
    /// in-tree codec: compact, fields in declaration order, cells as
    /// 3-arrays, floats in shortest round-trip form.
    const GOLDEN: &str = r#"{"name":"golden","a":0.5,"b":1.0,"h":1.0,"corpus":[["robot","ai",1e300],["say \"hi\"","ai",0.1],["tax","law",0.5]],"weights":[],"class_type":"TEXT"}"#;

    #[test]
    fn golden_artifact_imports_and_reexports_byte_identically() {
        let artifact = ModelArtifact::from_json(GOLDEN).unwrap();
        assert_eq!(artifact.corpus[1], ("say \"hi\"".into(), "ai".into(), 0.1));
        assert_eq!(artifact.corpus[0].2, 1e300);
        assert!(artifact.weights.is_empty());
        assert_eq!(artifact.to_json(), GOLDEN);

        // Through a database and back: the corpus, hyper-parameters and class
        // type are the golden's (the weights are derived from the corpus on
        // export, so the golden's empty list is put back before comparing).
        let db = Database::new();
        let imported = artifact.import_into(&db, "golden").unwrap();
        let exported = imported.export_artifact(false).unwrap();
        let exported = ModelArtifact {
            weights: Vec::new(),
            ..exported
        };
        assert_eq!(exported.to_json(), GOLDEN);

        // Any JSON number is a float on read, and field order is free.
        let loose = r#"{"class_type":"INTEGER","weights":[["x","7",2]],"corpus":[],"h":1,"b":0,"a":1e0,"name":"n"}"#;
        let loose = ModelArtifact::from_json(loose).unwrap();
        assert_eq!((loose.a, loose.b, loose.h), (1.0, 0.0, 1.0));
        assert_eq!(loose.weights, vec![("x".into(), "7".into(), 2.0)]);
        for bad in ["", "{}", r#"{"name":1}"#, &GOLDEN.replace("0.1]", "0.1,1]")] {
            assert!(ModelArtifact::from_json(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn artifact_json_is_stable() {
        let db = Database::new();
        let model = trained_model(&db);
        let a = model.export_json(false).unwrap();
        let b = model.export_json(false).unwrap();
        assert_eq!(a, b, "export must be deterministic");
        assert!(a.contains("\"name\":\"src\""));
    }
}
