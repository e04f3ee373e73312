//! The BornSQL model orchestrator: issues the generated SQL against a
//! backend and exposes the paper's workflow (fit / partial-fit / unlearn /
//! deploy / predict / explain) as a typed Rust API.

use sqlengine::{EngineError, QueryResult, Value};

use crate::dialect::Dialect;
use crate::error::{BornSqlError, Result};
use crate::spec::DataSpec;
use crate::sql::SqlGenerator;

/// Minimal SQL connection abstraction. BornSQL only ever needs "run a
/// statement" and "run a query" — everything else is plain SQL, which is the
/// paper's portability argument.
pub trait SqlBackend {
    fn execute_sql(&self, sql: &str) -> sqlengine::Result<usize>;
    fn query_sql(&self, sql: &str) -> sqlengine::Result<QueryResult>;

    /// The backend's telemetry registry, if it has one. Backends without
    /// observability (remote connections, test stubs) keep the default and
    /// pay nothing; serving metrics then simply don't accumulate.
    fn telemetry(&self) -> Option<&sqlengine::Telemetry> {
        None
    }

    /// Whether a table named `name` exists, for backends that can tell
    /// without running a statement. `None` — the default — means "ask with
    /// SQL".
    fn table_exists(&self, _name: &str) -> Option<bool> {
        None
    }
}

impl SqlBackend for sqlengine::Database {
    fn execute_sql(&self, sql: &str) -> sqlengine::Result<usize> {
        Ok(self.execute(sql)?.affected())
    }

    fn query_sql(&self, sql: &str) -> sqlengine::Result<QueryResult> {
        self.query(sql)
    }

    fn telemetry(&self) -> Option<&sqlengine::Telemetry> {
        // The inherent method shadows the trait one here and returns
        // `&Arc<Telemetry>`; deref to the registry itself.
        Some(sqlengine::Database::telemetry(self).as_ref())
    }

    fn table_exists(&self, name: &str) -> Option<bool> {
        Some(self.has_table(name))
    }
}

/// Hyper-parameters mirrored from the `born` crate (kept separate so the
/// SQL layer has no dependency on the oracle implementation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    pub a: f64,
    pub b: f64,
    pub h: f64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            a: 0.5,
            b: 1.0,
            h: 1.0,
        }
    }
}

/// Options for creating a model.
#[derive(Debug, Clone)]
pub struct ModelOptions {
    pub dialect: Dialect,
    /// SQL type of the class column (`"TEXT"` or `"INTEGER"`).
    pub class_type: &'static str,
    pub params: Params,
}

impl Default for ModelOptions {
    fn default() -> Self {
        ModelOptions {
            dialect: Dialect::Sqlite,
            class_type: "TEXT",
            params: Params::default(),
        }
    }
}

/// One prediction row: item identifier and predicted class.
pub type Prediction = (Value, Value);
/// One probability row: item, class, probability.
pub type Probability = (Value, Value, f64);
/// One explanation row: feature, class, weight.
pub type Weight = (Value, Value, f64);

/// A BornSQL model bound to a backend connection.
///
/// All state lives in the database: the hyper-parameters in the `params`
/// table, the trained tensor in `{model}_corpus`, and (after deployment)
/// the cached weights in `{model}_weights`. Dropping this handle loses
/// nothing — reattach with [`BornSqlModel::attach`].
pub struct BornSqlModel<'c, C: SqlBackend> {
    conn: &'c C,
    gen: SqlGenerator,
}

impl<'c, C: SqlBackend> BornSqlModel<'c, C> {
    /// Create (or open) a model named `model` on `conn`, installing the
    /// `params` and `{model}_corpus` tables and writing the hyper-parameters.
    pub fn create(conn: &'c C, model: &str, options: ModelOptions) -> Result<Self> {
        validate_model_name(model)?;
        validate_params(options.params)?;
        if options.class_type != "TEXT" && options.class_type != "INTEGER" {
            return Err(BornSqlError::Config(format!(
                "class_type must be TEXT or INTEGER, got {}",
                options.class_type
            )));
        }
        let gen = SqlGenerator::new(model, options.dialect, options.class_type);
        let m = BornSqlModel { conn, gen };
        m.conn.execute_sql(&m.gen.create_params_table())?;
        m.conn.execute_sql(&m.gen.create_corpus_table())?;
        m.set_params(options.params)?;
        if let Some(t) = m.conn.telemetry() {
            t.register_model(m.name());
        }
        Ok(m)
    }

    /// Reattach to an existing model without touching its state.
    pub fn attach(conn: &'c C, model: &str, options: ModelOptions) -> Result<Self> {
        validate_model_name(model)?;
        let m = BornSqlModel {
            conn,
            gen: SqlGenerator::new(model, options.dialect, options.class_type),
        };
        if let Some(t) = m.conn.telemetry() {
            t.register_model(m.name());
        }
        Ok(m)
    }

    pub fn name(&self) -> &str {
        &self.gen.model
    }

    /// Access the SQL generator (to inspect the exact statements issued).
    pub fn generator(&self) -> &SqlGenerator {
        &self.gen
    }

    /// SQL type of the class column (`TEXT` or `INTEGER`).
    pub fn class_type(&self) -> &'static str {
        self.gen.class_type
    }

    /// The backend connection this model is bound to.
    pub fn backend(&self) -> &C {
        self.conn
    }

    // ------------------------------------------------------------------
    // Hyper-parameters
    // ------------------------------------------------------------------

    /// Update hyper-parameters. No retraining required (paper §2.2.1), but a
    /// deployed weights table becomes stale — redeploy after changing them.
    pub fn set_params(&self, params: Params) -> Result<()> {
        validate_params(params)?;
        self.conn
            .execute_sql(&self.gen.set_params(params.a, params.b, params.h))?;
        Ok(())
    }

    pub fn params(&self) -> Result<Params> {
        let r = self.conn.query_sql(&self.gen.get_params())?;
        let row = r.rows.first().ok_or_else(|| {
            BornSqlError::State(format!("model '{}' has no params row", self.name()))
        })?;
        Ok(Params {
            a: value_f64(&row[0])?,
            b: value_f64(&row[1])?,
            h: value_f64(&row[2])?,
        })
    }

    // ------------------------------------------------------------------
    // Training / incremental learning / unlearning
    // ------------------------------------------------------------------

    /// Train from scratch: clears the corpus, then runs one incremental fit.
    pub fn fit(&self, spec: &DataSpec) -> Result<()> {
        self.conn.execute_sql(&self.gen.drop_corpus_table())?;
        self.conn.execute_sql(&self.gen.create_corpus_table())?;
        self.partial_fit(spec)
    }

    /// Exact incremental learning (paper eq. 3): accumulate `P_jk` for the
    /// items selected by the spec into the corpus.
    pub fn partial_fit(&self, spec: &DataSpec) -> Result<()> {
        spec.validate_for_training().map_err(BornSqlError::Config)?;
        self.conn.execute_sql(&self.gen.partial_fit(spec, 1.0))?;
        if let Some(t) = self.conn.telemetry() {
            t.record_model_fit_batch(self.name());
        }
        Ok(())
    }

    /// Exact unlearning (paper eq. 6): subtract the selected items'
    /// contribution, then prune numerically-zero cells so the corpus matches
    /// a model retrained without them.
    pub fn unlearn(&self, spec: &DataSpec) -> Result<()> {
        spec.validate_for_training().map_err(BornSqlError::Config)?;
        self.conn.execute_sql(&self.gen.partial_fit(spec, -1.0))?;
        self.conn.execute_sql(&self.gen.prune_corpus())?;
        if let Some(t) = self.conn.telemetry() {
            t.record_model_unlearn(self.name());
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Deployment
    // ------------------------------------------------------------------

    /// Pre-compute and materialize `HW_jk` into `{model}_weights` to
    /// accelerate inference (paper Section 3.3 / 4.4). Also creates a
    /// secondary index on the weights `j` column — the serving-path join key
    /// — after the bulk insert, so index-aware engines can answer repeated
    /// `predict` calls with point lookups instead of full scans.
    pub fn deploy(&self) -> Result<()> {
        self.conn.execute_sql(&self.gen.drop_weights_table())?;
        self.conn.execute_sql(&self.gen.create_weights_table())?;
        self.conn.execute_sql(&self.gen.deploy())?;
        self.conn.execute_sql(&self.gen.create_weights_index())?;
        if let Some(t) = self.conn.telemetry() {
            t.set_model_deployed(self.name(), true);
        }
        Ok(())
    }

    /// Drop the cached weights; inference falls back to on-the-fly
    /// computation.
    pub fn undeploy(&self) -> Result<()> {
        self.conn.execute_sql(&self.gen.drop_weights_table())?;
        if let Some(t) = self.conn.telemetry() {
            t.set_model_deployed(self.name(), false);
        }
        Ok(())
    }

    /// Whether a deployed weights table exists. After reopening a persisted
    /// database this tells whether `predict` will use the cached weights or
    /// recompute from the corpus on the fly.
    pub fn is_deployed(&self) -> bool {
        self.deployed_flag().unwrap_or(false)
    }

    /// Whether a deployed weights table exists (used to pick the inference
    /// path automatically): the backend's catalog answers when it can,
    /// otherwise a probe statement does. Only the probe's unknown-table
    /// error means "undeployed" — an overloaded, timed-out or degraded
    /// backend must fail the call, not silently demote it to the
    /// on-the-fly path.
    fn deployed_flag(&self) -> Result<bool> {
        let weights = self.gen.weights_table();
        if let Some(exists) = self.conn.table_exists(&weights) {
            return Ok(exists);
        }
        match self
            .conn
            .query_sql(&format!("SELECT COUNT(*) FROM {weights}"))
        {
            Ok(_) => Ok(true),
            Err(
                EngineError::Sema { message, .. }
                | EngineError::Plan(message)
                | EngineError::Catalog(message),
            ) if message.contains("does not exist") => Ok(false),
            Err(e) => Err(e.into()),
        }
    }

    // ------------------------------------------------------------------
    // Inference
    // ------------------------------------------------------------------

    /// Classify the items selected by the spec: `(n, argmax_k u_k)` rows.
    /// Items with no feature known to the model produce no row.
    pub fn predict(&self, spec: &DataSpec) -> Result<Vec<Prediction>> {
        self.serve(spec, rows_to_predictions, |deployed| {
            Ok(self.gen.predict(spec, deployed))
        })
    }

    /// Class probabilities `(n, k, p)` for the selected items.
    pub fn predict_proba(&self, spec: &DataSpec) -> Result<Vec<Probability>> {
        self.serve(spec, rows_to_probabilities, |deployed| {
            Ok(self.gen.predict_proba(spec, deployed))
        })
    }

    /// Classify an explicit batch of item identifiers in one statement.
    ///
    /// The spec's `q_x` describes where features come from; `items` names the
    /// items to classify (replacing any `q_n` on the spec). The whole batch
    /// runs as a single query — one parse/plan and one weights scan per batch
    /// instead of per item — and is recorded as one serving request in
    /// telemetry. Results come back in item order (`ORDER BY n`); items with
    /// no feature known to the model produce no row.
    pub fn predict_batch(&self, spec: &DataSpec, items: &[Value]) -> Result<Vec<Prediction>> {
        self.serve(spec, rows_to_predictions, |deployed| {
            self.gen.predict_batch(spec, deployed, items)
        })
    }

    /// Batched variant of [`BornSqlModel::predict_proba`]: probabilities for
    /// an explicit batch of item identifiers in one statement.
    pub fn predict_proba_batch(
        &self,
        spec: &DataSpec,
        items: &[Value],
    ) -> Result<Vec<Probability>> {
        self.serve(spec, rows_to_probabilities, |deployed| {
            self.gen.predict_proba_batch(spec, deployed, items)
        })
    }

    /// One inference call: check the spec, pick the deployed or on-the-fly
    /// statement, run it, convert its rows. The whole call — what the caller
    /// waits for — is recorded as a single serving request (with its row
    /// count) when the backend has telemetry enabled.
    fn serve<T>(
        &self,
        spec: &DataSpec,
        convert: fn(QueryResult) -> Result<Vec<T>>,
        statement: impl FnOnce(bool) -> std::result::Result<String, String>,
    ) -> Result<Vec<T>> {
        let telemetry = self.conn.telemetry().filter(|t| t.enabled());
        let started = telemetry.map(|_| std::time::Instant::now());
        spec.validate_for_inference()
            .map_err(BornSqlError::Config)?;
        let sql = statement(self.deployed_flag()?).map_err(BornSqlError::Config)?;
        let rows = convert(self.conn.query_sql(&sql)?)?;
        if let (Some(t), Some(at)) = (telemetry, started) {
            t.record_model_predict(self.name(), at.elapsed(), rows.len() as u64);
        }
        Ok(rows)
    }

    // ------------------------------------------------------------------
    // Explainability
    // ------------------------------------------------------------------

    /// Global explanation: `(j, k, HW_jk)` sorted by descending weight.
    pub fn explain_global(&self, limit: Option<usize>) -> Result<Vec<Weight>> {
        let sql = self.gen.explain_global(self.deployed_flag()?, limit);
        let r = self.conn.query_sql(&sql)?;
        rows_to_weights(r)
    }

    /// Local explanation for the items selected by the spec:
    /// `(j, k, HW_jk · z_j^a)` sorted by descending weight.
    pub fn explain_local(&self, spec: &DataSpec, limit: Option<usize>) -> Result<Vec<Weight>> {
        spec.validate_for_inference()
            .map_err(BornSqlError::Config)?;
        let sql = self.gen.explain_local(spec, self.deployed_flag()?, limit);
        let r = self.conn.query_sql(&sql)?;
        rows_to_weights(r)
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Number of `(j, k)` cells in the trained corpus.
    pub fn corpus_cells(&self) -> Result<usize> {
        self.count(&self.gen.count_corpus_cells())
    }

    /// Number of distinct features in the corpus.
    pub fn n_features(&self) -> Result<usize> {
        self.count(&self.gen.count_features())
    }

    /// Number of distinct classes in the corpus.
    pub fn n_classes(&self) -> Result<usize> {
        self.count(&self.gen.count_classes())
    }

    /// Raw corpus rows `(j, k, P_jk)` (deterministic order).
    pub fn corpus(&self) -> Result<Vec<Weight>> {
        let r = self.conn.query_sql(&format!(
            "SELECT j, k, w FROM {} ORDER BY j, k",
            self.gen.corpus_table()
        ))?;
        rows_to_weights(r)
    }

    fn count(&self, sql: &str) -> Result<usize> {
        let r = self.conn.query_sql(sql)?;
        let v = r
            .scalar()
            .ok_or_else(|| BornSqlError::State("count query returned nothing".into()))?;
        match v {
            Value::Int(i) => Ok(*i as usize),
            other => Err(BornSqlError::State(format!(
                "count query returned non-integer {other}"
            ))),
        }
    }
}

fn rows_to_predictions(r: QueryResult) -> Result<Vec<Prediction>> {
    Ok(r.rows
        .into_iter()
        .map(|mut row| {
            let k = row.pop().expect("two columns");
            let n = row.pop().expect("two columns");
            (n, k)
        })
        .collect())
}

fn rows_to_probabilities(r: QueryResult) -> Result<Vec<Probability>> {
    r.rows
        .into_iter()
        .map(|mut row| {
            let w = value_f64(&row.pop().expect("three columns"))?;
            let k = row.pop().expect("three columns");
            let n = row.pop().expect("three columns");
            Ok((n, k, w))
        })
        .collect()
}

fn rows_to_weights(r: QueryResult) -> Result<Vec<Weight>> {
    r.rows
        .into_iter()
        .map(|mut row| {
            let w = value_f64(&row.pop().expect("three columns"))?;
            let k = row.pop().expect("three columns");
            let j = row.pop().expect("three columns");
            Ok((j, k, w))
        })
        .collect()
}

fn value_f64(v: &Value) -> Result<f64> {
    v.as_f64()
        .map_err(BornSqlError::from)?
        .ok_or_else(|| BornSqlError::State("unexpected NULL numeric value".into()))
}

/// Model names become table-name prefixes; restrict them to identifier
/// characters so generated SQL cannot be injected into.
fn validate_model_name(name: &str) -> Result<()> {
    let mut chars = name.chars();
    let ok = match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {
            chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
        }
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(BornSqlError::Config(format!(
            "model name '{name}' is not a valid SQL identifier"
        )))
    }
}

fn validate_params(p: Params) -> Result<()> {
    // NaN must fail every check, hence the negated comparisons.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(p.a > 0.0) {
        return Err(BornSqlError::Config(format!("a must be > 0, got {}", p.a)));
    }
    if !(0.0..=1.0).contains(&p.b) {
        return Err(BornSqlError::Config(format!(
            "b must be in [0, 1], got {}",
            p.b
        )));
    }
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(p.h >= 0.0) {
        return Err(BornSqlError::Config(format!("h must be ≥ 0, got {}", p.h)));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlengine::Database;

    /// A backend that cannot answer `table_exists`, so the deployment check
    /// falls back to its probe statement — which fails with `probe_error`
    /// when one is set.
    struct Foreign {
        db: Database,
        probe_error: std::cell::RefCell<Option<EngineError>>,
    }

    impl SqlBackend for Foreign {
        fn execute_sql(&self, sql: &str) -> sqlengine::Result<usize> {
            self.db.execute_sql(sql)
        }

        fn query_sql(&self, sql: &str) -> sqlengine::Result<QueryResult> {
            match self.probe_error.borrow().clone() {
                Some(e) if sql.starts_with("SELECT COUNT(*) FROM") => Err(e),
                _ => self.db.query_sql(sql),
            }
        }
    }

    #[test]
    fn only_an_unknown_table_means_undeployed_on_a_probing_backend() {
        let conn = Foreign {
            db: Database::new(),
            probe_error: Default::default(),
        };
        conn.db
            .execute_script(
                "CREATE TABLE d (n INTEGER, j TEXT, w REAL);
                 CREATE TABLE l (n INTEGER, k TEXT);
                 INSERT INTO d VALUES (1, 'robot', 2.0), (2, 'poisson', 2.0);
                 INSERT INTO l VALUES (1, 'ai'), (2, 'stats');",
            )
            .unwrap();
        let model = BornSqlModel::create(&conn, "m", ModelOptions::default()).unwrap();
        let spec = DataSpec::new("SELECT n, j, w FROM d");
        model
            .fit(&spec.clone().with_targets("SELECT n, k, 1.0 AS w FROM l"))
            .unwrap();

        // The probe's unknown-table error: undeployed, served on the fly.
        assert!(!model.is_deployed());
        assert_eq!(model.predict(&spec).unwrap().len(), 2);
        model.deploy().unwrap();
        assert!(model.is_deployed());

        // A shed probe says nothing about deployment: the call fails instead
        // of silently recomputing the weights per predict.
        let shed = EngineError::Overloaded("admission queue full".into());
        *conn.probe_error.borrow_mut() = Some(shed.clone());
        for result in [
            model.predict(&spec).map(|_| ()),
            model.predict_batch(&spec, &[Value::Int(1)]).map(|_| ()),
            model.explain_local(&spec, None).map(|_| ()),
            model.explain_global(None).map(|_| ()),
        ] {
            assert!(
                matches!(&result, Err(BornSqlError::Database(e)) if *e == shed),
                "{result:?}"
            );
        }
        assert!(!model.is_deployed(), "the bool accessor cannot say why");
        *conn.probe_error.borrow_mut() = None;
        assert_eq!(model.predict(&spec).unwrap().len(), 2);
    }

    #[test]
    fn model_name_validation() {
        assert!(validate_model_name("scopus").is_ok());
        assert!(validate_model_name("_m1").is_ok());
        assert!(validate_model_name("m'; DROP TABLE x; --").is_err());
        assert!(validate_model_name("1model").is_err());
        assert!(validate_model_name("").is_err());
    }

    #[test]
    fn params_validation() {
        assert!(validate_params(Params::default()).is_ok());
        assert!(validate_params(Params {
            a: 0.0,
            ..Default::default()
        })
        .is_err());
        assert!(validate_params(Params {
            b: 2.0,
            ..Default::default()
        })
        .is_err());
        assert!(validate_params(Params {
            h: -1.0,
            ..Default::default()
        })
        .is_err());
    }
}
