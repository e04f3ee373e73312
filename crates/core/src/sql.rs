//! SQL generation: each method renders one of the paper's Section 3
//! operations as a single SQL statement built from Common Table Expressions
//! over sparse-tensor tables.
//!
//! Naming follows the paper: a tensor `T_njk` is a relation with columns
//! `(n, j, k, w)`. A CTE read once is pipelined into its reader, so its
//! tensor is never materialized (on engines that pipeline CTEs); one read
//! several times — `p_jk`, `w_jk` and `abh` of the deploy chain, `xy_njk`
//! of `partial_fit`, `n_n` of a star-shaped `q_n` — is evaluated once and
//! held for its readers (PostgreSQL's rule, and `sqlengine`'s).

use sqlengine::Value;

use crate::dialect::Dialect;
use crate::spec::DataSpec;

/// Statement generator for one model.
///
/// `model` is the table-name prefix identifying the model (the paper's
/// `{model}`); it must be a valid bare SQL identifier.
#[derive(Debug, Clone)]
pub struct SqlGenerator {
    pub model: String,
    pub dialect: Dialect,
    /// SQL column type for the class column `k` (`TEXT` or `INTEGER`).
    pub class_type: &'static str,
}

impl SqlGenerator {
    pub fn new(model: &str, dialect: Dialect, class_type: &'static str) -> Self {
        SqlGenerator {
            model: model.to_string(),
            dialect,
            class_type,
        }
    }

    pub fn corpus_table(&self) -> String {
        format!("{}_corpus", self.model)
    }

    pub fn weights_table(&self) -> String {
        format!("{}_weights", self.model)
    }

    // ------------------------------------------------------------------
    // Schema management
    // ------------------------------------------------------------------

    /// The global hyper-parameter table (paper Section 3.3): one row per
    /// model keyed by the model name.
    pub fn create_params_table(&self) -> String {
        "CREATE TABLE IF NOT EXISTS params (model TEXT PRIMARY KEY, a REAL, b REAL, h REAL)"
            .to_string()
    }

    /// `{model}_corpus (j, k, w)` holding the trained tensor `P_jk`.
    pub fn create_corpus_table(&self) -> String {
        format!(
            "CREATE TABLE IF NOT EXISTS {t} (j TEXT, k {kt}, w REAL, PRIMARY KEY (j, k))",
            t = self.corpus_table(),
            kt = self.class_type,
        )
    }

    /// `{model}_weights (j, k, w)` holding the deployed tensor `HW_jk`.
    pub fn create_weights_table(&self) -> String {
        format!(
            "CREATE TABLE IF NOT EXISTS {t} (j TEXT, k {kt}, w REAL, PRIMARY KEY (j, k))",
            t = self.weights_table(),
            kt = self.class_type,
        )
    }

    /// Secondary index on the weights table's `j` column. The serving hot
    /// path joins `{model}_weights` to `x_nj` on `j` (eq. 27), so deployment
    /// creates this index to let the engine pick an index-nested-loop join
    /// for small inference batches instead of hashing the whole table.
    pub fn create_weights_index(&self) -> String {
        format!(
            "CREATE INDEX IF NOT EXISTS {t}_j ON {t} (j)",
            t = self.weights_table()
        )
    }

    pub fn drop_weights_table(&self) -> String {
        format!("DROP TABLE IF EXISTS {}", self.weights_table())
    }

    pub fn drop_corpus_table(&self) -> String {
        format!("DROP TABLE IF EXISTS {}", self.corpus_table())
    }

    /// Upsert this model's hyper-parameters into `params`.
    pub fn set_params(&self, a: f64, b: f64, h: f64) -> String {
        format!(
            "INSERT INTO params (model, a, b, h) VALUES ('{m}', {a}, {b}, {h}) \
             ON CONFLICT (model) DO UPDATE SET a = excluded.a, b = excluded.b, h = excluded.h",
            m = self.model,
            a = fmt_f64(a),
            b = fmt_f64(b),
            h = fmt_f64(h),
        )
    }

    pub fn get_params(&self) -> String {
        format!(
            "SELECT a, b, h FROM params WHERE model = '{m}'",
            m = self.model
        )
    }

    // ------------------------------------------------------------------
    // Preprocessing CTEs (paper Section 3.1)
    // ------------------------------------------------------------------

    /// Render the preprocessing CTE list shared by training and inference:
    /// `n_n` (when `q_n` given), `x_nj`, and optionally `y_nk` / `w_n`.
    ///
    /// Each `q_x` arm is filtered by `q_n` *individually* before the
    /// `UNION ALL` (the optimization noted at the end of Section 3.1).
    fn preprocessing_ctes(
        &self,
        spec: &DataSpec,
        with_targets: bool,
        with_weights: bool,
    ) -> Vec<String> {
        let mut ctes = Vec::new();
        let filtered = |q: &str, alias: &str, cols: &str| -> String {
            match &spec.qn {
                Some(_) => {
                    format!("SELECT {cols} FROM ({q}) AS {alias}, n_n WHERE {alias}.n = n_n.n")
                }
                None => format!("SELECT {cols} FROM ({q}) AS {alias}"),
            }
        };
        if let Some(qn) = &spec.qn {
            ctes.push(format!("n_n AS ({qn})"));
        }
        let arms: Vec<String> = spec
            .qx
            .iter()
            .map(|q| filtered(q, "qx", "qx.n AS n, qx.j AS j, qx.w AS w"))
            .collect();
        ctes.push(format!("x_nj AS ({})", arms.join(" UNION ALL ")));
        if with_targets {
            let qy = spec.qy.as_deref().expect("validated by caller");
            ctes.push(format!(
                "y_nk AS ({})",
                filtered(qy, "qy", "qy.n AS n, qy.k AS k, qy.w AS w")
            ));
        }
        if with_weights {
            if let Some(qw) = &spec.qw {
                ctes.push(format!(
                    "w_n AS ({})",
                    filtered(qw, "qw", "qw.n AS n, qw.w AS w")
                ));
            }
        }
        ctes
    }

    // ------------------------------------------------------------------
    // Training (paper Section 3.2, eqs. 16–18)
    // ------------------------------------------------------------------

    /// One statement that computes `P_jk` from the spec and accumulates it
    /// into `{model}_corpus`. With `sign = -1.0` this is the exact
    /// unlearning statement (paper eq. 6).
    pub fn partial_fit(&self, spec: &DataSpec, sign: f64) -> String {
        let mut ctes = self.preprocessing_ctes(spec, true, true);
        // XY_njk = x_nj ⊗ y_nk restricted to matching n       (eq. 16)
        ctes.push(
            "xy_njk AS (SELECT x_nj.n AS n, x_nj.j AS j, y_nk.k AS k, \
             x_nj.w * y_nk.w AS w FROM x_nj, y_nk WHERE x_nj.n = y_nk.n)"
                .to_string(),
        );
        // XY_n = Σ_jk x_nj·y_nk                               (eq. 17)
        ctes.push("xy_n AS (SELECT n, SUM(w) AS w FROM xy_njk GROUP BY n)".to_string());
        // P_jk = Σ_n w_n·xy_njk / xy_n                        (eq. 18 / eq. 1)
        let sign = fmt_f64(sign);
        let p_jk = match &spec.qw {
            Some(_) => format!(
                "p_jk AS (SELECT xy_njk.j AS j, xy_njk.k AS k, \
                 SUM({sign} * w_n.w * xy_njk.w / xy_n.w) AS w \
                 FROM xy_njk, xy_n, w_n \
                 WHERE xy_njk.n = xy_n.n AND xy_njk.n = w_n.n \
                 GROUP BY xy_njk.j, xy_njk.k)"
            ),
            // Unit weights: skip the w_n join entirely (Section 4.2's noted
            // optimization).
            None => format!(
                "p_jk AS (SELECT xy_njk.j AS j, xy_njk.k AS k, \
                 SUM({sign} * xy_njk.w / xy_n.w) AS w \
                 FROM xy_njk, xy_n WHERE xy_njk.n = xy_n.n \
                 GROUP BY xy_njk.j, xy_njk.k)"
            ),
        };
        ctes.push(p_jk);
        format!(
            "INSERT INTO {t} (j, k, w) WITH {ctes} SELECT j, k, w FROM p_jk {upsert}",
            t = self.corpus_table(),
            ctes = ctes.join(", "),
            upsert = self.dialect.upsert_accumulate(&self.corpus_table()),
        )
    }

    /// Remove cells whose weight cancelled to numerical zero after
    /// unlearning, so the corpus matches a freshly retrained model.
    pub fn prune_corpus(&self) -> String {
        format!(
            "DELETE FROM {t} WHERE ABS(w) <= 0.000000000001",
            t = self.corpus_table()
        )
    }

    // ------------------------------------------------------------------
    // Deployment (paper Section 3.3, eqs. 19–26)
    // ------------------------------------------------------------------

    /// The CTE chain from `{model}_corpus` to the cached weights `HW_jk`.
    /// Shared by `deploy` (which materializes it) and by on-the-fly
    /// inference/explanations on an undeployed model.
    fn hw_ctes(&self) -> Vec<String> {
        let pow = self.dialect.pow();
        let corpus = self.corpus_table();
        vec![
            // ABH: the model's hyper-parameters                 (eq. 19)
            format!(
                "abh AS (SELECT a, b, h FROM params WHERE model = '{m}')",
                m = self.model
            ),
            // Only positive mass participates (transient float cancellation
            // during unlearning may leave tiny residue; retrained models
            // never contain it).
            format!("p_jk AS (SELECT j, k, w FROM {corpus} WHERE w > 0.0)"),
            // P_j = Σ_k P_jk                                     (eq. 20)
            "p_j AS (SELECT j, SUM(w) AS w FROM p_jk GROUP BY j)".to_string(),
            // P_k = Σ_j P_jk                                     (eq. 21)
            "p_k AS (SELECT k, SUM(w) AS w FROM p_jk GROUP BY k)".to_string(),
            // W_jk = P_jk / (P_k^b · P_j^(1-b))                  (eq. 22 / eq. 8)
            format!(
                "w_jk AS (SELECT p_jk.j AS j, p_jk.k AS k, \
                 p_jk.w / ({pow}(p_k.w, b) * {pow}(p_j.w, 1.0 - b)) AS w \
                 FROM p_jk, p_j, p_k, abh \
                 WHERE p_jk.j = p_j.j AND p_jk.k = p_k.k)"
            ),
            // W_j = Σ_k W_jk                                     (eq. 23)
            "w_j AS (SELECT j, SUM(w) AS w FROM w_jk GROUP BY j)".to_string(),
            // H_jk = W_jk / W_j                                  (eq. 24 / eq. 9)
            "h_jk AS (SELECT w_jk.j AS j, w_jk.k AS k, w_jk.w / w_j.w AS w \
             FROM w_jk, w_j WHERE w_jk.j = w_j.j)"
                .to_string(),
            // Number of classes for the entropy scale ln(Σ_k 1).
            "n_k AS (SELECT COUNT(DISTINCT k) AS n FROM p_jk)".to_string(),
            // H_j = 1 + Σ_k H_jk·ln(H_jk) / ln(n)               (eq. 25 / eq. 10)
            // Clamped at zero: float round-off can push the entropy a hair
            // past ln(n). A single-class model has no entropy scale; its
            // features are equally (un)informative (H_j = 1).
            "h_j AS (SELECT h_jk.j AS j, \
             CASE WHEN n_k.n <= 1 THEN 1.0 ELSE \
             CASE WHEN 1.0 + SUM(h_jk.w * LN(h_jk.w)) / LN(n_k.n) < 0.0 THEN 0.0 \
             ELSE 1.0 + SUM(h_jk.w * LN(h_jk.w)) / LN(n_k.n) END END AS w \
             FROM h_jk, n_k GROUP BY h_jk.j, n_k.n)"
                .to_string(),
            // HW_jk = H_j^h · W_jk^a                             (eq. 26)
            format!(
                "hw_jk AS (SELECT w_jk.j AS j, w_jk.k AS k, \
                 {pow}(h_j.w, h) * {pow}(w_jk.w, a) AS w \
                 FROM w_jk, h_j, abh WHERE w_jk.j = h_j.j)"
            ),
        ]
    }

    /// Materialize `HW_jk` into `{model}_weights` (run after
    /// `drop_weights_table` + `create_weights_table`).
    pub fn deploy(&self) -> String {
        format!(
            "INSERT INTO {t} (j, k, w) WITH {ctes} SELECT j, k, w FROM hw_jk",
            t = self.weights_table(),
            ctes = self.hw_ctes().join(", "),
        )
    }

    // ------------------------------------------------------------------
    // Inference (paper Section 3.4, eqs. 27–29)
    // ------------------------------------------------------------------

    /// CTE producing `hwx_nk` — the per-item class scores
    /// `Σ_j HW_jk · x_nj^a` (eq. 27) — from either the deployed weights
    /// table or the on-the-fly `hw_jk` chain.
    fn hwx_ctes(&self, spec: &DataSpec, deployed: bool) -> Vec<String> {
        let pow = self.dialect.pow();
        let mut ctes = Vec::new();
        if deployed {
            ctes.push(format!(
                "abh AS (SELECT a, b, h FROM params WHERE model = '{m}')",
                m = self.model
            ));
        } else {
            ctes.extend(self.hw_ctes());
        }
        ctes.extend(self.preprocessing_ctes(spec, false, false));
        let hw = if deployed {
            self.weights_table()
        } else {
            "hw_jk".to_string()
        };
        ctes.push(format!(
            "hwx_nk AS (SELECT x_nj.n AS n, hw.k AS k, \
             SUM(hw.w * {pow}(x_nj.w, a)) AS w \
             FROM {hw} AS hw, x_nj, abh \
             WHERE hw.j = x_nj.j GROUP BY x_nj.n, hw.k)"
        ));
        ctes
    }

    /// Classification: `argmax_k u_k^a` by `ROW_NUMBER` (Section 3.4).
    /// Ties break toward the smallest class, matching the Rust oracle.
    pub fn predict(&self, spec: &DataSpec, deployed: bool) -> String {
        let ctes = self.hwx_ctes(spec, deployed);
        format!(
            "WITH {ctes} SELECT r_nk.n AS n, r_nk.k AS k FROM (\
             SELECT n, k, ROW_NUMBER() OVER (PARTITION BY n ORDER BY w DESC, k ASC) AS r \
             FROM hwx_nk) AS r_nk WHERE r_nk.r = 1 ORDER BY n",
            ctes = ctes.join(", "),
        )
    }

    /// Normalized class probabilities `u_nk / Σ_k u_nk` (eqs. 28–29).
    pub fn predict_proba(&self, spec: &DataSpec, deployed: bool) -> String {
        let pow = self.dialect.pow();
        let mut ctes = self.hwx_ctes(spec, deployed);
        ctes.push(format!(
            "u_nk AS (SELECT n, k, {pow}(w, 1.0 / a) AS w FROM hwx_nk, abh)"
        ));
        ctes.push("u_n AS (SELECT n, SUM(w) AS w FROM u_nk GROUP BY n)".to_string());
        format!(
            "WITH {ctes} SELECT u_nk.n AS n, u_nk.k AS k, u_nk.w / u_n.w AS w \
             FROM u_nk, u_n WHERE u_nk.n = u_n.n ORDER BY n, k",
            ctes = ctes.join(", "),
        )
    }

    // ------------------------------------------------------------------
    // Batched inference
    // ------------------------------------------------------------------

    /// Classification for an explicit batch of item identifiers: one
    /// statement whose `q_n` enumerates the batch, so parse/sema/plan and
    /// the weights scan are paid once per batch instead of once per item.
    /// Any `q_n` already on the spec is replaced by the batch.
    pub fn predict_batch(
        &self,
        spec: &DataSpec,
        deployed: bool,
        items: &[Value],
    ) -> Result<String, String> {
        Ok(self.predict(&batch_spec(spec, items)?, deployed))
    }

    /// Batched variant of [`SqlGenerator::predict_proba`].
    pub fn predict_proba_batch(
        &self,
        spec: &DataSpec,
        deployed: bool,
        items: &[Value],
    ) -> Result<String, String> {
        Ok(self.predict_proba(&batch_spec(spec, items)?, deployed))
    }

    // ------------------------------------------------------------------
    // Explainability (paper Section 3.5, eqs. 30–32)
    // ------------------------------------------------------------------

    /// Global explanation: the weights `HW_jk` themselves.
    pub fn explain_global(&self, deployed: bool, limit: Option<usize>) -> String {
        let tail = limit.map(|l| format!(" LIMIT {l}")).unwrap_or_default();
        if deployed {
            format!(
                "SELECT j, k, w FROM {t} ORDER BY w DESC, j ASC, k ASC{tail}",
                t = self.weights_table()
            )
        } else {
            format!(
                "WITH {ctes} SELECT j, k, w FROM hw_jk ORDER BY w DESC, j ASC, k ASC{tail}",
                ctes = self.hw_ctes().join(", "),
            )
        }
    }

    /// Local explanation for the items selected by the spec:
    /// `HW_jk · z_j^a` with `z` the weighted average normalized feature
    /// vector (eq. 30).
    pub fn explain_local(&self, spec: &DataSpec, deployed: bool, limit: Option<usize>) -> String {
        let pow = self.dialect.pow();
        let mut ctes = Vec::new();
        if deployed {
            ctes.push(format!(
                "abh AS (SELECT a, b, h FROM params WHERE model = '{m}')",
                m = self.model
            ));
        } else {
            ctes.extend(self.hw_ctes());
        }
        ctes.extend(self.preprocessing_ctes(spec, false, true));
        // X_n = Σ_j x_nj                                        (eq. 31)
        ctes.push(
            "x_n AS (SELECT x_nj.n AS n, SUM(x_nj.w) AS w FROM x_nj GROUP BY x_nj.n)".to_string(),
        );
        // Z_j = Σ_n w_n·x_nj / X_n                              (eq. 32 / eq. 30)
        let z_j = match &spec.qw {
            Some(_) => "z_j AS (SELECT x_nj.j AS j, SUM(w_n.w * x_nj.w / x_n.w) AS w \
                 FROM x_nj, x_n, w_n WHERE x_nj.n = x_n.n AND x_nj.n = w_n.n \
                 GROUP BY x_nj.j)"
                .to_string(),
            None => "z_j AS (SELECT x_nj.j AS j, SUM(x_nj.w / x_n.w) AS w \
                 FROM x_nj, x_n WHERE x_nj.n = x_n.n GROUP BY x_nj.j)"
                .to_string(),
        };
        ctes.push(z_j);
        let hw = if deployed {
            self.weights_table()
        } else {
            "hw_jk".to_string()
        };
        let tail = limit.map(|l| format!(" LIMIT {l}")).unwrap_or_default();
        format!(
            "WITH {ctes} SELECT hw.j AS j, hw.k AS k, hw.w * {pow}(z_j.w, a) AS w \
             FROM {hw} AS hw, z_j, abh WHERE hw.j = z_j.j \
             ORDER BY w DESC, j ASC, k ASC{tail}",
            ctes = ctes.join(", "),
        )
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    pub fn count_corpus_cells(&self) -> String {
        format!("SELECT COUNT(*) FROM {}", self.corpus_table())
    }

    pub fn count_features(&self) -> String {
        format!("SELECT COUNT(DISTINCT j) FROM {}", self.corpus_table())
    }

    pub fn count_classes(&self) -> String {
        format!("SELECT COUNT(DISTINCT k) FROM {}", self.corpus_table())
    }
}

/// Clone `spec` with its `q_n` replaced by a query enumerating `items`.
fn batch_spec(spec: &DataSpec, items: &[Value]) -> Result<DataSpec, String> {
    let mut s = spec.clone();
    s.qn = Some(batch_items_query(items)?);
    Ok(s)
}

/// Render a batch of item identifiers as an item-selection query: a
/// `UNION ALL` of one-row `SELECT <literal> AS n` arms (the engine has no
/// standalone `VALUES` constructor). Each preprocessing arm then filters by
/// this `n_n` before concatenation, exactly like a user-supplied `q_n`.
pub fn batch_items_query(items: &[Value]) -> Result<String, String> {
    if items.is_empty() {
        return Err("batch inference requires at least one item identifier".into());
    }
    let arms: Vec<String> = items
        .iter()
        .map(|v| Ok(format!("SELECT {} AS n", value_literal(v)?)))
        .collect::<Result<_, String>>()?;
    Ok(arms.join(" UNION ALL "))
}

/// Render an item identifier as a SQL literal. Text is single-quoted with
/// embedded quotes doubled; NULL and non-finite floats are rejected because
/// they cannot name an item.
fn value_literal(v: &Value) -> Result<String, String> {
    match v {
        Value::Int(i) => Ok(i.to_string()),
        Value::Float(f) if f.is_finite() => Ok(fmt_f64(*f)),
        Value::Float(f) => Err(format!("item identifier {f} is not a finite number")),
        Value::Str(s) => Ok(format!("'{}'", s.replace('\'', "''"))),
        Value::Null => Err("item identifiers must not be NULL".into()),
    }
}

/// Format a float so it round-trips through the SQL lexer as a REAL (always
/// includes a decimal point or exponent).
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.is_finite() {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generator(d: Dialect) -> SqlGenerator {
        SqlGenerator::new("m", d, "TEXT")
    }

    fn spec() -> DataSpec {
        DataSpec::new("SELECT id AS n, 'f:' || f AS j, 1.0 AS w FROM t")
            .with_targets("SELECT id AS n, y AS k, 1.0 AS w FROM t")
    }

    #[test]
    fn partial_fit_contains_paper_pipeline() {
        let sql = generator(Dialect::Sqlite).partial_fit(&spec(), 1.0);
        for fragment in [
            "INSERT INTO m_corpus (j, k, w)",
            "xy_njk AS",
            "xy_n AS",
            "p_jk AS",
            "GROUP BY xy_njk.j, xy_njk.k",
            "ON CONFLICT (j, k) DO UPDATE SET w = m_corpus.w + excluded.w",
        ] {
            assert!(sql.contains(fragment), "missing {fragment:?} in\n{sql}");
        }
        // Unit weights: no w_n join.
        assert!(!sql.contains("w_n"));
    }

    #[test]
    fn unlearn_is_negated_partial_fit() {
        let g = generator(Dialect::Sqlite);
        let fit = g.partial_fit(&spec(), 1.0);
        let unfit = g.partial_fit(&spec(), -1.0);
        assert!(fit.contains("SUM(1.0 *"));
        assert!(unfit.contains("SUM(-1.0 *"));
        assert_eq!(
            fit.replace("SUM(1.0 *", ""),
            unfit.replace("SUM(-1.0 *", "")
        );
    }

    #[test]
    fn qn_filters_each_arm_before_union() {
        let s = spec()
            .with_features("SELECT id AS n, 'g:' || g AS j, 1.0 AS w FROM u")
            .with_items("SELECT id AS n FROM t WHERE id <= 100");
        let sql = generator(Dialect::Sqlite).partial_fit(&s, 1.0);
        assert!(sql.contains("n_n AS (SELECT id AS n FROM t WHERE id <= 100)"));
        // Both arms filtered before UNION ALL.
        assert_eq!(sql.matches("qx.n = n_n.n").count(), 2);
        assert!(sql.contains("UNION ALL"));
    }

    #[test]
    fn qw_join_included_when_weights_given() {
        let s = spec().with_weights("SELECT id AS n, 2.0 AS w FROM t");
        let sql = generator(Dialect::Sqlite).partial_fit(&s, 1.0);
        assert!(sql.contains("w_n AS"));
        assert!(sql.contains("w_n.w * xy_njk.w / xy_n.w"));
    }

    #[test]
    fn deploy_follows_equations_19_to_26() {
        let sql = generator(Dialect::Sqlite).deploy();
        for fragment in [
            "abh AS (SELECT a, b, h FROM params WHERE model = 'm')",
            "p_j AS",
            "p_k AS",
            "w_jk AS",
            "w_j AS",
            "h_jk AS",
            "h_j AS",
            "hw_jk AS",
            "POW(p_k.w, b) * POW(p_j.w, 1.0 - b)",
            "LN(n_k.n)",
            "POW(h_j.w, h) * POW(w_jk.w, a)",
            "INSERT INTO m_weights (j, k, w)",
        ] {
            assert!(sql.contains(fragment), "missing {fragment:?} in\n{sql}");
        }
    }

    #[test]
    fn index_statements_name_by_table() {
        let g = generator(Dialect::Sqlite);
        assert_eq!(
            g.create_weights_index(),
            "CREATE INDEX IF NOT EXISTS m_weights_j ON m_weights (j)"
        );
    }

    #[test]
    fn predict_uses_row_number_argmax() {
        let sql = generator(Dialect::Sqlite).predict(&spec(), true);
        assert!(sql.contains("ROW_NUMBER() OVER (PARTITION BY n ORDER BY w DESC, k ASC)"));
        assert!(sql.contains("FROM m_weights AS hw"));
        assert!(
            !sql.contains("p_jk AS"),
            "deployed path must not recompute weights"
        );
    }

    #[test]
    fn undeployed_predict_computes_weights_on_the_fly() {
        let sql = generator(Dialect::Sqlite).predict(&spec(), false);
        assert!(sql.contains("hw_jk AS"));
        assert!(sql.contains("FROM hw_jk AS hw"));
    }

    #[test]
    fn proba_normalizes_with_inverse_a_root() {
        let sql = generator(Dialect::Sqlite).predict_proba(&spec(), true);
        assert!(sql.contains("POW(w, 1.0 / a)"));
        assert!(sql.contains("u_nk.w / u_n.w"));
    }

    #[test]
    fn mysql_dialect_swaps_upsert() {
        let sql = generator(Dialect::MySql).partial_fit(&spec(), 1.0);
        assert!(sql.contains("ON DUPLICATE KEY UPDATE w = m_corpus.w + VALUES(w)"));
        assert!(!sql.contains("ON CONFLICT"));
    }

    #[test]
    fn postgres_dialect_uses_power() {
        let sql = generator(Dialect::Postgres).deploy();
        assert!(sql.contains("POWER(p_k.w, b)"));
        assert!(!sql.contains("POW(p_k.w, b)"));
    }

    #[test]
    fn explain_local_builds_average_vector() {
        let sql = generator(Dialect::Sqlite).explain_local(&spec(), true, Some(10));
        assert!(sql.contains("x_n AS"));
        assert!(sql.contains("z_j AS"));
        assert!(sql.contains("POW(z_j.w, a)"));
        assert!(sql.ends_with("LIMIT 10"));
    }

    #[test]
    fn batch_items_render_as_union_all_of_literals() {
        let q =
            batch_items_query(&[Value::Int(7), Value::text("it's"), Value::Float(2.5)]).unwrap();
        assert_eq!(
            q,
            "SELECT 7 AS n UNION ALL SELECT 'it''s' AS n UNION ALL SELECT 2.5 AS n"
        );
    }

    #[test]
    fn batch_rejects_null_nan_and_empty() {
        assert!(batch_items_query(&[]).is_err());
        assert!(batch_items_query(&[Value::Null]).is_err());
        assert!(batch_items_query(&[Value::Float(f64::NAN)]).is_err());
    }

    #[test]
    fn predict_batch_installs_items_as_qn() {
        let g = generator(Dialect::Sqlite);
        let sql = g
            .predict_batch(&spec(), true, &[Value::Int(1), Value::Int(2)])
            .unwrap();
        assert!(sql.contains("n_n AS (SELECT 1 AS n UNION ALL SELECT 2 AS n)"));
        // The batch filter applies to the feature arm before UNION ALL.
        assert!(sql.contains("qx.n = n_n.n"));
        // Batch replaces any user-supplied q_n.
        let s = spec().with_items("SELECT id AS n FROM t");
        let sql = g.predict_batch(&s, true, &[Value::Int(9)]).unwrap();
        assert!(!sql.contains("SELECT id AS n FROM t"));
        assert!(sql.contains("n_n AS (SELECT 9 AS n)"));
    }

    #[test]
    fn float_formatting_roundtrips() {
        assert_eq!(fmt_f64(1.0), "1.0");
        assert_eq!(fmt_f64(0.5), "0.5");
        assert_eq!(fmt_f64(-1.0), "-1.0");
    }
}
