//! Property test for the static plan verifier's no-false-positive claim:
//! every plan the engine produces for a `check`-passing statement passes
//! all five verifier invariant classes, across the planner configurations
//! that change plan shape — vectorized {on, off} × parallelism {1, 4}.
//!
//! Like `sema_prop.rs`, random statements are decoded from seeded byte
//! programs.

mod common;

use common::byte_program;
use seeded::cases;
use sqlengine::{Database, EngineConfig, EngineError};

struct Decoder<'b> {
    bytes: &'b [u8],
    pos: usize,
}

impl Decoder<'_> {
    fn next(&mut self) -> u8 {
        let b = self.bytes.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }

    fn scalar(&mut self) -> String {
        match self.next() % 8 {
            0 => "a".to_string(),
            1 => "b".to_string(),
            2 => "s".to_string(),
            3 => "7".to_string(),
            4 => "1.5".to_string(),
            5 => "'tok1'".to_string(),
            6 => format!("(a + {})", self.next() % 16),
            _ => "NULL".to_string(),
        }
    }

    /// Predicates chosen to steer the planner across its access paths:
    /// primary-index equality, secondary-index equality, IN lists,
    /// vectorized-eligible comparison chains, and residual predicates.
    fn predicate(&mut self) -> String {
        match self.next() % 8 {
            0 => format!("a = {}", self.next() % 32),
            1 => format!("s = 'tok{}'", self.next() % 5),
            2 => format!("a IN ({}, {})", self.next() % 32, self.next() % 32),
            3 => format!("b > {}.25", self.next() % 8),
            4 => format!("a < {} AND b >= 0.0", self.next() % 32),
            5 => format!("s LIKE 'tok%' OR a = {}", self.next() % 32),
            6 => "b IS NULL".to_string(),
            _ => format!("a BETWEEN {} AND {}", self.next() % 16, self.next() % 32),
        }
    }

    fn query(&mut self) -> String {
        match self.next() % 8 {
            0 => format!("SELECT {} FROM t WHERE {}", self.scalar(), self.predicate()),
            1 => format!(
                "SELECT s, COUNT(*), SUM(a) FROM t WHERE {} GROUP BY s",
                self.predicate()
            ),
            2 => format!(
                "SELECT x.a, y.s FROM t x JOIN t y ON x.a = y.a WHERE x.{}",
                self.predicate()
            ),
            3 => format!(
                "SELECT {} FROM t WHERE {} ORDER BY 1 LIMIT {}",
                self.scalar(),
                self.predicate(),
                self.next() % 9
            ),
            4 => format!(
                "SELECT a FROM t WHERE {} UNION ALL SELECT a FROM t WHERE {}",
                self.predicate(),
                self.predicate()
            ),
            5 => format!("SELECT DISTINCT {} FROM t ORDER BY 1", self.scalar()),
            6 => format!(
                "SELECT a, ROW_NUMBER() OVER (PARTITION BY s ORDER BY a) FROM t WHERE {}",
                self.predicate()
            ),
            _ => format!("SELECT {}, {}", self.scalar(), self.scalar()),
        }
    }
}

fn decoded_query(bytes: &[u8]) -> String {
    Decoder { bytes, pos: 0 }.query()
}

fn fixture(config: EngineConfig) -> Database {
    let db = Database::with_config(config);
    db.execute("CREATE TABLE t (a INTEGER, b REAL, s TEXT, PRIMARY KEY (a))")
        .unwrap();
    db.execute("CREATE INDEX t_s ON t (s)").unwrap();
    let mut rows = Vec::new();
    for i in 0..64i64 {
        rows.push(vec![
            sqlengine::Value::Int(i),
            if i % 11 == 0 {
                sqlengine::Value::Null
            } else {
                sqlengine::Value::Float(i as f64 / 4.0)
            },
            sqlengine::Value::text(format!("tok{}", i % 5)),
        ]);
    }
    db.insert_rows("t", rows).unwrap();
    db
}

/// Every plan for a `check`-passing statement passes the verifier — no
/// invariant class reports a violation in any planner configuration.
#[test]
fn check_passing_statements_verify_cleanly() {
    cases(192, 1, |rng| {
        let sql = decoded_query(&byte_program(rng, 1..48));
        for vectorized in [true, false] {
            for parallelism in [1usize, 4] {
                let db = fixture(
                    EngineConfig::default()
                        .with_vectorized(vectorized)
                        .with_parallelism(parallelism)
                        .with_verify_plans(true),
                );
                if db.check(&sql).is_err() {
                    continue;
                }
                // EXPLAIN (VERIFY): every class reports ok.
                let report = db.query(&format!("EXPLAIN (VERIFY) {sql}"));
                let report = report.unwrap_or_else(|e| {
                    panic!("EXPLAIN (VERIFY) failed for check-passing {sql:?}: {e}")
                });
                for row in &report.rows {
                    assert_eq!(
                        row[1].to_string(),
                        "ok",
                        "verifier violation for {sql:?} (vectorized={vectorized}, \
                         par={parallelism}): {} — {}",
                        row[0],
                        row[2]
                    );
                }
                // The executing entry point agrees: no Verify error, twice
                // (fresh plan, then the cached template / memoized path).
                for _ in 0..2 {
                    if let Err(e) = db.query(&sql) {
                        assert!(
                            !matches!(e, EngineError::Verify { .. }),
                            "execution hit a verifier rejection for {sql:?}: {e}"
                        );
                    }
                }
                assert_eq!(db.telemetry().verify_violations.get(), 0);
            }
        }
    });
}
