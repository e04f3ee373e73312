//! Property test for the semantic analyzer's central soundness claim: any
//! query that passes `Database::check` never raises a *type-shaped* error at
//! execution time (value-shaped failures like integer division by zero are
//! still allowed — they depend on data the analyzer cannot see).
//!
//! Random expression trees are decoded from seeded byte programs, so the
//! grammar lives in ordinary Rust below.

mod common;

use common::byte_program;
use seeded::cases;
use sqlengine::{Database, EngineConfig, EngineError};

/// Runtime error fragments that indicate a type error the analyzer should
/// have caught statically.
const TYPE_SHAPED: &[&str] = &[
    "expected a numeric value",
    "used in a boolean context",
    "cannot negate string",
    "ABS of string",
    "of non-numeric value",
];

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

    fn leaf(&mut self) -> String {
        match self.next() % 8 {
            0 => "a".to_string(),
            1 => "b".to_string(),
            2 => "s".to_string(),
            3 => "1".to_string(),
            4 => "2.5".to_string(),
            5 => "'txt'".to_string(),
            6 => "NULL".to_string(),
            _ => "0".to_string(),
        }
    }

    fn expr(&mut self, depth: u32) -> String {
        if depth == 0 {
            return self.leaf();
        }
        match self.next() % 16 {
            0..=4 => self.leaf(),
            5 => format!("({} + {})", self.expr(depth - 1), self.expr(depth - 1)),
            6 => format!("({} - {})", self.expr(depth - 1), self.expr(depth - 1)),
            7 => format!("({} * {})", self.expr(depth - 1), self.expr(depth - 1)),
            8 => format!("({} / {})", self.expr(depth - 1), self.expr(depth - 1)),
            9 => format!("(-{})", self.expr(depth - 1)),
            10 => format!("ABS({})", self.expr(depth - 1)),
            11 => format!("({} || {})", self.expr(depth - 1), self.expr(depth - 1)),
            12 => format!("({} < {})", self.expr(depth - 1), self.expr(depth - 1)),
            13 => format!("({} AND {})", self.expr(depth - 1), self.expr(depth - 1)),
            14 => format!(
                "CASE WHEN {} THEN {} ELSE {} END",
                self.expr(depth - 1),
                self.expr(depth - 1),
                self.expr(depth - 1)
            ),
            _ => format!(
                "COALESCE({}, {})",
                self.expr(depth - 1),
                self.expr(depth - 1)
            ),
        }
    }

    fn query(&mut self) -> String {
        let e = self.expr(3);
        match self.next() % 4 {
            0 => format!("SELECT {e} FROM t"),
            1 => {
                let w = self.expr(2);
                format!("SELECT {e} FROM t WHERE {w}")
            }
            2 => format!("SELECT s, SUM({e}) AS v FROM t GROUP BY s"),
            _ => format!("SELECT {e} FROM t ORDER BY 1 LIMIT 5"),
        }
    }
}

fn decoded_query(bytes: &[u8]) -> String {
    Decoder { bytes, pos: 0 }.query()
}

/// The same expression grammar in the positions whose output column the
/// engine has to name itself: unaliased aggregates, key expressions and
/// window functions.
fn decoded_unaliased_query(bytes: &[u8]) -> String {
    let mut d = Decoder { bytes, pos: 0 };
    let e = d.expr(2);
    match d.next() % 5 {
        0 => format!("SELECT SUM({e}), COUNT(*) FROM t"),
        1 => format!("SELECT {e}, MIN(b) FROM t GROUP BY {e}"),
        2 => format!("SELECT s, MAX({e}) + 1 FROM t GROUP BY s HAVING COUNT(*) > 0"),
        3 => format!("SELECT a, ROW_NUMBER() OVER (ORDER BY {e}) FROM t"),
        _ => format!("SELECT t.s, RANK() OVER (ORDER BY COUNT(*)) FROM t GROUP BY s ORDER BY {e}"),
    }
}

fn fixture() -> Database {
    fixture_with(EngineConfig::default())
}

fn fixture_with(config: EngineConfig) -> Database {
    let db = Database::with_config(config);
    db.execute_script(
        "CREATE TABLE t (a INTEGER, b REAL, s TEXT); \
         INSERT INTO t VALUES (1, 0.5, 'x'); \
         INSERT INTO t VALUES (-3, 2.25, ''); \
         INSERT INTO t VALUES (0, -1.5, 'yy'); \
         INSERT INTO t VALUES (NULL, NULL, NULL);",
    )
    .unwrap();
    db
}

/// Run 256 decoded queries; hand each one that passes `check` and then
/// fails at execution, with its error, to `judge`.
fn check_passing_failures(seed: u64, judge: impl Fn(&str, &EngineError)) {
    cases(256, seed, |rng| {
        let sql = decoded_query(&byte_program(rng, 1..64));
        let db = fixture();
        if db.check(&sql).is_ok() {
            if let Err(e) = db.query(&sql) {
                judge(&sql, &e);
            }
        }
    });
}

/// If `check` accepts a query, execution never produces a type-shaped
/// error.
#[test]
#[ignore = "ROADMAP item 2: `Any` from a mixed-type CASE/COALESCE admits a TEXT value"]
fn check_passing_queries_have_no_type_errors() {
    check_passing_failures(1, |sql, e| {
        let msg = e.to_string();
        for frag in TYPE_SHAPED {
            assert!(
                !msg.contains(frag),
                "check passed but execution raised a type error for {sql:?}: {msg}"
            );
        }
    });
}

/// Nor a planner error: the analyzer mirrors the planner's structural
/// rules.
#[test]
fn check_passing_queries_plan() {
    check_passing_failures(1, |sql, e| {
        assert!(
            !matches!(e, EngineError::Plan(_)),
            "check passed but planning failed for {sql:?}: {e}"
        );
    });
}

/// Statically rejected queries never reach execution: the same error
/// comes back from the execution entry point, and the database state is
/// untouched by rejected DML.
#[test]
fn rejected_queries_do_not_execute() {
    cases(256, 2, |rng| {
        let sql = decoded_query(&byte_program(rng, 1..64));
        let db = fixture();
        if let Err(check_err) = db.check(&sql) {
            let exec_err = db.query(&sql).unwrap_err();
            assert_eq!(check_err, exec_err);
        }
    });
}

/// `check` names a query's output columns exactly as the executed result
/// does — with the plan cache on (folded, literal-lifted tree) and off (the
/// tree as written) — and no name is one of the planner's internal `#…`
/// markers.
#[test]
fn checked_column_names_are_the_executed_ones() {
    cases(256, 3, |rng| {
        let bytes = byte_program(rng, 1..64);
        for sql in [decoded_query(&bytes), decoded_unaliased_query(&bytes)] {
            for plan_cache in [true, false] {
                let db = fixture_with(EngineConfig::default().with_plan_cache(plan_cache));
                let (Ok(checked), Ok(result)) = (db.check(&sql), db.query(&sql)) else {
                    continue;
                };
                let checked: Vec<String> = checked.columns.into_iter().map(|(n, _)| n).collect();
                assert_eq!(checked, result.columns, "{sql} (plan_cache: {plan_cache})");
                assert!(
                    checked.iter().all(|name| !name.starts_with('#')),
                    "{sql} names an internal column: {checked:?}"
                );
            }
        }
    });
}
