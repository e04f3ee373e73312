//! SQL dialect abstraction.
//!
//! The paper's portability claim is that every BornSQL operation is plain
//! standard SQL, with only two engine-specific spots: the upsert syntax used
//! for incremental learning and the power function's name. This module
//! captures those differences so the generator can emit text for
//! PostgreSQL, MySQL and SQLite.
//!
//! Every dialect's text also runs on the bundled `sqlengine`, which parses
//! both upsert spellings into one node and accepts both power names; the
//! executed sweep (`tests/dialect_conformance.rs`) requires the three to
//! return the same rows.

/// Target SQL dialect for query generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Dialect {
    /// PostgreSQL text output (`POWER`, `ON CONFLICT … excluded.w`).
    Postgres,
    /// MySQL text output (`ON DUPLICATE KEY UPDATE`, `VALUES()`).
    MySql,
    /// SQLite text output (`POW`, `ON CONFLICT` like PostgreSQL).
    #[default]
    Sqlite,
}

impl Dialect {
    /// Every dialect, one per DBMS the paper names.
    pub const ALL: [Dialect; 3] = [Dialect::Postgres, Dialect::MySql, Dialect::Sqlite];

    /// The power function: `POW` everywhere except PostgreSQL's `POWER`
    /// (PostgreSQL accepts both; we emit the canonical one per engine).
    pub fn pow(&self) -> &'static str {
        match self {
            Dialect::Postgres => "POWER",
            _ => "POW",
        }
    }

    /// Render the upsert tail appended to
    /// `INSERT INTO {table} (j, k, w) <select>` so that conflicting `(j, k)`
    /// rows accumulate `w` — the paper's incremental-learning statement
    /// (Section 3.2).
    pub fn upsert_accumulate(&self, table: &str) -> String {
        match self {
            Dialect::MySql => {
                // MySQL has no ON CONFLICT; the equivalent idiom:
                format!("ON DUPLICATE KEY UPDATE w = {table}.w + VALUES(w)")
            }
            _ => format!("ON CONFLICT (j, k) DO UPDATE SET w = {table}.w + excluded.w"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upsert_syntax_per_dialect() {
        assert!(Dialect::Postgres
            .upsert_accumulate("m_corpus")
            .contains("excluded.w"));
        assert!(Dialect::MySql
            .upsert_accumulate("m_corpus")
            .contains("ON DUPLICATE KEY UPDATE"));
        assert!(Dialect::Sqlite
            .upsert_accumulate("m_corpus")
            .contains("ON CONFLICT (j, k) DO UPDATE"));
    }

    #[test]
    fn pow_function_name() {
        assert_eq!(Dialect::Postgres.pow(), "POWER");
        assert_eq!(Dialect::MySql.pow(), "POW");
        assert_eq!(Dialect::Sqlite.pow(), "POW");
    }
}
